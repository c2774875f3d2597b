"""repro-lint: custom static analysis for the simulation stack.

Twelve rules encode the invariants the numpy-heavy pipeline (device
variation -> VAWO/PWT offsets -> crossbar eval) depends on — the
mistakes that corrupt accuracy numbers without crashing. R1-R7 are
single-file pattern rules; R8-R12 are AST + dataflow rules that share
one :class:`~tools.lint.callgraph.ModuleGraph` built per run (single
parse pass, cached by file content hash).

======  ==============================================================
R1      No direct ``np.random.*`` / ``default_rng()`` calls outside
        ``repro/utils/rng.py`` — all randomness flows through the
        seedable ``make_rng`` / ``spawn_rngs`` utilities.
R2      No mutable default arguments.
R3      Public functions in ``repro/core``, ``repro/device`` and
        ``repro/xbar`` carry complete type annotations and a docstring
        that documents array shapes.
R4      No silent dtype narrowing of weight/conductance arrays
        (``np.asarray(w, dtype=np.float32)``) without ``# dtype-ok``.
R5      ``np.savez`` / ``np.load`` paths must show an explicit ``.npz``
        suffix (or ``# npz-ok``) — the save/load suffix-mismatch class
        of bug that broke the seed's tier-1 run.
R6      No bare ``print()`` inside the ``repro`` library — output goes
        through ``repro.utils.logging`` or the ``repro.obs`` exporters
        (benchmarks/examples/tests/tools are exempt; ``# print-ok``
        marks a deliberate exception).
R7      No ``np.lib.stride_tricks`` (``as_strided`` /
        ``sliding_window_view``) outside ``repro/backend`` — window
        kernels live behind ``repro.backend.get_backend()``, whose
        equivalence to the reference oracle the test suite guarantees
        (``# stride-ok`` marks a vetted exception).
R8      Cache-salt drift: the normalized AST hash of every memoized
        stage (``Deployer._stage`` / literal ``stage_key`` anchors plus
        strict transitive ``repro.*`` callees) must match the committed
        ``tools/stage_hashes.json`` — a stage-body edit without a
        ``STAGE_VERSIONS`` bump fails the gate. After a legitimate
        bump, regenerate with ``python -m tools.lint --update-baseline``
        (workflow: DESIGN.md §4c).
R9      Worker RNG discipline: no generator constructed (or module
        global consumed) outside the spawned per-trial stream in code
        reachable from the ``repro.parallel`` worker entrypoints
        (``# rng-ok — reason`` marks a vetted exception).
R10     Fork-safety: no module-level state written by worker-reachable
        code, and every ``shared_memory`` segment pairs with
        ``close``/``unlink`` (``# fork-ok — reason``).
R11     Span hygiene: ``repro.obs`` spans open structurally — as a
        ``with`` context or decorator, never free-floating or via raw
        ``TRACER.push`` (``# span-ok — reason``).
R12     Exception hygiene: broad ``except Exception`` requires the
        justified ``# noqa: BLE001 — reason`` marker; bare ``except:``
        is never allowed.
======  ==============================================================

Run it as ``python -m tools.lint src/ tests/ benchmarks/``; add
``--json lint-report.json`` for the machine-readable sidecar CI
uploads. Suppress a single line with ``# repro-lint: disable=R1`` (or
``disable`` for all rules), a whole file with
``# repro-lint: disable-file=R3``.
"""

from tools.lint.report import Violation
from tools.lint.rules import FILE_RULES, Rule
from tools.lint.runner import (ALL_RULES, check_file, check_paths,
                               check_source, main)

__all__ = ["ALL_RULES", "FILE_RULES", "Rule", "Violation", "check_file",
           "check_paths", "check_source", "main"]
