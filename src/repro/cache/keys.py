"""Stable content-addressed key derivation for pipeline stages.

A stage key is a SHA-256 hex digest over three ingredient classes:

1. the stage name and its *code-version salt* (:data:`STAGE_VERSIONS`) —
   bump the salt whenever the stage's algorithm changes so stale
   artifacts are never reused across incompatible code;
2. the exact config fields the stage reads (scalars, strings, tuples);
3. digests of the input arrays the stage consumes
   (:func:`digest_array` — dtype, shape and raw bytes all contribute).

RNG *generators* are deliberately not hashable ingredients: stages that
consume randomness are handed a dedicated integer seed drawn from the
parent stream in a config-determined order, and that **seed** enters the
key instead (see DESIGN.md, "Why stage keys exclude RNG-dependent
inputs"). Two runs with the same seed therefore share artifacts, while
the cached and uncached paths stay bit-identical.
"""

from __future__ import annotations

import hashlib
from typing import Any, Mapping

import numpy as np

__all__ = ["STAGE_VERSIONS", "digest_array", "digest_arrays",
           "fingerprint", "stage_key"]

#: Code-version salt per cached stage. Bump a stage's number whenever
#: its algorithm (not just its inputs) changes, so artifacts written by
#: older code are never reused against newer code.
STAGE_VERSIONS: Mapping[str, int] = {
    "data": 1,          # synthetic train/test split (eval.experiments)
    "workload": 6,      # trained workload weights (eval.experiments)
                        # v2: GEMM conv sums in a new order (last bits)
                        # v3: NaN-loss guard (no finite result changes)
                        # v4: no_grad eval/calibration; no result changes
                        # v5: backend name left the key; one kernel set
                        # v6: split read from the data stage; float
                        # accuracy stored with the weights; no result
                        # changes
    "lut": 1,           # device E[R(v)] / Var[R(v)] tables (device.lut)
    "quantize": 1,      # per-layer NTWs + scales (core.pipeline)
    "calibrate": 4,     # per-layer input activation peaks (core.pipeline)
                        # v2: conv forward is one GEMM (new summation order)
                        # v3: no_grad eval/calibration; no result changes
                        # v4: backend name left the key; one kernel set
    "gradients": 4,     # per-weight gradient RMS estimates (core.pipeline)
                        # v2: conv forward/backward are GEMMs (new order)
                        # v3: no_grad eval/calibration; no result changes
                        # v4: backend name left the key; one kernel set
    "vawo": 2,          # run_vawo solutions (core.vawo via core.pipeline)
                        # v2: histogram-GEMM scoring (objective last bits)
    "serve_program": 7,  # programmed deployments (serve.registry);
                         # v2: HAL array capability dict + scenario
                         # parameters entered the key
                         # v4: key folds the backend name (tag alias gone)
                         # v5: array family name dropped, scenarios keyed
                         # from the deploy config
                         # v6: BN recal + PWT run the GEMM conv (new order)
                         # v7: backend name left the key; one kernel set

}


def digest_array(array: np.ndarray) -> str:
    """SHA-256 hex digest of an array's dtype, shape and raw bytes.

    Accepts any shape; non-contiguous inputs are copied to C order
    first so logically-equal arrays always digest equally.
    """
    arr = np.ascontiguousarray(array)
    h = hashlib.sha256()
    h.update(str(arr.dtype.str).encode())
    h.update(repr(arr.shape).encode())
    h.update(arr.tobytes())
    return h.hexdigest()


def digest_arrays(arrays: Mapping[str, np.ndarray]) -> str:
    """One digest over a named array family (e.g. a model state dict).

    Key order does not matter: entries are folded in sorted-name order.
    Arrays may have any shape.
    """
    h = hashlib.sha256()
    for name in sorted(arrays):
        h.update(name.encode())
        h.update(digest_array(arrays[name]).encode())
    return h.hexdigest()


def fingerprint(value: Any) -> str:
    """Canonical string form of one key ingredient.

    Handles None, bools, ints, floats (via ``repr`` — full precision),
    strings, bytes, numpy scalars/arrays (digested) and nested
    tuples/lists/dicts. Anything else is rejected loudly rather than
    silently fingerprinted by id.
    """
    if value is None:
        return "none"
    if isinstance(value, bool):
        return f"b:{value}"
    if isinstance(value, (int, np.integer)):
        return f"i:{int(value)}"
    if isinstance(value, (float, np.floating)):
        return f"f:{float(value)!r}"
    if isinstance(value, str):
        return f"s:{value}"
    if isinstance(value, bytes):
        return f"x:{hashlib.sha256(value).hexdigest()}"
    if isinstance(value, np.ndarray):
        return f"a:{digest_array(value)}"
    if isinstance(value, (tuple, list)):
        inner = ",".join(fingerprint(v) for v in value)
        return f"t:({inner})"
    if isinstance(value, dict):
        inner = ",".join(f"{k}={fingerprint(value[k])}"
                         for k in sorted(value))
        return f"d:{{{inner}}}"
    raise TypeError(
        f"cannot fingerprint {type(value).__name__} for a cache key — "
        f"pass primitives, arrays, or nested tuples/dicts of them")


def stage_key(stage: str, **components: Any) -> str:
    """Content-addressed key for one stage invocation.

    ``components`` are the stage's actual inputs (config fields, array
    digests, derived seeds). The stage's :data:`STAGE_VERSIONS` salt is
    folded in automatically; unknown stages get version 0. Returns a
    64-char SHA-256 hex string.
    """
    h = hashlib.sha256()
    h.update(f"repro.cache/{stage}/v{STAGE_VERSIONS.get(stage, 0)}".encode())
    for name in sorted(components):
        h.update(f"|{name}={fingerprint(components[name])}".encode())
    return h.hexdigest()
