"""The graph-backed rules R8-R12: cache, RNG, fork, span, exception gates.

These rules protect the two subsystems whose failure modes are
*silent*: the content-addressed stage cache (a stale artifact replays
bit-for-bit) and the parallel trial executor (determinism dies without
a crash). Unlike R1-R7 they reason about more than one line at a time —
R8 hashes whole call closures, R9/R10 walk reachability from the
process-pool worker entrypoints over the shared
:class:`~tools.lint.callgraph.ModuleGraph` the runner builds once per
run.

Vetted exceptions carry justified inline markers, mirroring the
``# dtype-ok`` family: ``# rng-ok — reason`` (R9), ``# fork-ok —
reason`` (R10), ``# span-ok — reason`` (R11) and the pre-existing
``# noqa: BLE001 — reason`` convention (R12). A marker without a
reason does not suppress — the justification is the point.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from tools.lint.callgraph import FunctionInfo, ModuleGraph
from tools.lint.context import FileContext
from tools.lint.hashing import (load_baseline, parse_stage_versions,
                                stage_hashes)
from tools.lint.report import Violation
from tools.lint.rules import Rule

__all__ = ["AST_RULES", "LintOptions", "ProjectRule"]


class LintOptions:
    """Run-scoped knobs the project rules need (beyond the file set)."""

    def __init__(self, stage_baseline: Optional[Path] = None) -> None:
        self.stage_baseline = stage_baseline


class ProjectRule(Rule):
    """A rule that runs once per lint run against the whole graph."""

    def check_project(self, graph: ModuleGraph,
                      options: LintOptions) -> Iterator[Violation]:
        raise NotImplementedError

    def run_project(self, graph: ModuleGraph,
                    options: LintOptions) -> Iterator[Violation]:
        for violation in self.check_project(graph, options):
            ctx = graph.by_path.get(violation.path)
            if ctx is None or not ctx.is_disabled(self.code, violation.line):
                yield violation

    @staticmethod
    def _at(ctx: FileContext, node: ast.AST, code: str,
            message: str) -> Violation:
        return Violation(path=ctx.path, line=getattr(node, "lineno", 1),
                         col=getattr(node, "col_offset", 0) + 1, code=code,
                         message=message)


def _justified(ctx: FileContext, marker: str, lineno: int,
               end_lineno: Optional[int] = None) -> bool:
    """Whether a ``# <marker> — reason`` comment covers the span.

    The reason text is mandatory: a bare marker reads as a reflex, a
    justified one as a decision.
    """
    pattern = re.compile(rf"#\s*{re.escape(marker)}\b\s*[—–:-]*\s*(\S.+)")
    last = end_lineno if end_lineno is not None else lineno
    for ln in range(lineno, min(last, len(ctx.lines)) + 1):
        match = pattern.search(ctx.lines[ln - 1])
        if match and match.group(1).strip():
            return True
    return False


def _in_library(ctx: FileContext) -> bool:
    return ctx.module == "repro" or ctx.module.startswith("repro.")


# ----------------------------------------------------------------------
# R8: cache-salt drift
# ----------------------------------------------------------------------
class CacheSaltDriftRule(ProjectRule):
    """A memoized stage's code changed but its ``STAGE_VERSIONS`` salt
    didn't — the exact edit that makes ``repro.cache`` replay stale
    artifacts bit-for-bit. Compares normalized AST hashes of every
    stage (anchor functions + strict transitive ``repro`` callees,
    :mod:`tools.lint.hashing`) against the committed baseline
    ``tools/stage_hashes.json``; legitimate bumps refresh it with
    ``python -m tools.lint --update-baseline``.
    """

    code = "R8"
    name = "cache-salt-drift"
    description = ("memoized stage body changed without a STAGE_VERSIONS "
                   "bump (vs tools/stage_hashes.json; legitimate bumps: "
                   "python -m tools.lint --update-baseline)")

    def check_project(self, graph: ModuleGraph,
                      options: LintOptions) -> Iterator[Violation]:
        if options.stage_baseline is None:
            return
        versions = parse_stage_versions(graph)
        current = stage_hashes(graph)
        if versions is None or not current:
            # The lint set does not cover the cache subsystem (e.g. a
            # single-file run): nothing meaningful to compare.
            return
        baseline = load_baseline(options.stage_baseline)
        if baseline is None:
            anchor = self._first_anchor(graph, current)
            if anchor is not None:
                yield self._at(
                    anchor.ctx, anchor.node, self.code,
                    f"no readable stage-hash baseline at "
                    f"{options.stage_baseline} — seed it with "
                    f"'python -m tools.lint --update-baseline' and commit")
            return
        for stage, entry in sorted(current.items()):
            anchor = graph.functions[entry["anchors"][0]]
            yield from self._check_stage(stage, entry, baseline.get(stage),
                                         anchor)
        for stage in sorted(set(baseline) - set(current)):
            anchor = self._first_anchor(graph, current)
            if anchor is not None:
                yield self._at(
                    anchor.ctx, anchor.node, self.code,
                    f"stage {stage!r} is in tools/stage_hashes.json but no "
                    f"longer memoizes anything — run 'python -m tools.lint "
                    f"--update-baseline' to retire it")

    def _check_stage(self, stage: str, entry: Dict, base: Optional[Dict],
                     anchor: FunctionInfo) -> Iterator[Violation]:
        salt = entry["salt"]
        if salt is None:
            yield self._at(
                anchor.ctx, anchor.node, self.code,
                f"stage {stage!r} is memoized but has no STAGE_VERSIONS "
                f"entry — add a salt in repro/cache/keys.py (unknown "
                f"stages silently key as v0)")
            return
        if base is None:
            yield self._at(
                anchor.ctx, anchor.node, self.code,
                f"stage {stage!r} is not in the committed baseline — run "
                f"'python -m tools.lint --update-baseline' and commit the "
                f"result")
            return
        if entry["hash"] != base.get("hash"):
            if salt == base.get("salt"):
                yield self._at(
                    anchor.ctx, anchor.node, self.code,
                    f"stage {stage!r}: code reachable from "
                    f"{entry['anchors'][0]} changed but "
                    f"STAGE_VERSIONS[{stage!r}] is still {salt} — cached "
                    f"artifacts from the old code would replay against the "
                    f"new; bump the salt, then run 'python -m tools.lint "
                    f"--update-baseline'")
            else:
                yield self._at(
                    anchor.ctx, anchor.node, self.code,
                    f"stage {stage!r}: salt bumped to {salt} — refresh the "
                    f"committed baseline with 'python -m tools.lint "
                    f"--update-baseline'")
        elif salt != base.get("salt"):
            yield self._at(
                anchor.ctx, anchor.node, self.code,
                f"stage {stage!r}: STAGE_VERSIONS changed "
                f"({base.get('salt')} -> {salt}) with no code change — "
                f"refresh the baseline with 'python -m tools.lint "
                f"--update-baseline'")

    @staticmethod
    def _first_anchor(graph: ModuleGraph,
                      current: Dict[str, Dict]) -> Optional[FunctionInfo]:
        for entry in sorted(current.values(),
                            key=lambda e: e["anchors"][0]):
            return graph.functions[entry["anchors"][0]]
        return None


# ----------------------------------------------------------------------
# worker-context discovery shared by R9/R10
# ----------------------------------------------------------------------
#: The one parallel-trial submission entry point.
_EXECUTOR_ENTRY = "run_trials"


def _trial_fn_expr(call: ast.Call) -> Optional[ast.expr]:
    """The trial-callable argument of an executor submission call."""
    if call.args:
        return call.args[0]
    for kw in call.keywords:
        if kw.arg == "fn":
            return kw.value
    return None


def _resolve_callable_ref(graph: ModuleGraph, info: FunctionInfo,
                          expr: ast.expr) -> Optional[str]:
    """Resolve a callable expression (maybe ``partial(...)``) to a
    project function qualname."""
    if isinstance(expr, ast.Call):
        qual = info.ctx.resolve_call_name(expr.func)
        if qual is not None and qual.rsplit(".", 1)[-1] == "partial" \
                and expr.args:
            return _resolve_callable_ref(graph, info, expr.args[0])
        return None
    if isinstance(expr, ast.Name):
        aliased = info.ctx.aliases.get(expr.id)
        if aliased is not None:
            return graph.resolve_function(info.module, aliased)
        return graph.resolve_function(info.module,
                                      f"{info.module}.{expr.id}")
    if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name) \
            and expr.value.id in ("self", "cls") and info.class_name:
        qual = f"{info.module}.{info.class_name}.{expr.attr}"
        return qual if qual in graph.functions else None
    return None


def worker_reachable(graph: ModuleGraph) -> Set[str]:
    """Functions that may execute inside a process-pool worker.

    Seeds are (a) everything defined under ``repro.parallel`` — the
    executor, worker bootstrap and broadcast machinery all run in the
    child — and (b) every trial callable handed to an executor
    submission call (``run_trials(...)`` or ``parallel.run_trials(...)``),
    unwrapping ``functools.partial``. The closure follows loose edges:
    over-approximation is the safe direction for "could this run in a
    worker?".
    """
    seeds: Set[str] = set()
    for module in graph.modules_with_prefix("repro.parallel"):
        seeds.update(f.qualname for f in graph.functions_in_module(module))
    for info in graph.functions.values():
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Call):
                continue
            if not self_is_executor_submission(graph, info, node):
                continue
            expr = _trial_fn_expr(node)
            if expr is None:
                continue
            target = _resolve_callable_ref(graph, info, expr)
            if target is not None:
                seeds.add(target)
    return graph.closure(seeds, strict_only=False)


def self_is_executor_submission(graph: ModuleGraph, info: FunctionInfo,
                                call: ast.Call) -> bool:
    """Whether ``call`` hands a trial callable to the parallel executor."""
    func = call.func
    if isinstance(func, ast.Name):
        aliased = info.ctx.aliases.get(func.id)
        dotted = aliased or f"{info.module}.{func.id}"
        target = graph.resolve_function(info.module, dotted) or dotted
        tail = target.rsplit(".", 1)[-1]
        return tail == _EXECUTOR_ENTRY and "parallel" in target
    if isinstance(func, ast.Attribute) and func.attr == _EXECUTOR_ENTRY:
        # Attribute form: parallel.run_trials(fn, ...) on an unresolved
        # receiver — accept when a repro.parallel function carries the
        # name (loose, deliberately).
        return any("parallel" in qual
                   for qual in graph.by_name.get(func.attr, ()))
    return False


# ----------------------------------------------------------------------
# R9: RNG discipline in worker-reachable code
# ----------------------------------------------------------------------
_GENERATOR_CTORS = ("numpy.random.default_rng", "numpy.random.Generator",
                    "numpy.random.RandomState")
_GENERATOR_FACTORY_TAILS = ("make_rng", "default_rng", "spawn_rngs",
                            "Generator", "RandomState")


def _generator_globals(graph: ModuleGraph) -> Dict[Tuple[str, str], int]:
    """Module-level names bound to RNG generators: (module, name) -> line."""
    out: Dict[Tuple[str, str], int] = {}
    for module, bindings in graph.module_globals.items():
        ctx = graph.modules[module]
        for name, binding in bindings.items():
            value = binding.value
            if not isinstance(value, ast.Call):
                continue
            qual = ctx.resolve_call_name(value.func)
            if qual is None:
                continue
            if (qual in _GENERATOR_CTORS
                    or qual.rsplit(".", 1)[-1] in _GENERATOR_FACTORY_TAILS):
                out[(module, name)] = binding.lineno
    return out


class RngDisciplineRule(ProjectRule):
    """No generator created outside ``repro.utils.rng`` may flow into
    code reachable from the process-pool workers. A worker that builds
    (or shares) its own generator instead of consuming the spawned
    per-trial stream silently breaks the jobs=N == jobs=1 bit-identity
    the paper's trial statistics rest on (DESIGN.md §4c).
    """

    code = "R9"
    name = "worker-rng-discipline"
    description = ("RNG generator constructed or consumed outside the "
                   "spawned per-trial stream in worker-reachable code "
                   "(justify vetted exceptions with '# rng-ok — reason')")

    def check_project(self, graph: ModuleGraph,
                      options: LintOptions) -> Iterator[Violation]:
        reachable = worker_reachable(graph)
        if not reachable:
            return
        gen_globals = _generator_globals(graph)
        # A module-level generator in the parallel/data packages is
        # materialised at import time inside every worker: flag the
        # definition itself, read or not.
        for (module, name), lineno in sorted(gen_globals.items()):
            if module.startswith(("repro.parallel", "repro.data")):
                ctx = graph.modules[module]
                binding = graph.module_globals[module][name]
                if not _justified(ctx, "rng-ok", lineno,
                                  getattr(binding.node, "end_lineno", None)):
                    yield self._at(
                        ctx, binding.node, self.code,
                        f"module-level generator {name!r} in {module} — "
                        f"workers import this module, so every process "
                        f"gets an independent stream; pass spawned "
                        f"per-trial streams instead")
        for qual in sorted(reachable):
            info = graph.functions[qual]
            if info.module == "repro.utils.rng" \
                    or not info.module.startswith("repro"):
                continue
            yield from self._check_function(graph, info, gen_globals)

    def _check_function(self, graph: ModuleGraph, info: FunctionInfo,
                        gen_globals: Dict[Tuple[str, str], int],
                        ) -> Iterator[Violation]:
        ctx = info.ctx
        for node in ast.walk(info.node):
            if isinstance(node, ast.Call):
                qual = ctx.resolve_call_name(node.func)
                if qual in _GENERATOR_CTORS:
                    if not _justified(ctx, "rng-ok", node.lineno,
                                      node.end_lineno):
                        yield self._at(
                            ctx, node, self.code,
                            f"{qual.rsplit('.', 1)[-1]}() constructs a "
                            f"generator inside worker-reachable "
                            f"{info.qualname} — trials must consume their "
                            f"spawned per-trial stream "
                            f"(repro.parallel.rngshard)")
                elif (qual is not None
                        and qual.rsplit(".", 1)[-1] == "make_rng"
                        and self._is_fresh_entropy(node)):
                    if not _justified(ctx, "rng-ok", node.lineno,
                                      node.end_lineno):
                        yield self._at(
                            ctx, node, self.code,
                            f"make_rng() with no seed in worker-reachable "
                            f"{info.qualname} draws OS entropy — results "
                            f"would differ per worker; thread the trial "
                            f"stream through instead")
            elif isinstance(node, ast.Name) and isinstance(node.ctx,
                                                           ast.Load):
                source = self._global_generator_source(graph, info, node.id,
                                                      gen_globals)
                if source is not None:
                    if not _justified(ctx, "rng-ok", node.lineno):
                        yield self._at(
                            ctx, node, self.code,
                            f"worker-reachable {info.qualname} reads the "
                            f"module-level generator {source} — a shared "
                            f"stream is consumed in pool-dependent order, "
                            f"breaking jobs=N determinism; use the spawned "
                            f"per-trial stream")

    @staticmethod
    def _is_fresh_entropy(call: ast.Call) -> bool:
        if call.keywords:
            return False
        if not call.args:
            return True
        first = call.args[0]
        return isinstance(first, ast.Constant) and first.value is None

    @staticmethod
    def _global_generator_source(graph: ModuleGraph, info: FunctionInfo,
                                 name: str,
                                 gen_globals: Dict[Tuple[str, str], int],
                                 ) -> Optional[str]:
        if (info.module, name) in gen_globals:
            return f"{info.module}.{name}"
        aliased = info.ctx.aliases.get(name)
        if aliased is not None and "." in aliased:
            module, attr = aliased.rsplit(".", 1)
            if (module, attr) in gen_globals:
                return aliased
        return None


# ----------------------------------------------------------------------
# R10: fork-safety of module state and shared memory
# ----------------------------------------------------------------------
_MUTABLE_VALUE_NODES = (ast.List, ast.Dict, ast.Set, ast.ListComp,
                        ast.DictComp, ast.SetComp)
_MUTABLE_CTOR_TAILS = {"list", "dict", "set", "bytearray", "defaultdict",
                       "OrderedDict", "Counter", "deque"}
_MUTATOR_METHODS = {"append", "extend", "insert", "add", "update",
                    "setdefault", "pop", "popitem", "remove", "discard",
                    "clear"}
_SHM_CTOR = "multiprocessing.shared_memory.SharedMemory"


def _mutable_global_names(graph: ModuleGraph, module: str) -> Set[str]:
    names: Set[str] = set()
    ctx = graph.modules[module]
    for name, binding in graph.module_globals.get(module, {}).items():
        value = binding.value
        if isinstance(value, _MUTABLE_VALUE_NODES):
            names.add(name)
        elif isinstance(value, ast.Call):
            qual = ctx.resolve_call_name(value.func)
            if qual is not None \
                    and qual.rsplit(".", 1)[-1] in _MUTABLE_CTOR_TAILS:
                names.add(name)
    return names


class ForkSafetyRule(ProjectRule):
    """Pool workers are forked (or freshly spawned) copies: module-level
    state written inside a worker diverges per process and silently
    desynchronises from the parent, and a ``shared_memory`` segment
    without a paired ``close``/``unlink`` leaks until reboot. Flags
    (a) rebinds/mutations of module globals inside worker-reachable
    functions and (b) ``SharedMemory`` usage in modules that never
    reference ``close``/``unlink``.
    """

    code = "R10"
    name = "fork-safety"
    description = ("module-level state written in worker-reachable code, "
                   "or shared_memory without paired close/unlink "
                   "(justify vetted exceptions with '# fork-ok — reason')")

    def check_project(self, graph: ModuleGraph,
                      options: LintOptions) -> Iterator[Violation]:
        reachable = worker_reachable(graph)
        for qual in sorted(reachable):
            info = graph.functions[qual]
            if not info.module.startswith("repro"):
                continue
            yield from self._check_global_writes(graph, info)
        yield from self._check_shared_memory(graph)

    def _check_global_writes(self, graph: ModuleGraph,
                             info: FunctionInfo) -> Iterator[Violation]:
        ctx = info.ctx
        declared_global: Set[str] = set()
        for node in ast.walk(info.node):
            if isinstance(node, ast.Global):
                declared_global.update(node.names)
        mutable = _mutable_global_names(graph, info.module)
        module_names = set(graph.module_globals.get(info.module, {}))
        for node in ast.walk(info.node):
            hit: Optional[Tuple[ast.AST, str, str]] = None
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    if isinstance(target, ast.Name) \
                            and target.id in declared_global \
                            and target.id in module_names:
                        hit = (node, target.id, "rebinds")
                    elif isinstance(target, ast.Subscript) \
                            and isinstance(target.value, ast.Name) \
                            and target.value.id in mutable:
                        hit = (node, target.value.id, "writes into")
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in _MUTATOR_METHODS \
                    and isinstance(node.func.value, ast.Name) \
                    and node.func.value.id in mutable:
                hit = (node, node.func.value.id, "mutates")
            if hit is None:
                continue
            stmt, name, verb = hit
            if _justified(ctx, "fork-ok", stmt.lineno,
                          getattr(stmt, "end_lineno", None)):
                continue
            yield self._at(
                ctx, stmt, self.code,
                f"worker-reachable {info.qualname} {verb} module-level "
                f"{name!r} — each pool worker holds its own copy, so the "
                f"write never reaches the parent and fork-inherited state "
                f"goes stale; return results instead, or justify with "
                f"'# fork-ok — reason'")

    def _check_shared_memory(self,
                             graph: ModuleGraph) -> Iterator[Violation]:
        for module, ctx in sorted(graph.modules.items()):
            if not module.startswith("repro"):
                continue
            shm_calls: List[ast.Call] = []
            attrs: Set[str] = set()
            for node in ast.walk(ctx.tree):
                if isinstance(node, ast.Attribute):
                    attrs.add(node.attr)
                if isinstance(node, ast.Call):
                    qual = ctx.resolve_call_name(node.func)
                    if qual == _SHM_CTOR:
                        shm_calls.append(node)
            for call in shm_calls:
                creates = any(kw.arg == "create"
                              and isinstance(kw.value, ast.Constant)
                              and kw.value.value is True
                              for kw in call.keywords)
                missing = [op for op in
                           (("close", "unlink") if creates else ("close",))
                           if op not in attrs]
                if not missing:
                    continue
                if _justified(ctx, "fork-ok", call.lineno, call.end_lineno):
                    continue
                role = "created" if creates else "attached"
                yield self._at(
                    ctx, call, self.code,
                    f"SharedMemory segment {role} here but {module} never "
                    f"references {' or '.join(missing)} — an unreleased "
                    f"segment outlives the process (leaks until reboot); "
                    f"pair every segment with close()"
                    + ("/unlink()" if creates else "()"))


# ----------------------------------------------------------------------
# R11: span hygiene (a file-local rule)
# ----------------------------------------------------------------------
_SPAN_QUALNAMES = ("repro.obs.trace.span", "repro.obs.span")


class SpanHygieneRule(Rule):
    """``Tracer`` spans must be opened structurally — as a ``with``
    context or a decorator. A ``span(...)`` kept in a variable (or a
    raw ``TRACER.push``) has no guaranteed ``pop``: one early return
    and every later record nests under a ghost parent, corrupting the
    ``--profile`` manifests the reproduction's timing claims cite.
    """

    code = "R11"
    name = "span-hygiene"
    description = ("obs span opened outside a with-statement/decorator, "
                   "or raw TRACER.push/pop, inside src/repro "
                   "(justify with '# span-ok — reason')")

    exempt_suffixes = ("repro/obs/trace.py",)
    _exempt_dirs = ("benchmarks/", "examples/", "tests/", "tools/")

    def applies_to(self, ctx: FileContext) -> bool:
        if any(d in ctx.path for d in self._exempt_dirs):
            return False
        if not any(d in ctx.path for d in ("src/repro/", "repro/")):
            return False
        return super().applies_to(ctx)

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        allowed = self._structural_call_ids(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            qual = ctx.resolve_call_name(node.func)
            if qual in _SPAN_QUALNAMES:
                if id(node) in allowed:
                    continue
                if _justified(ctx, "span-ok", node.lineno, node.end_lineno):
                    continue
                yield self._violation(
                    ctx, node,
                    "span(...) opened outside a 'with' statement or "
                    "decorator — nothing guarantees its pop, so one early "
                    "exit corrupts the span tree; use 'with span(...):' "
                    "(or '# span-ok — reason' for a vetted exception)")
            elif qual is not None and qual.endswith((".TRACER.push",
                                                     ".TRACER.pop")):
                if _justified(ctx, "span-ok", node.lineno, node.end_lineno):
                    continue
                yield self._violation(
                    ctx, node,
                    "raw TRACER.push/pop — open spans through the span() "
                    "context manager/decorator so exception paths close "
                    "them (or '# span-ok — reason')")

    @staticmethod
    def _structural_call_ids(tree: ast.Module) -> Set[int]:
        allowed: Set[int] = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    allowed.add(id(item.context_expr))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef)):
                for dec in node.decorator_list:
                    allowed.add(id(dec))
        return allowed


# ----------------------------------------------------------------------
# R12: exception hygiene (a file-local rule)
# ----------------------------------------------------------------------
class ExceptionHygieneRule(Rule):
    """Broad ``except Exception`` handlers swallow the honest crash a
    corrupted artifact or poisoned worker *should* produce. Where the
    breadth is deliberate (cache miss on unreadable archive, trial
    fault capture) the tree already annotates it ``# noqa: BLE001 —
    reason``; this rule makes that convention mandatory, and bans bare
    ``except:`` outright (it also catches KeyboardInterrupt/SystemExit).
    """

    code = "R12"
    name = "exception-hygiene"
    description = ("broad 'except Exception' without the justified "
                   "'# noqa: BLE001 — reason' marker (bare 'except:' is "
                   "never allowed)")

    _BROAD = ("Exception", "BaseException")

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self._violation(
                    ctx, node,
                    "bare 'except:' also catches KeyboardInterrupt and "
                    "SystemExit — name the exceptions (at the broadest, "
                    "'except Exception' with '# noqa: BLE001 — reason')")
                continue
            broad = self._broad_name(ctx, node.type)
            if broad is None:
                continue
            if _justified(ctx, "noqa: BLE001", node.lineno):
                continue
            yield self._violation(
                ctx, node,
                f"'except {broad}' without a justified marker — either "
                f"narrow the exception types or annotate the line with "
                f"'# noqa: BLE001 — <why the breadth is safe here>'")

    def _broad_name(self, ctx: FileContext,
                    type_node: ast.expr) -> Optional[str]:
        nodes: Sequence[ast.expr] = (type_node.elts
                                     if isinstance(type_node, ast.Tuple)
                                     else [type_node])
        for node in nodes:
            if isinstance(node, ast.Name) and node.id in self._BROAD:
                return node.id
            if isinstance(node, ast.Attribute) and node.attr in self._BROAD:
                return node.attr
        return None


AST_RULES: Tuple[Rule, ...] = (
    CacheSaltDriftRule(),
    RngDisciplineRule(),
    ForkSafetyRule(),
    SpanHygieneRule(),
    ExceptionHygieneRule(),
)
