"""The seven repro-lint rules (R1-R7).

Each rule is a stateless object with a ``code``, human metadata, and a
``check(ctx)`` generator yielding :class:`~tools.lint.report.Violation`
instances. Rules never consult each other; suppression (pragmas,
per-rule path exemptions) is resolved here so the runner stays dumb.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, List, Optional, Sequence, Tuple

from tools.lint.context import FileContext
from tools.lint.report import Violation


class Rule:
    """Base class: subclasses define ``code``/``name`` and ``check``."""

    code: str = ""
    name: str = ""
    description: str = ""
    #: path suffixes (posix) this rule never applies to
    exempt_suffixes: Tuple[str, ...] = ()

    def applies_to(self, ctx: FileContext) -> bool:
        return not any(ctx.path.endswith(s) for s in self.exempt_suffixes)

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        raise NotImplementedError

    def run(self, ctx: FileContext) -> Iterator[Violation]:
        if not self.applies_to(ctx):
            return
        for violation in self.check(ctx):
            if not ctx.is_disabled(self.code, violation.line):
                yield violation

    def _violation(self, ctx: FileContext, node: ast.AST,
                   message: str) -> Violation:
        return Violation(path=ctx.path, line=node.lineno,
                         col=node.col_offset + 1, code=self.code,
                         message=message)


# ----------------------------------------------------------------------
# R1: no unseeded / direct numpy randomness
# ----------------------------------------------------------------------
class UnseededRandomRule(Rule):
    """Forbid direct ``np.random.*`` / bare ``default_rng()`` calls.

    All stochastic code must flow through ``repro.utils.rng`` so a
    whole experiment is reproducible from one integer seed; a stray
    ``np.random.normal`` (or a module-level ``default_rng()``) silently
    decouples a component from the seed plumbing.
    """

    code = "R1"
    name = "no-direct-numpy-random"
    description = ("direct np.random.* / default_rng() call outside "
                   "repro/utils/rng.py — route through repro.utils.rng")
    exempt_suffixes = ("repro/utils/rng.py",)

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            qualname = ctx.resolve_call_name(node.func)
            if qualname is None:
                continue
            if qualname.startswith("numpy.random."):
                short = qualname[len("numpy."):]
                yield self._violation(
                    ctx, node,
                    f"direct call to {short} — use repro.utils.rng."
                    f"make_rng / spawn_rngs so the draw is seedable")


# ----------------------------------------------------------------------
# R2: no mutable default arguments
# ----------------------------------------------------------------------
_MUTABLE_CALLS = {"list", "dict", "set", "bytearray", "defaultdict",
                  "OrderedDict", "Counter", "deque"}


class MutableDefaultRule(Rule):
    """Forbid mutable default argument values (shared across calls)."""

    code = "R2"
    name = "no-mutable-default"
    description = "mutable default argument — use None and create inside"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            args = node.args
            defaults = list(args.defaults) + [d for d in args.kw_defaults
                                              if d is not None]
            for default in defaults:
                if self._is_mutable(default, ctx):
                    fname = getattr(node, "name", "<lambda>")
                    yield self._violation(
                        ctx, default,
                        f"mutable default {ast.unparse(default)!r} in "
                        f"{fname}() — default to None and build the "
                        f"container in the body")

    @staticmethod
    def _is_mutable(node: ast.expr, ctx: FileContext) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set)):
            return True
        if isinstance(node, ast.ListComp) or isinstance(node, ast.DictComp) \
                or isinstance(node, ast.SetComp):
            return True
        if isinstance(node, ast.Call):
            qualname = ctx.resolve_call_name(node.func)
            if qualname is None:
                return False
            tail = qualname.rsplit(".", 1)[-1]
            return tail in _MUTABLE_CALLS
        return False


# ----------------------------------------------------------------------
# R3: typed + shape-documented public API in the simulation core
# ----------------------------------------------------------------------
_SHAPE_TUPLE_RE = re.compile(r"\([^()]*,[^()]*\)")
_ARRAY_TOKENS = ("ndarray", "ArrayLike", "NDArray")


class TypedPublicApiRule(Rule):
    """Public functions in core/device/xbar: full annotations + shapes.

    Complete parameter and return annotations make mypy's strict mode
    meaningful; the docstring shape requirement ("(rows, cols)"-style
    tuples or the word "shape") keeps the array algebra documented at
    the API boundary, where transposition bugs are born.
    """

    code = "R3"
    name = "typed-public-api"
    description = ("public function in repro/{core,device,xbar} missing "
                   "annotations or a shape-documenting docstring")

    _scoped_dirs = ("src/repro/core/", "src/repro/device/",
                    "src/repro/xbar/", "repro/core/", "repro/device/",
                    "repro/xbar/")

    def applies_to(self, ctx: FileContext) -> bool:
        return any(d in ctx.path for d in self._scoped_dirs)

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        yield from self._check_body(ctx, ctx.tree.body, class_public=None)

    def _check_body(self, ctx: FileContext, body: Sequence[ast.stmt],
                    class_public: Optional[bool]) -> Iterator[Violation]:
        for node in body:
            if isinstance(node, ast.ClassDef):
                public_class = not node.name.startswith("_")
                yield from self._check_body(ctx, node.body,
                                            class_public=public_class)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if class_public is False:
                    continue
                yield from self._check_function(ctx, node,
                                               is_method=class_public
                                               is not None)

    def _check_function(self, ctx: FileContext, node: ast.FunctionDef,
                        is_method: bool) -> Iterator[Violation]:
        name = node.name
        is_init = name == "__init__"
        if name.startswith("_") and not is_init:
            return
        missing: List[str] = []
        arg_sources: List[str] = []
        args = node.args
        positional = list(args.posonlyargs) + list(args.args)
        if is_method and positional and positional[0].arg in ("self", "cls"):
            positional = positional[1:]
        for arg in positional + list(args.kwonlyargs):
            if arg.annotation is None:
                missing.append(arg.arg)
            else:
                arg_sources.append(ast.unparse(arg.annotation))
        for star in (args.vararg, args.kwarg):
            if star is not None and star.annotation is None:
                missing.append("*" + star.arg)
            elif star is not None:
                arg_sources.append(ast.unparse(star.annotation))
        if missing:
            yield self._violation(
                ctx, node,
                f"{name}() is missing type annotations for: "
                f"{', '.join(missing)}")
        returns_src = None
        if node.returns is not None:
            returns_src = ast.unparse(node.returns)
        elif not is_init:
            yield self._violation(
                ctx, node, f"{name}() is missing a return annotation")
        doc = ast.get_docstring(node)
        if not doc:
            yield self._violation(
                ctx, node, f"{name}() is missing a docstring")
            return
        touches_arrays = any(
            any(tok in src for tok in _ARRAY_TOKENS)
            for src in arg_sources + ([returns_src] if returns_src else []))
        if touches_arrays and not self._documents_shapes(doc):
            yield self._violation(
                ctx, node,
                f"{name}() handles arrays but its docstring documents no "
                f"shapes — mention e.g. '(rows, cols)' or the word 'shape'")

    @staticmethod
    def _documents_shapes(doc: str) -> bool:
        if "shape" in doc.lower() or "scalar" in doc.lower():
            return True
        return bool(_SHAPE_TUPLE_RE.search(doc))


# ----------------------------------------------------------------------
# R4: no silent dtype narrowing of weight/conductance arrays
# ----------------------------------------------------------------------
_NARROWING_DTYPES = {
    "float16", "float32", "half", "single", "int8", "int16", "int32",
    "uint8", "uint16", "uint32", "f2", "f4", "i1", "i2", "i4", "u1",
    "u2", "u4",
}
_SENSITIVE_NAME_RE = re.compile(
    r"weight|conduct|cells|crw|ntw|ctw|offset|register", re.IGNORECASE)
_ARRAY_CTORS = ("numpy.asarray", "numpy.array", "numpy.ascontiguousarray",
                "numpy.asfortranarray")


class DtypeNarrowingRule(Rule):
    """Flag dtype-narrowing array conversions of simulation state.

    Casting weights/conductances/offsets below float64 silently
    degrades the accuracy numbers the reproduction reports; where the
    narrowing is intentional (e.g. a memory-bound benchmark) the line
    carries an explicit ``# dtype-ok``.
    """

    code = "R4"
    name = "no-silent-dtype-narrowing"
    description = ("dtype-narrowing conversion of a weight/conductance "
                   "array without '# dtype-ok'")

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            qualname = ctx.resolve_call_name(node.func)
            if qualname not in _ARRAY_CTORS:
                continue
            dtype_kw = next((kw for kw in node.keywords
                             if kw.arg == "dtype"), None)
            if dtype_kw is None:
                continue
            dtype_src = ast.unparse(dtype_kw.value).strip("\"'")
            dtype_name = dtype_src.rsplit(".", 1)[-1]
            if dtype_name not in _NARROWING_DTYPES:
                continue
            target_src = ast.unparse(node.args[0])
            if not _SENSITIVE_NAME_RE.search(target_src):
                continue
            if ctx.span_has_marker("dtype-ok", node.lineno, node.end_lineno):
                continue
            yield self._violation(
                ctx, node,
                f"{qualname.rsplit('.', 1)[-1]}({target_src!r}, "
                f"dtype={dtype_src}) narrows simulation state below "
                f"float64 — add '# dtype-ok' if intentional")


# ----------------------------------------------------------------------
# R5: explicit .npz suffixes on numpy archive paths
# ----------------------------------------------------------------------
_ARCHIVE_CALLS = ("numpy.savez", "numpy.savez_compressed", "numpy.load")


class NpzSuffixRule(Rule):
    """``np.savez``/``np.load`` paths must show an explicit ``.npz``.

    ``np.savez`` appends ``.npz`` to suffix-less paths but ``np.load``
    does not, so a shared suffix-less path constant saves to one file
    and loads another — the bug class that broke the seed's tier-1
    end-to-end test. Paths normalised elsewhere carry ``# npz-ok``.
    """

    code = "R5"
    name = "explicit-npz-suffix"
    description = ("np.savez/np.load on a path without a visible '.npz' "
                   "suffix (or '# npz-ok')")

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            qualname = ctx.resolve_call_name(node.func)
            if qualname not in _ARCHIVE_CALLS:
                continue
            path_src = ast.unparse(node.args[0])
            if ".npz" in path_src or ".npy" in path_src:
                continue
            if ctx.span_has_marker("npz-ok", node.lineno, node.end_lineno):
                continue
            short = qualname[len("numpy."):]
            yield self._violation(
                ctx, node,
                f"np.{short}({path_src!r}, ...): path shows no '.npz' "
                f"suffix — np.savez appends it but np.load does not; "
                f"normalise the path (repro.utils.serialization) or add "
                f"'# npz-ok'")


# ----------------------------------------------------------------------
# R6: no bare print() in library code
# ----------------------------------------------------------------------
class NoPrintInLibraryRule(Rule):
    """Forbid bare ``print()`` calls inside the ``repro`` package.

    Library output must flow through ``repro.utils.logging.get_logger``
    (diagnostics, level-controlled via ``REPRO_LOG_LEVEL``) or the
    ``repro.obs`` exporters (measurements) — a stray ``print`` is
    invisible to verbosity control, corrupts piped CLI output, and
    can't be captured in run artifacts. Benchmarks, examples, tests
    and the ``tools`` package are exempt (they *are* front ends);
    inside ``repro`` only the CLI's ``_echo`` helper talks to stdout.
    A deliberate exception carries ``# print-ok`` on the line.
    """

    code = "R6"
    name = "no-print-in-library"
    description = ("bare print() inside src/repro — use "
                   "repro.utils.logging.get_logger or the repro.obs "
                   "exporters (or '# print-ok')")

    _scoped_dirs = ("src/repro/", "repro/")
    _exempt_dirs = ("benchmarks/", "examples/", "tests/", "tools/")

    def applies_to(self, ctx: FileContext) -> bool:
        if any(d in ctx.path for d in self._exempt_dirs):
            return False
        return any(d in ctx.path for d in self._scoped_dirs)

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if not (isinstance(node.func, ast.Name)
                    and node.func.id == "print"):
                continue
            # A local redefinition of `print` is not the builtin.
            if ctx.aliases.get("print") is not None:
                continue
            if ctx.span_has_marker("print-ok", node.lineno, node.end_lineno):
                continue
            yield self._violation(
                ctx, node,
                "bare print() in library code — log via "
                "repro.utils.logging.get_logger, report via repro.obs, "
                "or mark a deliberate exception with '# print-ok'")


# ----------------------------------------------------------------------
# R7: stride tricks belong to the repro.backend kernel package
# ----------------------------------------------------------------------
_STRIDE_FUNCS = ("as_strided", "sliding_window_view")
_STRIDE_MODULE = "numpy.lib.stride_tricks"


class StrideTricksOutsideBackendRule(Rule):
    """Confine ``np.lib.stride_tricks`` to ``repro.backend``.

    ``as_strided`` views alias arbitrary memory: writing through one
    (or reading past a miscomputed stride) corrupts data silently, and
    hand-rolled window extraction outside the package bypasses the
    kernels whose equivalence to the reference oracle the test suite
    guarantees. All window/im2col kernels live behind
    :func:`repro.backend.get_backend`; everything else calls the
    dispatching wrappers in ``repro.nn.functional``. A deliberate
    exception carries ``# stride-ok``.
    """

    code = "R7"
    name = "stride-tricks-in-backend-only"
    description = ("np.lib.stride_tricks use outside repro/backend — "
                   "go through repro.backend kernels (or '# stride-ok')")

    _exempt_dirs = ("repro/backend/", "tools/")

    def applies_to(self, ctx: FileContext) -> bool:
        return not any(d in ctx.path for d in self._exempt_dirs)

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            hit = self._match(ctx, node)
            if hit is None:
                continue
            if ctx.span_has_marker("stride-ok", node.lineno,
                                   getattr(node, "end_lineno", None)):
                continue
            yield self._violation(
                ctx, node,
                f"{hit} outside repro.backend — strided-window kernels "
                f"live behind repro.backend.get_backend(); add "
                f"'# stride-ok' only for a vetted exception")

    @staticmethod
    def _match(ctx: FileContext, node: ast.AST) -> Optional[str]:
        """The offending source construct, or ``None``."""
        if isinstance(node, ast.Import):
            for item in node.names:
                if item.name.startswith(_STRIDE_MODULE):
                    return f"import {item.name}"
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.startswith(_STRIDE_MODULE):
                return f"from {node.module} import ..."
            if node.module == "numpy.lib":
                for item in node.names:
                    if item.name == "stride_tricks":
                        return "from numpy.lib import stride_tricks"
        elif isinstance(node, ast.Call):
            qualname = ctx.resolve_call_name(node.func)
            if qualname and qualname.startswith(_STRIDE_MODULE + "."):
                return f"{qualname}()"
            if qualname and qualname.rsplit(".", 1)[-1] in _STRIDE_FUNCS:
                return f"{qualname.rsplit('.', 1)[-1]}()"
        return None


#: The single-file rules (R1-R7). The graph-backed rules (R8-R12) live
#: in :mod:`tools.lint.ast_rules`; the runner assembles ``ALL_RULES``
#: from both so neither module has to import the other.
FILE_RULES: Tuple[Rule, ...] = (
    UnseededRandomRule(),
    MutableDefaultRule(),
    TypedPublicApiRule(),
    DtypeNarrowingRule(),
    NpzSuffixRule(),
    NoPrintInLibraryRule(),
    StrideTricksOutsideBackendRule(),
)
