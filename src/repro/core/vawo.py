"""Variation-aware weight optimization (paper Section III-B and III-C).

Given the network target weights (NTWs) ``w*`` of an offset group, VAWO
chooses the crossbar target weights (CTWs) ``v`` and the group's digital
offset ``b`` to minimise the first-order expected squared loss increase

``sum_i (dL/dw_i)^2 * Var[R(v_i)]``                            (Eq. 5)

subject to ``E[R(v_i)] + b = w_i*``                            (Eq. 6).

The solver scores every 8-bit offset candidate exactly as the paper
does: invert the E[R(v)] LUT to satisfy Eq. 6, score with the Var[R(v)]
LUT, keep the best. It does so in histogram form. A group's score for
offset ``b`` depends on each member only through its target ``w`` and
its ``g^2``, so per group it builds ``H[w]`` (summed ``g^2`` of the
members targeting ``w``) and ``A[w]`` (how many active members target
``w``) with one ``np.bincount``. Two fixed ``(2^n, candidates)`` tables
built from the LUTs, ``T_obj[w, j] = Var + bias^2`` and ``T_inf[w, j] =
[bias^2 > tol^2]`` at target ``w - b_j``, then give every candidate's
objective as ``H @ T_obj`` and its Eq. 6 violations as ``A @ T_inf``.
Two refinements documented in DESIGN.md:

* because ``v`` is discrete (and the offset range is finite), Eq. 6 can
  only hold to the nearest representable mean; the residual bias enters
  the objective per weight as ``g_i^2 * bias_i^2`` — i.e. the objective
  scores the full expected squared weight deviation
  ``E[(W_i - w_i*)^2] = Var[R(v_i)] + bias_i^2`` weighted by loss
  sensitivity, so offsets that would violate Eq. 6 badly for any group
  member are rejected;
* weights whose mean gradient is ~0 would make the objective flat, so
  gradient magnitudes are floored at a small fraction of the layer RMS
  (``grad_floor_frac``), keeping the variance term meaningful everywhere.

The weight-complement enhancement (Section III-C, "VAWO*") solves the
same problem a second time for the complemented targets
``(2^n - 1) - w*`` and keeps whichever problem has the lower optimum,
per group. The complemented targets' histograms are the plain ones with
their bins reversed, so the second solve needs no second ``bincount``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.core.offsets import OffsetPlan
from repro.device.lut import DeviceLUT
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.utils.contracts import check_shapes


@dataclass
class VAWOResult:
    """CTWs, registers and complement decisions for one weight matrix."""

    ctw: np.ndarray          # (rows, cols) integer crossbar target weights
    registers: np.ndarray    # (n_groups, cols) integer offsets
    complement: np.ndarray   # (n_groups, cols) bool
    objective: np.ndarray    # (n_groups, cols) achieved objective values


@dataclass(frozen=True)
class _TargetTables:
    """Per-integer-target lookup tables over t = w* - b.

    ``t`` spans every value the Eq. 6 target ``w* - b`` can take, so the
    per-(target, offset) scoring tables are pure gathers from these.
    """

    t_min: int
    v: np.ndarray       # CTW whose E[R(v)] is nearest t
    var: np.ndarray     # Var[R(v)] at that CTW
    bias: np.ndarray    # E[R(v)] - t (the residual Eq. 6 violation)

    def index(self, targets: np.ndarray) -> np.ndarray:
        return np.asarray(targets) - self.t_min


def _build_target_tables(lut: DeviceLUT, qmax: int,
                         offsets: np.ndarray) -> _TargetTables:
    t_min = int(0 - offsets.max())
    t_max = int(qmax - offsets.min())
    targets = np.arange(t_min, t_max + 1)
    v = lut.invert(targets)
    return _TargetTables(t_min=t_min, v=v, var=lut.var[v],
                         bias=lut.mean[v] - targets)


def offset_candidates(offset_bits: int = 8) -> np.ndarray:
    """All representable signed register values (two's complement).

    Returns shape (2^offset_bits,), from -2^(bits-1) to 2^(bits-1) - 1.
    """
    if offset_bits < 1:
        raise ValueError("offset_bits must be >= 1")
    half = 1 << (offset_bits - 1)
    return np.arange(-half, half)


def _effective_grads(grads: np.ndarray, floor_frac: float) -> np.ndarray:
    """|mean gradient| with a relative floor (see module docstring)."""
    g = np.abs(np.asarray(grads, dtype=np.float64))
    rms = np.sqrt(np.mean(g ** 2))
    if rms == 0.0:
        return np.ones_like(g)
    return np.maximum(g, floor_frac * rms)


#: Offset groups (one register each) scored per block. Each per-block
#: array is (block, 2^n) or (block, candidates) float64: 4 MB at 8-bit
#: weights and offsets, whatever the layer shape or m.
_GROUP_BLOCK = 2048


def _offset_tables(tables: _TargetTables, qmax: int, candidates: np.ndarray,
                   bias_tolerance: float) -> Tuple[np.ndarray, np.ndarray]:
    """Per-(NTW, offset) objective and Eq. 6 violation tables.

    Row ``w``, column ``j`` describes one weight with target ``w``
    written under offset ``candidates[j]``: ``t_obj`` is its expected
    squared deviation ``Var[R(v)] + bias^2`` and ``t_inf`` is 1.0 where
    ``bias^2`` exceeds the tolerance. Both are (qmax + 1, candidates).
    """
    idx = tables.index(np.arange(qmax + 1)[:, None] - candidates[None, :])
    bias2 = tables.bias[idx] ** 2
    t_obj = tables.var[idx] + bias2
    t_inf = (bias2 > bias_tolerance ** 2).astype(np.float64)
    return t_obj, t_inf


def _score_offsets(hist: np.ndarray, count: np.ndarray, t_obj: np.ndarray,
                   t_inf: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Best offset per group from its (n, qmax + 1) target histograms.

    Implements the paper's formulation: Eq. 6 is a *hard* constraint —
    an offset is feasible only if every active group member's target
    ``w_i - b`` can be met by some CTW to within the bias tolerance
    (which absorbs LUT discreteness). ``hist[g, w]`` sums ``g_i^2`` and
    ``count[g, w]`` counts the active members over group ``g``'s members
    with NTW ``w``. Among feasible offsets the objective is Eq. 5,
    ``sum_i g_i^2 Var[R(v_i)]``, plus the (tiny) residual-bias MSE as a
    tie-breaker. Groups with no feasible offset at all fall back to the
    minimum of the same ``sum_i g_i^2 (Var + bias^2)``. Exact ties go to
    the first candidate.

    Returns (best candidate index, best objective), each (n,).
    """
    obj = hist @ t_obj                                # (n, candidates)
    infeasible = (count @ t_inf) > 0
    best = np.where(infeasible, np.inf, obj).argmin(axis=1)
    no_feasible = infeasible.all(axis=1)
    if no_feasible.any():
        best[no_feasible] = obj[no_feasible].argmin(axis=1)
    return best, np.take_along_axis(obj, best[:, None], axis=1)[:, 0]


@check_shapes("(r,c),(r,c)")
def run_vawo(ntw: np.ndarray, grads: np.ndarray, lut: DeviceLUT,
             plan: OffsetPlan, weight_bits: int = 8, offset_bits: int = 8,
             use_complement: bool = False, grad_floor_frac: float = 0.1,
             bias_tolerance: float = 2.0) -> VAWOResult:
    """Solve VAWO (optionally VAWO*) for one weight matrix.

    Parameters
    ----------
    ntw:
        Network target weights, integer (rows, cols) in [0, 2^n - 1]
        (already ISAAC-shifted).
    grads:
        Mean loss gradient per weight, same shape (any consistent scale;
        only relative magnitudes within a group matter).
    lut:
        Device characterisation (E[R(v)], Var[R(v)]).
    plan:
        Offset sharing layout.
    use_complement:
        Enable the Section III-C weight-complement enhancement (VAWO*).
    bias_tolerance:
        How far (in integer weight units) E[R(v)] + b may miss w* before
        an offset candidate is deemed infeasible (Eq. 6 violation).
    """
    ntw = np.asarray(ntw)
    grads = np.asarray(grads, dtype=np.float64)
    if ntw.shape != (plan.rows, plan.cols) or grads.shape != ntw.shape:
        raise ValueError("ntw/grads shape must match the offset plan")
    qmax = (1 << weight_bits) - 1
    if ntw.min() < 0 or ntw.max() > qmax:
        raise ValueError(f"ntw out of [0, {qmax}]")
    if len(lut) != qmax + 1:
        raise ValueError("LUT size inconsistent with weight_bits")

    with span("vawo.search", rows=plan.rows, cols=plan.cols,
              granularity=plan.granularity, complement=use_complement):
        result = _run_vawo_impl(ntw, grads, lut, plan, qmax, offset_bits,
                                use_complement, grad_floor_frac,
                                bias_tolerance)
    # Counters feed the run manifest: per-group offset search volume and
    # how often the Section III-C complement formulation wins.
    obs_metrics.inc("vawo.calls")
    obs_metrics.inc("vawo.groups", result.registers.size)
    obs_metrics.inc("vawo.offset_candidates_scored",
                    result.registers.size * (1 << offset_bits)
                    * (2 if use_complement else 1))
    if use_complement:
        obs_metrics.inc("vawo.complement_wins", int(result.complement.sum()))
    return result


def _run_vawo_impl(ntw: np.ndarray, grads: np.ndarray, lut: DeviceLUT,
                   plan: OffsetPlan, qmax: int, offset_bits: int,
                   use_complement: bool, grad_floor_frac: float,
                   bias_tolerance: float) -> VAWOResult:
    candidates = offset_candidates(offset_bits)
    tables = _build_target_tables(lut, qmax, candidates)
    t_obj, t_inf = _offset_tables(tables, qmax, candidates, bias_tolerance)
    # Floored gradient magnitudes keep the objective informative where
    # the mean gradient vanishes.
    g_mag = _effective_grads(grads, grad_floor_frac)

    k, m, cols = plan.n_groups, plan.granularity, plan.cols
    n_groups, bins = k * cols, qmax + 1

    def by_group(padded: np.ndarray) -> np.ndarray:
        """(k*m, cols) padded rows -> (k*cols, m), one row per register."""
        return padded.reshape(k, m, cols).transpose(0, 2, 1).reshape(
            n_groups, m)

    # Pad the row axis to whole groups; padded grads and activity are 0,
    # so padded rows add nothing to either histogram.
    w_pad = plan.pad_rows(ntw.astype(np.int64))
    w_grp = by_group(w_pad)
    g2_grp = by_group(plan.pad_rows(g_mag, fill=0.0)) ** 2
    act_grp = by_group(plan.pad_rows(np.ones(ntw.shape), fill=0.0))

    best_idx = np.empty(n_groups, dtype=np.int64)
    complement = np.zeros(n_groups, dtype=bool)
    objective = np.empty(n_groups)
    for lo in range(0, n_groups, _GROUP_BLOCK):
        hi = min(lo + _GROUP_BLOCK, n_groups)
        size = (hi - lo) * bins
        slot = (np.arange(hi - lo)[:, None] * bins + w_grp[lo:hi]).ravel()
        hist = np.bincount(slot, weights=g2_grp[lo:hi].ravel(),
                           minlength=size).reshape(hi - lo, bins)
        count = np.bincount(slot, weights=act_grp[lo:hi].ravel(),
                            minlength=size).reshape(hi - lo, bins)
        best, obj = _score_offsets(hist, count, t_obj, t_inf)
        if use_complement:
            # qmax - w falls in bin qmax - w: reversed bins are the
            # complemented targets' histograms.
            best_c, obj_c = _score_offsets(hist[:, ::-1], count[:, ::-1],
                                           t_obj, t_inf)
            use_c = obj_c < obj
            best = np.where(use_c, best_c, best)
            obj = np.where(use_c, obj_c, obj)
            complement[lo:hi] = use_c
        best_idx[lo:hi] = best
        objective[lo:hi] = obj

    registers = candidates[best_idx].reshape(k, cols)
    complement = complement.reshape(k, cols)
    # Recover the CTWs for the winning offsets.
    comp_rows = np.repeat(complement, m, axis=0)
    eff_w = np.where(comp_rows, qmax - w_pad, w_pad)
    t_idx = tables.index(eff_w - np.repeat(registers, m, axis=0))
    ctw = tables.v[t_idx][:plan.rows]
    return VAWOResult(ctw=ctw, registers=registers, complement=complement,
                      objective=objective.reshape(k, cols))


@check_shapes("(r,c)")
def plain_assignment(ntw: np.ndarray, plan: OffsetPlan) -> VAWOResult:
    """The paper's plain scheme: CTW = NTW, zero offsets, no complement.

    ``ntw`` has shape (rows, cols) matching ``plan``; the result carries
    (rows, cols) CTWs and (n_groups, cols) registers/complement masks.
    """
    ntw = np.asarray(ntw)
    if ntw.shape != (plan.rows, plan.cols):
        raise ValueError("ntw shape must match the offset plan")
    return VAWOResult(
        ctw=ntw.astype(np.int64).copy(),
        registers=np.zeros((plan.n_groups, plan.cols), dtype=np.int64),
        complement=np.zeros((plan.n_groups, plan.cols), dtype=bool),
        objective=np.full((plan.n_groups, plan.cols), np.nan),
    )
