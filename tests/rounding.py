"""The paper's rounding lemma for bi-event plans, used by the tests.

:func:`round_plan` moves a feasible plan whose predictions sit on utility
breakpoints or outcome means onto the two-layer grid of
:func:`caldesign.fptas.build_grid`, keeping the budget and at least a
(1 - 3*delta) share of the payoff.  It is the constructive half of the
grid's approximation guarantee; ``caldesign.fptas`` solves the plan LP on
the grid directly and never rounds, so the routine lives with the tests
that check it.
"""

from __future__ import annotations

import math

import numpy as np

from caldesign.errors import SolverError, ValidationError
from caldesign.fptas import Grid, PlanColumns
from caldesign.model import INF, Instance

from plans import make_plan


def _snap(values, grid_points):
    """Snap values onto exact grid coordinates (they are grid points up to fp)."""
    idx = np.clip(np.searchsorted(grid_points, values), 1, grid_points.size - 1)
    left = grid_points[idx - 1]
    right = grid_points[idx]
    snapped = np.where(np.abs(values - left) <= np.abs(right - values),
                       left, right)
    if np.any(np.abs(snapped - values) > 1e-9):
        raise ValidationError("BAD_PLAN", "value not on the grid")
    return snapped


def round_plan(plan: PlanColumns, inst: Instance, grid: Grid) -> PlanColumns:
    """Round a feasible plan onto the grid, preserving budget and most payoff.

    Requires input predictions on the utility breakpoints or outcome means.
    A fixed fraction 1 - 1/(1+2*delta) of every entry is re-routed to the
    perfectly calibrated diagonal first; the remainder has its q spread onto
    two bracketing grid points chosen by gap size (small gaps use the
    innermost micro-net radius, medium gaps a geometric radius just past the
    gap, huge gaps collapse to the diagonal).  The output is grid-supported,
    stays within the calibration budget, and keeps at least a
    (1 - 3*delta) fraction of the input objective when utilities are >= 0.
    """
    if np.any(plan.q < inst.theta[plan.i] - 1e-9) or \
            np.any(plan.q > inst.theta[plan.j] + 1e-9):
        raise ValidationError("BAD_PLAN",
                              "q outside the pooled events' mean range")
    t = inst.norm
    if t == INF:
        raise ValidationError("UNSUPPORTED_NORM", "finite norms only")
    anchors = np.concatenate([grid.discontinuities, inst.theta])
    for p in plan.p:
        if np.min(np.abs(anchors - p)) > 1e-9:
            raise ValidationError(
                "PRECONDITION_VIOLATION",
                f"prediction {p} is not a breakpoint or outcome mean")
    delta = grid.delta
    delta0 = grid.delta0
    S = grid.levels
    keep_frac = 1.0 / (1.0 + 2.0 * delta)   # survives step 1
    gap_small = delta0 ** (1.0 / t) if delta0 > 0 else 0.0
    gap_large = ((delta0 * (1.0 + delta) ** (S - 1)) ** (1.0 / t)
                 if delta0 > 0 else 0.0)

    acc: dict = {}

    def put(i, j, q, p, w):
        if w <= 0.0:
            return
        key = (int(i), int(j), float(q), float(p))
        acc[key] = acc.get(key, 0.0) + float(w)

    for idx in range(len(plan)):
        i, j = int(plan.i[idx]), int(plan.j[idx])
        q, p, w = float(plan.q[idx]), float(plan.p[idx]), float(plan.w[idx])
        if w <= 0.0:
            continue
        ti, tj = float(inst.theta[i]), float(inst.theta[j])
        r = float(plan.r[idx])
        # step 1: reserve calibrated diagonal mass
        put(i, i, ti, ti, (1.0 - keep_frac) * w * r)
        put(j, j, tj, tj, (1.0 - keep_frac) * w * (1.0 - r))
        rem = keep_frac * w
        gap = abs(q - p)
        if gap <= 1e-15:
            put(i, j, q, p, rem)
            continue
        sign = 1.0 if q >= p else -1.0
        near = max(ti, p) if sign > 0 else min(tj, p)
        far_cap = tj if sign > 0 else ti
        if gap < gap_small:
            far = (p + sign * gap_small)
            far = min(far, far_cap) if sign > 0 else max(far, far_cap)
        elif delta0 > 0 and gap <= gap_large:
            guess = p + sign * gap * (1.0 + delta) ** (1.0 / t)
            if (sign > 0 and guess >= far_cap) or (sign < 0 and guess <= far_cap):
                far = far_cap
            else:
                far = None
                lo = math.log(gap**t / delta0) / math.log1p(delta)
                for s in range(max(0, int(math.floor(lo))), S + 1):
                    cand = p + sign * (delta0 * (1.0 + delta) ** s) ** (1.0 / t)
                    if (cand - q) * sign >= -1e-12 and \
                            (guess - cand) * sign >= -1e-12:
                        far = cand
                        break
                if far is None:
                    raise SolverError("NUMERICAL_FAILURE",
                                      "no micro-net radius brackets the gap")
        else:
            # gap too large: give up on this entry, go calibrated
            put(i, i, ti, ti, rem * r)
            put(j, j, tj, tj, rem * (1.0 - r))
            continue
        if abs(far - near) <= 1e-15:
            put(i, j, near, p, rem)
        else:
            share_near = (far - q) / (far - near)
            share_near = min(max(share_near, 0.0), 1.0)
            put(i, j, near, p, rem * share_near)
            put(i, j, far, p, rem * (1.0 - share_near))

    keys = list(acc.keys())
    return make_plan(inst, [k[0] for k in keys], [k[1] for k in keys],
                     _snap(np.array([k[2] for k in keys]), grid.points),
                     _snap(np.array([k[3] for k in keys]), grid.points),
                     [acc[k] for k in keys])
