"""Approximation scheme for general finite-norm budgets.

The solver optimizes over pairwise ("bi-event") post-processing plans: mass
``chi[i, j](q, p)`` pools events ``i <= j`` into a true expected outcome
``q`` between their means and reports prediction ``p``.  The contribution
ratio r = (theta_j - q) / (theta_j - theta_i) says how much of the pooled
mass event ``i`` supplies.  Feasible plans conserve each event's prior mass
and keep sum chi |q - p|^t within the budget; any such plan converts into a
predictor with no worse calibration error and identical payoff.

Discretization uses an instance-dependent two-layer grid: a uniform delta
mesh joined with the outcome means, the breakpoints of the designer's
indirect utility, and geometric micro-nets around each of those anchors
whose radii start at (eps^t * delta)^(1/t).  Solving the plan LP on this
grid loses at most a (1 - 3*delta) factor; the rounding scheme
(:func:`round_plan`) realizes that bound constructively and is exercised
directly by the test-suite.

One practical reduction: prediction columns in the LP are restricted to the
utility breakpoints, the outcome means, and one interior point per constant
piece of the indirect utilities.  Since the indirect utilities are piecewise
constant with upper-semicontinuous maxima at the breakpoints, an optimal
plan never needs any other prediction, while the q-side keeps the full
two-layer grid.  (``full_predictions=True`` builds the literal all-grid
variant for cross-checking at coarse resolutions.)

The plan LP has one budget row and one supply row per event, so an optimal
vertex pools at most n + 1 of its (up to millions of) columns.  It is held
only as its column arrays (:class:`PlanColumns`), never as the full
(n + 1) x C program, and solved by column generation (:func:`solve_plan_lp`):
a restricted master built from the active columns starts at the calibrated
diagonal, every column is priced from its arrays in one vectorized pass,
the most profitable columns join the master, and the loop stops once no
reduced cost exceeds ``PRICE_TOL`` relative to the largest objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import lp_core
from .errors import SolverError, ValidationError
from .exact import certify
from .model import (
    INF,
    Instance,
    Predictor,
    SUPPORT_MERGE_TOL,
    indirect_utility_matrix,
)

GRID_MERGE_TOL = 1e-12
SUPPLY_TOL = 1e-7
PRICE_TOL = 1e-10


def discontinuities(inst: Instance) -> np.ndarray:
    """Interior predictions where the agent's optimal action changes.

    Candidate points are the pairwise indifference crossings of the agent's
    (linear-in-p) action scores; a candidate is kept only when the winning
    action actually differs between the adjacent cells.
    """
    v = inst.agent_utility
    cands = set()
    for a in range(inst.m):
        for a2 in range(a + 1, inst.m):
            d1 = v[a, 1] - v[a2, 1]
            d0 = v[a, 0] - v[a2, 0]
            denom = d1 - d0
            if denom == 0.0:
                continue
            p = -d0 / denom
            if 1e-12 < p < 1 - 1e-12:
                cands.add(float(p))
    if not cands:
        return np.zeros(0)
    cands = _dedup_sorted(np.array(sorted(cands)))
    cells = np.concatenate([[0.0], cands, [1.0]])
    mids = 0.5 * (cells[:-1] + cells[1:])
    # Strict per-cell winner: inside a cell the top action is unique up to
    # exactly duplicated utility rows, so argmax is stable there.
    winners = np.argmax(inst.agent_scores(mids), axis=1)
    return cands[winners[:-1] != winners[1:]]


@dataclass
class Grid:
    """Two-layer discretization of [0, 1] for plan variables."""

    points: np.ndarray
    delta: float
    delta0: float
    levels: int
    discontinuities: np.ndarray

    @property
    def size(self):
        return self.points.size


def _dedup_sorted(values, tol=GRID_MERGE_TOL):
    values = np.sort(np.asarray(values, dtype=float))
    if values.size == 0:
        return values
    keep = np.ones(values.size, dtype=bool)
    keep[1:] = np.diff(values) > tol
    return values[keep]


def build_grid(inst: Instance, delta: float) -> Grid:
    """Instance-dependent two-layer grid with precision ``delta``.

    Layer one is the uniform delta mesh plus the outcome means and utility
    breakpoints.  Layer two places geometric nets of radius
    (delta0 * (1+delta)^s)^(1/t), s = 0..S, around every anchor, where
    delta0 = eps^t * delta.  A zero budget collapses layer two.
    """
    delta = float(delta)
    if not 0.0 < delta < 1.0 / 3.0:
        raise ValidationError("BAD_DELTA", f"delta must be in (0, 1/3), got {delta}")
    t = inst.norm
    if t == INF:
        raise ValidationError("UNSUPPORTED_NORM",
                              "the approximation scheme needs a finite norm")
    zs = discontinuities(inst)
    anchors = _dedup_sorted(np.concatenate([zs, inst.theta]))
    levels = int(math.ceil(2.0 / math.log1p(delta) * math.log(1.0 / delta)))
    delta0 = inst.epsilon**t * delta
    mesh = np.arange(0.0, 1.0 + 1e-12, delta)
    pieces = [mesh, inst.theta, zs]
    if delta0 > 0.0:
        radii = (delta0 * (1.0 + delta) ** np.arange(levels + 1)) ** (1.0 / t)
        local = anchors[:, None] + radii[None, :]
        pieces.append(local.ravel())
        pieces.append((anchors[:, None] - radii[None, :]).ravel())
    points = np.concatenate(pieces)
    points = _dedup_sorted(points[(points > -1e-12) & (points < 1 + 1e-12)])
    points = np.clip(points, 0.0, 1.0)
    return Grid(points, delta, delta0, levels, zs)


class BiEventPlan:
    """Finitely supported mass over (event pair, outcome q, prediction p)."""

    def __init__(self, i, j, q, p, w):
        self.i = np.asarray(i, dtype=int).ravel()
        self.j = np.asarray(j, dtype=int).ravel()
        self.q = np.asarray(q, dtype=float).ravel()
        self.p = np.asarray(p, dtype=float).ravel()
        self.w = np.asarray(w, dtype=float).ravel()
        sizes = {arr.size for arr in (self.i, self.j, self.q, self.p, self.w)}
        if len(sizes) != 1:
            raise ValidationError("BAD_PLAN", "ragged plan arrays")
        if np.any(self.i > self.j):
            raise ValidationError("BAD_PLAN", "event pairs need i <= j")
        if np.any(self.w < -1e-12):
            raise ValidationError("BAD_PLAN", "negative plan mass")
        self.w = np.clip(self.w, 0.0, None)

    def __len__(self):
        return self.w.size

    def check_ranges(self, inst, tol=1e-9):
        lo = inst.theta[self.i] - tol
        hi = inst.theta[self.j] + tol
        if np.any(self.q < lo) or np.any(self.q > hi):
            raise ValidationError("BAD_PLAN",
                                  "q outside the pooled events' mean range")

    def contribution(self, inst):
        """Fraction of each entry's mass supplied by its low event."""
        ti = inst.theta[self.i]
        tj = inst.theta[self.j]
        r = np.ones(len(self))
        wide = tj > ti + 1e-15
        r[wide] = (tj[wide] - self.q[wide]) / (tj[wide] - ti[wide])
        return np.clip(r, 0.0, 1.0)

    def raw_error(self, t):
        """sum chi |q - p|^t (the budget-side quantity, before the 1/t root)."""
        return float(self.w @ np.abs(self.q - self.p) ** t)

    def event_supply(self, inst):
        """Per-event mass the plan consumes; feasible plans match the prior."""
        r = self.contribution(inst)
        supply = np.zeros(inst.n)
        np.add.at(supply, self.i, self.w * r)
        np.add.at(supply, self.j, self.w * (1.0 - r))
        return supply

    def objective(self, inst):
        """Designer payoff of the plan (pairwise-mixed indirect utility)."""
        ps = _dedup_sorted(self.p)
        U = indirect_utility_matrix(inst, ps)
        col = np.searchsorted(ps, self.p - GRID_MERGE_TOL)
        r = self.contribution(inst)
        val = r * U[self.i, col] + (1.0 - r) * U[self.j, col]
        return float(self.w @ val)

    def to_records(self):
        return [{"i": int(i), "j": int(j), "q": float(q), "p": float(p),
                 "mass": float(w)}
                for i, j, q, p, w in zip(self.i, self.j, self.q, self.p, self.w)]

    @classmethod
    def from_records(cls, records):
        return cls([r["i"] for r in records], [r["j"] for r in records],
                   [r["q"] for r in records], [r["p"] for r in records],
                   [r["mass"] for r in records])


@dataclass
class PlanColumns:
    """The discretized plan LP as its columns: entry (i, j, q, p) earns
    ``obj``, spends ``err`` = |q - p|^t of the budget, and draws the share
    ``r`` of its mass from event i and ``1 - r`` from event j."""

    i: np.ndarray
    j: np.ndarray
    q: np.ndarray
    p: np.ndarray
    obj: np.ndarray
    err: np.ndarray
    r: np.ndarray

    def plan(self, weights, keep_tol=1e-12):
        keep = np.flatnonzero(weights > keep_tol)
        return BiEventPlan(self.i[keep], self.j[keep], self.q[keep],
                           self.p[keep], weights[keep])


def piece_scan(zs):
    """Edges {0, 1, zs} of the constant pieces of an indirect utility with
    breakpoints ``zs``, then each piece's midpoint: it takes no other value."""
    edges = _dedup_sorted(np.concatenate([[0.0, 1.0], zs]))
    return np.concatenate([edges, 0.5 * (edges[:-1] + edges[1:])])


def _prediction_points(inst, grid, full):
    if full:
        return grid.points
    return _dedup_sorted(np.concatenate([piece_scan(grid.discontinuities),
                                         inst.theta]))


def build_disc_lp(inst: Instance, grid: Grid, full_predictions=False):
    """Columns of the discretized plan LP on ``grid`` (no rows are built).

    The LP maximizes sum chi[i,j](q,p) * (r U_i(p) + (1-r) U_j(p)) subject
    to the budget row sum chi |q-p|^t <= eps^t and one supply row per event.
    q ranges over grid points inside [theta_i, theta_j]; p over the reduced
    prediction set (or the whole grid with ``full_predictions``).  Pairs
    with equal means are routed through the diagonal entry.
    """
    t = inst.norm
    if t == INF:
        raise ValidationError("UNSUPPORTED_NORM",
                              "the approximation scheme needs a finite norm")
    ps = _prediction_points(inst, grid, full_predictions)
    U = indirect_utility_matrix(inst, ps)  # (n, P)
    parts = {name: [] for name in ("i", "j", "q", "p", "obj", "err", "r")}
    for i in range(inst.n):
        for j in range(i, inst.n):
            if i < j and inst.theta[j] - inst.theta[i] <= 1e-15:
                continue  # merged through the diagonal entries
            if i == j:
                qs = inst.theta[i:i + 1]
            else:
                lo = np.searchsorted(grid.points, inst.theta[i] - GRID_MERGE_TOL)
                hi = np.searchsorted(grid.points, inst.theta[j] + GRID_MERGE_TOL)
                qs = grid.points[lo:hi]
            if qs.size == 0:
                continue
            if i == j:
                r = np.ones(1)
            else:
                r = (inst.theta[j] - qs) / (inst.theta[j] - inst.theta[i])
            nq, npred = qs.size, ps.size
            parts["i"].append(np.full(nq * npred, i))
            parts["j"].append(np.full(nq * npred, j))
            parts["q"].append(np.repeat(qs, npred))
            parts["p"].append(np.tile(ps, nq))
            parts["obj"].append((r[:, None] * U[i][None, :]
                                 + (1.0 - r)[:, None] * U[j][None, :]).ravel())
            parts["err"].append(
                (np.abs(qs[:, None] - ps[None, :]) ** t).ravel())
            parts["r"].append(np.repeat(r, npred))
    # join one field at a time, dropping its pieces before the next
    return PlanColumns(**{name: np.concatenate(parts.pop(name))
                          for name in list(parts)})


def plan_to_predictor(plan: BiEventPlan, inst: Instance) -> Predictor:
    """Convert a feasible plan into the predictor it generates.

    Each entry hands r-weighted mass to its low event and the rest to its
    high event at prediction p.  Raises ``SUPPLY_VIOLATION`` when the plan
    does not conserve some event's prior mass within tolerance.
    """
    plan.check_ranges(inst)
    supply = plan.event_supply(inst)
    if np.any(np.abs(supply - inst.lam) > SUPPLY_TOL):
        worst = float(np.abs(supply - inst.lam).max())
        raise ValidationError("SUPPLY_VIOLATION",
                              f"plan supplies deviate from the prior by {worst:.3e}")
    support = _dedup_sorted(plan.p, SUPPORT_MERGE_TOL)
    col = np.searchsorted(support, plan.p - SUPPORT_MERGE_TOL)
    r = plan.contribution(inst)
    mass = np.zeros((inst.n, support.size))
    np.add.at(mass, (plan.i, col), plan.w * r)
    np.add.at(mass, (plan.j, col), plan.w * (1.0 - r))
    out = np.zeros_like(mass)
    for i in range(inst.n):
        if inst.lam[i] > 0:
            out[i] = mass[i] / inst.lam[i]
    row_sums = out.sum(axis=1)
    for i in range(inst.n):
        if inst.lam[i] == 0.0 or row_sums[i] <= 0:
            # zero-prior events carry no plan mass; report their own mean
            out[i] = 0.0
            k = int(np.argmin(np.abs(support - inst.theta[i])))
            out[i, k] = 1.0
        else:
            out[i] /= row_sums[i]
    return Predictor(support, out)


def solve_plan_lp(inst: Instance, cols: PlanColumns):
    """Solve the :func:`build_disc_lp` plan LP by column generation.

    An optimal vertex uses at most n + 1 columns.  The restricted master,
    the LP on the active columns only, starts from each event's calibrated
    diagonal column (i, i, theta_i, theta_i), whose zero error keeps it
    feasible at any budget, and is solved and checked by
    :func:`lp_core.solve`.  Each round prices every column from its arrays
    with the master's row prices ``y``, ``obj - y_0 err - y_i r - y_j (1-r)``,
    and adds the ``2(n + 1)`` columns of largest positive reduced cost,
    until none exceeds ``PRICE_TOL`` times the largest objective; each
    round adds a new column, so the loop ends.  The solution is the
    master's vertex padded with zeros to every column; its ``iterations``
    sum the pivots of every master solve.
    """
    n = inst.n
    # per event, the diagonal column of least error: zero unless theta_i
    # merged with a prediction point within GRID_MERGE_TOL
    diag = np.flatnonzero(cols.i == cols.j)
    order = diag[np.lexsort((cols.err[diag], cols.i[diag]))]
    active = order[np.unique(cols.i[order], return_index=True)[1]]
    tol = PRICE_TOL * float(np.abs(cols.obj).max(initial=0.0))
    batch = 2 * (n + 1)
    pivots = 0
    while True:
        r = cols.r[active]
        at = np.arange(active.size)
        supply = np.zeros((n, active.size))
        np.add.at(supply, (cols.i[active], at), r)
        np.add.at(supply, (cols.j[active], at), 1.0 - r)
        master = lp_core.LinearProgram(
            active.size, cols.obj[active],
            [(cols.err[active], "<=", inst.epsilon**inst.norm)]
            + [(supply[e], "==", inst.lam[e]) for e in range(n)])
        sol = lp_core.solve(master)
        pivots += sol.iterations
        if not sol.is_optimal:
            raise SolverError("NO_SOLUTION",
                              f"discretized plan program came back {sol.status}")
        y = lp_core.row_prices(master, sol)
        # the subtraction order matches pricing against the rows one by one
        reduced = cols.obj - y[0] * cols.err
        reduced -= y[1:][cols.i] * cols.r
        reduced -= y[1:][cols.j] * (1.0 - cols.r)
        reduced[active] = -np.inf
        entering = np.flatnonzero(reduced > tol)
        if entering.size == 0:
            break
        if entering.size > batch:
            best = np.argpartition(reduced[entering], -batch)[-batch:]
            entering = entering[best]
        active = np.concatenate([active, entering])
    x = np.zeros(cols.obj.size)
    x[active] = sol.x
    return lp_core.LpSolution(lp_core.OPTIMAL, float(cols.obj @ x), x,
                              iterations=pivots)


def fptas_solve(inst: Instance, delta: float):
    """(1 - delta)-approximate predictor for any finite norm.

    Builds the grid at precision delta/3 and the columns of the discretized
    plan LP on it, solves that LP by column generation
    (:func:`solve_plan_lp`: a restricted master seeded with the calibrated
    diagonal, priced over every column until no reduced cost exceeds the
    tolerance; no LP wider than the master is built), and converts the
    optimal plan; the result keeps the calibration budget and loses at most
    a (1 - delta) factor of the optimal payoff.  The predictor is certified
    before it is returned (:func:`caldesign.exact.certify`): its calibration
    error is within the budget and its payoff is the returned objective, or
    ``SolverError('UNCERTIFIED')`` is raised.
    """
    delta = float(delta)
    if not 0.0 < delta < 1.0:
        raise ValidationError("BAD_DELTA", f"delta must be in (0, 1), got {delta}")
    grid = build_grid(inst, delta / 3.0)
    cols = build_disc_lp(inst, grid)
    sol = solve_plan_lp(inst, cols)
    plan = cols.plan(sol.x)
    predictor = plan_to_predictor(plan, inst)
    objective = float(sol.objective_value)
    certify(predictor, inst, objective)
    return predictor, objective


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


def round_plan(plan: BiEventPlan, inst: Instance, grid: Grid) -> BiEventPlan:
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
    plan.check_ranges(inst)
    t = inst.norm
    if t == INF:
        raise ValidationError("UNSUPPORTED_NORM", "finite norms only")
    anchors = _dedup_sorted(np.concatenate([grid.discontinuities, inst.theta]))
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

    r_all = plan.contribution(inst)
    for idx in range(len(plan)):
        i, j = int(plan.i[idx]), int(plan.j[idx])
        q, p, w = float(plan.q[idx]), float(plan.p[idx]), float(plan.w[idx])
        if w <= 0.0:
            continue
        ti, tj = float(inst.theta[i]), float(inst.theta[j])
        r = float(r_all[idx])
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
    out = BiEventPlan([k[0] for k in keys], [k[1] for k in keys],
                      _snap(np.array([k[2] for k in keys]), grid.points),
                      _snap(np.array([k[3] for k in keys]), grid.points),
                      [acc[k] for k in keys])
    return out
