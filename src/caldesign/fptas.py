"""Approximation scheme for general finite-norm budgets.

The solver optimizes over pairwise ("bi-event") post-processing plans: mass
``chi[i, j](q, p)`` pools a low-mean event ``i`` and a high-mean event ``j``
(or one event, ``i = j``) into a true expected outcome ``q`` between their
means and reports prediction ``p``.  The contribution ratio
r = (theta_j - q) / (theta_j - theta_i) says how much of the pooled mass
event ``i`` supplies.  Feasible plans conserve each event's prior mass and
keep sum chi |q - p|^t within the budget; any such plan converts into a
predictor with no worse calibration error and identical payoff
(:func:`plan_to_predictor`).  A plan is one type, the plan LP's own
:class:`PlanColumns` with the mass on each column.

Discretization uses an instance-dependent two-layer grid: a uniform delta
mesh joined with the outcome means, the breakpoints of the designer's
indirect utility (the agent's envelope, :func:`caldesign.model.envelope`),
and geometric micro-nets around each of those anchors whose radii start at
(eps^t * delta)^(1/t).  Grid points, predictions and supports merge by
:func:`caldesign.model.runs`, and a value belongs to the first point of its
run (:func:`_point_of`), so a mean is its own grid and prediction point.
Solving the plan LP on this grid loses at most a (1 - 3*delta) factor; the
paper's rounding scheme realizes that bound constructively (it lives with
the test-suite, which checks it; the solver needs no rounding).

One practical reduction: prediction columns in the LP are restricted to the
utility breakpoints, the outcome means, one interior point per constant
piece of the indirect utilities, and each breakpoint split into two strict
predictions ``model.SEPARATION`` to either side (:func:`_predictions`, which
says why the split points stand in for the tie at the breakpoint).  Since
the indirect utilities are piecewise constant, an optimal plan never needs
any other prediction, while the q-side keeps the full two-layer grid.

The plan LP has one budget row and one supply row per event, so an optimal
vertex pools at most n + 1 of its (up to millions of) columns.  The
calibrated plan (:class:`CalibratedPlan`) is settled from the utilities
alone.  When no event's utility rises at another prediction, no column of
any grid can enter, and the calibrated predictor is read off the plan: no
grid, program, column or LP is built.  Otherwise :class:`PlanProgram`
holds each event pair's slice of the grid and the utilities at each
prediction, never the program's columns whole, and builds the column
generation's start, the calibrated plan's columns among its own diagonal
entries, once; :func:`solve_plan_lp` solves it by column generation from
that start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import lp_core
from .errors import ValidationError
from .model import (
    INF,
    SEPARATION,
    SUPPLY_TOL,
    SUPPORT_MERGE_TOL,
    Instance,
    Predictor,
    certify,
    envelope,
    freeze,
    indirect_utility_matrix,
    piece_scan,
    read_numbers,
    runs,
)

PRICE_TOL = 1e-10


@dataclass
class Grid:
    """Two-layer discretization of [0, 1] for plan variables (read-only)."""

    points: np.ndarray
    delta: float
    delta0: float
    levels: int
    discontinuities: np.ndarray

    def __post_init__(self):
        self.points, self.discontinuities = freeze(
            np.array(self.points, dtype=float),
            np.array(self.discontinuities, dtype=float))

    @property
    def size(self):
        return self.points.size


def _dedup_sorted(values):
    values = np.sort(np.asarray(values, dtype=float))
    return values[runs(values, SUPPORT_MERGE_TOL)]


def _point_of(points, values):
    """Index in ``points``, as kept by :func:`_dedup_sorted`, of the point
    each of ``values`` belongs to: the first point of its run, which is the
    last point at or below it.  Exact for values among those merged."""
    return np.searchsorted(points, values, side="right") - 1


def read_delta(delta, top=1.0):
    """``delta`` read as a number in (0, ``top``), or BAD_DELTA."""
    delta = read_numbers(delta, "BAD_DELTA", "delta", scalar=True)
    if not 0.0 < delta < top:
        raise ValidationError("BAD_DELTA", f"delta must be in (0, {top:.6g}), got {delta}")
    return delta


def check_norm(inst: Instance):
    """Raise UNSUPPORTED_NORM unless ``inst``'s norm is finite."""
    if inst.norm == INF:
        raise ValidationError("UNSUPPORTED_NORM",
                              "the approximation scheme needs a finite norm")


def build_grid(inst: Instance, delta: float) -> Grid:
    """Instance-dependent two-layer grid with precision ``delta``.

    Layer one is the uniform delta mesh plus the outcome means and utility
    breakpoints ``zs`` of :func:`caldesign.model.envelope`.  Layer two
    places geometric nets of radius (delta0 * (1+delta)^s)^(1/t), s = 0..S,
    around every anchor, where delta0 = eps^t * delta.  A zero budget
    collapses layer two.
    """
    delta = read_delta(delta, 1.0 / 3.0)
    check_norm(inst)
    t = inst.norm
    zs = envelope(inst)[0]
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


@dataclass
class PlanColumns:
    """Columns of the plan LP: entry (i, j, q, p) earns ``obj``, spends
    ``err`` = |q - p|^t of the budget, and draws the share ``r`` of its
    mass from event i and ``1 - r`` from event j.  A plan is such columns
    with their mass ``w`` (:meth:`plan`)."""

    i: np.ndarray
    j: np.ndarray
    q: np.ndarray
    p: np.ndarray
    obj: np.ndarray
    err: np.ndarray
    r: np.ndarray
    w: np.ndarray | None = None

    def __len__(self):
        return self.obj.size

    def take(self, idx, w=None):
        return PlanColumns(*(getattr(self, name)[idx] for name in _COLUMN),
                           w=w)

    def plan(self, weights):
        """The plan that puts ``weights`` on these columns: the columns of
        mass above 1e-12, with that mass."""
        keep = np.flatnonzero(weights > 1e-12)
        return self.take(keep, weights[keep])


_COLUMN = ("i", "j", "q", "p", "obj", "err", "r")


def _join(parts):
    return PlanColumns(*(np.concatenate([getattr(part, name) for part in parts])
                         for name in _COLUMN))


@dataclass
class CalibratedPlan:
    """The calibrated plan of an instance in closed form, and whether
    column generation can improve it.

    ``ps`` is the reduced prediction set and ``U[e, c]`` event e's indirect
    utility at ``ps[c]``.  ``ps`` holds every mean, merged, and each event
    reports its mean's point ``ps[at[e]]`` (:func:`_point_of`), where it
    spends nothing and earns ``own[e]``.  In the plan LP this plan prices
    the rows at ``(0, own)`` (:class:`PlanProgram` builds that start).

    At these prices the budget price is 0, so a pooled column (i, j, q, p)
    has reduced cost ``r (U_i(p) - own_i) + (1 - r) (U_j(p) - own_j)`` with
    r in [0, 1], a convex combination of two diagonal reduced costs at the
    same p.  When no diagonal reduced cost ``U_e(p) - own[e]`` is above 0
    (``improvable`` is false), no column of any grid can enter, and the
    calibrated plan is optimal on every grid, its predictor read off the
    plan (:meth:`settled`); pricing such a program finds nothing beyond
    rounding, far below ``PRICE_TOL``.
    """

    inst: Instance
    ps: np.ndarray
    U: np.ndarray
    at: np.ndarray
    own: np.ndarray

    @property
    def improvable(self):
        return bool((self.U > self.own[:, None]).any())

    def settled(self, inst):
        """What :func:`plan_to_predictor` makes of this plan for ``inst``
        (this plan's events in any order), read off: an event of prior above
        1e-12 reports its mean's point and ``_from_rows`` places the rest;
        and the payoff ``own @ lam``, summed in this plan's order."""
        live = np.flatnonzero(inst.lam > 1e-12)
        at = _point_of(self.ps, inst.theta[live])
        points = np.flatnonzero(np.bincount(at, minlength=self.ps.size))
        rows = np.zeros((inst.n, points.size))
        rows[live, np.searchsorted(points, at)] = 1.0
        return (Predictor._from_rows(self.ps[points], rows, inst.theta),
                float(self.own @ self.inst.lam))


def _predictions(inst: Instance, zs):
    """The reduced prediction set of the envelope breakpoints ``zs``: the
    edges and midpoints of the constant pieces of the indirect utilities,
    the outcome means, and each breakpoint split into ``z - SEPARATION``
    and ``z + SEPARATION``, clipped to [0, 1].

    At a breakpoint the agent ties; the plan LP values a prediction there
    by the prior-weighted tie-break, but :func:`caldesign.model.payoff`
    breaks the tie by the mass actually sent there, so the LP could neither
    see nor correctly value a plan that moves mass to a tie point.  Each
    split point is a strict best response of one side, and the plan LP
    pays for the shift inside its own budget row."""
    split = np.clip(np.concatenate([zs - SEPARATION, zs + SEPARATION]),
                    0.0, 1.0)
    return _dedup_sorted(np.concatenate([piece_scan(zs), split, inst.theta]))


def _calibrated_plan(inst: Instance, ps) -> CalibratedPlan:
    """The :class:`CalibratedPlan` of ``inst`` over the predictions ``ps``,
    which must hold every mean, merged (as :func:`_predictions` and a grid's
    points do); the plan spends nothing of the budget."""
    check_norm(inst)
    U = indirect_utility_matrix(inst, ps)
    at = _point_of(ps, inst.theta)
    return CalibratedPlan(inst, ps, U, at, U[np.arange(inst.n), at])


@dataclass
class PlanProgram:
    """The discretized plan LP of ``inst`` by event pair, and the start of
    its column generation; no column of it is built whole.

    Its columns are the diagonal entries (e, e, theta_e, p) for every event
    ``e`` and prediction ``p = ps[c]`` of ``calibrated``, and the pooled
    entries (i, j, points[g], p) for every pair of events ``i = i[k]`` and
    ``j = j[k]`` whose means lie at distinct points, i's below j's, and grid
    index ``lo[k] <= g < hi[k]``, from mean i's point to mean j's
    (:func:`_point_of`).  ``U[e, c]`` is event e's indirect utility at
    ``ps[c]``.  ``fixed`` holds the pricing candidates that no row price
    moves (see :meth:`price`), opening with the n x P diagonal entries
    event by event; ``fixed_keys`` names each candidate:
    ``(k * points.size + g) * ps.size + c`` for a pooled entry,
    ``-1 - (e * ps.size + c)`` for a diagonal one.

    Column generation starts at the calibrated plan's n columns, each
    event's diagonal entry at its mean's point, at ``start`` in ``fixed``:
    their master's one feasible point x = lam has an optimal crash basis
    (the budget row's slack and the n columns), ``crash``, which prices the
    rows at ``prices = (0, calibrated.own)``.
    """

    inst: Instance
    points: np.ndarray
    calibrated: CalibratedPlan
    i: np.ndarray
    j: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    fixed: PlanColumns = field(init=False)
    fixed_keys: np.ndarray = field(init=False)
    start: np.ndarray = field(init=False)
    crash: lp_core.LpSolution = field(init=False)
    prices: np.ndarray = field(init=False)

    @property
    def ps(self):
        return self.calibrated.ps

    @property
    def U(self):
        return self.calibrated.U

    def __post_init__(self):
        n, lam, own = self.inst.n, self.inst.lam, self.calibrated.own
        self.start = np.arange(n) * self.ps.size + self.calibrated.at
        self.crash = lp_core.LpSolution(float(own @ lam), lam.copy(),
                                        np.concatenate([[n], np.arange(n)]))
        self.prices = np.concatenate([[0.0], own])
        diag = self._diagonal()
        # the ends of every slice (the clip maps 0 and points.size onto
        # them) and the grid neighbours of every prediction
        near = np.searchsorted(self.points, self.ps)
        pooled, keys = self._pooled(np.stack([np.zeros_like(near),
                                          np.full_like(near, self.points.size),
                                          near - 1, near])[:, None])
        keys, first = np.unique(keys, return_index=True)
        self.fixed = _join([diag, pooled.take(first)])
        self.fixed_keys = np.concatenate([-1 - np.arange(diag.obj.size),
                                          keys])

    def _diagonal(self):
        """The n x P diagonal entries (e, e, theta_e, ps[c]) event by event;
        each event's start column (at ``start``) spends nothing."""
        inst, ps = self.inst, self.ps
        e = np.repeat(np.arange(inst.n), ps.size)
        err = (np.abs(inst.theta[:, None] - ps) ** inst.norm).ravel()
        err[self.start] = 0.0
        return PlanColumns(e, e, inst.theta[e], np.tile(ps, inst.n),
                           self.U.ravel(), err, np.ones(e.size))

    def _pooled(self, g):
        """Pooled entries at grid indices ``g``, a stack of (pair,
        prediction) planes, each index clipped into its pair's slice, and
        their keys."""
        inst, npred = self.inst, self.ps.size
        g = np.clip(g, self.lo[:, None], self.hi[:, None] - 1).ravel()
        at = np.arange(g.size)
        k, c = at // npred % self.i.size, at % npred
        i, j = self.i[k], self.j[k]
        q = self.points[g]
        p = self.ps[c]
        r = (inst.theta[j] - q) / (inst.theta[j] - inst.theta[i])
        cols = PlanColumns(i, j, q, p,
                           r * self.U[i, c] + (1.0 - r) * self.U[j, c],
                           np.abs(q - p) ** inst.norm, r)
        return cols, (k * self.points.size + g) * npred + c

    def price(self, y):
        """Pricing candidates for the row prices ``y`` (budget row first,
        then one supply row per event), their keys and reduced costs.

        With ``A_e = U_e(p) - y_e`` the reduced cost of (i, j, q, p) is
        ``r(q) A_i + (1 - r(q)) A_j - y_0 |q - p|^t``, an affine function of
        q minus ``y_0 |q - p|^t``, so concave in q when ``y_0 >= 0`` and
        convex when ``y_0 <= 0``.  For every pair and prediction the best
        grid point of the slice is thus an end of the slice, or a grid
        neighbour of the stationary point
        ``q* = p + sign(s) (|s| / (y_0 t))^(1/(t-1))``,
        ``s = (A_j - A_i) / (theta_j - theta_i)``, which is the kink
        ``q* = p`` for t = 1.  The fixed candidates are the ends, the
        neighbours of every p and the diagonal entries; for t > 1 and
        ``y_0 > 0`` the neighbours of q* join them.  So no column has a
        larger reduced cost than the best candidate of its pair and
        prediction.
        """
        cols, keys = self.fixed, self.fixed_keys
        t = self.inst.norm
        if t > 1.0 and y[0] > 0.0 and self.i.size:
            theta = self.inst.theta
            A = self.U - y[1:, None]
            width = theta[self.j] - theta[self.i]
            s = (A[self.j] - A[self.i]) / width[:, None]
            with np.errstate(over="ignore"):
                step = (np.abs(s) / (y[0] * t)) ** (1.0 / (t - 1.0))
            near = np.searchsorted(self.points, self.ps + np.sign(s) * step)
            more, more_keys = self._pooled(np.stack([near - 1, near]))
            cols = _join([cols, more])
            keys = np.concatenate([keys, more_keys])
        # the subtraction order matches pricing against the rows one by one
        reduced = cols.obj - y[0] * cols.err
        reduced -= y[1:][cols.i] * cols.r
        reduced -= y[1:][cols.j] * (1.0 - cols.r)
        return cols, keys, reduced


def build_disc_lp(inst: Instance, grid: Grid, calibrated: CalibratedPlan):
    """The discretized plan LP on ``grid``, as a :class:`PlanProgram`.

    The LP maximizes sum chi[i,j](q,p) * (r U_i(p) + (1-r) U_j(p)) subject
    to the budget row sum chi |q-p|^t <= eps^t and one supply row per event.
    q ranges over the grid points inside [theta_i, theta_j], one slice of
    the grid per pair; p over the reduced prediction set of ``calibrated``,
    the instance's :func:`_calibrated_plan`, where column generation
    starts.  A pair pools only means at distinct grid points
    (:func:`_point_of`); means that share one meet in the diagonal entry.
    Nothing is built per column: the program holds the slices,
    the n x P utilities and the fixed pricing candidates: the n x P
    diagonal entries and at most four per pair and prediction.
    """
    at = _point_of(grid.points, inst.theta)
    # each pair's low-mean event first, whatever the order of the events
    i, j = np.nonzero(at[:, None] < at)
    return PlanProgram(inst, grid.points, calibrated, i, j, at[i], at[j] + 1)


def plan_to_predictor(plan: PlanColumns, inst: Instance) -> Predictor:
    """Convert a feasible plan (:meth:`PlanColumns.plan`) into the
    predictor it generates.

    Each column hands the share r of its mass ``w`` to its low event and
    the rest to its high event at the support point of prediction p
    (:func:`_point_of`); r is clipped to [0, 1], as it may stray by
    rounding.  Each event's mass per unit of prior goes to
    ``Predictor._from_rows``, exact's rule too.  Raises
    ``SUPPLY_VIOLATION`` when the plan does not conserve some event's prior
    mass within tolerance.
    """
    support = _dedup_sorted(plan.p)
    col = _point_of(support, plan.p)
    r = np.clip(plan.r, 0.0, 1.0)
    mass = np.zeros((inst.n, support.size))
    np.add.at(mass, (plan.i, col), plan.w * r)
    np.add.at(mass, (plan.j, col), plan.w * (1.0 - r))
    miss = float(np.abs(mass.sum(axis=1) - inst.lam).max())
    if miss > SUPPLY_TOL:
        raise ValidationError("SUPPLY_VIOLATION",
                              f"plan supplies deviate from the prior by {miss:.3e}")
    lam = inst.lam[:, None]
    rows = np.divide(mass, lam, out=np.zeros_like(mass), where=lam > 0)
    return Predictor._from_rows(support, rows, inst.theta)


def _master(inst: Instance, cols: PlanColumns):
    """The restricted master on ``cols``: the plan LP's budget row and
    supply rows over those columns only."""
    size = cols.obj.size
    at = np.arange(size)
    supply = np.zeros((inst.n, size))
    np.add.at(supply, (cols.i, at), cols.r)
    np.add.at(supply, (cols.j, at), 1.0 - cols.r)
    return lp_core.LinearProgram(
        cols.obj, np.vstack([cols.err, supply]), ["<="] + ["=="] * inst.n,
        np.concatenate([[inst.epsilon**inst.norm], inst.lam]))


def solve_plan_lp(inst: Instance, prog: PlanProgram):
    """Solve the :func:`build_disc_lp` plan LP by column generation,
    priced at the calibrated plan, first master solved only once columns
    enter.

    An optimal vertex uses at most n + 1 columns.  The restricted master,
    the LP on the active columns only, starts with each event's calibrated
    diagonal column (``prog.start``); that master's one feasible point is
    the calibrated plan, whose row prices are known in closed form
    (:class:`PlanProgram`).  Each round prices the program with the
    current row prices (:meth:`PlanProgram.price`: a few candidates per
    pair and prediction stand for every column), adds the ``2(n + 1)`` new
    candidates of largest reduced cost, and solves and checks the grown
    master by :func:`lp_core.solve` for the next prices, until no reduced
    cost exceeds ``PRICE_TOL`` times the largest utility, which is the
    largest objective of a diagonal column; each round adds a new column,
    so the loop ends.  Every master starts warm: the first from the crash
    basis (each diagonal column in its event's supply row, the budget row's
    slack), each later one from the previous optimal basis; when no column
    enters at the calibrated prices, no LP is solved.  Returns the master's
    columns and its optimal solution, whose ``iterations`` sum the pivots
    of every master.
    """
    cols, sol, y = prog.fixed.take(prog.start), prog.crash, prog.prices
    taken = set(prog.fixed_keys[prog.start].tolist())
    tol = PRICE_TOL * float(np.abs(prog.U).max(initial=0.0))
    batch = 2 * (inst.n + 1)
    pivots = 0
    while True:
        cand, keys, reduced = prog.price(y)
        entering = np.flatnonzero(reduced > tol)
        entering = entering[np.fromiter(
            (key not in taken for key in keys[entering].tolist()), dtype=bool,
            count=entering.size)]
        entering = entering[np.unique(keys[entering], return_index=True)[1]]
        if entering.size == 0:
            break
        if entering.size > batch:
            best = np.argpartition(reduced[entering], -batch)[-batch:]
            entering = entering[best]
        taken.update(keys[entering].tolist())
        size = cols.obj.size
        cols = _join([cols, cand.take(entering)])
        # the logicals of the old master renumber past the new columns
        basis = np.where(sol.basis >= size, sol.basis + entering.size,
                         sol.basis)
        master = _master(inst, cols)
        sol = lp_core.solve(master, basis=basis)
        pivots += sol.iterations
        y = lp_core.row_prices(master, sol)
    return cols, replace(sol, iterations=pivots)


def fptas_solve(inst: Instance, delta: float):
    """(1 - delta)-approximate predictor for any finite norm; ``delta``
    must lie in (0, 1) (:func:`read_delta`).

    Settles the calibrated plan from the utilities first
    (:func:`_calibrated_plan`, n x P work).  When no diagonal reduced cost
    at its prices is above 0, it is optimal on every grid, and its
    predictor is read off the plan (:meth:`CalibratedPlan.settled`).
    Otherwise the solver builds the grid at precision delta/3 and the
    per-pair plan LP on it (:func:`build_disc_lp`), solves that LP by
    column generation (:func:`solve_plan_lp`) and converts the optimal plan
    (:func:`plan_to_predictor`).  The result keeps the calibration budget
    and loses at most a (1 - delta) factor of the optimal payoff.  It
    solves on the events sorted by mean (equal means keep the caller's
    order), so the order of distinct means does not pick among the
    degenerate LP's optimal plans.  The predictor is certified before it is
    returned (:func:`caldesign.model.certify`): its calibration error is
    within the budget and its payoff is the returned objective, or
    ``SolverError('UNCERTIFIED')`` is raised.
    """
    delta = read_delta(delta)
    order = np.argsort(inst.theta, kind="stable")
    view = inst._in_order(order)
    calibrated = _calibrated_plan(view, _predictions(view, envelope(view)[0]))
    if not calibrated.improvable:
        predictor, objective = calibrated.settled(inst)
    else:
        grid = build_grid(view, delta / 3.0)
        cols, sol = solve_plan_lp(view, build_disc_lp(view, grid, calibrated))
        plan = cols.plan(sol.x)
        plan.i, plan.j = order[plan.i], order[plan.j]   # the caller's events
        predictor = plan_to_predictor(plan, inst)
        objective = float(sol.objective_value)
    certify(predictor, inst, objective)
    return predictor, objective
