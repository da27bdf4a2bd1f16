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

The plan LP ranges over every q in [theta_i, theta_j]: column generation
finds each pair's best q in closed form (:meth:`PlanProgram.price`).  The
paper discretizes q on an instance-dependent two-layer grid
(:func:`build_grid`: a uniform delta mesh joined with the outcome means,
the envelope breakpoints of :func:`caldesign.model.envelope`, and
geometric micro-nets around those anchors whose radii start at
(eps^t * delta)^(1/t)), on which the plan LP loses at most a
(1 - 3*delta) factor; the paper's rounding scheme realizes that bound (it
lives with the test-suite, which checks it).  The plan LP over every q
holds each column of the grid LP on the same predictions, so for every
delta it does at least as well; the solver builds no grid.

Predictions, supports and grid points merge by
:func:`caldesign.model.runs`, and a value belongs to the first point of its
run (:func:`_point_of`), so a mean is its own prediction point.  Prediction
columns in the LP are restricted to the utility breakpoints, the outcome
means, one interior point per constant piece of the indirect utilities,
and each breakpoint split into two strict predictions ``model.SEPARATION``
to either side (:func:`_predictions`, which says why the split points stand
in for the tie at the breakpoint).  Since the indirect utilities are
piecewise constant, an optimal plan never needs any other prediction.

The plan LP has one budget row and one supply row per event, so an optimal
vertex pools at most n + 1 of its (infinitely many) columns.  One
:class:`PlanProgram` per solve holds the n x P utilities and the
calibrated plan, settled from them alone (:func:`build_disc_lp`).  When no
event's utility rises at another prediction, no column can enter, and the
calibrated predictor is read off the plan: no pair, column or LP is built.
Otherwise the program builds its event pairs and fixed pricing candidates,
never the program's columns whole, and :func:`solve_plan_lp` solves it by
column generation from the calibrated plan's n columns
(:meth:`PlanProgram.start`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

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

PRICE_TOL = 1e-9

# Most points build_grid may allocate before merging them.  The net alone
# holds about 2 ln(1/delta)/delta points per anchor side, which passes 10^7
# near delta = 1e-5 on a few anchors, and the merge holds a few copies of
# the points at 8 bytes each; a smaller delta would allocate gigabytes.
GRID_CAP = 10**7


@dataclass
class Grid:
    """Two-layer discretization of [0, 1] for the outcome q of the plan
    LP's columns, which carries the (1 - delta) bound (read-only)."""

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
    # in floats, so that a delta below about 1e-308 reads as an infinite
    # bound rather than overflowing an int conversion
    levels = 2.0 / math.log1p(delta) * math.log(1.0 / delta)
    delta0 = inst.epsilon**t * delta
    bound = (1.0 / delta + 2 + inst.n + zs.size
             + (2 * anchors.size * (levels + 2) if delta0 > 0.0 else 0))
    if bound > GRID_CAP:
        raise ValidationError(
            "BAD_DELTA", f"delta {delta} asks for a grid of up to {bound:.3g} "
            f"points, above the cap of {GRID_CAP:.0e}")
    levels = int(math.ceil(levels))
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


@dataclass
class PlanProgram:
    """The plan LP of ``inst`` over the continuum of q, by event pair, and
    the calibrated plan that starts its column generation; no column of the
    LP is built whole.

    ``ps`` is the reduced prediction set and ``U[e, c]`` event e's indirect
    utility at ``ps[c]``.  ``ps`` holds every mean, merged, and in the
    calibrated plan each event reports its mean's point ``ps[at[e]]``
    (:func:`_point_of`), where it spends nothing and earns ``own[e]``.

    The LP's columns are the diagonal entries (e, e, theta_e, p) for every
    event ``e`` and prediction ``p`` in ``ps``, and the pooled entries
    (i, j, q, p) for every pair of events whose means lie at distinct
    points of ``ps`` (``pairs``, i's below j's) and every q in
    ``[theta_i, theta_j]``; at either end a pooled entry is a diagonal one.
    ``fixed`` holds the pricing candidates that no row price moves (see
    :meth:`price`): the n x P diagonal entries event by event, then the
    calibrated pools (i, j, p, p) of every pair and prediction with
    ``theta_i < p < theta_j``, which spend nothing.  At a zero budget it
    keeps only the candidates that spend nothing; no other column can carry
    mass.  ``pairs`` and ``fixed`` are built on first use, which a settled
    plan never makes.

    The calibrated plan prices the rows at ``(0, own)`` (:meth:`start`).
    At these prices a pooled column (i, j, q, p) has reduced cost
    ``r (U_i(p) - own_i) + (1 - r) (U_j(p) - own_j)`` with r in [0, 1], a
    convex combination of two diagonal reduced costs at the same p.  When
    no diagonal reduced cost ``U_e(p) - own[e]`` is above 0 (``improvable``
    is false), no column can enter, at any q, and the calibrated plan is
    optimal, its predictor read off the plan (:meth:`settled`); pricing
    such a program finds nothing beyond rounding, far below ``PRICE_TOL``.
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
        """What :func:`plan_to_predictor` makes of the calibrated plan for
        ``inst`` (this program's events in any order), read off: an event of
        prior above 1e-12 reports its mean's point and ``_from_rows`` places
        the rest; and the payoff ``own @ lam``, summed in this program's
        order."""
        live = np.flatnonzero(inst.lam > 1e-12)
        at = _point_of(self.ps, inst.theta[live])
        points = np.flatnonzero(np.bincount(at, minlength=self.ps.size))
        rows = np.zeros((inst.n, points.size))
        rows[live, np.searchsorted(points, at)] = 1.0
        return (Predictor._from_rows(self.ps[points], rows, inst.theta),
                float(self.own @ self.inst.lam))

    def start(self):
        """The calibrated plan's n columns, each event's diagonal entry at
        its mean's point; their master's one feasible point x = lam has an
        optimal crash basis (the budget row's slack and the n columns),
        returned with them, which prices the rows at ``(0, own)``."""
        n, lam = self.inst.n, self.inst.lam
        e = np.arange(n)
        cols = PlanColumns(e, e, self.inst.theta, self.ps[self.at], self.own,
                           np.zeros(n), np.ones(n))
        crash = lp_core.LpSolution(float(self.own @ lam), lam.copy(),
                                   np.concatenate([[n], e]))
        return cols, crash, np.concatenate([[0.0], self.own])

    @functools.cached_property
    def pairs(self):
        # each pair's low-mean event first, whatever the order of the events
        return np.nonzero(self.at[:, None] < self.at)

    @functools.cached_property
    def fixed(self):
        (i, j), ps, theta = self.pairs, self.ps, self.inst.theta
        k, c = np.nonzero((theta[i][:, None] < ps) & (ps < theta[j][:, None]))
        fixed = _join([self._diagonal(), self._pooled(k, c, ps[c])])
        if self.inst.epsilon == 0.0:
            fixed = fixed.take(np.flatnonzero(fixed.err == 0.0))
        return fixed

    def _diagonal(self):
        """The n x P diagonal entries (e, e, theta_e, ps[c]) event by event;
        each event's entry at its mean's point spends nothing."""
        inst, ps = self.inst, self.ps
        e = np.repeat(np.arange(inst.n), ps.size)
        err = np.abs(inst.theta[:, None] - ps) ** inst.norm
        err[np.arange(inst.n), self.at] = 0.0
        return PlanColumns(e, e, inst.theta[e], np.tile(ps, inst.n),
                           self.U.ravel(), err.ravel(), np.ones(e.size))

    def _pooled(self, k, c, q):
        """The pooled entries (i[k], j[k], q, ps[c]) of ``pairs``."""
        inst = self.inst
        i, j, p = self.pairs[0][k], self.pairs[1][k], self.ps[c]
        r = (inst.theta[j] - q) / (inst.theta[j] - inst.theta[i])
        return PlanColumns(i, j, q, p,
                           r * self.U[i, c] + (1.0 - r) * self.U[j, c],
                           np.abs(q - p) ** inst.norm, r)

    def price(self, y):
        """Pricing candidates for the row prices ``y`` (budget row first,
        then one supply row per event) and their reduced costs.

        With ``A_e = U_e(p) - y_e`` the reduced cost of (i, j, q, p) is
        ``r(q) A_i + (1 - r(q)) A_j - y_0 |q - p|^t``, an affine function of
        q minus ``y_0 |q - p|^t``, so concave in q when ``y_0 >= 0`` and
        convex when ``y_0 <= 0``.  For every pair and prediction the best q
        is thus an end of the slice, which is a diagonal entry, or the
        stationary point ``q* = p + sign(s) (|s| / (y_0 t))^(1/(t-1))``,
        ``s = (A_j - A_i) / (theta_j - theta_i)``, which is the kink
        ``q* = p`` for t = 1, a calibrated pool.  The fixed candidates are
        the diagonal entries and the calibrated pools; for t > 1, ``y_0 > 0``
        and a budget above 0, every other q* strictly inside its slice joins
        them.  So no column has a larger reduced cost than the best
        candidate of its pair and prediction.
        """
        cols, inst = self.fixed, self.inst
        t = inst.norm
        if t > 1.0 and y[0] > 0.0 and inst.epsilon > 0.0:
            i, j = self.pairs
            lo, hi = inst.theta[i][:, None], inst.theta[j][:, None]
            A = self.U - y[1:, None]
            s = (A[j] - A[i]) / (hi - lo)
            with np.errstate(over="ignore"):
                q = self.ps + np.sign(s) * (np.abs(s) / (y[0] * t)) ** (
                    1.0 / (t - 1.0))
            k, c = np.nonzero((lo < q) & (q < hi) & (q != self.ps))
            cols = _join([cols, self._pooled(k, c, q[k, c])])
        return cols, _reduced(cols, y)


def _reduced(cols: PlanColumns, y):
    """Reduced costs of ``cols`` at the row prices ``y``."""
    # the subtraction order matches pricing against the rows one by one
    reduced = cols.obj - y[0] * cols.err
    reduced -= y[1:][cols.i] * cols.r
    reduced -= y[1:][cols.j] * (1.0 - cols.r)
    return reduced


def build_disc_lp(inst: Instance, ps) -> PlanProgram:
    """The plan LP of ``inst`` over every q, as a :class:`PlanProgram`, and
    its calibrated plan; ``ps`` must hold every mean, merged (as
    :func:`_predictions` and a grid's points do).

    The LP maximizes sum chi[i,j](q,p) * (r U_i(p) + (1-r) U_j(p)) subject
    to the budget row sum chi |q-p|^t <= eps^t and one supply row per event.
    q ranges over all of [theta_i, theta_j] for each pair, and p over
    ``ps``.  A pair pools only means at distinct prediction points
    (:func:`_point_of`); means that share one meet in the diagonal entry.
    Only the n x P utilities are built here, nothing per column or pair.
    """
    check_norm(inst)
    U = indirect_utility_matrix(inst, ps)
    at = _point_of(ps, inst.theta)
    return PlanProgram(inst, ps, U, at, U[np.arange(inst.n), at])


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


def solve_plan_lp(prog: PlanProgram):
    """Solve the :func:`build_disc_lp` plan LP by column generation,
    priced at the calibrated plan, first master solved only once columns
    enter.

    An optimal vertex uses at most n + 1 columns.  The restricted master,
    the LP on the active columns only, starts with each event's calibrated
    diagonal column (:meth:`PlanProgram.start`); that master's one feasible
    point is the calibrated plan, whose row prices are known in closed
    form.  Each round prices the program with the current row prices y
    (:meth:`PlanProgram.price`: a few candidates per pair and prediction
    stand for every column), adds the ``2(n + 1)``
    candidates of largest reduced cost above the tolerance, largest first,
    and solves and checks the grown master by :func:`lp_core.solve` for
    the next prices; it stops when no candidate is above the tolerance.
    That is ``PRICE_TOL * (1 + |objective|)``, or a master column's
    reduced cost if higher: an optimal master prices its columns at 0 up to
    its rounding, which on a budget row of about 1e-18 (eps^t at t = 3) can
    exceed ``PRICE_TOL``, and no column may enter twice.  Every column
    draws one unit of supply and the supplies sum to 1, so ``y @ b +
    max(0, largest reduced cost)`` bounds the plan LP (for ``y_0 >= 0``):
    at the stop the objective is within the tolerance of the optimum.
    Every master starts warm: the first from the crash basis (each diagonal
    column in its event's supply row, the budget row's slack), each later
    one from the previous optimal basis; when no column enters at the
    calibrated prices, no LP is solved.  Returns the master's columns and
    its optimal solution, whose ``iterations`` sum the pivots of every
    master.
    """
    inst = prog.inst
    cols, sol, y = prog.start()
    batch = 2 * (inst.n + 1)
    pivots = 0
    while True:
        cand, reduced = prog.price(y)
        tol = max(PRICE_TOL * (1.0 + abs(sol.objective_value)),
                  _reduced(cols, y).max())
        entering = np.flatnonzero(reduced > tol)
        if entering.size == 0:
            break
        # largest first: the master's Bland rule tries them in that order
        entering = entering[np.argsort(-reduced[entering],
                                       kind="stable")[:batch]]
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

    Builds the plan LP over every q with its calibrated plan
    (:func:`build_disc_lp`, n x P work).  When no diagonal reduced cost at
    the calibrated prices is above 0, that plan is optimal, and its
    predictor is read off it (:meth:`PlanProgram.settled`).  Otherwise the
    solver solves the LP by column generation (:func:`solve_plan_lp`) and
    converts the optimal plan (:func:`plan_to_predictor`).  That LP holds
    each column of the plan LP on the grid at precision delta/3
    (:func:`build_grid`), so the result keeps the budget and loses at most
    a (1 - delta) factor of the optimal payoff, whatever delta; no grid is
    built.  It solves on the events sorted by mean (equal means keep the
    caller's order), so the order of distinct means does not pick among the
    degenerate LP's optimal plans.  The predictor is certified before it is returned
    (:func:`caldesign.model.certify`): its calibration error is within the
    budget and its payoff is the returned objective, or
    ``SolverError('UNCERTIFIED')`` is raised.
    """
    read_delta(delta)
    order = np.argsort(inst.theta, kind="stable")
    view = inst._in_order(order)
    prog = build_disc_lp(view, _predictions(view, envelope(view)[0]))
    if not prog.improvable:
        predictor, objective = prog.settled(inst)
    else:
        cols, sol = solve_plan_lp(prog)
        plan = cols.plan(sol.x)
        plan.i, plan.j = order[plan.i], order[plan.j]   # the caller's events
        predictor = plan_to_predictor(plan, inst)
        objective = float(sol.objective_value)
    certify(predictor, inst, objective)
    return predictor, objective
