"""Brute-force cross-checks used by the test suite to validate the solvers.

Three independent routes: seeded samplers that spew feasible predictors
(their payoffs must never beat the exact optimum), an exhaustive search
over tiny grids that enumerates support sets and optimizes the masses
exactly on each, giving a tight grid-restricted optimum to compare against,
and the optimum of the paper's plan LP on the finitely many columns that
can pay, for the 1-norm (:func:`l1_plan_optimum`) and the max-norm
(:func:`linf_plan_optimum`), which reaches n, m >= 10.  For an
event-independent 1-norm instance, :func:`gamma_certificate` solves the
dual LP, whose value is the optimum too.
:func:`sample_feasible` draws random predictors on a grid and keeps those
within the budget, which a tight budget rarely admits;
:func:`sample_calibrated_shifts` shifts calibrated predictors out to the
budget's boundary, where optimal predictors sit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from caldesign import fptas, lp_core
from caldesign.errors import SolverError, ValidationError
from caldesign.model import (
    INF,
    Instance,
    Predictor,
    ece,
    envelope,
    indirect_utility_matrix,
    payoff,
    tied_action_sets,
)
from caldesign.structure import GammaCertificate

from cold import cold_solve


@dataclass
class SamplerConfig:
    grid_step: float = 0.1
    samples: int = 1000
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.grid_step <= 0.5:
            raise ValidationError("BAD_FORMAT", "grid_step must be in (0, 0.5]")
        if self.samples < 1:
            raise ValidationError("BAD_FORMAT", "need at least one sample")


def _grid(step):
    pts = np.arange(0.0, 1.0 + step / 2, step)
    if pts[-1] < 1.0 - 1e-12:
        pts = np.append(pts, 1.0)
    return np.minimum(pts, 1.0)


def sample_feasible(inst: Instance, cfg: SamplerConfig):
    """Yield random predictors with calibration error within the budget.

    Per event, a random support subset of the candidate grid gets Dirichlet
    masses; candidates failing the budget are discarded.  Deterministic for
    a fixed seed.
    """
    rng = np.random.default_rng(cfg.seed)
    grid = _grid(cfg.grid_step)
    for _ in range(cfg.samples):
        mass = np.zeros((inst.n, grid.size))
        for i in range(inst.n):
            size = int(rng.integers(1, min(4, grid.size) + 1))
            cols = rng.choice(grid.size, size=size, replace=False)
            mass[i, cols] = rng.dirichlet(np.ones(size))
        pred = Predictor(grid, mass)
        if ece(pred, inst) <= inst.epsilon + 1e-12:
            yield pred


def sample_calibrated_shifts(inst: Instance, count: int, seed: int,
                             budget: float):
    """Yield the draws among ``count`` whose calibration error is within
    ``budget``; deterministic for a fixed seed.

    Each draw pools the events at random into groups, each predicting its
    pooled mean, which is calibrated, and then shifts each group's
    prediction by ``d_g`` (clipped to [0, 1]).  For t = 1 the shifts spend
    the whole budget, ``sum_g mass_g |d_g| = budget``, in random shares; for
    t = inf each ``|d_g| <= budget`` is drawn uniformly.  Signs are random.
    Both stay a relative 1e-9 inside the budget, against rounding.
    """
    if inst.norm != 1.0 and inst.norm != INF:
        raise ValidationError("UNSUPPORTED_NORM",
                              "shifts are drawn for t in {1, inf} only")
    rng = np.random.default_rng(seed)
    reach = budget * (1.0 - 1e-9)
    for _ in range(count):
        labels = rng.integers(0, rng.integers(1, inst.n + 1), inst.n)
        _, groups = np.unique(labels, return_inverse=True)
        size = groups.max() + 1
        mass = np.bincount(groups, inst.lam, size)
        mean = np.divide(np.bincount(groups, inst.lam * inst.theta, size),
                         mass, out=np.zeros(size), where=mass > 0)
        sign = rng.choice([-1.0, 1.0], size)
        if inst.norm == 1.0:
            share = rng.dirichlet(np.ones(size))
            shift = np.divide(reach * share, mass, out=np.zeros(size),
                              where=mass > 0)
        else:
            shift = reach * rng.uniform(0.0, 1.0, size)
        pred = Predictor(np.clip(mean + sign * shift, 0.0, 1.0),
                         np.eye(size)[groups])
        if ece(pred, inst) <= budget:
            yield pred


def _fixed_support_lp(inst, support):
    """LP over masses on a fixed support: maximize payoff within the budget.

    Payoff is linear in the masses; for t = 1 the budget needs one absolute
    value per support point (an auxiliary upper bound each), for t = inf a
    pair of linear rows per point.  Other norms are not LP-representable.
    """
    n, K = inst.n, support.size
    t = inst.norm
    if t != 1.0 and t != INF:
        raise ValidationError("UNSUPPORTED_NORM",
                              "enumeration handles t in {1, inf} only")
    U = indirect_utility_matrix(inst, support)
    nv = n * K + (K if t == 1.0 else 0)
    obj = np.zeros(nv)
    obj[:n * K] = (inst.lam[:, None] * U).ravel()
    stochastic = np.zeros((n, nv))
    stochastic[:, :n * K] = np.kron(np.eye(n), np.ones(K))
    # signed calibration gap of point k: sum_i lam_i f_i(k) (theta_i - p_k)
    gap = np.zeros((K, nv))
    for i in range(n):
        gap[:, i * K:(i + 1) * K] = np.eye(K) * inst.lam[i] * \
            (inst.theta[i] - support)[None, :]
    if t == 1.0:
        # |gap_k| <= aux_k, and the aux sum within the budget
        bound = np.zeros((K, nv))
        bound[:, n * K:] = np.eye(K)
        total = np.zeros((1, nv))
        total[0, n * K:] = 1.0
        rhs = [0.0] * 2 * K + [inst.epsilon]
    else:
        # |gap_k| <= epsilon * mass_k
        bound = np.zeros((K, nv))
        for i in range(n):
            bound[:, i * K:(i + 1) * K] = np.eye(K) * inst.lam[i]
        bound *= inst.epsilon
        total = np.zeros((0, nv))
        rhs = [0.0] * 2 * K
    pairs = np.stack([gap - bound, -gap - bound], axis=1).reshape(2 * K, nv)
    A = np.vstack([stochastic, pairs, total])
    return lp_core.LinearProgram(obj, A, ["=="] * n + ["<="] * len(rhs),
                                 np.concatenate([np.ones(n), rhs]))


def exhaustive_best(inst: Instance, grid_step: float):
    """Best predictor over all small support subsets of a coarse grid.

    Enumerates every support set of up to three grid points and solves the
    fixed-support LP on each.  Deliberately capped to tiny instances; raises
    ``TOO_LARGE`` beyond the caps.
    """
    if inst.n > 2 or inst.m > 3:
        raise ValidationError("TOO_LARGE", "enumeration caps: n <= 2, m <= 3")
    if grid_step < 0.05 - 1e-12:
        raise ValidationError("TOO_LARGE", "grid_step below 0.05")
    grid = _grid(grid_step)
    best_val = -np.inf
    best_pred = None
    idx = range(grid.size)
    subsets = [(k,) for k in idx]
    subsets += [(a, b) for a in idx for b in idx if a < b]
    subsets += [(a, b, c) for a in idx for b in idx for c in idx
                if a < b < c]
    for subset in subsets:
        support = grid[list(subset)]
        lp = _fixed_support_lp(inst, support)
        try:
            sol = cold_solve(lp)
        except SolverError as err:
            if err.code != "NO_SOLUTION":
                raise
            continue
        K = support.size
        mass = sol.x[:inst.n * K].reshape(inst.n, K).clip(min=0.0)
        mass /= mass.sum(axis=1, keepdims=True)
        pred = Predictor(support, mass)
        if ece(pred, inst) > inst.epsilon + 1e-9:
            continue
        val = payoff(pred, inst)
        if val > best_val:
            best_val = val
            best_pred = pred
    if best_pred is None:
        raise ValidationError("TOO_LARGE", "no feasible support found")
    return best_pred, float(best_val)


def l1_plan_optimum(inst: Instance) -> float:
    """The t = 1 optimum of the paper's plan LP over every outcome q, by
    scipy's HiGHS on explicit columns.

    The predictions are the approximation scheme's
    (``fptas._predictions``): the edges and midpoints of the indirect
    utility's constant pieces, each envelope breakpoint split by
    ``SEPARATION`` (clipped to [0, 1]), and the means, merged.
    At t = 1 a pooled column's reduced cost is piecewise linear in q, with
    kinks only at the ends of its slice and at q = p, so the columns that
    can pay are finitely many: every event's diagonal entry (e, e, theta_e,
    p) at every prediction, and the calibrated pool (i, j, p, p) of every
    pair with ``theta_i < p < theta_j``.  The value is the optimum itself,
    from the plan framework rather than the action-recommendation LP, and
    it shares no code with either solver's LP.  The premise needs every tie
    of the agent to lie at a split breakpoint: the plan LP values a
    prediction by the prior-weighted tie-break, where ``payoff`` breaks a
    tie by the mass sent there.
    """
    from scipy.optimize import linprog
    ps = fptas._predictions(inst, envelope(inst)[0])
    U = indirect_utility_matrix(inst, ps)
    n, theta = inst.n, inst.theta
    value, err, supply = [], [], []
    for e in range(n):
        value.append(U[e])
        err.append(np.abs(theta[e] - ps))
        supply.append(np.outer(np.eye(n)[e], np.ones(ps.size)))
    for i in range(n):
        for j in range(n):
            inside = (theta[i] < ps) & (ps < theta[j])
            r = (theta[j] - ps[inside]) / (theta[j] - theta[i])
            value.append(r * U[i, inside] + (1.0 - r) * U[j, inside])
            err.append(np.zeros(r.size))
            supply.append(np.outer(np.eye(n)[i], r)
                          + np.outer(np.eye(n)[j], 1.0 - r))
    res = linprog(-np.concatenate(value), A_ub=np.concatenate(err)[None],
                  b_ub=[inst.epsilon], A_eq=np.hstack(supply), b_eq=inst.lam,
                  method="highs")
    assert res.status == 0, res.message
    return float(-res.fun)


def linf_plan_optimum(inst: Instance) -> float:
    """The t = inf optimum of the paper's plan LP over every outcome q, by
    scipy's HiGHS on explicit columns.

    A predictor has ECE_inf <= epsilon exactly when it comes from a plan
    whose every column (i, j, q, p) has ``|q - p| <= epsilon``: a pool at p
    of mean kappa splits into two-point pools of mean kappa.  So the LP has
    no budget row, only one supply row per event, and only the columns
    within the budget.  A pooled column's value and supply draws are linear
    in q, so for each pair ``theta_i < theta_j`` and prediction p the two
    ends of ``[max(theta_i, p - eps), min(theta_j, p + eps)]`` suffice, with
    the diagonal entry (e, e, theta_e, p) wherever ``|theta_e - p| <=
    eps``.  The predictions are the approximation scheme's
    (``fptas._predictions``); the LP shares no code with either solver's.
    Like :func:`l1_plan_optimum`, it gives up about ``SEPARATION`` at the
    agent's ties.
    """
    from scipy.optimize import linprog
    eps = inst.epsilon
    ps = fptas._predictions(inst, envelope(inst)[0])
    U = indirect_utility_matrix(inst, ps)
    n, theta, eye = inst.n, inst.theta, np.eye(inst.n)
    value, supply = [], []
    for e in range(n):
        near = np.abs(theta[e] - ps) <= eps
        value.append(U[e, near])
        supply.append(np.outer(eye[e], np.ones(near.sum())))
    for i in range(n):
        for j in range(n):
            if not theta[i] < theta[j]:
                continue
            lo = np.maximum(theta[i], ps - eps)
            hi = np.minimum(theta[j], ps + eps)
            ok = lo <= hi
            for q in (lo[ok], hi[ok]):
                r = (theta[j] - q) / (theta[j] - theta[i])
                value.append(r * U[i, ok] + (1.0 - r) * U[j, ok])
                supply.append(np.outer(eye[i], r) + np.outer(eye[j], 1.0 - r))
    res = linprog(-np.concatenate(value), A_eq=np.hstack(supply),
                  b_eq=inst.lam, method="highs")
    assert res.status == 0, res.message
    return float(-res.fun)


def gamma_certificate(inst: Instance):
    """The best :class:`caldesign.structure.GammaCertificate` of an
    event-independent 1-norm instance and its dual value, by scipy's HiGHS.

    Gamma is linear between the points ``xs`` of {0, 1}, the envelope
    breakpoints and the means.  The LP minimizes ``alpha * epsilon +
    sum_e lam_e Gamma(theta_e)`` over ``alpha >= 0`` and ``Gamma(x) >=
    Ubar(x)`` at ``xs``, with slopes that do not decrease and end slopes
    within +/-alpha.  Ubar, the best designer utility over the agent's tied
    actions and the events, is constant between breakpoints, so Gamma
    dominates it everywhere; and the value is the optimum, by strong
    duality.
    """
    from scipy.optimize import linprog
    xs = np.unique(np.concatenate([[0.0, 1.0], envelope(inst)[0],
                                   inst.theta]))
    ubar = np.where(tied_action_sets(inst, xs), inst.ubar.max(axis=0),
                    -np.inf).max(axis=1)
    # the variables are alpha, then Gamma at xs; row k of slope is the
    # slope of Gamma from xs[k] to xs[k + 1]
    slope = (np.eye(xs.size, k=1) - np.eye(xs.size))[:-1] \
        / np.diff(xs)[:, None]
    rows = np.vstack([
        np.column_stack([np.zeros(xs.size - 2), slope[:-1] - slope[1:]]),
        np.concatenate([[-1.0], -slope[0]]),
        np.concatenate([[-1.0], slope[-1]])])
    cost = np.concatenate([[inst.epsilon], np.bincount(
        np.searchsorted(xs, inst.theta), inst.lam, xs.size)])
    res = linprog(cost, A_ub=rows, b_ub=np.zeros(len(rows)),
                  bounds=[(0.0, None)] + [(u, None) for u in ubar],
                  method="highs")
    assert res.status == 0, res.message
    return (GammaCertificate(np.column_stack([xs, res.x[1:]]), res.x[0]),
            float(res.fun))
