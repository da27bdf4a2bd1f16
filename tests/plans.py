"""Plan helpers that only the tests use.

:func:`apply_plan` is the inverse of :func:`caldesign.structure.recalibrate`:
it blurs the calibrated core back through the event-independent plan, and
:func:`prior_on_means` is the distribution that the core's marginal
contracts.
:func:`make_plan` builds a hand-made bi-event plan as the package's plan
type, :class:`caldesign.fptas.PlanColumns` with mass ``w``, whose columns
carry each entry's designer payoff ``obj`` and budget spend ``err``, so a
plan's objective is ``w @ obj`` and its raw error ``w @ err``;
:func:`plan_supply` is the per-event mass it consumes.
:func:`plan_to_records` and :func:`plan_from_records` give such a plan a
list-of-dicts form.
"""

from __future__ import annotations

import numpy as np

from caldesign.errors import ValidationError
from caldesign.fptas import PlanColumns, _dedup_sorted, _point_of
from caldesign.model import (
    SUPPLY_TOL,
    SUPPORT_MERGE_TOL,
    Instance,
    Predictor,
    indirect_utility_matrix,
    runs,
)
from caldesign.structure import EventIndependentPlan


def apply_plan(gtilde: Predictor, plan: EventIndependentPlan,
               inst: Instance) -> Predictor:
    """Blur a perfectly calibrated predictor through a post-processing plan.

    Each calibrated atom q forwards its per-event mass to the plan's
    predictions in proportion chi(q, p) / g(q).  The plan's q-marginal must
    match the calibrated marginal within tolerance.
    """
    gmarg = gtilde.marginal(inst.lam)
    qs = np.unique(plan.q)
    probs = np.zeros(qs.size)
    np.add.at(probs, np.searchsorted(qs, plan.q), plan.w)
    if qs.size != gtilde.support.size or \
            np.any(np.abs(qs - gtilde.support) > 1e-9):
        raise ValidationError("SUPPLY_VIOLATION",
                              "plan q-support differs from the calibrated support")
    if np.any(np.abs(probs - gmarg) > SUPPLY_TOL):
        worst = float(np.abs(probs - gmarg).max())
        raise ValidationError("SUPPLY_VIOLATION",
                              f"plan marginal off by {worst:.3e}")
    support = np.unique(plan.p)
    mass = np.zeros((inst.n, support.size))
    qidx = np.searchsorted(gtilde.support, plan.q - 1e-12)
    qidx = np.clip(qidx, 0, gtilde.support.size - 1)
    pidx = np.searchsorted(support, plan.p)
    for k in range(plan.w.size):
        qa, pa, w = qidx[k], pidx[k], plan.w[k]
        if w <= 0 or gmarg[qa] <= 0:
            continue
        mass[:, pa] += gtilde.mass[:, qa] * (w / gmarg[qa])
    rows = mass.sum(axis=1)
    mass = mass / rows[:, None]
    return Predictor(support, mass)


def prior_on_means(inst: Instance):
    """The event prior as a distribution over outcome means (ties merged)."""
    by_mean = np.argsort(inst.theta, kind="stable")
    theta, lam = inst.theta[by_mean], inst.lam[by_mean]
    starts = runs(theta, SUPPORT_MERGE_TOL)
    return theta[starts], np.add.reduceat(lam, starts)


def make_plan(inst: Instance, i, j, q, p, w) -> PlanColumns:
    """Mass ``w`` on the entries (i, j, q, p), as plan columns of ``inst``.

    ``r`` is the low event's share (theta_j - q) / (theta_j - theta_i),
    clipped to [0, 1], or 1 where the means meet; ``err`` is |q - p|^t in
    ``inst``'s norm; ``obj`` is the pairwise-mixed indirect utility at the
    plan's own predictions, merged.
    """
    i = np.asarray(i, dtype=int).ravel()
    j = np.asarray(j, dtype=int).ravel()
    q, p, w = (np.asarray(a, dtype=float).ravel() for a in (q, p, w))
    ti, tj = inst.theta[i], inst.theta[j]
    r = np.ones(i.size)
    wide = tj > ti + 1e-15
    r[wide] = (tj[wide] - q[wide]) / (tj[wide] - ti[wide])
    r = np.clip(r, 0.0, 1.0)
    ps = _dedup_sorted(p)
    U = indirect_utility_matrix(inst, ps)
    col = _point_of(ps, p)
    obj = r * U[i, col] + (1.0 - r) * U[j, col]
    return PlanColumns(i, j, q, p, obj, np.abs(q - p) ** inst.norm, r, w)


def plan_supply(plan: PlanColumns, n) -> np.ndarray:
    """Per-event mass the plan consumes; feasible plans match the prior."""
    supply = np.zeros(n)
    np.add.at(supply, plan.i, plan.w * plan.r)
    np.add.at(supply, plan.j, plan.w * (1.0 - plan.r))
    return supply


def plan_to_records(plan: PlanColumns):
    """One ``{"i", "j", "q", "p", "mass"}`` dict per plan entry."""
    return [{"i": int(i), "j": int(j), "q": float(q), "p": float(p),
             "mass": float(w)}
            for i, j, q, p, w in zip(plan.i, plan.j, plan.q, plan.p, plan.w)]


def plan_from_records(records, inst: Instance) -> PlanColumns:
    return make_plan(inst, *([r[key] for r in records]
                             for key in ("i", "j", "q", "p", "mass")))
