"""Plan helpers that only the tests use.

:func:`apply_plan` is the inverse of :func:`caldesign.structure.recalibrate`:
it blurs the calibrated core back through the event-independent plan.
:func:`plan_objective` is a :class:`caldesign.fptas.BiEventPlan`'s
designer payoff; :func:`plan_to_records` and :func:`plan_from_records` give
such a plan a list-of-dicts form.
"""

from __future__ import annotations

import numpy as np

from caldesign.errors import ValidationError
from caldesign.fptas import BiEventPlan, _dedup_sorted
from caldesign.model import (
    SUPPLY_TOL,
    SUPPORT_MERGE_TOL,
    Instance,
    Predictor,
    indirect_utility_matrix,
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


def plan_objective(plan: BiEventPlan, inst: Instance) -> float:
    """Designer payoff of the plan (pairwise-mixed indirect utility)."""
    ps = _dedup_sorted(plan.p)
    U = indirect_utility_matrix(inst, ps)
    col = np.searchsorted(ps, plan.p - SUPPORT_MERGE_TOL)
    r = plan.contribution(inst)
    val = r * U[plan.i, col] + (1.0 - r) * U[plan.j, col]
    return float(plan.w @ val)


def plan_to_records(plan: BiEventPlan):
    """One ``{"i", "j", "q", "p", "mass"}`` dict per plan entry."""
    return [{"i": int(i), "j": int(j), "q": float(q), "p": float(p),
             "mass": float(w)}
            for i, j, q, p, w in zip(plan.i, plan.j, plan.q, plan.p, plan.w)]


def plan_from_records(records) -> BiEventPlan:
    return BiEventPlan([r["i"] for r in records], [r["j"] for r in records],
                       [r["q"] for r in records], [r["p"] for r in records],
                       [r["mass"] for r in records])
