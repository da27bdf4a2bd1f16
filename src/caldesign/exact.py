"""Exact optimal predictors for the 1-norm and max-norm error budgets.

The route is an action-recommendation linear program over a direct signaling
scheme ``pi`` (one recommendation distribution per event) plus a per-action
belief bias ``b``: the agent is recommended an action, forms the biased
posterior mean p(a) = (sum_i lam_i pi_i(a) theta_i + b(a)) / mass(a), and
must find the recommendation optimal.  The bias budget is the calibration
budget: for t=1 the total |b| is capped by epsilon, for t=inf each action's
|b(a)| is capped by epsilon times its signal mass (so every biased mean sits
within epsilon of its Bayes mean).  An optimal scheme converts into an
optimal predictor by predicting p(a) whenever action a would be recommended,
and back.
"""

from __future__ import annotations

import logging

import numpy as np

from . import lp_core
from .errors import SolverError, ValidationError
from .model import INF, Instance, Predictor, action_profile

ZERO_MASS_TOL = 1e-12

log = logging.getLogger("caldesign")


class SenderStrategy:
    """Signaling scheme plus per-signal belief bias.

    ``pi`` is (n_events, n_signals) with rows summing to 1, ``bias`` has one
    entry per signal, and ``signal_actions`` labels each signal with the
    action index it induces (identity for direct strategies).
    """

    def __init__(self, pi, bias, signal_actions=None):
        pi = np.atleast_2d(np.asarray(pi, dtype=float))
        bias = np.asarray(bias, dtype=float).ravel()
        if pi.shape[1] != bias.size:
            raise ValidationError("BAD_STRATEGY", "pi columns must match bias")
        if np.any(pi < -1e-12):
            raise ValidationError("BAD_STRATEGY", "negative signal probability")
        rows = pi.sum(axis=1)
        if np.any(np.abs(rows - 1.0) > 1e-9):
            raise ValidationError("BAD_STRATEGY",
                                  f"per-event signal mass sums {rows} are not 1")
        if signal_actions is None:
            signal_actions = np.arange(bias.size)
        signal_actions = np.asarray(signal_actions, dtype=int).ravel()
        if signal_actions.size != bias.size:
            raise ValidationError("BAD_STRATEGY", "one action label per signal")
        self.pi = np.clip(pi, 0.0, None)
        self.bias = bias
        self.signal_actions = signal_actions

    @property
    def n_signals(self):
        return self.bias.size

    def signal_mass(self, inst):
        return inst.lam @ self.pi

    def biased_means(self, inst):
        """Per-signal biased posterior mean; NaN for zero-mass signals."""
        mass = self.signal_mass(inst)
        num = (inst.lam * inst.theta) @ self.pi + self.bias
        out = np.full(mass.shape, np.nan)
        pos = mass > ZERO_MASS_TOL
        out[pos] = num[pos] / mass[pos]
        return out

    def to_json_dict(self, inst):
        return {
            "pi": [row.tolist() for row in self.pi],
            "bias": {inst.actions[a] if 0 <= a < inst.m else str(a): float(b)
                     for a, b in zip(self.signal_actions, self.bias)},
            "signal_actions": [int(a) for a in self.signal_actions],
        }


def aggregated_bias(strat: SenderStrategy, inst: Instance, t=None) -> float:
    """Mass-weighted norm of the per-signal bias rates |b| / mass.

    This is the quantity the bounded-bias budget constrains; it upper-bounds
    the calibration error of the induced predictor.
    """
    t = inst.norm if t is None else float(t)
    mass = strat.signal_mass(inst)
    pos = mass > ZERO_MASS_TOL
    if not np.any(pos):
        return 0.0
    rates = np.abs(strat.bias[pos]) / mass[pos]
    if t == INF:
        return float(rates.max())
    return float((mass[pos] @ rates**t) ** (1.0 / t))


def _variable_layout(inst):
    # [pi_i(a) row-major over (event, action)] + [b+_a] + [b-_a]
    nm = inst.n * inst.m
    return nm, nm + inst.m, nm + 2 * inst.m


def build_actrec_lp(inst: Instance) -> lp_core.LinearProgram:
    """Action-recommendation LP; linear only for t in {1, inf}.

    Variables: pi_i(a) >= 0 and the bias split b(a) = b+(a) - b-(a) with
    b+, b- >= 0.  Constraints: recommendation optimality for every ordered
    action pair, per-event row stochasticity, biased means inside [0, 1],
    and the bias budget in the requested norm.
    """
    t = inst.norm
    if t != 1.0 and t != INF:
        raise ValidationError("UNSUPPORTED_NORM",
                              f"exact solver needs t in {{1, inf}}, got {t}")
    n, m = inst.n, inst.m
    nm, bp_end, total = _variable_layout(inst)
    v = inst.agent_utility
    lam, theta = inst.lam, inst.theta

    def pi_idx(i, a):
        return i * m + a

    obj = np.zeros(total)
    for i in range(n):
        obj[pi_idx(i, 0):pi_idx(i, 0) + m] = lam[i] * inst.ubar[i]

    lp = lp_core.LinearProgram(total, obj, [])

    # T(a) = sum_i lam_i pi_i(a) theta_i + b(a);  M(a) = sum_i lam_i pi_i(a)
    def t_coeffs(a):
        row = np.zeros(total)
        for i in range(n):
            row[pi_idx(i, a)] = lam[i] * theta[i]
        row[nm + a] = 1.0
        row[bp_end + a] = -1.0
        return row

    def m_coeffs(a):
        row = np.zeros(total)
        for i in range(n):
            row[pi_idx(i, a)] = lam[i]
        return row

    for a in range(m):
        Ta, Ma = t_coeffs(a), m_coeffs(a)
        for a2 in range(m):
            if a2 == a:
                continue
            d1 = v[a, 1] - v[a2, 1]
            d0 = v[a, 0] - v[a2, 0]
            # utility gap at the biased mean, scaled by signal mass:
            # T(a) (d1 - d0) + M(a) d0 >= 0
            lp.add_constraint((d1 - d0) * Ta + d0 * Ma, ">=", 0.0)
        lp.add_constraint(Ta, ">=", 0.0)          # biased mean >= 0
        lp.add_constraint(Ma - Ta, ">=", 0.0)     # biased mean <= 1
        if t == INF:
            row = np.zeros(total)
            row[nm + a] = 1.0
            row[bp_end + a] = 1.0
            lp.add_constraint(row - inst.epsilon * Ma, "<=", 0.0)
    for i in range(n):
        row = np.zeros(total)
        row[pi_idx(i, 0):pi_idx(i, 0) + m] = 1.0
        lp.add_constraint(row, "==", 1.0)
    if t == 1.0:
        row = np.zeros(total)
        row[nm:] = 1.0
        lp.add_constraint(row, "<=", inst.epsilon)
    return lp


def _strategy_from_solution(inst, x):
    nm, bp_end, _ = _variable_layout(inst)
    pi = x[:nm].reshape(inst.n, inst.m).clip(min=0.0)
    # Renormalize away solver round-off so rows sum to exactly 1.
    pi /= pi.sum(axis=1, keepdims=True)
    bias = x[nm:bp_end] - x[bp_end:]
    mass = inst.lam @ pi
    bias[mass <= ZERO_MASS_TOL] = 0.0
    return SenderStrategy(pi, bias)


def solve_exact(inst: Instance, tie_break="agent"):
    """Optimal (strategy, predictor, objective) for t in {1, inf}.

    The optimal face is often degenerate (several schemes reach the same
    designer payoff); with ``tie_break="agent"`` a second solve maximizes the
    agent's expected utility over that face, which keeps the selection
    deterministic and avoids gratuitously harmful recommendations.  Pass
    ``tie_break=None`` for the raw first-stage vertex.  The second solve
    starts from the first stage's optimal basis (see
    :func:`_refine_for_agent`), so it needs only the pivots that move along
    the optimal face.

    A feasible point always exists (full pooling at an in-range biased mean),
    so infeasibility indicates a malformed instance and raises.
    """
    lp = build_actrec_lp(inst)
    sol = lp_core.solve(lp)
    if not sol.is_optimal:
        raise SolverError(
            "NO_SOLUTION",
            f"recommendation program came back {sol.status}; the instance "
            f"admits a feasible pooled scheme, so data is likely malformed")
    best = float(sol.objective_value)
    x = sol.x
    if tie_break == "agent":
        x = _refine_for_agent(inst, lp, best, fallback=x, basis=sol.basis)
    elif tie_break is not None:
        raise ValidationError("BAD_FORMAT", f"unknown tie_break {tie_break!r}")
    strat = _strategy_from_solution(inst, x)
    predictor = strategy_to_predictor(strat, inst)
    return strat, predictor, best


def _refine_for_agent(inst, lp, best, fallback, basis):
    """Re-solve over the (slightly slackened) optimal face for agent welfare.

    The refine program is ``lp`` plus the payoff floor ``objective @ x >=
    best - slack``.  The first-stage vertex is feasible for it, so when the
    first stage's optimal ``basis`` is not None, each solve warm-starts from
    that basis plus the floor row's surplus (whose value there is the slack
    itself) and skips phase 1; without a basis it solves from scratch.
    """
    nm = inst.n * inst.m
    agent_obj = np.zeros(lp.num_vars)
    agent_obj[:nm] = (inst.lam[:, None] * inst.vbar_events).ravel()
    start = None if basis is None else np.append(
        basis, lp.num_vars + len(lp.constraints))
    for slack_scale in (1e-7, 1e-5):
        slack = slack_scale * (1.0 + abs(best))
        refined = lp_core.LinearProgram(
            lp.num_vars, agent_obj,
            lp.constraints + [(lp.objective, ">=", best - slack)])
        try:
            sol2 = lp_core.solve(refined, basis=start)
        except SolverError as err:
            log.debug("agent tie-break refine failed at slack %.3g: %s",
                      slack, err)
            continue
        if sol2.is_optimal:
            return sol2.x
        log.debug("agent tie-break refine came back %s at slack %.3g",
                  sol2.status, slack)
    log.debug("agent tie-break fell back to the first-stage vertex")
    return fallback


def strategy_to_predictor(strat: SenderStrategy, inst: Instance) -> Predictor:
    """Predict each signal's biased mean whenever that signal would be sent.

    Zero-mass signals are dropped; signals sharing a biased mean merge into
    one support point.  Payoff is preserved when every support point carries
    one recommendation.  It is not when two signals recommend different
    actions at the same biased mean (an indifference point of the agent):
    after the merge the agent takes one action for the whole merged mass, and
    the predictor's payoff can fall short of the LP objective.  exact-ladder
    instance 16 is the known case (``perfbench/workloads.py``,
    ``KNOWN_WRONG``).
    """
    mass = strat.signal_mass(inst)
    keep = np.flatnonzero(mass > ZERO_MASS_TOL)
    if keep.size == 0:
        raise ValidationError("BAD_STRATEGY", "strategy sends no signal")
    means = strat.biased_means(inst)[keep]
    if np.any(means < -1e-7) or np.any(means > 1 + 1e-7):
        raise ValidationError("BAD_STRATEGY", "biased mean outside [0, 1]")
    means = np.clip(means, 0.0, 1.0)
    pi = strat.pi[:, keep]
    # Events that never reach a kept signal (possible only with zero prior)
    # fall back to an honest point prediction at their own mean.
    rows = pi.sum(axis=1)
    dead = rows < 1e-9
    if np.any(dead):
        support = np.concatenate([means, inst.theta[dead]])
        extra = np.zeros((inst.n, int(dead.sum())))
        extra[np.flatnonzero(dead), np.arange(int(dead.sum()))] = 1.0
        massmat = np.hstack([pi, extra])
    else:
        support = means
        massmat = pi / rows[:, None]
    return Predictor(support, massmat)


def predictor_to_strategy(pred: Predictor, inst: Instance) -> SenderStrategy:
    """Collapse a predictor into the direct scheme it induces.

    Each prediction is routed to the action the agent takes there; the
    action's bias collects the signed calibration gap of its predictions.
    The result is direct, recommendation-optimal, and its aggregated bias is
    at most the predictor's calibration error in the same norm.
    """
    weights = inst.lam[:, None] * pred.mass
    acts = action_profile(inst, pred.support, weight_matrix=weights)
    pi = np.zeros((inst.n, inst.m))
    bias = np.zeros(inst.m)
    gaps = weights * (pred.support[None, :] - inst.theta[:, None])
    for k, a in enumerate(acts):
        pi[:, a] += pred.mass[:, k]
        bias[a] += gaps[:, k].sum()
    return SenderStrategy(pi, bias)


def contract_signals(strat: SenderStrategy, inst: Instance) -> SenderStrategy:
    """Merge signals that induce the same action (revelation step).

    Signal probabilities and biases add; the per-event action distribution
    is unchanged and the aggregated bias can only shrink.
    """
    labels = np.unique(strat.signal_actions)
    pi = np.zeros((strat.pi.shape[0], labels.size))
    bias = np.zeros(labels.size)
    for k, a in enumerate(labels):
        cols = strat.signal_actions == a
        pi[:, k] = strat.pi[:, cols].sum(axis=1)
        bias[k] = strat.bias[cols].sum()
    return SenderStrategy(pi, bias, labels)


def recommendation_ok(strat: SenderStrategy, inst: Instance, tol=1e-7) -> bool:
    """True if every positive-mass signal's biased mean makes its own action
    an agent best response."""
    mass = strat.signal_mass(inst)
    means = strat.biased_means(inst)
    for k in range(strat.n_signals):
        if mass[k] <= ZERO_MASS_TOL:
            continue
        p = min(max(float(means[k]), 0.0), 1.0)
        scores = inst.agent_scores(p)
        a = strat.signal_actions[k]
        scale = max(1.0, float(np.abs(inst.agent_utility).max()))
        if scores[a] < scores.max() - tol * scale:
            return False
    return True
