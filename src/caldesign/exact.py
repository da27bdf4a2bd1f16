"""Exact optimal predictors for the 1-norm and max-norm error budgets.

The route is an action-recommendation linear program over a direct signaling
scheme ``pi`` (one recommendation distribution per event) plus a per-action
belief bias ``b``: the agent is recommended an action, forms the biased
posterior mean p(a) = (sum_i lam_i pi_i(a) theta_i + b(a)) / mass(a), and
must find the recommendation optimal.  The bias budget is the calibration
budget: for t=1 the total |b| is capped by epsilon, for t=inf each action's
|b(a)| is capped by epsilon times its signal mass (so every biased mean sits
within epsilon of its Bayes mean).  An optimal scheme converts into an
optimal predictor by predicting p(a) whenever action a would be recommended.

Every predictor is a post-processed calibrated one, so the truthful scheme
(no bias, each event recommends its own best response) is always feasible;
the solve starts its simplex there (a crash basis), as ``lp_core`` requires
a feasible start.  Each ``lp_core`` solve returns an optimal vertex or
raises; the program is bounded (``pi`` rows are stochastic and the bias is
capped by the budget).  The agent tie-break re-solves once over the optimal
face and keeps the first-stage vertex if that solve raises.  The program's
value is a supremum: two signals may recommend different actions at one
biased mean, an indifference point of the agent, and a predictor cannot tell
them apart there.  When an optimal scheme does that, the budget is lowered
by ``model.SEPARATION``, the program re-solved, and each of the two signals
moves ``SEPARATION`` away from the shared mean through its bias, so that
each action is the agent's strict choice at its own prediction.  Every
solve ends with ``model.certify``, independent of the solver: the returned
predictor's calibration error is within the budget and its payoff is the
returned objective, or ``SolverError('UNCERTIFIED')`` is raised.

:func:`solve_exact` solves one budget and :func:`walk_budgets` a list of
them on one program, each t=1 budget from the last one's optimal basis;
both run one step per budget, :func:`_solve_budget`.
"""

from __future__ import annotations

import logging

import numpy as np

from . import lp_core
from .errors import CaldesignError, SolverError, ValidationError
from .model import (
    INF,
    SEPARATION,
    SUPPORT_MERGE_TOL,
    ZERO_MASS_TOL,
    Instance,
    Predictor,
    action_profile,
    certify,
    freeze,
    read_numbers,
    runs,
    tied_action_sets,
)

# A merge of signals loses payoff when it costs more than this, relative.
MERGE_TOL = 1e-9

log = logging.getLogger("caldesign")


class SenderStrategy:
    """Signaling scheme plus per-signal belief bias.

    ``pi`` is (n_events, n_signals) with rows summing to 1 and ``bias`` has
    one entry per signal, both read-only.  The scheme is direct: signal
    ``k`` recommends action ``k``.
    """

    def __init__(self, pi, bias):
        pi = np.atleast_2d(read_numbers(pi, "BAD_STRATEGY", "pi"))
        bias = read_numbers(bias, "BAD_STRATEGY", "bias").ravel()
        if pi.shape[1] != bias.size:
            raise ValidationError("BAD_STRATEGY", "pi columns must match bias")
        if np.any(pi < -1e-12):
            raise ValidationError("BAD_STRATEGY", "negative signal probability")
        rows = pi.sum(axis=1)
        if np.any(np.abs(rows - 1.0) > 1e-9):
            raise ValidationError("BAD_STRATEGY",
                                  f"per-event signal mass sums {rows} are not 1")
        self.pi, self.bias = freeze(np.clip(pi, 0.0, None), bias)

    @classmethod
    def _built(cls, pi, bias):
        """A scheme that meets every check of the constructor, frozen."""
        strat = cls.__new__(cls)
        strat.pi, strat.bias = freeze(pi, bias)
        return strat

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


def check_norm(inst: Instance):
    """Raise UNSUPPORTED_NORM unless ``inst``'s norm is 1 or inf."""
    t = inst.norm
    if t != 1.0 and t != INF:
        raise ValidationError("UNSUPPORTED_NORM",
                              f"exact solver needs t in {{1, inf}}, got {t}")


def build_actrec_lp(inst: Instance) -> lp_core.LinearProgram:
    """Action-recommendation LP; linear only for t in {1, inf}.

    Variables: pi_i(a) >= 0 row-major over (event, action), then the bias
    split b(a) = b+(a) - b-(a) with b+, b- >= 0.  Rows: one block per action
    a (recommendation optimality against every other action, the biased
    mean inside [0, 1], and for t=inf a's bias budget), then per-event row
    stochasticity, then for t=1 the total bias budget.
    """
    check_norm(inst)
    t = inst.norm
    n, m = inst.n, inst.m
    nm = n * m
    total = nm + 2 * m
    per_block = m + 1 + (t == INF)
    v = inst.agent_utility
    obj = np.zeros(total)
    obj[:nm] = (inst.lam[:, None] * inst.ubar).ravel()

    # row a of T: T(a) = sum_i lam_i pi_i(a) theta_i + b(a);
    # row a of M: M(a) = sum_i lam_i pi_i(a)
    pi_cols = np.arange(nm).reshape(n, m).T
    acts = np.arange(m)[:, None]
    T, M = np.zeros((2, m, total))
    T[acts, pi_cols] = inst.lam * inst.theta
    T[acts, nm + acts] = 1.0
    T[acts, nm + m + acts] = -1.0
    M[acts, pi_cols] = inst.lam
    # utility gap of a over a2 at the biased mean, scaled by signal mass:
    # T(a) (d1 - d0) + M(a) d0 >= 0, for each a2 != a
    off = ~np.eye(m, dtype=bool)
    d1 = (v[:, 1][:, None] - v[:, 1])[off].reshape(m, m - 1, 1)
    d0 = (v[:, 0][:, None] - v[:, 0])[off].reshape(m, m - 1, 1)

    top = m * per_block
    A = np.zeros((top + n + (t == 1.0), total))
    b = np.zeros(A.shape[0])
    rel = ([">="] * (m + 1) + ["<="] * (t == INF)) * m + ["=="] * n
    block = A[:top].reshape(m, per_block, total)
    block[:, :m - 1] = (d1 - d0) * T[:, None] + d0 * M[:, None]
    block[:, m - 1] = T          # biased mean >= 0
    block[:, m] = M - T          # biased mean <= 1
    if t == INF:
        block[:, m + 1] = _budget_rows(inst, inst.epsilon)
    A[top:top + n, :nm] = np.repeat(np.eye(n), m, axis=1)
    b[top:top + n] = 1.0         # sum_a pi_i(a) == 1
    if t == 1.0:
        A[-1, nm:] = 1.0         # sum_a b+(a) + b-(a) <= epsilon
        b[-1] = inst.epsilon
        rel.append("<=")
    return lp_core.LinearProgram(obj, A, rel, b)


def _budget_rows(inst, budget):
    """The t=inf budget rows, one per action: ``b+(a) + b-(a) - budget *
    M(a) <= 0``."""
    nm, m = inst.n * inst.m, inst.m
    acts = np.arange(m)[:, None]
    rows = np.zeros((m, nm + 2 * m))
    rows[acts, np.arange(nm).reshape(inst.n, m).T] -= budget * inst.lam
    rows[acts, nm + acts] = rows[acts, nm + m + acts] = 1.0
    return rows


def _set_budget(lp, inst, budget):
    """Write the bias budget ``budget`` into ``lp``, a program of
    :func:`build_actrec_lp`, in place.  Its ``<=`` rows are the ones that
    carry the budget: for t=1 the one total-bias row's rhs, for t=inf each
    action's budget row (:func:`_budget_rows`)."""
    budget_rows = lp.rel == "<="
    if inst.norm == 1.0:
        lp.b[budget_rows] = budget
    else:
        lp.A[budget_rows] = _budget_rows(inst, budget)


def _strategy_from_solution(inst, x):
    nm, m = inst.n * inst.m, inst.m
    pi = x[:nm].reshape(inst.n, inst.m).clip(min=0.0)
    # Renormalize away solver round-off so rows sum to exactly 1.
    pi /= pi.sum(axis=1, keepdims=True)
    bias = x[nm:nm + m] - x[nm + m:]
    mass = inst.lam @ pi
    bias[mass <= ZERO_MASS_TOL] = 0.0
    return SenderStrategy._built(pi, bias)


def solve_exact(inst: Instance, tie_break="agent"):
    """Optimal (strategy, predictor, objective) for t in {1, inf}: one
    :func:`_solve_budget` at ``inst.epsilon`` on :func:`_program`.

    The first stage starts its simplex at the truthful scheme
    (:func:`_truthful_basis`), a feasible vertex of every instance.  The
    optimal face is often degenerate (several schemes reach the same
    designer payoff); with ``tie_break="agent"`` one second solve maximizes
    the agent's expected utility over that face, which keeps the selection
    deterministic and avoids gratuitously harmful recommendations.  Pass
    ``tie_break=None`` for the raw first-stage vertex.  The second solve
    starts from the first stage's optimal basis (see
    :func:`_refine_for_agent`), so it needs only the pivots that move along
    the optimal face; if it raises, the first-stage vertex stands.

    If two signals of the optimal scheme meet at one biased mean and the
    predictor would lose payoff by merging them (:func:`_lossy_merges`), the
    budget of the same program is lowered by ``SEPARATION``, both stages run
    again, and the signals are pulled apart (:func:`_separate`); the
    objective returned is then the lowered program's, which the predictor
    earns.  Three or more actions tied at such a mean, or a budget below
    ``SEPARATION``, raise ``SolverError('UNCERTIFIED')``, as does a
    predictor that fails the final certificate (:func:`certify`).
    """
    return _solve_budget(inst, _program(inst, tie_break), tie_break,
                         None)[0][:3]


def walk_budgets(inst: Instance, budgets, tie_break="agent"):
    """:func:`solve_exact` at each budget of ``budgets``, in the order
    given, on one program: yields ``(strategy, predictor, objective,
    evaluation)``, with the :class:`model.Evaluation` that certified the
    predictor, or the ``CaldesignError`` that budget's solve raised.  A bad
    ``tie_break`` or norm raises before any budget.

    Each budget is written into the program (:func:`_set_budget`, which
    leaves the program a rebuild would give).  For t=1 the budget is only a
    right-hand side, so one optimal basis holds over an interval of
    budgets: each first stage starts from the previous budget's optimal
    basis (a walk), and a caller that passes the budgets sorted keeps the
    walk short.  It starts from the truthful scheme instead after a budget
    that failed, and falls back to it when ``lp_core`` rejects the walk's
    start or had to clamp it (an ill-conditioned basis reads ``B⁻¹b``
    slightly negative at the new budget, and the clamp moves the objective
    in its ninth digit).  For t=inf the budget is in the matrix, and every
    budget starts from the truthful scheme.
    """
    lp = _program(inst, tie_break)
    walk = None   # the last first stage's optimal basis, t=1 only
    for budget in budgets:
        try:
            result, basis = _solve_budget(inst.with_epsilon(budget), lp,
                                          tie_break, walk)
        except CaldesignError as err:
            result, basis = err, None
        yield result
        if inst.norm == 1.0:
            walk = basis


def _program(inst, tie_break):
    """:func:`build_actrec_lp` of ``inst``, built once per solve or walk; a
    bad ``tie_break`` or norm raises here."""
    if tie_break not in ("agent", None):
        raise ValidationError("BAD_FORMAT", f"unknown tie_break {tie_break!r}")
    return build_actrec_lp(inst)


def _solve_budget(inst, lp, tie_break, walk):
    """One budget, ``inst.epsilon``, on ``lp`` (:func:`_program`), the
    first stage from ``walk``; returns its ``(strategy, predictor,
    objective, evaluation)`` and the first stage's optimal basis."""
    _set_budget(lp, inst, inst.epsilon)
    best, strat, basis = _solve_stages(inst, lp, tie_break, walk)
    merged = _lossy_merges(inst, strat)
    if merged:
        if inst.epsilon < SEPARATION:
            raise SolverError(
                "UNCERTIFIED",
                f"signals meet at biased mean {merged[0][0]:.9g} and a "
                f"budget of {inst.epsilon:.3g} leaves no room to separate "
                f"them")
        _set_budget(lp, inst, inst.epsilon - SEPARATION)
        best, strat, _ = _solve_stages(inst, lp, tie_break, None)
        strat = _separate(inst, strat, _lossy_merges(inst, strat))
    predictor = strategy_to_predictor(strat, inst)
    return (strat, predictor, best, certify(predictor, inst, best)), basis


def _solve_stages(inst, lp, tie_break, walk):
    """First stage, from ``walk`` (see :func:`_first_stage`), then the
    agent refine; returns the first stage's objective, the final vertex's
    strategy and the first stage's optimal basis."""
    sol = _first_stage(inst, lp, walk)
    best = float(sol.objective_value)
    x = sol.x
    if tie_break == "agent":
        x = _refine_for_agent(inst, lp, best, fallback=x, basis=sol.basis)
    return best, _strategy_from_solution(inst, x), sol.basis


def _first_stage(inst, lp, walk):
    """Solve ``lp`` from the basis ``walk`` if it is not None and
    ``lp_core`` neither rejects nor clamps it, else from the truthful crash
    basis (:func:`_truthful_basis`)."""
    if walk is not None:
        try:
            sol = lp_core.solve(lp, basis=walk)
        except SolverError as err:
            log.debug("budget walk restarts at the truthful scheme: %s", err)
        else:
            if not sol.start_clamp:
                return sol
            log.debug("budget walk restarts at the truthful scheme: its "
                      "start was clamped by %.3g", sol.start_clamp)
    return lp_core.solve(lp, basis=_truthful_basis(inst, lp))


def _truthful_basis(inst, lp):
    """Crash basis at the truthful scheme: ``pi_i(a_i)`` for each event's own
    best response ``a_i`` at ``theta_i``, plus the slack or surplus of every
    inequality row.

    Only the ``pi_i(a_i)`` columns meet the ``n`` stochastic rows, one each,
    so the basis matrix is block-triangular with identity blocks and
    nonsingular.  Its solution sets ``pi_i(a_i) = 1`` and every logical to
    its row's surplus there, which is nonnegative: events sharing a best
    response pool to a mean inside that action's best-response interval,
    with no bias.
    """
    own = np.argmax(inst.vbar_events, axis=1)
    logical = lp.num_vars + np.flatnonzero(lp.rel != "==")
    return np.concatenate([np.arange(inst.n) * inst.m + own, logical])


def _lossy_merges(inst, strat):
    """``(p, signals)`` for each biased mean ``p`` that two or more live
    signals share (in the sense of :class:`Predictor`'s support merge) and
    where the merge loses payoff: a predictor cannot tell them apart, so the
    agent takes one action at ``p`` for all of their mass (the designer-best
    of the actions tied there), which earns less than each signal's own."""
    means = strat.biased_means(inst)   # NaN at the signals without mass
    live = np.flatnonzero(~np.isnan(means))
    means = np.clip(means[live], 0.0, 1.0)
    order = np.argsort(means, kind="stable")
    live, means = live[order], means[order]
    lossy = []
    bounds = [*runs(means, SUPPORT_MERGE_TOL).tolist(), live.size]
    for lo, hi in zip(bounds, bounds[1:]):
        if hi - lo < 2:
            continue
        signals = live[lo:hi]
        w = inst.lam[:, None] * strat.pi[:, signals]
        own = float(np.sum(w * inst.ubar[:, signals]))
        pooled = w.sum(axis=1)
        act = action_profile(inst, means[lo:lo + 1], pooled[:, None])[0]
        if pooled @ inst.ubar[:, act] < own - MERGE_TOL * (1.0 + abs(own)):
            lossy.append((float(means[lo]), signals))
    return lossy


def _separate(inst, strat, merged):
    """``strat`` with each pair of signals that meets at ``p`` moved apart
    through their biases: the steeper action's signal (larger ``v(a,1) -
    v(a,0)``) to ``p + SEPARATION`` and the other to ``p - SEPARATION``
    (clipped to [0, 1]), where each action is the agent's strict choice.
    The extra bias is ``SEPARATION`` times the signals' mass, which the
    lowered budget left free."""
    mass = strat.signal_mass(inst)
    bias = strat.bias.copy()
    for p, signals in merged:
        tied = int(tied_action_sets(inst, [p])[0].sum())
        if max(tied, signals.size) > 2:
            raise SolverError(
                "UNCERTIFIED",
                f"{max(tied, signals.size)} actions meet at biased mean "
                f"{p:.9g}; two can be pulled apart, more cannot")
        up, down = signals
        if inst.agent_slope[up] < inst.agent_slope[down]:
            up, down = down, up
        bias[up] += min(SEPARATION, 1.0 - p) * mass[up]
        bias[down] -= min(SEPARATION, p) * mass[down]
    return SenderStrategy._built(strat.pi, bias)


def _refine_for_agent(inst, lp, best, fallback, basis):
    """Re-solve over the (slightly slackened) optimal face for agent welfare.

    The refine program is ``lp`` plus the payoff floor ``objective @ x >=
    best - 1e-7 * (1 + |best|)``.  The first-stage vertex is feasible for
    it, so the one solve starts from the first stage's optimal ``basis``
    plus the floor row's surplus, whose value there is the slack itself.
    If that solve raises (on an ill-conditioned basis ``B⁻¹b`` can read
    slightly negative, and the start is rejected), the error is logged and
    ``fallback``, the first-stage vertex, comes back.
    """
    nm = inst.n * inst.m
    agent_obj = np.zeros(lp.num_vars)
    agent_obj[:nm] = (inst.lam[:, None] * inst.vbar_events).ravel()
    slack = 1e-7 * (1.0 + abs(best))
    refined = lp_core.LinearProgram(
        agent_obj, np.vstack([lp.A, lp.objective]), np.append(lp.rel, ">="),
        np.append(lp.b, best - slack))
    start = np.append(basis, lp.num_vars + lp.b.size)
    try:
        return lp_core.solve(refined, basis=start).x
    except SolverError as err:
        log.debug("agent tie-break refine failed at slack %.3g: %s; the "
                  "first-stage vertex stands", slack, err)
        return fallback


def strategy_to_predictor(strat: SenderStrategy, inst: Instance) -> Predictor:
    """Predict each signal's biased mean whenever that signal would be sent.

    Zero-mass signals are dropped; signals sharing a biased mean merge into
    one support point; an event that sends no live signal takes the live
    prediction nearest its mean (``Predictor._from_rows``).  Payoff is
    preserved when every support point carries one recommendation.  It is
    not when two signals recommend different actions at the same biased
    mean (an indifference point of the agent): after the merge the agent
    takes one action for the whole merged mass, and the predictor's payoff
    can fall short of the LP objective.  :func:`solve_exact` pulls such
    signals apart before converting.
    """
    means = strat.biased_means(inst)   # NaN at the signals without mass
    keep = np.flatnonzero(~np.isnan(means))
    means = means[keep]
    if np.any(means < -1e-7) or np.any(means > 1 + 1e-7):
        raise ValidationError("BAD_STRATEGY", "biased mean outside [0, 1]")
    return Predictor._from_rows(np.clip(means, 0.0, 1.0), strat.pi[:, keep],
                                inst.theta)
