"""The paper's revelation steps on sender strategies, used by the tests.

A predictor collapses into the direct recommendation scheme it induces
(:func:`predictor_to_strategy`); signals that induce one action contract
into one (:func:`contract_signals`) without raising the aggregated bias
(:func:`aggregated_bias`); and a scheme is recommendation-optimal when each
signal's biased mean makes its own action a best response
(:func:`recommendation_ok`).  ``caldesign.exact`` solves over direct schemes
and never needs these maps, so they live with the tests that check them, as
do the multi-signal schemes the contraction takes
(:class:`LabelledStrategy`).
"""

from __future__ import annotations

import numpy as np

from caldesign.errors import ValidationError
from caldesign.exact import SenderStrategy
from caldesign.model import (
    INF,
    ZERO_MASS_TOL,
    Instance,
    Predictor,
    action_profile,
)


class LabelledStrategy(SenderStrategy):
    """A scheme whose signal ``k`` recommends action ``signal_actions[k]``;
    several signals may recommend one action.  A :class:`SenderStrategy`
    is direct: its signal ``k`` recommends action ``k``."""

    def __init__(self, pi, bias, signal_actions):
        super().__init__(pi, bias)
        self.signal_actions = np.asarray(signal_actions, dtype=int).ravel()
        if self.signal_actions.size != self.bias.size:
            raise ValidationError("BAD_STRATEGY", "one action label per signal")


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


def contract_signals(strat: LabelledStrategy,
                     inst: Instance) -> LabelledStrategy:
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
    return LabelledStrategy(pi, bias, labels)


def recommendation_ok(strat: SenderStrategy, inst: Instance, tol=1e-7) -> bool:
    """True if every positive-mass signal ``k`` of the direct scheme
    ``strat`` has a biased mean at which action ``k`` is an agent best
    response."""
    mass = strat.signal_mass(inst)
    means = strat.biased_means(inst)
    for k in range(strat.bias.size):
        if mass[k] <= ZERO_MASS_TOL:
            continue
        p = min(max(float(means[k]), 0.0), 1.0)
        scores = inst.agent_scores(p)
        scale = max(1.0, float(np.abs(inst.agent_utility).max()))
        if scores[k] < scores.max() - tol * scale:
            return False
    return True
