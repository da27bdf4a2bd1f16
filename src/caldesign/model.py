"""Problem instances, predictors, and the primitive evaluations on them.

An instance bundles the latent events (outcome means ``theta`` and prior
``lam``), the decision maker's action set with its utility table, the
designer's per-event utility table, the error budget ``epsilon`` and the
norm exponent ``t`` used by the calibration metric.

A predictor assigns each event a discrete distribution over prediction
values in [0, 1].  All evaluations here are pure functions: the decision
maker's best response, the designer's indirect utility, the posterior
outcome mean ``kappa`` conditional on a prediction, the expected
calibration error, and both players' expected payoffs.  Both solvers end
with :func:`certify` and give up ``SEPARATION`` at the agent's ties, and
every number taken from outside goes through :func:`read_numbers`.
"""

from __future__ import annotations

import copy
import math
import reprlib
from typing import NamedTuple

import numpy as np

from .errors import SolverError, ValidationError

INF = math.inf

# Stand-in for unbounded utilities; keeps all LP data finite while preserving
# induced best responses (crossings move by O(|v|/UTILITY_CAP)).
UTILITY_CAP = 1e9

# Sorted values within this of the one before are one point (see runs):
# a support's predictions, and the fptas grid points and means too.
SUPPORT_MERGE_TOL = 1e-12

# A plan may supply an event's prior mass up to this much off.
SUPPLY_TOL = 1e-7

# Indifference window for the agent, relative to the size of the utility
# terms summed in a score (see tied_action_sets).
TIE_TOL = 1e-9

# Both solvers move a prediction or a signal this far to either side of an
# indifference point of the agent, where each action is its strict choice.
SEPARATION = 1e-6

# The certificate (:func:`certify`) allows the calibration error CERT_ECE_TOL
# above the budget and the payoff CERT_PAYOFF_TOL * (1 + |objective|) off the
# objective: the exact agent tie-break's payoff slack (1e-7) and round-off.
CERT_ECE_TOL = 1e-7
CERT_PAYOFF_TOL = 2e-7


def runs(values, tol):
    """Start index of each run of the sorted ``values`` in which every value
    lies within ``tol`` of the one before it."""
    starts = np.empty(len(values), dtype=bool)
    starts[:1] = True
    starts[1:] = values[1:] - values[:-1] > tol
    return np.flatnonzero(starts)


def freeze(*arrays):
    """``arrays``, which a value object owns, set read-only."""
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


def read_numbers(value, code, what, scalar=False):
    """``value``, a number or nested lists or an array of numbers, as a new
    float array (a float if ``scalar``), or ``ValidationError(code)``.  Every
    number the package takes from outside is read here: a number or a
    string that spells one (``"0.1"``, ``"-inf"``), never a boolean,
    ``None`` or NaN; an integer too large for a float reads as ``inf`` or
    ``-inf``, as its float literal does.  Float and int arrays are converted
    whole, other values entry by entry.  A bad value is echoed shortened
    (``reprlib.repr``).
    """
    if isinstance(value, np.ndarray) and value.dtype.kind in "fiu":
        arr = np.array(value, dtype=float)
        if np.isnan(arr).any():
            raise ValidationError(code, f"{what} contains NaN")
    else:
        try:
            items = np.array(value, dtype=object)
        except ValueError:   # a list of arrays of unequal shapes
            raise ValidationError(code, f"{what} is ragged") from None
        flat = []
        for x in items.flat:
            number = math.nan
            if not isinstance(x, (bool, np.bool_)):
                try:
                    number = float(x)
                except OverflowError:   # an integer beyond the float range
                    number = math.inf if x > 0 else -math.inf
                except (TypeError, ValueError):
                    pass
            if number != number:   # NaN, or not a number
                raise ValidationError(
                    code, f"{what}: {reprlib.repr(x)} is not a number")
            flat.append(number)
        arr = np.array(flat).reshape(items.shape)
    if scalar and arr.ndim:
        raise ValidationError(
            code, f"{what}: {reprlib.repr(value)} is not a number")
    return float(arr) if scalar else arr


def _budget(epsilon):
    """The checked budget of an instance, as a float; a budget of ``-0`` is
    stored as ``0``."""
    epsilon = read_numbers(epsilon, "BAD_BUDGET", "epsilon", scalar=True) + 0.0
    if not 0 <= epsilon < math.inf:
        raise ValidationError("BAD_BUDGET", "epsilon must be finite and >= 0")
    return epsilon


class Instance:
    """A validated, normalized problem instance.

    Events keep the caller's order, whatever the order of their means: row
    ``i`` of ``theta``, ``lam``, ``principal_utility``, ``ubar`` and
    ``vbar_events``, and of every per-event output of the solvers, is the
    caller's event ``i``.  Immutable after construction (arrays are set
    read-only).
    """

    def __init__(self, theta, lam, actions, agent_utility, principal_utility,
                 epsilon=0.0, norm=1.0):
        theta = read_numbers(theta, "BAD_MEAN", "theta")
        lam = read_numbers(lam, "BAD_PRIOR", "lambda")
        v = read_numbers(agent_utility, "BAD_UTILITY", "agent_utility")
        u = read_numbers(principal_utility, "BAD_UTILITY", "principal_utility")

        if theta.ndim != 1 or theta.size == 0:
            raise ValidationError("BAD_MEAN", "theta must be a non-empty vector")
        n = theta.size
        if np.any(theta < -1e-15) or np.any(theta > 1 + 1e-15):
            raise ValidationError("BAD_MEAN", "outcome means must lie in [0, 1]")
        theta = np.clip(theta, 0.0, 1.0)

        if lam.shape != (n,):
            raise ValidationError("BAD_PRIOR", f"lambda must have length {n}")
        if np.any(lam < -1e-15):
            raise ValidationError("BAD_PRIOR", "prior probabilities must be >= 0")
        if abs(lam.sum() - 1.0) > 1e-12:
            raise ValidationError("BAD_PRIOR", f"prior sums to {lam.sum()!r}, not 1")
        lam = np.clip(lam, 0.0, None)

        actions = [str(a) for a in actions]
        m = len(actions)
        if m == 0:
            raise ValidationError("BAD_UTILITY", "need at least one action")
        if len(set(actions)) != m:
            raise ValidationError("BAD_UTILITY", "duplicate action names")
        if v.shape != (m, 2):
            raise ValidationError("BAD_UTILITY", f"agent_utility must be {m}x2")
        if u.shape != (n, m, 2):
            raise ValidationError("BAD_UTILITY", f"principal_utility must be {n}x{m}x2")
        if np.any(u < 0):
            raise ValidationError("NEGATIVE_UTILITY", "principal utility must be >= 0")
        # Saturating ingestion of oversized / infinite entries.
        v = np.clip(v, -UTILITY_CAP, UTILITY_CAP)
        u = np.clip(u, 0.0, UTILITY_CAP)

        epsilon = _budget(epsilon)
        norm = read_numbers(norm, "BAD_NORM", "the norm exponent", scalar=True)
        if not (norm >= 1):
            raise ValidationError("BAD_NORM", "norm exponent must be >= 1 or inf")

        self.theta = theta
        self.lam = lam
        self.actions = actions
        self.agent_utility = v
        self.principal_utility = u
        self.epsilon = epsilon
        self.norm = norm
        self.n = n
        self.m = m
        # Designer's expected utility per (event, action) under the true mean.
        self.ubar = ((1.0 - self.theta)[:, None] * self.principal_utility[:, :, 0]
                     + self.theta[:, None] * self.principal_utility[:, :, 1])
        # Agent's expected utility per (event, action) under the true mean.
        self.vbar_events = (np.outer(1.0 - self.theta, v[:, 0])
                            + np.outer(self.theta, v[:, 1]))
        # Sizes and slopes of the agent's scores (see tied_action_sets).
        self.agent_size = np.abs(v)
        self.agent_slope = v[:, 1] - v[:, 0]
        self.theta_bar = float(self.lam @ self.theta)
        freeze(self.theta, self.lam, self.agent_utility,
               self.principal_utility, self.ubar, self.vbar_events,
               self.agent_size, self.agent_slope)

    def with_epsilon(self, epsilon):
        """Copy of the instance with a different budget.  Only the new budget
        is checked; the read-only arrays are shared with this instance."""
        out = copy.copy(self)
        out.epsilon = _budget(epsilon)
        return out

    def _in_order(self, order):
        """Copy of the instance with its events in the order ``order``: the
        per-event arrays permuted and read-only, nothing checked again."""
        out = copy.copy(self)
        for name in ("theta", "lam", "principal_utility", "ubar",
                     "vbar_events"):
            setattr(out, name, freeze(getattr(self, name)[order])[0])
        return out

    def agent_scores(self, ps):
        """Agent expected utility of each action when trusting prediction(s) p.

        Returns shape (m,) for scalar p, else (len(ps), m).
        """
        ps = np.asarray(ps, dtype=float)
        v = self.agent_utility
        scores = ps[..., None] * v[:, 1] + (1.0 - ps[..., None]) * v[:, 0]
        return scores

    def to_json_dict(self):
        """The description :func:`validate_instance` reads."""
        u = self.principal_utility
        return {
            "theta": self.theta.tolist(),
            "lambda": self.lam.tolist(),
            "actions": list(self.actions),
            "agent_utility": {a: self.agent_utility[k].tolist()
                              for k, a in enumerate(self.actions)},
            "principal_utility": [
                {a: u[i, k].tolist() for k, a in enumerate(self.actions)}
                for i in range(self.n)
            ],
            "epsilon": self.epsilon,
            "norm": "inf" if self.norm == INF else self.norm,
        }


def validate_instance(raw):
    """Build a normalized :class:`Instance` from a JSON-shaped description.

    The description holds ``theta``, ``lambda``, ``actions``,
    ``agent_utility`` (action name -> [v(a,0), v(a,1)]), ``principal_utility``
    (one such table per event), ``epsilon`` and ``norm``, every number read
    by :func:`read_numbers` (so ``"inf"`` is a norm and a utility).
    """
    if isinstance(raw, Instance):
        return raw
    if not isinstance(raw, dict):
        raise ValidationError("BAD_FORMAT", "instance description must be a mapping")
    try:
        actions = raw["actions"]
        theta = raw["theta"]
        lam = raw["lambda"]
        agent_raw = raw["agent_utility"]
        principal_raw = raw["principal_utility"]
    except KeyError as exc:
        raise ValidationError("BAD_FORMAT", f"missing field {exc}") from None
    for name, value, code, what in (
            ("actions", actions, "BAD_FORMAT", "action names"),
            ("theta", theta, "BAD_FORMAT", "means"),
            ("lambda", lam, "BAD_PRIOR", "probabilities")):
        if not isinstance(value, (list, tuple, np.ndarray)):
            raise ValidationError(code, f"{name} must be a list of {what}, "
                                        f"got {value!r}")
    actions = list(actions)

    def table(mapping, what):
        if not isinstance(mapping, dict):
            raise ValidationError("BAD_FORMAT", f"{what} must map action names")
        rows = []
        for a in actions:
            if str(a) not in mapping:
                raise ValidationError("BAD_FORMAT", f"{what} missing action {a!r}")
            pair = read_numbers(mapping[str(a)], "BAD_FORMAT", f"{what}[{a!r}]")
            if pair.shape != (2,):
                raise ValidationError("BAD_FORMAT", f"{what}[{a!r}] needs [y=0, y=1]")
            rows.append(pair)
        return np.array(rows)

    v = table(agent_raw, "agent_utility")
    if not isinstance(principal_raw, list) or len(principal_raw) != len(theta):
        raise ValidationError("BAD_FORMAT",
                              "principal_utility needs one table per event")
    u = np.array([table(entry, "principal_utility") for entry in principal_raw])
    return Instance(theta, lam, actions, v, u,
                    epsilon=raw.get("epsilon", 0.0), norm=raw.get("norm", 1))


class Predictor:
    """Per-event discrete distributions over prediction values in [0, 1].

    ``support`` is the sorted union of all per-event supports; ``mass`` has
    one row per event aligned to ``support``.  Values closer than
    ``SUPPORT_MERGE_TOL`` are merged on ingestion; both are read-only.
    """

    def __init__(self, support, mass):
        support = read_numbers(support, "BAD_SUPPORT", "support").ravel()
        mass = np.atleast_2d(read_numbers(mass, "BAD_MASS", "mass"))
        if mass.ndim != 2 or mass.shape[1] != support.size:
            raise ValidationError("BAD_MASS", "mass must be a matrix whose "
                                  "columns match support")
        if support.size == 0:
            raise ValidationError("BAD_SUPPORT", "empty support")
        if np.any(support < -1e-12) or np.any(support > 1 + 1e-12):
            raise ValidationError("BAD_SUPPORT", "predictions must lie in [0, 1]")
        support = np.clip(support, 0.0, 1.0)
        if np.any(mass < -1e-12):
            raise ValidationError("BAD_MASS", "negative probability mass")
        built = self._built(support, np.clip(mass, 0.0, None))
        rows = built.mass.sum(axis=1)
        if np.any(np.abs(rows - 1.0) > 1e-9):
            raise ValidationError("BAD_MASS",
                                  f"per-event mass sums {rows} are not 1")
        self.support, self.mass = built.support, built.mass

    @classmethod
    def _built(cls, support, mass):
        """A solver's predictor, past the checks: sorted, merged, frozen."""
        pred = cls.__new__(cls)
        order = np.argsort(support, kind="stable")
        support = support[order]
        starts = runs(support, SUPPORT_MERGE_TOL)
        pred.support, pred.mass = freeze(
            support[starts], np.add.reduceat(mass[:, order], starts, axis=1))
        return pred

    @classmethod
    def _from_rows(cls, support, rows, theta):
        """Both solvers' predictor of per-event mass ``rows`` on ``support``:
        a row with mass is divided by its sum, and an event whose row sums
        to at most 1e-9 (a zero or near-zero prior, so no ece or payoff
        moves) goes to the point nearest its mean ``theta``, first on a
        tie."""
        sums = rows.sum(axis=1, keepdims=True)
        mass = np.divide(rows, sums, out=np.zeros_like(rows),
                         where=sums > 1e-9)
        dead = np.flatnonzero(sums <= 1e-9)
        if dead.size:
            mass[dead, np.abs(support - theta[dead, None]).argmin(axis=1)] = 1.0
        return cls._built(support, mass)

    @property
    def n_events(self):
        return self.mass.shape[0]

    def marginal(self, lam):
        """Overall probability of each support point under event prior lam."""
        return np.asarray(lam, dtype=float) @ self.mass

    def to_json_dict(self):
        return {"support": self.support.tolist(),
                "mass": [row.tolist() for row in self.mass]}

    @classmethod
    def from_json_dict(cls, raw):
        if not isinstance(raw, dict) or "support" not in raw or "mass" not in raw:
            raise ValidationError("BAD_FORMAT",
                                  "predictor needs 'support' and 'mass'")
        return cls(raw["support"], raw["mass"])


def point_mass(value, n_events):
    """Predictor that reports ``value`` deterministically for every event."""
    return Predictor([value], np.ones((n_events, 1)))


class AgentResponse:
    """Best response at a prediction: the chosen action plus the full tie set."""

    __slots__ = ("prediction", "action", "tied_actions")

    def __init__(self, prediction, action, tied_actions):
        self.prediction = float(prediction)
        self.action = int(action)
        self.tied_actions = tuple(int(a) for a in tied_actions)

    def __repr__(self):
        return (f"AgentResponse(p={self.prediction!r}, action={self.action}, "
                f"tied={self.tied_actions})")


def envelope(inst):
    """The agent's best response as a step function of the prediction.

    Returns ``(zs, acts)``: the sorted breakpoints inside (1e-12, 1 - 1e-12),
    and ``acts[k]``, the action with the strictly largest score on piece
    ``k`` (from ``zs[k - 1]`` to ``zs[k]``; exact duplicates resolve to the
    lowest index), so ``len(acts) == len(zs) + 1``.  The walk climbs the
    upper envelope of the linear action scores in slope order: from the best
    action at p = 0, the next is the steeper action that overtakes it first
    (of those that overtake within ``SUPPORT_MERGE_TOL`` of the first
    crossing, the one scoring highest there, then the steepest, then the
    lowest index).  Each breakpoint is the pair's crossing
    ``-d0 / (d1 - d0)``, lower action index first.  A crossing at or
    below 1e-12 replaces the action at 0, and breakpoints within
    ``SUPPORT_MERGE_TOL`` of the one before merge into the first of their
    run, dropping the pieces between them.
    """
    v = inst.agent_utility.tolist()
    slope = [v1 - v0 for v0, v1 in v]
    act = max(range(inst.m), key=lambda a: (v[a][0], slope[a], -a))
    zs, acts, z = [], [act], 0.0
    while True:
        cross = {b: _crossing(v, act, b) for b in range(inst.m)
                 if slope[b] > slope[act]}
        cross = {b: c for b, c in cross.items() if c < 1 - 1e-12}
        if not cross:
            break
        # Of the actions that overtake within the merge tolerance of the
        # first crossing, the best right after it: a sentinel-steep line can
        # meet two others at crossings that rounding cannot order.
        first = min(cross.values())
        act = max((b for b, c in cross.items()
                   if c <= first + SUPPORT_MERGE_TOL),
                  key=lambda b: (first * v[b][1] + (1.0 - first) * v[b][0],
                                 slope[b], -b))
        z, last = cross[act], z
        if z <= 1e-12 or zs and z - last <= SUPPORT_MERGE_TOL:
            acts[-1] = act      # the piece before z is empty or merged
        else:
            zs.append(z)
            acts.append(act)
    return np.array(zs), np.array(acts)


def _crossing(v, a, b):
    """Where the lines ``v[a]`` and ``v[b]`` (lists of floats) cross,
    lower index first; inf if they are parallel."""
    lo, hi = min(a, b), max(a, b)
    d1 = v[lo][1] - v[hi][1]
    d0 = v[lo][0] - v[hi][0]
    return -d0 / (d1 - d0) if d1 != d0 else INF


def piece_scan(zs):
    """Edges {0, 1, zs} of the constant pieces of an indirect utility with
    the :func:`envelope` breakpoints ``zs``, then each piece's midpoint: it
    takes no other value."""
    edges = np.concatenate([[0.0], zs, [1.0]])
    return np.concatenate([edges, 0.5 * (edges[:-1] + edges[1:])])


def tied_action_sets(inst, ps):
    """Boolean mask (len(ps), m) of agent-optimal actions at each prediction.

    Action ``a`` ties the best action ``b`` at ``p`` when their score gap is
    at most ``TIE_TOL · max(1, |v_a0|(1-p) + |v_a1|p, the same for b)``, the
    size of the terms summed at ``p``, or at most ``SUPPORT_MERGE_TOL`` times
    the difference of their slopes: ``p`` lies within ``SUPPORT_MERGE_TOL``
    of where the two lines cross.  The scores and sizes are formed for all
    of ``ps`` at once by broadcasting ``p`` and ``1 - p`` against the
    instance's ``agent_utility`` and ``agent_size`` (``|v|``); the slopes
    are its ``agent_slope``.
    """
    p = np.atleast_1d(np.asarray(ps, dtype=float))[:, None]
    q = 1.0 - p
    v, size = inst.agent_utility, inst.agent_size
    scores = p * v[:, 1] + q * v[:, 0]
    best = scores.argmax(axis=1)
    at = np.arange(best.size), best
    gap = scores[at][:, None] - scores
    size = p * size[:, 1] + q * size[:, 0]
    window = TIE_TOL * np.maximum(np.maximum(size, size[at][:, None]), 1.0)
    slope = inst.agent_slope
    crossing = SUPPORT_MERGE_TOL * np.abs(slope - slope[best][:, None])
    return gap <= np.maximum(window, crossing)


def action_profile(inst, ps, weight_matrix=None):
    """Chosen action index at each prediction, breaking ties for the designer.

    ``weight_matrix`` (n, len(ps)) supplies the event weights used to rank
    tied actions; by default the prior is used (the bare-prediction rule).
    """
    ps = np.atleast_1d(np.asarray(ps, dtype=float))
    tied = tied_action_sets(inst, ps)
    if weight_matrix is None:
        gains = (inst.lam @ inst.ubar)[:, None]
    else:
        gains = inst.ubar.T @ np.asarray(weight_matrix, dtype=float)  # (m, P)
    masked = np.where(tied.T, gains, -np.inf)
    return np.argmax(masked, axis=0)


def best_response(inst, p, weights=None):
    """Agent's optimal action at prediction ``p``.

    Ties are broken in the designer's favor: among utility-maximizing
    actions, the one with the largest ``weights``-averaged designer utility
    wins (smallest index on exact ties).  ``weights`` defaults to the prior.
    """
    p = float(p)
    if not -1e-12 <= p <= 1 + 1e-12:
        raise ValidationError("BAD_SUPPORT", f"prediction {p} outside [0, 1]")
    w = None if weights is None else np.asarray(weights, dtype=float)[:, None]
    tied = tied_action_sets(inst, [p])[0]
    return AgentResponse(p, action_profile(inst, [p], w)[0],
                         np.flatnonzero(tied))


def indirect_utility(inst, i, p):
    """Designer utility in event ``i`` when the agent best-responds to ``p``."""
    if not 0 <= i < inst.n:
        raise ValidationError("BAD_FORMAT", f"event index {i} out of range")
    return float(inst.ubar[i, best_response(inst, p).action])


def indirect_utility_matrix(inst, ps):
    """Matrix (n, len(ps)) of designer utilities under bare best responses."""
    acts = action_profile(inst, ps)
    return inst.ubar[:, acts]


def live_points(pred, inst):
    """The support points of ``pred`` that carry mass under the prior:
    their indices, in support order, marginal mass and posterior outcome
    mean, the one computation of kappa."""
    marg = pred.marginal(inst.lam)
    live = np.flatnonzero(marg > 0)
    kap = ((inst.lam * inst.theta) @ pred.mass)[live] / marg[live]
    return live, marg[live], kap


def kappa(pred, inst, p):
    """Posterior outcome mean conditional on prediction ``p``."""
    hits = np.flatnonzero(np.abs(pred.support - float(p)) <= SUPPORT_MERGE_TOL)
    if hits.size == 0:
        raise ValidationError("ZERO_MASS", f"prediction {p} not in support")
    live, _, kap = live_points(pred, inst)
    at = np.flatnonzero(live == hits[0])
    if at.size == 0:
        raise ValidationError("ZERO_MASS", f"prediction {p} has no marginal mass")
    return float(kap[at[0]])


def ece(pred, inst, t=None):
    """Expected calibration error of ``pred`` in the ``t``-norm.

    Finite ``t``: (E |kappa(p) - p|^t)^(1/t) over the prediction marginal.
    ``t = inf``: worst-case |kappa(p) - p| over supported predictions.
    """
    t = inst.norm if t is None else float(t)
    live, marg, kap = live_points(pred, inst)
    dev = np.abs(kap - pred.support[live])
    if t == INF:
        return float(dev.max())
    if t == 1.0:
        return float(marg @ dev)
    return float((marg @ dev**t) ** (1.0 / t))


def _support_actions(pred, inst):
    """The event weights ``lam_e * mass[e, k]`` of ``pred`` and the action
    chosen at each support point, ties broken by those weights."""
    weight = inst.lam[:, None] * pred.mass
    return weight, action_profile(inst, pred.support, weight_matrix=weight)


def _expected(weight, acts, table):
    """Sum of ``weight[e, k] * table[e, acts[k]]``: a player's expected
    utility when the agent takes ``acts[k]`` at support point ``k``."""
    return float(np.einsum("ik,ik->", weight, table[:, acts]))


def payoff(pred, inst):
    """Designer's expected utility under ``pred`` with best-responding agent."""
    return _expected(*_support_actions(pred, inst), inst.ubar)


def agent_payoff(pred, inst):
    """Agent's expected utility under ``pred`` (true outcome distribution)."""
    return _expected(*_support_actions(pred, inst), inst.vbar_events)


class Evaluation(NamedTuple):
    """What :func:`certify` computed of a predictor: its ``ece`` in the
    instance's norm, its ``payoff``, and the ``weight`` and ``actions`` of
    :func:`_support_actions` that the payoffs sum over, read-only."""

    ece: float
    payoff: float
    weight: np.ndarray
    actions: np.ndarray

    def agent_payoff(self, inst):
        """The predictor's :func:`agent_payoff`, on request."""
        return _expected(self.weight, self.actions, inst.vbar_events)


# certify's own name for ece: a wrapper put on model.ece (perfbench's
# tracer) counts the solvers' callers only
_ece = ece


def _evaluate(pred, inst):
    """The :class:`Evaluation` of ``pred`` that :func:`certify` checks."""
    weight, acts = freeze(*_support_actions(pred, inst))
    return Evaluation(_ece(pred, inst), _expected(weight, acts, inst.ubar),
                      weight, acts)


def certify(predictor, inst, objective):
    """Check a solver's answer independently of the solver: ``predictor``
    keeps the budget (``ece <= epsilon`` in the instance's norm) and earns
    ``objective``.  Raises ``SolverError('UNCERTIFIED')`` when either fails,
    so that no solve returns a predictor that does less than it reports,
    and returns the :class:`Evaluation` it checked.  Both solvers end with
    it."""
    checked = _evaluate(predictor, inst)
    gap = checked.ece - inst.epsilon
    if not gap <= CERT_ECE_TOL:
        raise SolverError("UNCERTIFIED",
                          f"predictor exceeds the budget by {gap:.3e}")
    miss = checked.payoff - objective
    if not abs(miss) <= CERT_PAYOFF_TOL * (1.0 + abs(objective)):
        raise SolverError(
            "UNCERTIFIED",
            f"predictor payoff misses the objective by {miss:.3e}")
    return checked
