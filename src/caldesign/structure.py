"""Diagnostics for the event-independent setting under the 1-norm budget.

When the designer's indirect utility does not depend on the event, optimal
predictors have a sharp shape: a low interval of under-confident
predictions, a perfectly calibrated middle, and a high interval of
over-confident ones, with the miscalibrated points collinear against the
indirect utility.  The dual of the design problem is a convex function
Gamma above the indirect utility whose slopes stay within +/-alpha, the
price of a unit of budget; a predictor that keeps the budget and earns the
dual value is optimal.  This module checks membership in that shape,
recalibrates arbitrary predictors through event-independent post-processing
plans, verifies optimality certificates by that duality, and carries the
closed form for the binary-action special case.  The indirect utility's
breakpoints and the binary threshold come from the agent's envelope
(:func:`caldesign.model.envelope`); this module imports no solver.
"""

from __future__ import annotations

from dataclasses import asdict, astuple, dataclass, field

import numpy as np

from .errors import ValidationError
from .model import (
    CERT_ECE_TOL,
    CERT_PAYOFF_TOL,
    ZERO_MASS_TOL,
    Instance,
    Predictor,
    ece,
    envelope,
    freeze,
    indirect_utility_matrix,
    live_points,
    payoff,
    piece_scan,
    point_mass,
    read_numbers,
    runs,
    tied_action_sets,
)

KAPPA_GROUP_TOL = 1e-9
CLASSIFY_TOL = 1e-7
# Slack of the contraction test (check_mpc).
MPC_TOL = 1e-9


def is_event_independent(inst: Instance) -> bool:
    """True when every event sees the same indirect utility everywhere.

    Scanned at the utility breakpoints, the endpoints, and all piece
    midpoints; that covers every value a piecewise-constant indirect
    utility can take.
    """
    U = indirect_utility_matrix(inst, piece_scan(envelope(inst)[0]))
    return bool(np.all(np.abs(U - U[0][None, :]) <= 1e-9))


def check_mpc(g, lam) -> bool:
    """Mean-preserving-contraction test between finite distributions.

    ``g`` and ``lam`` are (values, probabilities) pairs on [0, 1].  True iff
    the integrated CDF of g sits below that of lam at every support
    breakpoint (the only places the piecewise-linear integrals can touch)
    with equality at s = 1, the last breakpoint, within ``MPC_TOL``.
    """
    gv, gp = (np.asarray(a, dtype=float) for a in g)
    lv, lp = (np.asarray(a, dtype=float) for a in lam)
    breaks = np.unique(np.concatenate([gv, lv, [1.0]]))[:, None]
    # the integral of each CDF from 0 to every breakpoint
    ig = (gp * np.clip(breaks - gv, 0.0, None)).sum(axis=1)
    il = (lp * np.clip(breaks - lv, 0.0, None)).sum(axis=1)
    return bool(np.all(ig <= il + MPC_TOL) and abs(ig[-1] - il[-1]) <= MPC_TOL)


class EventIndependentPlan:
    """Joint mass over (true expected outcome q, prediction p) pairs."""

    def __init__(self, q, p, w):
        q, p, w = (read_numbers(values, "BAD_PLAN", name).ravel()
                   for values, name in ((q, "q"), (p, "p"), (w, "w")))
        if not (q.size == p.size == w.size):
            raise ValidationError("BAD_PLAN", "ragged plan arrays")
        if np.any(w < -1e-12):
            raise ValidationError("BAD_PLAN", "negative plan mass")
        w = np.clip(w, 0.0, None)
        if abs(w.sum() - 1.0) > 1e-9:
            raise ValidationError("BAD_PLAN",
                                  f"plan mass sums to {w.sum()!r}, not 1")
        self.q, self.p, self.w = freeze(q, p, w)


def recalibrate(pred: Predictor, inst: Instance):
    """Split a predictor into its calibrated core and the plan that blurs it.

    Support points sharing a posterior mean (within ``KAPPA_GROUP_TOL``)
    collapse into one calibrated atom; the returned plan records how much
    mass each atom sends to each original prediction.  The calibrated part
    has (numerically) zero error, its marginal is a contraction of the
    prior-on-means, and replaying the plan reproduces the original payoff.
    The core is built by ``Predictor._from_rows``, so an event with no mass
    on a live point (a zero prior) goes to the atom nearest its mean.
    """
    live, marg, kap = live_points(pred, inst)
    order = np.argsort(kap, kind="stable")
    cols, weight, kap = live[order], marg[order], kap[order]
    starts = runs(kap, KAPPA_GROUP_TOL)
    cuts = starts[1:]
    q_atoms = np.array([w @ k / w.sum() for w, k in
                        zip(np.split(weight, cuts), np.split(kap, cuts))])
    gmass = np.add.reduceat(pred.mass[:, cols], starts, axis=1)
    sizes = np.diff(starts, append=cols.size)
    gtilde = Predictor._from_rows(q_atoms, gmass, inst.theta)
    plan = EventIndependentPlan(np.repeat(q_atoms, sizes), pred.support[cols],
                                weight)
    return gtilde, plan


@dataclass
class StructureReport:
    """Shape diagnostics of a predictor under event-independent utility;
    ``dataclasses.asdict`` gives its JSON form."""

    p_low: float
    p_high: float
    classification: list
    collinear_under: bool
    collinear_over: bool
    under_residual: float
    over_residual: float
    slope_gap: float
    convex_points: bool
    violations: list

    @property
    def ok(self):
        return not self.violations


def _fit_line(xs, ys):
    """(slope, max residual) of the least-squares line, or (nan, 0) if short."""
    if xs.size < 2:
        return float("nan"), 0.0
    coeffs = np.polyfit(xs, ys, 1)
    resid = np.abs(np.polyval(coeffs, xs) - ys)
    return float(coeffs[0]), float(resid.max())


def analyze_structure(pred: Predictor, inst: Instance) -> StructureReport:
    """Classify support points and test the optimal-shape predictions.

    Reports, never raises, on shape violations: interval ordering of the
    under-confident / calibrated / over-confident points, collinearity of
    each miscalibrated tail against the indirect utility, equal tail-slope
    magnitudes, and convexity of the touched (p, U(p)) points: the shape
    the theorem gives one optimum, not every optimum, so an optimal
    predictor may report violations; :func:`verify_optimality` judges.
    """
    if not is_event_independent(inst):
        raise ValidationError("NOT_EVENT_INDEPENDENT",
                              "structure analysis needs event-independent utility")
    live, _, kap = live_points(pred, inst)
    ps = pred.support[live]
    gap = kap - ps
    labels = np.where(gap > CLASSIFY_TOL, "UNDER",
                      np.where(gap < -CLASSIFY_TOL, "OVER", "CALIBRATED"))
    under = ps[labels == "UNDER"]
    over = ps[labels == "OVER"]
    p_low = float(under.max()) if under.size else 0.0
    p_high = float(over.min()) if over.size else 1.0

    violations = []
    # calibrated points are weakly both under- and over-confident, so they
    # may sit anywhere; only a strictly-under point above a strictly-over
    # point breaks the three-interval shape
    if p_low > p_high + CLASSIFY_TOL:
        violations.append("under-confident point above an over-confident one")

    U = indirect_utility_matrix(inst, ps)[0]
    under_slope, under_resid = _fit_line(under, U[labels == "UNDER"])
    over_slope, over_resid = _fit_line(over, U[labels == "OVER"])
    collinear_under = under_resid <= 1e-6
    collinear_over = over_resid <= 1e-6
    if not collinear_under:
        violations.append(f"under tail not collinear (residual {under_resid:.2e})")
    if not collinear_over:
        violations.append(f"over tail not collinear (residual {over_resid:.2e})")
    slope_gap = 0.0
    if np.isfinite(under_slope) and np.isfinite(over_slope):
        slope_gap = abs(abs(under_slope) - abs(over_slope))
        if slope_gap > 1e-6:
            violations.append(f"tail slope magnitudes differ by {slope_gap:.2e}")

    # the slopes between neighbouring points (ps is sorted) do not fall
    left = (U[1:-1] - U[:-2]) * (ps[2:] - ps[1:-1])
    right = (U[2:] - U[1:-1]) * (ps[1:-1] - ps[:-2])
    convex = not np.any(left > right + 1e-9 * np.maximum(1.0, np.abs(U[1:-1])))
    if not convex:
        violations.append("touched utility points are not convex")

    return StructureReport(p_low, p_high, labels.tolist(), collinear_under,
                           collinear_over, under_resid, over_resid,
                           slope_gap, convex, violations)


class GammaCertificate:
    """A dual solution for the 1-norm budget: the convex piecewise-linear
    Gamma through ``knots`` on [0, 1], whose slopes lie within +/-``alpha``
    (so alpha >= 0).  :func:`verify_optimality` reads it."""

    def __init__(self, knots, alpha):
        knots = read_numbers(knots, "BAD_CERTIFICATE", "knots")
        if knots.ndim != 2 or knots.shape[1] != 2:
            raise ValidationError("BAD_CERTIFICATE",
                                  "knots must be a list of [x, y] pairs")
        order = np.lexsort((knots[:, 1], knots[:, 0]))   # by x, then y
        self.knots_x, self.knots_y = freeze(*knots[order].T)
        if self.knots_x.size < 2 or self.knots_x[0] > 1e-12 \
                or self.knots_x[-1] < 1 - 1e-12:
            raise ValidationError("BAD_CERTIFICATE",
                                  "knots must span [0, 1]")
        if np.any(np.diff(self.knots_x) <= 0.0):
            raise ValidationError("BAD_CERTIFICATE", "knots repeat an x")
        self.alpha = read_numbers(alpha, "BAD_CERTIFICATE", "alpha",
                                  scalar=True)
        slopes = np.diff(self.knots_y) / np.diff(self.knots_x)
        if np.any(np.diff(slopes) < -1e-9):
            raise ValidationError("BAD_CERTIFICATE", "knots are not convex")
        if slopes[0] < -self.alpha - 1e-9 or slopes[-1] > self.alpha + 1e-9:
            raise ValidationError("BAD_CERTIFICATE",
                                  "end slopes must lie within +/-alpha")

    def __call__(self, x):
        return np.interp(x, self.knots_x, self.knots_y)

    def to_json_dict(self):
        return {"knots": [[float(x), float(y)] for x, y in
                          zip(self.knots_x, self.knots_y)],
                "alpha": self.alpha}

    @classmethod
    def from_json_dict(cls, raw):
        """Read ``{"knots", "alpha"}``; other keys are ignored."""
        if not (isinstance(raw, dict) and "knots" in raw and "alpha" in raw):
            raise ValidationError("BAD_CERTIFICATE", "certificate must be a "
                                  "mapping with knots, alpha")
        return cls(raw["knots"], raw["alpha"])


@dataclass
class OptimalityVerdict:
    """Per-condition outcome of the certificate check; all-pass certifies."""

    within_budget: bool
    dominates_utility: bool
    gap_closed: bool
    details: dict = field(default_factory=dict)

    @property
    def all_pass(self):
        return all(astuple(self)[:-1])

    def to_json_dict(self):
        out = asdict(self)
        out["all_pass"] = self.all_pass
        out["details"] = out.pop("details")
        return out


def verify_optimality(pred: Predictor, inst: Instance,
                      cert: GammaCertificate) -> OptimalityVerdict:
    """Certify ``pred`` optimal under the instance's budget by weak duality.

    Let Ubar(x) be the best designer utility over the actions the agent
    ties at x and over the events, so that a predictor with marginal
    ``marg_k`` on ``p_k`` pays at most sum_k marg_k Ubar(p_k).  If Gamma
    dominates Ubar, then with the posterior means ``kappa_k``

        payoff <= sum_k marg_k Gamma(p_k)
               <= sum_k marg_k Gamma(kappa_k) + alpha * ece_1
               <= sum_e lam_e Gamma(theta_e) + alpha * epsilon = D,

    the second line as Gamma's slopes lie within +/-alpha, the third by
    Jensen at each ``kappa_k`` and the budget, as ece_1 <= ece_t for t >= 1.
    So no predictor within the budget pays more than D, and one that keeps
    the budget (in the instance's norm) and earns D is optimal: the three
    conditions, with the tolerances of :func:`caldesign.model.certify`.
    Dominance is checked at Gamma's knots and at the edges and midpoints of
    the pieces between the agent's breakpoints, which is exact: Ubar is
    constant on each piece and Gamma is linear between its knots.
    """
    if not is_event_independent(inst):
        raise ValidationError("NOT_EVENT_INDEPENDENT",
                              "certificates apply to event-independent utility")
    err = ece(pred, inst)
    xs = np.concatenate([cert.knots_x, piece_scan(envelope(inst)[0])])
    ubar = np.where(tied_action_sets(inst, xs), inst.ubar.max(axis=0),
                    -np.inf).max(axis=1)
    cover = cert(xs) - ubar
    # a knot inside the agent's tie window at a breakpoint sees the larger
    # of the two pieces' utilities: Gamma may dip below it by its slope
    # times that window
    dominates = bool(np.all(cover >= -1e-9 * (2.0 + cert.alpha)))
    dual = cert.alpha * inst.epsilon + float(inst.lam @ cert(inst.theta))
    gap = dual - payoff(pred, inst)
    return OptimalityVerdict(
        within_budget=err <= inst.epsilon + CERT_ECE_TOL,
        dominates_utility=dominates,
        gap_closed=gap <= CERT_PAYOFF_TOL * (1.0 + abs(dual)),
        details={"ece": err, "alpha": cert.alpha, "dual_value": dual,
                 "duality_gap": gap, "certificate_gap": float(cover.min())},
    )


def _binary_shape(inst: Instance):
    """(high_action, unit_payoff, threshold) of a binary reach-the-high-action
    instance, or a ``NOT_BINARY_SHAPE`` error.  The threshold is the agent's
    envelope breakpoint, 0 when the high action is best on all of [0, 1]."""
    if inst.m != 2:
        raise ValidationError("NOT_BINARY_SHAPE", "needs exactly two actions")
    if inst.norm != 1.0:
        raise ValidationError("NOT_BINARY_SHAPE", "closed form holds for t=1")
    u = inst.principal_utility
    consts = [np.unique(np.round(u[:, a, :], 12)) for a in range(2)]
    flat = [c.size == 1 for c in consts]
    if not all(flat):
        raise ValidationError("NOT_BINARY_SHAPE",
                              "designer utility must be action-only")
    vals = np.array([consts[0][0], consts[1][0]])
    if np.count_nonzero(vals) != 1:
        raise ValidationError("NOT_BINARY_SHAPE",
                              "one action must pay a positive constant, one zero")
    high = int(np.argmax(vals))
    zs, acts = envelope(inst)
    if acts[-1] != high:
        raise ValidationError("NOT_BINARY_SHAPE",
                              "high action must win for large predictions")
    return high, float(vals[high]), float(zs[0]) if zs.size else 0.0


def binary_action_optimal(inst: Instance) -> Predictor:
    """Closed-form optimal predictor when only reaching one action pays.

    High budget (eps >= threshold - mean): pool everything at
    max(mean, threshold).  Low budget: reveal low events, pull every event
    past a cut-off up to the threshold prediction, and split the cut-off
    event so the budget is exactly exhausted.
    """
    _, _, p_star = _binary_shape(inst)
    eps = inst.epsilon
    n = inst.n
    if eps >= p_star - inst.theta_bar:
        return point_mass(max(inst.theta_bar, p_star), n)

    # the scan runs over the events by mean: event by_mean[k] is k-th lowest
    by_mean = np.argsort(inst.theta, kind="stable")
    theta, lam = inst.theta[by_mean], inst.lam[by_mean]
    # tail(k) = sum_{i > k} lam_i (p* - theta_i); scan k = n..1 for the
    # window tail(k) <= eps < tail(k) + lam_k (p* - theta_k)
    tail = 0.0
    cut = None
    for k in range(n - 1, -1, -1):
        step = lam[k] * (p_star - theta[k])
        if step > 0 and tail <= eps < tail + step:
            cut = k
            break
        tail += step
    if cut is None:  # numerical corner: budget equals the case boundary
        return point_mass(max(inst.theta_bar, p_star), n)
    split = (eps - tail) / (lam[cut] * (p_star - theta[cut]))
    support = list(theta[:cut]) + [theta[cut], p_star]
    mass = np.zeros((n, len(support)))
    mass[by_mean[:cut], np.arange(cut)] = 1.0
    mass[by_mean[cut], cut] = 1.0 - split
    mass[by_mean[cut], cut + 1] = split
    mass[by_mean[cut + 1:], cut + 1] = 1.0
    return Predictor(support, mass)


@dataclass
class PredictionCounts:
    """Support-size statistics of a predictor."""

    total: int
    per_event_max: int
    per_outcome_max: int


def count_predictions(pred: Predictor, inst: Instance) -> PredictionCounts:
    """Counts behind the support-size bounds: overall, per event, and per
    shared posterior mean."""
    live, _, kap = live_points(pred, inst)
    per_event = int(np.max((pred.mass[:, live] > ZERO_MASS_TOL).sum(axis=1),
                           initial=0))
    kap = np.sort(kap)
    sizes = np.diff(runs(kap, KAPPA_GROUP_TOL), append=kap.size)
    return PredictionCounts(live.size, per_event, int(sizes.max(initial=0)))
