"""Diagnostics for the event-independent setting under the 1-norm budget.

When the designer's indirect utility does not depend on the event, optimal
predictors have a sharp shape: a low interval of under-confident
predictions, a perfectly calibrated middle, and a high interval of
over-confident ones, with the miscalibrated points collinear against the
indirect utility and covered by a convex "certificate" function with
symmetric linear tails.  This module checks membership in that shape,
recalibrates arbitrary predictors through event-independent post-processing
plans, verifies optimality certificates, and carries the closed form for
the binary-action special case.  The indirect utility's breakpoints and the
binary threshold come from the agent's envelope
(:func:`caldesign.model.envelope`); this module imports no solver.
"""

from __future__ import annotations

from dataclasses import asdict, astuple, dataclass, field

import numpy as np

from .errors import ValidationError
from .model import (
    SUPPORT_MERGE_TOL,
    Instance,
    Predictor,
    ece,
    envelope,
    freeze,
    indirect_utility_matrix,
    live_points,
    piece_scan,
    point_mass,
    read_numbers,
    runs,
)

KAPPA_GROUP_TOL = 1e-9
CLASSIFY_TOL = 1e-7
# Slack of the contraction test (check_mpc) and of a certificate's tails.
MPC_TOL = 1e-9
TAIL_TOL = 1e-9


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


def prior_on_means(inst: Instance):
    """The event prior as a distribution over outcome means (ties merged)."""
    by_mean = np.argsort(inst.theta, kind="stable")
    theta, lam = inst.theta[by_mean], inst.lam[by_mean]
    starts = runs(theta, SUPPORT_MERGE_TOL)
    return theta[starts], np.add.reduceat(lam, starts)


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

    def raw_error(self, t):
        return float(self.w @ np.abs(self.q - self.p) ** t)


def recalibrate(pred: Predictor, inst: Instance):
    """Split a predictor into its calibrated core and the plan that blurs it.

    Support points sharing a posterior mean (within ``KAPPA_GROUP_TOL``)
    collapse into one calibrated atom; the returned plan records how much
    mass each atom sends to each original prediction.  The calibrated part
    has (numerically) zero error, its marginal is a contraction of the
    prior-on-means, and replaying the plan reproduces the original payoff.
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
    gtilde = Predictor(q_atoms, gmass)
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
    if np.ptp(xs) <= 1e-15:
        return float("nan"), float(np.ptp(ys))
    coeffs = np.polyfit(xs, ys, 1)
    resid = np.abs(np.polyval(coeffs, xs) - ys)
    return float(coeffs[0]), float(resid.max())


def analyze_structure(pred: Predictor, inst: Instance) -> StructureReport:
    """Classify support points and test the optimal-shape predictions.

    Reports, never raises, on shape violations: interval ordering of the
    under-confident / calibrated / over-confident points, collinearity of
    each miscalibrated tail against the indirect utility, equal tail-slope
    magnitudes, and convexity of the touched (p, U(p)) points.
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
    """Piecewise-linear convex function with symmetric linear tails.

    Knots define the function on [0, 1]; the designated tails
    [0, x_low] and [x_high, 1] must be linear with slopes -alpha and +alpha
    (degenerate tails are allowed and vacuous).
    """

    def __init__(self, knots, alpha, x_low, x_high):
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
        self.alpha, self.x_low, self.x_high = (
            read_numbers(value, "BAD_CERTIFICATE", name, scalar=True)
            for value, name in ((alpha, "alpha"), (x_low, "x_low"),
                                (x_high, "x_high")))
        if self.alpha < 0 or not 0 <= self.x_low <= self.x_high <= 1:
            raise ValidationError("BAD_CERTIFICATE", "bad tail parameters")
        slopes = np.diff(self.knots_y) / np.diff(self.knots_x)
        if np.any(np.diff(slopes) < -1e-9):
            raise ValidationError("BAD_CERTIFICATE", "knots are not convex")
        for lo, hi, want in ((0.0, self.x_low, -self.alpha),
                             (self.x_high, 1.0, self.alpha)):
            if hi - lo <= 1e-12:
                continue
            got = (self(hi) - self(lo)) / (hi - lo)
            inner = self.knots_x[(self.knots_x > lo + 1e-12)
                                 & (self.knots_x < hi - 1e-12)]
            on_line = np.abs(self(inner) - (self(lo) + got * (inner - lo)))
            if abs(got - want) > 1e-9 or np.any(on_line > 1e-9):
                raise ValidationError("BAD_CERTIFICATE",
                                      "tail is not linear with slope +/-alpha")

    def __call__(self, x):
        return np.interp(x, self.knots_x, self.knots_y)

    def in_tails(self, x):
        return (x <= self.x_low + TAIL_TOL) | (x >= self.x_high - TAIL_TOL)

    def to_json_dict(self):
        return {"knots": [[float(x), float(y)] for x, y in
                          zip(self.knots_x, self.knots_y)],
                "alpha": self.alpha, "x_low": self.x_low, "x_high": self.x_high}

    @classmethod
    def from_json_dict(cls, raw):
        fields = ("knots", "alpha", "x_low", "x_high")
        if not isinstance(raw, dict) or not all(f in raw for f in fields):
            raise ValidationError("BAD_CERTIFICATE", "certificate must be a "
                                  "mapping with " + ", ".join(fields))
        return cls(*(raw[f] for f in fields))


@dataclass
class OptimalityVerdict:
    """Per-condition outcome of the certificate check; all-pass certifies."""

    budget_complementarity: bool
    touches_support: bool
    dominates_utility: bool
    miscalibrated_in_tails: bool
    expected_value_match: bool
    contraction: bool
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
    """Check the five certificate conditions for 1-norm optimality.

    (i) the tail slope is complementary to budget slack; (ii) the
    certificate touches the utility on the support and dominates it
    everywhere (dense scan plus exact per-piece endpoint checks); (iii)
    every miscalibrated prediction and its posterior mean lie in the linear
    tails; (iv) the certificate has equal expectation under the recalibrated
    marginal and the prior-on-means; (v) that marginal is a contraction of
    the prior-on-means.  All passing certifies the predictor optimal.
    """
    if not is_event_independent(inst):
        raise ValidationError("NOT_EVENT_INDEPENDENT",
                              "certificates apply to event-independent utility")
    err = ece(pred, inst, 1.0)
    cond_budget = abs(cert.alpha * (err - inst.epsilon)) <= 1e-7

    live, _, kap = live_points(pred, inst)
    ps = pred.support[live]
    U_support = indirect_utility_matrix(inst, ps)[0]
    cond_touch = bool(np.all(np.abs(cert(ps) - U_support) <= 1e-7))

    zs = envelope(inst)[0]
    scan = [np.arange(0.0, 1.0 + 1e-12, 1e-4), zs, cert.knots_x, ps]
    for z in zs:
        scan.append(np.array([z - 1e-9, z + 1e-9]))
    # exact per-piece check: utility is constant between breakpoints, so the
    # certificate (convex) only needs checking at piece ends and its own knots
    scan.append(piece_scan(zs))
    grid = np.unique(np.clip(np.concatenate(scan), 0.0, 1.0))
    U_grid = indirect_utility_matrix(inst, grid)[0]
    # Scan offsets at z +/- 1e-9 sit inside the agent's indifference window,
    # where the utility takes its upper value; allow the certificate to dip
    # below by its slope times that offset.
    dom_slack = 1e-9 * (2.0 + cert.alpha)
    cond_dom = bool(np.all(cert(grid) >= U_grid - dom_slack))

    miscal = np.abs(kap - ps) > CLASSIFY_TOL
    cond_tails = bool(np.all(cert.in_tails(ps[miscal]))
                      and np.all(cert.in_tails(kap[miscal])))

    gtilde, _ = recalibrate(pred, inst)
    gmarg = gtilde.marginal(inst.lam)
    lam_vals, lam_probs = prior_on_means(inst)
    e_g = float(gmarg @ cert(gtilde.support))
    e_lam = float(lam_probs @ cert(lam_vals))
    cond_expect = abs(e_g - e_lam) <= 1e-7
    cond_mpc = check_mpc((gtilde.support, gmarg), (lam_vals, lam_probs))

    return OptimalityVerdict(
        budget_complementarity=cond_budget,
        touches_support=cond_touch,
        dominates_utility=cond_dom,
        miscalibrated_in_tails=cond_tails,
        expected_value_match=cond_expect,
        contraction=cond_mpc,
        details={"ece": err, "alpha": cert.alpha,
                 "certificate_gap": float(np.min(cert(grid) - U_grid)),
                 "expected_gamma_gap": e_g - e_lam},
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


def binary_action_certificate(inst: Instance) -> GammaCertificate:
    """Natural certificate for the binary closed form.

    With budget slack the certificate is flat at the winning payoff; with
    the budget exhausted it rises linearly from the anchor (the cut-off
    event's mean, or the lowest mean when everything pools) through
    (threshold, payoff).
    """
    _, c, p_star = _binary_shape(inst)
    pred = binary_action_optimal(inst)
    err = ece(pred, inst, 1.0)
    if err < inst.epsilon - 1e-12 or err <= 1e-12:
        # slack (or a perfectly calibrated solution): flat certificate
        return GammaCertificate([(0.0, c), (1.0, c)], 0.0, 0.0, 0.0)
    lowest = float(inst.theta.min())
    if inst.epsilon >= p_star - inst.theta_bar:
        anchor = lowest
        alpha = c / (p_star - anchor)
        knots = [(0.0, alpha * anchor), (anchor, 0.0),
                 (1.0, alpha * (1.0 - anchor))]
        return GammaCertificate(knots, alpha, anchor, anchor)
    keep = pred.support[live_points(pred, inst)[0]]
    anchored = keep[keep < p_star - 1e-12]
    anchor = float(anchored.max()) if anchored.size else lowest
    alpha = c / (p_star - anchor)
    knots = [(0.0, 0.0), (anchor, 0.0), (1.0, alpha * (1.0 - anchor))]
    if anchor <= 1e-12:
        knots = [(0.0, 0.0), (1.0, alpha)]
    return GammaCertificate(knots, alpha, 0.0, anchor)


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
    per_event = int(np.max((pred.mass[:, live] > 1e-12).sum(axis=1), initial=0))
    kap = np.sort(kap)
    sizes = np.diff(runs(kap, KAPPA_GROUP_TOL), append=kap.size)
    return PredictionCounts(live.size, per_event, int(sizes.max(initial=0)))
