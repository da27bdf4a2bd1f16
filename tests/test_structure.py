from dataclasses import astuple

import numpy as np
import pytest

from caldesign.errors import ValidationError
from caldesign.exact import solve_exact
from caldesign.model import (
    CERT_ECE_TOL,
    INF,
    Predictor,
    ece,
    indirect_utility_matrix,
    payoff,
    point_mass,
)
from caldesign.structure import (
    EventIndependentPlan,
    GammaCertificate,
    analyze_structure,
    binary_action_optimal,
    check_mpc,
    count_predictions,
    is_event_independent,
    recalibrate,
    verify_optimality,
)

from conftest import (
    make_instance,
    random_binary_instance,
    random_instance,
    random_predictor,
)
from oracle import binary_action_certificate, gamma_certificate
from plans import apply_plan, prior_on_means


def _event_dependent():
    """Two events whose designer values the high action 1 and 4."""
    u = np.ones((2, 2, 2))
    u[1, 1, :] = 4.0
    return make_instance([0.2, 0.7], [0.5, 0.5], [[0.0, 0.0], [-0.5, 0.5]],
                         u, 0.1)


class TestEventIndependence:
    def test_action_only_utility(self):
        inst = make_instance([0.2, 0.7], [0.5, 0.5],
                             [[0.0, 0.0], [-0.5, 0.5]],
                             np.tile([[1.0], [3.0]], (2, 1, 2)).reshape(2, 2, 2),
                             0.1)
        assert is_event_independent(inst)

    def test_golden_is_event_independent(self, golden):
        assert is_event_independent(golden)

    def test_event_dependent_utility_detected(self):
        assert not is_event_independent(_event_dependent())


def _mpc_by_loop(g, lam, tol=1e-9):
    """:func:`check_mpc` one breakpoint at a time, the reference for its
    array form."""
    def integrated(values, probs, s):
        return float(np.sum(probs * np.clip(s - values, 0.0, None)))

    for s in np.unique(np.concatenate([g[0], lam[0], [1.0]])):
        if integrated(*g, s) > integrated(*lam, s) + tol:
            return False
    return abs(integrated(*g, 1.0) - integrated(*lam, 1.0)) <= tol


def _convex_by_loop(xs, ys):
    """``analyze_structure``'s convexity test on sorted points one point at
    a time, the reference for its array form."""
    for k in range(1, xs.size - 1):
        left = (ys[k] - ys[k - 1]) * (xs[k + 1] - xs[k])
        right = (ys[k + 1] - ys[k]) * (xs[k] - xs[k - 1])
        if left > right + 1e-9 * max(1.0, abs(ys[k])):
            return False
    return True


class TestMpc:
    def test_matches_the_loop_over_breakpoints(self):
        # g pools random groups of lam's atoms at their means, a
        # contraction; every third draw then moves one atom of g
        rng = np.random.default_rng(17)
        seen = set()
        for k in range(300):
            values = rng.uniform(0.0, 1.0, int(rng.integers(4, 7)))
            probs = rng.dirichlet(np.ones(values.size))
            groups = rng.integers(0, 3, values.size)
            gp = np.bincount(groups, probs, minlength=3)
            gv = np.bincount(groups, probs * values, minlength=3)[gp > 0]
            gp = gp[gp > 0]
            gv /= gp
            if k % 3 == 0:
                gv[0] = np.clip(gv[0] + rng.uniform(-0.05, 0.05), 0.0, 1.0)
            got = check_mpc((gv, gp), (values, probs))
            assert got == _mpc_by_loop((gv, gp), (values, probs))
            seen.add(got)
        assert seen == {True, False}

    def test_point_mass_at_mean(self):
        lam = (np.array([0.3, 0.9]), np.array([0.5, 0.5]))
        g = (np.array([0.6]), np.array([1.0]))
        assert check_mpc(g, lam)

    def test_identity(self):
        lam = (np.array([0.3, 0.9]), np.array([0.5, 0.5]))
        assert check_mpc(lam, lam)

    def test_mean_mismatch(self):
        lam = (np.array([0.3, 0.9]), np.array([0.5, 0.5]))
        g = (np.array([0.7]), np.array([1.0]))
        assert not check_mpc(g, lam)

    def test_spread_is_not_contraction(self):
        lam = (np.array([0.5]), np.array([1.0]))
        g = (np.array([0.0, 1.0]), np.array([0.5, 0.5]))
        assert not check_mpc(g, lam)
        assert check_mpc(lam, g)

    def test_prior_on_means_merges_unsorted_ties(self):
        inst = make_instance([0.5, 0.2, 0.5], [0.2, 0.3, 0.5], [[0.0, 0.0]],
                             np.ones((3, 1, 2)), 0.1)
        means, probs = prior_on_means(inst)
        assert means.tolist() == [0.2, 0.5]
        assert probs == pytest.approx([0.3, 0.7])


class TestRecalibrate:
    def test_constant_pool(self, two_event, f_dagger):
        gtilde, plan = recalibrate(f_dagger, two_event)
        assert np.allclose(gtilde.support, [0.6])
        assert plan.w.sum() == pytest.approx(1.0)
        assert plan.q[0] == pytest.approx(0.6)
        assert plan.p[0] == pytest.approx(0.4)

    def test_calibrated_input_gives_identity_plan(self, two_event):
        pred = Predictor([0.3, 0.9], np.eye(2))
        gtilde, plan = recalibrate(pred, two_event)
        assert np.allclose(gtilde.support, pred.support)
        assert np.allclose(plan.q, plan.p)

    def test_random_predictors(self, two_event):
        rng = np.random.default_rng(40)
        for _ in range(50):
            inst = random_instance(rng, epsilon=0.3, event_independent=True)
            pred = random_predictor(rng, inst)
            gtilde, plan = recalibrate(pred, inst)
            assert ece(gtilde, inst, 1.0) <= 1e-9
            marg = (gtilde.support, gtilde.marginal(inst.lam))
            assert check_mpc(marg, prior_on_means(inst))
            raw = plan.w @ np.abs(plan.q - plan.p)
            assert raw == pytest.approx(ece(pred, inst, 1.0), abs=1e-12)

    def test_zero_prior_event_alone_on_a_point(self):
        # the event of mean 0.9 has no prior and predicts 0.9 alone, a point
        # without marginal mass; in the core it goes to the nearest atom
        inst = make_instance([0.2, 0.5, 0.9], [0.5, 0.5, 0.0], [[0.0, 0.0]],
                             np.ones((3, 1, 2)), 0.1)
        gtilde, plan = recalibrate(Predictor([0.2, 0.5, 0.9], np.eye(3)),
                                   inst)
        assert gtilde.support.tolist() == [0.2, 0.5]
        assert gtilde.mass.tolist() == [[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]
        assert plan.q.tolist() == plan.p.tolist() == [0.2, 0.5]


class TestEventIndependentPlan:
    @pytest.mark.parametrize("q, p, w", [
        ([0.3], [0.4, 0.7], [0.5, 0.5]),         # ragged
        ([0.3, 0.9], [0.4, 0.7], [1.5, -0.5]),   # negative mass
        ([0.3, 0.9], [0.4, 0.7], [0.5, 0.4]),    # mass sums to 0.9
        ([float("nan")], [0.4], [1.0]),          # NaN is not a number
        ([0.3], [True], [1.0]),                  # nor is a boolean
    ])
    def test_rejects_with_bad_plan(self, q, p, w):
        with pytest.raises(ValidationError) as err:
            EventIndependentPlan(q, p, w)
        assert err.value.code == "BAD_PLAN"


class TestApplyPlan:
    def test_reconstructs_constant_pool(self, two_event, f_dagger):
        gtilde = point_mass(0.6, 2)
        plan = EventIndependentPlan([0.6], [0.4], [1.0])
        pred = apply_plan(gtilde, plan, two_event)
        assert np.allclose(pred.support, f_dagger.support)
        assert np.allclose(pred.mass, f_dagger.mass)

    def test_reconstructs_revealing_pair(self, two_event, f_ddagger):
        gtilde = Predictor([0.3, 0.9], np.eye(2))
        plan = EventIndependentPlan([0.3, 0.9], [0.4, 0.7], [0.5, 0.5])
        pred = apply_plan(gtilde, plan, two_event)
        assert np.allclose(pred.support, f_ddagger.support)
        assert np.allclose(pred.mass, f_ddagger.mass)

    def test_identity_plan(self, two_event):
        gtilde = Predictor([0.3, 0.9], np.eye(2))
        plan = EventIndependentPlan([0.3, 0.9], [0.3, 0.9], [0.5, 0.5])
        pred = apply_plan(gtilde, plan, two_event)
        assert np.allclose(pred.support, gtilde.support)
        assert np.allclose(pred.mass, gtilde.mass)

    def test_supply_violation(self, two_event):
        gtilde = Predictor([0.3, 0.9], np.eye(2))
        plan = EventIndependentPlan([0.3, 0.9], [0.4, 0.7], [0.7, 0.3])
        with pytest.raises(ValidationError) as err:
            apply_plan(gtilde, plan, two_event)
        assert err.value.code == "SUPPLY_VIOLATION"

    def test_round_trip_preserves_payoff(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            inst = random_instance(rng, epsilon=0.3, event_independent=True)
            pred = random_predictor(rng, inst)
            gtilde, plan = recalibrate(pred, inst)
            back = apply_plan(gtilde, plan, inst)
            assert payoff(back, inst) == pytest.approx(payoff(pred, inst),
                                                       abs=1e-9)

    def test_error_bound_after_blurring(self):
        rng = np.random.default_rng(42)
        for t in (1.0, 2.0):
            for _ in range(25):
                inst = random_instance(rng, epsilon=0.3,
                                       event_independent=True, norm=t)
                pred = random_predictor(rng, inst)
                gtilde, plan = recalibrate(pred, inst)
                out = apply_plan(gtilde, plan, inst)
                raw = plan.w @ np.abs(plan.q - plan.p) ** t
                assert ece(out, inst, t) ** t <= raw + 1e-7


class TestAnalyzeStructure:
    def test_requires_event_independence(self):
        with pytest.raises(ValidationError) as err:
            analyze_structure(point_mass(0.5, 2), _event_dependent())
        assert err.value.code == "NOT_EVENT_INDEPENDENT"

    def test_binary_low_budget_shape(self):
        rng = np.random.default_rng(43)
        inst = random_binary_instance(rng, epsilon=0.01)
        pred = binary_action_optimal(inst)
        report = analyze_structure(pred, inst)
        assert report.ok
        assert report.p_low == 0.0  # no under-confident predictions
        assert "OVER" in report.classification or \
            ece(pred, inst, 1.0) <= 1e-9

    def test_convexity_matches_the_loop(self):
        rng = np.random.default_rng(19)
        seen = set()
        for _ in range(200):
            inst = random_instance(rng, 0.1, m_max=4, event_independent=True)
            pred = random_predictor(rng, inst)
            ps = pred.support[pred.marginal(inst.lam) > 0]
            got = analyze_structure(pred, inst).convex_points
            assert got == _convex_by_loop(
                ps, indirect_utility_matrix(inst, ps)[0])
            seen.add(got)
        assert seen == {True, False}

    def test_perfectly_calibrated_all_calibrated(self, two_event):
        pred = Predictor([0.3, 0.9], np.eye(2))
        report = analyze_structure(pred, two_event)
        assert report.ok
        assert set(report.classification) == {"CALIBRATED"}

    def test_golden_case2_classification(self, golden):
        eps = 0.04
        pred = Predictor(
            [1e-5, 0.9, 1.0],
            [[1, 0, 0], [0, 1, 0], [0, 2 - 40 * eps, 40 * eps - 1]])
        report = analyze_structure(pred, golden)
        # low prediction under-reports theta_1, the 0.9 pool over-reports,
        # the certain prediction is calibrated
        assert report.classification == ["UNDER", "OVER", "CALIBRATED"]
        assert report.ok

    def test_shape_violation_reported(self, two_event):
        # the low event (mean 0.3) over-reports at 0.35 while the high event
        # (mean 0.9) under-reports at 0.6: a strict-under point above a
        # strict-over point breaks the three-interval shape
        pred = Predictor([0.35, 0.6], [[1.0, 0.0], [0.0, 1.0]])
        report = analyze_structure(pred, two_event)
        assert not report.ok
        assert any("under-confident" in v for v in report.violations)

    # golden's indirect utility is 5 below 1e-5, 0 below 0.9 and 1 up to
    # about 1.  (support, each event's row of mass, the report's violation)
    VIOLATIONS = {
        # three under-confident points, (0, 5), (0.5, 0) and (0.6, 0)
        "under-not-collinear": ([0.0, 0.5, 0.6], np.eye(3),
                                "under tail not collinear"),
        # the middle event over-confident at 0.86, 0.95 and 0.97
        "over-not-collinear": ([0.10001, 0.86, 0.95, 0.97, 1.0],
                               [[1, 0, 0, 0, 0], [0, 0.25, 0.25, 0.5, 0],
                                [0, 0, 0, 0, 1]],
                               "over tail not collinear"),
        # under slope -10 through (0, 5) and (0.5, 0), over slope 0
        "slopes-differ": ([0.0, 0.5, 0.95, 0.97],
                          [[1, 0, 0, 0], [0, 0, 0.5, 0.5], [0, 1, 0, 0]],
                          "tail slope magnitudes differ"),
        # (0.5, 0), (0.95, 1), (0.97, 1) bend down
        "not-convex": ([0.5, 0.95, 0.97], np.eye(3),
                       "touched utility points are not convex"),
    }

    @pytest.mark.parametrize("case", VIOLATIONS)
    def test_violations_reported(self, golden, case):
        support, mass, violation = self.VIOLATIONS[case]
        report = analyze_structure(Predictor(support, mass), golden)
        assert any(v.startswith(violation) for v in report.violations), \
            report.violations
        assert not report.ok

    def test_exact_optima_have_the_shape(self):
        # the structure theorem on solve_exact's optima: l1 budgets,
        # event-independent designer utility, n in [3, 10] and m in [3, 6].
        # Both optima earn the dual LP's value and verify against its
        # certificate; the raw one (no agent tie-break) has the shape
        rng = np.random.default_rng(2024)
        for _ in range(200):
            inst = random_instance(rng, rng.uniform(0.01, 0.3), 1.0,
                                   n_min=3, n_max=10, m_min=3, m_max=6,
                                   event_independent=True)
            cert, value = gamma_certificate(inst)
            for tie_break in ("agent", None):
                _, pred, objective = solve_exact(inst, tie_break=tie_break)
                assert abs(value - objective) <= 1e-7 * (1.0 + abs(objective))
                verdict = verify_optimality(pred, inst, cert)
                assert verdict.all_pass, verdict.to_json_dict()
            assert analyze_structure(pred, inst).violations == []

    def test_an_optimum_off_the_shape_still_certifies(self):
        # the shape is the theorem's for one optimum, not every optimum:
        # draw 6 of the set above (n = 5, m = 4) has an agent-tie-break
        # optimum with an under-confident point above an over-confident
        # one, and verify_optimality, the judge of optimality, passes it
        rng = np.random.default_rng(2024)
        for _ in range(7):
            inst = random_instance(rng, rng.uniform(0.01, 0.3), 1.0,
                                   n_min=3, n_max=10, m_min=3, m_max=6,
                                   event_independent=True)
        assert (inst.n, inst.m) == (5, 4)
        _, pred, _ = solve_exact(inst, tie_break="agent")
        report = analyze_structure(pred, inst)
        assert report.violations == [
            "under-confident point above an over-confident one"]
        verdict = verify_optimality(pred, inst, gamma_certificate(inst)[0])
        assert verdict.all_pass, verdict.to_json_dict()


class TestCertificates:
    def test_certificate_validation(self):
        with pytest.raises(ValidationError):  # concave knots
            GammaCertificate([(0, 0.0), (0.5, 1.0), (1, 0.0)], 2.0)
        with pytest.raises(ValidationError):  # first slope -2 below -alpha
            GammaCertificate([(0, 1.0), (0.5, 0.0), (1, 0.5)], 1.0)
        cert = GammaCertificate([(0, 0.5), (0.5, 0.0), (1, 0.5)], 1.0)
        assert cert(0.25) == pytest.approx(0.25)

    @pytest.mark.parametrize("knots, alpha, reason", [
        ([(0.1, 0.0), (1, 0.0)], 0.0, "span"),
        ([(0, 0.0), (0.9, 0.0)], 0.0, "span"),
        ([(0, 0.0)], 0.0, "span"),
        ([(0, 0.0), (1, 0.0)], -1.0, "end slopes"),
        ([(0, 0.0), (0.5, 0.0), (1, 2.0)], 1.0, "end slopes"),
        # a repeated knot would hide the last slope, 3, from the bound
        ([(0, 0.0), (1, 3.0), (1, 3.0)], 0.0, "repeat"),
    ], ids=["low-end", "high-end", "one-knot", "negative-alpha",
            "steep-end", "repeated-x"])
    def test_certificate_rejections(self, knots, alpha, reason):
        with pytest.raises(ValidationError, match=reason) as err:
            GammaCertificate(knots, alpha)
        assert err.value.code == "BAD_CERTIFICATE"

    def test_requires_event_independence(self):
        cert = GammaCertificate([(0.0, 4.0), (1.0, 4.0)], 0.0)
        with pytest.raises(ValidationError) as err:
            verify_optimality(point_mass(0.5, 2), _event_dependent(), cert)
        assert err.value.code == "NOT_EVENT_INDEPENDENT"

    def test_binary_certificates_verify(self):
        # the closed form and solve_exact's optimum, agent tie-break
        rng = np.random.default_rng(44)
        for _ in range(40):
            inst = random_binary_instance(rng)
            cert = binary_action_certificate(inst)
            for pred in (binary_action_optimal(inst), solve_exact(inst)[1]):
                verdict = verify_optimality(pred, inst, cert)
                assert verdict.all_pass, verdict.to_json_dict()

    def test_certificate_anchored_at_zero(self):
        # the cut-off event's mean is 0, so the certificate rises from the
        # origin, and the split earns its dual value 0.9
        u = np.zeros((2, 2, 2))
        u[:, 1, :] = 1.0
        inst = make_instance([0.0, 0.8], [0.5, 0.5],
                             [[0.0, 0.0], [-0.5, 0.5]], u, 0.05)
        cert = binary_action_certificate(inst)
        assert cert.to_json_dict() == {"knots": [[0.0, 0.0], [1.0, 2.0]],
                                       "alpha": 2.0}
        verdict = verify_optimality(binary_action_optimal(inst), inst, cert)
        assert verdict.all_pass, verdict.to_json_dict()
        assert verdict.details["dual_value"] == pytest.approx(0.9)

    def test_within_budget_fails_when_over_budget(self):
        # a certified closed form is refused on a budget below what it spends
        rng = np.random.default_rng(45)
        refused = 0
        for _ in range(20):
            inst = random_binary_instance(rng, epsilon=0.05)
            pred = binary_action_optimal(inst)
            cert = binary_action_certificate(inst)
            assert verify_optimality(pred, inst, cert).all_pass
            spent = ece(pred, inst, 1.0)
            if spent > 0.03:
                tight = inst.with_epsilon(spent - 0.03)
                verdict = verify_optimality(pred, tight, cert)
                assert not verdict.within_budget and not verdict.all_pass
                refused += 1
        assert refused

    def test_budget_is_checked_in_the_instance_norm(self):
        # the 1-norm closed form verified on its twin in the 2-norm and the
        # max-norm: the dual bound holds in every norm, so the verdict
        # passes exactly where the predictor keeps the twin's budget in the
        # twin's norm (30 of these 80 twins it does not)
        rng = np.random.default_rng(44)
        over = 0
        for _ in range(40):
            inst = random_binary_instance(rng)
            pred = binary_action_optimal(inst)
            cert = binary_action_certificate(inst)
            for t in (2.0, INF):
                twin = make_instance(inst.theta, inst.lam,
                                     inst.agent_utility,
                                     inst.principal_utility, inst.epsilon,
                                     t)
                kept = ece(pred, twin) <= twin.epsilon + CERT_ECE_TOL
                verdict = verify_optimality(pred, twin, cert)
                assert verdict.within_budget == verdict.all_pass == kept
                over += not kept
        assert over == 30

    def test_all_pass_is_sound_against_sampler(self):
        # a certified predictor must dominate every sampled feasible one
        from oracle import SamplerConfig, sample_feasible
        rng = np.random.default_rng(52)
        inst = random_binary_instance(rng, epsilon=0.08)
        pred = binary_action_optimal(inst)
        cert = binary_action_certificate(inst)
        assert verify_optimality(pred, inst, cert).all_pass
        cfg = SamplerConfig(grid_step=0.1, samples=2000, seed=7)
        best = payoff(pred, inst)
        for sample in sample_feasible(inst, cfg):
            assert payoff(sample, inst) <= best + 1e-6

    def test_no_predictor_beats_the_dual_value(self):
        # weak duality: a random predictor, on its own ece as the budget,
        # pays at most the dual value of the dual LP's certificate
        rng = np.random.default_rng(53)
        for _ in range(100):
            inst = random_instance(rng, rng.uniform(0.0, 0.3), 1.0, n_max=6,
                                   m_max=4, event_independent=True)
            cert, _ = gamma_certificate(inst)
            for _ in range(5):
                pred = random_predictor(rng, inst)
                own = inst.with_epsilon(ece(pred, inst, 1.0))
                verdict = verify_optimality(pred, own, cert)
                assert verdict.within_budget and verdict.dominates_utility
                dual = verdict.details["dual_value"]
                assert verdict.details["duality_gap"] >= \
                    -1e-12 * (1.0 + abs(dual))

    def test_flat_certificate_must_touch_support(self, golden):
        # a flat cover above everything never touches the low-utility
        # predictions, so its dual value 5 exceeds the payoff 0.75
        inst = golden.with_epsilon(0.0)
        pred = Predictor([0.10001, 0.9], [[1, 0], [0, 1], [0, 1]])
        cert = GammaCertificate([(0.0, 5.0), (1.0, 5.0)], 0.0)
        verdict = verify_optimality(pred, inst, cert)
        assert verdict.within_budget and verdict.dominates_utility
        assert not verdict.gap_closed
        assert not verdict.all_pass


class TestBinaryClosedForm:
    def test_high_budget_pools_everything(self):
        rng = np.random.default_rng(46)
        from caldesign.structure import _binary_shape
        for _ in range(20):
            inst = random_binary_instance(rng)
            _, _, p_star = _binary_shape(inst)
            inst = inst.with_epsilon(
                max(p_star - inst.theta_bar, 0.0) + float(rng.uniform(0, .2)))
            pred = binary_action_optimal(inst)
            assert pred.support.size == 1
            assert pred.support[0] == pytest.approx(
                max(inst.theta_bar, p_star))
            assert ece(pred, inst, 1.0) == pytest.approx(
                max(p_star - inst.theta_bar, 0.0), abs=1e-12)

    def test_budget_at_the_scans_own_tail_pools(self):
        # the scan's summed tail falls one ulp short of p* - mean, so the
        # budget misses the high-budget case yet the scan finds no cut; the
        # closed form then pools at max(mean, p*), which the certificate
        # proves optimal
        from caldesign.structure import _binary_shape
        inst = random_binary_instance(np.random.default_rng(0), epsilon=0.0)
        _, _, p_star = _binary_shape(inst)
        eps = 0.0
        for k in np.argsort(inst.theta, kind="stable")[::-1]:
            eps += inst.lam[k] * (p_star - inst.theta[k])
        assert eps < p_star - inst.theta_bar
        inst = inst.with_epsilon(eps)
        pred = binary_action_optimal(inst)
        assert pred.support.tolist() == [max(inst.theta_bar, p_star)]
        assert pred.support[0] == pytest.approx(0.7842682)
        verdict = verify_optimality(pred, inst,
                                    binary_action_certificate(inst))
        assert verdict.all_pass, verdict.to_json_dict()
        _, _, opt = solve_exact(inst, tie_break=None)
        assert payoff(pred, inst) == pytest.approx(opt, abs=1e-7)

    def test_zero_budget_matches_exact_solver(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            inst = random_binary_instance(rng, epsilon=0.0)
            pred = binary_action_optimal(inst)
            assert ece(pred, inst, 1.0) <= 1e-9
            _, _, opt = solve_exact(inst, tie_break=None)
            assert payoff(pred, inst) == pytest.approx(opt, abs=1e-7)

    def test_matches_exact_solver(self):
        rng = np.random.default_rng(48)
        for _ in range(30):
            inst = random_binary_instance(rng)
            pred = binary_action_optimal(inst)
            _, _, opt = solve_exact(inst, tie_break=None)
            assert payoff(pred, inst) == pytest.approx(opt, abs=1e-7)
            assert ece(pred, inst, 1.0) <= inst.epsilon + 1e-9

    def test_unsorted_events(self):
        # the cut-off scan runs by mean and the certificate anchors at the
        # lowest mean, whatever the order of the events; the lowest mean
        # anchors a pool of every event on a budget that the pool exhausts
        from caldesign.structure import _binary_shape
        rng = np.random.default_rng(49)
        for _ in range(40):
            twin = random_binary_instance(rng)
            perm = rng.permutation(twin.n)[::-1]
            inst = make_instance(twin.theta[perm], twin.lam[perm],
                                 twin.agent_utility,
                                 twin.principal_utility[perm],
                                 twin.epsilon, actions=twin.actions)
            pred = binary_action_optimal(inst)
            want = binary_action_optimal(twin)
            assert pred.support == pytest.approx(want.support, abs=1e-9)
            assert pred.mass == pytest.approx(want.mass[perm], abs=1e-9)
            _, _, opt = solve_exact(inst, tie_break=None)
            assert payoff(pred, inst) == pytest.approx(opt, abs=1e-7)
            assert ece(pred, inst, 1.0) <= inst.epsilon + 1e-9
            cert = binary_action_certificate(inst)
            verdict = verify_optimality(pred, inst, cert)
            assert verdict.all_pass, verdict.to_json_dict()
            _, _, p_star = _binary_shape(inst)
            if p_star > inst.theta_bar:
                pooled = inst.with_epsilon(p_star - inst.theta_bar)
                verdict = verify_optimality(
                    binary_action_optimal(pooled), pooled,
                    binary_action_certificate(pooled))
                assert verdict.all_pass, verdict.to_json_dict()

    def test_shape_rejections(self, golden):
        with pytest.raises(ValidationError) as err:
            binary_action_optimal(golden)
        assert err.value.code == "NOT_BINARY_SHAPE"
        # two actions but event-dependent designer utility
        u = np.zeros((2, 2, 2))
        u[0, 1, :] = 1.0
        u[1, 1, :] = 2.0
        inst = make_instance([0.2, 0.7], [0.5, 0.5],
                             [[0.0, 0.0], [-0.5, 0.5]], u, 0.1)
        with pytest.raises(ValidationError):
            binary_action_optimal(inst)

    @pytest.mark.parametrize("agent, pays, norm, reason", [
        ([[0.0, 0.0], [-0.5, 0.5]], (0.0, 1.0), 2.0, "t=1"),
        ([[0.0, 0.0], [-0.5, 0.5]], (1.0, 1.0), 1.0, "positive constant"),
        ([[0.0, 0.0], [-0.5, 0.5]], (0.0, 0.0), 1.0, "positive constant"),
        ([[-0.5, 0.5], [0.0, 0.0]], (0.0, 1.0), 1.0, "large predictions"),
    ], ids=["norm-2", "both-pay", "none-pays", "high-loses-at-1"])
    def test_binary_shape_rejections(self, agent, pays, norm, reason):
        u = np.zeros((2, 2, 2))
        u[:, 0], u[:, 1] = pays
        inst = make_instance([0.2, 0.7], [0.5, 0.5], agent, u, 0.1, norm)
        with pytest.raises(ValidationError, match=reason) as err:
            binary_action_optimal(inst)
        assert err.value.code == "NOT_BINARY_SHAPE"


class TestCounts:
    def test_fully_revealing(self, two_event):
        pred = Predictor([0.3, 0.9], np.eye(2))
        counts = count_predictions(pred, two_event)
        assert astuple(counts) == (2, 1, 1)

    def test_binary_low_budget_per_event(self):
        rng = np.random.default_rng(49)
        for _ in range(20):
            inst = random_binary_instance(rng, epsilon=0.02)
            pred = binary_action_optimal(inst)
            counts = count_predictions(pred, inst)
            assert counts.per_event_max <= 2
            assert counts.total <= inst.n + 2
            assert counts.per_outcome_max <= 2

    def test_per_outcome_max_is_the_largest_recalibrated_group(self):
        # events whose means chain in steps of 0.6e-9 (each within
        # KAPPA_GROUP_TOL of the one before, three of them spanning more),
        # each predicting on points of its own, so a point's posterior mean
        # is its event's mean
        rng = np.random.default_rng(61)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            theta = (rng.choice([0.2, 0.7], n)
                     + rng.integers(0, 3, n) * 0.6e-9)
            inst = make_instance(theta, rng.dirichlet(np.ones(n)),
                                 [[0.0, 0.0]], np.ones((n, 1, 2)), 0.1)
            points = rng.integers(1, 4, inst.n)
            mass = np.zeros((inst.n, points.sum()))
            for i, (lo, k) in enumerate(zip(np.cumsum(points) - points,
                                            points)):
                mass[i, lo:lo + k] = rng.dirichlet(np.ones(k))
            pred = Predictor(rng.uniform(0.0, 1.0, points.sum()), mass)
            _, plan = recalibrate(pred, inst)
            largest = np.unique(plan.q, return_counts=True)[1].max()
            assert count_predictions(pred, inst).per_outcome_max == largest
