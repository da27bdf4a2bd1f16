import logging

import numpy as np
import pytest

from caldesign import cli, exact, lp_core, model
from caldesign.cli import _fmt
from caldesign.errors import SolverError, ValidationError
from caldesign.exact import (
    SenderStrategy,
    build_actrec_lp,
    solve_exact,
    strategy_to_predictor,
)
from caldesign.fptas import fptas_solve
from caldesign.model import (
    INF,
    Predictor,
    agent_payoff,
    ece,
    payoff,
    point_mass,
)

from cold import cold_solve
from conftest import (
    DATA,
    make_instance,
    random_instance,
    random_predictor,
    with_norm,
)
from oracle import (
    SamplerConfig,
    l1_plan_optimum,
    linf_plan_optimum,
    sample_calibrated_shifts,
    sample_feasible,
)
from revelation import (
    LabelledStrategy,
    aggregated_bias,
    contract_signals,
    predictor_to_strategy,
    recommendation_ok,
)


class TestProgramShape:
    def test_variable_count(self, golden):
        lp = build_actrec_lp(golden)
        assert lp.num_vars == 3 * 4 + 2 * 4

    def test_rejects_finite_other_norms(self, golden):
        with pytest.raises(ValidationError) as err:
            build_actrec_lp(with_norm(golden, 0.1, 2.0))
        assert err.value.code == "UNSUPPORTED_NORM"

    @pytest.mark.parametrize("norm", [1.0, INF])
    def test_set_budget_equals_a_rebuild(self, golden, norm):
        # solve_exact lowers the budget of a built program in place; the
        # result must be the program built at that budget, bit for bit
        for inst in (golden, _ladder()[0]):
            inst = with_norm(inst, 0.1, norm)
            for budget in (0.1 - exact.SEPARATION, 0.0, 0.45):
                lp = build_actrec_lp(inst)
                exact._set_budget(lp, inst, budget)
                want = build_actrec_lp(inst.with_epsilon(budget))
                for got, ref in ((lp.A, want.A), (lp.rel, want.rel),
                                 (lp.b, want.b)):
                    assert got.shape == ref.shape
                    assert got.tobytes() == ref.tobytes()

    def test_zero_budget_forces_zero_bias(self, golden):
        _, pred, _ = solve_exact(golden.with_epsilon(0.0))
        assert ece(pred, golden, 1.0) <= 1e-9

    def test_single_event_single_action(self):
        inst = make_instance([0.4], [1.0], [[0.0, 0.0]], [[[2.0, 5.0]]], 0.1)
        _, pred, obj = solve_exact(inst)
        assert obj == pytest.approx(0.6 * 2.0 + 0.4 * 5.0)
        assert pred.support.size == 1


class TestGoldenInstance:
    @pytest.mark.parametrize("eps,want", [(0.0, 0.75), (0.04, 2.15),
                                          (0.8, 5.0)])
    def test_known_budgets(self, golden, eps, want):
        _, pred, obj = solve_exact(golden.with_epsilon(eps))
        assert obj == pytest.approx(want, abs=1e-4)
        assert ece(pred, golden, 1.0) <= eps + 1e-7

    def test_every_budget_on_a_fine_grid(self, golden):
        # acceptance 2's formulas at all 81 budgets 0.00 ... 0.80, not just
        # nine: a ratio test that pivots on tiny entries of the degenerate
        # zero-rhs recommendation rows fails single budgets (0.19, 0.32)
        def principal(eps):
            if eps <= 0.025:
                return 50 * eps + 0.75
            if eps <= 0.1:
                return 10 * eps + 1.75
            if eps <= 0.45:
                return 4.28578 * eps + 2.32142
            if eps <= 0.7:
                return 3 * eps + 2.9
            return 5.0

        for k in range(81):
            eps = round(0.01 * k, 2)
            inst = golden.with_epsilon(eps)
            _, pred, obj = solve_exact(inst)
            assert obj == pytest.approx(principal(eps), abs=1e-4), eps
            assert payoff(pred, inst) == pytest.approx(principal(eps),
                                                       abs=1e-4), eps
            assert ece(pred, inst, 1.0) <= eps + 1e-7, eps

    def test_binary_shape_high_budget_is_deterministic(self):
        rng = np.random.default_rng(0)
        from conftest import random_binary_instance
        from caldesign.structure import _binary_shape
        for _ in range(10):
            inst = random_binary_instance(rng)
            _, _, p_star = _binary_shape(inst)
            inst = inst.with_epsilon(max(p_star - inst.theta_bar, 0.0) + 0.05)
            _, pred, obj = solve_exact(inst)
            u_high = inst.principal_utility[0, 1, 0]
            assert obj == pytest.approx(u_high, abs=1e-7)


class TestMaxNorm:
    def test_hand_derived_two_event(self):
        # means 0.2 / 0.8, uniform prior, high action needs mean >= 0.6;
        # under a 0.05 worst-case budget the best pool takes 5/7 of the low
        # event: payoff (0.5 + 0.5 * 5/7) * c
        inst = make_instance(
            [0.2, 0.8], [0.5, 0.5],
            [[0.0, 0.0], [-0.6, 0.4]],
            np.array([[[0, 0], [1, 1]], [[0, 0], [1, 1]]], dtype=float),
            0.05, norm=INF)
        _, pred, obj = solve_exact(inst)
        assert obj == pytest.approx(0.5 + 0.5 * 5 / 7, abs=1e-7)
        assert ece(pred, inst, INF) <= 0.05 + 1e-7

    def test_budget_scales_with_signal_mass(self):
        rng = np.random.default_rng(1)
        for _ in range(15):
            inst = random_instance(rng, epsilon=float(rng.uniform(0.01, 0.3)),
                                   norm=INF)
            _, pred, _ = solve_exact(inst)
            assert ece(pred, inst, INF) <= inst.epsilon + 1e-7


class TestConversions:
    def test_revealing_strategy_maps_to_means(self, two_event):
        inst = two_event
        strat = SenderStrategy(np.eye(2), [0.0, 0.0])
        # treat the two signals as recommending the only action twice is not
        # possible here; give the instance two actions instead
        inst2 = make_instance([0.3, 0.9], [0.5, 0.5],
                              [[0.0, 0.0], [-0.5, 0.5]],
                              np.ones((2, 2, 2)), 0.1)
        pred = strategy_to_predictor(strat, inst2)
        assert np.allclose(pred.support, [0.3, 0.9])
        assert np.allclose(pred.mass, np.eye(2))

    def test_equal_means_merge(self):
        inst = make_instance([0.5, 0.5], [0.5, 0.5],
                             [[0.0, 0.0], [-0.5, 0.5]],
                             np.ones((2, 2, 2)), 0.1)
        strat = SenderStrategy(np.eye(2), [0.0, 0.0])
        pred = strategy_to_predictor(strat, inst)
        assert pred.support.size == 1
        assert pred.support[0] == pytest.approx(0.5)

    def test_event_without_a_live_signal_takes_the_nearest_prediction(self):
        # signal 2 carries 5e-14 of mass, below ZERO_MASS_TOL, so it is
        # dropped: event 2 keeps half of its row, on signal 0, and event 3
        # (zero prior) reaches no live signal.  Every row is divided by its
        # sum, and event 3 is put on the live prediction nearest its mean
        # 0.9, signal 1's 0.5, so the public checks pass on the result
        inst = make_instance([0.2, 0.5, 0.7, 0.9],
                             [0.5, 0.5 - 1e-13, 1e-13, 0.0],
                             [[0.0, 0.0], [-0.5, 0.5], [-1.0, 1.0]],
                             np.ones((4, 3, 2)), 0.1)
        strat = SenderStrategy([[1, 0, 0], [0, 1, 0], [0.5, 0, 0.5],
                                [0, 0, 1]], np.zeros(3))
        pred = strategy_to_predictor(strat, inst)
        assert pred.support == pytest.approx([0.2, 0.5], abs=1e-12)
        assert pred.mass.tolist() == [[1, 0], [0, 1], [1, 0], [0, 1]]
        checked = Predictor(pred.support, pred.mass)
        assert np.array_equal(checked.support, pred.support)
        assert np.array_equal(checked.mass, pred.mass)

    def test_golden_low_budget_support(self, golden):
        # optimal-face refinement may leave sub-1e-6 mass specks; the three
        # heavy predictions are the low threshold, theta_1 and the 0.9 pool
        _, pred, _ = solve_exact(golden.with_epsilon(0.02))
        marg = pred.marginal(golden.lam)
        live = pred.support[marg > 1e-6]
        assert np.allclose(np.sort(live), [1e-5, 0.10001, 0.9], atol=1e-4)

    def test_calibrated_predictor_has_zero_bias(self, two_event):
        inst = make_instance([0.3, 0.9], [0.5, 0.5],
                             [[0.0, 0.0], [-0.5, 0.5]],
                             np.ones((2, 2, 2)), 0.1)
        pred = Predictor([0.3, 0.9], np.eye(2))
        strat = predictor_to_strategy(pred, inst)
        assert np.allclose(strat.bias, 0.0, atol=1e-12)

    def test_constant_pool_bias_matches_sum(self, golden):
        # deterministic 0.4 under the richer action set: recommended action
        # collects sum_i lam_i (0.4 - theta_i)
        inst = make_instance([0.3, 0.9], [0.5, 0.5], golden.agent_utility,
                             np.ones((2, 4, 2)), 0.2,
                             actions=list(golden.actions))
        pred = point_mass(0.4, 2)
        strat = predictor_to_strategy(pred, inst)
        expect = 0.5 * (0.4 - 0.3) + 0.5 * (0.4 - 0.9)
        assert strat.bias.sum() == pytest.approx(expect, abs=1e-12)
        assert np.count_nonzero(np.abs(strat.bias) > 1e-12) == 1

    def test_golden_case1_budget_exhausted(self, golden):
        eps = 0.025
        pred = Predictor([1e-5, 0.9], [[1, 0], [0, 1], [0, 1]])
        strat = predictor_to_strategy(pred, golden)
        assert np.abs(strat.bias).sum() == pytest.approx(eps, abs=1e-9)

    def test_round_trip_payoff(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            inst = random_instance(rng, epsilon=float(rng.uniform(0, 0.4)))
            _, pred, obj = solve_exact(inst)
            strat = predictor_to_strategy(pred, inst)
            back = strategy_to_predictor(strat, inst)
            assert payoff(back, inst) == pytest.approx(payoff(pred, inst),
                                                       abs=1e-9)
            assert aggregated_bias(strat, inst, 1.0) <= \
                ece(pred, inst, 1.0) + 1e-9


class TestContractSignals:
    def _lift(self, rng, inst, pred, copies=2):
        """Random multi-signal strategy: split each action's signal."""
        base = predictor_to_strategy(pred, inst)
        pis, biases, labels = [], [], []
        for k in range(base.bias.size):
            shares = rng.dirichlet(np.ones(copies))
            for s in shares:
                pis.append(base.pi[:, k] * s)
                biases.append(base.bias[k] * s)
                labels.append(k)
        return LabelledStrategy(np.column_stack(pis), biases, labels)

    def test_identical_signals_merge(self):
        inst = make_instance([0.3, 0.9], [0.5, 0.5],
                             [[0.0, 0.0], [-0.5, 0.5]],
                             np.ones((2, 2, 2)), 0.1)
        strat = LabelledStrategy(np.array([[0.5, 0.5], [0.5, 0.5]]),
                                 [0.01, 0.01], [1, 1])
        merged = contract_signals(strat, inst)
        assert merged.bias.size == 1
        assert merged.bias[0] == pytest.approx(0.02)

    def test_distinct_actions_unchanged(self):
        inst = make_instance([0.3, 0.9], [0.5, 0.5],
                             [[0.0, 0.0], [-0.5, 0.5]],
                             np.ones((2, 2, 2)), 0.1)
        strat = LabelledStrategy(np.eye(2), [0.0, 0.01], [0, 1])
        merged = contract_signals(strat, inst)
        assert merged.bias.size == 2
        assert np.allclose(merged.pi, strat.pi)

    def test_six_signals_to_three_actions(self):
        rng = np.random.default_rng(9)
        inst = random_instance(rng, epsilon=0.3, n_max=3, m_max=3, m_min=3)
        _, pred, _ = solve_exact(inst)
        lifted = self._lift(rng, inst, pred, copies=2)
        assert lifted.bias.size == 2 * inst.m
        merged = contract_signals(lifted, inst)
        assert merged.bias.size == len(set(lifted.signal_actions.tolist()))
        assert merged.bias.size <= 3
        for t in (1.0, 2.0, INF):
            assert aggregated_bias(merged, inst, t) <= \
                aggregated_bias(lifted, inst, t) + 1e-12

    def test_per_state_action_distribution_preserved(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            inst = random_instance(rng, epsilon=0.2)
            pred = random_predictor(rng, inst)
            lifted = self._lift(rng, inst, pred, copies=3)
            merged = contract_signals(lifted, inst)
            for a in np.unique(lifted.signal_actions):
                want = lifted.pi[:, lifted.signal_actions == a].sum(axis=1)
                got = merged.pi[:, merged.signal_actions == a].sum(axis=1)
                assert np.allclose(want, got, atol=1e-12)


class TestSolverInvariants:
    def test_monotone_in_budget(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            base = random_instance(rng, epsilon=0.0)
            values = []
            for eps in (0.0, 0.05, 0.1, 0.2, 0.4):
                _, _, obj = solve_exact(base.with_epsilon(eps))
                values.append(obj)
            for lo, hi in zip(values, values[1:]):
                assert hi >= lo - 1e-7

    def test_support_bounded_by_actions(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            inst = random_instance(rng, epsilon=float(rng.uniform(0, 0.4)))
            _, pred, _ = solve_exact(inst)
            marg = pred.marginal(inst.lam)
            assert np.count_nonzero(marg > 1e-9) <= inst.m

    def test_zero_budget_is_calibrated(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            inst = random_instance(rng, epsilon=0.0)
            _, pred, _ = solve_exact(inst)
            assert ece(pred, inst, 1.0) <= 1e-7

    def test_recommendations_are_best_responses(self):
        rng = np.random.default_rng(15)
        for norm in (1.0, INF):
            for _ in range(15):
                inst = random_instance(rng,
                                       epsilon=float(rng.uniform(0, 0.3)),
                                       norm=norm)
                strat, _, _ = solve_exact(inst)
                assert recommendation_ok(strat, inst)


def _regression_set(seed=1012):
    """n = m in {10, 12}, t in {1, inf}, three draws per cell, epsilon 0.1.
    Eight of them run past 40 s each under Bland's leaving rule."""
    rng = np.random.default_rng(seed)
    out = []
    for size in (10, 12):
        for norm in (1.0, INF):
            for _ in range(3):
                out.append(random_instance(rng, epsilon=0.1, norm=norm,
                                           n_min=size, n_max=size,
                                           m_min=size, m_max=size))
    return out


def _sentinel_set(budget):
    """Sixteen instances with sentinels and ties, t alternating 1 and inf:
    at ``budget`` "wide", epsilon 0.2 and n in [3, 6]; at "tight", epsilon
    0.1 and n in [4, 8]; m in [4, 8].  Each has one agent utility entry at
    +inf or -inf (saturated to the sentinel) and one agent row copied onto
    another; the first two of every four draws have integer agent
    utilities, so that crossings can also coincide exactly."""
    epsilon, n_min, n_max = {"wide": (0.2, 3, 6),
                             "tight": (0.1, 4, 8)}[budget]
    rng = np.random.default_rng(1014)
    out = []
    for k in range(16):
        n = int(rng.integers(n_min, n_max + 1))
        m = int(rng.integers(4, 9))
        theta = np.sort(rng.uniform(0.0, 1.0, n))
        lam = rng.dirichlet(np.ones(n)) * 0.8 + 0.2 / n
        if k % 4 < 2:
            v = rng.integers(-3, 4, (m, 2)).astype(float)
        else:
            v = rng.uniform(-1.0, 1.0, (m, 2))
        v[rng.integers(0, m)] = v[rng.integers(0, m)]
        v[rng.integers(0, m), rng.integers(0, 2)] = rng.choice([-INF, INF])
        u = rng.uniform(0.0, 1.0, (n, m, 2))
        out.append(make_instance(theta, lam / lam.sum(), v, u, epsilon,
                                 (1.0, INF)[k % 2]))
    return out


# Known defects, each named by its CHANGES.md FOUND line.
THREE_TIED = ("CHANGES.md FOUND exact._separate: three actions meet at one "
              "biased mean")
TIE_POINT = ("CHANGES.md FOUND fptas tie point near 1: a breakpoint within "
             "exact.SEPARATION of 1 splits only below it, and at 1 a 1e9 "
             "sentinel widens the tie window to about 1 in score")
END_TIE = ("CHANGES.md FOUND fptas end tie: actions that tie at a prediction "
           "of 0 or 1 are not split there, and the plan LP values that "
           "prediction by the prior-weighted tie-break")
MEAN_SLACK = ("CHANGES.md FOUND exact mean rows: a biased mean outside [0, 1] "
              "within the LP's tolerance gains in its incentive rows through "
              "a 1e9 sentinel slope, which the clipped predictor loses")


def _known(cases, defects):
    """``cases`` as test parameters; those in ``defects`` (case ->
    (exception, reason)) are strict xfails that must raise that
    exception."""
    return [pytest.param(*case, marks=pytest.mark.xfail(
                strict=True, raises=defects[case][0],
                reason=defects[case][1]))
            if case in defects else case for case in cases]


def _check_fptas_bracket(inst, delta=0.1):
    """fptas (t = 1) lands in [(1 - delta) opt, opt]."""
    _, _, opt = solve_exact(inst)
    _, obj = fptas_solve(inst, delta)
    assert (1.0 - delta) * opt - 1e-9 <= obj <= opt + 1e-7


class TestLargerInstances:
    @pytest.mark.parametrize("k", range(12))
    def test_solves_within_budget_and_beats_truthful(self, k):
        inst = _regression_set()[k]
        _, pred, _ = solve_exact(inst)
        assert ece(pred, inst, inst.norm) <= inst.epsilon + 1e-7
        truthful = payoff(Predictor(inst.theta, np.eye(inst.n)), inst)
        assert payoff(pred, inst) >= truthful - 1e-9

    # Sampled predictors are scored by model.payoff, so a tie window wider
    # than the LP's exact ties shows as a sample beating the optimum (wide
    # #2 and #7 did, on the grid sampler, while a 1e9 sentinel widened the
    # window to 1 in score).  The grid sampler finds almost no predictor
    # within the tight budgets; the shift sampler draws at the budget's
    # boundary, at the budget less SEPARATION, since a separated solve
    # returns the optimum at that lowered budget.
    @pytest.mark.parametrize("budget, k", _known(
        [(b, k) for b in ("wide", "tight") for k in range(16)], {
            ("wide", 6): (SolverError, THREE_TIED),
            ("tight", 11): (SolverError, THREE_TIED)}))
    def test_sentinel_optimum_beats_the_sampler(self, budget, k):
        inst = _sentinel_set(budget)[k]
        _, _, opt = solve_exact(inst)
        shifted = list(sample_calibrated_shifts(
            inst, 300, k, inst.epsilon - exact.SEPARATION))
        assert len(shifted) == 300
        on_grid = sample_feasible(inst, SamplerConfig(0.1, 300, seed=k))
        for pred in shifted + list(on_grid):
            assert payoff(pred, inst) <= opt + 1e-7

    # The plan LP shares model's tie window: while a 1e9 sentinel widened it
    # to 1 in score, fptas returned a certified 0.666 on ("tight", 10)
    # against the exact optimum 0.379, and 0.591 on ("tight", 2) against
    # 0.698, both quietly outside the bracket.
    @pytest.mark.parametrize("budget, k", _known(
        [(b, k) for b in ("wide", "tight") for k in range(0, 16, 2)], {
            ("wide", 6): (SolverError, THREE_TIED),
            ("tight", 6): (SolverError, TIE_POINT)}))
    def test_sentinel_fptas_within_guarantee(self, budget, k):
        _check_fptas_bracket(_sentinel_set(budget)[k])

    def test_acc3_seed7_24_fptas_within_guarantee(self):
        # fptas-acc3's list at --instance-seed 7, its instance 24
        rng = np.random.default_rng(7)
        acc3 = [random_instance(rng, (0.01, 0.1)[k % 2]) for k in range(25)]
        _check_fptas_bracket(acc3[24])


def _oracle_set(seed=1109, count=60):
    """Sixty t = 1 draws with n and m in [10, 16] for the plan-LP oracle:
    events in no order, one of them given another's mean (itself, at
    times), up to two zero priors, one agent utility entry at +inf or -inf
    (saturated to the sentinel) and a budget in [0, 0.3).  The other agent
    utilities are uniform, so actions tie only at breakpoints."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n, m = (int(x) for x in rng.integers(10, 17, 2))
        theta = rng.uniform(0.0, 1.0, n)
        theta[rng.integers(0, n)] = theta[rng.integers(0, n)]
        lam = rng.dirichlet(np.ones(n)) * 0.8 + 0.2 / n
        lam[rng.choice(n, int(rng.integers(0, 3)), replace=False)] = 0.0
        v = rng.uniform(-1.0, 1.0, (m, 2))
        v[rng.integers(0, m), rng.integers(0, 2)] = rng.choice([-INF, INF])
        u = rng.uniform(0.0, 1.0, (n, m, 2))
        out.append(make_instance(theta, lam / lam.sum(), v, u,
                                 float(rng.uniform(0.0, 0.3))))
    return out


class TestPlanOracle:
    """``solve_exact`` against the plan LP's optimum from the paper's other
    framework: at t = 1 :func:`oracle.l1_plan_optimum`, whose largest
    relative gap on the set is 5.3e-7, and at t = inf
    :func:`oracle.linf_plan_optimum`.  Both routes give up about
    ``SEPARATION`` at the agent's ties."""

    @pytest.mark.parametrize("k", [
        pytest.param(k, marks=pytest.mark.xfail(
            strict=True, raises=SolverError, reason=MEAN_SLACK))
        if k == 15 else k for k in range(60)])
    def test_exact_meets_the_plan_optimum(self, k):
        inst = _oracle_set()[k]
        objective = solve_exact(inst, tie_break=None)[2]
        assert objective == pytest.approx(l1_plan_optimum(inst), rel=1e-6,
                                          abs=1e-6)

    # (seed, draws, least and most events and actions; None: 1 to 4 and 3)
    @pytest.mark.parametrize("seed, count, low, high", [
        (1, 300, None, None), (2, 100, 6, 10), (3, 30, 12, 16)])
    def test_max_norm_meets_the_plan_optimum(self, seed, count, low, high):
        # the worst relative gaps are 8.5e-7, 6.4e-7 and 3.3e-7, either way
        rng = np.random.default_rng(seed)
        sizes = {} if low is None else dict(n_min=low, n_max=high,
                                            m_min=low, m_max=high)
        for _ in range(count):
            inst = random_instance(rng, rng.uniform(0.0, 0.3), INF, **sizes)
            objective = solve_exact(inst, tie_break=None)[2]
            assert abs(objective - linf_plan_optimum(inst)) \
                <= 2 * model.SEPARATION * (1.0 + abs(objective))

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=END_TIE)
    def test_end_tie_fptas_within_guarantee(self):
        # both actions score -3 at p = 1, where the designer wants action 0
        # in event 1 and action 1 in event 0; exact earns 2.387 by sending
        # mass there that breaks the tie its way, fptas 2.107 (0.88)
        inst = make_instance([0.35, 0.58], [0.839, 0.161],
                             [[-3.0, -3.0], [1.0, -3.0]],
                             [[[2.0, 0.0], [2.0, 3.0]],
                              [[2.0, 3.0], [2.0, 0.0]]], 0.1)
        _check_fptas_bracket(inst)


_real_solve = lp_core.solve   # the unpatched solver


def _errors(solves):
    return [out for _, _, out in solves if isinstance(out, SolverError)]


class TestAgentRefine:
    def test_fallback_is_logged(self, golden, monkeypatch, caplog):
        # the first-stage solve succeeds, the one refine raises: the
        # first-stage vertex comes back and the failure is logged once
        calls = []

        def flaky(lp, basis):
            calls.append(lp)
            if len(calls) > 1:
                raise SolverError("NUMERICAL_FAILURE", "forced")
            return _real_solve(lp, basis)

        monkeypatch.setattr(lp_core, "solve", flaky)
        inst = golden.with_epsilon(0.04)
        with caplog.at_level(logging.DEBUG, logger="caldesign"):
            _, _, obj = solve_exact(inst)
        assert len(calls) == 2
        assert obj == pytest.approx(2.15, abs=1e-4)
        slacks = [r.getMessage() for r in caplog.records
                  if "slack" in r.getMessage()]
        assert len(slacks) == 1
        assert "NUMERICAL_FAILURE" in slacks[0]

    def test_rejected_start_falls_back(self, solves, caplog):
        # sentinel tight-8: with the floor row, the first stage's optimal
        # basis reads B^-1 b = -1.85e-6, below the start's tolerance; the
        # refine logs the rejection and returns the first-stage vertex
        inst = _sentinel_set("tight")[8]
        _, _, first_stage = solve_exact(inst, tie_break=None)
        solves.clear()
        with caplog.at_level(logging.DEBUG, logger="caldesign"):
            _, _, obj = solve_exact(inst)
        rejected = _errors(solves)
        assert len(rejected) == 1
        assert "start basis rejected: infeasible" in str(rejected[0])
        assert obj == first_stage
        failed = [r.getMessage() for r in caplog.records
                  if "start basis rejected" in r.getMessage()]
        assert [m.split(":")[0] for m in failed] == [
            "agent tie-break refine failed at slack 1.64e-07"]


class TestWarmRefine:
    """The agent refine starts from the first stage's optimal basis."""

    @staticmethod
    def _golden_budgets(golden):
        return [golden.with_epsilon(round(0.01 * k, 2)) for k in range(81)]

    def _check_against_cold(self, solves, inst):
        solves.clear()
        solve_exact(inst)
        assert not _errors(solves)
        refines = solves[1:]
        assert refines
        for lp, _, sol in refines:
            cold = cold_solve(lp)
            v = cold.objective_value
            assert abs(sol.objective_value - v) <= 1e-9 * (1 + abs(v))
            assert sol.iterations < cold.iterations

    def test_golden_refine_matches_cold(self, golden, solves):
        for inst in self._golden_budgets(golden):
            self._check_against_cold(solves, inst)

    @pytest.mark.parametrize("k", range(12))
    def test_larger_refine_matches_cold(self, solves, k):
        self._check_against_cold(solves, _regression_set()[k])

    def test_golden_refine_pivots_less_than_first_stage(self, golden, solves):
        for inst in self._golden_budgets(golden):
            solves.clear()
            solve_exact(inst)
            first = solves[0][2].iterations
            for _, _, sol in solves[1:]:
                assert sol.iterations < first, inst.epsilon


def _ladder(list_seed=1003):
    """The exact-ladder benchmark list (``perfbench``): n = m cycling 6, 7,
    8, norm 1 for three draws and inf for the next three, epsilon 0.1."""
    rng = np.random.default_rng(list_seed)
    out = []
    for k in range(24):
        size = (6, 7, 8)[k % 3]
        norm = (1.0, INF)[(k // 3) % 2]
        out.append(random_instance(rng, 0.1, norm, size, size, size, size))
    return out


def _edge_instances():
    """Degenerate inputs for the truthful crash start."""
    u3 = np.ones((3, 2, 2))
    return {
        "zero_prior_event": make_instance(
            [0.1, 0.5, 0.9], [0.5, 0.0, 0.5], [[0.0, 0.0], [-0.6, 0.4]],
            np.arange(12, dtype=float).reshape(3, 2, 2), 0.05),
        # both actions score 0 at theta = 0.5, the second event's mean
        "tied_best_response": make_instance(
            [0.2, 0.5, 0.8], [0.3, 0.4, 0.3], [[0.0, 0.0], [-1.0, 1.0]],
            u3, 0.1, norm=INF),
        "duplicate_actions": make_instance(
            [0.2, 0.8], [0.5, 0.5], [[0.0, 0.0], [-1.0, 1.0], [-1.0, 1.0]],
            np.array([[[1, 1], [0, 0], [2, 2]], [[0, 0], [1, 1], [0, 2]]],
                     dtype=float), 0.1),
        "sentinel_utilities": make_instance(
            [0.0, 0.3, 1.0], [0.2, 0.5, 0.3],
            [[1e9, -1e9], [0.0, 0.0], [-1e9, 5.0]],
            np.ones((3, 3, 2)), 0.02),
        "single_action": make_instance(
            [0.3, 0.6], [0.5, 0.5], [[1.0, -1.0]], np.ones((2, 1, 2)), 0.1),
        "zero_budget_t1": make_instance(
            [0.2, 0.8], [0.5, 0.5], [[0.0, 0.0], [-0.6, 0.4]],
            np.array([[[0, 0], [1, 1]], [[0, 0], [1, 1]]], dtype=float), 0.0),
        "zero_budget_tinf": make_instance(
            [0.2, 0.8], [0.5, 0.5], [[0.0, 0.0], [-0.6, 0.4]],
            np.array([[[0, 0], [1, 1]], [[0, 0], [1, 1]]], dtype=float), 0.0,
            norm=INF),
    }


class TestCrashStart:
    """The first stage starts at the truthful scheme, an accepted crash
    basis."""

    @staticmethod
    def _solve_accepted(inst, solves):
        """Solve; check that no start was rejected; return the pivots of
        the first stage."""
        solves.clear()
        solve_exact(inst)
        assert not _errors(solves)
        return solves[0][2].iterations

    def test_golden_budgets(self, golden, solves):
        for k in range(81):
            self._solve_accepted(golden.with_epsilon(round(0.01 * k, 2)),
                                 solves)

    def test_ladder(self, solves):
        # the first stage took 4,260 pivots over this list from phase 1
        pivots = sum(self._solve_accepted(inst, solves) for inst in _ladder())
        assert pivots < 1200

    @pytest.mark.parametrize("name", sorted(_edge_instances()))
    def test_edge_instances(self, name, solves):
        self._solve_accepted(_edge_instances()[name], solves)

    @pytest.mark.parametrize("norm", [1.0, INF])
    def test_truthful_basis_is_a_feasible_basis(self, golden, norm):
        # B is nonsingular and B^-1 b puts each event on its own best
        # response with weight 1 and every logical at its row's surplus
        inst = with_norm(golden, 0.1, norm)
        lp = build_actrec_lp(inst)
        basis = exact._truthful_basis(inst, lp)
        B = np.zeros((lp.b.size, lp.b.size))
        for k, col in enumerate(basis):
            if col < lp.num_vars:
                B[:, k] = lp.A[:, col]
            else:
                r = col - lp.num_vars
                B[r, k] = 1.0 if lp.rel[r] == "<=" else -1.0
        z = np.linalg.solve(B, lp.b)
        assert np.all(z >= -1e-9 * np.abs(z).max())
        x = np.zeros(lp.num_vars)
        x[basis[basis < lp.num_vars]] = z[basis < lp.num_vars]
        own = np.argmax(inst.agent_scores(inst.theta), axis=1)
        pi = x[:inst.n * inst.m].reshape(inst.n, inst.m)
        assert np.allclose(pi, np.eye(inst.m)[own])
        assert np.all(x[inst.n * inst.m:] == 0.0)


class TestPivotCounts:
    """The LP calls and pivots over fixed lists, pinned: a change to the
    simplex's entering or leaving rule moves the counts."""

    @staticmethod
    def _counts(solves):
        assert not _errors(solves)
        return len(solves), sum(sol.iterations for _, _, sol in solves)

    @pytest.mark.parametrize("tie_break, counts", [("agent", (52, 1038)),
                                                   (None, (26, 629))])
    def test_ladder(self, solves, tie_break, counts):
        for inst in _ladder():
            solve_exact(inst, tie_break=tie_break)
        assert self._counts(solves) == counts

    def test_golden_budgets(self, golden, solves):
        for k in range(81):
            solve_exact(golden.with_epsilon(round(0.01 * k, 2)))
        assert self._counts(solves) == (162, 1433)

    @pytest.mark.parametrize("block, counts", [(81, (167, 352, 4)),
                                               (10, (165, 440, 2))])
    def test_golden_walks(self, golden, solves, block, counts):
        # the 81 budgets walked in blocks: (LP calls, pivots, rejected
        # starts).  A walk start that crosses a breakpoint of V (0.025, 0.1,
        # 0.45, 0.7) is rejected, and one, 0.04 -> 0.05, is clamped; both
        # restart at the truthful scheme
        budgets = [round(0.01 * k, 2) for k in range(81)]
        for k in range(0, 81, block):
            list(exact.walk_budgets(golden, budgets[k:k + block]))
        rejected = _errors(solves)
        assert all("start basis rejected: infeasible" in str(err)
                   for err in rejected)
        pivots = sum(out.iterations for _, _, out in solves
                     if not isinstance(out, SolverError))
        assert (len(solves), pivots, len(rejected)) == counts

    @staticmethod
    def _check_fallback(golden, solves, results):
        """The second budget's walk start was followed by a start at the
        truthful scheme, and its row is ``solve_exact``'s, bit for bit."""
        first_stages = [basis for lp, basis, _ in solves
                        if lp.b.size == solves[0][0].b.size]
        assert len(first_stages) == 3
        inst = golden.with_epsilon(0.05)
        truthful = exact._truthful_basis(inst, build_actrec_lp(inst))
        assert first_stages[2].tolist() == truthful.tolist()
        assert first_stages[1].tolist() != truthful.tolist()
        assert _hex_row(inst, results[1]) == _hex_row(inst, _solve_or_error(
            inst))

    def test_clamped_walk_start_falls_back(self, golden, solves):
        results = list(exact.walk_budgets(golden, [0.04, 0.05]))
        clamped = [sol.start_clamp for _, _, sol in solves]
        assert clamped[2] == pytest.approx(3.3e-8, rel=1e-3)
        assert clamped[:2] == clamped[3:] == [0.0, 0.0]
        self._check_fallback(golden, solves, results)

    def test_rejected_walk_start_falls_back(self, golden, solves,
                                            monkeypatch):
        spy = lp_core.solve

        def reject_the_walk(lp, basis):
            if len(solves) == 2:   # the second budget's walk start
                err = SolverError("NUMERICAL_FAILURE",
                                  "start basis rejected: forced")
                solves.append((lp, basis, err))
                raise err
            return spy(lp, basis)

        monkeypatch.setattr(lp_core, "solve", reject_the_walk)
        results = list(exact.walk_budgets(golden, [0.03, 0.05]))
        assert len(_errors(solves)) == 1
        self._check_fallback(golden, solves, results)


def _solve_or_error(inst):
    try:
        return solve_exact(inst)
    except (SolverError, ValidationError) as err:
        return err


def _row(inst, result, fmt=_fmt):
    """A solve's objective, agent payoff and ece, or its error code; a
    result of ``walk_budgets`` drops its evaluation."""
    if isinstance(result, Exception):
        return f"error:{result.code}"
    _, pred, obj = result[:3]
    return ",".join(fmt(float(v)) for v in (obj, agent_payoff(pred, inst),
                                            ece(pred, inst)))


def _hex_row(inst, result):
    return _row(inst, result, float.hex)


class TestSolveBudgets:
    """``walk_budgets`` walks one basis along a t=1 budget list; t=inf
    builds the program once and starts every budget afresh."""

    BUDGETS = [round(0.02 * k, 2) for k in range(26)]

    @staticmethod
    def _instances(norm):
        rng = np.random.default_rng(1003)
        acc3 = [random_instance(rng, (0.01, 0.1)[k % 2]) for k in range(6)]
        ladder = [inst for inst in _ladder() if inst.norm == norm]
        return ladder + acc3 if norm == 1.0 else ladder

    def _check(self, norm, row):
        for inst in self._instances(norm):
            walked = exact.walk_budgets(inst, self.BUDGETS)
            for budget, result in zip(self.BUDGETS, walked):
                sub = inst.with_epsilon(budget)
                assert row(sub, result) == row(sub, _solve_or_error(sub))

    def test_t1_walk_prints_the_per_budget_rows(self):
        self._check(1.0, _row)

    def test_tinf_is_bit_identical_to_per_budget_solves(self):
        self._check(INF, _hex_row)

    def test_errors_come_back_per_budget(self, golden):
        t2 = with_norm(golden, 0.1, 2.0)
        results = list(exact.walk_budgets(t2, [0.1, 0.2]))
        assert [err.code for err in results] == ["UNSUPPORTED_NORM"] * 2
        with pytest.raises(ValidationError, match="UNSUPPORTED_NORM"):
            solve_exact(t2)


class TestTakenAsBuilt:
    """The exact path reuses what it built and checked: a sweep row prints
    the evaluation that certified its predictor, and the strategies and
    predictors the solvers build skip the checks of ``SenderStrategy()``
    and ``Predictor()``, which they meet."""

    def test_sweep_rows_print_the_certified_evaluation(self, golden):
        tinf = next(inst for inst in _ladder() if inst.norm == INF)
        solved = 0
        for inst, budgets in (
                (golden, [round(0.01 * k, 2) for k in range(81)]),
                (tinf, TestSolveBudgets.BUDGETS)):
            rows = cli._sweep_block(inst, "exact", 0.1, budgets)
            for result, (fields, _) in zip(exact.walk_budgets(inst, budgets),
                                           rows):
                if isinstance(result, (SolverError, ValidationError)):
                    assert fields.endswith(f"error:{result.code}")
                    continue
                _, pred, _, checked = result
                assert checked.agent_payoff(inst).hex() == \
                    agent_payoff(pred, inst).hex()
                assert checked.ece.hex() == ece(pred, inst).hex()
                assert fields == _row(inst, result) + ",ok"
                solved += 1
        assert solved >= 81 + 20

    def test_solver_strategies_meet_the_constructor_checks(self, golden,
                                                           monkeypatch):
        built = []
        spy = exact._strategy_from_solution

        def record(inst, x):
            built.append((inst, spy(inst, x)))
            return built[-1][1]

        # every predictor a solver builds, with the arrays it was built of
        predictors = []
        build = Predictor._built

        def record_predictor(cls, support, mass):
            pred = build(support, mass)
            predictors.append((support.copy(), mass.copy(), pred))
            return pred

        monkeypatch.setattr(exact, "_strategy_from_solution", record)
        monkeypatch.setattr(Predictor, "_built",
                            classmethod(record_predictor))
        rng = np.random.default_rng(1003)
        acc3 = [random_instance(rng, (0.01, 0.1)[k % 2]) for k in range(25)]
        for inst in _ladder() + acc3:
            solve_exact(inst)
        for inst in acc3:
            fptas_solve(inst, 0.1)
        list(exact.walk_budgets(golden, [round(0.01 * k, 2)
                                         for k in range(81)]))
        monkeypatch.undo()
        assert len(built) >= 24 + 25 + 81
        assert len(predictors) >= 24 + 2 * 25 + 81
        for support, mass, pred in predictors:
            # the public constructor reads, checks and merges them alike
            checked = Predictor(support, mass)
            assert checked.support.tobytes() == pred.support.tobytes()
            assert checked.mass.tobytes() == pred.mass.tobytes()
        for inst, strat in built:
            pi, bias = strat.pi, strat.bias
            assert pi.shape == (inst.n, inst.m) and bias.shape == (inst.m,)
            assert pi.dtype == bias.dtype == np.float64
            assert np.all(pi >= 0.0)
            assert np.all(np.abs(pi.sum(axis=1) - 1.0) <= 1e-9)
            assert np.all(bias[inst.lam @ pi <= model.ZERO_MASS_TOL] == 0.0)
            # the public constructor takes them as they are
            checked = SenderStrategy(pi, bias)
            assert np.array_equal(checked.pi, pi)
            assert np.array_equal(checked.bias, bias)


class TestNoPhase1:
    """Every package solve starts from an accepted crash or warm basis, so
    none needs the phase 1 that ``tests/cold.py`` keeps for cold solves.
    A rejected start raises, and the agent refine catches that and falls
    back, so the spy records every SolverError before it propagates and
    these tests require none: a start that began to be rejected would
    cost that warm path silently."""

    def test_the_spy_sees_a_cold_solve(self, solves):
        # a start that only phase 1 could repair: the surplus alone puts
        # x at -1
        with pytest.raises(SolverError, match="start basis rejected"):
            lp_core.solve(lp_core.LinearProgram([-1.0], [[1.0]], [">="],
                                                [1.0]), [1])
        assert len(_errors(solves)) == 1

    def test_golden_budgets(self, golden, solves):
        for k in range(81):
            solve_exact(golden.with_epsilon(round(0.01 * k, 2)))
        assert solves and not _errors(solves)

    def test_ladder_both_tie_breaks(self, solves):
        for inst in _ladder():
            for tie_break in ("agent", None):
                solve_exact(inst, tie_break=tie_break)
        assert solves and not _errors(solves)

    def test_acc3_fptas(self, solves):
        rng = np.random.default_rng(1003)
        for k in range(25):
            fptas_solve(random_instance(rng, (0.01, 0.1)[k % 2]), 0.1)
        assert solves and not _errors(solves)


def _ladder_pin_csv():
    """The ladder list solved with both tie-breaks: objective, payoff,
    agent payoff and ece per solve, printed as the CLI prints numbers."""
    rows = ["index,tie_break,objective,payoff,agent_payoff,ece"]
    for k, inst in enumerate(_ladder()):
        for tie_break in ("agent", None):
            _, pred, obj = solve_exact(inst, tie_break=tie_break)
            rows.append(",".join([
                str(k), str(tie_break).lower(), _fmt(obj),
                _fmt(payoff(pred, inst)), _fmt(agent_payoff(pred, inst)),
                _fmt(ece(pred, inst))]))
    return "\n".join(rows) + "\n"


def test_ladder_is_pinned():
    # ladder_pin.csv holds _ladder_pin_csv()'s output; the solvers must
    # reproduce it byte for byte
    assert _ladder_pin_csv().encode() == (DATA / "ladder_pin.csv").read_bytes()


class TestCertifiedSolves:
    """Every returned predictor earns its objective within its budget."""

    # list seed, index: an optimal vertex of each recommends two actions at
    # one biased mean, which a predictor cannot tell apart
    MERGING = [(1003, 0), (1003, 16), (7, 5), (7, 6), (7, 8), (7, 15)]

    @pytest.mark.parametrize("seed,k", MERGING)
    def test_merged_signals_are_separated(self, seed, k):
        inst = _ladder(seed)[k]
        strat, pred, obj = solve_exact(inst)
        assert payoff(pred, inst) == pytest.approx(obj, abs=1e-6)
        assert ece(pred, inst) <= inst.epsilon + 1e-7
        assert recommendation_ok(strat, inst)
        gaps = np.diff(pred.support)
        assert np.any(np.abs(gaps - 2 * exact.SEPARATION) < 1e-9)

    def test_lossy_merge_detection(self):
        # two events at one mean; the agent is indifferent between a1 and a2
        # there, and the designer wants a1 in event 0 and a2 in event 1
        inst = make_instance([0.5, 0.5], [0.5, 0.5],
                             [[-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]],
                             np.array([[[0, 0], [1, 1], [0, 0]],
                                       [[0, 0], [0, 0], [1, 1]]], dtype=float),
                             0.1)
        split = SenderStrategy([[0, 1, 0], [0, 0, 1]], [0.0, 0.0, 0.0])
        [(p, signals)] = exact._lossy_merges(inst, split)
        assert p == 0.5 and signals.tolist() == [1, 2]
        pooled = SenderStrategy([[0, 1, 0], [0, 1, 0]], [0.0, 0.0, 0.0])
        assert exact._lossy_merges(inst, pooled) == []
        moved = exact._separate(inst, split, [(p, signals)])
        assert split.bias.tolist() == [0.0, 0.0, 0.0]
        assert moved.biased_means(inst)[1:].tolist() == pytest.approx(
            [0.5 - exact.SEPARATION, 0.5 + exact.SEPARATION], abs=1e-15)

    # two instances whose optimal vertex merges signals that cannot be
    # pulled apart (drawn from a seeded scan over small integer data)
    TIGHT = make_instance(
        [0.25, 0.25, 0.25, 1.0], [1 / 3, 1 / 3, 1 / 3, 0.0],
        [[-2.0, 0.0], [1.0, 0.0], [0.0, 2.0], [1.0, 0.0]],
        [[[0, 1], [0, 0], [1, 0], [1, 1]], [[1, 0], [0, 0], [0, 1], [1, 0]],
         [[2, 1], [0, 2], [2, 0], [0, 1]], [[1, 1], [0, 0], [1, 2], [2, 0]]],
        1e-7, norm=INF)
    # a1, a2 and a3 all score -0.5 at 0.25
    THREE_TIED = make_instance(
        [0.0, 0.25, 0.75, 1.0], [0.25] * 4,
        [[-2.0, -1.0], [0.0, -2.0], [-1.0, 1.0], [0.0, -2.0]],
        [[[0, 0], [0, 2], [0, 1], [0, 2]], [[1, 1], [2, 2], [1, 0], [0, 0]],
         [[2, 2], [1, 0], [1, 2], [2, 2]], [[1, 0], [0, 0], [1, 0], [1, 0]]],
        0.25)

    def test_budget_below_separation_raises(self):
        # all mass sits at 0.25, where a1 and a3 tie (identical utilities);
        # a budget of 1e-7 is below SEPARATION, too small to move them apart
        with pytest.raises(SolverError, match="no room") as err:
            solve_exact(self.TIGHT)
        assert err.value.code == "UNCERTIFIED"
        inst = self.TIGHT.with_epsilon(1e-5)
        _, pred, obj = solve_exact(inst)
        assert payoff(pred, inst) == pytest.approx(obj, abs=1e-9)

    def test_three_tied_actions_raise(self):
        with pytest.raises(SolverError, match="3 actions") as err:
            solve_exact(self.THREE_TIED)
        assert err.value.code == "UNCERTIFIED"

    @pytest.mark.parametrize("check,fake", [
        ("ece", lambda pred, inst: inst.epsilon + 1e-6),
        ("payoff", lambda pred, inst: -1.0),
    ])
    def test_certificate_failure_raises(self, golden, monkeypatch, check,
                                        fake):
        # model.certify checks the one evaluation model._evaluate makes
        evaluate = model._evaluate
        monkeypatch.setattr(model, "_evaluate", lambda pred, inst: evaluate(
            pred, inst)._replace(**{check: fake(pred, inst)}))
        with pytest.raises(SolverError) as err:
            solve_exact(golden.with_epsilon(0.04))
        assert err.value.code == "UNCERTIFIED"
