"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured numbers.  Run with ``pytest -v -s``."""

import math
import time

import numpy as np

from caldesign.exact import solve_exact
from caldesign.fptas import build_grid, fptas_solve, plan_to_predictor
from caldesign.model import INF, agent_payoff, ece, payoff
from caldesign.structure import (
    analyze_structure,
    binary_action_optimal,
    check_mpc,
    count_predictions,
    recalibrate,
)

from conftest import (
    random_binary_instance,
    random_feasible_plan,
    random_instance,
    random_predictor,
)
from oracle import SamplerConfig, exhaustive_best, sample_feasible
from plans import apply_plan, prior_on_means
from revelation import (
    LabelledStrategy,
    aggregated_bias,
    contract_signals,
    predictor_to_strategy,
)
from rounding import round_plan


def report(num, ok, detail):
    marker = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num}: {marker} - {detail}")
    assert ok, detail


class TestAcceptance:
    def test_01_ece_golden_values(self, two_event, f_dagger, f_ddagger):
        checks = [
            (f_dagger, 1.0, 0.2), (f_dagger, 2.0, 0.2), (f_dagger, INF, 0.2),
            (f_ddagger, 1.0, 0.15), (f_ddagger, 2.0, math.sqrt(0.025)),
            (f_ddagger, INF, 0.2),
        ]
        for pred, t, _ in checks:   # warm once before timing
            ece(pred, two_event, t)
        start = time.perf_counter()
        worst = max(abs(ece(pred, two_event, t) - want)
                    for pred, t, want in checks)
        elapsed = time.perf_counter() - start
        report(1, worst <= 1e-12 and elapsed < 1e-3,
               f"six golden errors, worst deviation {worst:.2e} "
               f"(tol 1e-12), {elapsed * 1e6:.0f} us (< 1 ms)")

    def test_02_golden_exact_reproduction(self, golden):
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

        def agent(eps):
            if eps < 0.025:
                return -9.999 * eps
            if eps <= 0.05:
                return 99 * eps - 2.72498
            return None

        start = time.perf_counter()
        worst_p = worst_a = 0.0
        for eps in (0.0, 0.01, 0.025, 0.04, 0.05, 0.07, 0.2, 0.5, 0.8):
            inst = golden.with_epsilon(eps)
            _, pred, obj = solve_exact(inst)
            worst_p = max(worst_p, abs(obj - principal(eps)))
            want_agent = agent(eps)
            if want_agent is not None:
                worst_a = max(worst_a,
                              abs(agent_payoff(pred, inst) - want_agent))
            assert ece(pred, inst, 1.0) <= eps + 1e-7
        elapsed = time.perf_counter() - start
        report(2, worst_p <= 1e-4 and worst_a <= 1e-4 and elapsed < 1.0,
               f"nine budgets: principal off by {worst_p:.2e}, agent by "
               f"{worst_a:.2e} (tol 1e-4), {elapsed:.2f} s (< 1 s)")

    def test_03_fptas_guarantee(self):
        rng = np.random.default_rng(1003)
        start = time.perf_counter()
        worst_ratio = 1.0
        for trial in range(50):
            eps = (0.01, 0.1)[trial % 2]
            inst = random_instance(rng, epsilon=eps, norm=1.0)
            _, _, opt = solve_exact(inst, tie_break=None)
            pred, obj = fptas_solve(inst, 0.1)
            assert ece(pred, inst, 1.0) <= eps + 1e-7
            if opt > 1e-12:
                worst_ratio = min(worst_ratio, obj / opt)
            assert obj >= (1 - 0.1) * opt - 1e-9
        elapsed = time.perf_counter() - start
        report(3, elapsed < 60.0,
               f"50 random instances, worst payoff ratio {worst_ratio:.4f} "
               f"(>= 0.9), {elapsed:.1f} s (< 60 s)")

    def test_04_plan_error_bound(self):
        rng = np.random.default_rng(1004)
        count = 0
        worst = -np.inf
        for t in (1.0, 2.0):
            for _ in range(100):
                inst = random_instance(rng, epsilon=0.5, n_min=2, norm=t)
                plan = random_feasible_plan(rng, inst, anchors_only=False)
                pred = plan_to_predictor(plan, inst)
                gap = ece(pred, inst, t) ** t - plan.w @ plan.err
                worst = max(worst, gap)
                assert gap <= 1e-7
                count += 1
        report(4, count >= 200,
               f"{count} random pairwise plans, worst error-bound gap "
               f"{worst:.2e} (tol 1e-7) for t in {{1, 2}}")

    def test_05_recalibration_round_trip(self):
        rng = np.random.default_rng(1005)
        count = 0
        worst_payoff = 0.0
        for _ in range(200):
            inst = random_instance(rng, epsilon=0.3, event_independent=True)
            pred = random_predictor(rng, inst)
            gtilde, plan = recalibrate(pred, inst)
            assert ece(gtilde, inst, 1.0) <= 1e-9
            marginal = (gtilde.support, gtilde.marginal(inst.lam))
            assert check_mpc(marginal, prior_on_means(inst))
            back = apply_plan(gtilde, plan, inst)
            gap = abs(payoff(back, inst) - payoff(pred, inst))
            worst_payoff = max(worst_payoff, gap)
            assert gap <= 1e-9
            count += 1
        report(5, count >= 200,
               f"{count} random predictors recalibrated: zero error, "
               f"contraction holds, payoff round-trip off by "
               f"{worst_payoff:.2e} (tol 1e-9)")

    def test_06_revelation_principle(self):
        rng = np.random.default_rng(1006)
        count = 0
        for _ in range(100):
            inst = random_instance(rng, epsilon=0.3, m_min=2)
            pred = random_predictor(rng, inst)
            base = predictor_to_strategy(pred, inst)
            pis, biases, labels = [], [], []
            for k in range(base.bias.size):
                shares = rng.dirichlet(np.ones(3))
                for s in shares:
                    pis.append(base.pi[:, k] * s)
                    biases.append(base.bias[k] * s)
                    labels.append(k)
            lifted = LabelledStrategy(np.column_stack(pis), biases, labels)
            merged = contract_signals(lifted, inst)
            for a in np.unique(lifted.signal_actions):
                want = lifted.pi[:, lifted.signal_actions == a].sum(axis=1)
                got = merged.pi[:, merged.signal_actions == a].sum(axis=1)
                assert np.allclose(want, got, atol=1e-15)
            for t in (1.0, 2.0, INF):
                assert aggregated_bias(merged, inst, t) <= \
                    aggregated_bias(lifted, inst, t) + 1e-12
            count += 1
        report(6, count >= 100,
               f"{count} multi-signal strategies contracted: per-event "
               f"action distributions exact, bias non-increasing for "
               f"t in {{1, 2, inf}}")

    def test_07_rounding_guarantee(self):
        rng = np.random.default_rng(1007)
        count = 0
        worst_ratio = 1.0
        for trial in range(100):
            delta = (0.05, 0.1)[trial % 2]
            inst = random_instance(rng, epsilon=0.0, n_min=2)
            plan = random_feasible_plan(rng, inst)
            raw = plan.w @ plan.err
            inst = inst.with_epsilon(raw if raw > 0 else 0.05)
            grid = build_grid(inst, delta)
            rounded = round_plan(plan, inst, grid)
            for q in rounded.q:
                assert np.min(np.abs(grid.points - q)) <= 1e-12
            for p in rounded.p:
                assert np.min(np.abs(grid.points - p)) <= 1e-12
            assert rounded.w @ rounded.err <= plan.w @ plan.err + 1e-12
            before = plan.w @ plan.obj
            after = rounded.w @ rounded.obj
            assert after >= (1 - 3 * delta) * before - 1e-9
            if before > 1e-12:
                worst_ratio = min(worst_ratio, after / before)
            count += 1
        report(7, count >= 100,
               f"{count} feasible plans rounded: grid-supported, error "
               f"non-increasing, worst objective ratio {worst_ratio:.4f} "
               f"(>= 1 - 3 delta)")

    def test_08_binary_closed_form(self):
        rng = np.random.default_rng(1008)
        count = 0
        worst = 0.0
        for _ in range(50):
            inst = random_binary_instance(rng)
            pred = binary_action_optimal(inst)
            _, _, opt = solve_exact(inst, tie_break=None)
            gap = abs(payoff(pred, inst) - opt)
            worst = max(worst, gap)
            assert gap <= 1e-7
            record = analyze_structure(pred, inst)
            assert record.violations == []
            counts = count_predictions(pred, inst)
            assert counts.total <= inst.n + 2
            assert counts.per_event_max <= 4
            assert counts.per_outcome_max <= 2
            count += 1
        report(8, count >= 50,
               f"{count} binary instances: closed form matches the exact "
               f"solver within {worst:.2e} (tol 1e-7); structure clean; "
               f"support bounds n+2 / 4 / 2 hold")

    def test_09_oracle_dominance(self):
        rng = np.random.default_rng(1009)
        checked = 0
        for _ in range(4):
            inst = random_instance(rng, epsilon=float(rng.uniform(0.05, 0.4)),
                                   n_max=2, m_max=3)
            _, _, opt = solve_exact(inst, tie_break=None)
            _, best = exhaustive_best(inst, 0.1)
            assert best <= opt + 1e-6
            cfg = SamplerConfig(grid_step=0.1, samples=10_000, seed=checked)
            sampled_best = -np.inf
            for pred in sample_feasible(inst, cfg):
                sampled_best = max(sampled_best, payoff(pred, inst))
            assert sampled_best <= opt + 1e-6
            checked += 1
        report(9, checked == 4,
               f"{checked} tiny instances: enumeration and 10^4-candidate "
               f"sampling never beat the exact optimum (+1e-6)")
