import numpy as np
import pytest

from caldesign.errors import ValidationError
from caldesign.exact import solve_exact
from caldesign.model import INF, ece, live_points

from conftest import make_instance, random_instance, with_norm
from oracle import (
    SamplerConfig,
    exhaustive_best,
    sample_calibrated_shifts,
    sample_feasible,
)


class TestSampler:
    def test_deterministic_per_seed(self, two_event):
        cfg = SamplerConfig(grid_step=0.1, samples=50, seed=123)
        a = [p.to_json_dict() for p in sample_feasible(two_event, cfg)]
        b = [p.to_json_dict() for p in sample_feasible(two_event, cfg)]
        assert a == b
        other = SamplerConfig(grid_step=0.1, samples=50, seed=124)
        c = [p.to_json_dict() for p in sample_feasible(two_event, other)]
        assert a != c

    def test_unit_budget_accepts_everything(self, two_event):
        inst = two_event.with_epsilon(1.0)
        cfg = SamplerConfig(grid_step=0.25, samples=40, seed=1)
        assert len(list(sample_feasible(inst, cfg))) == 40

    def test_zero_budget_only_calibrated(self):
        inst = make_instance([0.5], [1.0], [[0.0, 0.0]], [[[1.0, 1.0]]], 0.0)
        cfg = SamplerConfig(grid_step=0.25, samples=300, seed=2)
        accepted = list(sample_feasible(inst, cfg))
        assert accepted
        for pred in accepted:
            live, _, kap = live_points(pred, inst)
            assert kap == pytest.approx(pred.support[live], abs=1e-12)

    @pytest.mark.parametrize("norm", [1.0, INF])
    def test_calibrated_shifts_reach_the_budget(self, golden, norm):
        inst = with_norm(golden, 0.1, norm)
        draws = list(sample_calibrated_shifts(inst, 200, 3, 0.05))
        assert len(draws) == 200
        # t = 1 spends the whole budget; t = inf draws each shift up to it
        floor = 0.05 * (1 - 1e-6) if norm == 1.0 else 0.04
        assert floor <= max(ece(pred, inst) for pred in draws) <= 0.05
        again = sample_calibrated_shifts(inst, 200, 3, 0.05)
        assert [p.to_json_dict() for p in again] == \
            [p.to_json_dict() for p in draws]

    def test_bad_config(self):
        with pytest.raises(ValidationError):
            SamplerConfig(grid_step=0.7)
        with pytest.raises(ValidationError):
            SamplerConfig(samples=0)


class TestExhaustive:
    def test_caps_enforced(self, golden):
        with pytest.raises(ValidationError) as err:
            exhaustive_best(golden, 0.1)  # n = 3 > 2
        assert err.value.code == "TOO_LARGE"
        inst = make_instance([0.5], [1.0], [[0.0, 0.0]], [[[1.0, 1.0]]], 0.1)
        with pytest.raises(ValidationError):
            exhaustive_best(inst, 0.01)

    def test_single_event_zero_budget(self):
        # theta on the grid: the deterministic honest prediction wins
        inst = make_instance([0.5], [1.0], [[0.0, 0.0], [-0.6, 0.4]],
                             np.array([[[0, 0], [1, 1]]], dtype=float), 0.0)
        pred, val = exhaustive_best(inst, 0.25)
        assert val == pytest.approx(0.0)  # 0.5 below the 0.6 threshold
        assert ece(pred, inst, 1.0) <= 1e-9

    def test_matches_exact_with_generous_budget(self):
        rng = np.random.default_rng(50)
        for _ in range(5):
            inst = random_instance(rng, epsilon=1.0, n_max=2, m_max=3)
            _, _, opt = solve_exact(inst, tie_break=None)
            _, val = exhaustive_best(inst, 0.25)
            # with a unit budget any grid point is reachable, so enumeration
            # attains the exact optimum up to ties at breakpoints
            assert val <= opt + 1e-6

    def test_restricted_grid_never_beats_exact(self):
        rng = np.random.default_rng(51)
        for norm in (1.0, INF):
            for _ in range(4):
                inst = random_instance(rng,
                                       epsilon=float(rng.uniform(0.02, 0.3)),
                                       n_max=2, m_max=3, norm=norm)
                _, _, opt = solve_exact(inst, tie_break=None)
                pred, val = exhaustive_best(inst, 0.1)
                assert val <= opt + 1e-6
                assert ece(pred, inst) <= inst.epsilon + 1e-9
