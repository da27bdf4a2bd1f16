import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caldesign.errors import ValidationError
from caldesign.exact import (
    SenderStrategy,
    solve_exact,
    strategy_to_predictor,
    walk_budgets,
)
from caldesign.fptas import Grid, build_grid, fptas_solve
from caldesign.model import (
    INF,
    SUPPORT_MERGE_TOL,
    TIE_TOL,
    Instance,
    Predictor,
    agent_payoff,
    best_response,
    certify,
    ece,
    envelope,
    indirect_utility,
    kappa,
    payoff,
    point_mass,
    runs,
    tied_action_sets,
    validate_instance,
)
from caldesign.structure import (
    EventIndependentPlan,
    GammaCertificate,
    recalibrate,
)

from conftest import make_instance, random_instance, random_predictor


def _one_event(epsilon=0.1, norm=1.0):
    return make_instance([0.8], [1.0], [[0, 0]], [[[1, 1]]], epsilon, norm)


def _silent_strategy():
    """A strategy whose signals carry no mass, which only a scheme taken
    as built, past the constructor's checks, can be."""
    strat = SenderStrategy._built(np.zeros((1, 1)), np.zeros(1))
    return strategy_to_predictor(strat, _one_event())


class TestValidation:
    # (a call that reads malformed input, the error code it raises)
    MALFORMED = {
        "theta-empty": (lambda: Instance([], [], ["a"], [[0, 0]],
                                         np.zeros((0, 1, 2))), "BAD_MEAN"),
        "theta-bool": (lambda: Instance([True], [1.0], ["a"], [[0, 0]],
                                        [[[0, 0]]]), "BAD_MEAN"),
        "theta-nan-array": (lambda: Instance(np.array([0.5, math.nan]),
                                             [0.5, 0.5], ["a"], [[0, 0]],
                                             [[[0, 0]]] * 2), "BAD_MEAN"),
        "lambda-length": (lambda: make_instance(
            [0.3, 0.9], [1.0], [[0, 0]], [[[0, 0]]] * 2, 0.1), "BAD_PRIOR"),
        "lambda-negative": (lambda: make_instance(
            [0.3, 0.9], [1.5, -0.5], [[0, 0]], [[[0, 0]]] * 2, 0.1),
            "BAD_PRIOR"),
        "no-action": (lambda: Instance([0.5], [1.0], [], np.zeros((0, 2)),
                                       np.zeros((1, 0, 2))), "BAD_UTILITY"),
        "duplicate-actions": (lambda: Instance(
            [0.5], [1.0], ["a", "a"], [[0, 0]] * 2, [[[0, 0]] * 2]),
            "BAD_UTILITY"),
        "agent-shape": (lambda: Instance([0.5], [1.0], ["a"], [[0, 0, 0]],
                                         [[[0, 0]]]), "BAD_UTILITY"),
        "principal-shape": (lambda: Instance([0.5], [1.0], ["a"], [[0, 0]],
                                             [[0, 0]]), "BAD_UTILITY"),
        "description-list": (lambda: validate_instance([1, 2]), "BAD_FORMAT"),
        "support-bool": (lambda: Predictor([0.5, True], [[0.5, 0.5]]),
                         "BAD_SUPPORT"),
        "support-outside": (lambda: Predictor([1.5], [[1.0]]), "BAD_SUPPORT"),
        "support-empty": (lambda: Predictor([], np.zeros((1, 0))),
                          "BAD_SUPPORT"),
        "mass-null": (lambda: Predictor([0.5], [[None]]), "BAD_MASS"),
        "mass-ragged": (lambda: Predictor([0.5, 0.5], [np.ones((2, 2)),
                                                        np.ones((2, 3))]),
                        "BAD_MASS"),
        "mass-negative": (lambda: Predictor([0.2, 0.8], [[1.5, -0.5]]),
                          "BAD_MASS"),
        "predictor-no-support": (lambda: Predictor.from_json_dict(
            {"mass": [[1.0]]}), "BAD_FORMAT"),
        "knots-bool": (lambda: GammaCertificate([[0, 0], [True, 1]], 1),
                       "BAD_CERTIFICATE"),
        "alpha-bool": (lambda: GammaCertificate([[0, 0], [1, 1]], False),
                       "BAD_CERTIFICATE"),
        "certificate-list": (lambda: GammaCertificate.from_json_dict([1, 2]),
                             "BAD_CERTIFICATE"),
        "tie-break": (lambda: solve_exact(_one_event(), tie_break="x"),
                      "BAD_FORMAT"),
        "fptas-max-norm": (lambda: fptas_solve(_one_event(norm=INF), 0.1),
                           "UNSUPPORTED_NORM"),
        "grid-max-norm": (lambda: build_grid(_one_event(norm=INF), 0.1),
                          "UNSUPPORTED_NORM"),
        "bias-short": (lambda: SenderStrategy([[1.0, 0.0]], [0.0]),
                       "BAD_STRATEGY"),
        "pi-negative": (lambda: SenderStrategy([[1.5, -0.5]], [0.0, 0.0]),
                        "BAD_STRATEGY"),
        "pi-rows": (lambda: SenderStrategy([[0.5, 0.4]], [0.0, 0.0]),
                    "BAD_STRATEGY"),
        "pi-nan": (lambda: SenderStrategy([[math.nan]], [0.0]),
                   "BAD_STRATEGY"),
        "strategy-silent": (_silent_strategy, "BAD_STRATEGY"),
        "biased-mean-outside": (lambda: strategy_to_predictor(
            SenderStrategy([[1.0]], [0.5]), _one_event()), "BAD_STRATEGY"),
    }

    @pytest.mark.parametrize("case", MALFORMED)
    def test_rejects_with_a_code(self, case):
        call, code = self.MALFORMED[case]
        with pytest.raises(ValidationError) as err:
            call()
        assert err.value.code == code

    @pytest.mark.parametrize("norm", ["inf", "Infinity", "INF"])
    def test_norm_strings_read_as_the_max_norm(self, golden, norm):
        raw = golden.to_json_dict()
        raw["norm"] = norm
        assert validate_instance(raw).norm == INF

    def test_accepts_two_event_instance(self, two_event):
        assert two_event.n == 2
        assert two_event.theta.tolist() == [0.3, 0.9]

    def test_bad_prior(self):
        with pytest.raises(ValidationError) as err:
            make_instance([0.3, 0.9], [0.6, 0.6], [[0, 0]],
                          [[[0, 0]], [[0, 0]]], 0.1)
        assert err.value.code == "BAD_PRIOR"

    def test_unsorted_theta_is_normalized(self):
        # unsorted means are kept as given, with their prior and utilities
        inst = make_instance([0.9, 0.3], [0.25, 0.75], [[0, 0]],
                             [[[1, 1]], [[2, 2]]], 0.1)
        assert inst.theta.tolist() == [0.9, 0.3]
        assert inst.lam.tolist() == [0.25, 0.75]
        assert inst.principal_utility[:, 0, 0].tolist() == [1, 2]
        assert inst.ubar[:, 0].tolist() == [1, 2]

    def test_negative_utility(self):
        with pytest.raises(ValidationError) as err:
            make_instance([0.5], [1.0], [[0, 0]], [[[-1, 0]]], 0.1)
        assert err.value.code == "NEGATIVE_UTILITY"

    def test_bad_mean(self):
        with pytest.raises(ValidationError) as err:
            make_instance([1.5], [1.0], [[0, 0]], [[[0, 0]]], 0.1)
        assert err.value.code == "BAD_MEAN"

    def test_bad_norm(self):
        with pytest.raises(ValidationError) as err:
            make_instance([0.5], [1.0], [[0, 0]], [[[0, 0]]], 0.1, norm=0.5)
        assert err.value.code == "BAD_NORM"

    def test_infinite_agent_utility_saturates(self, golden):
        assert golden.agent_utility[3, 0] == -1e9

    def test_json_round_trip(self, golden):
        again = validate_instance(golden.to_json_dict())
        assert np.allclose(again.theta, golden.theta)
        assert np.allclose(again.agent_utility, golden.agent_utility)
        assert again.norm == golden.norm

    def test_keeps_the_caller_order(self, golden):
        raw = golden.to_json_dict()
        for key in ("theta", "lambda", "principal_utility"):
            raw[key] = raw[key][::-1]
        inst = validate_instance(raw)
        for name in ("theta", "lam", "principal_utility", "ubar",
                     "vbar_events"):
            assert np.array_equal(getattr(inst, name),
                                  getattr(golden, name)[::-1]), name
        assert inst.to_json_dict() == raw
        assert validate_instance(inst.to_json_dict()).to_json_dict() == raw


class TestPredictor:
    def test_support_merging(self):
        pred = Predictor([0.5, 0.5 + 1e-13], [[0.4, 0.6]])
        assert pred.support.size == 1
        assert pred.mass[0, 0] == pytest.approx(1.0)

    def test_rejects_bad_mass(self):
        with pytest.raises(ValidationError):
            Predictor([0.2, 0.8], [[0.7, 0.7]])

    def test_json_round_trip(self, f_ddagger):
        again = Predictor.from_json_dict(f_ddagger.to_json_dict())
        assert np.allclose(again.support, f_ddagger.support)
        assert np.allclose(again.mass, f_ddagger.mass)


class TestBestResponse:
    def test_golden_midrange(self, golden):
        # at p = 0.5 the safe action dominates: a1 ~ -5, a3 = -0.4, a4 huge-
        assert best_response(golden, 0.5).action == 1

    def test_golden_certain_outcome(self, golden):
        assert best_response(golden, 1.0).action == 3

    def test_tie_at_low_threshold_favors_designer(self, golden):
        resp = best_response(golden, 1e-5)
        assert set(resp.tied_actions) >= {0, 1}
        assert resp.action == 0  # payoff 5 beats 0

    def test_single_action(self):
        inst = make_instance([0.5], [1.0], [[0.3, -0.2]], [[[1, 1]]], 0.1)
        for p in (0.0, 0.33, 1.0):
            assert best_response(inst, p).action == 0

    def test_tied_set_matches_enumeration(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            inst = random_instance(rng, epsilon=0.1)
            p = float(rng.uniform(0, 1))
            resp = best_response(inst, p)
            scores = inst.agent_scores(p)
            assert resp.action in resp.tied_actions
            exact_ties = set(np.flatnonzero(scores >= scores.max() - 1e-12))
            assert exact_ties <= set(resp.tied_actions)

    def test_weights_rank_the_tied_actions(self, golden):
        # a1 and a2 tie at p = 1e-5; each event's own designer utility
        # picks among them
        for i in range(golden.n):
            resp = best_response(golden, 1e-5, weights=np.eye(golden.n)[i])
            tied = list(resp.tied_actions)
            assert resp.action == tied[np.argmax(golden.ubar[i, tied])]


class TestTieRule:
    """``tied_action_sets``: a gap within ``TIE_TOL`` of the terms summed at
    ``p``, or ``p`` within ``SUPPORT_MERGE_TOL`` of the two lines' crossing."""

    def test_sentinel_does_not_widen_the_window(self):
        # action 3 scores 0 against the best 1 at p = 0; a window scaled by
        # its largest utility (1e9) counted it as tied
        inst = _lines([[-1, 0], [1, 2], [1, 2], [0, -1e9]])
        assert tied_action_sets(inst, [0.0])[0].tolist() == [
            False, True, True, False]

    def test_a_tie_at_one_point_counts(self):
        # sentinel set "wide" #0: v[4] meets v[2] (and its duplicate v[5])
        # only at p = 0, where the LP may use it as a best response
        inst = _lines([[0, 0], [1, -1], [3, 0], [-1, -1e9], [3, -2], [3, 0]])
        tied = tied_action_sets(inst, [0.0, 1e-6])
        assert np.flatnonzero(tied[0]).tolist() == [2, 4, 5]
        assert np.flatnonzero(tied[1]).tolist() == [2, 5]

    def test_golden_crossing_ties_within_rounding(self, golden):
        # a3 = [-0.9, 0.1] and a4 = [-1e9, 10] cross at p ~ 1 - 9.9e-9,
        # where rounding leaves scores 2e-8 apart: more than TIE_TOL times
        # the terms summed there (~20), so only the crossing rule ties them.
        # The LP lands on these floats across the golden budgets.
        z = envelope(golden)[0][-1]
        ps = [z + k * np.spacing(z) for k in range(-2, 3)]
        scores = golden.agent_scores(z)
        assert abs(scores[2] - scores[3]) > TIE_TOL * 20.0
        for tied in tied_action_sets(golden, ps):
            assert np.flatnonzero(tied).tolist() == [2, 3]

    def test_parallel_lines_tie_only_within_the_window(self):
        inst = _lines([[0.0, 1.0], [-1e-10, 1.0 - 1e-10], [-1e-8, 1 - 1e-8]])
        assert tied_action_sets(inst, [0.5])[0].tolist() == [True, True, False]


def _lines(v):
    """Instance whose agent scores are the lines ``v`` (one event)."""
    v = np.asarray(v, dtype=float)
    return make_instance([0.5], [1.0], v, np.zeros((1, len(v), 2)), 0.1)


def _crossing(v, a, b):
    """The crossing of actions a < b, computed as :func:`envelope` does."""
    d1 = v[a][1] - v[b][1]
    d0 = v[a][0] - v[b][0]
    return -d0 / (d1 - d0)


class TestEnvelope:
    def test_golden_breakpoints(self, golden):
        zs, acts = envelope(golden)
        assert zs.size == 3
        # the capped "minus infinity" entry shifts the top crossing by ~1e-8
        assert np.allclose(zs, [1e-5, 0.9, 1.0], atol=1e-7)
        assert acts.tolist() == [0, 1, 2, 3]

    def test_single_action_has_none(self, two_event):
        zs, acts = envelope(two_event)
        assert zs.size == 0 and acts.tolist() == [0]

    def test_matches_dense_scan(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            inst = random_instance(rng, epsilon=0.1, m_min=2)
            zs, acts = envelope(inst)
            ps = np.linspace(0.0, 1.0, 1_000_001)
            winners = np.argmax(inst.agent_scores(ps), axis=1)
            flips = ps[1:][winners[1:] != winners[:-1]]
            # every dense-scan flip sits next to a reported breakpoint
            for f in flips:
                assert np.min(np.abs(zs - f)) <= 2e-6
            assert zs.size >= np.unique(np.round(flips, 4)).size
            assert acts[0] == winners[0] and acts[-1] == winners[-1]

    @staticmethod
    def _check_midpoints(inst):
        zs, acts = envelope(inst)
        assert acts.size == zs.size + 1
        assert np.all(np.diff(zs) > SUPPORT_MERGE_TOL)
        assert np.all((zs > 1e-12) & (zs < 1 - 1e-12))
        edges = np.concatenate([[0.0], zs, [1.0]])
        mids = 0.5 * (edges[:-1] + edges[1:])
        assert acts.tolist() == np.argmax(inst.agent_scores(mids),
                                          axis=1).tolist()

    def test_acts_are_the_argmax_on_each_piece(self):
        rng = np.random.default_rng(23)
        for k in range(300):
            m = int(rng.integers(1, 9))
            if k % 3 == 0:     # integer lines: exact ties, shared crossings
                v = rng.integers(-3, 4, (m, 2)).astype(float)
            else:
                v = rng.uniform(-1.0, 1.0, (m, 2))
            if k % 3 == 2 and m > 1:
                v[rng.integers(0, m)] = v[rng.integers(0, m)]
            self._check_midpoints(_lines(v))

    def test_duplicate_action_rows(self):
        # exact duplicates resolve to the lowest index, as argmax does
        zs, acts = envelope(_lines([[0, 0], [-1, 1], [-1, 1]]))
        assert zs.tolist() == [0.5] and acts.tolist() == [0, 1]
        zs, acts = envelope(_lines([[-1, 1], [1, -1], [1, -1]]))
        assert zs.tolist() == [0.5] and acts.tolist() == [1, 0]

    def test_parallel_lines(self):
        # a1 lies above its parallel a0 everywhere; a2 overtakes a1 at 0.6
        v = [[0.0, 1.0], [0.2, 1.2], [-1.0, 2.0]]
        zs, acts = envelope(_lines(v))
        assert zs.tolist() == [_crossing(v, 1, 2)]
        assert acts.tolist() == [1, 2]
        zs, acts = envelope(_lines([[0.0, 1.0], [0.5, 1.5]]))
        assert zs.size == 0 and acts.tolist() == [1]

    def test_three_lines_through_one_point(self):
        # the middle line is best only at p = 0.5 itself
        zs, acts = envelope(_lines([[1, -1], [0, 0], [-1, 1]]))
        assert zs.tolist() == [0.5] and acts.tolist() == [0, 2]
        zs, acts = envelope(_lines([[0, 0], [1, -1], [-1, 1]]))
        assert zs.tolist() == [0.5] and acts.tolist() == [1, 2]

    def test_breakpoints_within_the_merge_tolerance_merge(self):
        # a1 overtakes a0 at 0.5 and a2 overtakes a1 5e-13 later: one
        # breakpoint, and a1's sliver of a piece is dropped
        x = 0.5 + 5e-13
        zs, acts = envelope(_lines([[0, 0], [-0.5, 0.5],
                                    [-(x + 0.5), 1.5 - x]]))
        assert zs.tolist() == [0.5] and acts.tolist() == [0, 2]

    def test_one_action(self):
        zs, acts = envelope(_lines([[0.3, -0.2]]))
        assert zs.size == 0 and acts.tolist() == [0]

    def test_sentinel_meets_two_lines_at_once(self):
        # the falling sentinel a3 crosses a2 and a4 within 1e-18 of each
        # other, past what rounding can order; a2 is best from there to 0.5
        v = [[2, 0], [-2, -2], [1, 2], [INF, -INF], [0, 3]]
        inst = _lines(v)
        zs, acts = envelope(inst)
        assert acts.tolist() == [3, 2, 4]
        assert zs[1] == 0.5 and zs[0] == pytest.approx(0.5 - 7.5e-10,
                                                       abs=1e-15)
        self._check_midpoints(inst)

    def test_sentinel_crossings_that_rounding_misorders(self):
        # the falling sentinel a0 meets a1 and, under 1e-17 later, a2, but
        # the computed crossings come out the other way round; a1 is best
        # from there until a2 overtakes it
        v = [[1e9, -1e9], [-0.4036738186851505, 0.48351336013866075],
             [-1.556379829988487, 1.6362193691906182]]
        inst = _lines(v)
        assert _crossing(v, 0, 2) < _crossing(v, 0, 1)
        assert envelope(inst)[1].tolist() == [0, 1, 2]
        self._check_midpoints(inst)

    def test_sentinel_breakpoint_is_the_meeting_pair(self):
        # a6 is best at p = 0 and the sentinel action a4 overtakes it at
        # 3/(1e9 + 1); a2 crosses a4 within 1e-12 of that point but is
        # never best
        v = [[1, 3], [0, 2], [2, -3], [0, 0], [-1, 1e9], [-1, 0], [2, 2]]
        zs, acts = envelope(_lines(v))
        assert zs.tolist() == [_crossing(v, 4, 6)]
        assert zs[0] != _crossing(v, 2, 4)
        assert zs[0] == pytest.approx(3.0e-9, rel=1e-8)
        assert acts.tolist() == [6, 4]


class TestRuns:
    def test_chain_of_close_steps_is_one_run(self):
        tol = 1e-9
        values = np.array([0.1, 0.1 + 0.6e-9, 0.1 + 1.2e-9, 0.1 + 1.8e-9,
                           0.5, 0.5, 0.7])
        assert runs(values, tol).tolist() == [0, 4, 6]

    def test_matches_the_loop_and_the_predictor_merge(self):
        # reference: the loop each caller ran before; sorted values with
        # clusters, chains and exact repeats
        rng = np.random.default_rng(29)
        for _ in range(200):
            base = np.sort(rng.choice([0.1, 0.4, 0.9], 8))
            values = np.sort(base + rng.integers(0, 4, 8) * 0.6e-12)
            starts = [k for k in range(values.size)
                      if k == 0 or values[k] - values[k - 1] > 1e-12]
            assert runs(values, 1e-12).tolist() == starts
            mass = rng.dirichlet(np.ones(8), size=3)
            pred = Predictor(values, mass)
            ends = starts[1:] + [values.size]
            assert pred.support.tolist() == values[starts].tolist()
            want = np.column_stack([mass[:, s:e].sum(axis=1)
                                    for s, e in zip(starts, ends)])
            assert np.allclose(pred.mass, want, rtol=0, atol=4e-16)

    def test_empty_and_single(self):
        assert runs(np.zeros(0), 1e-12).size == 0
        assert runs(np.array([0.3]), 1e-12).tolist() == [0]

    def test_zero_tolerance_splits_distinct_values(self):
        values = np.array([0.0, 0.0, 1e-300, 1.0])
        assert runs(values, 0.0).tolist() == [0, 2, 3]


class TestIndirectUtility:
    def test_golden_table(self, golden):
        # payoff levels 5 / 0 / 1 / 2 on the four segments
        for p in (0.0, 1e-5 / 2, 1e-5):
            assert indirect_utility(golden, 0, p) == pytest.approx(5.0)
        assert indirect_utility(golden, 1, 0.5) == pytest.approx(0.0)
        assert indirect_utility(golden, 1, 0.9) == pytest.approx(1.0)
        assert indirect_utility(golden, 2, 0.95) == pytest.approx(1.0)
        assert indirect_utility(golden, 0, 1.0) == pytest.approx(2.0)

    def test_constant_utility(self):
        inst = make_instance([0.2, 0.7], [0.5, 0.5], [[1, 0], [0, 1]],
                             np.full((2, 2, 2), 3.0), 0.1)
        for p in np.linspace(0, 1, 7):
            assert indirect_utility(inst, 0, p) == pytest.approx(3.0)


class TestKappa:
    def test_full_pooling_is_calibrated(self, two_event):
        pred = point_mass(0.6, 2)
        assert kappa(pred, two_event, 0.6) == pytest.approx(0.6)

    def test_single_event(self):
        inst = make_instance([0.35], [1.0], [[0, 0]], [[[0, 0]]], 0.1)
        pred = Predictor([0.1, 0.9], [[0.5, 0.5]])
        assert kappa(pred, inst, 0.1) == pytest.approx(0.35)
        assert kappa(pred, inst, 0.9) == pytest.approx(0.35)

    def test_revealing_pair(self, two_event, f_ddagger):
        assert kappa(f_ddagger, two_event, 0.4) == pytest.approx(0.3)
        assert kappa(f_ddagger, two_event, 0.7) == pytest.approx(0.9)

    def test_zero_mass(self, two_event, f_ddagger):
        with pytest.raises(ValidationError) as err:
            kappa(f_ddagger, two_event, 0.55)
        assert err.value.code == "ZERO_MASS"

    def test_zero_marginal_point(self):
        # 0.8 is in the support, but only the zero-prior event sends it
        inst = make_instance([0.2, 0.8], [1.0, 0.0], [[0, 0]],
                             [[[0, 0]]] * 2, 0.1)
        pred = Predictor([0.2, 0.8], np.eye(2))
        with pytest.raises(ValidationError, match="no marginal mass") as err:
            kappa(pred, inst, 0.8)
        assert err.value.code == "ZERO_MASS"
        assert kappa(pred, inst, 0.2) == 0.2

    def test_kappa_within_mean_range(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            inst = random_instance(rng, epsilon=0.1)
            pred = random_predictor(rng, inst)
            marg = pred.marginal(inst.lam)
            for k in np.flatnonzero(marg > 0):
                val = kappa(pred, inst, pred.support[k])
                assert inst.theta[0] - 1e-12 <= val <= inst.theta[-1] + 1e-12


class TestEce:
    def test_constant_pool_all_norms(self, two_event, f_dagger):
        for t in (1.0, 2.0, INF):
            assert ece(f_dagger, two_event, t) == pytest.approx(0.2, abs=1e-12)

    def test_revealing_pair_norms(self, two_event, f_ddagger):
        assert ece(f_ddagger, two_event, 1.0) == pytest.approx(0.15, abs=1e-12)
        assert ece(f_ddagger, two_event, 2.0) == pytest.approx(
            math.sqrt(0.025), abs=1e-12)
        assert ece(f_ddagger, two_event, INF) == pytest.approx(0.2, abs=1e-12)

    def test_perfectly_calibrated_is_zero(self, two_event):
        revealing = Predictor([0.3, 0.9], [[1.0, 0.0], [0.0, 1.0]])
        for t in (1.0, 1.7, 3.0, INF):
            assert ece(revealing, two_event, t) == pytest.approx(0.0, abs=1e-15)

    def test_power_mean_monotonicity(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            inst = random_instance(rng, epsilon=0.1)
            pred = random_predictor(rng, inst)
            ts = [1.0, 1.5, 2.0, 4.0, 8.0]
            vals = [ece(pred, inst, t) for t in ts]
            top = ece(pred, inst, INF)
            for lo, hi in zip(vals, vals[1:]):
                assert lo <= hi + 1e-12
            assert vals[-1] <= top + 1e-12

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_norm_ordering_hypothesis(self, seed):
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, epsilon=0.1, n_max=3, m_max=2)
        pred = random_predictor(rng, inst, max_support=4)
        assert ece(pred, inst, 1.0) <= ece(pred, inst, 2.0) + 1e-12
        assert ece(pred, inst, 2.0) <= ece(pred, inst, INF) + 1e-12


class TestPayoffs:
    def test_golden_case1(self, golden):
        pred = Predictor([1e-5, 0.10001, 0.9],
                         [[0.8, 0.2, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        assert payoff(pred, golden) == pytest.approx(50 * 0.02 + 0.75, abs=1e-9)
        # stated constant is rounded to -9.999 eps; the exact value is -10 eps
        assert agent_payoff(pred, golden) == pytest.approx(-0.2, abs=1e-12)
        assert agent_payoff(pred, golden) == pytest.approx(-9.999 * 0.02,
                                                           abs=1e-4)

    def test_golden_case2_agent(self, golden):
        eps = 0.04
        pred = Predictor(
            [1e-5, 0.9, 1.0],
            [[1, 0, 0], [0, 1, 0], [0, 2 - 40 * eps, 40 * eps - 1]])
        assert payoff(pred, golden) == pytest.approx(10 * eps + 1.75, abs=1e-9)
        assert agent_payoff(pred, golden) == pytest.approx(99 * eps - 2.72498,
                                                           abs=1e-4)

    def test_zero_utility(self, two_event):
        pred = point_mass(0.6, 2)
        assert payoff(pred, two_event) == 0.0
        assert agent_payoff(pred, two_event) == 0.0

    def test_golden_full_pool_at_low_threshold(self, golden):
        pred = point_mass(1e-5, 3)
        assert payoff(pred, golden) == pytest.approx(5.0)

    def test_split_support_point_invariance(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            inst = random_instance(rng, epsilon=0.1)
            pred = random_predictor(rng, inst, max_support=3)
            k = int(rng.integers(0, pred.support.size))
            # split point k into two nearby copies carrying half the mass each
            delta = 4e-11 if pred.support[k] < 0.5 else -4e-11
            support = np.concatenate([pred.support,
                                      [pred.support[k] + delta]])
            mass = np.column_stack([pred.mass, pred.mass[:, k] / 2])
            mass[:, k] /= 2
            split = Predictor(support, mass)
            assert split.support.size == pred.support.size + 1
            assert payoff(split, inst) == pytest.approx(payoff(pred, inst),
                                                        abs=1e-7)


class TestInstanceHelpers:
    def test_with_epsilon(self, golden):
        other = golden.with_epsilon(0.5)
        assert other.epsilon == 0.5
        assert other.norm == golden.norm
        assert golden.epsilon == 0.04
        # only the budget is new: the read-only arrays are shared
        for name in ("theta", "ubar"):
            assert getattr(other, name) is getattr(golden, name)
        for eps in (-0.5, math.nan, math.inf, "1e400"):
            with pytest.raises(ValidationError) as err:
                golden.with_epsilon(eps)
            assert err.value.code == "BAD_BUDGET"

    def test_negative_zero_budget_is_zero(self, golden):
        raw = golden.to_json_dict()
        raw["epsilon"] = -0.0
        for inst in (golden.with_epsilon(-0.0), validate_instance(raw)):
            assert math.copysign(1.0, inst.epsilon) == 1.0

    def test_theta_bar(self, golden):
        assert golden.theta_bar == pytest.approx(0.7000025)


INSTANCE_ARRAYS = ("theta", "lam", "agent_utility", "principal_utility",
                   "ubar", "vbar_events", "agent_size", "agent_slope")


class TestReadOnlyArrays:
    """Every value object holds read-only arrays, whether a public
    constructor read them or a solver built them, and none of them is a
    caller's own array: the caller's stays writable, and writing into it
    leaves the object as it was."""

    @staticmethod
    def _refuse_writes(obj, names):
        for name in names:
            arr = getattr(obj, name)
            assert not arr.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                arr.flat[0] = arr.flat[0]

    def test_public_constructors_copy_and_freeze(self):
        given = {
            "theta": np.array([0.2, 0.8]), "lam": np.array([0.5, 0.5]),
            "v": np.array([[0.0, 0.0], [-1.0, 1.0]]), "u": np.ones((2, 2, 2)),
            "support": np.array([0.2, 0.8]), "mass": np.eye(2),
            "pi": np.eye(2), "bias": np.zeros(2),
            "knots": np.array([[0.0, 1.0], [1.0, 1.0]]),
            "q": np.array([0.3, 0.9]), "p": np.array([0.4, 0.7]),
            "w": np.array([0.5, 0.5]),
            "points": np.linspace(0.0, 1.0, 5), "zs": np.array([0.5]),
        }
        g = given
        made = [
            (Instance(g["theta"], g["lam"], ["a", "b"], g["v"], g["u"], 0.1),
             INSTANCE_ARRAYS),
            (Predictor(g["support"], g["mass"]), ("support", "mass")),
            (SenderStrategy(g["pi"], g["bias"]), ("pi", "bias")),
            (GammaCertificate(g["knots"], 0.0),
             ("knots_x", "knots_y")),
            (EventIndependentPlan(g["q"], g["p"], g["w"]), ("q", "p", "w")),
            (Grid(g["points"], 0.25, 0.0, 0, g["zs"]),
             ("points", "discontinuities")),
        ]
        held = [[getattr(obj, name).tobytes() for name in names]
                for obj, names in made]
        for obj, names in made:
            self._refuse_writes(obj, names)
        for arr in given.values():
            assert arr.flags.writeable
            arr += 0.125
        assert held == [[getattr(obj, name).tobytes() for name in names]
                        for obj, names in made]

    def test_built_objects_are_frozen(self, golden):
        strat, pred, objective = solve_exact(golden)
        [(_, _, _, walked)] = walk_budgets(golden, [golden.epsilon])
        approx, _ = fptas_solve(golden, 0.1)
        calibrated, plan = recalibrate(pred, golden)
        for obj, names in [
                (validate_instance(golden.to_json_dict()), INSTANCE_ARRAYS),
                (golden.with_epsilon(0.2), INSTANCE_ARRAYS),
                (strat, ("pi", "bias")),
                (pred, ("support", "mass")),
                (approx, ("support", "mass")),
                (calibrated, ("support", "mass")),
                (plan, ("q", "p", "w")),
                (certify(pred, golden, objective), ("weight", "actions")),
                (walked, ("weight", "actions")),
                (build_grid(golden, 0.1), ("points", "discontinuities"))]:
            self._refuse_writes(obj, names)
