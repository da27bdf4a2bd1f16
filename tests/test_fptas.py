import functools
import tracemalloc

import numpy as np
import pytest

import dataclasses

from caldesign import fptas, lp_core, model
from caldesign.cli import _fmt
from caldesign.errors import SolverError, ValidationError
from caldesign.fptas import (
    build_disc_lp,
    build_grid,
    fptas_solve,
    plan_to_predictor,
    solve_plan_lp,
)
from caldesign.model import (
    Predictor,
    agent_payoff,
    ece,
    envelope,
    indirect_utility_matrix,
    payoff,
)
from caldesign.exact import solve_exact

from cold import cold_solve
from conftest import (
    DATA,
    dense_column_generation,
    full_columns,
    make_instance,
    plan_program,
    random_feasible_plan,
    random_instance,
    with_norm,
)
from plans import make_plan, plan_from_records, plan_supply, plan_to_records
from rounding import round_plan
from test_exact import END_TIE, _sentinel_set


class TestGrid:
    def test_hand_expanded_example(self):
        inst = make_instance([0.5], [1.0], [[0.0, 0.0]], [[[1.0, 1.0]]],
                             epsilon=1.0, norm=1.0)
        g = build_grid(inst, 0.25)
        want = [0.0, 0.01171875, 0.109375, 0.1875, 0.25, 0.5,
                0.75, 0.8125, 0.890625, 0.98828125, 1.0]
        assert np.allclose(g.points, want, atol=1e-12)
        assert g.levels == 13
        assert g.delta0 == pytest.approx(0.25)

    def test_points_clipped_to_unit_interval(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            inst = random_instance(rng, epsilon=float(rng.uniform(0, 1)))
            g = build_grid(inst, float(rng.uniform(0.02, 0.3)))
            assert g.points[0] >= 0.0 and g.points[-1] <= 1.0
            assert np.all(np.diff(g.points) > 0)
            for th in inst.theta:
                assert np.min(np.abs(g.points - th)) <= 1e-12

    def test_bad_delta(self, golden):
        for bad in (0.0, 0.34, -0.1, 1.0):
            with pytest.raises(ValidationError) as err:
                build_grid(golden, bad)
            assert err.value.code == "BAD_DELTA"

    @pytest.mark.parametrize("bad", [None, [0.1], "x", True, float("nan")],
                             ids=["none", "list", "text", "true", "nan"])
    def test_delta_is_read_at_the_boundary(self, golden, bad):
        # delta is read as every number from outside is
        # (model.read_numbers): no TypeError or ValueError, and True is no
        # 1.0; on a max-norm instance BAD_DELTA still comes first
        max_norm = with_norm(golden, golden.epsilon, np.inf)
        for call in (build_grid, fptas_solve):
            for inst in (golden, max_norm):
                with pytest.raises(ValidationError) as err:
                    call(inst, bad)
                assert err.value.code == "BAD_DELTA"
        assert build_grid(golden, "0.2").delta == 0.2

    def test_zero_budget_collapses_local_layer(self, golden):
        g = build_grid(golden.with_epsilon(0.0), 0.1)
        base = set(np.round(np.arange(0, 1.0001, 0.1), 12))
        base |= set(np.round(golden.theta, 12))
        base |= set(np.round(g.discontinuities, 12))
        assert set(np.round(g.points, 12)) == base

    def test_size_bound(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            inst = random_instance(rng, epsilon=float(rng.uniform(0.005, 1)))
            delta = float(rng.uniform(0.03, 0.3))
            g = build_grid(inst, delta)
            cap = 4 * (1 / delta + (inst.m + inst.n) * g.levels)
            assert g.size <= cap

    def test_too_fine_a_delta_allocates_nothing(self, golden):
        # the point bound is checked before any point is made: delta 1e-9
        # would ask for gigabytes
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError) as err:
                build_grid(golden, 1e-9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert err.value.code == "BAD_DELTA"
        assert "cap" in str(err.value)
        assert peak < 2**20
        # the finest grid the suite dumps stays under the cap
        assert build_grid(golden, 0.0005).size == 183057


class TestDiscLp:
    """The plan LP over the continuum of q against the finite plan LPs on
    grids of q: at t = 1 the grid ``ps`` and the means loses nothing, and
    at t > 1 the continuum is at least as good as any grid."""

    def test_always_feasible(self):
        rng = np.random.default_rng(20)
        for _ in range(10):
            inst = random_instance(rng, epsilon=float(rng.uniform(0, 0.3)))
            prog = _program(inst)
            cols = full_columns(prog, build_grid(inst, 0.2).points)
            sol = cold_solve(plan_program(inst, cols))
            plan = cols.plan(sol.x)
            assert np.allclose(plan_supply(plan, inst.n), inst.lam, atol=1e-7)
            cols, sol = solve_plan_lp(prog, inst.epsilon)
            plan = cols.plan(sol.x)
            assert np.allclose(plan_supply(plan, inst.n), inst.lam, atol=1e-9)

    def test_large_budget_decouples_events(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            inst = random_instance(rng, epsilon=1.0)
            prog = _program(inst)
            want = float(inst.lam @ prog.U.max(axis=1))
            for value in (
                    cold_solve(plan_program(inst, full_columns(
                        prog, build_grid(inst, 0.2).points))).objective_value,
                    solve_plan_lp(prog, inst.epsilon)[1].objective_value):
                assert value == pytest.approx(want, abs=1e-7)

    def test_pairs_pool_means_at_distinct_points(self):
        # the chained means share the point 0.4 and pool only with the mean
        # at 0.9, calibrated at the predictions strictly between them
        inst = _merged_instance(0.1, CHAIN3 + (0.9,))
        prog = _program(inst)
        i, j = prog.pairs
        assert list(zip(i.tolist(), j.tolist())) == [(0, 3), (1, 3), (2, 3)]
        pooled = prog.fixed.take(np.flatnonzero(prog.fixed.i != prog.fixed.j))
        inside = prog.ps[(prog.ps > 0.4 + 1.8e-12) & (prog.ps < 0.9)]
        assert inside.size
        for i in range(3):
            mine = pooled.take(np.flatnonzero(pooled.i == i))
            assert mine.j.tolist() == [3] * inside.size
            assert np.array_equal(mine.p, inside)
            assert np.array_equal(mine.q, inside) and not mine.err.any()

    def test_single_event_columns(self):
        inst = make_instance([0.3], [1.0], [[0.0, 0.0], [-0.5, 0.5]],
                             np.ones((1, 2, 2)), 0.1)
        prog = _program(inst)
        assert prog.pairs[0].size == 0
        for cols in (prog.fixed,
                     full_columns(prog, build_grid(inst, 0.2).points)):
            assert np.all(cols.i == 0) and np.all(cols.j == 0)
            assert np.allclose(cols.q, 0.3)

    def test_reduced_matches_full_predictions(self):
        rng = np.random.default_rng(22)
        for _ in range(6):
            inst = random_instance(rng, epsilon=float(rng.uniform(0, 0.3)),
                                   n_max=3)
            points = build_grid(inst, 0.25).points
            # the literal all-grid program: every grid point a prediction
            every = build_disc_lp(inst, points)
            red = full_columns(_program(inst), points)
            full = full_columns(every, points)
            v_red = cold_solve(plan_program(inst, red)).objective_value
            v_full = cold_solve(plan_program(inst, full)).objective_value
            assert v_red == pytest.approx(v_full, abs=1e-7)

    def test_pricing_finds_every_pair_best_column(self):
        # for random row prices, the best candidate of each (pair,
        # prediction), the slice's ends among them, prices as high as every
        # column of it on a grid: at t = 1 exactly as high as on the grid of
        # the predictions and the means, at t > 1 at least as high as on a
        # dense grid.  Every candidate is a column of the program
        rng = np.random.default_rng(36)
        for trial in range(48):
            t = (1.0, 1.5, 2.0, 3.0)[trial % 4]
            eps = 0.0 if trial % 12 < 4 else float(rng.uniform(0, 0.3))
            inst = random_instance(rng, epsilon=eps, n_max=4, norm=t)
            prog = _program(inst)
            y = rng.uniform(-1.0, 1.0, inst.n + 1)
            y[0] = (0.0, 10.0 ** rng.uniform(-3, 2))[trial % 3 > 0]
            cand, reduced = prog.price(y, inst.epsilon)
            theta = inst.theta
            assert np.all((theta[cand.i] <= cand.q) & (cand.q <= theta[cand.j]))
            assert np.array_equal(cand.err, np.abs(cand.q - cand.p) ** t)
            assert not (eps == 0.0 and cand.err.any())
            best = {}
            for key, value in zip(zip(cand.i, cand.j, cand.p), reduced):
                best[key] = max(best.get(key, -np.inf), value)
            if t == 1.0:
                points = np.union1d(prog.ps, theta)
            else:
                points = np.union1d(build_grid(inst, 0.2).points,
                                    np.linspace(0.0, 1.0, 401))
            full = full_columns(prog, points)
            if eps == 0.0:   # a zero budget pays for no error
                full = full.take(np.flatnonzero(full.err == 0.0))
            lp = plan_program(inst, full)
            priced = lp.objective.copy()
            for price, coeffs in zip(y, lp.A):
                priced -= price * coeffs
            want = {}
            for key, value in zip(zip(full.i, full.j, full.p), priced):
                want[key] = max(want.get(key, -np.inf), value)
            if t == 1.0:
                assert set(best) <= set(want)
            for (i, j, p), value in want.items():
                mine = max(best.get(key, -np.inf)
                           for key in ((i, j, p), (i, i, p), (j, j, p)))
                if t == 1.0:
                    assert abs(mine - value) <= 1e-12 * (1 + abs(value))
                else:
                    assert mine >= value - 1e-12 * (1 + abs(value))

    def test_column_generation_matches_full_lp(self, solves):
        # at t = 1 the program's optimum is the plan LP's on the grid of
        # the predictions and the means, and its master holds columns of
        # that LP; at t = 2 it is at least a dense grid's, less the stop
        # gap, and at the stop no column of that grid prices above the
        # stop tolerance
        rng = np.random.default_rng(34)
        pooled = 0
        for trial in range(12):
            t = (1.0, 2.0)[trial % 2]
            eps = 0.0 if trial < 2 else float(rng.uniform(0, 0.3))
            inst = random_instance(rng, epsilon=eps, n_max=3, norm=t)
            prog = _program(inst)
            points = (np.union1d(prog.ps, inst.theta) if t == 1.0
                      else build_grid(inst, 0.25).points)
            everything = full_columns(prog, points)
            lp = plan_program(inst, everything)
            full = cold_solve(lp)
            solves.clear()
            cols, sol = solve_plan_lp(prog, inst.epsilon)
            # masters are solved whenever a pooled column beats the
            # calibrated plan
            pooling_pays = (full.objective_value
                            > prog.start()[1].objective_value + 1e-9)
            assert len(solves) >= pooling_pays
            pooled += pooling_pays
            gap = fptas.PRICE_TOL * (1.0 + abs(sol.objective_value))
            if t == 1.0:
                assert sol.objective_value == pytest.approx(
                    full.objective_value, abs=1e-7)
                # the master holds columns of the grid LP, bit for bit
                known = set(zip(everything.i, everything.j, everything.q,
                                everything.p, everything.obj, everything.err,
                                everything.r))
                assert known.issuperset(zip(cols.i, cols.j, cols.q, cols.p,
                                            cols.obj, cols.err, cols.r))
            else:
                assert sol.objective_value >= full.objective_value - gap
                master = fptas._master(inst, cols, inst.epsilon)
                y = lp_core.row_prices(master, sol)
                priced = lp.objective.copy()
                for price, coeffs in zip(y, lp.A):
                    priced -= price * coeffs
                # a zero budget leaves no column that spends room to price
                assert priced[(eps > 0.0) | (lp.A[0] == 0.0)].max() <= gap
            # distinct columns
            mine = list(zip(cols.i, cols.j, cols.q, cols.p))
            assert len(set(mine)) == len(mine)
            assert sol.x.shape == (cols.obj.size,)
            assert np.all(sol.x >= -1e-12)
            plan = cols.plan(sol.x)
            assert plan.w @ plan.err <= inst.epsilon**t + 1e-9
            assert np.allclose(plan_supply(plan, inst.n), inst.lam, atol=1e-9)
            # a vertex of a program with n + 1 rows
            assert np.count_nonzero(sol.x > 0) <= inst.n + 1
        assert 0 < pooled < 12

    def test_column_generation_matches_dense_references(self):
        # pricing a few candidates per pair enters other columns than
        # pricing every column, so only the optimal value must agree: at
        # t = 1 with both references on the grid of the predictions and the
        # means, at t = 2 it is at least theirs on a dense grid, less the
        # stop gap
        rng = np.random.default_rng(35)
        for trial in range(24):
            t = (1.0, 2.0)[trial % 2]
            eps = 0.0 if trial % 6 < 2 else float(rng.uniform(0, 0.3))
            inst = random_instance(rng, epsilon=eps, n_max=4, norm=t)
            prog = _program(inst)
            points = (np.union1d(prog.ps, inst.theta) if t == 1.0
                      else build_grid(inst, 0.2).points)
            cols = full_columns(prog, points)
            lp = plan_program(inst, cols)
            dense = cold_solve(lp).objective_value
            generated, _, _ = dense_column_generation(lp, cols)
            value = solve_plan_lp(prog, inst.epsilon)[1].objective_value
            gap = fptas.PRICE_TOL * (1.0 + abs(value))
            for want in (dense, generated):
                if t == 1.0:
                    assert abs(value - want) <= 1e-12 * (1 + abs(want))
                else:
                    assert value >= want - gap

    def test_masters_start_warm(self):
        # the column generation is priced at the calibrated plan and solves
        # its first master only once columns enter, from the crash basis,
        # each later one from the previous optimal basis (a rejected start
        # would raise); cold masters take 482 pivots here
        rng = np.random.default_rng(1003)
        pivots = 0
        for trial in range(50):
            inst = random_instance(rng, epsilon=(0.01, 0.1)[trial % 2])
            prog = _program(inst)
            pivots += solve_plan_lp(prog, inst.epsilon)[1].iterations
        assert pivots < 300

    def test_peak_memory_holds_no_columns(self):
        # the full LP here has millions of columns; materializing them took
        # a traced peak of about 333 MB, pricing per pair well under 1 MB
        inst = random_instance(np.random.default_rng(5), epsilon=0.1,
                               n_min=12, n_max=12, m_min=4, m_max=4)
        tracemalloc.start()
        try:
            fptas_solve(inst, 0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


def _acc3(count=25):
    """Acceptance 3's first ``count`` instances (seed 1003)."""
    rng = np.random.default_rng(1003)
    return [random_instance(rng, epsilon=(0.01, 0.1)[k % 2])
            for k in range(count)]


def _merged_instance(epsilon, theta=(0.4 + 5e-13, 0.8)):
    """Events of equal prior at the means ``theta`` and an agent whose one
    breakpoint is 0.4; by default the first mean lies 5e-13 above it, so it
    merges with that prediction point."""
    n = len(theta)
    u = np.random.default_rng(40).uniform(0.0, 1.0, (n, 2, 2))
    return make_instance(list(theta), [1.0 / n] * n,
                         [[0.0, 0.0], [-0.4, 0.6]], u, epsilon)


# means each within SUPPORT_MERGE_TOL of the one before, the last further
# than it from the run's first point 0.4, so all merge into 0.4
CHAINS = [(0.4 + 0.9e-12, 0.4 + 1.8e-12), (0.4 + 0.6e-12, 0.4 + 1.2e-12)]
CHAIN3 = (0.4, 0.4 + 0.9e-12, 0.4 + 1.8e-12)


def _program(inst):
    """The plan LP of ``inst`` and its calibrated plan, as fptas_solve
    builds them."""
    return build_disc_lp(inst, fptas._predictions(inst, envelope(inst)[0]))


@pytest.fixture
def builds(monkeypatch):
    """The instances that fptas.build_grid is called on, and that the plan
    program builds its diagonal entries and its pooled entries of, by
    name."""
    def spy_on(owner, name):
        real, calls = getattr(owner, name), []

        def spy(first, *args):
            calls.append(getattr(first, "inst", first))
            return real(first, *args)

        monkeypatch.setattr(owner, name, spy)
        return calls

    return {"build_grid": spy_on(fptas, "build_grid"),
            "_diagonal": spy_on(fptas.PlanProgram, "_diagonal"),
            "_pooled": spy_on(fptas.PlanProgram, "_pooled")}


class TestCalibratedStart:
    """The calibrated plan is settled from the n x P utilities; the
    program's pairs and candidates are built, and column generation is
    priced at the calibrated plan, only when it can be improved; no grid is
    built."""

    def test_closed_form_matches_the_diagonal_master(self):
        # the diagonal master solved from its crash basis, as the column
        # generation once began, prices and solves as the closed form says
        rng = np.random.default_rng(41)
        cases = [_merged_instance(0.1)]
        for trial in range(24):
            eps = 0.0 if trial % 4 == 0 else float(rng.uniform(0, 0.3))
            cases.append(random_instance(rng, epsilon=eps,
                                         norm=(1.0, 2.0, 3.0)[trial % 3]))
        for inst in cases:
            prog = _program(inst)
            cols, sol, y = prog.start()
            # every start column spends nothing, the merged mean's too, and
            # is the program's diagonal candidate at its mean's point, bit
            # for bit
            assert not cols.err.any()
            diagonal = prog._diagonal().take(
                np.arange(inst.n) * prog.ps.size + prog.at)
            for f in dataclasses.fields(cols):
                assert np.array_equal(getattr(cols, f.name),
                                      getattr(diagonal, f.name))
            master = fptas._master(inst, cols, inst.epsilon)
            lp = lp_core.solve(master, basis=sol.basis)
            assert np.abs(lp_core.row_prices(master, lp) - y).max() <= 1e-12
            assert np.array_equal(lp.x, inst.lam)
            assert np.array_equal(sol.x, inst.lam)
            assert lp.objective_value == sol.objective_value
            assert lp.basis.tolist() == sol.basis.tolist()
            assert lp.iterations == sol.iterations == 0

    def test_merged_mean_solves_calibrated(self):
        # at a zero budget the mean merged with the breakpoint 0.4 reports
        # that point and spends nothing of the budget; the calibrated
        # predictor comes back certified
        inst = _merged_instance(0.0)
        pred, obj = fptas_solve(inst, 0.1)
        assert pred.support.tolist() == [0.4, 0.8]
        assert np.array_equal(pred.mass, np.eye(2))
        assert ece(pred, inst) <= 1e-12
        assert obj == payoff(pred, inst)

    @pytest.mark.parametrize("theta", CHAINS)
    def test_chained_means_solve_calibrated(self, theta):
        # both means merge into the breakpoint 0.4, though the second lies
        # further than SUPPORT_MERGE_TOL from it: at a zero budget both
        # report 0.4 and the predictor comes back certified
        inst = _merged_instance(0.0, theta)
        prog = _program(inst)
        assert prog.ps[prog.at].tolist() == [0.4, 0.4]
        pred, obj = fptas_solve(inst, 0.1)
        assert pred.support.tolist() == [0.4]
        assert np.array_equal(pred.mass, np.ones((2, 1)))
        assert ece(pred, inst) <= 1e-11
        assert obj == payoff(pred, inst)

    def test_overspent_start_raises_as_lp_core_does(self):
        # the diagonal master at the prediction 0.6, which misses both
        # means: its calibrated plan spends more than the zero budget, and
        # lp_core rejects the crash start
        inst = _merged_instance(0.0)
        n = inst.n
        at = np.arange(n)
        U = indirect_utility_matrix(inst, np.array([0.6]))[:, 0]
        cols = fptas.PlanColumns(at, at, inst.theta, np.full(n, 0.6), U,
                                 np.abs(inst.theta - 0.6) ** inst.norm,
                                 np.ones(n))
        assert cols.err @ inst.lam > 0.0
        master = fptas._master(inst, cols, inst.epsilon)
        with pytest.raises(SolverError) as err:
            lp_core.solve(master, basis=np.concatenate([[n], at]))
        assert "start basis rejected: infeasible start" in str(err.value)

    def test_early_check_agrees_with_the_full_path(self, solves):
        # where no diagonal reduced cost is above 0, the grid program's
        # first pricing round finds nothing above PRICE_TOL and its column
        # generation returns its start, the calibrated plan, bit for bit
        rng = np.random.default_rng(43)
        seeded = []
        for k in range(48):
            eps = 0.0 if k % 3 == 0 else float(rng.uniform(0, 0.6))
            seeded.append(random_instance(rng, epsilon=eps,
                                          norm=(1.0, 1.5, 2.0, 3.0)[k % 4],
                                          n_max=6, m_max=5))
        sentinel = [inst for budget in ("wide", "tight")
                    for inst in _sentinel_set(budget) if inst.norm == 1.0]
        sets = {"acc3": _acc3(50), "seeded": seeded, "sentinel": sentinel}
        fired = {}
        for name, insts in sets.items():
            fired[name] = 0
            for inst in insts:
                prog = _program(inst)
                if prog.improvable:
                    continue
                fired[name] += 1
                start, crash, prices = prog.start()
                assert np.array_equal(prices[1:], prog.own)
                reduced = prog.price(prices, inst.epsilon)[1]
                tol = fptas.PRICE_TOL * (1.0 + abs(crash.objective_value))
                assert reduced.max() <= tol
                cols, sol = solve_plan_lp(prog, inst.epsilon)
                for f in dataclasses.fields(cols):
                    assert np.array_equal(getattr(cols, f.name),
                                          getattr(start, f.name))
                assert np.array_equal(sol.x, crash.x)
                assert sol.objective_value == crash.objective_value
                full = plan_to_predictor(cols.plan(sol.x), inst)
                pred, obj = fptas_solve(inst, 0.1)
                assert np.array_equal(pred.support, full.support)
                assert np.array_equal(pred.mass, full.mass)
                assert obj == sol.objective_value
        assert solves == []
        assert fired == {"acc3": 33, "seeded": 24, "sentinel": 1}

    @pytest.mark.parametrize("gain,improved", [(1e-12, False),
                                               (1e-3, True)])
    def test_any_gain_builds_the_program(self, solves, builds, gain,
                                         improved):
        # one event at 0.45; above the agent's breakpoint at 0.5 the
        # designer gains ``gain``.  Any gain above 0 builds the program's
        # candidates, once, and no grid; one within the stop tolerance
        # enters no column there, so the calibrated plan comes back as
        # before
        u = np.ones((1, 2, 2))
        u[0, 1] += gain
        inst = make_instance([0.45], [1.0], [[0.0, 0.0], [-0.5, 0.5]], u,
                             0.1)
        assert _program(inst).improvable
        obj = fptas_solve(inst, 0.1)[1]
        assert {name: len(calls) for name, calls in builds.items()} == {
            "build_grid": 0, "_diagonal": 1, "_pooled": 1}
        assert bool(solves) == improved
        assert obj == pytest.approx(1.0 + (gain if improved else 0.0),
                                    abs=1e-15)

    def test_single_piece_envelope_solves_no_lp(self, solves, builds):
        # one best action on all of [0, 1]: no pooled column pays, so no
        # LP is solved and the calibrated predictor comes back; 17 of
        # acceptance 3's first 25 instances are such.  Two more have no
        # misalignment either: neither builds the program's candidates,
        # each of the other six builds them once, and none builds a grid
        insts = _acc3()
        single = [inst for inst in insts if len(envelope(inst)[1]) == 1]
        assert len(single) == 17
        for inst in single:
            pred, obj = fptas_solve(inst, 0.1)
            assert np.array_equal(pred.support, inst.theta)
            assert np.array_equal(pred.mass, np.eye(inst.n))
            assert obj == pytest.approx(payoff(pred, inst), abs=1e-12)
        assert solves == []
        for inst in insts:
            fptas_solve(inst, 0.1)
        # the builds run on each instance's events sorted by mean
        misaligned = [np.sort(insts[k].theta) for k in (4, 7, 11, 20, 21, 24)]
        assert builds["build_grid"] == []
        assert builds["_pooled"] == builds["_diagonal"]
        calls = builds["_diagonal"]
        assert len(calls) == len(misaligned)
        for inst, theta in zip(calls, misaligned):
            assert np.array_equal(inst.theta, theta)

    def test_settled_solves_build_no_diagonal(self, monkeypatch):
        # only the plan program's candidates hold the n x P diagonal: none
        # of acceptance 3's 19 settled solves builds them, and none of them
        # makes any column, not even the n start columns; each of the six
        # that price builds the diagonal once
        diagonals, made = [], []
        real_diagonal, real_columns = (fptas.PlanProgram._diagonal,
                                       fptas.PlanColumns)

        def diagonal(prog):
            diagonals[-1] += 1
            return real_diagonal(prog)

        def columns(*args, **kwargs):
            made[-1] += 1
            return real_columns(*args, **kwargs)

        monkeypatch.setattr(fptas.PlanProgram, "_diagonal", diagonal)
        monkeypatch.setattr(fptas, "PlanColumns", columns)
        insts = _acc3()
        for inst in insts:
            diagonals.append(0)
            made.append(0)
            fptas_solve(inst, 0.1)
        programs = [4, 7, 11, 20, 21, 24]
        assert [k for k, count in enumerate(diagonals) if count] == programs
        assert {diagonals[k] for k in programs} == {1}
        assert [k for k, count in enumerate(made) if count] == programs

    def test_settled_solves_convert_nothing(self, monkeypatch, solves,
                                            builds):
        # a settled solve reads its predictor off the calibrated plan: no
        # LpSolution, grid, pair, candidate, LP or plan conversion
        calls = {"plan_to_predictor": [], "LpSolution": []}
        for owner, name in ((fptas, "plan_to_predictor"),
                            (lp_core, "LpSolution")):
            def spy(*args, real=getattr(owner, name), seen=calls[name]):
                seen.append(args)
                return real(*args)

            monkeypatch.setattr(owner, name, spy)
        programs = []

        def build(*args, real=fptas.build_disc_lp):
            programs.append(real(*args))
            return programs[-1]

        monkeypatch.setattr(fptas, "build_disc_lp", build)
        settled = [inst for inst in _acc3(50)
                   if not _program(inst).improvable]
        assert len(settled) == 33
        programs.clear()
        for inst in settled:
            fptas_solve(inst, 0.1)
        assert calls == {"plan_to_predictor": [], "LpSolution": []}
        assert solves == [] and builds == {"build_grid": [], "_diagonal": [],
                                           "_pooled": []}
        # the lazy parts of each program were never asked for
        assert len(programs) == 33
        assert not any({"pairs", "fixed"} & set(vars(prog))
                       for prog in programs)

    def test_settled_predictor_is_the_converted_plan(self):
        # the closed form is plan_to_predictor on the calibrated plan's
        # columns, the program's start, bit for bit: zero and tiny priors, equal and chained
        # means, events in any order, t in {1, 2, 3}, a zero budget
        rng = np.random.default_rng(47)
        cases = [_merged_instance(0.0, theta) for theta in CHAINS]
        cases.append(_merged_instance(0.0, CHAIN3))
        for k in range(240):
            inst = random_instance(rng, 0.0, (1.0, 2.0, 3.0)[k % 3],
                                   n_max=6, m_max=4)
            theta, lam = inst.theta.copy(), inst.lam.copy()
            if k % 4 == 1 and inst.n > 1:
                theta[rng.integers(0, inst.n, 2)] = theta[0]
            if k % 4 == 2:
                theta[:3] = np.array(CHAIN3)[:inst.n]
            if k % 3 == 0 and inst.n > 1:
                lam[rng.integers(0, inst.n)] = (0.0, 1e-13)[k % 2]
                lam /= lam.sum()
            u = inst.principal_utility
            if k % 2:   # integer utilities tie often, and settle
                u = np.floor(3.0 * u)
            order = rng.permutation(inst.n)
            cases.append(make_instance(theta[order], lam[order],
                                       inst.agent_utility, u[order], 0.0,
                                       inst.norm))
        settled = 0
        for inst in cases:
            order = np.argsort(inst.theta, kind="stable")
            view = inst._in_order(order)
            prog = _program(view)
            start, crash, _ = prog.start()
            plan = start.plan(crash.x)
            plan.i, plan.j = order[plan.i], order[plan.j]
            want = plan_to_predictor(plan, inst)
            pred, value = prog.settled(inst)
            assert np.array_equal(pred.support, want.support)
            assert np.array_equal(pred.mass, want.mass)
            assert value == crash.objective_value
            if not prog.improvable:
                settled += 1
                got, obj = fptas_solve(inst, 0.1)
                assert np.array_equal(got.support, want.support)
                assert np.array_equal(got.mass, want.mass)
                assert obj == float(start.obj @ view.lam)
        assert settled == 149

    def test_lp_calls_and_pivots_are_pinned(self, solves):
        # (lp_core.solve calls, pivots) over acceptance 3's first 25
        # instances at delta 0.1.  A later change may only lower these
        # counts, and each re-pin is recorded in CHANGES.md; the split tie
        # points of fptas._predictions raised the pivots from 29 to 39,
        # and pricing over the continuum of q lowered (12, 39) to (9, 29)
        for inst in _acc3():
            fptas_solve(inst, 0.1)
        assert not [out for _, _, out in solves
                    if isinstance(out, SolverError)]
        counts = len(solves), sum(sol.iterations for _, _, sol in solves)
        assert counts == (9, 29)


class TestPlanToPredictor:
    def test_diagonal_plan_reveals(self, golden):
        n = golden.n
        plan = make_plan(golden, range(n), range(n), golden.theta,
                         golden.theta, golden.lam)
        pred = plan_to_predictor(plan, golden)
        assert ece(pred, golden, 1.0) <= 1e-12
        assert np.allclose(np.sort(pred.support), golden.theta)

    @pytest.mark.parametrize("theta,support", [(CHAIN3, [0.4]),
                                               (CHAIN3 + (0.9,), [0.4, 0.9])])
    def test_chained_predictions_share_a_point(self, theta, support):
        # the diagonal plan on chained means: each prediction's mass lands
        # on the first point of its run, 0.4
        inst = _merged_instance(0.0, theta)
        n = inst.n
        plan = make_plan(inst, range(n), range(n), inst.theta, inst.theta,
                         inst.lam)
        pred = plan_to_predictor(plan, inst)
        assert pred.support.tolist() == support
        at = [0, 0, 0, 1][:n]
        assert np.array_equal(pred.mass, np.eye(len(support))[at])

    def test_zero_prior_event_takes_the_nearest_point(self):
        # the plan gives the zero-prior event at 0.9 no mass: it is put on
        # the support point nearest its mean, 0.8, by the rule that
        # exact.strategy_to_predictor follows too; with no marginal mass it
        # moves neither ece nor payoff, wherever it is put
        inst = make_instance([0.2, 0.8, 0.9], [0.5, 0.5, 0.0],
                             [[0.0, 0.0], [-0.5, 0.5]],
                             np.tile([[1.0, 1.0], [0.0, 3.0]], (3, 1, 1)),
                             0.0)
        plan = make_plan(inst, [0, 1], [0, 1], [0.2, 0.8], [0.2, 0.8],
                         [0.5, 0.5])
        pred = plan_to_predictor(plan, inst)
        assert pred.support.tolist() == [0.2, 0.8]
        assert pred.mass.tolist() == [[1, 0], [0, 1], [0, 1]]
        elsewhere = Predictor(pred.support, [[1, 0], [0, 1], [1, 0]])
        own_mean = Predictor([0.2, 0.8, 0.9], np.eye(3))
        for other in (elsewhere, own_mean):
            assert ece(other, inst) == ece(pred, inst)
            assert payoff(other, inst) == payoff(pred, inst)

    def test_equal_mean_pair_splits_half(self):
        inst = make_instance([0.5, 0.5], [0.5, 0.5], [[0.0, 0.0]],
                             np.zeros((2, 1, 2)), 0.5)
        plan = make_plan(inst, [0, 1], [0, 1], [0.5, 0.5], [0.125, 0.875],
                         [0.5, 0.5])
        pred = plan_to_predictor(plan, inst)
        assert np.allclose(pred.support, [0.125, 0.875])
        assert pred.mass[0, 0] == pytest.approx(1.0)
        assert pred.mass[1, 1] == pytest.approx(1.0)

    def test_payoff_matches_plan_objective(self):
        rng = np.random.default_rng(24)
        for _ in range(40):
            inst = random_instance(rng, epsilon=0.5, n_min=2)
            plan = random_feasible_plan(rng, inst, anchors_only=False)
            pred = plan_to_predictor(plan, inst)
            assert payoff(pred, inst) == pytest.approx(
                plan.w @ plan.obj, abs=1e-9)

    def test_plan_keeps_the_columns_with_mass(self, golden):
        # perfbench's tracer counts the columns a plan uses as len(plan)
        at = [0, 1, 2, 2]
        cols = make_plan(golden, at, at, golden.theta[at], golden.theta[at],
                         np.zeros(4))
        weights = np.array([0.25, 1e-12, 0.0, 0.75])
        plan = cols.plan(weights)
        assert len(plan) == np.count_nonzero(weights > 1e-12) == 2
        assert plan.w.tolist() == [0.25, 0.75]
        assert plan.i.tolist() == [0, 2] and len(cols) == 4

    def test_share_is_clipped(self):
        # a share a rounding ulp above 1 would hand the high event a
        # negative mass, which a small prior blows up past BAD_MASS's 1e-12
        inst = make_instance([0.2, 0.8], [1.0 - 1e-6, 1e-6],
                             [[0.0, 0.0]], np.zeros((2, 1, 2)), 0.0)
        plan = make_plan(inst, [0, 1], [1, 1], [0.2, 0.8], [0.2, 0.8],
                         inst.lam)
        plan = dataclasses.replace(plan, r=np.array([1.0 + 1e-12, 1.0]))
        pred = plan_to_predictor(plan, inst)
        assert pred.mass.tolist() == [[1.0, 0.0], [0.0, 1.0]]

    def test_supply_violation(self, golden):
        plan = make_plan(golden, [0], [0], [golden.theta[0]], [0.5], [1.0])
        with pytest.raises(ValidationError) as err:
            plan_to_predictor(plan, golden)
        assert err.value.code == "SUPPLY_VIOLATION"

    def test_error_bound(self):
        # predictor calibration error never exceeds the plan's raw error
        rng = np.random.default_rng(25)
        for t in (1.0, 2.0):
            for _ in range(40):
                inst = random_instance(rng, epsilon=0.5, n_min=2, norm=t)
                plan = random_feasible_plan(rng, inst, anchors_only=False)
                pred = plan_to_predictor(plan, inst)
                assert ece(pred, inst, t) ** t <= plan.w @ plan.err + 1e-7

    def test_record_round_trip(self):
        rng = np.random.default_rng(33)
        inst = random_instance(rng, epsilon=0.5, n_min=2)
        plan = random_feasible_plan(rng, inst)
        records = plan_to_records(plan)
        assert all(set(r) == {"i", "j", "q", "p", "mass"} for r in records)
        again = plan_from_records(records, inst)
        assert np.allclose(plan_supply(again, inst.n),
                           plan_supply(plan, inst.n))
        assert again.w @ again.err == pytest.approx(plan.w @ plan.err)

    def test_mass_conservation(self):
        rng = np.random.default_rng(26)
        for _ in range(20):
            inst = random_instance(rng, epsilon=0.5, n_min=2)
            plan = random_feasible_plan(rng, inst)
            assert plan_supply(plan, inst.n).sum() == pytest.approx(
                1.0, abs=1e-12)


class TestRoundPlan:
    def test_calibrated_diagonal_stays_calibrated(self, golden):
        inst = golden.with_epsilon(0.1)
        grid = build_grid(inst, 0.1)
        n = inst.n
        plan = make_plan(inst, range(n), range(n), inst.theta, inst.theta,
                         inst.lam)
        rounded = round_plan(plan, inst, grid)
        assert rounded.w @ rounded.err <= 1e-15
        assert np.allclose(plan_supply(rounded, inst.n), inst.lam, atol=1e-12)

    def test_small_gap_case_traced_by_hand(self):
        # two events at 0.2 / 0.8; miscalibrate the pooled outcome q = 0.41
        # to the prediction p = 0.4 (an action breakpoint). With eps = 0.04,
        # delta = 0.1: delta0 = 4e-3, the gap 0.01 is below delta0, so the
        # remaining 1/(1+2 delta) fraction spreads q onto p (weight
        # (q_R - q)/(q_R - q_L) with q_R = p + delta0 = 0.404... wait gap
        # 0.01 > delta0 = 0.004) -- exercised with eps = 0.2 instead:
        # delta0 = 0.02 > 0.01, q_L = max(0.2, 0.4) = 0.4,
        # q_R = min(0.42, 0.8) = 0.42, weights 1/2 each.
        inst = make_instance(
            [0.2, 0.8], [0.5, 0.5], [[0.0, 0.0], [-0.4, 0.6]],
            np.ones((2, 2, 2)), epsilon=0.2, norm=1.0)
        grid = build_grid(inst, 0.1)
        # r = (0.8 - 0.41) / 0.6 = 0.65, so the pooled entry consumes 0.065
        # of event 0 and 0.035 of event 1
        plan = make_plan(inst, [0, 0, 1], [1, 0, 1], [0.41, 0.2, 0.8],
                         [0.4, 0.2, 0.8], [0.1, 0.435, 0.465])
        assert np.allclose(plan_supply(plan, inst.n), inst.lam, atol=1e-12)
        rounded = round_plan(plan, inst, grid)
        keep = 1 / 1.2
        moved = {}
        for i, j, q, p, w in zip(rounded.i, rounded.j, rounded.q, rounded.p,
                                 rounded.w):
            moved[(i, j, round(q, 12), round(p, 12))] = w
        assert moved[(0, 1, 0.4, 0.4)] == pytest.approx(keep * 0.1 * 0.5)
        assert moved[(0, 1, 0.42, 0.4)] == pytest.approx(keep * 0.1 * 0.5)
        assert rounded.w @ rounded.err <= plan.w @ plan.err + 1e-15

    def test_requires_anchor_predictions(self, golden):
        inst = golden.with_epsilon(0.1)
        grid = build_grid(inst, 0.1)
        plan = make_plan(inst, [0, 1, 2], [0, 1, 2], inst.theta,
                         [0.5, 0.9, 1.0], [0.25, 0.5, 0.25])
        with pytest.raises(ValidationError) as err:
            round_plan(plan, inst, grid)
        assert err.value.code == "PRECONDITION_VIOLATION"

    def test_guarantees_on_random_plans(self):
        rng = np.random.default_rng(27)
        for trial in range(60):
            delta = (0.05, 0.1)[trial % 2]
            inst = random_instance(rng, epsilon=0.0, n_min=2)
            plan = random_feasible_plan(rng, inst)
            raw = plan.w @ plan.err
            inst = inst.with_epsilon(raw if raw > 0 else 0.05)
            grid = build_grid(inst, delta)
            rounded = round_plan(plan, inst, grid)
            for q in rounded.q:
                assert np.min(np.abs(grid.points - q)) <= 1e-12
            assert rounded.w @ rounded.err <= plan.w @ plan.err + 1e-12
            assert rounded.w @ rounded.obj >= \
                (1 - 3 * delta) * (plan.w @ plan.obj) - 1e-9
            assert np.allclose(plan_supply(rounded, inst.n), inst.lam,
                               atol=1e-7)

    def test_budget_preserved_for_quadratic_norm(self):
        rng = np.random.default_rng(28)
        for _ in range(30):
            inst = random_instance(rng, epsilon=0.0, n_min=2, norm=2.0)
            plan = random_feasible_plan(rng, inst)
            raw = plan.w @ plan.err
            inst = inst.with_epsilon(max(raw ** 0.5, 0.05))
            grid = build_grid(inst, 0.1)
            rounded = round_plan(plan, inst, grid)
            assert rounded.w @ rounded.err <= inst.epsilon ** 2 + 1e-9


class TestFptasSolve:
    def test_golden_guarantee(self, golden):
        pred, obj = fptas_solve(golden, 0.1)
        assert obj >= 0.9 * 2.15 - 1e-9
        assert ece(pred, golden, 1.0) <= golden.epsilon + 1e-7
        assert payoff(pred, golden) == pytest.approx(obj, abs=1e-6)

    def test_zero_budget_stays_calibrated(self):
        rng = np.random.default_rng(29)
        for _ in range(5):
            inst = random_instance(rng, epsilon=0.0, n_min=2)
            pred, obj = fptas_solve(inst, 0.3)
            assert ece(pred, inst, 1.0) <= 1e-7
            _, _, exact_obj = solve_exact(inst, tie_break=None)
            assert obj <= exact_obj + 1e-7

    def test_quadratic_norm_against_fine_reference(self):
        rng = np.random.default_rng(30)
        inst = random_instance(rng, epsilon=0.15, n_max=2, n_min=2,
                               m_max=2, m_min=2, norm=2.0)
        coarse_pred, coarse = fptas_solve(inst, 0.4)
        _, fine = fptas_solve(inst, 0.04)
        assert ece(coarse_pred, inst, 2.0) <= inst.epsilon + 1e-7
        assert coarse >= (1 - 0.4) * fine - 1e-9

    @pytest.mark.parametrize("check,fake", [
        ("ece", lambda pred, inst: inst.epsilon + 1e-6),
        ("payoff", lambda pred, inst: 10.0),
    ])
    def test_certificate_failure_raises(self, golden, monkeypatch, check,
                                        fake):
        # the certificate fptas_solve ends with is solve_exact's,
        # model.certify, which checks the one evaluation model._evaluate makes
        fptas_solve(golden, 0.1)
        evaluate = model._evaluate
        monkeypatch.setattr(model, "_evaluate", lambda pred, inst: evaluate(
            pred, inst)._replace(**{check: fake(pred, inst)}))
        with pytest.raises(SolverError) as err:
            fptas_solve(golden, 0.1)
        assert err.value.code == "UNCERTIFIED"

    def test_approximation_vs_exact(self):
        rng = np.random.default_rng(31)
        for trial in range(10):
            eps = (0.01, 0.1)[trial % 2]
            inst = random_instance(rng, epsilon=eps)
            _, _, opt = solve_exact(inst, tie_break=None)
            pred, obj = fptas_solve(inst, 0.1)
            assert obj >= (1 - 0.1) * opt - 1e-9
            assert obj <= opt + 1e-6
            assert ece(pred, inst, 1.0) <= eps + 1e-7

    @pytest.mark.parametrize("name", ["acc3", "t1-draws"])
    def test_bracket_at_delta_001(self, name):
        # the (1 - delta) bracket at delta 0.01 against the exact optimum.
        # Before the split tie points (fptas._predictions) the plan LP could
        # not see a plan that moves mass to a tie point: acceptance 3 missed
        # on #11, #34 and #46 (down to 0.964), the t = 1 draws on 19 (down
        # to 0.900), and one raised UNCERTIFIED
        if name == "acc3":
            insts = _acc3(50)
        else:
            insts = []
            for seed in (0, 1):
                rng = np.random.default_rng(seed)
                insts += [random_instance(rng, rng.uniform(0, 0.3), 1.0,
                                          n_min=1, n_max=8, m_min=1, m_max=6)
                          for _ in range(300)]
        misses = []
        for k, inst in enumerate(insts):
            _, _, opt = solve_exact(inst, tie_break=None)
            try:
                obj = fptas_solve(inst, 0.01)[1]
            except SolverError as err:
                misses.append((k, err.code))
                continue
            if not 0.99 * opt - 1e-9 <= obj <= opt + 1e-6:
                misses.append((k, obj / opt))
        assert misses == []


@functools.lru_cache(maxsize=None)
def _edge_draws(epsilon, t):
    """Three hundred small draws (n in [2, 5], m in [2, 4]) at budget
    ``epsilon`` in the ``t``-norm; after each, a coin rounds three times
    both utility tables to integers, so that actions and events tie."""
    rng = np.random.default_rng(5)
    out = []
    for _ in range(300):
        inst = random_instance(rng, epsilon, t, 5, 4, 2, 2)
        if rng.random() < 0.5:
            inst = make_instance(inst.theta, inst.lam,
                                 np.round(3.0 * inst.agent_utility),
                                 np.round(3.0 * inst.principal_utility),
                                 epsilon, t)
        out.append(inst)
    return out


EDGE_CELLS = [(t, eps) for t in (1.0, 2.0, 3.0) for eps in (0.0, 1e-6, 0.05)]
# agent ties at a prediction of 0 or 1: the first three raise in every
# cell, the other two miss the bracket at t = 1 and a budget of 0.05
END_TIE_DRAWS = (66, 159, 280)
END_TIE_LOW = (117, 191)
# solve_exact raises at t = 1 ("signals meet at biased mean ... a budget of
# 0 leaves no room"; "4 actions meet at ..."): CHANGES.md FOUND
# exact._separate
EXACT_RAISES = {0.0: (200,), 1e-6: (), 0.05: (149,)}
SEPARATE = ("CHANGES.md FOUND exact._separate: more than two signals meet at "
            "a biased mean, or the budget leaves no room to separate them")


class TestEdgeDraws:
    """fptas on small draws with integer ties at zero and tiny budgets,
    where a plan that pools at a bare breakpoint (which the LP values below
    what ``payoff`` pays) or at a split point (which spends budget) fails
    its certificate, and a zero-budget row can end in NUMERICAL_FAILURE."""

    @pytest.mark.parametrize("t,epsilon", EDGE_CELLS)
    def test_every_draw_certifies(self, t, epsilon):
        # fptas_solve certifies what it returns, or raises; at t = 1 it
        # lands within (1 - delta) of the exact optimum
        for k, inst in enumerate(_edge_draws(epsilon, t)):
            if k in END_TIE_DRAWS:
                continue
            obj = fptas_solve(inst, 0.1)[1]
            if t == 1.0 and k not in END_TIE_LOW + EXACT_RAISES[epsilon]:
                opt = solve_exact(inst, tie_break=None)[2]
                assert obj >= 0.9 * opt - 1e-9, k

    def test_master_columns_never_enter_again(self, monkeypatch):
        # draw 135 at t = 3 and a budget of 1e-6 (eps^t = 1e-18): its third
        # master prices one of its own columns at 1.4e-8, above PRICE_TOL
        # (1 + |objective|), through the rounding of the tiny budget row.
        # Without the floor of the stop tolerance that column entered again
        # in every round, and the solve never ended
        inst = _edge_draws(1e-6, 3.0)[135]
        real, masters = lp_core.solve, []

        def solve(lp, basis):
            masters.append(lp)
            assert len(masters) <= 30, "the column generation goes on"
            return real(lp, basis)

        monkeypatch.setattr(lp_core, "solve", solve)
        cols, _ = solve_plan_lp(_program(inst), inst.epsilon)
        mine = list(zip(cols.i, cols.j, cols.q, cols.p))
        assert len(set(mine)) == len(mine)
        assert 3 <= len(masters) <= 10

    @pytest.mark.parametrize("t,epsilon,k", [
        pytest.param(t, eps, k, marks=pytest.mark.xfail(
            strict=True, raises=SolverError, reason=END_TIE))
        for t, eps in EDGE_CELLS for k in END_TIE_DRAWS])
    def test_end_tie_certifies(self, t, epsilon, k):
        fptas_solve(_edge_draws(epsilon, t)[k], 0.1)

    @pytest.mark.parametrize("k", [
        pytest.param(k, marks=pytest.mark.xfail(
            strict=True, raises=AssertionError, reason=END_TIE))
        for k in END_TIE_LOW])
    def test_end_tie_within_guarantee(self, k):
        inst = _edge_draws(0.05, 1.0)[k]
        opt = solve_exact(inst, tie_break=None)[2]
        assert fptas_solve(inst, 0.1)[1] >= 0.9 * opt - 1e-9

    @pytest.mark.parametrize("epsilon,k", [
        pytest.param(eps, k, marks=pytest.mark.xfail(
            strict=True, raises=SolverError, reason=SEPARATE))
        for eps, draws in EXACT_RAISES.items() for k in draws])
    def test_exact_reference_solves(self, epsilon, k):
        solve_exact(_edge_draws(epsilon, 1.0)[k], tie_break=None)


def _fptas_pin_csv():
    """fptas_solve on acceptance 3's 50 instances (seed 1003) at delta 0.1
    and on 30 seeded t = 2 instances at delta 0.05: objective, payoff,
    agent payoff and ece per solve, printed as the CLI prints numbers."""
    rows = ["set,index,objective,payoff,agent_payoff,ece"]
    quadratic = np.random.default_rng(2002)
    cases = [("acc3", inst, 0.1) for inst in _acc3(50)]
    cases += [("t2", random_instance(quadratic,
                                     epsilon=(0.0, 0.05, 0.15)[k % 3],
                                     norm=2.0), 0.05)
              for k in range(30)]
    for k, (name, inst, delta) in enumerate(cases):
        pred, obj = fptas_solve(inst, delta)
        rows.append(",".join([
            name, str(k if name == "acc3" else k - 50), _fmt(obj),
            _fmt(payoff(pred, inst)), _fmt(agent_payoff(pred, inst)),
            _fmt(ece(pred, inst))]))
    return "\n".join(rows) + "\n"


def test_fptas_is_pinned():
    # fptas_pin.csv holds _fptas_pin_csv()'s output; the solver must
    # reproduce it byte for byte
    assert _fptas_pin_csv().encode() == (DATA / "fptas_pin.csv").read_bytes()
