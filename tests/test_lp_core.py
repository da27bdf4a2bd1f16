import math
from dataclasses import replace

import numpy as np
import pytest

from caldesign import lp_core
from caldesign.errors import SolverError, ValidationError
from caldesign.lp_core import LinearProgram, solve

from cold import cold_solve


def random_lp(rng, n_vars=6, n_rows=4, feasible=True):
    """Random bounded-feasible LP: constraints a @ x <= a @ x0 + slack."""
    A = rng.normal(size=(n_rows, n_vars))
    x0 = rng.uniform(0.0, 1.0, n_vars)
    b = A @ x0 + rng.uniform(0.1, 1.0, n_rows)
    # box the variables so the problem is bounded
    A = np.vstack([A, np.eye(n_vars)])
    b = np.concatenate([b, np.full(n_vars, 5.0)])
    c = rng.normal(size=n_vars)
    return LinearProgram(c, A, ["<="] * b.size, b), x0


def with_row(lp, coeffs, rel, rhs, objective=None):
    """``lp`` plus the row ``coeffs @ x rel rhs`` (and another objective)."""
    return LinearProgram(lp.objective if objective is None else objective,
                         np.vstack([lp.A, coeffs]), np.append(lp.rel, rel),
                         np.append(lp.b, rhs))


def row_size(lp):
    """Each row's ``max(1, |rhs|, max|a|)``, the scale of the tolerance of
    ``lp_core._check_solution``, computed from the program alone."""
    return np.maximum(np.maximum(1.0, np.abs(lp.b)),
                      np.abs(lp.A).max(axis=1, initial=0.0))


def no_solution(kind, solver, *args):
    """Assert that ``solver(*args)`` raises ``NO_SOLUTION`` for a program
    that is ``kind``, "infeasible" (``cold_solve``'s phase 1) or
    "unbounded" (``lp_core.solve``)."""
    with pytest.raises(SolverError, match=f"program is {kind}") as err:
        solver(*args)
    assert err.value.code == "NO_SOLUTION"


class TestBasics:
    def test_simple_bound(self):
        sol = solve(LinearProgram([1.0], [[1.0]], ["<="], [1.0]), [1])
        assert sol.objective_value == pytest.approx(1.0)

    def test_infeasible(self):
        no_solution("infeasible", cold_solve,
                    LinearProgram([1.0], [[1.0]], ["<="], [-1.0]))

    def test_two_var_vertex(self):
        lp = LinearProgram([1.0, 1.0], [[1.0, 1.0], [1.0, 0.0]], ["<=", "<="],
                           [2.0, 1.0])
        sol = solve(lp, [2, 3])
        assert sol.objective_value == pytest.approx(2.0)

    def test_unbounded(self):
        # a program with no rows at all still solves
        lp = LinearProgram([1.0], np.zeros((0, 1)), [], [])
        empty = np.zeros(0, dtype=int)
        no_solution("unbounded", solve, lp, empty)
        assert solve(LinearProgram([-1.0], np.zeros((0, 1)), [], []), empty) \
            .objective_value == 0.0
        # and a program with rows, after one pivot
        no_solution("unbounded", solve,
                    LinearProgram([1.0, 1.0], [[1.0, -1.0]], ["<="], [1.0]),
                    [2])

    def test_programs_without_rows_or_columns(self):
        # keep their outcomes; the pivot loop's argmax never sees an empty
        # array (a program with no columns, or no rows at all).  ``kind``
        # names a program without a solution.
        for objective, A, rel, b, kind in [
            ([], np.zeros((2, 0)), ["<=", ">="], [1.0, 0.0], None),
            ([], np.zeros((1, 0)), [">="], [1.0], "infeasible"),
            ([], np.zeros((1, 0)), ["=="], [0.0], None),
            ([], np.zeros((0, 0)), [], [], None),
            ([1.0], np.zeros((0, 1)), [], [], "unbounded"),
            ([-1.0], np.zeros((0, 1)), [], [], None),
        ]:
            lp = LinearProgram(objective, A, rel, b)
            solvers = [cold_solve]
            if not rel:
                # an empty Python list is a start for a program without rows
                solvers.append(lambda lp: solve(lp, []))
            for solver in solvers:
                if kind:
                    no_solution(kind, solver, lp)
                    continue
                sol = solver(lp)
                assert sol.objective_value == 0.0, (A.shape, rel)
                assert sol.x.size == len(objective)
        none = np.zeros(0, dtype=np.int64)
        assert lp_core._pivot_loop(np.zeros((1, 1)), none, none, 5) == 0

    def test_iteration_cap_raises(self):
        # max x s.t. x <= 1 needs one pivot from the slack's basis
        basis = np.array([1])
        T, ids = condense(np.array([[1.0, 1.0, 1.0], [-1.0, 0.0, 0.0]]),
                          basis)
        with pytest.raises(SolverError, match="exceeded 0 pivots") as err:
            lp_core._pivot_loop(T, basis, ids, 0)
        assert err.value.code == "NUMERICAL_FAILURE"

    def test_counts_pivots(self):
        lp = LinearProgram([1.0, 1.0], [[1.0, 1.0], [1.0, 0.0]], ["<=", "<="],
                           [2.0, 1.0])
        assert solve(lp, [2, 3]).iterations == 2
        # the slack basis is already optimal, and phase 1 needs one pivot
        assert solve(LinearProgram([-1.0], [[1.0]], ["<="], [1.0]), [1]) \
            .iterations == 0
        assert cold_solve(LinearProgram([-1.0], [[1.0]], [">="], [1.0])) \
            .iterations == 1

    def test_rejects_malformed(self):
        for objective, A, rel, b, match in [
            ([1.0, 1.0], [[1.0]], ["<="], [1.0], "do not fit"),  # A narrow
            ([1.0], [[1.0], [2.0]], ["<="], [1.0], "do not fit"),  # A tall
            ([1.0], [[1.0]], ["<=", "<="], [1.0], "do not fit"),  # extra rel
            ([1.0], [1.0], ["<="], [1.0], "do not fit"),  # A not 2-D
            ([[1.0]], [[1.0]], ["<="], [1.0], "do not fit"),  # objective 2-D
            ([1.0], [[1.0]], ["!"], [1.0], "unknown relation"),
            ([1.0], [[1.0]], ["="], [1.0], "unknown relation"),
            ([1.0], [[1.0]], ["<=="], [1.0], "unknown relation"),
            ([1.0], [[1.0]], ["<="], [math.inf], "finite"),
            ([1.0], [[1.0]], ["<="], [math.nan], "finite"),
        ]:
            with pytest.raises(ValidationError, match=match) as err:
                LinearProgram(objective, A, rel, b)
            assert err.value.code == "BAD_LP"

    def test_solve_leaves_the_program_unchanged(self):
        # solve scales, flips and pivots a copy: the exact solver re-solves
        # and refines the same program, so its arrays must survive intact
        rng = np.random.default_rng(8)
        for _ in range(10):
            lp, x0 = random_lp(rng)
            # x0 meets both added rows: one with b < 0, which the solver
            # flips, and one of scale 1e6 that needs an artificial
            a = -np.abs(rng.normal(size=lp.num_vars))
            lp = with_row(lp, a, ">=", a @ x0 - 0.5)
            a = 1e6 * rng.uniform(size=lp.num_vars)
            lp = with_row(lp, a, "==", a @ x0)
            before = (lp.objective.copy(), lp.A.copy(), lp.rel.copy(),
                      lp.b.copy())
            first = cold_solve(lp)
            assert first.basis is not None
            solve(lp, first.basis)
            lp_core.row_prices(lp, first)
            for kept, now in zip(before, (lp.objective, lp.A, lp.rel, lp.b)):
                assert np.array_equal(kept, now)


class TestSetUpBits:
    """The set-up (row flips, equilibration, assembly) pinned bit for bit:
    ``x``, the final basis and the pivot count of programs with ``b < 0``
    rows, ``==`` rows, all-zero rows and a sentinel-sized row, as the
    set-up that scaled copies of ``A`` and ``b`` and flipped rows after
    scaling solved them."""

    @staticmethod
    def _programs():
        hand = LinearProgram(
            [1.0, 2.0, -1.0, 3.0],
            [[1.0, 1.0, 1.0, 1.0], [1.0, -1.0, 2.0, 0.0],
             [0.0, 0.0, 0.0, 0.0], [1.0, -1.0, 0.0, 0.0],
             [1e9, 0.0, 3.0, 1.0], [0.0, 0.0, 0.0, 0.0]],
            ["<=", ">=", "<=", "==", "<=", ">="],
            [4.0, -3.0, 0.0, 0.0, 5e9, -2.0])
        rng = np.random.default_rng(25)
        n = 6
        A = np.vstack([rng.normal(size=(5, n)), np.eye(n), np.zeros((1, n)),
                       np.eye(n)[0] - np.eye(n)[1]])
        A[0] *= 1e9
        b = np.concatenate([rng.uniform(1.0, 2.0, 3),
                            -rng.uniform(0.5, 1.0, 2), np.full(n, 3.0),
                            [0.0, 0.0]])
        b[0] *= 1e9
        rel = ["<="] * 3 + [">="] * 2 + ["<="] * (n + 1) + ["=="]
        drawn = LinearProgram(rng.normal(size=n), A, rel, b)
        # x = 0 is feasible: every inequality's logical, and x0 for the
        # == row, at 0
        return [(hand, [4, 5, 6, 0, 8, 9]),
                (drawn, [n + r for r in range(b.size - 1)] + [0])]

    PINNED = [
        (["0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p+2"],
         [3, 5, 6, 0, 8, 9], 2),
        (["0x1.11e15d92ee4dap+1", "0x1.11e15d92ee4dap+1", "0x0.0p+0",
          "0x1.d0eb70b2104aap-2", "0x0.0p+0", "0x1.972e0d165a42bp+0"],
         [10, 5, 8, 1, 3, 11, 12, 13, 14, 15, 16, 17, 0], 8),
    ]

    def test_solutions_are_pinned(self):
        for (lp, start), pinned in zip(self._programs(), self.PINNED):
            sol = solve(lp, start)
            assert ([v.hex() for v in sol.x], sol.basis.tolist(),
                    sol.iterations) == pinned


class TestSolutionCheck:
    LP = LinearProgram([1.0, 1.0], [[1.0, 1.0]], ["<="], [2.0])

    def test_rejects_nan(self):
        with pytest.raises(SolverError) as err:
            lp_core._check_solution(self.LP, np.array([math.nan, 0.0]),
                                    row_size(self.LP))
        assert err.value.code == "NUMERICAL_FAILURE"

    @pytest.mark.parametrize("rel,rhs,x", [
        ("<=", 2.0, [1.0, 1.0 + 1e-6]),
        (">=", 2.0, [1.0, 1.0 - 1e-6]),
        ("==", 2.0, [1.0, 1.0 - 1e-6]),
        ("==", 2.0, [1.0, 1.0 + 1e-6]),
    ])
    def test_rejects_violated_row(self, rel, rhs, x):
        # one violated row among met ones; rows are checked together
        lp = LinearProgram([1.0, 1.0], [[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]],
                           [">=", rel, "<="], [0.0, rhs, 5.0])
        with pytest.raises(SolverError, match=f"violates {rel} row") as err:
            lp_core._check_solution(lp, np.array(x), row_size(lp))
        assert err.value.code == "NUMERICAL_FAILURE"
        lp_core._check_solution(lp, np.array([1.0, 1.0]), row_size(lp))

    def test_matches_row_by_row_reference(self):
        # the per-row loop the vectorized check replaced, as the reference
        def row_by_row(lp, x):
            for coeffs, rel, rhs in zip(lp.A, lp.rel, lp.b):
                scale = max(1.0, abs(rhs), float(np.abs(coeffs).max()))
                lhs = float(coeffs @ x)
                gap = {"<=": lhs - rhs, ">=": rhs - lhs}.get(rel,
                                                             abs(lhs - rhs))
                if not gap <= lp_core.FEASIBILITY_TOL * scale:
                    return False
            return True

        rng = np.random.default_rng(5)
        outcomes = set()
        for _ in range(200):
            n, rows = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            x = rng.uniform(0.0, 2.0, n)
            A, rels, b = [], [], []
            for _ in range(rows):
                coeffs = rng.uniform(-1e3, 1e3, n) * (rng.uniform(size=n) < .7)
                rels.append(["<=", ">=", "=="][int(rng.integers(3))])
                # a row of scale ~1e3 may miss by ~1e-4
                miss = float(rng.choice([0.0, 1e-6, 1e-3, -1e-6, -1e-3]))
                A.append(coeffs)
                b.append(float(coeffs @ x) + miss)
            lp = LinearProgram(np.zeros(n), A, rels, b)
            try:
                lp_core._check_solution(lp, x, row_size(lp))
                ok = True
            except SolverError:
                ok = False
            assert ok == row_by_row(lp, x)
            outcomes.add(ok)
        assert outcomes == {True, False}

    def test_row_scale_tolerance(self):
        # a row of norm 1e6 may miss by 1e-7 * 1e6; a unit row may not
        lp = LinearProgram([1.0], [[1e6]], ["<="], [1e6])
        lp_core._check_solution(lp, np.array([1.0 + 5e-8]), row_size(lp))
        with pytest.raises(SolverError):
            lp_core._check_solution(lp, np.array([1.0 + 2e-7]), row_size(lp))

    def test_solve_hands_over_the_row_size(self, monkeypatch):
        # the row scale that solve takes before equilibrating is row_size
        # bit for bit, sentinel-sized, zero and negative-rhs rows included
        seen = []
        check = lp_core._check_solution

        def spy(lp, x, size):
            seen.append((lp, size))
            check(lp, x, size)

        monkeypatch.setattr(lp_core, "_check_solution", spy)
        rng = np.random.default_rng(11)
        for k in range(40):
            lp, _ = random_lp(rng)
            A, b = lp.A.copy(), lp.b.copy()
            A[0] *= (1.0, 1e9, 1e-9, 0.0)[k % 4]
            b[0] = (b[0], -b[0], 0.0, 0.0)[k // 4 % 4]
            lp = LinearProgram(lp.objective, A, lp.rel, b)
            try:
                cold_solve(lp)
            except SolverError:
                pass
        assert len(seen) >= 40
        assert any(size.max() >= 1e9 for _, size in seen)
        for lp, size in seen:
            assert size.tobytes() == row_size(lp).tobytes()

    def test_rejects_negative_entry(self):
        # x meets the row; only the sign of its second entry is wrong
        x = np.array([1.0, -2 * lp_core.FEASIBILITY_TOL])
        lp_core._check_solution(self.LP, np.abs(x), row_size(self.LP))
        with pytest.raises(SolverError, match="nonnegative") as err:
            lp_core._check_solution(self.LP, x, row_size(self.LP))
        assert err.value.code == "NUMERICAL_FAILURE"


def condense(T, basis):
    """The condensed tableau of the full tableau ``T`` (rows over an
    objective row, the rhs last) whose columns ``basis`` are the identity:
    its other columns and the rhs, in C order as ``solve`` makes them, and
    the full column number of each."""
    ids = np.setdiff1d(np.arange(T.shape[1] - 1), basis)
    return np.ascontiguousarray(T[:, np.append(ids, -1)]), ids


class TestRatioTest:
    def test_degenerate_tie_takes_largest_pivot(self):
        # both rows tie at ratio 0; Bland's tie-break would take row 0 (basic
        # index 1) and divide by 1e-9, Harris takes row 1's unit entry
        basis = np.array([1, 2])
        T, ids = condense(np.array([[1e-9, 1.0, 0.0, 0.0],
                                    [1.0, 0.0, 1.0, 0.0],
                                    [-1.0, 0.0, 0.0, 0.0]]), basis)
        assert lp_core._pivot_loop(T, basis, ids, 10) == 1
        assert basis.tolist() == [1, 0]
        assert ids.tolist() == [2]
        assert np.abs(T).max() == pytest.approx(1.0)

    def test_step_is_the_minimum_ratio(self):
        # the larger entry sits on the row with the larger ratio; the ratio
        # test must not overshoot to it
        basis = np.array([1, 2])
        T, ids = condense(np.array([[0.5, 1.0, 0.0, 1.0],
                                    [2.0, 0.0, 1.0, 5.0],
                                    [-1.0, 0.0, 0.0, 0.0]]), basis)
        lp_core._pivot_loop(T, basis, ids, 10)
        assert basis.tolist() == [0, 2]
        assert T[0, -1] == pytest.approx(2.0)

    def test_equal_largest_entries_take_the_first_row(self):
        # rows 0 and 1 tie in ratio and in entry; the first one leaves
        basis = np.array([1, 2])
        T, ids = condense(np.array([[1.0, 1.0, 0.0, 0.0],
                                    [1.0, 0.0, 1.0, 0.0],
                                    [-1.0, 0.0, 0.0, 0.0]]), basis)
        assert lp_core._pivot_loop(T, basis, ids, 10) == 1
        assert basis.tolist() == [0, 2]

    def test_never_pivots_on_a_tiny_entry(self):
        # rows 0 and 1 have the smallest "ratios" (0), but their entries
        # (_PIVOT_TOL and -1) are not > _PIVOT_TOL; row 2 must leave
        basis = np.array([1, 2, 3])
        T, ids = condense(np.array([[lp_core._PIVOT_TOL, 1.0, 0.0, 0.0, 0.0],
                                    [-1.0, 0.0, 1.0, 0.0, 0.0],
                                    [0.5, 0.0, 0.0, 1.0, 5.0],
                                    [-1.0, 0.0, 0.0, 0.0, 0.0]]), basis)
        assert lp_core._pivot_loop(T, basis, ids, 10) == 1
        assert basis.tolist() == [1, 2, 0]
        assert T[2, -1] == 10.0
        # with no entry above _PIVOT_TOL the column is unbounded
        basis = np.array([1])
        T, ids = condense(np.array([[lp_core._PIVOT_TOL, 1.0, 0.0],
                                    [-1.0, 0.0, 0.0]]), basis)
        with pytest.raises(SolverError, match="unbounded") as err:
            lp_core._pivot_loop(T, basis, ids, 10)
        assert err.value.code == "NO_SOLUTION"

    def test_objective_row_matches_row_by_row_sum(self):
        # the condensed row is the full tableau's row at the nonbasic
        # columns and the rhs
        rng = np.random.default_rng(3)
        full = rng.normal(size=(5, 9))
        basis = np.array([6, 1, 3, 7])
        cost = rng.normal(size=8)
        cost[3] = 0.0
        want = np.zeros(9)
        want[:8] = -cost
        for r in range(4):
            want += cost[basis[r]] * full[r]
        T, ids = condense(full, basis)
        lp_core._install_objective(T, basis, ids, cost)
        assert np.allclose(T[4], want[np.append(ids, 8)], rtol=0.0,
                           atol=1e-13)

    def test_exchange_matches_full_tableau_gauss_jordan(self):
        # the broadcast Gauss-Jordan step on the full tableau [A | I | b],
        # as a reference; it reports whether its update held a -0.0
        def gauss_jordan(T, r, col):
            T[r] /= T[r, col]
            factors = T[:, col].copy()
            factors[r] = 0.0
            update = factors[:, None] * T[r]
            T -= update
            T[:, col] = 0.0
            T[r, col] = 1.0
            return bool(np.any((update == 0.0) & np.signbit(update)))

        # max x0 + 2 x1 + 3 x2: pivoting x0 in on row 0 meets row 0's zero
        # entry in x1's column under row 1's negative factor, where the
        # broadcast multiply forms -0.0 and the rank-one product +0.0
        A = np.array([[1.0, 0.0, 2.0],
                      [-1.0, 1.0, 0.0],
                      [2.0, 1.0, 1.0],
                      [0.0, 3.0, -1.0]])
        b = np.array([4.0, 3.0, 10.0, 6.0])
        rows, n = A.shape
        full = np.zeros((rows + 1, n + rows + 1))
        full[:rows, :n] = A
        full[:rows, n:n + rows] = np.eye(rows)
        full[:rows, -1] = b
        full[rows, :n] = -np.array([1.0, 2.0, 3.0])
        basis = n + np.arange(rows)
        T, ids = condense(full, basis)
        negative_zeros = pivots = 0
        while True:
            before = basis.copy()
            try:   # a cap of one pivot: returns only at the optimum
                lp_core._pivot_loop(T, basis, ids, 1)
                break
            except SolverError as err:
                assert err.code == "NUMERICAL_FAILURE"
            r = int(np.flatnonzero(basis != before)[0])
            negative_zeros += gauss_jordan(full, r, int(basis[r]))
            pivots += 1
            assert np.array_equal(T + 0.0, full[:, np.append(ids, -1)] + 0.0)
            assert np.array_equal(full[:rows, basis], np.eye(rows))
        assert pivots >= 3 and negative_zeros


class TestRowPrices:
    def test_inequality_rows(self):
        # x = (3, 1); rows 0 and 2 bind, row 1 has slack
        lp = LinearProgram([3.0, 2.0], [[1.0, 1.0], [1.0, 3.0], [1.0, 0.0]],
                           ["<="] * 3, [4.0, 7.0, 3.0])
        sol = cold_solve(lp)
        assert np.allclose(lp_core.row_prices(lp, sol), [2.0, 0.0, 1.0])

    def test_equality_and_surplus_rows(self):
        # x = (2, 2); the >= row has slack, the equality row prices negative
        lp = LinearProgram([1.0, 1.0], [[1.0, -1.0], [1.0, 0.0], [2.0, 0.0]],
                           ["==", ">=", "<="], [0.0, 1.0, 4.0])
        sol = cold_solve(lp)
        y = lp_core.row_prices(lp, sol)
        assert np.allclose(y, [-1.0, 0.0, 1.0])
        assert y @ [0.0, 1.0, 4.0] == pytest.approx(sol.objective_value)

    def test_unpriceable_bases_raise(self):
        lp = LinearProgram([3.0, 2.0], [[1.0, 1.0], [1.0, 3.0], [1.0, 0.0]],
                           ["<="] * 3, [4.0, 7.0, 3.0])
        sol = cold_solve(lp)
        cases = {
            # column 0 twice: the basis matrix is singular
            "cannot be priced": replace(sol, basis=np.array([0, 0, 3])),
            # prices of the optimal basis against another objective value
            "miss the objective": replace(
                sol, objective_value=sol.objective_value + 1.0),
        }
        for reason, bad in cases.items():
            with pytest.raises(SolverError, match=reason) as err:
                lp_core.row_prices(lp, bad)
            assert err.value.code == "NUMERICAL_FAILURE"

    def test_redundant_row_has_no_basis(self):
        # the second row doubles the first; no column can replace its
        # artificial, so cold_solve drops it and solves the other two rows
        lp = LinearProgram([1.0, 2.0], [[1.0, 1.0], [2.0, 2.0], [0.0, 1.0]],
                           ["==", "==", "<="], [3.0, 6.0, 1.0])
        sol = cold_solve(lp)
        assert sol.objective_value == pytest.approx(4.0)
        assert sol.x == pytest.approx([2.0, 1.0])
        assert sol.basis is None


class TestWarmStart:
    def test_added_floor_row_starts_from_old_basis(self):
        # the refine pattern: solve, add an objective floor, change the
        # objective; the old basis plus the floor's surplus is feasible
        rng = np.random.default_rng(5)
        for _ in range(10):
            lp, _ = random_lp(rng, n_vars=8, n_rows=6)
            first = cold_solve(lp)
            floor = first.objective_value - 1e-3
            refine = with_row(lp, lp.objective, ">=", floor,
                              objective=rng.normal(size=lp.num_vars))
            start = np.append(first.basis, lp.num_vars + lp.b.size)
            cold = cold_solve(refine)
            warm = solve(refine, start)
            assert warm.objective_value == pytest.approx(
                cold.objective_value, rel=0.0, abs=1e-9)
            assert warm.iterations < cold.iterations
            assert lp.objective @ warm.x >= floor - 1e-9

    # max x0 + x1 s.t. x0 + x1 <= 2, x0 <= 3, x1 == 0.5 (rows 0, 1, 2)
    LP = LinearProgram([1.0, 1.0], [[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]],
                       ["<=", "<=", "=="], [2.0, 3.0, 0.5])

    @pytest.mark.parametrize("start,reason", [
        ([2, 0, 1], "infeasible"),          # x0 = 3 leaves row 0 short by 1.5
        ([0, 0, 1], "singular"),
        ([0, 1], "start entries"),
        ([0, 3, 4], "== row"),              # row 2 has no logical column
        ([0.0, 1.0, 3.0], "dtype"),
    ])
    def test_unusable_start_raises(self, start, reason):
        # no cold solve follows: the caller is told why the start failed
        with pytest.raises(SolverError,
                           match="start basis rejected: .*" + reason) as err:
            solve(self.LP, start)
        assert err.value.code == "NUMERICAL_FAILURE"

    # The tableau [A | logicals | rhs] of x0 + x1 <= 1, x0 - x1 >= 0.25,
    # x0 == 0.5 with its objective row; rows 0 and 1 own the logical
    # columns 2 and 3 (start numbers 2 and 3; row 2 has none).
    T = np.array([[1.0, 1.0, 1.0, 0.0, 1.0],
                  [1.0, -1.0, 0.0, -1.0, 0.25],
                  [1.0, 0.0, 0.0, 0.0, 0.5],
                  [0.0, 0.0, 0.0, 0.0, 0.0]])

    @staticmethod
    def _check_rejected(T, start, slack_rows, reason):
        kept = T.copy()
        with pytest.raises(SolverError,
                           match="start basis rejected: .*" + reason) as err:
            lp_core._warm_start(T, 2, start, slack_rows)
        assert err.value.code == "NUMERICAL_FAILURE"
        assert np.array_equal(T, kept)

    @pytest.mark.parametrize("start,reason", [
        ([0, 1], "2 start entries for 3 rows"),
        (np.array([0.0, 1.0, 2.0]), "dtype"),
        ([0, 1, 5], "outside the program"),
        ([0, 1, 4], "== row"),
        ([1, 2, 3], "singular"),           # row 2 is zero on x1, s0, s1
        ([3, 1, 0], "infeasible"),         # the surplus of row 1 is -0.25
    ])
    def test_rejection_leaves_the_tableau_unchanged(self, start, reason):
        self._check_rejected(self.T.copy(), start, np.array([0, 1]), reason)

    def test_non_finite_rejection_leaves_the_tableau_unchanged(self):
        # one row, whose basis entry 1e-300 overflows B^-1
        T = np.array([[1e-300, 1e300, 1.0, 1.0],
                      [0.0, 0.0, 0.0, 0.0]])
        self._check_rejected(T, [0], np.array([0]), "non-finite")

    @pytest.mark.parametrize("start", [[2, 3, 0], [0, 1, 2]])
    def test_accepted_start_is_b_inverse_times_the_tableau(self, start):
        # only the nonbasic columns and the rhs are solved for, and they are
        # the condensed tableau; the basic ones, the identity that B^-1
        # gives them, are not stored
        T = self.T.copy()
        C, cols, ids, clamp = lp_core._warm_start(T, 2, start,
                                                  np.array([0, 1]))
        assert clamp == 0.0
        assert cols.tolist() == start
        assert sorted(ids.tolist() + start) == [0, 1, 2, 3]
        kept = np.append(ids, 4)
        full = np.linalg.solve(self.T[:3, cols], self.T[:3])
        assert np.allclose(C[:3], full[:, kept], rtol=0.0, atol=1e-15)
        assert np.allclose(full[:, cols], np.eye(3), rtol=0.0, atol=1e-15)
        assert np.array_equal(C[3], self.T[3, kept])
        assert np.array_equal(T, self.T)

    # max x0 s.t. x0 + x1 <= 1, x0 <= 1 + 5e-8 (rows 0, 1): the basis of x0
    # and row 1's slack reads B^-1 b = (1, 5e-8); x0 with row 0's slack
    # reads (1 + 5e-8, -5e-8), inside the start's tolerance
    NEAR = LinearProgram([1.0, 0.0], [[1.0, 1.0], [1.0, 0.0]], ["<=", "<="],
                         [1.0, 1.0 + 5e-8])

    def test_feasible_start_reports_no_clamp(self):
        sol = solve(self.NEAR, [0, 3])
        assert sol.start_clamp == 0.0
        assert sol.objective_value == 1.0

    def test_clamped_start_reports_the_amount_and_solves(self):
        sol = solve(self.NEAR, [0, 2])
        assert sol.start_clamp == pytest.approx(5e-8, rel=1e-6)
        assert -lp_core.FEASIBILITY_TOL <= -sol.start_clamp < 0.0
        assert sol.objective_value == pytest.approx(1.0 + 5e-8, abs=1e-15)

    def test_logical_of_a_flipped_row_is_accepted(self):
        # row 0 has b < 0, so the solver flips it into a >= row whose
        # logical is a surplus; x0 = 3 with both logicals basic is optimal
        lp = LinearProgram([1.0, 0.0], [[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]],
                           ["<="] * 3, [-1.0, 3.0, 5.0])
        cold = cold_solve(lp)
        warm = solve(lp, [2, 0, 4])
        assert warm.iterations == 0 < cold.iterations
        assert warm.objective_value == pytest.approx(3.0)
        assert sorted(warm.basis.tolist()) == [0, 2, 4]


class TestProperties:
    def test_weak_duality_against_sampler(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            lp, x0 = random_lp(rng)
            sol = cold_solve(lp)
            # rejection-sample feasible points; none may beat the optimum
            best = lp.objective @ x0
            for _ in range(200):
                x = rng.uniform(0.0, 5.0, lp.num_vars)
                if all({"<=": a @ x <= r + 1e-12,
                        ">=": a @ x >= r - 1e-12,
                        "==": abs(a @ x - r) <= 1e-12}[op]
                       for a, op, r in zip(lp.A, lp.rel, lp.b)):
                    best = max(best, lp.objective @ x)
            assert sol.objective_value >= best - 1e-7

    def test_variable_permutation_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            lp, _ = random_lp(rng)
            perm = rng.permutation(lp.num_vars)
            permuted = LinearProgram(lp.objective[perm], lp.A[:, perm], lp.rel,
                                     lp.b)
            v1 = cold_solve(lp).objective_value
            v2 = cold_solve(permuted).objective_value
            assert v1 == pytest.approx(v2, abs=1e-7)

    def test_matches_scipy_linprog(self):
        scipy_opt = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(4)
        for trial in range(40):
            n_vars = int(rng.integers(2, 7))
            n_rows = int(rng.integers(1, 6))
            lp, _ = random_lp(rng, n_vars, n_rows, feasible=trial % 3 != 0)
            if trial % 3 == 0:
                # sprinkle equalities / reversed rows to vary structure
                a = rng.normal(size=n_vars)
                lp = with_row(lp, a, ">=",
                              float(a @ rng.uniform(0, 1, n_vars)) - 0.5)
            sign = np.where(lp.rel == ">=", -1.0, 1.0)
            ub, eq = lp.rel != "==", lp.rel == "=="
            ref = scipy_opt.linprog(
                -lp.objective, A_ub=sign[ub, None] * lp.A[ub],
                b_ub=sign[ub] * lp.b[ub],
                A_eq=lp.A[eq] if eq.any() else None,
                b_eq=lp.b[eq] if eq.any() else None,
                bounds=(0, None), method="highs")
            if ref.status == 0:
                assert cold_solve(lp).objective_value == pytest.approx(
                    -ref.fun, abs=1e-6)
            elif ref.status == 2:
                no_solution("infeasible", cold_solve, lp)
            elif ref.status == 3:
                no_solution("unbounded", cold_solve, lp)
