"""Dense linear programs over ``x >= 0`` and a self-contained simplex solver.

The model is ``maximize c @ x`` subject to ``x >= 0`` and ``A @ x rel b``
row by row: :class:`LinearProgram` holds the objective, the dense constraint
matrix ``A``, an array ``rel`` of relations (``<=``, ``==``, ``>=``) and the
right-hand sides ``b``, and validates them once, on construction.  Builders
assemble ``A`` from row blocks; :func:`solve` works on a copy, so a program
can be solved, edited in place (the exact solver lowers its budget that way)
and solved again.

The solver is a primal simplex that starts from a feasible basis the
caller names.  It solves ``B⁻¹`` once against ``b`` and the nonbasic
columns of ``[A | slacks and surpluses]``, keeps only that condensed
tableau (the basic columns are the identity) and pivots it by a BLAS
rank-one update that exchanges a basic and a nonbasic column.  There is no
phase 1; every caller knows a feasible vertex of its program (the exact
solver's truthful scheme, the approximation scheme's calibrated plan, a
previous optimal basis; their modules say which).  A start that is not a
feasible basis of the program raises ``SolverError('NUMERICAL_FAILURE')``;
one whose ``B⁻¹b`` reads at most ``FEASIBILITY_TOL`` below 0 is clamped,
and the solution reports by how much (``LpSolution.start_clamp``), so that
a caller with another start at hand can decline it.

The entering column is the improving one of smallest column number
(Bland's rule); the leaving row comes from Harris's two-pass ratio test,
which among near-minimal ratios pivots on the largest element, so
degenerate rows with tiny entries do not blow the tableau up.  That leaving
rule gives up Bland's finite termination guarantee; a pivot cap raises
``SolverError('NUMERICAL_FAILURE')`` instead, so a solve never stalls
silently.  Rows and columns are equilibrated (scaled to unit max-norm)
before solving so that utility sentinels of size ~1e9 coexist with O(1)
data.  A solve ends one of two ways: it returns an optimal solution,
checked against every row, or it raises :class:`SolverError` (an
unbounded program raises ``NO_SOLUTION``).  The solution carries its
basis, from which :func:`row_prices` computes the row prices on demand
(column generation prices with them) and which can start the next solve.

Problems here are small: the exact path's are square, up to about 90 rows,
and the approximation scheme's restricted masters have n + 1 rows by a few
dozen to a few hundred columns (its full plan LP is never built).  A dense
tableau handles them comfortably.  An
external solver can be swapped in by replacing :func:`solve`; the
:class:`LinearProgram` container is deliberately solver-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolverError, ValidationError

FEASIBILITY_TOL = 1e-7
_COST_TOL = 1e-10
_PIVOT_TOL = 1e-11
_RATIO_TIE_TOL = 1e-12


class LinearProgram:
    """maximize ``objective @ x`` s.t. ``x >= 0`` and ``A @ x rel b``.

    ``A`` is ``(rows, num_vars)``, ``rel`` holds one of ``<=``, ``==``,
    ``>=`` per row and ``b`` the finite right-hand sides.  The arrays are
    held as given (converted to float and str arrays), not copied; ``rel``
    is set read-only, as its masks are taken once, here.
    """

    def __init__(self, objective, A, rel, b):
        self.objective = np.asarray(objective, dtype=float)
        self.A = np.asarray(A, dtype=float)
        self.rel = np.asarray(rel, dtype=str)
        self.b = np.asarray(b, dtype=float)
        n, rows = self.num_vars, self.b.size
        shapes = [x.shape for x in (self.objective, self.A, self.rel, self.b)]
        if shapes != [(n,), (rows, n), (rows,), (rows,)]:
            raise ValidationError(
                "BAD_LP", f"objective, A, rel and b of shapes {shapes} do "
                f"not fit together")
        self.rel.setflags(write=False)
        self._le, self._ge = self.rel == "<=", self.rel == ">="
        known = self._le | (self.rel == "==") | self._ge
        if not known.all():
            raise ValidationError(
                "BAD_LP", f"unknown relation {self.rel[~known][0]!r}")
        if not np.isfinite(self.b).all():
            raise ValidationError("BAD_LP", "rhs must be finite")

    @property
    def num_vars(self):
        return self.objective.size

    @property
    def constraints(self):
        """The rows as a list of ``(coeffs, rel, rhs)``.  Only the benchmark's
        tracer (``perfbench/tracer.py``) reads this form; the package reads
        the arrays."""
        return list(zip(self.A, self.rel.tolist(), self.b.tolist()))


@dataclass
class LpSolution:
    """Result of :func:`solve`.

    ``basis`` lists the basic columns of the final vertex, numbering a
    structural variable ``j`` as ``j`` and the slack or surplus of row ``r``
    as ``num_vars + r``; :func:`row_prices` reads it.  ``iterations``
    counts the pivots made from the start basis.  ``start_clamp`` is the
    largest amount by which the start's ``B⁻¹b`` entries in
    ``[-FEASIBILITY_TOL, 0)`` were raised to 0, and 0.0 when the start had
    none: a caller that can choose another start can decline a clamped one.
    """

    objective_value: float
    x: np.ndarray
    basis: np.ndarray
    iterations: int = 0
    start_clamp: float = 0.0


def solve(lp: LinearProgram, basis) -> LpSolution:
    """Solve the program from the start basis ``basis``: the result is an
    optimal solution that meets every row, or :class:`SolverError` is
    raised.

    ``basis`` names one column per row in :attr:`LpSolution.basis`'s
    numbering (structural ``j``, or ``num_vars + r`` for the slack or
    surplus of row ``r``), in any order, as integers (any empty sequence
    for a program without rows); its basic solution ``B⁻¹b`` must be
    finite and nonnegative.  Any other start (wrong length, non-integer
    entries, an ``==`` row's logical column, which does not exist, a
    singular or infeasible basis) raises ``SolverError('NUMERICAL_FAILURE',
    'start basis rejected: <reason>')``, as do a stall past ``10 (num_vars
    + rows)² + 100`` pivots and a solution that misses a row.  An unbounded
    program raises ``SolverError('NO_SOLUTION', 'program is unbounded')``;
    every program the package poses has a bounded feasible set.
    """
    n = lp.num_vars
    rows = lp.b.size

    # --- assemble [A | slacks and surpluses | b], rows with b < 0 negated ---
    flip = lp.b < 0
    le_rows = np.flatnonzero(np.where(flip, lp._ge, lp._le))
    ge_rows = np.flatnonzero(np.where(flip, lp._le, lp._ge))
    # row k of slack_rows owns the logical column n + k
    slack_rows = np.concatenate([le_rows, ge_rows])
    n_total = n + slack_rows.size
    full = np.zeros((rows + 1, n_total + 1))
    body, A = full[:rows], full[:rows, :n]
    sign = np.where(flip, -1.0, 1.0)[:, None]
    np.multiply(lp.A, sign, out=A)
    np.multiply(lp.b[:, None], sign, out=body[:, n_total:])

    # --- equilibration, in place in the tableau ----------------------------
    # Rows, then columns: sentinel-sized utilities can put nine orders of
    # magnitude inside a single row, and the tableau loses precision fast
    # unless both dimensions are brought near unit scale.  One pass does it
    # (a second would divide by exactly 1); the logicals are still 0 here.
    rs = np.abs(body).max(axis=1, initial=0.0)
    rs[rs < 1e-300] = 1.0
    body /= rs[:, None]
    col_scale = np.abs(A).max(axis=0, initial=0.0)
    col_scale[col_scale < 1e-6] = 1.0
    A /= col_scale
    c = lp.objective / col_scale
    cost_scale = max(1.0, np.abs(c).max()) if c.size else 1.0

    # --- logicals, then the tableau condensed at the start -----------------
    full[le_rows, n + np.arange(le_rows.size)] = 1.0
    full[ge_rows, n + le_rows.size + np.arange(ge_rows.size)] = -1.0

    T, cols, ids, clamp = _warm_start(full, n, basis, slack_rows)
    cost = np.zeros(n_total)
    cost[:n] = c / cost_scale
    _install_objective(T, cols, ids, cost)
    pivots = _pivot_loop(T, cols, ids, 10 * (n + rows) ** 2 + 100)
    basic = cols.copy()
    logical = cols >= n
    basic[logical] = n + slack_rows[cols[logical] - n]

    y = np.zeros(n_total)
    y[cols] = T[:rows, -1]
    # Adding 0.0 turns -0.0 into 0.0, so a zero entry never prints as -0.0.
    x = y[:n] / col_scale + 0.0

    _check_solution(lp, x, np.maximum(rs, 1.0))
    return LpSolution(float(lp.objective @ x), x, basic, pivots, clamp)


def row_prices(lp: LinearProgram, sol: LpSolution) -> np.ndarray:
    """Row prices ``y`` of the optimal basis in ``sol``: ``y @ B = c_B``.

    With these prices a column ``a`` with objective ``c`` has reduced cost
    ``c - y @ a``; the vertex is optimal over any set of columns whose
    reduced costs are all <= 0.  Raises ``SolverError('NUMERICAL_FAILURE')``
    when the basis matrix is singular or the prices do not reproduce the
    objective (``y @ b``).
    """
    A, b = lp.A, lp.b
    rows = b.size
    basis = sol.basis
    structural = basis < lp.num_vars
    B = np.zeros((rows, rows))
    B[:, structural] = A[:, basis[structural]]
    B[basis[~structural] - lp.num_vars, np.flatnonzero(~structural)] = 1.0
    c_B = np.zeros(rows)
    c_B[structural] = lp.objective[basis[structural]]
    try:
        y = np.linalg.solve(B.T, c_B)
    except np.linalg.LinAlgError as err:
        raise SolverError("NUMERICAL_FAILURE",
                          f"basis matrix cannot be priced: {err}") from None
    gap = abs(float(y @ b) - sol.objective_value)
    scale = max(1.0, float(np.abs(y * b).sum()))
    if not gap <= FEASIBILITY_TOL * scale:
        raise SolverError("NUMERICAL_FAILURE",
                          f"row prices miss the objective by {gap:.3e}")
    return y


def _warm_start(T, n, start, slack_rows):
    """Condense the tableau ``T``, ``[A | logicals | b]`` over an objective
    row, at the start basis ``start``; returns ``(tableau, cols, ids)``.

    ``start`` is in :attr:`LpSolution.basis` numbering; ``slack_rows[k]`` is
    the row whose slack or surplus is column ``n + k`` of ``T`` (an ``==``
    row has none).  ``cols`` lists the basic columns by row, ``ids`` the
    nonbasic ones in increasing order.  Only those and the rhs are solved
    for: the tableau is ``X = B⁻¹·T[:rows, nonbasic]`` over ``T``'s
    objective row at the same columns, and its column ``j`` is ``T``'s
    column ``ids[j]``.  The start is accepted only if ``X`` is finite and
    ``B⁻¹b >= -FEASIBILITY_TOL``; otherwise ``SolverError('NUMERICAL_FAILURE')``
    names the reason.  Tiny negatives are clamped to 0, and ``clamp``, the
    fourth value returned, is the largest of them negated (0.0 for none).
    ``T`` is not written.
    """
    rows = T.shape[0] - 1

    def rejected(reason):
        return SolverError("NUMERICAL_FAILURE",
                           f"start basis rejected: {reason}")

    start = np.asarray(start).ravel()
    if start.size != rows:
        raise rejected(f"{start.size} start entries for {rows} rows")
    if rows and not np.issubdtype(start.dtype, np.integer):
        raise rejected(f"start entries of dtype {start.dtype} are not "
                       "column numbers")
    if np.any((start < 0) | (start >= n + rows)):
        raise rejected("start names a column outside the program")
    logical = np.full(rows, -1, dtype=np.int64)
    logical[slack_rows] = n + np.arange(slack_rows.size)
    cols = start.astype(np.int64)
    named = cols >= n
    cols[named] = logical[cols[named] - n]
    if np.any(cols < 0):
        raise rejected("start names the logical column of an == row")
    nonbasic = np.ones(T.shape[1], dtype=bool)   # the rhs column included
    nonbasic[cols] = False
    try:
        X = np.linalg.solve(T[:rows, cols], T[:rows, nonbasic])
    except np.linalg.LinAlgError:
        raise rejected("singular start basis") from None
    if not np.all(np.isfinite(X)):
        raise rejected("start basis gives non-finite entries")
    rhs = X[:, -1]
    low = float(rhs.min(initial=0.0))
    if not low >= -FEASIBILITY_TOL:
        raise rejected(f"infeasible start, min B^-1 b = {low:.3g}")
    np.maximum(rhs, 0.0, out=rhs)
    ids = np.flatnonzero(nonbasic[:-1])
    # 0.0 - low is 0.0, not -0.0, when nothing was clamped
    return np.vstack((X, T[rows, nonbasic])), cols, ids, 0.0 - low


def _pivot_loop(T, basis, ids, max_iter):
    """Pivot the condensed tableau ``T`` in place: the improving column of
    smallest number ``ids[j]`` enters (Bland's entering rule), the leaving
    row comes from Harris's two-pass ratio test.

    ``T``'s last column is the right-hand side of the rows, whose basic
    columns ``basis`` lists, and its last row the reduced costs (optimal
    when none is below ``-_COST_TOL``).  Pass 1 finds the step ``min
    (max(rhs, 0) + _RATIO_TIE_TOL) / col`` over the eligible rows, those
    with ``col > _PIVOT_TOL``; pass 2 takes, among eligible rows whose
    ratio ``max(rhs, 0) / col`` is within that step, the one with the
    largest ``col`` entry (the first such row on a tie).  On degenerate
    rows (rhs 0, many ratios tied at 0) this avoids pivoting on a tiny
    element, which would blow the tableau up.  The leaving rule is not
    Bland's, so finite termination is not guaranteed; the ``max_iter`` cap
    bounds the loop instead.

    Returns the pivots made; raises ``SolverError('NO_SOLUTION')`` when an
    entering column has no eligible row (the program is unbounded), and
    ``SolverError('NUMERICAL_FAILURE')`` after ``max_iter`` pivots.
    """
    rows = T.shape[0] - 1
    cost, rhs = T[rows, :-1], T[:rows, -1]   # views, kept current
    work = np.empty(T.shape)   # C order, as np.dot(out=) requires
    for it in range(max_iter):
        cand = (cost < -_COST_TOL).nonzero()[0]
        if not cand.size:
            return it
        enter = int(cand[ids[cand].argmin()])
        col = T[:rows, enter]
        eligible = (col > _PIVOT_TOL).nonzero()[0]
        if not eligible.size:
            raise SolverError("NO_SOLUTION", "program is unbounded")
        entries = col[eligible]
        pos = np.maximum(rhs[eligible], 0.0)
        step = ((pos + _RATIO_TIE_TOL) / entries).min()
        near = pos / entries <= step
        leave = eligible[np.where(near, entries, -np.inf).argmax()]
        _pivot(T, basis, ids, int(leave), enter, work)
    raise SolverError("NUMERICAL_FAILURE",
                      f"simplex exceeded {max_iter} pivots")


def _pivot(T, basis, ids, r, s, work):
    """Exchange row ``r``'s basic column with the condensed tableau's column
    ``s``, which the leaving column then holds; ``work``, a C-order array
    of ``T``'s shape, holds the rank-one update, whose inner dimension of
    one makes each entry a single product, as the full tableau's was."""
    p = T[r, s]
    T[r] /= p
    factors = T[:, s].copy()
    factors[r] = 0.0
    T[:, s] = 0.0
    T[r, s] = 1.0 / p
    T -= np.dot(factors[:, None], T[r:r + 1], out=work)
    ids[s], basis[r] = basis[r], ids[s]


def _install_objective(T, basis, ids, cost):
    """Set the condensed tableau's reduced-cost row for ``cost``, indexed
    like ``basis`` and ``ids`` by full-tableau column."""
    rows = T.shape[0] - 1
    T[rows] = cost[basis] @ T[:rows]
    T[rows, :-1] -= cost[ids]


def _check_solution(lp, x, row_size):
    """Raise ``SolverError('NUMERICAL_FAILURE')`` unless ``x`` meets every row
    and ``x >= 0`` within tolerance; a non-finite ``x`` fails.

    Row ``r`` may miss by ``FEASIBILITY_TOL * row_size[r]``, where
    :func:`solve` passes ``row_size[r] = max(1, |rhs_r|, max|a_r|)``."""
    tol = FEASIBILITY_TOL
    A, rel, b = lp.A, lp.rel, lp.b
    lhs = A @ x
    gap = np.where(lp._le, lhs - b,
                   np.where(lp._ge, b - lhs, np.abs(lhs - b)))
    bad = np.flatnonzero(~(gap <= tol * row_size))
    if bad.size:
        r = bad[0]
        raise SolverError(
            "NUMERICAL_FAILURE",
            f"solution violates {rel[r]} row by {abs(lhs[r] - b[r]):.3e}")
    if not np.all(np.isfinite(x) & (x >= -tol)):
        raise SolverError("NUMERICAL_FAILURE",
                          "solution is not finite and nonnegative")
