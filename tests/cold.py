"""Cold solves for the tests: ``lp_core.solve`` starts only from a feasible
basis, and :func:`cold_solve` finds one for a program that comes without.

It runs phase 1 as a warm start on the auxiliary program, then solves the
program from the basis phase 1 ends at, through the public
:func:`caldesign.lp_core.solve` alone.  The package never needs it: every
package solve knows a feasible vertex of its program.
"""

from __future__ import annotations

import numpy as np

from caldesign import lp_core
from caldesign.errors import SolverError

# phase 1 leaves the program infeasible when an artificial stays above this,
# relative to the largest entry of A and b
PHASE1_TOL = 1e-8
# a column may replace a basic artificial when its entry in the
# artificial's row of B^-1 [A | I] exceeds this
SWAP_TOL = 1e-9

# Taken at import, so that a test's spy on lp_core.solve records the
# package's solves only, not this helper's.
_solve = lp_core.solve


def cold_solve(lp):
    """Solve ``lp`` from no start basis; returns an :class:`LpSolution`.

    Phase 1 flips the rows with ``b < 0`` and maximizes ``-sum(art)`` over
    ``[A | one artificial per == or >= row]``, starting at the artificials
    and the ``<=`` slacks.  If the artificials end at zero, each one still
    basic is swapped for a column that keeps the basis regular (the largest
    entry of its row of ``B⁻¹ [A | logicals]``), and ``lp`` is solved from
    the basis that results.  An artificial that no column can replace marks
    its row as redundant: the row is dropped, the rest is solved, and the
    solution's ``basis`` is None, since it does not number ``lp``'s rows.
    Raises ``SolverError('NO_SOLUTION', 'program is infeasible ...')`` when
    phase 1 ends above zero, as ``lp_core.solve`` raises ``NO_SOLUTION``
    with ``'program is unbounded'``.  ``iterations`` sums the pivots of both
    phases.
    """
    n, rows = lp.num_vars, lp.b.size
    flip = lp.b < 0
    A = np.where(flip[:, None], -lp.A, lp.A)
    b = np.abs(lp.b)
    rel = lp.rel.copy()
    rel[flip & (lp.rel == "<=")] = ">="
    rel[flip & (lp.rel == ">=")] = "<="
    art = np.flatnonzero(rel != "<=")
    k = art.size
    # columns [A | artificials | logicals]: I is the logicals' pattern up to
    # sign, which does not change which bases are regular
    full = np.zeros((rows, n + k + rows))
    full[:, :n] = A
    full[art, n + np.arange(k)] = 1.0
    full[:, n + k:] = np.eye(rows)
    start = n + k + np.arange(rows)
    start[art] = n + np.arange(k)
    aux = lp_core.LinearProgram(np.repeat([0.0, -1.0], [n, k]),
                                full[:, :n + k], rel, b)
    phase1 = _solve(aux, start)
    scale = max(1.0, np.abs(A).max(initial=0.0), b.max(initial=0.0))
    if np.any(phase1.x[n:] > PHASE1_TOL * scale):
        raise SolverError("NO_SOLUTION", "program is infeasible: phase 1 "
                          f"ends at {-phase1.objective_value:.3g}")

    basis = phase1.basis.copy()
    usable = np.ones(full.shape[1], dtype=bool)
    usable[n:n + k] = False
    usable[n + k + np.flatnonzero(rel == "==")] = False
    kept_rows = np.ones(rows, dtype=bool)
    kept_pos = np.ones(rows, dtype=bool)
    for pos in np.flatnonzero((basis >= n) & (basis < n + k)):
        B = full[np.ix_(kept_rows, basis[kept_pos])]
        unit = (np.flatnonzero(kept_pos) == pos).astype(float)
        row = np.linalg.solve(B.T, unit) @ full[kept_rows]
        row[~usable] = 0.0
        row[basis[kept_pos]] = 0.0
        best = int(np.argmax(np.abs(row)))
        if abs(row[best]) > SWAP_TOL:
            basis[pos] = best
        else:
            kept_rows[art[basis[pos] - n]] = False
            kept_pos[pos] = False

    basis = basis[kept_pos]
    renumber = n + np.cumsum(kept_rows) - 1
    logical = basis >= n
    basis[logical] = renumber[basis[logical] - n - k]
    if kept_rows.all():
        sol = _solve(lp, basis)
    else:
        sol = _solve(lp_core.LinearProgram(lp.objective, lp.A[kept_rows],
                                           lp.rel[kept_rows],
                                           lp.b[kept_rows]), basis)
        sol.basis = None
    sol.iterations += phase1.iterations
    return sol
