import json
from pathlib import Path

import numpy as np
import pytest

from caldesign import lp_core
from caldesign.errors import SolverError
from caldesign.fptas import PRICE_TOL, PlanColumns
from caldesign.model import Instance, Predictor, envelope, validate_instance

from cold import cold_solve
from plans import make_plan

DATA = Path(__file__).parent / "data"


def load_fixture(name):
    with open(DATA / name) as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def golden_raw():
    return load_fixture("golden.json")


@pytest.fixture(scope="session")
def golden(golden_raw):
    """Three events (0.10001 / 0.85 / 1.0), four actions, capped -inf agent
    utility; its optimal payoff follows known piecewise-linear budget
    formulas, which makes it the golden reference across the suite."""
    return validate_instance(golden_raw)


@pytest.fixture(scope="session")
def two_event():
    """Two events (0.3 / 0.9, uniform prior) with a single throwaway action."""
    return validate_instance(load_fixture("two_event.json"))


@pytest.fixture(scope="session")
def f_dagger():
    return Predictor.from_json_dict(load_fixture("f_dagger.json"))


@pytest.fixture(scope="session")
def f_ddagger():
    return Predictor.from_json_dict(load_fixture("f_ddagger.json"))


_unpatched_solve = lp_core.solve   # taken before any spy replaces it


@pytest.fixture
def solves(monkeypatch):
    """Every lp_core.solve as (program, start basis, solution or the
    SolverError it raised).  An error is recorded before it propagates, so
    the ones that the agent refine catches show too."""
    seen = []

    def spy(lp, basis):
        try:
            sol = _unpatched_solve(lp, basis)
        except SolverError as err:
            seen.append((lp, basis, err))
            raise
        seen.append((lp, basis, sol))
        return sol

    monkeypatch.setattr(lp_core, "solve", spy)
    return seen


def full_columns(prog, points):
    """Reference for ``build_disc_lp`` on a grid: every column of the plan
    LP ``prog`` whose outcome q lies on ``points``, materialized pair by
    pair in the order (i, j, q, p), with the pair slices found from the
    grid."""
    inst, ps, U = prog.inst, prog.ps, prog.U
    t = inst.norm
    parts = {name: [] for name in ("i", "j", "q", "p", "obj", "err", "r")}
    for i in range(inst.n):
        for j in range(i, inst.n):
            if i < j and inst.theta[j] - inst.theta[i] <= 1e-15:
                continue  # merged through the diagonal entries
            if i == j:
                qs, r = inst.theta[i:i + 1], np.ones(1)
            else:
                lo = np.searchsorted(points, inst.theta[i] - 1e-12)
                hi = np.searchsorted(points, inst.theta[j] + 1e-12)
                qs = points[lo:hi]
                r = (inst.theta[j] - qs) / (inst.theta[j] - inst.theta[i])
            if qs.size == 0:
                continue
            nq, npred = qs.size, ps.size
            parts["i"].append(np.full(nq * npred, i))
            parts["j"].append(np.full(nq * npred, j))
            parts["q"].append(np.repeat(qs, npred))
            parts["p"].append(np.tile(ps, nq))
            parts["obj"].append((r[:, None] * U[i][None, :]
                                 + (1.0 - r)[:, None] * U[j][None, :]).ravel())
            parts["err"].append(
                (np.abs(qs[:, None] - ps[None, :]) ** t).ravel())
            parts["r"].append(np.repeat(r, npred))
    return PlanColumns(**{name: np.concatenate(parts[name]) for name in parts})


def plan_program(inst, cols):
    """The full plan LP on ``full_columns`` as one dense program: the
    budget row, then one supply row per event."""
    supply = np.zeros((inst.n, cols.obj.size))
    for event, row in enumerate(supply):
        low = cols.i == event
        row[low] += cols.r[low]
        high = cols.j == event
        row[high] += (1.0 - cols.r)[high]
    return lp_core.LinearProgram(
        cols.obj, np.vstack([cols.err, supply]), ["<="] + ["=="] * inst.n,
        np.concatenate([[inst.epsilon**inst.norm], inst.lam]))


def dense_column_generation(lp, cols):
    """Reference for ``solve_plan_lp``: the same column generation, with each
    master sliced from the rows of the dense ``lp`` and every column priced
    against those rows one at a time, and the same stop rule."""
    err = lp.A[0]
    diag = np.flatnonzero(cols.i == cols.j)
    order = diag[np.lexsort((err[diag], cols.i[diag]))]
    active = order[np.unique(cols.i[order], return_index=True)[1]]
    batch = 2 * lp.b.size
    pivots = 0
    while True:
        master = lp_core.LinearProgram(lp.objective[active], lp.A[:, active],
                                       lp.rel, lp.b)
        sol = cold_solve(master)
        pivots += sol.iterations
        y = lp_core.row_prices(master, sol)
        reduced = lp.objective.copy()
        for price, coeffs in zip(y, lp.A):
            reduced -= price * coeffs
        reduced[active] = -np.inf
        entering = np.flatnonzero(
            reduced > PRICE_TOL * (1.0 + abs(sol.objective_value)))
        if entering.size == 0:
            break
        if entering.size > batch:
            best = np.argpartition(reduced[entering], -batch)[-batch:]
            entering = entering[best]
        active = np.concatenate([active, entering])
    x = np.zeros(lp.num_vars)
    x[active] = sol.x
    return float(lp.objective @ x), x, pivots


def make_instance(theta, lam, agent_utility, principal_utility, epsilon,
                  norm=1.0, actions=None):
    """Array-first constructor used by the random generators."""
    agent_utility = np.asarray(agent_utility, dtype=float)
    m = agent_utility.shape[0]
    actions = actions or [f"a{k}" for k in range(m)]
    return Instance(theta, lam, actions, agent_utility, principal_utility,
                    epsilon, norm)


def with_norm(inst, epsilon, norm):
    """``inst`` at budget ``epsilon`` in the ``norm``-norm, built anew
    (``Instance.with_epsilon`` changes the budget alone)."""
    return Instance(inst.theta, inst.lam, inst.actions, inst.agent_utility,
                    inst.principal_utility, epsilon, norm)


def random_instance(rng, epsilon, norm=1.0, n_max=4, m_max=3, n_min=1,
                    m_min=1, event_independent=False, utility_scale=1.0):
    n = int(rng.integers(n_min, n_max + 1))
    m = int(rng.integers(m_min, m_max + 1))
    theta = np.sort(rng.uniform(0.0, 1.0, n))
    lam = rng.dirichlet(np.ones(n)) * 0.8 + 0.2 / n
    lam = lam / lam.sum()
    v = rng.uniform(-1.0, 1.0, (m, 2))
    if event_independent:
        u = np.tile(rng.uniform(0.0, utility_scale, (1, m, 1)), (n, 1, 2))
    else:
        u = rng.uniform(0.0, utility_scale, (n, m, 2))
    return make_instance(theta, lam, v, u, epsilon, norm)


def random_binary_instance(rng, epsilon=None):
    """Binary-action instance where only the high action pays (a constant)."""
    n = int(rng.integers(1, 5))
    theta = np.sort(rng.uniform(0.0, 1.0, n))
    lam = rng.dirichlet(np.ones(n)) * 0.9 + 0.1 / n
    lam = lam / lam.sum()
    c = float(rng.uniform(0.3, 3.0))
    p_star = float(rng.uniform(0.05, 0.95))
    scale = float(rng.uniform(0.5, 4.0))
    v = np.array([[0.0, 0.0], [-p_star * scale, (1.0 - p_star) * scale]])
    u = np.zeros((n, 2, 2))
    u[:, 1, :] = c
    if epsilon is None:
        epsilon = float(rng.uniform(0.0, 0.5))
    return make_instance(theta, lam, v, u, epsilon, 1.0,
                         actions=["low", "high"])


def random_predictor(rng, inst, max_support=5):
    grid = np.sort(rng.uniform(0.0, 1.0, max_support))
    mass = np.zeros((inst.n, grid.size))
    for i in range(inst.n):
        size = int(rng.integers(1, grid.size + 1))
        cols = rng.choice(grid.size, size=size, replace=False)
        mass[i, cols] = rng.dirichlet(np.ones(size))
    return Predictor(grid, mass)


def random_feasible_plan(rng, inst, moves=6, anchors_only=True):
    """Supply-feasible pairwise plan; starts from the calibrated diagonal and
    moves random mass into pooled entries."""
    if anchors_only:
        anchors = np.unique(np.concatenate([envelope(inst)[0],
                                            inst.theta]))
    else:
        anchors = np.sort(rng.uniform(0.0, 1.0, 8))
    diag = {(i, i, float(inst.theta[i]), float(inst.theta[i])): float(inst.lam[i])
            for i in range(inst.n)}
    entries = {}
    for _ in range(moves):
        i = int(rng.integers(0, inst.n))
        j = int(rng.integers(0, inst.n))
        if i > j:
            i, j = j, i
        if i != j and inst.theta[j] - inst.theta[i] <= 1e-12:
            continue
        q = float(inst.theta[i]) if i == j else \
            float(rng.uniform(inst.theta[i], inst.theta[j]))
        p = float(anchors[rng.integers(0, anchors.size)])
        r = 1.0 if i == j else \
            (inst.theta[j] - q) / (inst.theta[j] - inst.theta[i])
        di = (i, i, float(inst.theta[i]), float(inst.theta[i]))
        dj = (j, j, float(inst.theta[j]), float(inst.theta[j]))
        cap_i = diag[di] / r if r > 0 else np.inf
        cap_j = diag[dj] / (1.0 - r) if r < 1 else np.inf
        w = 0.5 * float(rng.random()) * min(cap_i, cap_j)
        if w <= 0:
            continue
        diag[di] -= w * r
        diag[dj] -= w * (1.0 - r)
        key = (i, j, q, p)
        entries[key] = entries.get(key, 0.0) + w
    for key, w in diag.items():
        if w > 0:
            entries[key] = entries.get(key, 0.0) + w
    keys = list(entries)
    return make_plan(inst, *zip(*keys), [entries[k] for k in keys])
