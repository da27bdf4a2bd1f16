"""Self-tests of the benchmark: its instance generator and its tracer.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import importlib.util
import itertools
from pathlib import Path

import numpy as np
import pytest

import tracer as tr
import workloads

ROOT = Path(__file__).resolve().parent.parent


def _test_conftest():
    """The test-suite's conftest, loaded under a private name."""
    spec = importlib.util.spec_from_file_location(
        "_perfbench_reference_conftest", ROOT / "tests" / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _same_instance(a, b):
    return (a.n == b.n and a.m == b.m and a.epsilon == b.epsilon
            and a.norm == b.norm and a.actions == b.actions
            and all(np.array_equal(x, y) for x, y in (
                (a.theta, b.theta), (a.lam, b.lam),
                (a.agent_utility, b.agent_utility),
                (a.principal_utility, b.principal_utility))))


def test_acc3_generator_reproduces_acceptance_3():
    reference = _test_conftest()
    rng = np.random.default_rng(1003)
    expected = [reference.random_instance(rng, epsilon=(0.01, 0.1)[k % 2],
                                          norm=1.0) for k in range(50)]
    got = workloads.acc3_instances(1003, 50)
    assert all(_same_instance(a, b) for a, b in zip(got, expected))
    runs = workloads.FptasAcc3().instances
    assert len(runs) == workloads.ACC3_COUNT
    assert all(_same_instance(a, b) for a, b in zip(runs, expected))


def test_another_list_seed_draws_other_instances():
    first = workloads.acc3_instances(1003, 5)
    second = workloads.acc3_instances(1004, 5)
    assert not any(_same_instance(a, b) for a, b in zip(first, second))
    ladder = workloads.ladder_instances(1004)
    assert [inst.n for inst in ladder[:6]] == [6, 7, 8, 6, 7, 8]
    assert [inst.norm for inst in ladder[:6]] == [1.0] * 3 + [np.inf] * 3


def _fixture_tracer():
    """Two solves: job > (a > b, b) and job > b, on a clock that ticks 1."""
    clock = itertools.count().__next__
    tracer = tr.Tracer(clock=clock)
    tracer.solve_id = 0
    with tracer.span("job"):           # 0 .. 9
        with tracer.span("a"):         # 1 .. 6
            with tracer.span("b"):     # 2 .. 3
                pass
            with tracer.span("b"):     # 4 .. 5
                pass
        with tracer.span("b"):         # 7 .. 8
            pass
    tracer.solve_id = 1
    with pytest.raises(ValueError):
        with tracer.span("job"):       # 10 .. 13
            with tracer.span("b"):     # 11 .. 12
                raise ValueError
    return tracer


def test_self_time_is_duration_minus_children():
    tracer = _fixture_tracer()
    names = [s.name for s in tracer.spans]
    assert names == ["job", "a", "b", "b", "b", "job", "b"]
    assert tracer.self_times() == [9 - 5 - 1, 5 - 1 - 1, 1, 1, 1, 3 - 1, 1]
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 1, 0, None, 5]


def test_spans_of_one_solve_share_an_id():
    tracer = _fixture_tracer()
    assert [s.solve_id for s in tracer.spans] == [0, 0, 0, 0, 0, 1, 1]
    assert [s.failed for s in tracer.spans] == [False] * 5 + [True, True]


def test_layer_metrics_attribute_refine_solves():
    import caldesign
    from caldesign import exact, model

    inst = workloads.ladder_instances(1003, 1)[0]
    tracer = tr.Tracer()
    patches = tr.instrument(tracer, caldesign)
    try:
        exact.solve_exact(inst)
        model.ece(model.point_mass(0.5, inst.n), inst)
    finally:
        patches.restore()
    assert exact.solve_exact.__name__ == "solve_exact"
    assert not hasattr(exact.solve_exact, "__wrapped__")
    metrics, bases = tr.layer_metrics(tracer)
    assert metrics["exact.build.calls"][0] == 1
    assert metrics["exact.convert.calls"][0] == 1
    assert metrics["model.eval.calls"][0] == 1
    solves = metrics["lp_core.solve.calls"][0]
    assert solves >= 2
    assert metrics["exact.refine.calls"][0] == solves - 1
    # m(m-1) incentive rows, 2m mean bounds, n stochastic rows, the budget
    # row, and the payoff floor the refine program adds.
    assert metrics["lp_core.rows.max"][0] == 6 * 5 + 2 * 6 + 6 + 1 + 1
    assert metrics["lp_core.cols.max"][0] == 6 * 6 + 2 * 6
    total = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_s")
                and not k.startswith("exact.refine"))
    assert total == pytest.approx(bases["self_s.total"])
