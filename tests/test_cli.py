import json
import logging
import os
import pickle
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import caldesign
from caldesign import cli, exact, fptas, lp_core
from caldesign.cli import EXIT_SOLVER, main
from caldesign.errors import SolverError
from caldesign.model import (
    INF,
    Instance,
    agent_payoff,
    certify,
    ece,
    validate_instance,
)

from conftest import random_instance

DATA = Path(__file__).parent / "data"
GOLDEN = str(DATA / "golden.json")
TWO_EVENT = str(DATA / "two_event.json")
F_DDAGGER = str(DATA / "f_ddagger.json")
CASE1 = str(DATA / "golden_case1_eps02.json")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSolve:
    def test_exact_summary(self, capsys, tmp_path):
        out_file = tmp_path / "pred.json"
        code, out, _ = run(capsys, "solve", GOLDEN, "--method", "exact",
                           "-o", str(out_file))
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["objective"] == pytest.approx(2.15,
                                                                abs=1e-4)
        saved = json.loads(out_file.read_text())
        assert len(saved["mass"]) == 3

    def test_strategy_dump(self, capsys, tmp_path):
        strat_file = tmp_path / "scheme.json"
        code, _, _ = run(capsys, "solve", GOLDEN, "--method", "exact",
                         "--strategy-out", str(strat_file))
        assert code == 0
        scheme = json.loads(strat_file.read_text())
        assert set(scheme) == {"pi", "bias"}
        assert len(scheme["pi"]) == 3
        assert set(scheme["bias"]) <= {"a1", "a2", "a3", "a4"}
        total_bias = sum(abs(b) for b in scheme["bias"].values())
        assert total_bias <= 0.04 + 1e-7

    def test_strategy_out_with_fptas_exits_2_before_solving(
            self, monkeypatch, capsys, tmp_path):
        def refuse(*args):
            raise AssertionError("solved before the flags were checked")

        monkeypatch.setattr(cli.fptas, "fptas_solve", refuse)
        pred, scheme = tmp_path / "pred.json", tmp_path / "scheme.json"
        code, out, err = run(capsys, "solve", GOLDEN, "--method", "fptas",
                             "-o", str(pred), "--strategy-out", str(scheme))
        assert code == 2
        assert out == ""
        assert "BAD_FORMAT" in err
        assert not pred.exists() and not scheme.exists()

    def test_fptas_guarantee(self, capsys):
        code, out, _ = run(capsys, "solve", GOLDEN, "--method", "fptas",
                           "--delta", "0.1")
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["objective"] >= 0.9 * 2.15
        assert payload["summary"]["ece"]["1"] <= 0.04 + 1e-7

    def test_eps_override(self, capsys):
        code, out, _ = run(capsys, "solve", GOLDEN, "--eps-override", "0.8")
        assert code == 0
        assert json.loads(out)["summary"]["objective"] == pytest.approx(
            5.0, abs=1e-4)

    @pytest.mark.parametrize("method", ["exact", "fptas"])
    @pytest.mark.parametrize("eps", ["inf", "1e400"])
    def test_non_finite_budget_exits_2(self, capsys, method, eps):
        code, out, err = run(capsys, "solve", GOLDEN, "--eps-override", eps,
                             "--method", method)
        assert code == 2
        assert out == ""
        assert "BAD_BUDGET" in err

    def test_malformed_instance_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"theta": [0.3, 0.9], "lambda": [0.6, 0.6]}')
        code, _, err = run(capsys, "solve", str(bad))
        assert code == 2
        assert "error" in err

    def test_bad_prior_message(self, capsys, tmp_path):
        raw = json.loads(Path(GOLDEN).read_text())
        raw["lambda"] = [0.6, 0.6, 0.6]
        bad = tmp_path / "badprior.json"
        bad.write_text(json.dumps(raw))
        code, _, err = run(capsys, "solve", str(bad))
        assert code == 2
        assert "BAD_PRIOR" in err

    def test_exact_needs_supported_norm(self, capsys, tmp_path):
        raw = json.loads(Path(GOLDEN).read_text())
        raw["norm"] = 2
        path = tmp_path / "norm2.json"
        path.write_text(json.dumps(raw))
        code, _, err = run(capsys, "solve", str(path), "--method", "exact")
        assert code == 2
        assert "UNSUPPORTED_NORM" in err


class TestUnwritableOutput:
    @pytest.mark.parametrize("argv", [
        ("solve", GOLDEN, "-o"),
        ("solve", GOLDEN, "--strategy-out"),
        ("sweep", GOLDEN, "--eps", "0.1,0.2", "-o"),
        ("grid", GOLDEN, "-o"),
    ], ids=["solve", "strategy-out", "sweep", "grid"])
    def test_exits_2_with_bad_format(self, capsys, tmp_path, argv):
        # a file in a missing directory is refused as an unreadable input
        # is: exit 2 with BAD_FORMAT, no traceback and no summary
        target = tmp_path / "missing" / "out.json"
        code, out, err = run(capsys, *argv, str(target))
        assert code == 2
        assert err.startswith(f"error: BAD_FORMAT: cannot write {target}: ")
        assert "Traceback" not in err
        assert out == ""
        assert not target.parent.exists()


class TestMalformedInput:
    # (the instance file: None for golden.json, the keys of one of its
    # fields and their new value, or the file's whole text, or NO_FILE for a
    # path with no file; the command and its arguments after the instance,
    # where a dict or list is written to a JSON file and its path passed;
    # the error code).  Every number in an instance, predictor or
    # certificate file is read by one rule: a JSON boolean is not a number,
    # and a null list is not a list
    NO_FILE = "(no file)"
    MASS3D = {"support": [0.5], "mass": [[[1.0]]] * 3}
    TABLE = {"a1": [5, 5], "a2": [0, 0], "a3": [1, 1], "a4": [2, 2]}
    CERT = {"knots": [[0, 0], [1, 1]], "alpha": 1}
    CASES = {
        "epsilon-null": ((("epsilon",), None), ("solve",), "BAD_BUDGET"),
        "epsilon-list": ((("epsilon",), [0.1]), ("solve",), "BAD_BUDGET"),
        "epsilon-text": ((("epsilon",), "abc"), ("solve",), "BAD_BUDGET"),
        "norm-null": ((("norm",), None), ("solve",), "BAD_NORM"),
        "theta-null": ((("theta",), None), ("solve",), "BAD_FORMAT"),
        "utility-number": ((("agent_utility", "a1"), 1), ("solve",),
                           "BAD_FORMAT"),
        "utility-text": ((("agent_utility", "a1"), ["abc", 1]), ("solve",),
                         "BAD_FORMAT"),
        "sweep-text": (None, ("sweep", "--eps", "0.1,abc"), "BAD_BUDGET"),
        "mass-3d": (None, ("eval", MASS3D), "BAD_MASS"),
        "epsilon-true": ((("epsilon",), True), ("solve",), "BAD_BUDGET"),
        "epsilon-false": ((("epsilon",), False), ("solve",), "BAD_BUDGET"),
        "norm-true": ((("norm",), True), ("solve",), "BAD_NORM"),
        "lambda-bool": ((("lambda",), [True, 0, 0]), ("solve",),
                        "BAD_PRIOR"),
        "theta-bool": ((("theta",), [True, 0.5, 0.9]), ("solve",),
                       "BAD_MEAN"),
        "utility-bool": ((("agent_utility", "a1"), [True, 1]), ("solve",),
                         "BAD_FORMAT"),
        "actions-null": ((("actions",), None), ("solve",), "BAD_FORMAT"),
        "lambda-null": ((("lambda",), None), ("solve",), "BAD_PRIOR"),
        # "inf" and "Infinity" read as the max-norm, which fptas rejects
        "norm-text": ((("norm",), "two"), ("solve",), "BAD_NORM"),
        "norm-inf-fptas": ((("norm",), "inf"), ("solve", "--method", "fptas"),
                           "UNSUPPORTED_NORM"),
        "norm-infinity-grid": ((("norm",), "Infinity"), ("grid",),
                               "UNSUPPORTED_NORM"),
        "no-file": (NO_FILE, ("solve",), "BAD_FORMAT"),
        "not-json": ("{theta: [0.5]}", ("solve",), "BAD_FORMAT"),
        "not-utf8": (b"\xff\xfe{}", ("solve",), "BAD_FORMAT"),
        "not-a-mapping": ("[1, 2]", ("solve",), "BAD_FORMAT"),
        "table-list": ((("agent_utility",), [[0, 0]]), ("solve",),
                       "BAD_FORMAT"),
        "table-missing-action": ((("principal_utility", 0), {"a1": [5, 5]}),
                                 ("solve",), "BAD_FORMAT"),
        "tables-too-few": ((("principal_utility",), [TABLE]), ("solve",),
                           "BAD_FORMAT"),
        "predictor-bool": (None, ("eval", {"support": [True, 0.5], "mass": [
            [1, 0], [0, True], [1, False]]}), "BAD_SUPPORT"),
        "predictor-null-support": (None, ("eval", {
            "support": None, "mass": [[1.0]] * 3}), "BAD_SUPPORT"),
        "predictor-mass-bool": (None, ("eval", {
            "support": [0.5], "mass": [[True]] * 3}), "BAD_MASS"),
        "predictor-outside": (None, ("eval", {
            "support": [1.5], "mass": [[1.0]] * 3}), "BAD_SUPPORT"),
        "predictor-negative": (None, ("eval", {
            "support": [0.2, 0.8], "mass": [[1.5, -0.5]] * 3}), "BAD_MASS"),
        "predictor-empty": (None, ("eval", {
            "support": [], "mass": [[]] * 3}), "BAD_SUPPORT"),
        "predictor-no-support": (None, ("eval", {"mass": [[1.0]] * 3}),
                                 "BAD_FORMAT"),
        "certificate-text": (None, ("verify-structure", CASE1,
                                    "--certificate", {**CERT, "alpha": "x"}),
                             "BAD_CERTIFICATE"),
        "certificate-3-columns": (None, ("verify-structure", CASE1,
                                         "--certificate",
                                         {**CERT, "knots": [[0, 0, 0],
                                                            [1, 1, 1]]}),
                                  "BAD_CERTIFICATE"),
        "certificate-bool": (None, ("verify-structure", CASE1,
                                    "--certificate",
                                    {**CERT, "knots": [[0, 0], [True, 1]],
                                     "alpha": False}),
                             "BAD_CERTIFICATE"),
        "certificate-null-knot": (None, ("verify-structure", CASE1,
                                         "--certificate",
                                         {**CERT, "knots": [None, [1, 1]]}),
                                  "BAD_CERTIFICATE"),
        "certificate-list": (None, ("verify-structure", CASE1,
                                    "--certificate", [1, 2]),
                             "BAD_CERTIFICATE"),
        "certificate-no-alpha": (None, ("verify-structure", CASE1,
                                        "--certificate",
                                        {"knots": CERT["knots"]}),
                                 "BAD_CERTIFICATE"),
    }
    # words the message must hold, where the code alone does not tell the
    # fault
    MESSAGES = {
        "actions-null": "must be a list",
        "lambda-null": "must be a list",
        "predictor-null-support": "support: None is not a number",
        "certificate-null-knot": "knots: None is not a number",
        "certificate-list": "certificate must be a mapping",
        "certificate-no-alpha": "certificate must be a mapping with knots, "
                                "alpha",
    }

    @pytest.mark.parametrize("case", CASES)
    def test_exits_2_with_a_code(self, capsys, tmp_path, case):
        edit, argv, code = self.CASES[case]
        inst = tmp_path / "inst.json"
        if isinstance(edit, bytes):
            inst.write_bytes(edit)
        elif isinstance(edit, str):
            if edit != self.NO_FILE:
                inst.write_text(edit)
        else:
            raw = json.loads(Path(GOLDEN).read_text())
            if edit is not None:
                (*keys, last), value = edit
                field = raw
                for key in keys:
                    field = field[key]
                field[last] = value
            inst.write_text(json.dumps(raw))
        command, *rest = argv
        for k, arg in enumerate(rest):
            if not isinstance(arg, str):
                rest[k] = tmp_path / f"arg{k}.json"
                rest[k].write_text(json.dumps(arg))
        exit_code, out, err = run(capsys, command, str(inst), *map(str, rest))
        assert exit_code == 2
        assert out == ""
        assert err.startswith(f"error: {code}:")
        assert self.MESSAGES.get(case, "") in err

    def test_integers_beyond_the_float_range(self, capsys, tmp_path):
        # JSON reads 1e400 as a float, inf, but 10**400 as an integer; both
        # read as inf, and a bad entry is echoed shortened
        raw = json.loads(Path(GOLDEN).read_text())
        path = tmp_path / "inst.json"
        for value, words in ((10**400, "outcome means must lie in [0, 1]"),
                             ("9" * 400 + "x", "is not a number")):
            raw["theta"][0] = value
            path.write_text(json.dumps(raw))
            code, out, err = run(capsys, "solve", str(path))
            assert (code, out) == (2, "")
            assert err.startswith("error: BAD_MEAN:")
            assert words in err and len(err) < 100
        raw = json.loads(Path(GOLDEN).read_text())
        raw["agent_utility"]["a4"][0] = "LOW"
        raw["principal_utility"][1]["a4"][1] = "HIGH"
        text = json.dumps(raw)
        got = []
        for low, high in (("-1e400", "1e400"),
                          (str(-10**400), str(10**400))):
            path.write_text(text.replace('"LOW"', low)
                            .replace('"HIGH"', high))
            got.append(run(capsys, "solve", str(path)))
        assert got[0][0] == 0
        assert got[1] == got[0]

    def test_the_certificate_cases_differ_from_a_valid_file(self, capsys,
                                                             tmp_path):
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(self.CERT))
        code, out, _ = run(capsys, "verify-structure", GOLDEN, CASE1,
                           "--certificate", str(cert))
        assert code == 0
        assert "optimality" in json.loads(out)


class TestEval:
    def test_golden_lines(self, capsys):
        code, out, _ = run(capsys, "eval", TWO_EVENT, F_DDAGGER)
        assert code == 0
        assert "t=1: 0.15" in out
        assert "t=2: 0.158113883008" in out
        assert "t=inf: 0.2" in out

    def test_golden_case1_fixture(self, capsys):
        code, out, _ = run(capsys, "eval", GOLDEN, CASE1)
        assert code == 0
        lines = dict(line.split(": ") for line in out.splitlines()
                     if ": " in line and not line.startswith("support"))
        assert float(lines["payoff"]) == pytest.approx(1.75, abs=1e-9)
        assert float(lines["agent_payoff"]) == pytest.approx(-0.19998,
                                                             abs=1e-4)

    def test_event_count_mismatch_exits_2(self, capsys):
        code, _, err = run(capsys, "eval", TWO_EVENT, CASE1)
        assert code == 2
        assert "event rows" in err


class TestSweep:
    def test_golden_golden_columns(self, capsys, tmp_path):
        out_file = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "sweep", GOLDEN, "--eps", "0,0.025,0.05",
                         "-o", str(out_file))
        assert code == 0
        rows = out_file.read_text().splitlines()
        assert rows[0] == "epsilon,principal_payoff,agent_payoff,ece_of_solution,status"
        table = [row.split(",") for row in rows[1:]]
        principal = [float(r[1]) for r in table]
        assert principal == pytest.approx([0.75, 2.0, 2.25], abs=1e-4)
        agent = [float(r[2]) for r in table]
        assert agent[0] == pytest.approx(0.0, abs=1e-4)
        assert all(r[4] == "ok" for r in table)
        assert out_file.read_bytes().endswith(b"\n")
        assert b"\r" not in out_file.read_bytes()

    def test_golden_sweep_is_pinned(self, capsys, tmp_path):
        # golden_sweep.csv holds `caldesign sweep golden.json` at the 81
        # budgets 0.00, 0.01, ..., 0.80 (agent refine included); the solvers
        # must reproduce it byte for byte
        out_file = tmp_path / "sweep.csv"
        budgets = ",".join(f"{0.01 * k:.2f}" for k in range(81))
        code, _, _ = run(capsys, "sweep", GOLDEN, "--eps", budgets,
                         "-o", str(out_file))
        assert code == 0
        assert (out_file.read_bytes()
                == (DATA / "golden_sweep.csv").read_bytes())

    def test_reruns_are_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "sweep", GOLDEN, "--eps", "0.01,0.04", "-o", str(a))
        run(capsys, "sweep", GOLDEN, "--eps", "0.01,0.04", "-o", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_negative_zero_budget_is_written_as_zero(self, capsys):
        code, out, _ = run(capsys, "sweep", GOLDEN, "--eps=-0,0")
        assert code == 0
        first, second = out.splitlines()[1:]
        assert first == second and first.startswith("0,")


class TestSweepWorkers:
    """On Linux, ``sweep`` forks when the affinity mask holds more than one
    CPU and there are enough budgets: this process solves its share of the
    blocks and forked children solve the rest.  Otherwise it solves in
    process.  ``path="pool"`` lifts the size rule, so that short lists
    fork too."""

    GOLDEN_BUDGETS = ",".join(f"{0.01 * k:.2f}" for k in range(81))
    # two blocks, so that the "pool" path forks
    SHUFFLED_12 = ["0.3", "0.1", "0.2", "0.05", "0", "0.25",
                   "0.55", "0.45", "0.5", "0.35", "0.15", "0.4"]
    PATHS = {"pool": {0, 1}, "in-process": {0}}

    @staticmethod
    def _sweep(monkeypatch, capsys, tmp_path, path, *argv, cpus=None,
               instance=GOLDEN):
        """Run ``sweep`` of ``instance`` on one path; returns the exit code,
        the CSV bytes
        (None if no file was written), stderr and ``[process count]`` if
        the sweep forked, else ``[]``.  No child may outlive the sweep, even
        one that raised."""
        if path == "pool":
            monkeypatch.setattr(cli, "_sweep_workers",
                                lambda budgets: len(os.sched_getaffinity(0)))
        cpus = TestSweepWorkers.PATHS.get(path) if cpus is None else cpus
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        forks = []
        real_fork, real_loads = os.fork, pickle.loads

        def fork():
            pid = real_fork()
            forks.append(pid)
            return pid

        def loads(data):
            # only rows come back from the children, or the exception one
            # hit: per block, a (fields, failure text or None) pair per budget
            result = real_loads(data)
            assert isinstance(result, BaseException) or all(
                type(block) is list
                and all(type(row) is tuple and len(row) == 2
                        and type(row[0]) is str
                        and type(row[1]) in (str, type(None))
                        for row in block)
                for block in result)
            return result

        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(pickle, "loads", loads)
        out = tmp_path / f"{path}.csv"
        try:
            code, _, err = run(capsys, "sweep", instance, *argv, "-o",
                               str(out))
        finally:
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)
        procs = [len(forks) + 1] if forks else []
        return code, (out.read_bytes() if out.exists() else None), err, procs

    # budgets of SHUFFLED_12 in both of its blocks, so that the pool path
    # fails in the calling process and in the forked child
    FAILING = {0.05, 0.3, 0.55}

    @staticmethod
    def _fail_at(monkeypatch, budgets):
        """Make fptas_solve raise a SolverError at ``budgets``; patched
        before any fork, so a forked child fails at them too."""
        real = fptas.fptas_solve

        def solve(inst, delta):
            if inst.epsilon in budgets:
                raise SolverError("UNCERTIFIED", f"injected at {inst.epsilon}")
            return real(inst, delta)

        monkeypatch.setattr(fptas, "fptas_solve", solve)

    @staticmethod
    def _renormed(tmp_path, norm):
        """golden.json in the norm ``norm``."""
        raw = json.loads(Path(GOLDEN).read_text())
        raw["norm"] = norm
        path = tmp_path / f"norm-{norm}.json"
        path.write_text(json.dumps(raw))
        return str(path)

    @pytest.mark.parametrize("failing,argv", [
        (False, ("--eps", GOLDEN_BUDGETS)),
        (True, ("--eps", ",".join(SHUFFLED_12), "--method", "fptas")),
    ], ids=["golden", "fptas-errors"])
    def test_both_paths_write_the_same_bytes(self, monkeypatch, capsys,
                                             tmp_path, failing, argv):
        if failing:
            self._fail_at(monkeypatch, self.FAILING)
        pool = self._sweep(monkeypatch, capsys, tmp_path, "pool", *argv)
        serial = self._sweep(monkeypatch, capsys, tmp_path, "in-process",
                             *argv)
        assert pool[0] == serial[0] == 0
        assert pool[1] == serial[1]
        assert pool[3] == [2] and serial[3] == []
        if failing:
            assert pool[1].count(b",error:UNCERTIFIED\n") == len(self.FAILING)
        else:
            assert pool[1] == (DATA / "golden_sweep.csv").read_bytes()

    def test_fptas_rows_are_its_solves(self, monkeypatch, capsys, tmp_path):
        # 20 budgets fork under the size rule itself; each row is
        # fptas_solve's answer at its budget, printed
        budgets = [f"{0.04 * k:.2f}" for k in range(20)]
        argv = ("--eps", ",".join(budgets), "--method", "fptas", "--delta",
                "0.1")
        forked = self._sweep(monkeypatch, capsys, tmp_path, "forked", *argv,
                             cpus={0, 1})
        serial = self._sweep(monkeypatch, capsys, tmp_path, "in-process",
                             *argv)
        assert forked[0] == serial[0] == 0
        assert forked[1] == serial[1]
        assert forked[3] == [2] and serial[3] == []
        inst = validate_instance(json.loads(Path(GOLDEN).read_text()))
        rows = serial[1].decode().splitlines()[1:]
        assert len(rows) == len(budgets)
        for budget, row in zip(budgets, rows):
            pred, objective = fptas.fptas_solve(
                inst.with_epsilon(budget), 0.1)
            fields = (float(budget), objective, agent_payoff(pred, inst),
                      ece(pred, inst))
            assert row == ",".join([*(f"{x:.12g}" for x in fields), "ok"])

    @pytest.mark.parametrize("path", sorted(PATHS))
    @pytest.mark.parametrize("seed", [1, 2])
    def test_shuffled_budgets_write_the_pinned_rows(self, monkeypatch, capsys,
                                                    tmp_path, path, seed):
        # the budgets are walked sorted, so a shuffled list gets the pinned
        # rows, in its own order
        order = np.random.default_rng(seed).permutation(81)
        budgets = self.GOLDEN_BUDGETS.split(",")
        code, text, _, _ = self._sweep(
            monkeypatch, capsys, tmp_path, path, "--eps",
            ",".join(budgets[k] for k in order))
        assert code == 0
        header, *pinned = (DATA / "golden_sweep.csv").read_bytes().splitlines(
            True)
        assert text == header + b"".join(pinned[k] for k in order)

    def test_shuffled_budgets_are_walked_sorted(self, monkeypatch, capsys,
                                                tmp_path):
        # in blocks of 10 sorted budgets the golden sweep takes 440 pivots
        # (test_exact.py::TestPivotCounts::test_golden_walks), whatever the
        # given order
        pivots = []
        real_solve = lp_core.solve

        def count(lp, basis):
            sol = real_solve(lp, basis)
            pivots.append(sol.iterations)
            return sol

        monkeypatch.setattr(lp_core, "solve", count)
        order = np.random.default_rng(1).permutation(81)
        budgets = self.GOLDEN_BUDGETS.split(",")
        code, _, _, _ = self._sweep(monkeypatch, capsys, tmp_path,
                                    "in-process", "--eps",
                                    ",".join(budgets[k] for k in order))
        assert code == 0
        assert sum(pivots) == 440

    @pytest.mark.parametrize("path", sorted(PATHS))
    def test_error_rows_and_warnings_keep_the_given_order(
            self, monkeypatch, capsys, tmp_path, caplog, path):
        budgets = self.SHUFFLED_12
        self._fail_at(monkeypatch, self.FAILING)
        caplog.set_level(logging.WARNING, logger="caldesign")
        code, text, _, procs = self._sweep(
            monkeypatch, capsys, tmp_path, path, "--eps", ",".join(budgets),
            "--method", "fptas")
        assert code == 0
        assert procs == ([2] if path == "pool" else [])
        rows = text.decode().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == [f"{float(b):.12g}"
                                                   for b in budgets]
        failed = [b for b in budgets if float(b) in self.FAILING]
        assert [r.split(",")[0] for r in rows
                if r.endswith(",nan,nan,nan,error:UNCERTIFIED")] == [
                    f"{float(b):.12g}" for b in failed]
        ok = [r for r in rows if r.endswith(",ok")]
        assert len(ok) == len(budgets) - len(failed)
        warned = [r.getMessage() for r in caplog.records
                  if r.levelno == logging.WARNING]
        assert [w.split()[1] for w in warned] == [str(float(b))
                                                  for b in failed]
        assert all("UNCERTIFIED: injected" in w for w in warned)

    @pytest.mark.parametrize("path", sorted(PATHS))
    @pytest.mark.parametrize("norm,method", [("inf", "fptas"),
                                             (2, "exact")])
    def test_unsupported_norm_exits_2_before_solving(
            self, monkeypatch, capsys, tmp_path, solves, path, norm, method):
        # as solve does, a sweep refuses a norm its method cannot solve
        # once, before any block or fork, with the solver's message; it
        # solves no LP and writes no CSV
        instance = self._renormed(tmp_path, norm)
        code, _, want = run(capsys, "solve", instance, "--method", method)
        assert code == 2 and want.startswith("error: UNSUPPORTED_NORM: ")
        solves.clear()
        code, text, err, procs = self._sweep(
            monkeypatch, capsys, tmp_path, path, "--eps",
            ",".join(self.SHUFFLED_12), "--method", method,
            instance=instance)
        assert (code, text, err, procs) == (2, None, want, [])
        assert solves == []

    @pytest.mark.parametrize("path", sorted(PATHS))
    @pytest.mark.parametrize("delta", ["2", "nan", "0"])
    def test_bad_fptas_delta_exits_2_before_solving(
            self, monkeypatch, capsys, tmp_path, path, delta):
        # as solve --method fptas does, an fptas sweep refuses the delta
        # once, before any block or fork, and writes no CSV; an exact sweep
        # ignores --delta
        assert run(capsys, "solve", GOLDEN, "--method", "fptas", "--delta",
                   delta)[0] == 2
        budgets = ",".join(self.SHUFFLED_12)
        code, text, err, procs = self._sweep(
            monkeypatch, capsys, tmp_path, path, "--eps", budgets,
            "--method", "fptas", "--delta", delta)
        assert (code, text, procs) == (2, None, [])
        assert err.startswith("error: BAD_DELTA: ")
        code, text, _, _ = self._sweep(monkeypatch, capsys, tmp_path, path,
                                       "--eps", budgets, "--delta", delta)
        assert code == 0
        assert all(r.endswith(",ok") for r in text.decode().splitlines()[1:])

    @pytest.mark.parametrize("path", sorted(PATHS))
    def test_bad_budget_exits_2_before_solving(self, monkeypatch, capsys,
                                               tmp_path, path):
        code, text, err, procs = self._sweep(
            monkeypatch, capsys, tmp_path, path, "--eps", "0.1,-0.5,0.2")
        assert code == 2
        assert text is None
        assert "BAD_BUDGET" in err
        assert procs == []

    @pytest.mark.parametrize("eps", [",", ""])
    def test_empty_budget_list_exits_2(self, monkeypatch, capsys, tmp_path,
                                       eps):
        code, text, err, procs = self._sweep(
            monkeypatch, capsys, tmp_path, "pool", "--eps", eps)
        assert code == 2
        assert text is None
        assert "BAD_BUDGET" in err
        assert procs == []

    @pytest.mark.parametrize("bad", ["inf", "1e400"])
    def test_non_finite_budget_exits_2_before_forking(self, monkeypatch,
                                                      capsys, tmp_path, bad):
        code, text, err, procs = self._sweep(
            monkeypatch, capsys, tmp_path, "pool", "--eps",
            f"{self.GOLDEN_BUDGETS},{bad}")
        assert code == 2
        assert text is None
        assert "BAD_BUDGET" in err
        assert procs == []

    @pytest.mark.parametrize("where", ["child", "parent"])
    @pytest.mark.parametrize("error, code", [
        (SolverError("NUMERICAL_FAILURE", "injected"), EXIT_SOLVER),
        (ZeroDivisionError("injected"), None),
    ], ids=["solver-error", "other-error"])
    def test_a_failing_process_fails_the_sweep(self, monkeypatch, capsys,
                                               tmp_path, where, error, code):
        # Whichever process raises, the exception reaches _dispatch as it was
        # raised: a SolverError exits 3, any other leaves main.  No CSV is
        # written, and _sweep checks that no child is left, including one
        # still solving when this process raised.
        parent = os.getpid()
        real_block, real_cmd = cli._sweep_block, cli.cmd_sweep

        def block(inst, method, delta, budgets):
            if (os.getpid() == parent) == (where == "parent"):
                raise error
            if where == "parent":
                time.sleep(60)
            return real_block(inst, method, delta, budgets)

        dispatched = []

        def cmd_sweep(args):
            try:
                return real_cmd(args)
            except BaseException as exc:
                dispatched.append(exc)
                raise

        monkeypatch.setattr(cli, "_sweep_block", block)
        monkeypatch.setattr(cli, "cmd_sweep", cmd_sweep)
        argv = ("--eps", self.GOLDEN_BUDGETS)
        start = time.monotonic()
        if code is None:
            with pytest.raises(type(error), match="injected"):
                self._sweep(monkeypatch, capsys, tmp_path, "pool", *argv)
        else:
            got, _, err, procs = self._sweep(monkeypatch, capsys, tmp_path,
                                             "pool", *argv)
            assert got == code
            assert procs == [2]
            assert err == f"solver error: {error}\n"
        assert time.monotonic() - start < 30
        assert not (tmp_path / "pool.csv").exists()
        [exc] = dispatched
        assert type(exc) is type(error) and str(exc) == str(error)
        assert getattr(exc, "code", None) == getattr(error, "code", None)

    @pytest.mark.parametrize("budgets, cpus, workers", [
        (19, {0, 1}, []),          # below two processes' break-even
        (20, {0, 1}, [2]),         # two processes from 20 budgets
        (81, {0, 1}, [2]),         # one process per CPU
        (30, {0, 1, 2, 3}, [3]),   # one process per 10 budgets
        (81, {0}, []),
        (15, {0, 1}, []),
        (40, set(range(8)), [4]),  # one process per block
        (29, {0, 1}, [2]),
        (45, set(range(8)), [4]),  # five blocks, four processes
    ])
    def test_size_rule(self, monkeypatch, capsys, tmp_path, budgets, cpus,
                       workers):
        eps = ",".join(f"{0.01 * k:.2f}" for k in range(budgets))
        code, text, _, procs = self._sweep(
            monkeypatch, capsys, tmp_path, "rule", "--eps", eps, cpus=cpus)
        assert code == 0
        assert procs == workers
        pinned = (DATA / "golden_sweep.csv").read_bytes().splitlines(True)
        assert text == b"".join(pinned[:budgets + 1])

    def test_other_platforms_run_in_process(self, monkeypatch, capsys,
                                            tmp_path):
        monkeypatch.setattr(sys, "platform", "darwin")
        code, text, _, procs = self._sweep(
            monkeypatch, capsys, tmp_path, "in-process", "--eps",
            self.GOLDEN_BUDGETS, cpus={0, 1})
        assert code == 0
        assert procs == []
        assert text == (DATA / "golden_sweep.csv").read_bytes()


class TestReliability:
    def test_revealing_pair_rows(self, capsys):
        code, out, _ = run(capsys, "reliability", TWO_EVENT, F_DDAGGER)
        assert code == 0
        rows = out.splitlines()
        assert rows[0] == "p,kappa,marginal_mass"
        assert rows[1] == "0.4,0.3,0.5"
        assert rows[2] == "0.7,0.9,0.5"

    def test_points_without_mass_are_skipped(self, capsys, tmp_path):
        # no event sends 0.5, so it has no posterior mean and no row
        pred = {"support": [0.3, 0.5, 0.9], "mass": [[1, 0, 0], [0, 0, 1]]}
        path = tmp_path / "gap.json"
        path.write_text(json.dumps(pred))
        code, out, _ = run(capsys, "reliability", TWO_EVENT, str(path))
        assert code == 0
        assert out.splitlines() == ["p,kappa,marginal_mass", "0.3,0.3,0.5",
                                    "0.9,0.9,0.5"]

    def test_calibrated_diagonal(self, capsys, tmp_path):
        pred = {"support": [0.3, 0.9], "mass": [[1, 0], [0, 1]]}
        path = tmp_path / "cal.json"
        path.write_text(json.dumps(pred))
        code, out, _ = run(capsys, "reliability", TWO_EVENT, str(path))
        assert code == 0
        for row in out.splitlines()[1:]:
            p, kappa, _ = row.split(",")
            assert float(p) == pytest.approx(float(kappa), abs=1e-12)

    def test_golden_case2_top_is_calibrated(self, capsys, tmp_path):
        eps = 0.04
        pred = {"support": [1e-5, 0.9, 1.0],
                "mass": [[1, 0, 0], [0, 1, 0],
                         [0, 2 - 40 * eps, 40 * eps - 1]]}
        path = tmp_path / "case2.json"
        path.write_text(json.dumps(pred))
        code, out, _ = run(capsys, "reliability", GOLDEN, str(path))
        assert code == 0
        rows = out.splitlines()[1:]
        assert len(rows) == 3
        top = rows[-1].split(",")
        assert float(top[0]) == 1.0 and float(top[1]) == 1.0


class TestVerifyStructure:
    @staticmethod
    def _binary_check(capsys, tmp_path, **cert_keys):
        """``verify-structure`` on a binary instance's closed form with its
        certificate, ``cert_keys`` added to the certificate file."""
        from caldesign.structure import binary_action_certificate
        from caldesign.model import validate_instance
        from caldesign.structure import binary_action_optimal
        raw = {"theta": [0.2, 0.8], "lambda": [0.5, 0.5],
               "actions": ["low", "high"],
               "agent_utility": {"low": [0, 0], "high": [-0.6, 0.4]},
               "principal_utility": [
                   {"low": [0, 0], "high": [1, 1]},
                   {"low": [0, 0], "high": [1, 1]}],
               "epsilon": 0.05, "norm": 1}
        inst_path = tmp_path / "binary.json"
        inst_path.write_text(json.dumps(raw))
        inst = validate_instance(raw)
        pred = binary_action_optimal(inst)
        pred_path = tmp_path / "pred.json"
        pred_path.write_text(json.dumps(pred.to_json_dict()))
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(
            {**binary_action_certificate(inst).to_json_dict(), **cert_keys}))
        return run(capsys, "verify-structure", str(inst_path),
                   str(pred_path), "--certificate", str(cert_path))

    def test_report_and_certificate(self, capsys, tmp_path):
        code, out, _ = self._binary_check(capsys, tmp_path)
        assert code == 0
        payload = json.loads(out)
        assert payload["structure"]["violations"] == []
        assert payload["optimality"]["all_pass"] is True

    def test_older_certificate_keys_are_ignored(self, capsys, tmp_path):
        # certificate files once declared their linear tails [0, x_low] and
        # [x_high, 1]; here wrong ones, which the duality check never reads
        code, out, _ = self._binary_check(capsys, tmp_path, x_low=0.9,
                                          x_high=0.1)
        assert code == 0
        assert json.loads(out)["optimality"]["all_pass"] is True
        assert out == self._binary_check(capsys, tmp_path)[1]

    def test_event_dependent_instance_exits_2(self, capsys, tmp_path):
        raw = {"theta": [0.2, 0.8], "lambda": [0.5, 0.5],
               "actions": ["low", "high"],
               "agent_utility": {"low": [0, 0], "high": [-0.6, 0.4]},
               "principal_utility": [
                   {"low": [0, 0], "high": [1, 1]},
                   {"low": [0, 0], "high": [4, 4]}],
               "epsilon": 0.05, "norm": 1}
        inst_path = tmp_path / "dep.json"
        inst_path.write_text(json.dumps(raw))
        pred_path = tmp_path / "pred.json"
        pred_path.write_text(json.dumps(
            {"support": [0.5], "mass": [[1.0], [1.0]]}))
        code, _, err = run(capsys, "verify-structure", str(inst_path),
                           str(pred_path))
        assert code == 2
        assert "NOT_EVENT_INDEPENDENT" in err


def _assert_close(got, want, tol=1e-9):
    """``got`` and ``want``, numbers nested in dicts and lists, agree
    within ``tol``."""
    if isinstance(want, dict):
        assert got.keys() == want.keys()
        for key in want:
            _assert_close(got[key], want[key], tol)
    elif isinstance(want, list):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _assert_close(g, w, tol)
    else:
        assert got == pytest.approx(want, rel=0.0, abs=tol)


_NUMBER = re.compile(r"-?\d+(?:\.\d*)?(?:e[-+]?\d+)?")


def _assert_text_close(got, want, tol=1e-9):
    """The texts ``got`` and ``want`` differ only in numbers that agree
    within ``tol``."""
    assert _NUMBER.sub("#", got) == _NUMBER.sub("#", want)
    _assert_close([float(x) for x in _NUMBER.findall(got)],
                  [float(x) for x in _NUMBER.findall(want)], tol)


class TestEventOrder:
    """Per-event rows follow the caller's order of events, which need not
    be sorted by theta: the rows the CLI writes and reads follow the
    instance file's, and the rows the solvers return follow the
    instance's.  A permuted instance gives its sorted twin's exact answer
    within rounding, as the events are summed in another order, and its
    fptas answer bit for bit, as fptas solves in the means' order."""

    @staticmethod
    def _permuted(path, perm, tmp_path):
        raw = json.loads(Path(path).read_text())
        for key in ("theta", "lambda", "principal_utility"):
            raw[key] = [raw[key][k] for k in perm]
        out = tmp_path / f"permuted_{Path(path).name}"
        out.write_text(json.dumps(raw))
        return str(out)

    @pytest.mark.parametrize("perm", [[2, 1, 0], [1, 2, 0]])
    def test_permuted_golden(self, capsys, tmp_path, perm):
        got = {}
        for name, path in (("sorted", GOLDEN),
                           ("permuted", self._permuted(GOLDEN, perm, tmp_path))):
            pred = tmp_path / f"{name}_pred.json"
            scheme = tmp_path / f"{name}_scheme.json"
            code, out, _ = run(capsys, "solve", path, "-o", str(pred),
                               "--strategy-out", str(scheme))
            assert code == 0
            got[name] = (json.loads(out)["summary"],
                         json.loads(pred.read_text()),
                         json.loads(scheme.read_text()))
            # each predictor read back against its own instance file
            got[name] += tuple(run(capsys, cmd, path, str(pred))
                               for cmd in ("eval", "reliability"))
        summary, pred, scheme, *read = got["sorted"]
        p_summary, p_pred, p_scheme, *p_read = got["permuted"]
        per_event = summary.pop("per_event_support")
        assert p_summary.pop("per_event_support") == [per_event[k]
                                                      for k in perm]
        _assert_close(p_summary, summary)   # objective, payoff, ece, support
        _assert_close(p_pred["support"], pred["support"])
        _assert_close(p_pred["mass"], [pred["mass"][k] for k in perm])
        assert not np.allclose(p_pred["mass"], pred["mass"])
        _assert_close(p_scheme, {**scheme,
                                 "pi": [scheme["pi"][k] for k in perm]})
        for (p_code, p_out, p_err), (code, out, err) in zip(p_read, read):
            assert (p_code, p_err) == (code, err)
            _assert_text_close(p_out, out)

    def test_permuted_structure_check(self, capsys, tmp_path):
        # f_ddagger sends each event of two_event to its own prediction;
        # its rows must be read against the file's events
        raw = json.loads(Path(F_DDAGGER).read_text())
        raw["mass"] = raw["mass"][::-1]
        pred = tmp_path / "pred.json"
        pred.write_text(json.dumps(raw))
        inst = self._permuted(TWO_EVENT, [1, 0], tmp_path)
        for cmd in ("eval", "reliability", "verify-structure"):
            assert run(capsys, cmd, inst, str(pred)) == \
                run(capsys, cmd, TWO_EVENT, F_DDAGGER)

    @staticmethod
    def _draws(seed, norm, count):
        """``count`` seeded pairs (permutation, permuted instance, sorted
        twin); no permutation keeps every event in place."""
        rng = np.random.default_rng(seed)
        for _ in range(count):
            twin = random_instance(rng, rng.uniform(0.0, 0.3), norm,
                                   n_min=2, n_max=5, m_max=4)
            perm = rng.permutation(twin.n)
            if np.array_equal(perm, np.arange(twin.n)):
                perm = perm[::-1].copy()
            inst = Instance(twin.theta[perm], twin.lam[perm], twin.actions,
                            twin.agent_utility, twin.principal_utility[perm],
                            twin.epsilon, norm)
            yield perm, inst, twin

    @staticmethod
    def _check_exact(perm, inst, got, want):
        """``got``, the exact answer for ``inst``, certifies against it and
        is ``want``, the twin's answer, with the rows permuted alike."""
        (strat, pred, objective), (w_strat, w_pred, w_objective) = got, want
        certify(pred, inst, objective)
        assert objective == pytest.approx(w_objective, rel=0.0, abs=1e-9)
        assert pred.support == pytest.approx(w_pred.support, abs=1e-6)
        assert pred.mass == pytest.approx(w_pred.mass[perm], abs=1e-6)
        assert strat.pi == pytest.approx(w_strat.pi[perm], abs=1e-6)

    @pytest.mark.parametrize("norm", [1.0, INF])
    def test_solve_exact_in_process(self, norm):
        for perm, inst, twin in self._draws(21, norm, 15):
            self._check_exact(perm, inst, exact.solve_exact(inst),
                              exact.solve_exact(twin))

    @pytest.mark.parametrize("norm", [1.0, INF])
    def test_solve_budgets_in_process(self, norm):
        budgets = [0.0, 0.05, 0.1, 0.3]
        for perm, inst, twin in self._draws(22, norm, 8):
            for budget, got, want in zip(
                    budgets, exact.walk_budgets(inst, budgets),
                    exact.walk_budgets(twin, budgets)):
                self._check_exact(perm, inst.with_epsilon(budget), got[:3],
                                  want[:3])

    @pytest.mark.parametrize("norm", [1.0, 1.5, 2.0, 3.0])
    def test_fptas_solve_in_process(self, norm):
        # the plan LP is degenerate, but fptas solves on the events sorted
        # by mean, so a permuted instance whose means differ gets its
        # twin's plan: row k is the twin's event perm[k], bit for bit
        for perm, inst, twin in self._draws(23, norm, 24):
            assert np.unique(twin.theta).size == twin.n
            pred, objective = fptas.fptas_solve(inst, 0.1)
            w_pred, w_objective = fptas.fptas_solve(twin, 0.1)
            assert objective == w_objective
            assert np.array_equal(pred.support, w_pred.support)
            assert np.array_equal(pred.mass, w_pred.mass[perm])


class TestGrid:
    def test_dump(self, capsys):
        code, out, _ = run(capsys, "grid", GOLDEN, "--delta", "0.2")
        assert code == 0
        payload = json.loads(out)
        assert payload["delta"] == 0.2
        assert payload["size"] == len(payload["points"])
        assert all(0.0 <= p <= 1.0 for p in payload["points"])
        assert len(payload["discontinuities"]) == 3

    def test_grid_rejects_bad_delta(self, capsys):
        code, _, err = run(capsys, "grid", GOLDEN, "--delta", "0.5")
        assert code == 2
        assert "BAD_DELTA" in err

    # at 1e-9 the mesh alone would hold 1e9 points; below about 1e-308 the
    # bound itself is infinite
    @pytest.mark.parametrize("delta", ["1e-9", "1e-320"])
    def test_grid_rejects_a_delta_too_fine_to_allocate(self, capsys, delta):
        code, out, err = run(capsys, "grid", GOLDEN, "--delta", delta)
        assert code == 2 and out == ""
        assert err.startswith("error: BAD_DELTA: ") and "cap" in err


class TestClosedStdout:
    def test_closed_pipe_exits_quietly(self):
        # megabytes of grid output cannot fit in a pipe buffer, so the write
        # meets the closed pipe whenever the child gets to it
        env = dict(os.environ,
                   PYTHONPATH=str(Path(caldesign.__file__).parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-c",
             "import sys; from caldesign.cli import main; sys.exit(main())",
             "grid", GOLDEN, "--delta", "0.0005"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 0
        assert err == b""
