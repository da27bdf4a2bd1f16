"""Command-line front end.

Subcommands:

- ``solve``        compute an optimal (exact) or near-optimal (fptas) predictor
- ``eval``         score a predictor file against an instance
- ``sweep``        re-solve across a list of budgets, emitting CSV
- ``reliability``  dump (prediction, posterior mean, mass) rows for plotting
- ``verify-structure``  shape diagnostics and optional optimality certificate
- ``grid``         dump the discretization grid for a given precision

Per-event rows (predictor ``mass``, scheme ``pi``, ``per_event_support``)
follow the instance file's order of events, as the library's rows follow
the caller's; the order of the means does not matter.

A ``sweep`` sorts its distinct budgets and cuts them into blocks of 10; an
exact block is one walk of :func:`exact.walk_budgets`, which for t=1
starts each budget from the previous one's optimal basis.  On Linux, a
sweep of 20 or more budgets forks: it runs one process per CPU in the
affinity mask, but at most one per 10 budgets, so at most one per block
(``taskset -c 0`` makes it serial).  With ``w`` processes, the calling
process solves blocks ``0, w, 2w, ...`` itself while ``w - 1`` forked
children solve the others.  On exact sweeps of the golden instance 2
processes break even at about 20 budgets; fptas sweeps win from 16, so the
rule is set by the exact ones (README gives the measured times).  Shorter
sweeps, and sweeps on other platforms, run in process.  The blocks depend
on neither the process count nor the order of the budgets, and rows are
written in the given order, so the output is identical whatever the order
and the process count.  Every budget, an fptas sweep's delta and the
instance's norm are checked before any child starts.

Exit codes: 0 success, 2 invalid input or an output file that cannot be
written, 3 solver failure.  Set ``CALDESIGN_LOG=debug|info|warning`` for
logging verbosity; a forked sweep's children write their solver debug logs
to the same stderr.  All numeric output is printed with 12 significant
digits so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import pickle
import signal
import sys

from . import exact, fptas, model, structure
from .errors import CaldesignError, SolverError, ValidationError

log = logging.getLogger("caldesign")

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_SOLVER = 3


def _fmt(x) -> str:
    return f"{x:.12g}"


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError("BAD_FORMAT", f"cannot read {path}: {exc}") from None
    except ValueError as exc:   # not JSON, or not UTF-8
        raise ValidationError("BAD_FORMAT", f"{path} is not valid JSON: {exc}") from None


def _load_instance(args) -> model.Instance:
    inst = model.validate_instance(_load_json(args.instance))
    if args.eps_override is not None:
        inst = inst.with_epsilon(args.eps_override)
    return inst


def _load_predictor(path, inst) -> model.Predictor:
    """Read a predictor with one row per event of the instance."""
    pred = model.Predictor.from_json_dict(_load_json(path))
    if pred.n_events != inst.n:
        raise ValidationError(
            "BAD_MASS",
            f"predictor has {pred.n_events} event rows, instance has {inst.n}")
    return pred


def _write_text(path, text):
    """The one writer of every output: to the file ``path``, or stdout;
    an unwritable file is BAD_FORMAT, as an unreadable one is."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError("BAD_FORMAT", f"cannot write {path}: {exc}") from None


def _scores(inst, pred):
    """What ``solve`` and ``eval`` print of ``pred``: its payoff, its agent
    payoff and its ece in the norms 1, 2 and inf."""
    return {"payoff": model.payoff(pred, inst),
            "agent_payoff": model.agent_payoff(pred, inst),
            "ece": {t: model.ece(pred, inst, float(t))
                    for t in ("1", "2", "inf")}}


def _summary(inst, pred, objective):
    per_event = (pred.mass > 1e-12).sum(axis=1)
    return {
        "objective": objective,
        **_scores(inst, pred),
        "support_size": int(pred.support.size),
        "per_event_support": [int(k) for k in per_event],
    }


def cmd_solve(args) -> int:
    if args.strategy_out and args.method != "exact":
        raise ValidationError("BAD_FORMAT", "--strategy-out needs --method exact")
    inst = _load_instance(args)
    if args.method == "exact":
        strat, pred, objective = exact.solve_exact(inst)
    else:
        pred, objective = fptas.fptas_solve(inst, args.delta)
    summary = _summary(inst, pred, objective)
    if args.output:
        _write_text(args.output,
                    json.dumps(pred.to_json_dict(), indent=1) + "\n")
        log.info("wrote predictor to %s", args.output)
    if args.strategy_out:
        scheme = {"pi": strat.pi.tolist(),
                  "bias": dict(zip(inst.actions, strat.bias.tolist()))}
        _write_text(args.strategy_out, json.dumps(scheme, indent=1) + "\n")
        log.info("wrote recommendation scheme to %s", args.strategy_out)
    print(json.dumps({"predictor": (args.output or "(not saved)"),
                      "summary": summary}, indent=1))
    return EXIT_OK


def cmd_eval(args) -> int:
    inst = _load_instance(args)
    pred = _load_predictor(args.predictor, inst)
    counts = structure.count_predictions(pred, inst)
    scores = _scores(inst, pred)
    lines = [
        *(f"ece t={t}: {_fmt(e)}" for t, e in scores["ece"].items()),
        f"payoff: {_fmt(scores['payoff'])}",
        f"agent_payoff: {_fmt(scores['agent_payoff'])}",
        f"support: total={counts.total} per_event_max={counts.per_event_max} "
        f"per_outcome_max={counts.per_outcome_max}",
    ]
    _write_text(args.output, "\n".join(lines) + "\n")
    return EXIT_OK


def _sweep_block(inst, method, delta, budgets):
    """Each budget's CSV fields after ``epsilon`` and its failure text (or
    None), for a block of sorted budgets; an exact block is one walk of
    :func:`exact.walk_budgets`, and its rows print the evaluation that
    certified each predictor."""
    if method == "exact":
        results = [result if isinstance(result, CaldesignError) else
                   (result[2], result[3].agent_payoff(inst), result[3].ece)
                   for result in exact.walk_budgets(inst, budgets)]
    else:
        results = []
        for eps in budgets:
            try:
                pred, objective = fptas.fptas_solve(inst.with_epsilon(eps),
                                                    delta)
                results.append((objective, model.agent_payoff(pred, inst),
                                model.ece(pred, inst)))
            except CaldesignError as exc:
                results.append(exc)
    rows = []
    for result in results:
        if isinstance(result, CaldesignError):
            rows.append((f"nan,nan,nan,error:{result.code}", str(result)))
            continue
        rows.append((",".join([*map(_fmt, result), "ok"]), None))
    return rows


# A sweep solves its sorted budgets in blocks of this many, each one walk of
# exact.walk_budgets.  The blocks do not depend on the process count, and
# neither do the rows.
_SWEEP_BLOCK = 10


def _sweep_workers(budgets):
    """Processes for a sweep of ``budgets`` distinct budgets: one per CPU of
    the affinity mask, but at most one per full block, and at least one.

    On a 2-core host shared with other work, 2 processes on exact sweeps of
    the golden instance break even at 20 budgets, the shortest sweep that
    forks (faster in 19 of 40 alternating pairs of calls), lose at 16 (16 of
    40) and win from 24 (19 of 28; 21, 22 and 23 of 26 at 30, 40 and 60).
    fptas sweeps (delta 0.1) cost more per budget, and 2 processes won at
    16, 20 and 24 budgets (16, 19 and 16 of 20 pairs in the second of two
    runs), so the rule leaves fptas sweeps of 16 to 19 budgets serial where
    a fork would win.  More than 2 processes are unmeasured."""
    return max(1, min(len(os.sched_getaffinity(0)), budgets // _SWEEP_BLOCK))


def _solve_blocks(inst, method, delta, blocks, workers):
    """The rows of each block, from ``workers`` processes: this one solves
    blocks ``0, workers, 2 * workers, ...`` while ``workers - 1`` forked
    children solve the others.  A child inherits the instance at the fork
    and sends back only its rows, or the exception it hit, pickled over a
    pipe; that exception is raised here.  Every child is reaped before
    this returns or raises."""
    rows = [None] * len(blocks)
    children = []   # (pid, read end, first block) of the unreaped children
    try:
        for first in range(1, workers):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                # The child never returns into the caller's code or runs its
                # exit hooks: it leaves by os._exit, 1 if it could not send.
                try:
                    os.close(read)
                    try:
                        data = pickle.dumps(
                            [_sweep_block(inst, method, delta, block)
                             for block in blocks[first::workers]])
                    except BaseException as exc:  # raised by the parent
                        data = pickle.dumps(exc)
                    with os.fdopen(write, "wb") as fh:
                        fh.write(data)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(write)
            children.append((pid, read, first))
        for k in range(0, len(blocks), workers):
            rows[k] = _sweep_block(inst, method, delta, blocks[k])
        while children:
            pid, read, first = children[0]
            with open(read, "rb", closefd=False) as fh:
                data = fh.read()
            status = os.waitpid(pid, 0)[1]
            children.pop(0)
            os.close(read)
            if not data:
                raise RuntimeError(
                    f"sweep child {pid} sent no rows (exit status "
                    f"{os.waitstatus_to_exitcode(status)})")
            result = pickle.loads(data)
            if isinstance(result, BaseException):
                raise result
            rows[first::workers] = result
    finally:
        # Only a failed sweep gets here with children left; their rows are
        # not needed.
        for pid, read, _ in children:
            os.close(read)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return rows


def cmd_sweep(args) -> int:
    """Long sweeps are solved by forked processes on Linux; rows are written
    in the given order, and the CSV depends on neither that order nor the
    process count."""
    inst = _load_instance(args)
    # Budgets, an fptas sweep's delta and the norm are checked before any
    # child starts.
    budgets = [inst.with_epsilon(tok).epsilon
               for tok in args.eps.split(",") if tok]
    if not budgets:
        raise ValidationError("BAD_BUDGET", f"no budget in --eps {args.eps!r}")
    if args.method == "fptas":
        fptas.read_delta(args.delta)
        fptas.check_norm(inst)
    else:
        exact.check_norm(inst)
    distinct = sorted(set(budgets))
    blocks = [tuple(distinct[k:k + _SWEEP_BLOCK])
              for k in range(0, len(distinct), _SWEEP_BLOCK)]
    # Fork only on Linux: on macOS a forked child of a process that loaded
    # system frameworks may crash, and Windows has no fork.
    workers = _sweep_workers(len(distinct)) if sys.platform == "linux" else 1
    results = _solve_blocks(inst, args.method, args.delta, blocks, workers)
    solved = dict(zip(distinct, (row for block in results for row in block)))
    rows = ["epsilon,principal_payoff,agent_payoff,ece_of_solution,status"]
    for eps in budgets:
        fields, failure = solved[eps]
        if failure is not None:
            log.warning("budget %s failed: %s", eps, failure)
        rows.append(f"{_fmt(eps)},{fields}")
    _write_text(args.output, "\n".join(rows) + "\n")
    return EXIT_OK


def cmd_reliability(args) -> int:
    inst = _load_instance(args)
    pred = _load_predictor(args.predictor, inst)
    rows = ["p,kappa,marginal_mass"]
    for k, marg, kap in zip(*model.live_points(pred, inst)):
        rows.append(f"{_fmt(pred.support[k])},{_fmt(kap)},{_fmt(marg)}")
    _write_text(args.output, "\n".join(rows) + "\n")
    return EXIT_OK


def cmd_verify_structure(args) -> int:
    inst = _load_instance(args)
    pred = _load_predictor(args.predictor, inst)
    report = structure.analyze_structure(pred, inst)
    out = {"structure": dataclasses.asdict(report)}
    if args.certificate:
        cert = structure.GammaCertificate.from_json_dict(
            _load_json(args.certificate))
        out["optimality"] = structure.verify_optimality(pred, inst,
                                                        cert).to_json_dict()
    text = json.dumps(out, indent=1, default=float) + "\n"
    _write_text(args.output, text)
    return EXIT_OK


def cmd_grid(args) -> int:
    inst = _load_instance(args)
    g = fptas.build_grid(inst, args.delta)
    out = {
        "delta": g.delta,
        "delta0": g.delta0,
        "levels": g.levels,
        "size": int(g.size),
        "discontinuities": [float(z) for z in g.discontinuities],
        "points": [float(p) for p in g.points],
    }
    _write_text(args.output, json.dumps(out, indent=1) + "\n")
    return EXIT_OK


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="caldesign",
        description="Optimal prediction design under a calibration budget")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, output=True):
        p.add_argument("instance", help="instance JSON file")
        p.add_argument("--eps-override", type=float, default=None,
                       help="replace the instance's budget")
        if output:
            p.add_argument("-o", "--output", default=None,
                           help="write here instead of stdout")

    p = sub.add_parser("solve", help="compute an optimal predictor")
    p.set_defaults(run=cmd_solve)
    common(p, output=False)
    p.add_argument("--method", choices=["exact", "fptas"], default="exact")
    p.add_argument("--delta", type=float, default=0.1,
                   help="approximation precision for --method fptas")
    p.add_argument("-o", "--output", default=None,
                   help="write the predictor JSON here")
    p.add_argument("--strategy-out", default=None,
                   help="also write the recommendation scheme (exact only)")

    p = sub.add_parser("eval", help="score a predictor file")
    p.set_defaults(run=cmd_eval)
    common(p)
    p.add_argument("predictor", help="predictor JSON file")

    p = sub.add_parser("sweep", help="re-solve across budgets, emit CSV")
    p.set_defaults(run=cmd_sweep)
    common(p)
    p.add_argument("--eps", required=True,
                   help="comma-separated budget list, e.g. 0,0.025,0.05")
    p.add_argument("--method", choices=["exact", "fptas"], default="exact")
    p.add_argument("--delta", type=float, default=0.1)

    p = sub.add_parser("reliability", help="dump reliability-diagram data")
    p.set_defaults(run=cmd_reliability)
    common(p)
    p.add_argument("predictor", help="predictor JSON file")

    p = sub.add_parser("verify-structure", help="shape and optimality checks")
    p.set_defaults(run=cmd_verify_structure)
    common(p)
    p.add_argument("predictor", help="predictor JSON file")
    p.add_argument("--certificate", default=None,
                   help="certificate JSON to verify optimality against")

    p = sub.add_parser("grid", help="dump the discretization grid")
    p.set_defaults(run=cmd_grid)
    common(p)
    p.add_argument("--delta", type=float, default=0.1, help="grid precision "
                   "d < 1/3, whose plan LP fptas --delta 3d dominates")
    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=getattr(logging, os.environ.get("CALDESIGN_LOG", "WARNING").upper(),
                      logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s")
    args = _build_parser().parse_args(argv)
    try:
        code = _dispatch(args)
        sys.stdout.flush()  # a closed reader shows here, not at exit
    except BrokenPipeError:
        # The reader of stdout stopped early (``caldesign grid ... | head``).
        # Python's documented recipe: point stdout at devnull so the flush
        # at exit cannot fail again, and end quietly.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_OK
    return code


def _dispatch(args) -> int:
    try:
        return args.run(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
