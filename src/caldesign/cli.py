"""Command-line front end.

Subcommands:

- ``solve``        compute an optimal (exact) or near-optimal (fptas) predictor
- ``eval``         score a predictor file against an instance
- ``sweep``        re-solve across a list of budgets, emitting CSV
- ``reliability``  dump (prediction, posterior mean, mass) rows for plotting
- ``verify-structure``  shape diagnostics and optional optimality certificate
- ``grid``         dump the discretization grid for a given precision

Exit codes: 0 success, 2 invalid input, 3 solver failure.  Set
``CALDESIGN_LOG=debug|info|warning`` for logging verbosity.  All numeric
output is printed with 12 significant digits so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import exact, fptas, model, structure
from .errors import CaldesignError, SolverError, ValidationError

log = logging.getLogger("caldesign")

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_SOLVER = 3


def _fmt(x) -> str:
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return f"{x:.12g}"


@dataclass
class RunConfig:
    instance_path: str = ""
    method: str = "exact"
    delta: float = 0.1
    eps_override: float | None = None
    output_path: str | None = None

    def __post_init__(self):
        if self.method not in ("exact", "fptas"):
            raise ValidationError("BAD_FORMAT", f"unknown method {self.method!r}")


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError("BAD_FORMAT", f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError("BAD_FORMAT", f"{path} is not valid JSON: {exc}") from None


def _load_instance(cfg: RunConfig) -> model.Instance:
    inst = model.validate_instance(_load_json(cfg.instance_path))
    if cfg.eps_override is not None:
        inst = inst.with_epsilon(cfg.eps_override)
    return inst


def _load_predictor(path, inst) -> model.Predictor:
    pred = model.Predictor.from_json_dict(_load_json(path))
    if pred.n_events != inst.n:
        raise ValidationError(
            "BAD_MASS",
            f"predictor has {pred.n_events} event rows, instance has {inst.n}")
    return pred


def _write_text(path, text):
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _run_method(inst, cfg):
    if cfg.method == "exact":
        if inst.norm not in (1.0, model.INF):
            raise ValidationError("UNSUPPORTED_NORM",
                                  "method=exact needs norm 1 or inf")
        strat, pred, objective = exact.solve_exact(inst)
        return pred, objective, strat
    pred, objective = fptas.fptas_solve(inst, cfg.delta)
    return pred, objective, None


def _summary(inst, pred, objective):
    per_event = (pred.mass > 1e-12).sum(axis=1)
    return {
        "objective": objective,
        "payoff": model.payoff(pred, inst),
        "agent_payoff": model.agent_payoff(pred, inst),
        "ece": {"1": model.ece(pred, inst, 1.0),
                "2": model.ece(pred, inst, 2.0),
                "inf": model.ece(pred, inst, model.INF)},
        "support_size": int(pred.support.size),
        "per_event_support": [int(k) for k in per_event],
    }


def cmd_solve(cfg: RunConfig, strategy_path: str | None = None) -> int:
    inst = _load_instance(cfg)
    pred, objective, strat = _run_method(inst, cfg)
    summary = _summary(inst, pred, objective)
    if cfg.output_path:
        with open(cfg.output_path, "w", encoding="utf-8") as fh:
            json.dump(pred.to_json_dict(), fh, indent=1)
            fh.write("\n")
        log.info("wrote predictor to %s", cfg.output_path)
    if strategy_path:
        if strat is None:
            raise ValidationError("BAD_FORMAT",
                                  "--strategy-out needs --method exact")
        with open(strategy_path, "w", encoding="utf-8") as fh:
            json.dump(strat.to_json_dict(inst), fh, indent=1)
            fh.write("\n")
        log.info("wrote recommendation scheme to %s", strategy_path)
    print(json.dumps({"predictor": (cfg.output_path or "(not saved)"),
                      "summary": summary}, indent=1))
    return EXIT_OK


def cmd_eval(cfg: RunConfig, predictor_path: str) -> int:
    inst = _load_instance(cfg)
    pred = _load_predictor(predictor_path, inst)
    counts = structure.count_predictions(pred, inst)
    lines = [
        f"ece t=1: {_fmt(model.ece(pred, inst, 1.0))}",
        f"ece t=2: {_fmt(model.ece(pred, inst, 2.0))}",
        f"ece t=inf: {_fmt(model.ece(pred, inst, model.INF))}",
        f"payoff: {_fmt(model.payoff(pred, inst))}",
        f"agent_payoff: {_fmt(model.agent_payoff(pred, inst))}",
        f"support: total={counts.total} per_event_max={counts.per_event_max} "
        f"per_outcome_max={counts.per_outcome_max}",
    ]
    _write_text(cfg.output_path, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_sweep(cfg: RunConfig, eps_list) -> int:
    inst = _load_instance(cfg)
    rows = ["epsilon,principal_payoff,agent_payoff,ece_of_solution,status"]
    for eps in eps_list:
        sub = inst.with_epsilon(eps)
        try:
            pred, objective, _ = _run_method(sub, cfg)
            rows.append(",".join([
                _fmt(eps), _fmt(objective),
                _fmt(model.agent_payoff(pred, sub)),
                _fmt(model.ece(pred, sub)), "ok"]))
        except CaldesignError as exc:
            log.warning("budget %s failed: %s", eps, exc)
            rows.append(",".join([_fmt(eps), "nan", "nan", "nan",
                                  f"error:{exc.code}"]))
    _write_text(cfg.output_path, "\n".join(rows) + "\n")
    return EXIT_OK


def cmd_reliability(cfg: RunConfig, predictor_path: str) -> int:
    inst = _load_instance(cfg)
    pred = _load_predictor(predictor_path, inst)
    marg = pred.marginal(inst.lam)
    kap = model.kappa_values(pred, inst)
    rows = ["p,kappa,marginal_mass"]
    for k in np.argsort(pred.support):
        if marg[k] <= 0:
            continue
        rows.append(f"{_fmt(pred.support[k])},{_fmt(kap[k])},{_fmt(marg[k])}")
    _write_text(cfg.output_path, "\n".join(rows) + "\n")
    return EXIT_OK


def cmd_verify_structure(cfg: RunConfig, predictor_path: str,
                         certificate_path: str | None) -> int:
    inst = _load_instance(cfg)
    pred = _load_predictor(predictor_path, inst)
    report = structure.analyze_structure(pred, inst)
    out = {"structure": report.to_json_dict()}
    if certificate_path:
        cert = structure.GammaCertificate.from_json_dict(
            _load_json(certificate_path))
        out["optimality"] = structure.verify_optimality(pred, inst,
                                                        cert).to_json_dict()
    text = json.dumps(out, indent=1, default=float) + "\n"
    _write_text(cfg.output_path, text)
    return EXIT_OK


def cmd_grid(cfg: RunConfig) -> int:
    inst = _load_instance(cfg)
    g = fptas.build_grid(inst, cfg.delta)
    out = {
        "delta": g.delta,
        "delta0": g.delta0,
        "levels": g.levels,
        "size": int(g.size),
        "discontinuities": [float(z) for z in g.discontinuities],
        "points": [float(p) for p in g.points],
    }
    _write_text(cfg.output_path, json.dumps(out, indent=1) + "\n")
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
    common(p, output=False)
    p.add_argument("--method", choices=["exact", "fptas"], default="exact")
    p.add_argument("--delta", type=float, default=0.1,
                   help="approximation precision for --method fptas")
    p.add_argument("-o", "--output", default=None,
                   help="write the predictor JSON here")
    p.add_argument("--strategy-out", default=None,
                   help="also write the recommendation scheme (exact only)")

    p = sub.add_parser("eval", help="score a predictor file")
    common(p)
    p.add_argument("predictor", help="predictor JSON file")

    p = sub.add_parser("sweep", help="re-solve across budgets, emit CSV")
    common(p)
    p.add_argument("--eps", required=True,
                   help="comma-separated budget list, e.g. 0,0.025,0.05")
    p.add_argument("--method", choices=["exact", "fptas"], default="exact")
    p.add_argument("--delta", type=float, default=0.1)

    p = sub.add_parser("reliability", help="dump reliability-diagram data")
    common(p)
    p.add_argument("predictor", help="predictor JSON file")

    p = sub.add_parser("verify-structure", help="shape and optimality checks")
    common(p)
    p.add_argument("predictor", help="predictor JSON file")
    p.add_argument("--certificate", default=None,
                   help="certificate JSON to verify optimality against")

    p = sub.add_parser("grid", help="dump the discretization grid")
    common(p)
    p.add_argument("--delta", type=float, default=0.1)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=getattr(logging, os.environ.get("CALDESIGN_LOG", "WARNING").upper(),
                      logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = _dispatch(parser, args)
        sys.stdout.flush()  # a closed reader shows here, not at exit
    except BrokenPipeError:
        # The reader of stdout stopped early (``caldesign grid ... | head``).
        # Python's documented recipe: point stdout at devnull so the flush
        # at exit cannot fail again, and end quietly.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_OK
    return code


def _dispatch(parser, args) -> int:
    try:
        cfg = RunConfig(
            instance_path=args.instance,
            method=getattr(args, "method", "exact"),
            delta=getattr(args, "delta", 0.1),
            eps_override=args.eps_override,
            output_path=getattr(args, "output", None),
        )
        if args.command == "solve":
            return cmd_solve(cfg, strategy_path=args.strategy_out)
        if args.command == "eval":
            return cmd_eval(cfg, args.predictor)
        if args.command == "sweep":
            eps_list = [float(tok) for tok in args.eps.split(",") if tok]
            return cmd_sweep(cfg, eps_list)
        if args.command == "reliability":
            return cmd_reliability(cfg, args.predictor)
        if args.command == "verify-structure":
            return cmd_verify_structure(cfg, args.predictor, args.certificate)
        if args.command == "grid":
            return cmd_grid(cfg)
        parser.error(f"unknown command {args.command}")
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
