"""Command-line front end.

    vpp-sched make-instance       --preset desk|day|full --out DIR
    vpp-sched generate-scenarios  --config FILE
    vpp-sched solve               --config FILE --method benders|extensive
                                  [--risk neutral|cvar] [--alpha A]
                                  [--workers N] [--out DIR]
    vpp-sched evaluate            --config FILE --solution DIR [--out DIR]
    vpp-sched tariff-sweep        --config FILE [--levels 0:1:0.1] [--out DIR]

Exit codes: 0 success; 2 usage error or a bad value in the configuration,
an instance table or a scenario table; 3 infeasible model
(``stochastic.ModelInfeasible``); 4 solver or convergence failure.
``--risk``, ``--alpha``, ``--workers`` and ``--levels`` are held to the
checks of the configuration keys they override.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import replace

from . import benders as bd
from . import devices as dv
from . import lp
from . import market as mk
from . import network as nw
from . import reports as rp
from . import scenarios as sg
from . import stochastic as st
from . import tables
from .config import ConfigError, load_config
from .instance import PRESETS, write_instance
from .model import ModelError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_NO_CONVERGENCE = 4


class UsageError(Exception):
    pass


def _parse_levels(spec: str) -> list[float]:
    try:
        start, stop, step = (float(x) for x in spec.split(":"))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"bad spec {spec!r}, expected start:stop:step") from exc
    if not (0 < step < math.inf and -math.inf < start <= stop < math.inf):
        raise argparse.ArgumentTypeError(f"bad range {spec!r}")
    levels = []
    k = 0
    while True:
        val = round(start + k * step, 10)
        if val > stop + 1e-9:
            break
        levels.append(val)
        if not 0.0 <= val <= 1.0:
            break       # the sweep refuses this level; list none beyond it
        k += 1
    return levels


def cmd_make_instance(args) -> int:
    inst = PRESETS[args.preset](seed=args.seed) if args.seed is not None \
        else PRESETS[args.preset]()
    path = write_instance(inst, args.out, scenario_count=args.scenario_count,
                          scenario_seed=args.scenario_seed)
    print(f"instance written, config at {path}")
    return EXIT_OK


def cmd_generate_scenarios(args) -> int:
    cfg = load_config(args.config)
    base = cfg.load_forecast()
    specs = cfg.error_specs()
    sset = sg.build_scenarios(base, specs, cfg.scenario_count,
                              cfg.scenario_seed)
    sg.save_scenario_set(sset, cfg.scenario_dir, cfg.horizon.step_hours,
                         cfg.horizon.rcm_window_hours, specs,
                         config_hash=cfg.config_hash)
    print(f"{len(sset)} scenarios written to {cfg.scenario_dir}")
    return EXIT_OK


def _load_scenarios(cfg):
    if not os.path.isdir(cfg.scenario_dir):
        raise UsageError(f"no scenario directory at {cfg.scenario_dir}; "
                         "run generate-scenarios first")
    sset, _ = sg.load_scenario_set(cfg.scenario_dir)
    return sset


def cmd_solve(args) -> int:
    cfg = load_config(args.config)
    flags = (("risk_measure", args.risk), ("alpha", args.alpha),
             ("workers", args.workers))
    cfg = replace(cfg, **{name: value for name, value in flags
                          if value is not None})
    model = cfg.build_model()
    sset = _load_scenarios(cfg)
    out_dir = args.out or os.path.join(
        cfg.output_dir, f"solution_{args.method}_{cfg.risk.kind}")
    started = time.perf_counter()
    out = rp.solve_with_method(model, sset, cfg.risk, args.method,
                               cfg.benders, cfg.extensive_max_variables,
                               lp_dump_path=args.dump_lp)
    runtime = time.perf_counter() - started
    rp.write_solution(out_dir, model, sset, out, args.method, cfg.risk,
                      cfg.config_hash,
                      rp.scenario_manifest_hash(cfg.scenario_dir), runtime)
    status = "converged" if out.converged else "NOT CONVERGED"
    print(f"{args.method} objective {out.objective:.6f} ({status}), "
          f"artifacts in {out_dir}")
    if not out.converged:
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def cmd_evaluate(args) -> int:
    cfg = load_config(args.config)
    sset = _load_scenarios(cfg)
    report = rp.evaluate_solution(cfg, args.solution, sset)
    out_dir = args.out or os.path.join(args.solution, "evaluation")
    rp.write_profit_report(report, out_dir)
    print(f"expected profit {report.expected_profit:.4f} "
          f"(std {report.profit_std:.4f}, cost CVaR_{report.alpha:g} "
          f"{report.cost_cvar:.4f}); report in {out_dir}")
    return EXIT_OK


def cmd_tariff_sweep(args) -> int:
    cfg = load_config(args.config)
    model = cfg.build_model()
    sset = _load_scenarios(cfg)
    for label, hours in (("low", cfg.sweep_low_hours), ("high", cfg.sweep_high_hours)):
        if not cfg.window_steps(hours):
            print(f"warning: {label} tariff window {list(hours)} h selects no step; "
                  "window hours count from the horizon start", file=sys.stderr)
    rows, profiles = rp.tariff_sweep(cfg, model, sset, args.levels)
    out_dir = args.out or os.path.join(cfg.output_dir, "tariff_sweep")
    rp.write_sweep_report(rows, profiles, out_dir, cfg.config_hash)
    failed = [r.level for r in rows if r.failed]
    print(f"sweep over {len(rows)} levels written to {out_dir}"
          + (f" ({len(failed)} failed levels: {failed})" if failed else ""))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vpp-sched",
        description="Multi-market scheduling of a virtual power plant "
                    "under uncertainty")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("make-instance", help="write a synthetic instance")
    p.add_argument("--preset", default="desk", choices=sorted(PRESETS))
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--scenario-count", type=int, default=10)
    p.add_argument("--scenario-seed", type=int, default=42)
    p.set_defaults(func=cmd_make_instance)

    p = sub.add_parser("generate-scenarios", help="sample and persist scenarios")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_generate_scenarios)

    p = sub.add_parser("solve", help="solve the two-stage program")
    p.add_argument("--config", required=True)
    p.add_argument("--method", required=True, choices=("benders", "extensive"))
    p.add_argument("--risk", choices=("neutral", "cvar"), default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--dump-lp", default=None, metavar="FILE",
                   help="also write the monolithic program in LP text format "
                        "(extensive method only)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("evaluate", help="profit report from a stored solution")
    p.add_argument("--config", required=True)
    p.add_argument("--solution", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("tariff-sweep", help="dynamic-tariff sensitivity sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--levels", type=_parse_levels, default=None,
                   help="start:stop:step, e.g. 0:1:0.1")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_tariff_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed the message; normalize the code
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (UsageError, ConfigError, sg.ScenarioError, rp.ReportError,
            tables.TableError, dv.DeviceError, nw.NetworkError,
            ModelError, mk.MarketError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except st.ModelInfeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (st.StochasticError, bd.BendersError, lp.LpSolveError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
