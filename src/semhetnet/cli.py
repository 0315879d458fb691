"""Command-line interface: gen, solve, sweep, and validate subcommands."""

import argparse
import json
import os
import sys

from .config import METHOD_NAMES, SWEEP_VARIABLES, ScenarioConfig, load_config
from .errors import ConfigError, SolverError
from .harness import build_scenario, run_scenario, sweep, validate


def _add_common(parser):
    parser.add_argument("--config", help="path to a scenario config JSON")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, help="override the config seed list")
    parser.add_argument(
        "--methods",
        help=f"comma-separated subset of {','.join(METHOD_NAMES)}",
    )


def _load(args):
    cfg = load_config(args.config) if args.config else ScenarioConfig()
    if args.seed is not None:
        cfg = cfg.replace(seeds=(args.seed,))
    if getattr(args, "methods", None):
        cfg = cfg.replace(methods=tuple(m.strip() for m in args.methods.split(",")))
    return cfg


def _cmd_gen(args):
    cfg = _load(args)
    scenario = build_scenario(cfg, cfg.seeds[0])
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "topology.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(scenario.topology.to_json())
    print(f"wrote {path}")
    return 0


def _cmd_solve(args):
    cfg = _load(args)
    rows, _, _ = run_scenario(cfg, out_dir=args.out)
    for row in rows:
        print(f"seed={row['seed']} method={row['method']} "
              f"expected_stm={row['expected_stm']:.6g} fbar={row['fbar']:.6g} "
              f"unserved={row['unserved']}")
    print(f"wrote {os.path.join(args.out, 'results.csv')}")
    return 0


def _cmd_sweep(args):
    cfg = _load(args)
    values = None
    if args.values:
        try:
            values = [float(v) for v in args.values.split(",")]
        except ValueError as exc:
            raise ConfigError(f"--values: {exc}") from exc
    rows = sweep(cfg, variable=args.variable, values=values, out_dir=args.out)
    print(f"wrote {os.path.join(args.out, 'sweep.csv')} ({len(rows)} rows)")
    return 0


def _cmd_validate(args):
    cfg = _load(args)
    checks = validate(cfg)
    for check in checks:
        print(f"{'PASS' if check.passed else 'FAIL'} {check.name}: {check.detail}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "validate.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                [{"name": c.name, "passed": c.passed, "detail": c.detail, "data": c.data}
                 for c in checks],
                fh, indent=2,
            )
        print(f"wrote {path}")
    return 0 if all(c.passed for c in checks) else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="semhetnet",
        description="User association and bandwidth allocation for "
                    "knowledge-constrained semantic HetNets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate and emit a topology JSON")
    _add_common(p_gen)
    p_gen.set_defaults(func=_cmd_gen)

    p_solve = sub.add_parser("solve", help="run one scenario and write results")
    _add_common(p_solve)
    p_solve.set_defaults(func=_cmd_solve)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep")
    _add_common(p_sweep)
    p_sweep.add_argument("--variable", choices=SWEEP_VARIABLES)
    p_sweep.add_argument("--values", help="comma-separated sweep values")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_val = sub.add_parser("validate", help="run the invariant suite")
    _add_common(p_val)
    p_val.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
