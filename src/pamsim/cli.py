"""Command-line interface wiring the package into reproducible runs.

Subcommands: predict, simulate, bounds, spacetime, report.  Every
command is a pure function of its inputs and seed: rerunning with the
same arguments reproduces the output files byte for byte.  Input files
are parsed in `scenario`, `trials` and `spacetime`; a bad one exits 1.

Exit codes: 0 success, 1 usage or configuration error, 2 domain error
(e.g. enumeration cap exceeded), 3 spacetime validation failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .classical import (
    EnumerationCapExceeded,
    classical_max_det,
    classical_max_linear,
    strategy_count,
)
from .scenario import Scenario, load_json, probability_table, read_section, write_csv, write_json
from .spacetime import Schedule, validate
from .trials import (
    MIN_RESAMPLES,
    CountTable,
    RunPlan,
    bootstrap_report,
    estimate,
    non_negative_int,
    sample,
)
from .witness import IDW_COEF, WitnessReport, dimension_witness, report_from_table


class ConfigError(Exception):
    """Unusable configuration input (missing file, bad JSON, bad schema)."""


@dataclass(frozen=True)
class RunConfig:
    """A run's inputs from its config file; `_apply_overrides` applies the flags."""

    scenario: Scenario | None = None
    plan: RunPlan | None = None
    resamples: int = 10_000
    outputs: str | None = None


_RUN_CONFIG_KEYS = {
    "scenario": Scenario.from_json_dict,
    "plan": RunPlan.from_json_dict,
    "resamples": int,
    "outputs": str,
}


def load_run_config(path: str) -> RunConfig:
    return RunConfig(**read_section(load_json(path), _RUN_CONFIG_KEYS, "top-level"))


def _read(kind: str, load, path: str):
    """`load(path)`, with a missing or unusable `kind` file a ConfigError."""
    try:
        return load(path)
    except FileNotFoundError as exc:
        raise ConfigError(f"{kind} file not found: {path}") from exc
    except ValueError as exc:
        raise ConfigError(f"{kind} file {path}: {exc}") from exc


def _given(values: dict) -> dict:
    return {key: value for key, value in values.items() if value is not None}


def _apply_overrides(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    """`cfg` with each value that a flag in `args` gives in place of its own."""
    flag = vars(args).get
    if flag("trials") is not None and args.trials < 1:
        raise ConfigError(f"--trials must be >= 1, got {args.trials}")
    top = _given({"resamples": flag("resamples"), "outputs": flag("out")})
    if cfg.scenario is not None and flag("fair_sampling") is not None:
        top["scenario"] = replace(cfg.scenario, fair_sampling=args.fair_sampling)
    if cfg.plan is not None:
        plan = _given({"seed": flag("seed"), "trials_per_setting": flag("trials")})
        top["plan"] = replace(cfg.plan, **plan)
    return replace(cfg, **top)


def _outdir(outputs: str | None) -> Path:
    """The output directory, created: call it once the outputs are computed.
    A path that cannot be a directory (a file, or below one) is a ConfigError."""
    out = Path("out" if outputs is None else outputs)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {out}: cannot create the directory ({exc.strerror})") from exc
    return out


def _write_witness(out: Path, report: WitnessReport) -> None:
    """Write witness.json, and witness.csv: the same values in one row, then a
    `<name>_err` column per standard error (empty when the report has none)."""
    values = report.to_json_dict()
    write_json(out / "witness.json", values)
    errors = values.pop("uncertainties")
    names = ("det_abs", "i_dw", "r")
    header = [*values, *(f"{name}_err" for name in names)]
    write_csv(out / "witness.csv", header, [[*values.values(), *map(errors.get, names)]])


def _print_report(report: WitnessReport) -> None:
    if report.det_abs is not None:
        line = f"|det W| = {report.det_abs:.6g}"
        if report.sigma_det is not None:
            line += f" ({report.sigma_det:.1f} sigma above 0)"
        print(line)
    line = f"I_DW = {report.i_dw:.6g}, R = {report.r:.6g}"
    if report.sigma_idw is not None:
        line += f" ({report.sigma_idw:.1f} sigma above 3)"
    print(line)


def _require(cfg_value, what: str):
    if cfg_value is None:
        raise ConfigError(f"this command needs a {what} section in the config file")
    return cfg_value


def _check_resamples(resamples: int) -> int:
    if resamples < MIN_RESAMPLES:
        raise ConfigError(f"resamples must be >= {MIN_RESAMPLES}, got {resamples}")
    return resamples


def _cmd_predict(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(_read("config", load_run_config, args.config), args)
    scenario = _require(cfg.scenario, "scenario")
    table = probability_table(scenario)
    report = report_from_table(table)
    out = _outdir(cfg.outputs)
    write_json(out / "scenario.json", scenario.to_json_dict())
    table.to_csv(out / "probabilities.csv")
    d = table.d_values()
    terms = [[f"D_{i}{j}", i, j, c, float(d[i, j])] for (i, j), c in np.ndenumerate(IDW_COEF) if c]
    write_csv(out / "dw_terms.csv", ["term", "i", "j", "sign", "value"], terms)
    _write_witness(out, report)
    _print_report(report)
    print(f"wrote {out}/probabilities.csv, dw_terms.csv, witness.json, witness.csv")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(_read("config", load_run_config, args.config), args)
    scenario = _require(cfg.scenario, "scenario")
    plan = _require(cfg.plan, "plan")
    resamples = _check_resamples(cfg.resamples)
    table = probability_table(scenario)
    counts = sample(table, plan)
    estimated = estimate(counts, scenario.fair_sampling)
    report = bootstrap_report(counts, resamples, plan.seed, scenario.fair_sampling)
    out = _outdir(cfg.outputs)
    counts.to_csv(out / "counts.csv")
    estimated.to_csv(out / "estimated.csv")
    _write_witness(out, report)
    _print_report(report)
    print(f"wrote {out}/counts.csv, estimated.csv, witness.json, witness.csv")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    resamples = _check_resamples(args.resamples)
    counts = _read("counts", CountTable.from_csv, args.counts)
    estimated = estimate(counts, args.fair_sampling)
    report = bootstrap_report(counts, resamples, args.seed, args.fair_sampling)
    out = _outdir(args.out)
    estimated.to_csv(out / "estimated.csv")
    _write_witness(out, report)
    _print_report(report)
    print(f"wrote {out}/estimated.csv, witness.json, witness.csv")
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    least = 1 if args.witness == "idw" else 2
    if args.dimension < least:
        raise ConfigError(f"--dimension must be >= {least}, got {args.dimension}")
    if args.witness == "idw":
        value, strategy = classical_max_linear(dimension_witness, args.dimension, *IDW_COEF.shape)
        payload = {
            "witness": "idw",
            "dimension": args.dimension,
            "value": value,
            "n_strategies": strategy_count(args.dimension, *IDW_COEF.shape),
            "strategy": strategy.to_json_dict(),
        }
        print(f"classical I_DW bound (d={args.dimension}): {value:.6g}")
    else:
        result = classical_max_det(args.dimension, restarts=args.restarts, seed=args.seed)
        payload = {"witness": "det", "dimension": args.dimension, **result.to_json_dict()}
        print(
            f"classical |det W| bound (d={args.dimension}): deterministic max "
            f"{result.deterministic_max:.3g}, mixture search max {result.mixture_max:.3g} "
            f"over {result.restarts} restarts"
        )
    out = _outdir(args.out)
    write_json(out / "bounds.json", payload)
    print(f"wrote {out}/bounds.json")
    return 0


def _cmd_spacetime(args: argparse.Namespace) -> int:
    schedule = _read("schedule", Schedule.from_json_file, args.schedule)
    report = validate(schedule)
    for cond in report.conditions:
        status = "PASS" if cond.passed else "FAIL"
        print(f"{cond.name} {status}: {cond.description} ({cond.detail})")
    if args.out is not None:
        out = _outdir(args.out)
        write_json(out / "spacetime.json", report.to_json_dict())
        print(f"wrote {out}/spacetime.json")
    return 0 if report.all_passed else 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pamsim",
        description="Prepare-and-measure experiment simulator and analyzer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    flags = {
        "config": dict(required=True, help="run configuration JSON"),
        "seed": dict(type=_non_negative_int, help="RNG seed"),
        "resamples": dict(type=_non_negative_int, help="bootstrap resample count"),
        "fair_sampling": dict(type=_parse_bool, metavar="BOOL", help="postselect (true/false)"),
        "out": dict(help="output directory"),
    }

    def add(p, *names):
        for name in names:
            p.add_argument("--" + name.replace("_", "-"), **flags[name])

    p = sub.add_parser("predict", help="analytic probabilities and witness report")
    add(p, "config", "fair_sampling", "out")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("simulate", help="finite sampled run with bootstrap errors")
    add(p, "config", "seed", "resamples", "fair_sampling", "out")
    p.add_argument("--trials", type=_non_negative_int, help="override trials per setting")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("report", help="analyze an existing counts CSV")
    p.add_argument("--counts", required=True, help="counts CSV (i,j,n_e,n_d,n_none)")
    add(p, "seed", "resamples", "fair_sampling", "out")
    # with no config file to read, report takes the config fields' defaults
    p.set_defaults(
        func=_cmd_report,
        seed=RunPlan.seed,
        resamples=RunConfig.resamples,
        fair_sampling=Scenario.fair_sampling,
    )

    p = sub.add_parser("bounds", help="classical witness bounds by enumeration/search")
    p.add_argument("--witness", choices=("idw", "det"), required=True)
    p.add_argument(
        "--dimension", "-d", type=_non_negative_int, default=2, help="message dimension"
    )
    p.add_argument(
        "--restarts", type=_non_negative_int, default=10_000, help="mixture-search restarts"
    )
    p.add_argument("--seed", type=_non_negative_int, default=0, help="mixture-search seed")
    add(p, "out")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("spacetime", help="validate an event schedule's causal geometry")
    p.add_argument("schedule", help="schedule JSON file")
    add(p, "out")
    p.set_defaults(func=_cmd_spacetime)

    return parser


def _non_negative_int(text: str) -> int:
    try:
        return non_negative_int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _parse_bool(text: str) -> bool:
    lower = text.strip().lower()
    if lower in ("true", "1", "yes", "on"):
        return True
    if lower in ("false", "0", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {text!r}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (EnumerationCapExceeded, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
