"""Command-line interface wiring the package into reproducible runs.

Subcommands: predict, simulate, bounds, spacetime, report.  Every
command is a pure function of its inputs and seed: rerunning with the
same arguments reproduces the output files byte for byte and leaves them
untouched.  Input files are parsed in `scenario`, `trials` and
`spacetime`; a bad one exits 1.

Exit codes: 0 success, 1 usage or configuration error, 2 domain error
(e.g. a fair-sampling table with an undetectable cell), 3 spacetime
validation failure.

`main` builds its parser once per process and reuses it: parsing leaves
an argparse parser unchanged, each call gets a fresh namespace, and
usage, errors and `-h` write to the `sys.stdout`/`sys.stderr` of the
moment, so a `redirect_stdout` still captures them.  `build_parser`
returns a new parser on every call.

An argv whose first token is a command's name is parsed by that
command's own parser, into a namespace that already holds the command:
the top-level parser would only hand it the same tokens.  The full
parser speaks only when the first token names no command (none, `-h`,
an unknown name) or the command leaves arguments over; it then parses
the same argv, so its usage line and error are the ones it always
printed.
"""

from __future__ import annotations

import argparse
import errno
import os
import stat
import sys
from dataclasses import dataclass, replace
from functools import cache
from pathlib import Path

from ._lazy import np
from .classical import classical_max_det, classical_max_linear
from .scenario import Scenario, csv_text, json_text, load_json, probability_table, read_section
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
from .witness import (
    IDW_COEF,
    IDW_SHAPE,
    SIGMA_BOUNDS,
    WitnessReport,
    dimension_witness,
    report_from_table,
)


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
    cfg = RunConfig(**read_section(load_json(path), _RUN_CONFIG_KEYS, "top-level"))
    if cfg.outputs == "":  # `pathlib` would take it for the working directory
        raise ValueError("top-level config: outputs must be a non-empty JSON string, got ''")
    return cfg


def _read(kind: str, load, path: str):
    """`load(path)`, with a missing or unusable `kind` file a ConfigError."""
    try:
        return load(path)
    except FileNotFoundError as exc:
        raise ConfigError(f"{kind} file not found: {path}") from exc
    except OSError as exc:  # a directory, no read permission, ...
        raise ConfigError(f"{kind} file {path}: {exc.strerror}") from exc
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


def _stat(stat_path, path: str) -> os.stat_result | None:
    """`stat_path(path)`, or None where `pathlib`'s exists() calls the path absent."""
    try:
        return stat_path(path)
    except OSError as exc:
        if exc.errno not in (errno.ENOENT, errno.ENOTDIR, errno.EBADF, errno.ELOOP):
            raise
    return None


def _file_type(found: os.stat_result | None) -> int:
    """`found`'s S_IFMT bits; 0 for an absent path."""
    return 0 if found is None else stat.S_IFMT(found.st_mode)


def _new_file_mode() -> int:
    """The mode `open(path, "xb")` gives a new file: 0o666 less the umask.  os.umask reads it
    only by setting it; 0o777 meanwhile gives a file another thread creates no access at all."""
    umask = os.umask(0o777)
    os.umask(umask)
    return 0o666 & ~umask


def _holds(path: str, found: os.stat_result | None, data: bytes) -> bool:
    """Whether `path`, of os.lstat `found`, is a regular file of one link, with the mode a new
    file would get, holding exactly `data`.  It is read through a descriptor that follows no
    symlink and waits on no FIFO, and whose os.fstat must show a regular file; one that cannot
    be read does not hold it."""
    if _file_type(found) != stat.S_IFREG or found.st_nlink != 1 or found.st_size != len(data):
        return False
    if stat.S_IMODE(found.st_mode) != _new_file_mode():  # a rewrite would change it
        return False
    try:
        fd = os.open(path, os.O_RDONLY | os.O_NOFOLLOW | os.O_NONBLOCK)
    except OSError:
        return False
    try:
        if not stat.S_ISREG(os.fstat(fd).st_mode):  # swapped in since the os.lstat
            return False
        return os.read(fd, len(data) + 1) == data  # a short read or a grown file differs
    except OSError:
        return False
    finally:
        os.close(fd)


def _write_outputs(outputs: str | None, files: dict[str, str], lines=()) -> None:
    """Write each `name -> text` of `files` into the output directory all or nothing, then
    print the caller's result `lines` and the "wrote" line; call it once computed.  An OSError
    is a ConfigError, and on one nothing is printed.  A name that already is a regular file of
    one link holding the text's bytes, with the mode a new file would get and no temporary
    beside it, is kept as it is: its inode and mtime stay.  A symlink at an output name is
    replaced, not followed; one to a directory is refused, as a directory is.  Each temporary
    is created exclusively and written through that handle, so no write lands outside the
    directory, and before the renames, which go by name, its os.lstat must still be the
    regular file of the handle's os.fstat.  Every file costs an os.lstat of its temporary and
    one of its name (and an os.stat of a symlink); one of the right size then two os.umask
    calls.  A kept one then costs an os.open, os.fstat, read and close, a written one the
    create, an os.fstat, one write of its bytes, the os.lstat check and an os.replace."""
    out = str(Path("out" if outputs is None else outputs))  # spelt as `pathlib` spells it
    if not os.path.isdir(out):  # one stat for an existing directory; it never raises
        try:
            Path(out).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            why = f"cannot create the directory ({exc.strerror})"
            raise ConfigError(f"--out {out}: {why}") from exc
    temps = {name: f"{out}/.{name}.tmp" for name in files}  # renamed once all are written
    data = {name: text.encode() for name, text in files.items()}
    stale = {}  # the file type of each temporary found before this call; 0: absent
    kept = set()  # the names that already hold their bytes
    created = {}  # the os.fstat of each temporary this call has created
    try:
        for name, temp in temps.items():
            stale[name] = _file_type(_stat(os.lstat, temp))
            found = _stat(os.lstat, f"{out}/{name}")
            kind = _file_type(found)
            if kind == stat.S_IFLNK:  # replaced, not followed, unless it leads to a non-file
                kind = _file_type(_stat(os.stat, f"{out}/{name}"))
            if kind not in (0, stat.S_IFREG):
                raise ConfigError(f"--out {out}: cannot write {name} (not a regular file)")
            if stale[name] not in (0, stat.S_IFREG, stat.S_IFLNK):
                why = f".{name}.tmp is not a regular file"
                raise ConfigError(f"--out {out}: cannot write {name} ({why})")
            if not stale[name] and _holds(f"{out}/{name}", found, data[name]):
                kept.add(name)
        for name in files:
            if name in kept:
                continue
            if stale[name]:  # a symlink is not followed
                Path(temps[name]).unlink(missing_ok=True)
            with open(temps[name], "xb") as fh:
                created[name] = os.fstat(fh.fileno())
                fh.write(data[name])
        for name, handle in created.items():
            found = os.lstat(temps[name])
            if not (stat.S_ISREG(found.st_mode) and os.path.samestat(handle, found)):
                why = f".{name}.tmp was replaced while it was written"
                raise ConfigError(f"--out {out}: cannot write {name} ({why})")
        for name in created:
            os.replace(temps[name], f"{out}/{name}")
    except (OSError, ConfigError) as exc:
        for temp in map(temps.get, created):  # the renamed ones are gone already
            Path(temp).unlink(missing_ok=True)
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"--out {out}: cannot write {name} ({exc.strerror})") from exc
    print(*lines, f"wrote {out}/{', '.join(files)}", sep="\n")


def _witness_files(report: WitnessReport) -> dict:
    """witness.json, and witness.csv: the same values in one row, then a
    `<name>_err` column per standard error (empty when the report has none)."""
    values = report.to_json_dict()
    row = {key: value for key, value in values.items() if key != "uncertainties"}
    row.update((f"{k}_err", values["uncertainties"].get(k)) for k in ("det_abs", "i_dw", "r"))
    return {
        "witness.json": json_text(values),
        "witness.csv": csv_text(list(row), [list(row.values())]),
    }


def _report_lines(report: WitnessReport) -> list[str]:
    lines = [(f"I_DW = {report.i_dw:.6g}, R = {report.r:.6g}", "i_dw", report.sigma_idw)]
    if report.det_abs is not None:
        lines.insert(0, (f"|det W| = {report.det_abs:.6g}", "det_abs", report.sigma_det))
    return [
        text if sigma is None else f"{text} ({sigma:.1f} sigma above {SIGMA_BOUNDS[name]:g})"
        for text, name, sigma in lines
    ]


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
    d = table.d_values()
    terms = [[f"D_{i}{j}", i, j, c, float(d[i, j])] for (i, j), c in np.ndenumerate(IDW_COEF) if c]
    files = {
        "scenario.json": json_text(scenario.to_json_dict()),
        "probabilities.csv": table.to_csv(),
        "dw_terms.csv": csv_text(["term", "i", "j", "sign", "value"], terms),
    }
    _write_outputs(cfg.outputs, {**files, **_witness_files(report)}, _report_lines(report))
    return 0


def _analyze(counts: CountTable, resamples: int, seed: int, fair: bool, outputs, files) -> int:
    """The end of simulate and report: estimate `counts` and their standard errors,
    write `files`, estimated.csv and the witness files and print the report."""
    estimated = estimate(counts, fair)
    report = bootstrap_report(counts, resamples, seed, fair)
    files = {**files, "estimated.csv": estimated.to_csv(), **_witness_files(report)}
    _write_outputs(outputs, files, _report_lines(report))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(_read("config", load_run_config, args.config), args)
    scenario = _require(cfg.scenario, "scenario")
    plan = _require(cfg.plan, "plan")
    resamples = _check_resamples(cfg.resamples)
    # drawn as a run records them, undetected trials included; `estimate` postselects
    counts = sample(probability_table(replace(scenario, fair_sampling=False)), plan)
    files = {"counts.csv": counts.to_csv()}
    return _analyze(counts, resamples, plan.seed, scenario.fair_sampling, cfg.outputs, files)


def _cmd_report(args: argparse.Namespace) -> int:
    resamples = _check_resamples(args.resamples)
    counts = _read("counts", CountTable.from_csv, args.counts)
    return _analyze(counts, resamples, args.seed, args.fair_sampling, args.out, {})


def _cmd_bounds(args: argparse.Namespace) -> int:
    search = _given({"restarts": args.restarts, "seed": args.seed})
    if args.witness == "idw" and search:
        raise ConfigError(f"--witness idw takes no {' or '.join(f'--{name}' for name in search)}")
    least = 1 if args.witness == "idw" else 2
    if args.dimension < least:
        raise ConfigError(f"--dimension must be >= {least}, got {args.dimension}")
    if args.witness == "idw":
        value, strategy = classical_max_linear(dimension_witness, args.dimension, *IDW_SHAPE)
        name, bound = "I_DW", {"value": value, "strategy": strategy.to_json_dict()}
    else:
        name, bound = "|det W|", classical_max_det(args.dimension).to_json_dict()
    payload = {"witness": args.witness, "dimension": args.dimension, **bound}
    line = f"classical {name} bound (d={args.dimension}): {bound['value']:g}"
    _write_outputs(args.out, {"bounds.json": json_text(payload)}, [line])
    return 0


def _cmd_spacetime(args: argparse.Namespace) -> int:
    schedule = _read("schedule", Schedule.from_json_file, args.schedule)
    report = validate(schedule)
    lines = [
        f"{cond.name} {'PASS' if cond.passed else 'FAIL'}: {cond.description} ({cond.detail})"
        for cond in report.conditions
    ]
    if args.out is None:
        for line in lines:
            print(line)
    else:
        _write_outputs(args.out, {"spacetime.json": json_text(report.to_json_dict())}, lines)
    return 0 if report.all_passed else 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


_IGNORED = "accepted and ignored; {} is exact; removed with the benchmark revision".format


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pamsim",
        description="Prepare-and-measure experiment simulator and analyzer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    flags = {
        "config": dict(required=True, help="run configuration JSON"),
        "seed": dict(type=_non_negative_int, help="RNG seed"),
        "resamples": dict(type=_non_negative_int, help=_IGNORED("|det W|'s error")),
        "fair_sampling": dict(type=_parse_bool, metavar="BOOL", help="postselect (true/false)"),
        "out": dict(type=_out_dir, help="output directory"),
    }

    def add(p, *names):
        for name in names:
            p.add_argument("--" + name.replace("_", "-"), **flags[name])

    p = sub.add_parser("predict", help="analytic probabilities and witness report")
    add(p, "config", "fair_sampling", "out")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("simulate", help="finite sampled run with standard errors")
    add(p, "config", "seed", "resamples", "fair_sampling", "out")
    p.add_argument("--trials", type=_non_negative_int, help="override trials per setting")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("report", help="analyze an existing counts CSV")
    p.add_argument("--counts", required=True, help="counts CSV (i,j,n_e,n_d,n_none)")
    p.add_argument("--seed", type=_non_negative_int, help=_IGNORED("|det W|'s error"))
    add(p, "resamples", "fair_sampling", "out")
    # with no config file to read, report takes the config fields' defaults
    p.set_defaults(
        func=_cmd_report,
        seed=RunPlan.seed,
        resamples=RunConfig.resamples,
        fair_sampling=Scenario.fair_sampling,
    )

    p = sub.add_parser("bounds", help="classical witness bounds in closed form")
    p.add_argument("--witness", choices=("idw", "det"), required=True)
    p.add_argument(
        "--dimension", "-d", type=_non_negative_int, default=2, help="message dimension"
    )
    # --restarts and --seed are range-checked and refused with --witness idw, and otherwise
    # unused: the |det W| bound draws nothing.  They stay until the benchmark stops passing them
    p.add_argument("--restarts", type=_non_negative_int, help=_IGNORED("the |det W| bound"))
    p.add_argument("--seed", type=_non_negative_int, help=_IGNORED("the |det W| bound"))
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


def _out_dir(text: str) -> str:
    if not text:  # `pathlib` would take it for the working directory
        raise argparse.ArgumentTypeError("expected a directory, got ''")
    return text


def _parse_bool(text: str) -> bool:
    lower = text.strip().lower()
    if lower in ("true", "1", "yes", "on"):
        return True
    if lower in ("false", "0", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {text!r}")


@cache
def _parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser that `main` reuses, and each command's parser by name: the choices of its
    one subparsers action."""
    parser = build_parser()
    (commands,) = (a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return parser, commands


def _parse(argv: list[str] | None = None) -> argparse.Namespace:
    """`build_parser().parse_args(argv)`, `sys.argv[1:]` for None, through the command's own
    parser where `argv[0]` names one and it leaves nothing over."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _parser()
    if argv and argv[0] in commands:
        args, extras = commands[argv[0]].parse_known_args(
            argv[1:], argparse.Namespace(command=argv[0])
        )
        if not extras:
            return args
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
