"""Command-line front end: sweep tables and oracle comparison reports.

Subcommands
-----------
sweep-angle     one row per momentum transfer delta
sweep-temp      one row per temperature at fixed delta
oracle-compare  per-channel deviation statistics plus scaling-exponent fits,
                over the rows sweep-angle prints with --method both

A --config file holds key=value lines, each key a flag without its '--'; it
may hold only the keys whose flags the subcommand takes.

Output is CSV ('%.10e' cells, in full where that would round a finite value
past the largest float; comma separator, '\n' line ends) or JSON with a
config echo, where non-finite cells are null; identical configs produce
byte-identical files.  Run as `trapscatter ...` or
`python -m trapscatter.cli ...`.

Exit codes: 0 success, 2 invalid configuration, 3 numerical failure: in at
least one row (the table is still written, failures flagged per row), or
before any row (no table is written).

A command runs in two stages.  The first, on the standard library alone,
parses the command line, reads the --config file and makes every check of
the configuration, so --help and every invalid configuration exit before
numpy loads.  The second, `trapscatter.sweeps`, imports numpy and the model
modules the command runs (the oracle only for --method oracle or both, and
oracle-compare), then computes the table this module writes.
"""

import argparse
import csv
import gc
import json
import math
import os
import sys
from types import SimpleNamespace

# Every BLAS call the program makes is below OpenBLAS's threading thresholds;
# set here, before the second stage loads numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import __version__, critical_temperature
from .errors import ConfigError, ConvergenceError, TruncationError

__all__ = ["SweepConfig", "sweep_angle", "sweep_temperature", "oracle_compare", "main"]


class SweepConfig(SimpleNamespace):
    """Validated sweep parameters: each `_CONFIG_FIELDS` field, at its default unless given."""

    def __init__(self, **fields):
        defaults = {field: default for field, default, *_ in _CONFIG_FIELDS.values()}
        unknown = fields.keys() - defaults.keys()
        if unknown:
            raise TypeError(f"SweepConfig() got an unexpected keyword argument {min(unknown)!r}")
        super().__init__(**{**defaults, **fields})

    def validate_common(self):
        for key, (field_name, _, cast, *_) in _CONFIG_FIELDS.items():
            value = getattr(self, field_name)
            if cast is float and value is not None and not math.isfinite(value):
                raise ConfigError(key.replace("_", "-"), "must be finite")
        if self.n_total < 1:
            raise ConfigError("n", "must be >= 1")
        if self.n_total > sys.float_info.max:
            raise ConfigError("n", "too large for a float")
        for key in ("t_over_tc", "t_over_tc_lo", "t_over_tc_hi"):
            ratio = getattr(self, _CONFIG_FIELDS[key][0])
            if ratio is not None and math.isinf(ratio * critical_temperature(self.n_total)):
                raise ConfigError(key.replace("_", "-"), "temperature too large for a float")
        if self.k_incident <= 0:
            raise ConfigError("k-incident", "must be positive")
        if self.points < 2:
            raise ConfigError("points", "must be >= 2")
        for key, choices in _CHOICES.items():
            if getattr(self, _CONFIG_FIELDS[key][0]) not in choices:
                raise ConfigError(key, f"must be one of {choices}")

    @property
    def semiclassical(self):
        return self.method in ("semiclassical", "both")

    @property
    def oracle(self):
        return self.method in ("oracle", "both")

    def resolve_temperature(self):
        """Absolute T from either --t or --t-over-tc."""
        if (self.t is None) == (self.t_over_tc is None):
            raise ConfigError("t", "exactly one of --t / --t-over-tc is required")
        if self.t is not None:
            if self.t <= 0:
                raise ConfigError("t", "must be positive")
            return float(self.t)
        if self.t_over_tc <= 0:
            raise ConfigError("t-over-tc", "must be positive")
        return self.t_over_tc * critical_temperature(self.n_total)

    def delta_range(self):
        if self.delta_lo <= 0:
            raise ConfigError("delta-lo", "must be positive")
        if self.delta_hi <= self.delta_lo:
            raise ConfigError("delta-hi", "must exceed delta-lo")
        if self.delta_hi > 2.0 * self.k_incident:
            raise ConfigError("delta-hi", "exceeds the elastic bound 2 k_incident")
        return self.delta_lo, self.delta_hi

    def fixed_delta(self):
        if self.delta_fixed is None or self.delta_fixed <= 0:
            raise ConfigError("delta", "sweep-temp needs a positive fixed --delta")
        if self.delta_fixed > 2.0 * self.k_incident:
            raise ConfigError("delta", "exceeds the elastic bound 2 k_incident")
        return self.delta_fixed

    def temperature_range(self):
        absolute = (self.t_lo, self.t_hi)
        ratio = (self.t_ratio_lo, self.t_ratio_hi)
        if any(v is not None for v in absolute) and any(v is not None for v in ratio):
            raise ConfigError("t-lo", "give either absolute --t-lo/--t-hi or ratio bounds, not both")
        if all(v is not None for v in absolute):
            lo, hi = absolute
        elif all(v is not None for v in ratio):
            tc = critical_temperature(self.n_total)
            lo, hi = ratio[0] * tc, ratio[1] * tc
        else:
            raise ConfigError("t-lo", "sweep-temp needs --t-lo/--t-hi or --t-over-tc-lo/--t-over-tc-hi")
        if lo <= 0:
            raise ConfigError("t-lo", "must be positive")
        if hi <= lo:
            raise ConfigError("t-hi", "must exceed the lower bound")
        return lo, hi


def sweep_angle(config):
    """Channel table over a delta grid at fixed (N, T)."""
    config.validate_common()
    temperature, bounds = config.resolve_temperature(), config.delta_range()
    return _load_model(config.oracle).angle_table(config, temperature, bounds)


def sweep_temperature(config):
    """Channel table over a temperature grid at fixed delta."""
    config.validate_common()
    delta_fixed, bounds = config.fixed_delta(), config.temperature_range()
    return _load_model(config.oracle).temperature_table(config, delta_fixed, bounds)


def oracle_compare(config):
    """Deviation statistics of sweep-angle's --method both rows, and scaling fits."""
    # the method is checked as given; the report's rows run with --method both
    config.validate_common()
    temperature, bounds = config.resolve_temperature(), config.delta_range()
    return _load_model(True).compare_report(config, temperature, bounds)


def _load_model(oracle):
    """The second stage: `trapscatter.sweeps`, which imports numpy, thermo and scattering.

    The oracle, with its oscillator, loads only if `oracle` is true.
    """
    from . import sweeps

    if oracle:
        sweeps.load_oracle()
    return sweeps


# ---------------------------------------------------------------------------
# I/O plumbing
# ---------------------------------------------------------------------------

def _json_cell(value):
    if isinstance(value, str):
        return value
    value = float(value)
    return value if math.isfinite(value) else None


def _format_cell(value):
    if isinstance(value, str):
        return value
    text = "%.10e" % value
    # a finite value within 11 digits of the largest float rounds past it: keep every digit
    return repr(float(value)) if math.isinf(float(text)) and math.isfinite(value) else text


def write_csv(table, stream):
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(table.columns)
    for row in table.rows:
        writer.writerow([_format_cell(v) for v in row])


def write_json(result, stream):
    """A report dict as it is, or a SweepTable as {version, meta, columns, rows}."""
    if not isinstance(result, dict):
        result = {
            "version": __version__,
            "meta": result.meta,
            "columns": result.columns,
            "rows": [[_json_cell(v) for v in row] for row in result.rows],
        }
    json.dump(result, stream, indent=2, sort_keys=True)
    stream.write("\n")


def _emit_table(result, config):
    """Write a SweepTable or the oracle-compare report to config.out ('-' for stdout)."""
    write = write_csv if config.fmt == "csv" else write_json
    try:
        if config.out == "-":
            write(result, sys.stdout)
            sys.stdout.flush()
            return
        stream = open(config.out, "w", encoding="utf-8", newline="")
    except BrokenPipeError as exc:
        # the reader left: the flush at exit would fail again, so it goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise ConfigError("out", str(exc)) from exc
    except OSError as exc:
        raise ConfigError("out", str(exc)) from exc
    with stream:
        write(result, stream)


def parse_config_file(path):
    """Plain key=value file; '#' starts a comment; keys mirror flag names."""
    values = {}
    try:
        with open(path, encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError("config", f"line {lineno}: expected key=value")
                key, _, value = line.partition("=")
                values[key.strip().replace("-", "_")] = value.strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("config", str(exc)) from exc
    return values


def _parse_bool(text):
    lowered = str(text).strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError("log", f"not a boolean: {text!r}")


_SUBCOMMANDS = {
    "sweep-angle": "table over momentum transfer",
    "sweep-temp": "table over temperature at fixed delta",
    "oracle-compare": "semiclassical vs oracle report",
}
_ALL = tuple(_SUBCOMMANDS)
_GRID = ("sweep-angle", "oracle-compare")
_TEMP = ("sweep-temp",)

# config key -> (SweepConfig field, default, cast, subcommands taking --key,
# help); the flag is the key with '_' as '-', listed in --help in this order
# with its help and the default where there is one
_CONFIG_FIELDS = {
    "n": ("n_total", 1000, int, _ALL, "particle number N"),
    "t": ("t", None, float, _GRID, "temperature in trap units"),
    "t_over_tc": ("t_over_tc", None, float, _GRID, "temperature as a fraction of Tc"),
    "k_incident": ("k_incident", 100.0, float, _ALL, "incident photon momentum in trap units"),
    "method": ("method", "semiclassical", str, _ALL, "semiclassical formulas, the exact discrete oracle, or both"),
    "out": ("out", "-", str, _ALL, "output path, '-' for stdout"),
    "format": ("fmt", "csv", str, _ALL, "table format; oracle-compare writes json only"),
    "delta_lo": ("delta_lo", 0.1, float, _GRID, "lowest momentum transfer"),
    "delta_hi": ("delta_hi", 10.0, float, _GRID, "highest momentum transfer, at most 2 k-incident"),
    "delta": ("delta_fixed", None, float, _TEMP, "fixed momentum transfer"),
    "t_lo": ("t_lo", None, float, _TEMP, "lowest temperature in trap units"),
    "t_hi": ("t_hi", None, float, _TEMP, "highest temperature in trap units"),
    "t_over_tc_lo": ("t_ratio_lo", None, float, _TEMP, "lowest temperature as a fraction of Tc"),
    "t_over_tc_hi": ("t_ratio_hi", None, float, _TEMP, "highest temperature as a fraction of Tc"),
    "points": ("points", 50, int, _ALL, "number of grid points"),
    "log": ("log_spacing", False, _parse_bool, _ALL, "log-spaced grid"),
}
_CHOICES = {"method": ("semiclassical", "oracle", "both"), "format": ("csv", "json")}


def build_config(args):
    """SweepConfig from a parsed namespace, file values overridden by flags."""
    config = SweepConfig()
    if args.config:
        for key, text in parse_config_file(args.config).items():
            if key not in _CONFIG_FIELDS:
                raise ConfigError("config", f"unknown key {key!r}")
            field_name, _, cast, takers, _ = _CONFIG_FIELDS[key]
            if args.subcommand not in takers:
                raise ConfigError("config", f"{args.subcommand} takes no key {key!r}")
            try:
                setattr(config, field_name, cast(text))
            except ValueError as exc:
                raise ConfigError(key, str(exc)) from exc
    for key, (field_name, *_) in _CONFIG_FIELDS.items():
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            setattr(config, field_name, flag_value)
    return config


def build_parser():
    parser = argparse.ArgumentParser(
        prog="trapscatter",
        description="Photon scattering channels off a harmonically trapped Bose gas",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    commands = {}
    for name, text in _SUBCOMMANDS.items():
        commands[name] = sub.add_parser(name, help=text)
        commands[name].add_argument("--config", default=None, help="key=value config file")
    for key, (_, default, cast, names, text) in _CONFIG_FIELDS.items():
        if default is not None:
            text += f" (default: {default})"
        if cast is _parse_bool:
            kind = {"action": argparse.BooleanOptionalAction}
        else:
            kind = {"type": cast, "choices": _CHOICES.get(key)}
        for name in names:
            commands[name].add_argument("--" + key.replace("_", "-"), dest=key, default=None, help=text, **kind)
    return parser


def main(argv=None):
    """Run one command line and return its exit code."""
    args = build_parser().parse_args(argv)
    try:
        config = build_config(args)
        if args.subcommand == "sweep-angle":
            result = sweep_angle(config)
        elif args.subcommand == "sweep-temp":
            result = sweep_temperature(config)
        else:
            if config.fmt == "csv":
                raise ConfigError("format", "oracle-compare emits a JSON report")
            result = oracle_compare(config)
        _emit_table(result, config)
        failed = not isinstance(result, dict) and any(":error" in row[-1] for row in result.rows)
        return 3 if failed else 0
    except ConfigError as exc:
        print(f"config-invalid: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, TruncationError) as exc:
        print(f"numerical-failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def entrypoint():
    """`main` on sys.argv, in a process that runs one command and exits.

    The garbage collector is off for the command: reference counting frees
    its temporaries, the few reference cycles it leaves end with the process,
    and every collection would walk the objects numpy and the package create
    at import.  The heap is frozen once the command is done, so that the
    collection at interpreter exit does not walk them either.
    """
    gc.disable()
    code = main()
    gc.freeze()
    raise SystemExit(code)


if __name__ == "__main__":
    entrypoint()
