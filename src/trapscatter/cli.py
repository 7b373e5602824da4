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
"""

import argparse
import csv
import gc
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, replace

# Every BLAS call the program makes is below OpenBLAS's threading thresholds.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
import numpy as np

from . import __version__
from .errors import ConfigError, ConvergenceError, PrecisionLossError, TruncationError
from .oracle import _unwrap, exact_breakdowns, scaling_probe, solve_mu_discrete
from .scattering import CHANNELS, Kinematics, decompose_rows
from .thermo import TrapEnsemble, critical_temperature

__all__ = ["SweepConfig", "sweep_angle", "sweep_temperature", "oracle_compare", "main"]

_METHODS = ("semiclassical", "oracle", "both")
_FORMATS = ("csv", "json")


@dataclass
class SweepConfig:
    """Validated sweep parameters shared by all subcommands."""

    n_total: int = 1000
    t: float = None
    t_over_tc: float = None
    k_incident: float = 100.0
    delta_lo: float = 0.1
    delta_hi: float = 10.0
    points: int = 50
    log_spacing: bool = False
    method: str = "semiclassical"
    out: str = "-"
    fmt: str = "csv"
    # sweep-temp only
    delta_fixed: float = None
    t_lo: float = None
    t_hi: float = None
    t_ratio_lo: float = None
    t_ratio_hi: float = None

    def validate_common(self):
        for key, (field_name, cast, *_) in _CONFIG_FIELDS.items():
            value = getattr(self, field_name)
            if cast is float and value is not None and not math.isfinite(value):
                raise ConfigError(key.replace("_", "-"), "must be finite")
        if self.n_total < 1:
            raise ConfigError("n", "must be >= 1")
        if self.n_total > sys.float_info.max:
            raise ConfigError("n", "too large for a float")
        if self.k_incident <= 0:
            raise ConfigError("k-incident", "must be positive")
        if self.points < 2:
            raise ConfigError("points", "must be >= 2")
        if self.method not in _METHODS:
            raise ConfigError("method", f"must be one of {_METHODS}")
        if self.fmt not in _FORMATS:
            raise ConfigError("format", f"must be one of {_FORMATS}")

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

    def delta_grid(self):
        if self.delta_lo <= 0:
            raise ConfigError("delta-lo", "must be positive")
        if self.delta_hi <= self.delta_lo:
            raise ConfigError("delta-hi", "must exceed delta-lo")
        if self.delta_hi > 2.0 * self.k_incident:
            raise ConfigError("delta-hi", "exceeds the elastic bound 2 k_incident")
        # Python floats: a delta^2 beyond the float range is inf without a numpy warning
        spacing = np.geomspace if self.log_spacing else np.linspace
        return spacing(self.delta_lo, self.delta_hi, self.points).tolist()

    def temperature_grid(self):
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
        if self.log_spacing:
            return np.geomspace(lo, hi, self.points)
        return np.linspace(lo, hi, self.points)


def _flags_field(breakdown):
    parts = [f"{ch}:invalid" for ch in CHANNELS if not breakdown.valid.get(ch, True)]
    parts += [f"{ch}:error" for ch in sorted(breakdown.errors)]
    return ";".join(parts) if parts else "ok"


@dataclass
class SweepTable:
    columns: list
    rows: list  # list of lists, mixed floats and strings; flags last
    meta: dict

    @property
    def failures(self):
        """Rows where a channel failed numerically (flagged ':error')."""
        return sum(":error" in row[-1] for row in self.rows)


def _breakdown_cells(breakdown):
    return [getattr(breakdown, name) for name in (*CHANNELS, "total")]


def _rows(config, ensembles, deltas, discretes):
    """Each row's semiclassical RateBreakdown (None without that method) and oracle cell.

    The arguments hold one entry per row.  A discrete entry is the row's
    discrete ensemble, the exception that failed to solve it (the row's cell
    then), or None without the oracle.  All other cells come from one
    exact_breakdowns grid over the distinct solved ensembles and deltas, so
    a cell is a breakdown or the exception that failed its pair, and all
    semiclassical breakdowns from one decompose_rows call.
    """
    solved = {id(d): d for d in discretes if d is not None and not isinstance(d, Exception)}
    lanes = {delta: j for j, delta in enumerate(dict.fromkeys(deltas))}
    grid = dict(zip(solved, exact_breakdowns(list(solved.values()), list(lanes))))
    kinematics = [Kinematics(config.k_incident, delta) for delta in deltas]
    semis = decompose_rows(ensembles, kinematics) if config.semiclassical else [None] * len(deltas)
    for semi, delta, discrete in zip(semis, deltas, discretes):
        yield semi, grid[id(discrete)][lanes[delta]] if id(discrete) in grid else discrete


def _table(config, lead_columns, leads, rows, meta):
    """Table of each row's lead cells, then its channel cells and flags field."""
    columns = list(lead_columns)
    if config.semiclassical:
        columns += list(CHANNELS) + ["total"]
    if config.oracle:
        columns += [f"{c}_oracle" for c in CHANNELS] + ["total_oracle"]
    columns.append("flags")
    table = []
    for lead, (semi, exact) in zip(leads, rows):
        cells, flags = [], "ok"
        if semi is not None:
            cells, flags = _breakdown_cells(semi), _flags_field(semi)
        if isinstance(exact, Exception):
            cells += [math.nan] * 5
            flags = f"oracle:error:{type(exact).__name__}"
        elif exact is not None:
            cells += _breakdown_cells(exact)
        table.append(lead + cells + [flags])
    return SweepTable(columns=columns, rows=table, meta=meta)


def _angle_rows(config):
    """sweep-angle's temperature, semiclassical ensemble, delta grid and rows."""
    config.validate_common()
    temperature = config.resolve_temperature()
    grid = config.delta_grid()
    ensemble = TrapEnsemble.solve(config.n_total, temperature)
    # one discrete ensemble for every row; failing to solve it fails the sweep
    discrete = solve_mu_discrete(config.n_total, temperature) if config.oracle else None
    return temperature, ensemble, grid, _rows(config, [ensemble] * len(grid), grid, [discrete] * len(grid))


def sweep_angle(config):
    """Channel table over a delta grid at fixed (N, T)."""
    temperature, ensemble, grid, rows = _angle_rows(config)
    meta = {"command": "sweep-angle", "config": _config_echo(config),
            "temperature": temperature, "t_critical": ensemble.t_critical}
    return _table(config, ["delta", "theta"], ([d, d / config.k_incident] for d in grid), rows, meta)


def _discrete_or_error(n_total, temperature):
    try:
        return solve_mu_discrete(n_total, temperature)
    except (ConvergenceError, TruncationError, ValueError) as exc:
        return exc


def sweep_temperature(config):
    """Channel table over a temperature grid at fixed delta."""
    config.validate_common()
    delta_fixed = config.delta_fixed
    if delta_fixed is None or delta_fixed <= 0:
        raise ConfigError("delta", "sweep-temp needs a positive fixed --delta")
    if delta_fixed > 2.0 * config.k_incident:
        raise ConfigError("delta", "exceeds the elastic bound 2 k_incident")
    grid = config.temperature_grid()
    tc = critical_temperature(config.n_total)
    ensembles = [TrapEnsemble.solve(config.n_total, t) for t in grid]
    # solved one row at a time, so a failure is flagged on that row only
    discretes = [_discrete_or_error(config.n_total, t) if config.oracle else None for t in grid]
    leads = ([t, t / tc, e.mu, e.n_condensate, e.n_excited] for t, e in zip(grid, ensembles))
    meta = {"command": "sweep-temp", "config": _config_echo(config),
            "delta": delta_fixed, "t_critical": tc}
    rows = _rows(config, ensembles, [delta_fixed] * len(grid), discretes)
    return _table(config, ["t", "t_over_tc", "mu", "n0", "ne"], leads, rows, meta)


def oracle_compare(config):
    """Deviation statistics of sweep-angle's --method both rows, and scaling fits."""
    config.validate_common()
    temperature, _, grid, pairs = _angle_rows(replace(config, method="both"))

    deviations = {ch: [] for ch in CHANNELS}
    rows = []
    for delta, (semi, cell) in zip(grid, pairs):
        exact = _unwrap(cell)
        row = {"delta": float(delta)}
        for ch in CHANNELS:
            s, o = semi.channel(ch), exact.channel(ch)
            row[ch], row[f"{ch}_oracle"] = s, o
            if semi.valid.get(ch, False):
                dev = abs(o - s) / max(abs(o), 1e-300)
                deviations[ch].append(dev)
                row[f"{ch}_rel_dev"] = dev
        rows.append(row)

    stats = {ch: {"points": len(devs), "max_rel_dev": max(devs) if devs else None,
                  "median_rel_dev": float(np.median(devs)) if devs else None}
             for ch, devs in deviations.items()}

    ratio = temperature / critical_temperature(config.n_total)
    ladder = sorted({max(100, config.n_total // 27), max(150, config.n_total // 9),
                     max(300, config.n_total // 3), config.n_total})
    fits = {}
    if len(ladder) >= 3 and ladder[-1] >= 10 * ladder[0]:
        probes = {"rayleigh": 1.0, "diffraction": 0.5, "bose_0m": 1.0}
        for ch, delta_probe in probes.items():
            fit = scaling_probe(ch, ladder, ratio, delta_probe)
            fits[ch] = {"exponent": fit.exponent, "residual": fit.residual,
                        "n_values": list(fit.n_values)}

    return {
        "command": "oracle-compare",
        "version": __version__,
        "config": _config_echo(config),
        "temperature": temperature,
        "t_over_tc": ratio,
        "channel_stats": stats,
        "scaling_fits": fits,
        "rows": rows,
    }


# ---------------------------------------------------------------------------
# I/O plumbing
# ---------------------------------------------------------------------------

def _config_echo(config):
    return {k: v for k, v in asdict(config).items() if v is not None}


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
    """A SweepTable as {version, meta, columns, rows}, or a report dict as it is."""
    if isinstance(result, SweepTable):
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
    if config.out == "-":
        write(result, sys.stdout)
        return
    with open(config.out, "w", encoding="utf-8", newline="") as stream:
        write(result, stream)


def parse_config_file(path):
    """Plain key=value file; '#' starts a comment; keys mirror flag names."""
    values = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError("config", f"line {lineno}: expected key=value")
            key, _, value = line.partition("=")
            values[key.strip().replace("-", "_")] = value.strip()
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

# config key -> (SweepConfig field, cast, subcommands taking --key, help); the
# flag is the key with '_' as '-', listed in --help in this order
_CONFIG_FIELDS = {
    "n": ("n_total", int, _ALL, "particle number N"),
    "t": ("t", float, _ALL, "temperature in trap units"),
    "t_over_tc": ("t_over_tc", float, _ALL, "temperature as a fraction of Tc"),
    "k_incident": ("k_incident", float, _ALL, "incident photon momentum in trap units"),
    "method": ("method", str, _ALL, None),
    "out": ("out", str, _ALL, "output path ('-' for stdout)"),
    "format": ("fmt", str, _ALL, None),
    "delta_lo": ("delta_lo", float, _GRID, None),
    "delta_hi": ("delta_hi", float, _GRID, None),
    "delta": ("delta_fixed", float, _TEMP, "fixed momentum transfer"),
    "t_lo": ("t_lo", float, _TEMP, None),
    "t_hi": ("t_hi", float, _TEMP, None),
    "t_over_tc_lo": ("t_ratio_lo", float, _TEMP, None),
    "t_over_tc_hi": ("t_ratio_hi", float, _TEMP, None),
    "points": ("points", int, _ALL, None),
    "log": ("log_spacing", _parse_bool, _ALL, "log-spaced grid"),
}
_CHOICES = {"method": _METHODS, "format": _FORMATS}


def build_config(args):
    """SweepConfig from a parsed namespace, file values overridden by flags."""
    config = SweepConfig()
    if args.config:
        for key, text in parse_config_file(args.config).items():
            if key not in _CONFIG_FIELDS:
                raise ConfigError("config", f"unknown key {key!r}")
            field_name, cast, takers, _ = _CONFIG_FIELDS[key]
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
    for key, (_, cast, names, text) in _CONFIG_FIELDS.items():
        if cast is _parse_bool:
            kind = {"action": argparse.BooleanOptionalAction}
        else:
            kind = {"type": cast, "choices": _CHOICES.get(key)}
        for name in names:
            commands[name].add_argument("--" + key.replace("_", "-"), dest=key, default=None, help=text, **kind)
    return parser


def main(argv=None):
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
        return 3 if isinstance(result, SweepTable) and result.failures else 0
    except ConfigError as exc:
        print(f"config-invalid: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, TruncationError, PrecisionLossError) as exc:
        print(f"numerical-failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def entrypoint():
    # import-time objects live to the end: keep them out of every later collection, exit's too
    gc.freeze()
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
