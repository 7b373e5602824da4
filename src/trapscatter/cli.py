"""Command-line front end: sweep tables and oracle comparison reports.

Subcommands
-----------
sweep-angle     one row per momentum transfer delta
sweep-temp      one row per temperature at fixed delta
oracle-compare  per-channel deviation statistics plus scaling-exponent fits

Output is CSV (fixed '%.10e' formatting, comma separator, '\n' line ends)
or JSON with a config echo, where non-finite cells are null; identical
configs produce byte-identical files.  Run as `trapscatter ...` or
`python -m trapscatter.cli ...`.

Exit codes: 0 success, 2 invalid configuration, 3 numerical failure: in at
least one row (the table is still written, failures flagged per row), or
before any row (no table is written).
"""

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass, asdict

import numpy as np

from . import __version__
from .errors import ConfigError, ConvergenceError, PrecisionLossError, TruncationError
from .oracle import _MAX_N_TOTAL, exact_breakdown, scaling_probe, solve_mu_discrete
from .scattering import CHANNELS, Kinematics, decompose
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
    epsilon_max: int = None
    out: str = "-"
    fmt: str = "csv"
    # sweep-temp only
    delta_fixed: float = None
    t_lo: float = None
    t_hi: float = None
    t_ratio_lo: float = None
    t_ratio_hi: float = None

    def validate_common(self):
        if self.n_total < 1:
            raise ConfigError("n", "must be >= 1")
        if self.k_incident <= 0:
            raise ConfigError("k-incident", "must be positive")
        if self.points < 2:
            raise ConfigError("points", "must be >= 2")
        if self.method not in _METHODS:
            raise ConfigError("method", f"must be one of {_METHODS}")
        if self.fmt not in _FORMATS:
            raise ConfigError("format", f"must be one of {_FORMATS}")
        if self.oracle and self.n_total > _MAX_N_TOTAL:
            raise ConfigError("n", f"oracle method limited to N <= {_MAX_N_TOTAL}")

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
        if self.log_spacing:
            return np.geomspace(self.delta_lo, self.delta_hi, self.points)
        return np.linspace(self.delta_lo, self.delta_hi, self.points)

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
    return [breakdown.rayleigh, breakdown.diffraction, breakdown.bose_0m,
            breakdown.bose_mm, breakdown.total]


def _channel_cells(config, ensemble, delta, discrete):
    """Semiclassical and oracle cells of one row, then its flags field.

    `discrete()` gives the oracle ensemble; an oracle failure, in it or in
    the breakdown, fills that row's oracle cells with NaN and flags it.
    """
    cells = []
    flags = "ok"
    if config.semiclassical:
        breakdown = decompose(ensemble, Kinematics(config.k_incident, delta))
        cells += _breakdown_cells(breakdown)
        flags = _flags_field(breakdown)
    if config.oracle:
        try:
            cells += _breakdown_cells(exact_breakdown(discrete(), delta))
        except (ConvergenceError, TruncationError, ValueError) as exc:
            cells += [math.nan] * 5
            flags = f"oracle:error:{type(exc).__name__}"
    return cells + [flags]


def _sweep(config, lead_columns, points, meta):
    """Table with one row per (lead cells, ensemble, delta, discrete) point."""
    columns = list(lead_columns)
    if config.semiclassical:
        columns += list(CHANNELS) + ["total"]
    if config.oracle:
        columns += [f"{c}_oracle" for c in CHANNELS] + ["total_oracle"]
    columns.append("flags")
    rows = [lead + _channel_cells(config, ensemble, delta, discrete)
            for lead, ensemble, delta, discrete in points]
    return SweepTable(columns=columns, rows=rows, meta=meta)


def sweep_angle(config):
    """Channel table over a delta grid at fixed (N, T)."""
    config.validate_common()
    temperature = config.resolve_temperature()
    grid = config.delta_grid()
    ensemble = TrapEnsemble.solve(config.n_total, temperature)
    discrete = None
    if config.oracle:
        # one discrete ensemble for every row; failing to solve it fails the sweep
        solved = solve_mu_discrete(config.n_total, temperature, config.epsilon_max)
        discrete = lambda: solved
    points = (([delta, delta / config.k_incident], ensemble, delta, discrete) for delta in grid)
    meta = {"command": "sweep-angle", "config": _config_echo(config),
            "temperature": temperature, "t_critical": ensemble.t_critical}
    return _sweep(config, ["delta", "theta"], points, meta)


def sweep_temperature(config, delta_fixed=None):
    """Channel table over a temperature grid at fixed delta."""
    config.validate_common()
    if delta_fixed is None:
        delta_fixed = config.delta_fixed
    if delta_fixed is None or delta_fixed <= 0:
        raise ConfigError("delta", "sweep-temp needs a positive fixed --delta")
    if delta_fixed > 2.0 * config.k_incident:
        raise ConfigError("delta", "exceeds the elastic bound 2 k_incident")
    grid = config.temperature_grid()
    tc = critical_temperature(config.n_total)

    def point(temperature):
        ensemble = TrapEnsemble.solve(config.n_total, temperature)
        lead = [temperature, temperature / tc, ensemble.mu,
                ensemble.n_condensate, ensemble.n_excited]
        # solved inside the row, so a failure is flagged on that row only
        discrete = lambda: solve_mu_discrete(config.n_total, temperature, config.epsilon_max)
        return lead, ensemble, delta_fixed, discrete

    meta = {"command": "sweep-temp", "config": _config_echo(config),
            "delta": delta_fixed, "t_critical": tc}
    return _sweep(config, ["t", "t_over_tc", "mu", "n0", "ne"], map(point, grid), meta)


def oracle_compare(config):
    """Semiclassical-vs-oracle deviation statistics and scaling fits."""
    config.validate_common()
    if config.n_total > _MAX_N_TOTAL:
        raise ConfigError("n", f"oracle comparison limited to N <= {_MAX_N_TOTAL}")
    temperature = config.resolve_temperature()
    grid = config.delta_grid()
    ensemble = TrapEnsemble.solve(config.n_total, temperature)
    discrete = solve_mu_discrete(config.n_total, temperature, config.epsilon_max)

    deviations = {ch: [] for ch in CHANNELS}
    rows = []
    for delta in grid:
        kin = Kinematics(config.k_incident, delta)
        semi = decompose(ensemble, kin)
        exact = exact_breakdown(discrete, delta)
        row = {"delta": float(delta)}
        for ch in CHANNELS:
            s = semi.channel(ch)
            o = exact.channel(ch)
            row[ch] = s
            row[f"{ch}_oracle"] = o
            if semi.valid.get(ch, False):
                dev = abs(o - s) / max(abs(o), 1e-300)
                deviations[ch].append(dev)
                row[f"{ch}_rel_dev"] = dev
        rows.append(row)

    stats = {}
    for ch in CHANNELS:
        devs = deviations[ch]
        stats[ch] = {
            "points": len(devs),
            "max_rel_dev": max(devs) if devs else None,
            "median_rel_dev": float(np.median(devs)) if devs else None,
        }

    ratio = temperature / critical_temperature(config.n_total)
    ladder = sorted({max(100, config.n_total // 27), max(150, config.n_total // 9),
                     max(300, config.n_total // 3), config.n_total})
    fits = {}
    if len(ladder) >= 3 and ladder[-1] >= 10 * ladder[0]:
        probes = {"rayleigh": 1.0, "diffraction": 0.5, "bose_0m": 1.0}
        for ch, delta_probe in probes.items():
            fit = scaling_probe(ch, ladder, ratio, delta_probe, config.epsilon_max)
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
    echo = {k: v for k, v in asdict(config).items() if v is not None}
    return echo


def _json_cell(value):
    if isinstance(value, str):
        return value
    value = float(value)
    return value if math.isfinite(value) else None


def _format_cell(value):
    if isinstance(value, str):
        return value
    return "%.10e" % value


def write_csv(table, stream):
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(table.columns)
    for row in table.rows:
        writer.writerow([_format_cell(v) for v in row])


def write_json(table, stream):
    payload = {
        "version": __version__,
        "meta": table.meta,
        "columns": table.columns,
        "rows": [[_json_cell(v) for v in row] for row in table.rows],
    }
    json.dump(payload, stream, indent=2, sort_keys=True)
    stream.write("\n")


def _open_out(path):
    if path == "-":
        return sys.stdout, False
    return open(path, "w", encoding="utf-8", newline=""), True


def _emit_table(table, config):
    stream, close = _open_out(config.out)
    try:
        if config.fmt == "csv":
            write_csv(table, stream)
        else:
            write_json(table, stream)
    finally:
        if close:
            stream.close()


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


_CONFIG_FIELDS = {
    "n": ("n_total", int),
    "t": ("t", float),
    "t_over_tc": ("t_over_tc", float),
    "k_incident": ("k_incident", float),
    "delta_lo": ("delta_lo", float),
    "delta_hi": ("delta_hi", float),
    "points": ("points", int),
    "log": ("log_spacing", _parse_bool),
    "method": ("method", str),
    "epsilon_max": ("epsilon_max", int),
    "out": ("out", str),
    "format": ("fmt", str),
    "delta": ("delta_fixed", float),
    "t_lo": ("t_lo", float),
    "t_hi": ("t_hi", float),
    "t_over_tc_lo": ("t_ratio_lo", float),
    "t_over_tc_hi": ("t_ratio_hi", float),
}


def build_config(args):
    """SweepConfig from a parsed namespace, file values overridden by flags."""
    config = SweepConfig()
    if args.config:
        for key, text in parse_config_file(args.config).items():
            if key not in _CONFIG_FIELDS:
                raise ConfigError("config", f"unknown key {key!r}")
            field_name, cast = _CONFIG_FIELDS[key]
            try:
                setattr(config, field_name, cast(text))
            except ValueError as exc:
                raise ConfigError(key, str(exc)) from exc
    for key, (field_name, _) in _CONFIG_FIELDS.items():
        flag_value = getattr(args, key, None)
        if flag_value is not None and flag_value is not False:
            setattr(config, field_name, flag_value)
    return config


def _add_common_flags(parser):
    parser.add_argument("--n", type=int, default=None, help="particle number N")
    parser.add_argument("--t", type=float, default=None, help="temperature in trap units")
    parser.add_argument("--t-over-tc", dest="t_over_tc", type=float, default=None,
                        help="temperature as a fraction of Tc")
    parser.add_argument("--k-incident", dest="k_incident", type=float, default=None,
                        help="incident photon momentum in trap units")
    parser.add_argument("--method", choices=_METHODS, default=None)
    parser.add_argument("--epsilon-max", dest="epsilon_max", type=int, default=None,
                        help="oracle truncation level override")
    parser.add_argument("--out", default=None, help="output path ('-' for stdout)")
    parser.add_argument("--format", dest="format", choices=_FORMATS, default=None)
    parser.add_argument("--config", default=None, help="key=value config file")


def _add_grid_flags(parser):
    parser.add_argument("--delta-lo", dest="delta_lo", type=float, default=None)
    parser.add_argument("--delta-hi", dest="delta_hi", type=float, default=None)
    parser.add_argument("--points", type=int, default=None)
    parser.add_argument("--log", action="store_true", default=False,
                        help="log-spaced grid")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="trapscatter",
        description="Photon scattering channels off a harmonically trapped Bose gas",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_angle = sub.add_parser("sweep-angle", help="table over momentum transfer")
    _add_common_flags(p_angle)
    _add_grid_flags(p_angle)

    p_temp = sub.add_parser("sweep-temp", help="table over temperature at fixed delta")
    _add_common_flags(p_temp)
    p_temp.add_argument("--delta", type=float, default=None, help="fixed momentum transfer")
    p_temp.add_argument("--t-lo", dest="t_lo", type=float, default=None)
    p_temp.add_argument("--t-hi", dest="t_hi", type=float, default=None)
    p_temp.add_argument("--t-over-tc-lo", dest="t_over_tc_lo", type=float, default=None)
    p_temp.add_argument("--t-over-tc-hi", dest="t_over_tc_hi", type=float, default=None)
    p_temp.add_argument("--points", type=int, default=None)
    p_temp.add_argument("--log", action="store_true", default=False)

    p_cmp = sub.add_parser("oracle-compare", help="semiclassical vs oracle report")
    _add_common_flags(p_cmp)
    _add_grid_flags(p_cmp)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = build_config(args)
        if args.subcommand == "sweep-angle":
            table = sweep_angle(config)
            _emit_table(table, config)
            return 3 if table.failures else 0
        if args.subcommand == "sweep-temp":
            table = sweep_temperature(config)
            _emit_table(table, config)
            return 3 if table.failures else 0
        if args.subcommand == "oracle-compare":
            if config.fmt == "csv":
                raise ConfigError("format", "oracle-compare emits a JSON report")
            report = oracle_compare(config)
            stream, close = _open_out(config.out)
            try:
                json.dump(report, stream, indent=2, sort_keys=True)
                stream.write("\n")
            finally:
                if close:
                    stream.close()
            return 0
        raise ConfigError("subcommand", f"unknown {args.subcommand!r}")
    except ConfigError as exc:
        print(f"config-invalid: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, TruncationError, PrecisionLossError) as exc:
        print(f"numerical-failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
