"""The CLI's second stage: sweep tables and the oracle-compare report.

`trapscatter.cli` imports this module only once a command's configuration
has passed every check, so importing it is what loads numpy, `thermo` and
`scattering` for a command.  The oracle, and with it the oscillator, loads
through `load_oracle` alone, for the commands that run it.  Each function
takes the checked configuration and the values its checks returned.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import __version__, critical_temperature
from .errors import ConfigError, ConvergenceError, TruncationError
from .scattering import CHANNELS, decompose_rows
from .thermo import TrapEnsemble

__all__ = ["SweepTable", "load_oracle", "angle_table", "temperature_table", "compare_report"]


@dataclass
class SweepTable:
    columns: list
    rows: list  # list of lists, mixed floats and strings; flags last
    meta: dict


def load_oracle():
    """The oracle module, imported on first use: only --method oracle/both and oracle-compare run it."""
    from . import oracle

    return oracle


def _config_echo(config):
    return {k: v for k, v in vars(config).items() if v is not None}


def _spaced(config, lo, hi):
    """The grid of `points` values from lo to hi; a grid numpy cannot index or allocate is a ConfigError."""
    try:
        return (np.geomspace if config.log_spacing else np.linspace)(lo, hi, config.points)
    except (ValueError, MemoryError) as exc:
        raise ConfigError("points", f"{config.points} grid points cannot be allocated ({exc})") from None


def _rows(config, ensembles, deltas, discretes):
    """Each row's semiclassical RateBreakdown (None without that method) and oracle cell.

    The arguments hold one entry per row.  A discrete entry is the row's
    discrete ensemble, the exception that failed to solve it (the row's cell
    then), or None without the oracle.  All other cells come from one
    exact_breakdowns grid over the distinct solved ensembles and deltas, so
    a cell is a breakdown or the exception that failed its ensemble's
    solve, and all semiclassical breakdowns from one decompose_rows call.
    """
    solved = [d for d in dict.fromkeys(discretes) if d is not None and not isinstance(d, Exception)]
    lanes = {delta: j for j, delta in enumerate(dict.fromkeys(deltas))}
    grid = dict(zip(solved, load_oracle().exact_breakdowns(solved, list(lanes)))) if solved else {}
    semis = decompose_rows(ensembles, deltas) if config.semiclassical else [None] * len(deltas)
    for semi, delta, discrete in zip(semis, deltas, discretes):
        yield semi, grid[discrete][lanes[delta]] if discrete in grid else discrete


def _table(config, lead_columns, leads, rows, meta):
    """Table of each row's lead cells, then its channel cells and flags field."""
    names = (*CHANNELS, "total")
    columns = list(lead_columns)
    if config.semiclassical:
        columns += names
    if config.oracle:
        columns += [f"{name}_oracle" for name in names]
    columns.append("flags")
    table = []
    for lead, (semi, exact) in zip(leads, rows):
        cells, flags = [], "ok"
        if semi is not None:
            cells = [getattr(semi, name) for name in names]
            flags = ";".join(f"{ch}:invalid" for ch in CHANNELS if not semi.valid.get(ch, True)) or "ok"
        if isinstance(exact, Exception):
            cells += [math.nan] * len(names)
            flags = f"oracle:error:{type(exact).__name__}"
        elif exact is not None:
            cells += [getattr(exact, name) for name in names]
        table.append(lead + cells + [flags])
    return SweepTable(columns=columns, rows=table, meta=meta)


def _angle_rows(config, temperature, bounds):
    """sweep-angle's delta grid and rows."""
    # Python floats: a delta^2 beyond the float range is inf without a numpy warning
    grid = _spaced(config, *bounds).tolist()
    # one ensemble per method for every row; failing to solve one fails the sweep
    ensemble = TrapEnsemble(config.n_total, temperature) if config.semiclassical else None
    discrete = load_oracle().solve_mu_discrete(config.n_total, temperature) if config.oracle else None
    return grid, _rows(config, [ensemble] * len(grid), grid, [discrete] * len(grid))


def angle_table(config, temperature, bounds):
    """Channel table over the delta grid between `bounds` at temperature T."""
    grid, rows = _angle_rows(config, temperature, bounds)
    meta = {"command": "sweep-angle", "config": _config_echo(config),
            "temperature": temperature, "t_critical": critical_temperature(config.n_total)}
    return _table(config, ["delta", "theta"], ([d, d / config.k_incident] for d in grid), rows, meta)


def _discrete_or_error(n_total, temperature):
    try:
        return load_oracle().solve_mu_discrete(n_total, temperature)
    except (ConvergenceError, TruncationError, ValueError) as exc:
        return exc


def temperature_table(config, delta_fixed, bounds):
    """Channel table over the temperature grid between `bounds` at fixed delta."""
    grid = _spaced(config, *bounds)
    tc = critical_temperature(config.n_total)
    ensembles = [TrapEnsemble(config.n_total, t) for t in grid]
    # solved one row at a time, so a failure is flagged on that row only
    discretes = [_discrete_or_error(config.n_total, t) if config.oracle else None for t in grid]
    leads = ([t, t / tc, e.mu, e.n_condensate, e.n_excited] for t, e in zip(grid, ensembles))
    meta = {"command": "sweep-temp", "config": _config_echo(config),
            "delta": delta_fixed, "t_critical": tc}
    rows = _rows(config, ensembles, [delta_fixed] * len(grid), discretes)
    return _table(config, ["t", "t_over_tc", "mu", "n0", "ne"], leads, rows, meta)


def compare_report(config, temperature, bounds):
    """Deviation statistics of sweep-angle's --method both rows, and scaling fits."""
    oracle = load_oracle()
    grid, pairs = _angle_rows(type(config)(**{**vars(config), "method": "both"}), temperature, bounds)

    deviations = {ch: [] for ch in CHANNELS}
    rows = []
    for delta, (semi, exact) in zip(grid, pairs):
        row = {"delta": float(delta)}
        for ch in CHANNELS:
            s, o = getattr(semi, ch), getattr(exact, ch)
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
            fit = oracle.scaling_probe(ch, ladder, ratio, delta_probe)
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
