"""The benchmark's workloads: seeded CLI argument lists and the grids they imply.

Each workload is one README-style CLI command run with the package
defaults (no --epsilon-max, TRAPSCATTER_WORKERS untouched).  The seed moves
the grid end points within a small band that keeps the workload's
character; the program only ever sees the generated flags.
"""

import random
from dataclasses import dataclass

import numpy as np
from scipy import special

ZETA3 = float(special.zeta(3.0))


def critical_temperature(n_total):
    """(N / zeta(3))^(1/3), computed here rather than taken from the program."""
    return (n_total / ZETA3) ** (1.0 / 3.0)


@dataclass(frozen=True)
class Workload:
    """One CLI sweep: `lo`/`hi` are delta end points (sweep-angle) or T/Tc end points (sweep-temp)."""

    name: str
    subcommand: str
    n_total: int
    method: str
    k_incident: float
    lo: float
    hi: float
    points: int
    log_spacing: bool = False
    t_over_tc: float = None  # sweep-angle
    delta: float = None  # sweep-temp

    @property
    def semiclassical(self):
        return self.method in ("semiclassical", "both")

    @property
    def oracle(self):
        return self.method in ("oracle", "both")

    def argv(self, out_path):
        args = [self.subcommand, "--n", str(self.n_total), "--k-incident", repr(self.k_incident),
                "--points", str(self.points), "--out", str(out_path)]
        if self.subcommand == "sweep-angle":
            args += ["--t-over-tc", repr(self.t_over_tc),
                     "--delta-lo", repr(self.lo), "--delta-hi", repr(self.hi)]
        else:
            args += ["--t-over-tc-lo", repr(self.lo), "--t-over-tc-hi", repr(self.hi),
                     "--delta", repr(self.delta)]
        if self.log_spacing:
            args.append("--log")
        if self.method != "semiclassical":
            args += ["--method", self.method]
        return args

    def grid(self):
        """Row coordinates in output order: delta values, or absolute temperatures."""
        spacing = np.geomspace if self.log_spacing else np.linspace
        if self.subcommand == "sweep-angle":
            return spacing(self.lo, self.hi, self.points)
        tc = critical_temperature(self.n_total)
        return spacing(self.lo * tc, self.hi * tc, self.points)


# Temperature-grid spacing of temp-across-tc in T/Tc.  The seed shifts the
# whole grid by whole steps, so the rows next to the _NU_FLOOR seam sit at the
# same temperatures for every seed and the failed-row count never changes.
TEMP_STEP = 1.2 / 59


def _angle_semiclassical(rng):
    return Workload(
        name="angle-semiclassical",
        subcommand="sweep-angle", n_total=10_000, method="semiclassical", k_incident=1000.0,
        t_over_tc=0.7, lo=0.05 * rng.uniform(0.9, 1.1), hi=30.0 * rng.uniform(0.95, 1.05),
        points=200, log_spacing=True,
    )


def _temp_across_tc(rng):
    shift = rng.choice((-1, 0, 1)) * TEMP_STEP
    return Workload(
        name="temp-across-tc",
        subcommand="sweep-temp", n_total=10_000, method="both", k_incident=1000.0,
        lo=0.2 + shift, hi=1.4 + shift, points=60, delta=1.0,
    )


def _oracle_angle(rng):
    return Workload(
        name="oracle-angle",
        subcommand="sweep-angle", n_total=100_000, method="oracle", k_incident=1000.0,
        t_over_tc=0.7, lo=0.5 * rng.uniform(0.9, 1.1), hi=8.0 * rng.uniform(0.95, 1.05),
        points=20,
    )


_FACTORIES = {
    "angle-semiclassical": _angle_semiclassical,
    "temp-across-tc": _temp_across_tc,
    "oracle-angle": _oracle_angle,
}

NAMES = tuple(_FACTORIES)
DEFAULT_SEED = 1


def make(name, seed):
    """The workload `name` with its grid end points drawn from `seed`."""
    return _FACTORIES[name](random.Random(f"{name}/{seed}"))


def label(workload, index, coordinate):
    """Human name of one output row."""
    if workload.subcommand == "sweep-angle":
        return f"row {index} (delta={coordinate:.6g})"
    tc = critical_temperature(workload.n_total)
    return f"row {index} (T/Tc={coordinate / tc:.4f})"

