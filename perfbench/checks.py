"""Checks of one CLI output table against independent computations and method properties.

`Expected(workload)` computes every reference value once (a few seconds);
`check_output` then judges one process's exit code, log and CSV table and
returns one `RowResult` per row the workload asks for.  A row fails when it
carries an error flag or any check fails; when the process itself failed
(exit code other than 0 or 3, a traceback, a malformed or missing table)
every row fails.

One fault is known and named rather than treated as a surprise: below
nu = -mu/T = 1e-3 `scattering._effective_nu` replaces f(a, nu) by f(a, 0)
(the `_NU_FLOOR` seam).  A grid row whose bose_mm misses f(a, nu) but
matches f(a, 0) is reported as that fault.
"""

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

import reference
import workloads

CHANNELS = ("rayleigh", "diffraction", "bose_0m", "bose_mm")
ORACLE_CHANNELS = tuple(f"{c}_oracle" for c in CHANNELS)

# Relative tolerances, each set by the accuracy of the path that produced the value.
TOL_PRINTED = 1e-10  # cells are printed with 11 significant digits
TOL_CLOSED = 1e-9  # closed forms and root solves (bisection to 1e-15 T)
TOL_DIFFRACTION = 1e-7  # Gauss-Legendre ladder converged to 1e-8, squared
TOL_GRID = 5e-3  # f-grid interpolation bound pinned by the test suite
TOL_DIRECT = 1e-5  # convergence-ladder tolerance of the direct nested quadrature
TOL_ORACLE = 1e-7  # oracle sums against Hermite quadrature / Laguerre polynomials

# Below this nu the program reads the mu = 0 f-grid (scattering._NU_FLOOR).
NU_FLOOR = 1e-3


@dataclass
class RowResult:
    label: str
    problems: list = field(default_factory=list)
    seam: str = None  # set when the row shows the known _NU_FLOOR seam fault

    @property
    def failed(self):
        return bool(self.problems) or self.seam is not None


def _rel_error(value, ref):
    if ref == 0.0:
        return 0.0 if value == 0.0 else math.inf
    return abs(value - ref) / abs(ref)


def _compare(problems, name, value, ref, tol):
    err = _rel_error(value, ref)
    if not err <= tol:
        problems.append(f"{name} = {value:.10e}, reference {ref:.10e} "
                        f"(rel. error {err:.2e} > {tol:.0e})")


class Expected:
    """Reference values and expected table shape for one workload."""

    def __init__(self, workload):
        self.workload = workload
        self.n = workload.n_total
        self.tc = workloads.critical_temperature(self.n)
        self.grid = workload.grid()
        self.columns = self._columns()
        self.temperatures = ([workload.t_over_tc * self.tc] if workload.subcommand == "sweep-angle"
                             else [float(t) for t in self.grid])
        self._nu = {t: reference.continuum_nu(self.n, t) for t in set(self.temperatures)}
        self._f_zero = {}
        if workload.oracle:
            self._ensembles = {t: self._ensemble(t) for t in set(self.temperatures)}
            self._m_max = max(occ.size - 1 for occ, _ in self._ensembles.values())
            self._amps = {}
        self.rows = [self._row(i, x) for i, x in enumerate(self.grid)]

    def _columns(self):
        wl = self.workload
        cols = ["delta", "theta"] if wl.subcommand == "sweep-angle" else ["t", "t_over_tc", "mu", "n0", "ne"]
        if wl.semiclassical:
            cols += list(CHANNELS) + ["total"]
        if wl.oracle:
            cols += list(ORACLE_CHANNELS) + ["total_oracle"]
        return cols + ["flags"]

    def _row(self, index, coordinate):
        wl = self.workload
        if wl.subcommand == "sweep-angle":
            temperature, delta = wl.t_over_tc * self.tc, float(coordinate)
        else:
            temperature, delta = float(coordinate), wl.delta
        row = {"label": workloads.label(wl, index, coordinate), "t": temperature, "delta": delta}
        if wl.semiclassical or wl.subcommand == "sweep-temp":
            row.update(self._continuum(temperature, delta))
        if wl.oracle:
            row["oracle"] = self._oracle(index, temperature, delta)
        return row

    # -- semiclassical ------------------------------------------------------

    def _continuum(self, temperature, delta):
        nu = self._nu[temperature]
        n0 = reference.condensate(self.n, temperature, self.tc)
        out = {"nu": nu, "n0": n0}
        if not self.workload.semiclassical:
            return out
        diff_edge = delta * delta * temperature
        bose_edge = max(1.0, temperature**-0.5)
        valid = {"rayleigh": True,
                 "diffraction": diff_edge >= 1.0 or n0 >= self.n * (1.0 - 1e-9),
                 "bose_0m": delta >= bose_edge, "bose_mm": delta >= bose_edge}
        # A test within rounding of its edge accepts either flag.  A temperature
        # sweep hands the program delta unrounded, and for T >= 1 the Bose edge
        # is exactly 1, so there its test is exact and admits no tie.
        exact_bose = self.workload.subcommand == "sweep-temp" and bose_edge == 1.0
        ambiguous = {"diffraction": math.isclose(diff_edge, 1.0, rel_tol=1e-12),
                     "bose_0m": not exact_bose and math.isclose(delta, bose_edge, rel_tol=1e-12)}
        ambiguous["bose_mm"] = ambiguous["bose_0m"]
        values = {"rayleigh": float(self.n),
                  "diffraction": reference.diffraction_semiclassical(n0, temperature, nu, delta),
                  "bose_0m": reference.bose_0m_semiclassical(n0, temperature, delta)}
        a = 0.5 * delta * delta / temperature
        if valid["bose_mm"] or ambiguous["bose_mm"]:
            values["bose_mm"] = temperature**3 * reference.shape_function(a, nu)
        out.update(valid=valid, ambiguous=ambiguous, values=values, a=a,
                   grid_path=nu < NU_FLOOR or math.isclose(nu, NU_FLOOR, rel_tol=1e-9))
        return out

    def f_zero(self, a):
        """f(a, 0), the value the _NU_FLOOR seam substitutes; computed only when needed."""
        if a not in self._f_zero:
            self._f_zero[a] = reference.shape_function(a, 0.0)
        return self._f_zero[a]

    # -- oracle ---------------------------------------------------------------

    def _ensemble(self, temperature):
        emax = reference.default_truncation(self.n, temperature)
        occ = reference.discrete_occupations(self.n, temperature, emax)
        # W(m) = sum_{j >= m} (j - m + 1) occ[j]
        w = np.array([np.arange(1.0, occ.size - m + 1.0) @ occ[m:] for m in range(occ.size)])
        return occ, w

    def _full_rows(self):
        """Rows whose four oracle channels are rebuilt from Hermite-quadrature overlaps."""
        if self.workload.subcommand == "sweep-temp":
            return range(self.workload.points)  # one delta: one overlap matrix serves every row
        last = self.workload.points - 1
        return sorted({0, last // 2, last})

    def _amplitudes(self, delta):
        # one matrix per delta at the largest truncation; each row uses its leading block
        if delta not in self._amps:
            self._amps[delta] = reference.hermite_amplitudes(self._m_max, delta)
        return self._amps[delta]

    def _oracle(self, index, temperature, delta):
        occ, w = self._ensembles[temperature]
        emax = occ.size - 1
        poisson = reference.poisson_column(emax, delta)
        out = {
            "bose_0m": 2.0 * occ[0] * float(occ[1:] @ poisson[1:]),
            "diffraction": float(reference.laguerre_diagonal(emax, delta) @ w) ** 2,
        }
        if index in self._full_rows():
            out["full"] = reference.oracle_channels(self.n, occ, self._amplitudes(delta))
        return out


def parse_table(text):
    """(header, rows) of a CSV table, or raise ValueError."""
    records = list(csv.reader(io.StringIO(text)))
    if not records:
        raise ValueError("empty table")
    return records[0], records[1:]


def check_output(expected, returncode, log_text, table_text):
    """One RowResult per expected row of a single CLI process."""
    results = [RowResult(row["label"]) for row in expected.rows]
    problem = None
    if returncode not in (0, 3):
        problem = f"process exited with code {returncode}"
    elif "Traceback (most recent call last)" in log_text:
        problem = "process printed a traceback"
    elif table_text is None:
        problem = "no output table"
    else:
        try:
            header, rows = parse_table(table_text)
        except (ValueError, csv.Error) as exc:
            header, rows, problem = None, None, f"unreadable table: {exc}"
        if problem is None and header != expected.columns:
            problem = f"columns {header} differ from {expected.columns}"
        elif problem is None and len(rows) != len(expected.rows):
            problem = f"{len(rows)} rows written, {len(expected.rows)} expected"
    if problem is None:
        for result, exp, cells in zip(results, expected.rows, rows):
            _check_row(expected, exp, dict(zip(header, cells)), result)
        flagged = any("error flag" in p for r in results for p in r.problems)
        if returncode == 3 and not flagged:
            problem = "exit code 3 but no row carries an error flag"
    if problem is not None:
        for result in results:
            result.problems.append(problem)
    return results


def _check_row(expected, exp, cells, result):
    problems = result.problems
    flags = cells.pop("flags", "")
    parts = [] if flags == "ok" else flags.split(";")
    errors = [p for p in parts if "error" in p]
    if errors:
        problems.append(f"error flag {';'.join(errors)}")
    invalid = {p.split(":")[0] for p in parts if p.endswith(":invalid")}
    unknown = [p for p in parts if p not in errors and not p.endswith(":invalid")]
    if unknown:
        problems.append(f"unknown flags {unknown}")
    # the CLI writes NaN oracle cells on a row whose oracle raised
    oracle_error = any(p.startswith("oracle:error") for p in errors)

    try:
        values = {k: float(v) for k, v in cells.items()}
    except ValueError as exc:
        problems.append(f"unparsable cell: {exc}")
        return
    skip = set(ORACLE_CHANNELS + ("total_oracle",)) if oracle_error else set()
    bad = sorted(k for k, v in values.items() if k not in skip and not math.isfinite(v))
    if bad:
        problems.append(f"non-finite cells: {', '.join(bad)}")
        return

    wl = expected.workload
    n = float(expected.n)
    t, delta = exp["t"], exp["delta"]
    if wl.subcommand == "sweep-angle":
        _compare(problems, "delta", values["delta"], delta, TOL_PRINTED)
        _compare(problems, "theta", values["theta"], delta / wl.k_incident, TOL_PRINTED)
    else:
        _compare(problems, "t", values["t"], t, TOL_PRINTED)
        _compare(problems, "t_over_tc", values["t_over_tc"], t / expected.tc, TOL_PRINTED)
        _compare(problems, "mu", values["mu"], -exp["nu"] * t, TOL_CLOSED)
        if abs(values["n0"] - exp["n0"]) > TOL_CLOSED * n:
            problems.append(f"n0 = {values['n0']:.10e}, reference {exp['n0']:.10e}")
        if abs(values["ne"] - (n - exp["n0"])) > TOL_CLOSED * n:
            problems.append(f"ne = {values['ne']:.10e}, reference {n - exp['n0']:.10e}")

    if wl.semiclassical:
        _check_sums(problems, values, CHANNELS, "total", n)
        for ch in CHANNELS:
            expect_valid = exp["valid"][ch]
            if ch in invalid:
                if expect_valid and not exp["ambiguous"].get(ch, False):
                    problems.append(f"{ch} flagged invalid inside its validity window")
                if values[ch] != 0.0:
                    problems.append(f"{ch} flagged invalid but not zero-filled")
                continue
            if not expect_valid and not exp["ambiguous"].get(ch, False):
                problems.append(f"{ch} not flagged outside its validity window")
                continue
            if ch == "bose_mm":
                _check_bose_mm(expected, exp, values[ch], result)
            else:
                tol = TOL_DIFFRACTION if ch == "diffraction" else TOL_CLOSED
                _compare(problems, ch, values[ch], exp["values"][ch], tol)

    if wl.oracle and not oracle_error:
        ref = exp["oracle"]
        _check_sums(problems, values, ORACLE_CHANNELS, "total_oracle", n)
        _compare(problems, "bose_0m_oracle (Poisson overlaps)", values["bose_0m_oracle"],
                 ref["bose_0m"], TOL_ORACLE)
        _compare(problems, "diffraction_oracle (Laguerre diagonal)", values["diffraction_oracle"],
                 ref["diffraction"], TOL_ORACLE)
        for ch, value in ref.get("full", {}).items():
            _compare(problems, f"{ch}_oracle (Hermite quadrature)", values[f"{ch}_oracle"], value, TOL_ORACLE)


def _check_sums(problems, values, channels, total_col, n):
    if values[channels[0]] != n:
        problems.append(f"{channels[0]} = {values[channels[0]]!r}, expected N = {n:g}")
    negative = [ch for ch in channels if values[ch] < 0.0]
    if negative:
        problems.append(f"negative channels: {', '.join(negative)}")
    _compare(problems, total_col, values[total_col], math.fsum(values[ch] for ch in channels),
             2 * TOL_PRINTED)


def _check_bose_mm(expected, exp, value, result):
    t3 = exp["t"] ** 3
    ref = exp["values"]["bose_mm"]
    tol = TOL_GRID if exp["grid_path"] else TOL_DIRECT
    err = _rel_error(value, ref)
    if err <= tol:
        return
    if exp["grid_path"] and exp["nu"] > 0.0:
        seam_ref = t3 * expected.f_zero(exp["a"])
        if _rel_error(value, seam_ref) <= tol:
            result.seam = (f"bose_mm misses f(a, nu={exp['nu']:.3e}) by {err:.2e} > {tol:.0e} "
                           f"but matches f(a, 0): the _NU_FLOOR seam")
            return
    result.problems.append(f"bose_mm = {value:.10e}, reference T^3 f(a={exp['a']:.6g}, "
                           f"nu={exp['nu']:.3e}) = {ref:.10e} (rel. error {err:.2e} > {tol:.0e})")
