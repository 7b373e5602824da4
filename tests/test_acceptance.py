"""Acceptance checklist.

One test per numbered criterion (split into lettered clauses where a
criterion bundles several claims); each prints a PASS/FAIL line with the
measured numbers.  Three clauses (3a, 4b, 6b) encode published asymptotic
claims that the implementation's measured behavior disproves; they are
kept at their stated tolerances and fail honestly.  The correct measured
behavior is pinned by companion tests in the unit modules.
"""

import math
import time

import numpy as np
from scipy import integrate

from trapscatter import (
    TrapEnsemble,
    ZETA3,
    bose_0m_differential,
    bose_mm_total,
    chemical_potential,
    condensate_count,
    critical_temperature,
    decompose,
    diffraction_z_integral,
    excited_pair_shape,
    exact_breakdown,
    scaling_probe,
    solve_mu_discrete,
)
from trapscatter.cli import main as cli_main
from trapscatter.oracle import _projected_weights
from trapscatter.oscillator import diagonal_amplitude_column, ground_overlap_column, overlap_matrix


def report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] acceptance {criterion}: {detail}")
    return ok


def test_criterion_1_completeness_unitarity():
    start = time.perf_counter()
    worst_row = 0.0
    for delta in (0.5, 1.0, 2.0, 4.0):
        g = overlap_matrix(240, delta)
        worst_row = max(worst_row, float(np.max(np.abs(g[:41].sum(axis=1) - 1.0))))
    poisson = abs(float(ground_overlap_column(60, 3.0).sum()) - 1.0)
    elapsed = time.perf_counter() - start
    ok = worst_row <= 1e-10 and poisson <= 1e-12 and elapsed < 1.0
    assert report(
        "1 completeness/unitarity",
        ok,
        f"row-sum dev {worst_row:.2e} (tol 1e-10), Poisson dev {poisson:.2e} "
        f"(tol 1e-12), {elapsed:.2f} s (< 1 s)",
    )


def test_criterion_2_matrix_element_oracle(hermite_oracle):
    start = time.perf_counter()
    worst = 0.0
    for delta in (0.5, 1.5, 3.0):
        reference = hermite_oracle(60, delta)
        produced = overlap_matrix(60, delta)
        worst = max(worst, float(np.max(np.abs(produced - reference))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 30.0
    assert report(
        "2 matrix-element oracle",
        ok,
        f"max |recurrence - quadrature| = {worst:.2e} (tol 1e-8) over "
        f"m,m' <= 60, delta in (0.5, 1.5, 3); {elapsed:.1f} s (< 30 s)",
    )


def test_criterion_3a_condensate_fraction():
    n = 10_000
    tc = critical_temperature(n)
    deviations = {}
    for ratio in (0.3, 0.5, 0.7, 0.9):
        ens = solve_mu_discrete(n, ratio * tc)
        deviations[ratio] = abs(float(ens.occupations[0]) - condensate_count(n, ens.temperature)) / n
    ok = all(d <= 0.03 for d in deviations.values())
    detail = ", ".join(f"T/Tc={r}: {d:.3f}" for r, d in deviations.items())
    assert report("3a condensate fraction vs oracle (tol 0.03)", ok, detail)


def test_criterion_3b_mu_continuity():
    n = 10_000
    tc = critical_temperature(n)
    jump = abs(
        chemical_potential(n, tc * (1 - 1e-9)) - chemical_potential(n, tc * (1 + 1e-9))
    )
    ok = jump <= 1e-6 * tc
    assert report("3b mu continuity across Tc", ok, f"|jump| = {jump / tc:.2e} T (tol 1e-6 T)")


def test_criterion_3c_mu_linearized_slope():
    n = 10_000
    tc = critical_temperature(n)
    t = 1.1 * tc
    mu = chemical_potential(n, t)
    linear = -18.0 * ZETA3 / math.pi**2 * 0.1 * t
    deviation = abs(mu / linear - 1.0)
    ok = deviation <= 0.15
    assert report(
        "3c mu slope above Tc",
        ok,
        f"solver/linearized = {mu / linear:.4f} (tol 15%), slope -18 zeta(3)/pi^2",
    )


def test_criterion_4a_z_integral_unit():
    worst = max(
        abs(diffraction_z_integral(delta, 0.0) - 1.0) for delta in (0.5, 1.0, 2.0, 6.0)
    )
    ok = worst <= 1e-10
    assert report("4a z-integral at mu=0", ok, f"max |Z - 1| = {worst:.2e} (tol 1e-10)")


def test_criterion_4b_excited_cloud_ft():
    n = 10_000
    ens = solve_mu_discrete(n, 0.9 * critical_temperature(n))
    t = ens.temperature
    w = _projected_weights(ens.occupations)
    ratios = {}
    for d2t in (20.0, 30.0, 44.0):
        delta = math.sqrt(d2t / t)
        amp = diagonal_amplitude_column(ens.epsilon_max, delta)
        excited_ft = float(np.dot(amp, w)) - float(ens.occupations[0]) * amp[0]
        ratios[d2t] = excited_ft / (4.0 * t / delta**4)
    ok = all(abs(r - 1.0) <= 0.10 for r in ratios.values())
    detail = ", ".join(f"d^2T={k:g}: ratio {v:.3f}" for k, v in ratios.items())
    assert report("4b excited-cloud FT vs 4T/d^4 (tol 10%)", ok, detail)


def test_criterion_4c_condensate_total():
    n = 10_000
    ens = TrapEnsemble.at_ratio(n, 0.5)
    k = 100.0
    n0 = ens.n_condensate

    def integrand(delta):
        return (n0 * math.exp(-0.25 * delta * delta)) ** 2 * 2.0 * math.pi * delta / k**2

    numeric, _ = integrate.quad(integrand, 0.0, 2.0 * k, limit=300, epsrel=1e-10)
    closed = 2.0 * math.pi * n0**2 / k**2
    deviation = abs(numeric / closed - 1.0)
    ok = deviation <= 0.03
    assert report(
        "4c condensate angular total", ok,
        f"numeric/closed = {numeric / closed:.6f} (tol 3%) at k_i = 100",
    )


def test_criterion_5_bose_0m():
    deviations = {}
    for n in (100, 1000, 10_000):
        tc = critical_temperature(n)
        t = 0.6 * tc
        ens = solve_mu_discrete(n, t)
        delta = math.sqrt(t / 2.0)
        semi = 2.0 * condensate_count(n, t) / math.expm1(0.5 * delta * delta / t)
        deviations[n] = abs(exact_breakdown(ens, delta).bose_0m / semi - 1.0)
    magnitudes = [deviations[n] for n in (100, 1000, 10_000)]
    converged = magnitudes[0] > magnitudes[1] > magnitudes[2]
    within = deviations[10_000] <= 0.25

    # asymptote ratios in their regimes: x = delta^2/2T
    t = 25.0
    ens = TrapEnsemble(2000, t, -1e-12, 1000.0)
    small_x = 2.0 * t * 0.01
    low = (4.0 * 1000.0 * t / small_x) / bose_0m_differential(ens, math.sqrt(small_x))
    big_x = 2.0 * t * 5.0
    high = (2.0 * 1000.0 * math.exp(-5.0)) / bose_0m_differential(ens, math.sqrt(big_x))
    asymptotes = abs(low - 1.0) <= 0.01 and abs(high - 1.0) <= 0.01

    ok = converged and within and asymptotes
    detail = (
        f"oracle dev at N=(1e2,1e3,1e4): "
        + ", ".join(f"{d:.3f}" for d in magnitudes)
        + f" (monotone {converged}, final tol 0.25); asymptote ratios "
        + f"{low:.4f}/{high:.4f} (tol 1%)"
    )
    assert report("5 bose 0<->m oracle + asymptotes", ok, detail)


def test_criterion_6a_shape_function_finite():
    value = excited_pair_shape(1e-3)
    ok = 0.01 <= value <= 100.0
    assert report("6a f(a) O(1) at a = 1e-3", ok, f"f(1e-3) = {value:.4f} (window [0.01, 100])")


def test_criterion_6b_shape_function_slope():
    slope = (math.log(excited_pair_shape(16.0)) - math.log(excited_pair_shape(8.0))) / 8.0
    ok = abs(slope - (-0.25)) <= 0.05
    assert report(
        "6b f(a) log-slope on [8, 16] (claim -1/4, tol 20%)",
        ok,
        f"measured slope {slope:.4f}; the pair-support geometry gives -1/2",
    )


def test_criterion_6c_pair_total_scaling():
    k = 100.0
    t = 9.0
    base = TrapEnsemble(5000, t, -1e-9, 2000.0)
    doubled = TrapEnsemble(5000, 2.0 ** (1.0 / 3.0) * t, -1e-9, 2000.0)
    exponent = math.log(bose_mm_total(doubled, k) / bose_mm_total(base, k)) / math.log(2.0)
    ok = abs(exponent - 4.0 / 3.0) <= 0.05 * 4.0 / 3.0
    assert report(
        "6c pair total Ne-scaling exponent", ok, f"{exponent:.4f} (target 4/3, tol 5%)"
    )


def test_criterion_6d_shape_function_runtime():
    worst = 0.0
    for a in (1e-3, 1.0, 8.0, 16.0):
        start = time.perf_counter()
        excited_pair_shape(a)
        worst = max(worst, time.perf_counter() - start)
    ok = worst < 5.0
    assert report("6d triple quadrature runtime", ok, f"worst {worst:.2f} s per a-point (< 5 s)")


def test_criterion_7_scaling_probes():
    start = time.perf_counter()
    ladder = [300, 1000, 3000, 10_000]
    fits = {
        "rayleigh": scaling_probe("rayleigh", ladder, 0.5, 1.0),
        "diffraction": scaling_probe("diffraction", ladder, 0.5, 0.5),
        "bose_0m": scaling_probe("bose_0m", ladder, 0.5, 1.0),
    }
    elapsed = time.perf_counter() - start
    ok = (
        abs(fits["rayleigh"].exponent - 1.0) <= 0.01
        and abs(fits["diffraction"].exponent - 2.0) <= 0.1
        and abs(fits["bose_0m"].exponent - 4.0 / 3.0) <= 0.15
        and elapsed < 600.0
    )
    detail = (
        f"rayleigh {fits['rayleigh'].exponent:.4f} (1.00+-0.01), "
        f"diffraction {fits['diffraction'].exponent:.3f} (2.0+-0.1), "
        f"bose_0m {fits['bose_0m'].exponent:.3f} (4/3+-0.15); {elapsed:.0f} s (< 600 s)"
    )
    assert report("7 oracle scaling exponents", ok, detail)


def test_criterion_8_dominance_windows():
    ens = TrapEnsemble.at_ratio(1_000_000, 0.7)
    diff_window = decompose(ens, 1.0)
    diffraction_dominates = diff_window.diffraction > 10.0 * max(
        diff_window.rayleigh, diff_window.bose_0m, diff_window.bose_mm
    )
    bose_window = decompose(ens, 3.0)
    bose_beats_rayleigh = bose_window.bose_0m > 10.0 * bose_window.rayleigh
    tail = decompose(ens, 33.0)
    rayleigh_largest = tail.rayleigh > max(tail.diffraction, tail.bose_0m, tail.bose_mm)
    ok = diffraction_dominates and bose_beats_rayleigh and rayleigh_largest
    assert report(
        "8 dominance windows at N = 1e6",
        ok,
        f"diffraction@d=1 x{diff_window.diffraction / max(diff_window.bose_0m, 1):.0f}, "
        f"bose_0m@d=3 / rayleigh = {bose_window.bose_0m / bose_window.rayleigh:.1f}, "
        f"rayleigh largest @ d=33: {rayleigh_largest}",
    )


def test_criterion_9_cli_determinism(tmp_path):
    args = [
        "sweep-angle", "--n", "10000", "--t-over-tc", "0.7",
        "--k-incident", "1000", "--delta-lo", "0.05", "--delta-hi", "30",
        "--points", "40", "--log",
    ]
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    assert cli_main(args + ["--out", str(first)]) == 0
    assert cli_main(args + ["--out", str(second)]) == 0
    identical = first.read_bytes() == second.read_bytes()
    ok = identical
    assert report(
        "9 CLI determinism", ok,
        f"two identical sweep-angle runs byte-identical: {identical} "
        f"({first.stat().st_size} bytes)",
    )
