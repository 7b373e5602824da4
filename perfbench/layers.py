"""Per-layer metrics from the spans of a traced run and from `python -X importtime`.

A span's self time is its duration minus the durations of its nearest
counted descendants.  Marker spans (`MARKERS`) only record who called whom:
they are looked through when self time is computed, so for example the
f-grid interpolation inside `bose_mm_differential` counts as `decompose`
self time.
"""

from collections import defaultdict

MARKERS = {"scattering.bose_mm_differential", "scattering.shape_table.build"}

# Spans of the f-grid, the direct f, the oracle and the oscillator:
# today's heavy layers, whose share of cli.sweep_s is `trace.heavy_share`.
_HEAVY = ("scattering.shape_table.build", "oracle.solve_mu_discrete", "oracle.exact_breakdown")

# name -> unit of every per-layer metric, in report order
UNITS = {
    "import.trapscatter_s": "s", "import.scipy_s": "s", "import.numpy_s": "s",
    "cli.sweep_s": "s", "cli.rows": "count", "cli.write_s": "s",
    "scattering.shape_table.calls": "count", "scattering.shape_table.builds": "count",
    "scattering.shape_table.build_s": "s",
    "scattering.excited_pair_shape.grid_calls": "count",
    "scattering.excited_pair_shape.direct_calls": "count",
    "scattering.excited_pair_shape.direct_s": "s",
    "scattering.decompose.calls": "count", "scattering.decompose.total_s": "s",
    "scattering.decompose.self_s": "s",
    "quad.diffraction_z_integral.calls": "count", "quad.diffraction_z_integral.total_s": "s",
    "quad.p_kernel.calls": "count",
    "quad.polylog3.calls": "count", "quad.polylog3.total_s": "s",
    "thermo.chemical_potential.calls": "count", "thermo.chemical_potential.self_s": "s",
    "oracle.solve_mu_discrete.calls": "count", "oracle.solve_mu_discrete.total_s": "s",
    "oracle.exact_breakdown.calls": "count", "oracle.exact_breakdown.total_s": "s",
    "oracle.exact_breakdown.self_s": "s", "oracle.levels": "count",
    "oscillator.overlap_matrix.calls": "count", "oscillator.overlap_matrix.total_s": "s",
    "oscillator.overlap_matrix.elements": "count", "oscillator.columns_s": "s",
    "trace.covered_share": "ratio", "trace.heavy_share": "ratio",
    "trace.overhead_s": "s",
}


def span_metrics(spans):
    """Metrics of one traced process from its span list [name, start, end, parent, extra]."""
    children = defaultdict(list)
    for index, span in enumerate(spans):
        children[span[3]].append(index)

    def duration(i):
        return spans[i][2] - spans[i][1]

    def counted_below(i):
        for c in children[i]:
            if spans[c][0] in MARKERS:
                yield from counted_below(c)
            else:
                yield c

    def self_time(i):
        return duration(i) - sum(duration(c) for c in counted_below(i))

    by_name = defaultdict(list)
    for index, span in enumerate(spans):
        by_name[span[0]].append(index)

    def calls(name):
        return len(by_name[name])

    def total(name):
        return sum(duration(i) for i in by_name[name])

    def total_self(name):
        return sum(self_time(i) for i in by_name[name])

    def extra(name):
        return sum(spans[i][4] or 0 for i in by_name[name])

    parent_name = {i: spans[spans[i][3]][0] if spans[i][3] >= 0 else None
                   for i in by_name["scattering.excited_pair_shape"]}
    grid = [i for i, p in parent_name.items() if p == "scattering.shape_table.build"]
    direct = [i for i, p in parent_name.items() if p == "scattering.bose_mm_differential"]

    sweep = total("cli.sweep")
    covered = sum(duration(c) for i in by_name["cli.sweep"] for c in counted_below(i))
    heavy = sum(total(name) for name in _HEAVY) + sum(duration(i) for i in direct)
    return {
        "cli.sweep_s": sweep,
        "cli.rows": extra("cli.sweep"),
        "cli.write_s": total("cli.write"),
        "scattering.shape_table.calls": calls("scattering.shape_table"),
        "scattering.shape_table.builds": calls("scattering.shape_table.build"),
        "scattering.shape_table.build_s": total("scattering.shape_table.build"),
        "scattering.excited_pair_shape.grid_calls": len(grid),
        "scattering.excited_pair_shape.direct_calls": len(direct),
        "scattering.excited_pair_shape.direct_s": sum(duration(i) for i in direct),
        "scattering.decompose.calls": calls("scattering.decompose"),
        "scattering.decompose.total_s": total("scattering.decompose"),
        "scattering.decompose.self_s": total_self("scattering.decompose"),
        "quad.diffraction_z_integral.calls": calls("quad.diffraction_z_integral"),
        "quad.diffraction_z_integral.total_s": total("quad.diffraction_z_integral"),
        "quad.p_kernel.calls": calls("quad.p_kernel"),
        "quad.polylog3.calls": calls("quad.polylog3"),
        "quad.polylog3.total_s": total("quad.polylog3"),
        "thermo.chemical_potential.calls": calls("thermo.chemical_potential"),
        "thermo.chemical_potential.self_s": total_self("thermo.chemical_potential"),
        "oracle.solve_mu_discrete.calls": calls("oracle.solve_mu_discrete"),
        "oracle.solve_mu_discrete.total_s": total("oracle.solve_mu_discrete"),
        "oracle.exact_breakdown.calls": calls("oracle.exact_breakdown"),
        "oracle.exact_breakdown.total_s": total("oracle.exact_breakdown"),
        "oracle.exact_breakdown.self_s": total_self("oracle.exact_breakdown"),
        "oracle.levels": extra("oracle.exact_breakdown"),
        "oscillator.overlap_matrix.calls": calls("oscillator.overlap_matrix"),
        "oscillator.overlap_matrix.total_s": total("oscillator.overlap_matrix"),
        "oscillator.overlap_matrix.elements": extra("oscillator.overlap_matrix"),
        "oscillator.columns_s": total("oscillator.columns"),
        "trace.covered_share": covered / sweep if sweep > 0 else 0.0,
        "trace.heavy_share": heavy / sweep if sweep > 0 else 0.0,
    }


def import_metrics(log_text):
    """Import times from `python -X importtime -c "import trapscatter.cli"` output.

    import.trapscatter_s is the cumulative time of the top-level trapscatter
    imports (everything `import trapscatter.cli` pulls in); import.scipy_s
    and import.numpy_s are the summed self times of those packages' modules.
    """
    top = scipy = numpy = 0
    for line in log_text.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        _, self_us, cumulative_us, name = (part for part in line.replace("import time:", "|", 1).split("|"))
        package = name.strip().split(".")[0]
        if package == "trapscatter" and not name.startswith("  "):
            top += int(cumulative_us)
        elif package == "scipy":
            scipy += int(self_us)
        elif package == "numpy":
            numpy += int(self_us)
    return {"import.trapscatter_s": top * 1e-6, "import.scipy_s": scipy * 1e-6,
            "import.numpy_s": numpy * 1e-6}
