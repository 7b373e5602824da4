"""Self-test of the output checks: every perturbed table must be flagged.

Usage (from the repository root): python3 perfbench/selftest.py

Builds three small tables with the real CLI (in this process), confirms the
checks pass them (apart from the known _NU_FLOOR seam row), then perturbs
one cell, flag, row or exit status at a time and confirms that the checks
report the damaged row, or every row for a process-level fault, as failed.
Exits 1 if any perturbation goes unnoticed.
"""

import csv
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from trapscatter import cli  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

STEP = workloads.TEMP_STEP

ANGLE = workloads.Workload(
    name="selftest-angle", subcommand="sweep-angle", n_total=10_000, method="semiclassical",
    k_incident=1000.0, t_over_tc=0.7, lo=0.2, hi=30.0, points=12, log_spacing=True)
# rows at T/Tc = 0.9119 ... 1.0339 on the temp-across-tc lattice; row 2 (0.9525) is the seam row
TEMP = workloads.Workload(
    name="selftest-temp", subcommand="sweep-temp", n_total=10_000, method="both",
    k_incident=1000.0, lo=0.2 + 35 * STEP, hi=0.2 + 41 * STEP, points=7, delta=1.0)
ORACLE = workloads.Workload(
    name="selftest-oracle", subcommand="sweep-angle", n_total=10_000, method="oracle",
    k_incident=1000.0, t_over_tc=0.7, lo=0.5, hi=8.0, points=5)


def make_table(workload, directory):
    out = Path(directory) / f"{workload.name}.csv"
    code = cli.main(workload.argv(out))
    return code, out.read_text(encoding="utf-8")


def edit(text, row, column, change):
    """Table text with one cell of data row `row` replaced by change(cell)."""
    records = list(csv.reader(io.StringIO(text)))
    col = records[0].index(column)
    records[row + 1][col] = change(records[row + 1][col])
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(records)
    return buffer.getvalue()


def scale(factor):
    return lambda cell: "%.10e" % (float(cell) * factor)


def edit_row(text, row, changes):
    """Table text with several cells of data row `row` set: {column: new cell}."""
    for column, cell in changes.items():
        text = edit(text, row, column, lambda _, cell=cell: cell)
    return text


def flag_bose_invalid(text, row):
    """Both Bose channels zeroed and flagged invalid, total kept equal to the channel sum."""
    cells = next(r for i, r in enumerate(csv.DictReader(io.StringIO(text))) if i == row)
    total = float(cells["rayleigh"]) + float(cells["diffraction"])
    return edit_row(text, row, {"bose_0m": "%.10e" % 0.0, "bose_mm": "%.10e" % 0.0,
                                "total": "%.10e" % total,
                                "flags": "bose_0m:invalid;bose_mm:invalid"})


def oracle_error(text, row):
    """The row as the CLI writes it when its oracle raised: NaN oracle cells and an error flag."""
    nan = {c: "nan" for c in checks.ORACLE_CHANNELS + ("total_oracle",)}
    return edit_row(text, row, {**nan, "flags": "oracle:error:TruncationError"})


def drop_row(text, row):
    lines = text.splitlines(keepends=True)
    return "".join(lines[: row + 1] + lines[row + 2:])


def main():
    missed = []

    def expect(title, expected, text, rows, returncode=0, log=""):
        """`rows`: indices that must fail with a problem, or None for every row."""
        results = checks.check_output(expected, returncode, log, text)
        want = set(range(len(results))) if rows is None else set(rows)
        got = {i for i, r in enumerate(results) if r.problems}
        status = "ok" if got == want else "MISSED"
        if got != want:
            missed.append(title)
        print(f"  {status:6s} {title}: rows failed {sorted(got)}, expected {sorted(want)}")

    work = ROOT / ".perfbench-work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        tables = {wl.name: (wl, checks.Expected(wl), *make_table(wl, tmp)) for wl in (ANGLE, TEMP, ORACLE)}

    for name, (wl, expected, code, text) in tables.items():
        results = checks.check_output(expected, code, "", text)
        seam = [i for i, r in enumerate(results) if r.seam]
        clean = not any(r.problems for r in results) and seam == ([2] if wl is TEMP else [])
        print(f"{name}: unperturbed table {'passes' if clean else 'FAILS'} (seam rows {seam})")
        if not clean:
            missed.append(f"{name} unperturbed")

    wl, exp, _, text = tables["selftest-angle"]
    valid = next(i for i, row in enumerate(exp.rows) if row["valid"]["bose_mm"])
    print("sweep-angle, semiclassical:")
    expect("bose_0m x 1.01", exp, edit(text, valid, "bose_0m", scale(1.01)), [valid])
    expect("diffraction x (1 + 1e-6)", exp, edit(text, valid, "diffraction", scale(1 + 1e-6)), [valid])
    expect("bose_mm x 1.01 (grid row)", exp, edit(text, valid, "bose_mm", scale(1.01)), [valid])
    expect("total x (1 + 1e-8)", exp, edit(text, valid, "total", scale(1 + 1e-8)), [valid])
    expect("rayleigh x 1.001", exp, edit(text, 3, "rayleigh", scale(1.001)), [3])
    expect("theta x 1.001", exp, edit(text, 3, "theta", scale(1.001)), [3])
    expect("delta cell off grid", exp, edit(text, 4, "delta", scale(1.01)), [4])
    expect("invalid flags dropped", exp, edit(text, 0, "flags", lambda _: "ok"), [0])
    expect("valid channel flagged invalid", exp, edit(text, valid, "flags", lambda _: "bose_mm:invalid"), [valid])
    expect("error flag", exp, edit(text, valid, "flags", lambda _: "bose_mm:error"), [valid], returncode=3)
    expect("NaN cell", exp, edit(text, 5, "bose_mm", lambda _: "nan"), [5])
    expect("row missing", exp, drop_row(text, 6), None)
    expect("exit code 1", exp, text, None, returncode=1)
    expect("traceback in log", exp, text, None, log="Traceback (most recent call last):\n")
    expect("exit code 3 without error flag", exp, text, None, returncode=3)
    expect("no table", exp, None, None)

    wl, exp, _, text = tables["selftest-temp"]
    print("sweep-temp, both methods:")
    expect("mu x (1 + 1e-6)", exp, edit(text, 0, "mu", scale(1 + 1e-6)), [0])
    expect("n0 + 1", exp, edit(text, 1, "n0", lambda c: "%.10e" % (float(c) + 1.0)), [1])
    expect("t_over_tc x 1.001", exp, edit(text, 1, "t_over_tc", scale(1.001)), [1])
    expect("bose_mm x (1 + 1e-4) (direct row above Tc)", exp,
           edit(text, 6, "bose_mm", scale(1 + 1e-4)), [6])
    expect("bose_mm x 1.01 (grid row)", exp, edit(text, 0, "bose_mm", scale(1.01)), [0])
    expect("bose_mm x 1.01 (seam row)", exp, edit(text, 2, "bose_mm", scale(1.01)), [2])
    expect("bose_mm_oracle x 1.01", exp, edit(text, 4, "bose_mm_oracle", scale(1.01)), [4])
    expect("bose_0m_oracle x 1.001", exp, edit(text, 0, "bose_0m_oracle", scale(1.001)), [0])
    expect("diffraction_oracle x (1 + 1e-5)", exp, edit(text, 5, "diffraction_oracle", scale(1 + 1e-5)), [5])
    expect("total_oracle x (1 + 1e-8)", exp, edit(text, 3, "total_oracle", scale(1 + 1e-8)), [3])
    expect("Bose channels zeroed and flagged invalid (direct row at delta = 1)", exp,
           flag_bose_invalid(text, 6), [6])
    expect("Bose channels zeroed and flagged invalid (grid row at delta = 1)", exp,
           flag_bose_invalid(text, 0), [0])
    expect("oracle error row, exit code 3", exp, oracle_error(text, 4), [4], returncode=3)

    wl, exp, _, text = tables["selftest-oracle"]
    print("sweep-angle, oracle:")
    expect("bose_mm_oracle x 1.01 (Hermite row)", exp, edit(text, 2, "bose_mm_oracle", scale(1.01)), [2])
    expect("bose_0m_oracle x 1.01", exp, edit(text, 1, "bose_0m_oracle", scale(1.01)), [1])
    expect("diffraction_oracle x (1 + 1e-5)", exp, edit(text, 3, "diffraction_oracle", scale(1 + 1e-5)), [3])
    expect("negative bose_mm_oracle", exp, edit(text, 1, "bose_mm_oracle", scale(-1.0)), [1])
    expect("oracle error row, exit code 3", exp, oracle_error(text, 2), [2], returncode=3)

    print(f"\n{len(missed)} perturbation(s) missed" + (f": {missed}" if missed else ""))
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
