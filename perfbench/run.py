"""Cold-process benchmark of the trapscatter CLI.

Usage (from the repository root):

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each round starts fresh interpreter processes: one that only imports
`trapscatter.cli` (set-up time) and one that runs the workload's CLI command
(wall, CPU and peak RSS from `os.wait4`).  Rounds repeat, interleaving the
workloads when several are asked for, until `--seconds` have passed; every
metric is the median over the run.  Afterwards every output table is
checked against computations made apart from the program (`checks.py`).

With `--trace 1` each round instead runs `python -X importtime`, the
untraced command and the same command under `trace_child.py`, and the run
reports per-layer metrics (`layers.py`).

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  An operation is one output
row.  See perfbench/README.md.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy
import scipy

import checks
import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"

CLI_BOOT = "import sys; from trapscatter.cli import entrypoint; sys.argv[0] = 'trapscatter'; entrypoint()"
IMPORT_ONLY = "import trapscatter.cli"

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
MIN_SETUP_SAMPLES = 5
# No new round starts once it could end later than this many seconds after
# start; the checks still have to fit before the 180 s a run may take.
LAST_END_S = 150.0
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS",
                    "TRAPSCATTER_WORKERS")


@dataclass
class Sample:
    wall: float
    cpu: float
    rss_mb: float
    returncode: int
    log: str


@dataclass
class Record:
    """Everything measured for one workload in one run."""

    workload: workloads.Workload
    setup: list = field(default_factory=list)
    runs: list = field(default_factory=list)  # (Sample, table text or None)
    traced: list = field(default_factory=list)  # (Sample, table text or None, spans or None)
    imports: list = field(default_factory=list)  # import_metrics dicts


def child_env():
    """The parent's environment plus PYTHONPATH=src; TRAPSCATTER_WORKERS removed (package default)."""
    env = dict(os.environ)
    env.pop("TRAPSCATTER_WORKERS", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(cmd, env, log_path, timeout):
    """Run one process to its end; wall time from spawn to reaping, rusage from wait4."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT,
                                env=env, cwd=ROOT)
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall=wall, cpu=usage.ru_utime + usage.ru_stime, rss_mb=usage.ru_maxrss / 1024.0,
                  returncode=proc.returncode, log=log_path.read_text(errors="replace"))


def _read(path):
    try:
        return path.read_text(encoding="utf-8")
    except OSError:
        return None


class Runner:
    def __init__(self, seed, trace, deadline):
        self.env = child_env()
        self.trace = trace
        self.deadline = deadline
        self.tag = f"seed{seed}-trace{int(trace)}"

    def _timeout(self):
        return self.deadline - time.perf_counter()

    def setup_probe(self, record):
        log = WORK / f"{self.tag}-setup.log"
        record.setup.append(run_child([sys.executable, "-c", IMPORT_ONLY], self.env, log, self._timeout()))

    def import_probe(self, record):
        log = WORK / f"{self.tag}-importtime.log"
        sample = run_child([sys.executable, "-X", "importtime", "-c", IMPORT_ONLY], self.env, log,
                           self._timeout())
        record.imports.append(layers.import_metrics(sample.log))

    def workload(self, record, traced=False):
        wl = record.workload
        stem = WORK / f"{wl.name}-{self.tag}-{'traced' if traced else 'plain'}"
        table = stem.with_suffix(".csv")
        table.unlink(missing_ok=True)
        if traced:
            spans_path = stem.with_suffix(".spans.json")
            spans_path.unlink(missing_ok=True)
            cmd = [sys.executable, str(HERE / "trace_child.py"), str(spans_path), *wl.argv(table)]
        else:
            cmd = [sys.executable, "-c", CLI_BOOT, *wl.argv(table)]
        sample = run_child(cmd, self.env, stem.with_suffix(".log"), self._timeout())
        if traced:
            spans_text = _read(spans_path)
            spans = json.loads(spans_text)["spans"] if spans_text else None
            record.traced.append((sample, _read(table), spans))
        else:
            record.runs.append((sample, _read(table)))

    def round(self, record, setup_probes):
        if self.trace:
            self.import_probe(record)
            self.workload(record)
            self.workload(record, traced=True)
        else:
            for _ in range(setup_probes):
                self.setup_probe(record)
            self.workload(record)


def measure(records, runner, seconds, started):
    """Whole rounds until `seconds` are used; a round starts only if half of it fits.

    Set-up probes ride in the rounds.  From the second round on, each round
    takes enough of them to reach MIN_SETUP_SAMPLES in the rounds that still
    fit; should that estimate fall short, the rest run after the last round.
    """
    loop_start = time.perf_counter()
    rounds, setup_probes = 0, 1
    while True:
        round_start = time.perf_counter()
        for record in records:
            runner.round(record, setup_probes)
        rounds += 1
        now = time.perf_counter()
        last = now - round_start
        if now + 0.5 * last - loop_start >= seconds or now + last > started + LAST_END_S:
            break
        rounds_left = max(1, int((seconds - (now - loop_start)) // last))
        missing = MIN_SETUP_SAMPLES - len(records[0].setup)
        setup_probes = max(1, math.ceil(missing / rounds_left))
    if not runner.trace:
        for record in records:
            while len(record.setup) < MIN_SETUP_SAMPLES and time.perf_counter() < started + LAST_END_S:
                runner.setup_probe(record)
    return rounds, time.perf_counter() - loop_start


def judge(record):
    """Check every table of the record; returns (attempted, failed, unexpected, seam rows)."""
    expected = checks.Expected(record.workload)
    outputs = [(s, t) for s, t in record.runs] + [(s, t) for s, t, _ in record.traced]
    attempted = failed = 0
    unexpected, seam = {}, {}
    for sample, table in outputs:
        for row in checks.check_output(expected, sample.returncode, sample.log, table):
            attempted += 1
            failed += row.failed
            if row.problems:
                unexpected.setdefault(row.label, row.problems)
            elif row.seam:
                seam.setdefault(row.label, row.seam)
    return attempted, failed, unexpected, seam


def end_to_end(record):
    return {
        "wall_s": statistics.median(s.wall for s, _ in record.runs),
        "cpu_s": statistics.median(s.cpu for s, _ in record.runs),
        "setup_s": statistics.median(s.wall for s in record.setup),
        "peak_rss_mb": statistics.median(s.rss_mb for s, _ in record.runs),
    }


def per_layer(record):
    values = {}
    for name in ("import.trapscatter_s", "import.scipy_s", "import.numpy_s"):
        values[name] = statistics.median(m[name] for m in record.imports)
    per_round = [layers.span_metrics(spans) for _, _, spans in record.traced if spans is not None]
    if per_round:
        for name in per_round[0]:
            column = [m[name] for m in per_round]
            values[name] = (statistics.median_low(column) if layers.UNITS[name] == "count"
                            else statistics.median(column))
    values["trace.overhead_s"] = (statistics.median(s.wall for s, _, _ in record.traced)
                                  - statistics.median(s.wall for s, _ in record.runs))
    return values


def git_sha():
    try:
        # the ceiling keeps git from reporting a repository that merely encloses ROOT
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment():
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "threads": {k: os.environ[k] for k in THREAD_VARIABLES if k in os.environ},
    }


def _fmt(value, unit):
    return f"{value:d} {unit}" if isinstance(value, int) else f"{value:.6g} {unit}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all",) + workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "trapscatter" / "cli.py").is_file():
        print(f"perfbench: no trapscatter sources in {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    WORK.mkdir(exist_ok=True)
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    records = [Record(workloads.make(name, args.seed)) for name in names]
    runner = Runner(args.seed, args.trace, started + 170.0)

    # compiles the bytecode cache so every measured process starts alike
    warm = run_child([sys.executable, "-c", IMPORT_ONLY], runner.env, WORK / "warmup.log", 120.0)
    if warm.returncode != 0:
        print(f"perfbench: importing trapscatter.cli failed:\n{warm.log}", file=sys.stderr)
        return 1

    rounds, elapsed = measure(records, runner, args.seconds, started)
    env = environment()
    print(f"perfbench: seed {args.seed}, {rounds} round(s) in {elapsed:.1f} s, trace {args.trace}, "
          f"python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"nproc {env['nproc']}, git {env['git_sha'][:12]}, thread env {env['threads'] or 'unset'}")

    attempted = failed = 0
    correct = True
    metrics = {}
    for record in records:
        wl = record.workload
        rows, bad, unexpected, seam = judge(record)
        attempted += rows
        failed += bad
        correct = correct and not unexpected
        values = per_layer(record) if args.trace else end_to_end(record)
        units = layers.UNITS if args.trace else END_TO_END_UNITS
        print(f"\n{wl.name}: trapscatter {' '.join(wl.argv('OUT'))}")
        for name, value in values.items():
            print(f"  {name:45s} {_fmt(value, units[name])}")
            key = name if len(records) == 1 else f"{wl.name}.{name}"
            metrics[key] = {"value": value, "unit": units[name]}
        print(f"  operations: {rows} rows attempted, {bad} failed "
              f"({len(record.runs) + len(record.traced)} processes)")
        for label, reason in seam.items():
            print(f"  known fault, {label}: {reason}")
        for label, problems in unexpected.items():
            print(f"  FAILED {label}: {'; '.join(problems)}")

    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    samples = {r.workload.name: {
        "argv": r.workload.argv("OUT"),
        "setup_wall_s": [s.wall for s in r.setup],
        "runs": [{"wall_s": s.wall, "cpu_s": s.cpu, "peak_rss_mb": s.rss_mb, "exit": s.returncode}
                 for s, _ in r.runs],
        "traced_wall_s": [s.wall for s, _, _ in r.traced],
    } for r in records}
    (WORK / f"result-{args.workload}-{runner.tag}.json").write_text(
        json.dumps({"environment": env, "samples": samples, **result}, indent=2))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
