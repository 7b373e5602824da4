"""Hash the CLI's output for a fixed list of commands, to compare two source trees byte for byte.

    python3 tools/output_hashes.py SRC_DIR

runs each command as a cold `python -m trapscatter.cli` with
PYTHONPATH=SRC_DIR and COLUMNS=80, from a temporary directory that holds
the config files below, and prints one line per command:

    sha256  exit  label

where sha256 is the digest of everything the command wrote, standard
output then standard error.  The commands are:

- every benchmark workload at seeds 1-6 (`perfbench/workloads.py`);
- the CLI commands of README.md;
- a temperature sweep whose hot oracle rows fail (exit 3);
- `--help` of the root and of each subcommand;
- `sweep-angle` and `sweep-temp` with `--format json`, whose config echo
  lists every field set;
- a sweep read from a key=value config file, with one flag overriding it;
- three refused configurations (exit 2): `method = bogus` in a config
  file, `--t-over-tc nan`, and `sweep-temp` without `--delta`;
- seven extreme inputs: `sweep-angle` and `sweep-temp --method both` at
  T = 1e-323, whose mu0 underflows (exit 3); `sweep-angle --method oracle`
  at N = 10**308, whose discrete population overflows (exit 3);
  `sweep-angle` at T = 1.1e78 and delta = 1e-39, whose diffraction is inf
  (exit 0); `sweep-angle --method both` over 40 deltas from 1e-6 to
  2e6, every oracle cell a breakdown (exit 0); `sweep-angle` with 10**23
  points, a grid numpy cannot index (exit 2); and `sweep-angle` at
  T = 5.5e102, where the continuum population at mu0 overflows but the
  root does not (exit 0).  None of them prints a numpy warning;
- `sweep-angle` at N = 1e15, 0.7 Tc and delta from 1 to 3, whose every
  `bose_mm` row is valid at a = 7.6e-6 to 6.8e-5: f's small-a path, which
  no workload reaches (label `small-a-sweep-angle`);
- the python block under README.md's `## Library`, run as `python -c` in
  the same way, followed by the `repr` of each name the block assigns,
  sorted by name (label `readme-library`).

Every command that writes a table writes it to standard output.  Run the
tool on two trees and diff the two listings.
"""

import ast
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402

SEEDS = range(1, 7)
# 8 of its 12 rows need a truncation past 600 levels: oracle:error rows, exit 3
FAILING = ("sweep-temp --n 1000 --t-over-tc-lo 0.5 --t-over-tc-hi 8 --points 12 --delta 1 "
           "--k-incident 100 --method both --out -").split()
SUBCOMMANDS = ("sweep-angle", "sweep-temp", "oracle-compare")
# file name -> content, written to the directory every command runs from
CONFIG_FILES = {
    "sweep.cfg": "# a comment\nn = 500\nt-over-tc = 0.7\ndelta_hi = 6\npoints = 8\nlog = true\n",
    "bogus.cfg": "method = bogus\n",
}
# (label, command line) of the runs that check the option table's every use
OPTION_RUNS = [
    ("sweep-angle-json", "sweep-angle --n 500 --t-over-tc 0.7 --points 5 --method both --format json --out -"),
    ("sweep-temp-json", "sweep-temp --n 500 --delta 1 --t-over-tc-lo 0.5 --t-over-tc-hi 1.2 --points 5 "
                        "--format json --out -"),
    ("config-file-and-flag", "sweep-angle --config sweep.cfg --points 4 --out -"),
    ("invalid-method-in-file", "sweep-angle --t 5 --config bogus.cfg --out -"),
    ("invalid-t-over-tc-nan", "sweep-angle --t-over-tc nan --out -"),
    ("invalid-sweep-temp-without-delta", "sweep-temp --t-over-tc-lo 0.5 --t-over-tc-hi 1.2 --out -"),
]
# (label, command line) of the inputs at the edges of the float range
EXTREME_RUNS = [
    ("tiny-t-sweep-angle", "sweep-angle --n 1000 --t 1e-323 --points 2 --delta-lo 1 --delta-hi 2 --out -"),
    ("tiny-t-sweep-temp", "sweep-temp --n 1000 --t-lo 1e-323 --t-hi 1e-322 --delta 1 --points 2 "
                          "--method both --out -"),
    ("huge-n-oracle", f"sweep-angle --n {10**308} --t 1e-10 --points 2 --delta-lo 1 --delta-hi 2 "
                      "--method oracle --out -"),
    ("huge-t-tiny-delta", "sweep-angle --n 459000 --t 1.1e78 --delta-lo 1e-39 --delta-hi 2e-39 --points 2 "
                          "--k-incident 100 --out -"),
    ("extreme-delta-oracle", "sweep-angle --n 1000 --t-over-tc 0.7 --method both --k-incident 1e6 "
                             "--delta-lo 1e-6 --delta-hi 2e6 --log --points 40 --out -"),
    ("huge-points", "sweep-angle --n 1000 --t-over-tc 0.7 --delta-lo 1 --delta-hi 2 "
                    "--points 99999999999999999999999 --out -"),
    ("huge-t-continuum", "sweep-angle --n 1000 --t 5.5e102 --points 2 --delta-lo 1 --delta-hi 2 --out -"),
]
# (label, command line) of the sweep on f's small-a path
SMALL_A_RUN = ("small-a-sweep-angle", "sweep-angle --n 1000000000000000 --t-over-tc 0.7 --delta-lo 1 --delta-hi 3 "
                                      "--points 8 --out -")


def readme_commands():
    """The argument lists of README.md's CLI commands, writing to stdout."""
    text = (ROOT / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    for line in block.replace("\\\n", " ").splitlines():
        if line and not line.startswith("#"):
            argv = line.split()[1:]
            argv[argv.index("--out") + 1] = "-"
            yield argv


def readme_library():
    """README.md's library block, then a print of the repr of each name it assigns, sorted by name."""
    text = (ROOT / "README.md").read_text()
    block = text.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    names = sorted({target.id for node in ast.walk(ast.parse(block)) if isinstance(node, ast.Assign)
                    for target in node.targets if isinstance(target, ast.Name)})
    return block + "".join(f"print({name!r}, repr({name}))\n" for name in names)


def commands():
    """(label, argv) of every command, in output order."""
    for name in workloads.NAMES:
        for seed in SEEDS:
            yield f"{name}-{seed}", workloads.make(name, seed).argv("-")
    for i, argv in enumerate(readme_commands(), 1):
        yield f"readme-{i}-{argv[0]}", argv
    yield "sweep-temp-failing", FAILING
    yield "help", ["--help"]
    for name in SUBCOMMANDS:
        yield f"help-{name}", [name, "--help"]
    for label, line in OPTION_RUNS + EXTREME_RUNS + [SMALL_A_RUN]:
        yield label, line.split()
    yield "readme-library", ["-c", readme_library()]


def main(argv):
    if len(argv) != 1:
        sys.exit(__doc__)
    # argparse wraps --help at the terminal width, which COLUMNS fixes
    env = dict(os.environ, PYTHONPATH=str(Path(argv[0]).resolve()), COLUMNS="80")
    with tempfile.TemporaryDirectory() as workdir:
        for name, text in CONFIG_FILES.items():
            Path(workdir, name).write_text(text)
        for label, args in commands():
            args = args if label == "readme-library" else ["-m", "trapscatter.cli", *args]
            run = subprocess.run([sys.executable, *args], env=env, cwd=workdir, capture_output=True)
            print(f"{hashlib.sha256(run.stdout + run.stderr).hexdigest()}  {run.returncode}  {label}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
