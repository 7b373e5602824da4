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
  file, `--t-over-tc nan`, and `sweep-temp` without `--delta`.

Every command that writes a table writes it to standard output.  Run the
tool on two trees and diff the two listings.
"""

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


def readme_commands():
    """The argument lists of README.md's CLI commands, writing to stdout."""
    text = (ROOT / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    for line in block.replace("\\\n", " ").splitlines():
        if line and not line.startswith("#"):
            argv = line.split()[1:]
            argv[argv.index("--out") + 1] = "-"
            yield argv


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
    for label, line in OPTION_RUNS:
        yield label, line.split()


def main(argv):
    if len(argv) != 1:
        sys.exit(__doc__)
    # argparse wraps --help at the terminal width, which COLUMNS fixes
    env = dict(os.environ, PYTHONPATH=str(Path(argv[0]).resolve()), COLUMNS="80")
    with tempfile.TemporaryDirectory() as workdir:
        for name, text in CONFIG_FILES.items():
            Path(workdir, name).write_text(text)
        for label, args in commands():
            run = subprocess.run([sys.executable, "-m", "trapscatter.cli", *args], env=env, cwd=workdir,
                                 capture_output=True)
            print(f"{hashlib.sha256(run.stdout + run.stderr).hexdigest()}  {run.returncode}  {label}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
