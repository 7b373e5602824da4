"""Hash the CLI's output for a fixed list of commands, to compare two source trees byte for byte.

    python3 tools/output_hashes.py SRC_DIR

runs each command as a cold `python -m trapscatter.cli` with
PYTHONPATH=SRC_DIR and `--out -`, and prints one line per command:

    sha256  exit  label

where sha256 is the digest of everything the command wrote, standard
output then standard error.  The commands are every benchmark workload at
seeds 1-6 (`perfbench/workloads.py`), the CLI commands of README.md, and a
temperature sweep whose hot oracle rows fail (exit 3).  Run it on two trees
and diff the two listings.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402

SEEDS = range(1, 7)
# 8 of its 12 rows need a truncation past 600 levels: oracle:error rows, exit 3
FAILING = ("sweep-temp --n 1000 --t-over-tc-lo 0.5 --t-over-tc-hi 8 --points 12 --delta 1 "
           "--k-incident 100 --method both --out -").split()


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


def main(argv):
    if len(argv) != 1:
        sys.exit(__doc__)
    env = dict(os.environ, PYTHONPATH=str(Path(argv[0]).resolve()))
    for label, args in commands():
        run = subprocess.run([sys.executable, "-m", "trapscatter.cli", *args], env=env, capture_output=True)
        print(f"{hashlib.sha256(run.stdout + run.stderr).hexdigest()}  {run.returncode}  {label}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
