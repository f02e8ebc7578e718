"""Check that two source trees write the same files: every file that the
CLI commands of ``COMMANDS`` write, compared by sha256.

    python tools/same_outputs.py PARENT

PARENT is a directory holding another tree's ``src/``, for example
``mkdir PARENT && git archive HEAD | tar -x -C PARENT``. The commands run
once under PARENT's ``src/`` and once under this checkout's, each tree in
one subprocess (``PYTHONPATH=<tree>/src``, one BLAS thread) in a fresh
temporary directory. The script prints each file whose sha256 differs or
that only one tree wrote, then the number of files compared, and exits 1
if any file differs (2 if a command fails).
"""

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# run in order in one directory; later commands read what earlier ones wrote
COMMANDS = [
    "simulate --n 400 --q 5 --seed 7 --out d5",
    "fit --data d5 --out f5 --epsilon 1e-8 --max-iter 2000",
    "simulate --n 400 --q 40 --seed 7 --out d40",
    "fit --data d40 --out f40 --epsilon 1e-6",
    "simulate --n 60 --q 1 --seed 3 --intercept --out d1",
    "fit --data d1 --out f1",
    "replicate --n 100 --q 5 --replicates 4 --seed 7 --out replicate",
    "sensitivity --n 80 --q 5 --n-values 40,60 --q-values 4,6 --replicates 2 --seed 5"
    " --out sensitivity",
    "resample --data d5 --k 3 --sample-size 150 --seed 2 --out resample",
]

# argv: the tree's src/, then the commands; each runs through factorem.cli.main
_RUNNER = """
import sys
from pathlib import Path
import factorem
from factorem.cli import main
src, *commands = sys.argv[1:]
if not Path(factorem.__file__).resolve().is_relative_to(Path(src).resolve()):
    sys.exit(f"factorem imported from {factorem.__file__}, not {src}")
for command in commands:
    if main(command.split()):
        sys.exit(f"factorem {command} failed")
"""


def hashes(tree: Path, commands: list[str]) -> dict[str, str]:
    """sha256 of every file ``commands`` write under ``tree``'s src/, by
    path relative to their fresh directory."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as work:
        subprocess.run([sys.executable, "-c", _RUNNER, str(tree / "src"), *commands],
                       cwd=work, env=env, check=True, stdout=subprocess.DEVNULL)
        return {path.relative_to(work).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
                for path in sorted(Path(work).rglob("*")) if path.is_file()}


def compare(parent: Path, child: Path, commands: list[str]) -> tuple[list[str], int]:
    """One line per file that differs or that only one tree wrote, in path
    order, and the number of files compared."""
    old, new = hashes(parent, commands), hashes(child, commands)
    names = sorted(old.keys() | new.keys())
    lines = [f"only in the parent: {name}" if name not in new
             else f"only in this checkout: {name}" if name not in old
             else f"differs: {name}"
             for name in names if old.get(name) != new.get(name)]
    return lines, len(names)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="directory holding the parent's src/")
    args = parser.parse_args(argv)
    try:
        lines, count = compare(args.parent, ROOT, COMMANDS)
    except subprocess.CalledProcessError as exc:
        print(f"same_outputs: a tree's commands failed (exit {exc.returncode})", file=sys.stderr)
        return 2
    print(*lines, f"{len(lines)} of {count} files differ", sep="\n")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
