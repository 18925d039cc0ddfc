"""Byte parity of the CLI between two source trees.

    python tools/parity.py BASE_TREE HEAD_TREE

Each tree is the root of a walkbound checkout (it holds ``src/walkbound``).
The ``analyze_small`` and ``analyze_large`` inputs are built once, at seed
101, full size and ``--tiny``, with ``bench/workloads.build`` of HEAD_TREE.
Each tree then runs in one subprocess, with ``PYTHONPATH=<tree>/src`` and
``OPENBLAS_NUM_THREADS=1``, which calls ``walkbound.cli.main`` in-process
for ``analyze --json``, ``components --json`` and ``classify --json`` on
every input and records the exit code, stdout and stderr of each.  Every
(file, command) pair whose three differ is printed, and the exit status is
1 if any does, 0 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SEED = 101
WORKLOADS = ("analyze_small", "analyze_large")
COMMANDS = ("analyze", "components", "classify")

# Runs in each tree's subprocess: argv[1] lists the inputs, one per line,
# and argv[2] receives [command, path, exit code, stdout, stderr] per run.
_RUNNER = """
import contextlib, io, json, sys, warnings
from walkbound.cli import main

warnings.simplefilter("always")
with open(sys.argv[1]) as fh:
    paths = fh.read().splitlines()
runs = []
for path in paths:
    for command in %r:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main([command, path, "--json"])
            except SystemExit as exc:
                code = exc.code
        runs.append([command, path, code, out.getvalue(), err.getvalue()])
with open(sys.argv[2], "w") as fh:
    json.dump(runs, fh)
""" % (COMMANDS,)


def build_inputs(tree: Path, workdir: Path) -> list[str]:
    """The analyze inputs of both workloads, full size and tiny."""
    sys.path[:0] = [str(tree / "src"), str(tree / "bench")]
    from workloads import build

    paths = []
    for tiny in (False, True):
        for workload in WORKLOADS:
            out = workdir / f"{workload}{'-tiny' if tiny else ''}"
            out.mkdir()
            paths += [op.item.path for op in build(workload, SEED, out, tiny=tiny)]
    return paths


def run_tree(tree: Path, listing: Path, result: Path) -> dict:
    """(command, path) -> (exit code, stdout, stderr) under ``tree``'s package."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1")
    subprocess.run([sys.executable, "-c", _RUNNER, str(listing), str(result)],
                   env=env, check=True)
    runs = json.loads(result.read_text())
    return {(command, path): (code, out, err) for command, path, code, out, err in runs}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/parity.py BASE_TREE HEAD_TREE", file=sys.stderr)
        return 2
    base, head = (Path(arg).resolve() for arg in argv)
    with tempfile.TemporaryDirectory() as tmp:
        paths = build_inputs(head, Path(tmp))
        listing = Path(tmp, "inputs.txt")
        listing.write_text("\n".join(paths) + "\n")
        before = run_tree(base, listing, Path(tmp, "base.json"))
        after = run_tree(head, listing, Path(tmp, "head.json"))
        keys = sorted(before.keys() | after.keys())
        differ = [(command, os.path.relpath(path, tmp)) for command, path in keys
                  if before.get((command, path)) != after.get((command, path))]
    for command, name in differ:
        print(f"differs: {command} --json {name}")
    print(f"{len(differ)} of {len(keys)} runs differ "
          f"({len(paths)} inputs x {len(COMMANDS)} commands)")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
