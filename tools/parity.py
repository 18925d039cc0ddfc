"""Byte parity of the CLI between two source trees.

    python tools/parity.py BASE_TREE HEAD_TREE

Each tree is the root of a walkbound checkout (it holds ``src/walkbound``).
The ``analyze_small`` and ``analyze_large`` inputs are built once, at seed
101, full size and ``--tiny``, with ``bench/workloads.build`` of HEAD_TREE,
and eleven inputs of its own (``own_inputs``), most with a basis that
is not the input: -1 times a ``block_diag`` and a circulant
``almost_regular``, 1j times a one-block circulant ``almost_regular``
with a zero row and a zero column added, exp(0.7i) times that
``block_diag`` as a dense ``.csv`` and as a coordinate ``complex
general`` ``.mtx``, -1 and 1j times a 60 x 50 ``random_nonneg``, whose
sigma comes from Lanczos where every other input here goes to LAPACK,
and a coordinate file with
isolated rows and columns and an entry below the zero cutoff that
crosses two components, as it stands and negated, each also as a dense
``.csv`` so that both component searches meet it; and six small seeded
Matrix Market files, one per header variant that the reader expands or
converts: ``array real symmetric``, ``array real skew-symmetric``,
``array complex hermitian``, ``coordinate real symmetric``,
``coordinate pattern general`` and ``coordinate integer general``; and
two zero matrices, a dense ``.csv`` and a coordinate ``.mtx`` whose
stored entries are all explicit zeros, on which every command exits 0
or 4 with one ``error:`` line.
Each tree then runs in one subprocess, with ``PYTHONPATH=<tree>/src`` and
``OPENBLAS_NUM_THREADS=1``, which calls ``walkbound.cli.main`` in-process
for every argument list of ``COMMANDS`` on every input and records the
exit code, stdout and stderr of each.  The lists cover every JSON
command (``analyze``, ``bound``, ``classify``, ``components``,
``certify``) and the text output of each of them, ``certify`` also at
its library's default orders (``T2`` and ``T2.1`` with no ``--r`` or
``--s``), T3's literal support gap (``analyze --literal-t3ii``),
T4's class check (``certify --theorem T4``), the degree-product
bound and its certificate (``bound --method hwh``, ``certify --theorem
HWH``), Schur's upper bound on a context of its own (``bound --method
schur``) and ``analyze --json --tol 1e-4``, whose looser tolerance moves
tightness flags and classes so that the verdicts near their thresholds
are held as well; on the inputs that are not scalar, ``bound --method walk`` and
``classify`` exit 4 with one ``error:`` line, and on those that are not
symmetric and nonnegative both degree-product commands do, and Schur's
on those that are not nonnegative.  So both report writers, the CLI's
output path and its refusals are held to the base.
It also runs ``gen`` for every generator kind (``GEN``), writing a
``.mtx`` and a ``.csv`` file, and records the bytes of the file with
its output, and runs each argument list of ``ONCE`` once: ``--help`` of
``walkbound`` and of each command; no command, an unknown one, a
leading ``--`` and a command with no path, which the parser of every
command answers or which sit at its edge; an option the command does
not have, which the top parser refuses with its usage line; and
options that the chosen method or theorem does not take, refused with
exit 2 and the usage line; and orders below their floor, which the
library refuses under the option's name with exit 4 and one ``error:``
line.
The runs of ``ONCE`` come first: ``walkbound.cli`` builds its one
parser once per process, so every other run goes through a parser that
has already printed help and refused input.
That is inputs x ``len(COMMANDS)`` + ``len(ONCE)`` + ``len(GEN)`` x
``len(SUFFIXES)`` runs, which the last line prints with that
breakdown.  Every (file, command) pair whose records differ is printed,
and the exit status is 1 if any does, 0 otherwise.
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
# One argument list per command run on every input; the input path goes
# after the subcommand.
COMMANDS = (
    ("analyze", "--json"),
    ("analyze",),
    ("components", "--json"),
    ("classify", "--json"),
    ("bound", "--method", "weighted", "--r", "2", "--json"),
    ("certify", "--theorem", "T3", "--json"),
    ("bound", "--method", "walk", "--p", "5", "--r", "3"),
    ("classify",),
    ("components",),
    ("certify", "--theorem", "T2.1"),
    ("certify", "--theorem", "T2", "--json"),
    ("analyze", "--json", "--literal-t3ii"),
    ("certify", "--theorem", "T4", "--json"),
    ("bound", "--method", "hwh", "--json"),
    ("certify", "--theorem", "HWH", "--json"),
    ("bound", "--method", "schur", "--json"),
    ("analyze", "--json", "--tol", "1e-4"),
)
# Argument lists run once rather than per input; PATH stands for the
# first input.
ONCE = (
    ("--help",),
    (),
    ("nope",),
    ("analyze",),
    ("--", "analyze", "PATH"),
    ("components", "PATH", "--tol", "0.1"),
    *((command, "--help")
      for command in ("analyze", "bound", "classify", "components", "certify", "gen")),
    ("bound", "PATH", "--method", "mean", "--r", "2"),
    ("bound", "PATH", "--method", "weighted", "--p", "3"),
    ("bound", "PATH", "--method", "hwh", "--p", "3", "--r", "1"),
    ("bound", "PATH", "--method", "nope"),
    ("certify", "PATH", "--theorem", "T4", "--s", "1"),
    ("certify", "PATH", "--theorem", "T2", "--literal-t3ii"),
    ("certify", "PATH", "--theorem", "T3", "--s", "5"),
    ("certify", "PATH", "--theorem", "HWH", "--r", "1", "--s", "1", "--literal-t3ii"),
    ("bound", "PATH", "--method", "weighted", "--r", "0"),
    ("certify", "PATH", "--theorem", "T2", "--s", "0"),
    ("certify", "PATH", "--theorem", "T2", "--r", "-1"),
    ("certify", "PATH", "--theorem", "T2.1", "--r", "0"),
    ("certify", "PATH", "--theorem", "T3", "--r", "0"),
)
# One ``walkbound gen`` argument list per case; every kind appears.
GEN = (
    ("random_nonneg", "--shape", "7x5", "--density", "0.6", "--seed", "3"),
    ("random_complex", "--shape", "4x6", "--seed", "4"),
    ("regular", "--shape", "6x3", "--seed", "5"),
    ("almost_regular", "--blocks", "2x3,2x2", "--target-sigma", "5"),
    ("block_diag", "--blocks", "3x3,2x4", "--density", "0.7", "--seed", "6"),
    ("graph", "--graph", "complete_bipartite:2,3"),
    ("graph", "--graph", "cycle:6"),
    ("paper_example", "--which", "E1"),
    ("paper_example", "--which", "C2"),
)
SUFFIXES = (".mtx", ".csv")

# Runs in each tree's subprocess: argv[1] lists the inputs, one per line,
# argv[2] receives [command line, path, exit code, stdout, stderr] per
# run, and argv[3] is an empty directory for the files ``gen`` writes.  A
# gen run's path is its case number and suffix, and its stdout, with
# argv[3] written as "OUT", is followed by the file's bytes.  A run of
# ``ONCE`` has the path "once".
_RUNNER = """
import contextlib, io, json, os, pathlib, sys, warnings
from walkbound.cli import main

def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()

warnings.simplefilter("always")
with open(sys.argv[1]) as fh:
    paths = fh.read().splitlines()
runs = []
for args in %r:
    runs.append([" ".join(args), "once",
                 *run([paths[0] if arg == "PATH" else arg for arg in args])])
for path in paths:
    for command, *args in %r:
        runs.append([" ".join([command, *args]), path, *run([command, path, *args])])
gen_dir = sys.argv[3]
for k, args in enumerate(%r):
    for suffix in %r:
        target = os.path.join(gen_dir, f"{k}{suffix}")
        code, out, err = run(["gen", "--kind", *args, "--out", target])
        written = pathlib.Path(target).read_text() if os.path.exists(target) else None
        runs.append(["gen", f"{k}{suffix}", code,
                     [out.replace(gen_dir, "OUT"), written], err])
with open(sys.argv[2], "w") as fh:
    json.dump(runs, fh)
""" % (ONCE, COMMANDS, GEN, SUFFIXES)


# A coordinate file of two components, one regular, with rows 2 and 6
# and columns 3, 5 and 7 isolated and an entry below the zero cutoff in
# the first component's row and the second's column.
_FAINT_ENTRIES = ((1, 1, 1.0), (1, 2, 2.0), (3, 1, 2.0), (3, 2, 1.0),
                  (4, 4, 1.0), (4, 6, 1.0), (5, 4, 2.0), (5, 6, 0.5), (1, 6, 1e-14))


def _header_variants() -> dict[str, list[str]]:
    """The lines of one small seeded file per Matrix Market header that the
    reader expands or converts: symmetric, skew-symmetric and hermitian
    array storage (the lower triangle, column major, without the diagonal
    when skew) and symmetric, pattern and integer coordinate files."""
    import numpy as np

    rng = np.random.default_rng(SEED)
    n = 5
    lower = [(i, j) for j in range(n) for i in range(j, n)]
    strict = [(i, j) for i, j in lower if i > j]

    def array(field, symmetry, values):
        return [f"%%MatrixMarket matrix array {field} {symmetry}", f"{n} {n}", *values]

    def coordinate(field, symmetry, shape, entries):
        return [f"%%MatrixMarket matrix coordinate {field} {symmetry}",
                f"{shape[0]} {shape[1]} {len(entries)}", *entries]

    def pick(pairs, p):  # 1-based indices of a seeded share p of pairs
        return [(i + 1, j + 1) for i, j in pairs if rng.random() < p]

    full = [(i, j) for j in range(7) for i in range(6)]
    return {
        "array_symmetric.mtx": array(
            "real", "symmetric", map(repr, rng.standard_normal(len(lower)).tolist())),
        "array_skew.mtx": array(
            "real", "skew-symmetric", map(repr, rng.standard_normal(len(strict)).tolist())),
        "array_hermitian.mtx": array("complex", "hermitian", [
            f"{x!r} {0.0 if i == j else y!r}"
            for (i, j), (x, y) in zip(lower, rng.standard_normal((len(lower), 2)).tolist())]),
        "coordinate_symmetric.mtx": coordinate("real", "symmetric", (6, 6), [
            f"{i} {j} {rng.uniform(0.5, 2.0)!r}"
            for i, j in pick([(i, j) for j in range(6) for i in range(j, 6)], 0.5)]),
        "coordinate_pattern.mtx": coordinate(
            "pattern", "general", (6, 7), [f"{i} {j}" for i, j in pick(full, 0.3)]),
        "coordinate_integer.mtx": coordinate("integer", "general", (6, 7), [
            f"{i} {j} {rng.choice([-3, -2, -1, 1, 2, 3])}" for i, j in pick(full, 0.3)]),
    }


def own_inputs(workdir: Path) -> list[str]:
    """Seeded scalar inputs, most not nonnegative, one file per Matrix
    Market header variant (``_header_variants``) and two zero matrices.
    The basis, the nonnegative part, is the input on every benchmark
    input and not on the negated, rotated and imaginary ones here, so
    parity also holds the basis's cut, its component sigmas and the rule
    that gives a single component its matrix's sigma; the faint inputs,
    each as a coordinate ``.mtx`` and a dense ``.csv``, hold both
    component searches on isolated rows and columns and an entry below
    the zero cutoff; the header variants hold the reader's expansion
    of each header to the base; and the zero matrices hold the refusals
    that no other input meets (of certificates, of classification and of
    the degree-product bound, and ``analyze``'s notes on them)."""
    import numpy as np
    from walkbound import GeneratorSpec, generate
    from walkbound.core import DenseMatrix
    from walkbound.mmio import write_matrix

    blocks = generate(GeneratorSpec("block_diag", density=0.8, seed=6,
                                    params={"blocks": [(3, 3), (2, 4), (4, 2)]})).data

    def circulant(shapes):
        return generate(GeneratorSpec("almost_regular", density=0.7, seed=7, params={
            "blocks": shapes, "style": "circulant", "target_sigma": 3.0})).data

    # One component that holds every nonzero entry but leaves out a zero
    # row and a zero column.
    one_block = np.pad(circulant([(3, 6)]), ((0, 1), (1, 0)))
    # Above 48 per side: the Lanczos route.
    lanczos = generate(GeneratorSpec("random_nonneg", (60, 50), seed=8)).data
    faint = np.zeros((6, 7))
    for i, j, v in _FAINT_ENTRIES:
        faint[i - 1, j - 1] = v
    dense = {"neg_block_diag.mtx": -blocks, "neg_circulant.csv": -circulant([(4, 4), (3, 6)]),
             "i_circulant.mtx": 1j * one_block, "rotated_block_diag.csv": np.exp(0.7j) * blocks,
             "neg_lanczos.mtx": -lanczos, "i_lanczos.csv": 1j * lanczos,
             "faint.csv": faint, "neg_faint.csv": -faint, "zero.csv": np.zeros((3, 3))}
    out = workdir / "own"
    out.mkdir()
    paths = []
    for name, values in dense.items():
        write_matrix(out / name, DenseMatrix(values))
        paths.append(str(out / name))
    texts = {name: ["%%MatrixMarket matrix coordinate real general",
                    f"6 7 {len(_FAINT_ENTRIES)}",
                    *(f"{i} {j} {sign * v!r}" for i, j, v in _FAINT_ENTRIES)]
             for name, sign in (("faint.mtx", 1.0), ("neg_faint.mtx", -1.0))}
    # The rotated blocks again in CSR storage, so that the basis is searched
    # and cut by pairs under a phase off the axes.
    rows, cols = np.nonzero(blocks)
    texts["rotated_block_diag.mtx"] = [
        "%%MatrixMarket matrix coordinate complex general",
        f"{blocks.shape[0]} {blocks.shape[1]} {rows.size}",
        *(f"{i + 1} {j + 1} {z.real!r} {z.imag!r}"
          for i, j, z in zip(rows.tolist(), cols.tolist(),
                             (np.exp(0.7j) * blocks[rows, cols]).tolist()))]
    texts["explicit_zeros.mtx"] = ["%%MatrixMarket matrix coordinate real general", "4 4 3",
                                   "1 1 0.0", "2 3 0.0", "4 2 0.0"]
    for name, lines in {**texts, **_header_variants()}.items():
        (out / name).write_text("\n".join(lines) + "\n")
        paths.append(str(out / name))
    return paths


def build_inputs(tree: Path, workdir: Path) -> list[str]:
    """The analyze inputs of both workloads, full size and tiny, and
    ``own_inputs``."""
    sys.path[:0] = [str(tree / "src"), str(tree / "bench")]
    from workloads import build

    paths = []
    for tiny in (False, True):
        for workload in WORKLOADS:
            out = workdir / f"{workload}{'-tiny' if tiny else ''}"
            out.mkdir()
            paths += [op.item.path for op in build(workload, SEED, out, tiny=tiny)]
    return paths + own_inputs(workdir)


def run_tree(tree: Path, listing: Path, result: Path) -> dict:
    """(command, path) -> (exit code, stdout, stderr) under ``tree``'s package."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1")
    gen_dir = result.with_suffix("")
    gen_dir.mkdir()
    subprocess.run([sys.executable, "-c", _RUNNER, str(listing), str(result), str(gen_dir)],
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
        differ = [(command, path if command == "gen" or path == "once"
                   else os.path.relpath(path, tmp))
                  for command, path in keys
                  if before.get((command, path)) != after.get((command, path))]
    for command, name in differ:
        print(f"differs: {command} case {name}" if command == "gen"
              else f"differs: {command}" if name == "once"
              else f"differs: {command} {name}")
    print(f"{len(differ)} of {len(keys)} runs differ ({len(paths)} inputs x "
          f"{len(COMMANDS)} commands, {len(ONCE)} runs once, "
          f"{len(GEN)} gen cases x {len(SUFFIXES)} formats)")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
