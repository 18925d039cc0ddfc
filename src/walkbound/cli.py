"""Command line front end: arguments, dispatch and exit codes only.

One table, ``_COMMANDS``, gives each command its help line, its
arguments and its handler; a call that names a command uses the
parser of that command alone, and any other call (``--help``, no
command, an unknown one) the parser of every command, each built once
per process, on the first call that needs it.  Each command hands
``_emit`` its result, and ``_emit`` alone has ``report.render``
write it as JSON or text, ends it with a newline and writes it to
stdout or ``--out``.  One table, ``_CHOICES``, gives each
method of ``bound`` and theorem of ``certify`` its library call and the
options it takes; those options and ``gen``'s params are passed on only
when given, so the library's defaults apply, and an option that the
chosen method or theorem does not take is refused.  Exit codes, from
the one table ``_EXIT_CODES``: 0 success, 2 unreadable or malformed
input, a malformed argument or a refused option (argparse prints the
usage), 3 a computation failed to converge or left the float64 range,
4 the operation does not apply to the given matrix (wrong shape,
parity, class or order) or was infeasible (a generator request, or an
array past memory).  A failed command prints one ``error:`` line to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys

import numpy as np

from .analysis import Analysis
from .bounds import hwh_bound, mean_bound, schur_upper_bound, walk_bound, weighted_bound
from .classify import (
    certify_theorem2,
    certify_theorem2_1,
    certify_theorem3,
    certify_theorem4,
    classify,
    hwh_equality_certificate,
)
from .errors import (
    ConvergenceError,
    DimensionMismatchError,
    GeneratorError,
    InputFormatError,
    NonFiniteEntryError,
    PreconditionError,
    WalkScaleError,
)
from .gen import EXAMPLE_LABELS, KINDS, GeneratorSpec, certify, generate
from .mmio import _format, read_matrix, write_matrix
from .report import full_analysis, render


def _parse_shape(text: str) -> tuple[int, int]:
    try:
        m_str, n_str = text.lower().split("x")
        m, n = int(m_str), int(n_str)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected MxN, got {text!r}")
    if m < 1 or n < 1:
        raise argparse.ArgumentTypeError("shape must be positive")
    return m, n


def _parse_blocks(text: str) -> list[tuple[int, int]]:
    return [_parse_shape(part.strip()) for part in text.split(",")]


def _parse_tol(text: str) -> float:
    try:
        tol = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not 0.0 < tol < float("inf"):  # also false for nan
        raise argparse.ArgumentTypeError(f"tolerance must be finite and positive, got {text!r}")
    return tol


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text!r}")
        return value
    return parse


def _parse_graph(text: str) -> dict:
    """The generator params of NAME, NAME:N or complete_bipartite:A,B."""
    name, _, sizes = text.partition(":")
    try:
        nums = [int(x) for x in sizes.split(",")] if sizes else []
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected NAME[:N|:A,B], got {text!r}")
    if name == "complete_bipartite" and nums:
        if len(nums) != 2:
            raise argparse.ArgumentTypeError("complete_bipartite takes two sizes, a,b")
        return {"name": name, "a": nums[0], "b": nums[1]}
    if len(nums) > 1:
        raise argparse.ArgumentTypeError(
            f"{name} takes one size, n; only complete_bipartite takes two")
    return {"name": name, "n": nums[0]} if nums else {"name": name}


def _emit(args, value) -> int:
    """Write ``value`` rendered as JSON under ``--json``, else as text, to
    stdout or to ``--out`` as UTF-8.  The newline is written on its own so
    a large report is not copied."""
    body = render(value, args.json)
    with (contextlib.nullcontext(sys.stdout) if args.out is None
          else open(args.out, "w", encoding="utf-8")) as fh:
        fh.write(body)
        if not body.endswith("\n"):
            fh.write("\n")
    return 0


def _cmd_analyze(args) -> int:
    ctx = Analysis(read_matrix(args.path), args.tol, args.max_iter)
    body = full_analysis(ctx, literal_t3=args.literal_t3ii)
    meta = {"path": args.path, "format": _format(args.path), "shape": [ctx.a.m, ctx.a.n],
            "nnz": int(ctx.support.sum()), "real": ctx.a.is_real()}
    return _emit(args, {"schema": body.pop("schema"), "input": meta, **body})


def _cmd_classify(args) -> int:
    return _emit(args, classify(read_matrix(args.path), args.tol))


def _cmd_components(args) -> int:
    return _emit(args, Analysis(read_matrix(args.path)))


# Each method of ``bound`` and theorem of ``certify``, in --help order:
# its library call, named so that a rebinding of this module's names (a
# tracer) sees the call, and the options it takes.
_CHOICES = {
    "method": {
        "walk": ("walk_bound", "p", "r"),
        "weighted": ("weighted_bound", "r"),
        "mean": ("mean_bound",),
        "hwh": ("hwh_bound",),
        "schur": ("schur_upper_bound",),
    },
    "theorem": {
        "T2": ("certify_theorem2", "r", "s"),
        "T2.1": ("certify_theorem2_1", "r", "s"),
        "T3": ("certify_theorem3", "r", "literal_t3ii"),
        "T4": ("certify_theorem4",),
        "HWH": ("hwh_equality_certificate",),
    },
}
# The one option whose library keyword is not its name.
_KEYWORDS = {"literal_t3ii": "include_literal"}


def _cmd_choice(args) -> int:
    """``bound`` or ``certify``: the chosen call with the options it takes
    that were given; another of the command's options, given, exits 2."""
    table, choice = _CHOICES[args.by], getattr(args, args.by)
    call, *takes = table[choice]
    for name in dict.fromkeys(n for _, *names in table.values() for n in names):
        if name not in takes and getattr(args, name) is not None:
            args.parser.error(f"argument --{name.replace('_', '-')}: "
                              f"not allowed with --{args.by} {choice}")
    given = {_KEYWORDS.get(k, k): v for k, v in _given(args, *takes).items()}
    return _emit(args, globals()[call](read_matrix(args.path), tol=args.tol, **given))


def _given(args, *names) -> dict:
    """The named options that were set; the library applies its defaults to the rest."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _cmd_gen(args) -> int:
    params = {**(args.graph or {}), **_given(args, "blocks", "target_sigma", "which")}
    spec = GeneratorSpec(kind=args.kind, shape=args.shape, density=args.density,
                         seed=args.seed, params=params)
    matrix = generate(spec)
    write_matrix(args.out, matrix)
    ok = certify(spec, matrix)
    print(f"wrote {matrix.m}x{matrix.n} {args.kind} matrix to {args.out} "
          f"(certified {'ok' if ok else 'FAILED'})")
    return 0 if ok else 4


def _common(p, tol=True):
    p.add_argument("path")
    if tol:
        p.add_argument("--tol", type=_parse_tol,
                       help="relative comparison tolerance (default 1e-8)")
    p.add_argument("--json", action="store_true", help="emit JSON")
    p.add_argument("--out", help="write output to this file instead of stdout")


def _analyze_args(p):
    p.add_argument("--max-iter", type=_int_at_least(1))
    p.add_argument("--literal-t3ii", action="store_true",
                   help="also report the literal product-form support gap")
    _common(p)


def _bound_args(p):
    p.add_argument("--method", required=True, choices=tuple(_CHOICES["method"]))
    p.add_argument("--p", type=int, help="walk bound: higher order")
    p.add_argument("--r", type=int, help="walk/weighted order")
    _common(p)
    p.set_defaults(parser=p, by="method")


def _components_args(p):
    _common(p, tol=False)


def _certify_args(p):
    p.add_argument("--theorem", required=True, choices=tuple(_CHOICES["theorem"]))
    p.add_argument("--s", type=int)
    p.add_argument("--r", type=int,
                   help="order parameter; defaults to 0 for T2, 1 for T2.1, 2 for T3")
    p.add_argument("--literal-t3ii", action="store_true", default=None)
    _common(p)
    p.set_defaults(parser=p, by="theorem")


def _gen_args(p):
    p.add_argument("--kind", required=True, choices=KINDS)
    p.add_argument("--shape", type=_parse_shape, default=(4, 4), metavar="MxN")
    p.add_argument("--density", type=float, default=1.0)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--blocks", type=_parse_blocks, metavar="AxB,CxD,...")
    p.add_argument("--target-sigma", type=float, dest="target_sigma")
    p.add_argument("--which", choices=EXAMPLE_LABELS, help="named built-in example")
    p.add_argument("--graph", type=_parse_graph, metavar="NAME[:N|:A,B]",
                   help="path:5, cycle:6, complete:4, star:5, complete_bipartite:2,3")
    p.add_argument("--out", required=True)


# Each command, in --help order: its help line, the function that adds
# its arguments and its handler.
_COMMANDS = {
    "analyze": ("full report for one matrix file", _analyze_args, _cmd_analyze),
    "bound": ("one lower (or upper) bound", _bound_args, _cmd_choice),
    "classify": ("scalar / regular / pseudo-regular / almost-regular", _common, _cmd_classify),
    "components": ("connected components of the support", _components_args, _cmd_components),
    "certify": ("equality certificate for one theorem", _certify_args, _cmd_choice),
    "gen": ("generate a test matrix and write it to a file", _gen_args, _cmd_gen),
}


# Reuse is safe: ``parse_args`` makes a fresh namespace per call,
# ``set_defaults`` fixes only ``func``, ``parser`` and ``by``, and no action
# default is mutable.  A parser holds its handlers, so a ``_cmd_*`` rebound
# after the first call goes unseen; the names the handlers look up at call
# time (``read_matrix``, ``generate``) may be rebound.
@functools.cache
def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of ``command`` alone, or of every command when it is None.

    Either way the top usage line, which an unrecognized argument prints,
    names every command."""
    parser = argparse.ArgumentParser(
        prog="walkbound",
        description="Walk weight bounds on the largest singular value, "
                    "with regularity classification and equality certificates.",
    )
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if command is None else "{%s}" % ",".join(_COMMANDS))
    for name in _COMMANDS if command is None else (command,):
        help_line, add_arguments, handler = _COMMANDS[name]
        p = sub.add_parser(name, help=help_line)
        add_arguments(p)
        p.set_defaults(func=handler)
    return parser


# Looked up in order; a subclass takes its base's code (NotScalarError is a
# PreconditionError, FileNotFoundError an OSError).
_EXIT_CODES = {
    InputFormatError: 2, DimensionMismatchError: 2, NonFiniteEntryError: 2, OSError: 2,
    ConvergenceError: 3, WalkScaleError: 3, FloatingPointError: 3, OverflowError: 3,
    PreconditionError: 4, GeneratorError: 4, MemoryError: 4,
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # Only the named command's parser is built; --help, no command or an
    # unknown one gets every command's.
    args = _build_parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
    try:
        # An overflow fails the command rather than print inf or nan.
        with np.errstate(over="raise", invalid="raise"):
            return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))


if __name__ == "__main__":
    raise SystemExit(main())
