"""Command line front end.

Exit codes: 0 success, 2 unreadable or malformed input, 3 a computation
failed to converge or overflowed, 4 the operation does not apply to the
given matrix (wrong shape, parity, or class) or a generator request was
infeasible.
"""

from __future__ import annotations

import argparse
import sys

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
from .gen import GeneratorSpec, certify, generate
from .mmio import read_matrix, write_matrix
from .report import (
    _bound_dict,
    _certificate_dict,
    _classification_dict,
    _components_dict,
    _fmt,
    full_analysis,
    render_text,
    to_json,
)


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
    blocks = []
    for part in text.split(","):
        blocks.append(_parse_shape(part.strip()))
    return blocks


def _input_meta(path: str, ctx: Analysis) -> dict:
    suffix = path.rsplit(".", 1)[-1].lower() if "." in path else ""
    return {
        "path": path,
        "format": suffix,
        "shape": [ctx.a.m, ctx.a.n],
        "nnz": int(ctx.support.sum()),
        "real": ctx.a.is_real(),
    }


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w", encoding="ascii") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")


def _cmd_analyze(args) -> int:
    ctx = Analysis(read_matrix(args.path), args.tol, args.max_iter)
    body = full_analysis(ctx, literal_t3=args.literal_t3ii)
    report = {"schema": body["schema"], "input": _input_meta(args.path, ctx)}
    report.update((k, v) for k, v in body.items() if k != "schema")
    _emit(to_json(report) if args.json else render_text(report), args.out)
    return 0


def _cmd_bound(args) -> int:
    a = read_matrix(args.path)
    if args.method == "walk":
        rep = walk_bound(a, args.p, args.r, tol=args.tol)
    elif args.method == "weighted":
        rep = weighted_bound(a, args.r, tol=args.tol)
    elif args.method == "mean":
        rep = mean_bound(a, tol=args.tol)
    elif args.method == "hwh":
        rep = hwh_bound(a, tol=args.tol)
    else:
        rep = schur_upper_bound(a, tol=args.tol)
    if args.json:
        _emit(to_json(_bound_dict(rep)), args.out)
        return 0
    params = " ".join(f"{k}={v}" for k, v in sorted(rep.params.items()))
    extra = f" certificate {_fmt(rep.certificate)}" if rep.certificate is not None else ""
    _emit(
        f"{rep.method}{' ' + params if params else ''}: value {rep.value:.12g} "
        f"sigma {rep.sigma:.12g} gap {rep.gap:.3g} tight {_fmt(rep.tight)}{extra}",
        args.out,
    )
    return 0


def _cmd_classify(args) -> int:
    a = read_matrix(args.path)
    rep = classify(a, args.tol)
    if args.json:
        _emit(to_json(_classification_dict(rep)), args.out)
        return 0
    lam = f" (lambda {_fmt(rep.pseudo_lambda)})" if rep.pseudo_lambda is not None else ""
    lines = [
        f"scalar: yes",
        f"regular: {_fmt(rep.is_regular)}",
        f"pseudo-regular: {_fmt(rep.is_pseudo_regular)}{lam}",
        f"almost-regular: {_fmt(rep.is_almost_regular)}",
    ]
    for k, s in enumerate(rep.per_component):
        lines.append(f"component {k}: regular {_fmt(s.regular)} sigma {s.sigma:.12g}")
    _emit("\n".join(lines), args.out)
    return 0


def _cmd_components(args) -> int:
    ctx = Analysis(read_matrix(args.path), args.tol)
    if args.json:
        _emit(to_json(_components_dict(ctx)), args.out)
        return 0
    dec = ctx.decomposition
    lines = [f"components: {len(dec.components)}"]
    for k, comp in enumerate(dec.components):
        lines.append(
            f"  {k}: rows {list(comp.row_indices)} cols {list(comp.col_indices)}"
        )
    if dec.isolated_rows:
        lines.append(f"isolated rows: {list(dec.isolated_rows)}")
    if dec.isolated_cols:
        lines.append(f"isolated cols: {list(dec.isolated_cols)}")
    _emit("\n".join(lines), args.out)
    return 0


def _cmd_certify(args) -> int:
    a = read_matrix(args.path)
    if args.theorem == "T2":
        cert = certify_theorem2(a, s=args.s, r=args.r if args.r is not None else 0,
                                tol=args.tol)
    elif args.theorem == "T2.1":
        cert = certify_theorem2_1(a, r=args.r if args.r is not None else 1,
                                  s=args.s, tol=args.tol)
    elif args.theorem == "T3":
        cert = certify_theorem3(a, r=args.r if args.r is not None else 2,
                                tol=args.tol, include_literal=args.literal_t3ii)
    elif args.theorem == "T4":
        cert = certify_theorem4(a, tol=args.tol)
    else:
        cert = hwh_equality_certificate(a, tol=args.tol)
    if args.json:
        _emit(to_json(_certificate_dict(cert)), args.out)
        return 0
    lines = [
        f"{cert.theorem}: holds {_fmt(cert.holds)} gap {cert.gap:.3g} "
        f"implied-class {_fmt(cert.implied_class_verified)}"
    ]
    for k, v in sorted(cert.details.items()):
        lines.append(f"  {k}: {_fmt(v)}")
    _emit("\n".join(lines), args.out)
    return 0


def _cmd_gen(args) -> int:
    params: dict = {}
    if args.blocks is not None:
        params["blocks"] = args.blocks
    if args.target_sigma is not None:
        params["target_sigma"] = args.target_sigma
    if args.which is not None:
        params["which"] = args.which
    if args.graph is not None:
        name, _, sizes = args.graph.partition(":")
        params["name"] = name
        if sizes:
            nums = [int(x) for x in sizes.split(",")]
            if name == "complete_bipartite":
                if len(nums) != 2:
                    raise GeneratorError("complete_bipartite takes two sizes, a,b")
                params["a"], params["b"] = nums
            else:
                params["n"] = nums[0]
    spec = GeneratorSpec(kind=args.kind, shape=args.shape, density=args.density,
                         seed=args.seed, params=params)
    matrix = generate(spec)
    write_matrix(args.out, matrix)
    ok = certify(spec, matrix)
    print(f"wrote {matrix.m}x{matrix.n} {args.kind} matrix to {args.out} "
          f"(certified {'ok' if ok else 'FAILED'})")
    return 0 if ok else 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="walkbound",
        description="Walk weight bounds on the largest singular value, "
                    "with regularity classification and equality certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out=True):
        p.add_argument("--tol", type=float, default=1e-8,
                       help="relative comparison tolerance (default 1e-8)")
        p.add_argument("--json", action="store_true", help="emit JSON")
        if out:
            p.add_argument("--out", help="write output to this file instead of stdout")

    p = sub.add_parser("analyze", help="full report for one matrix file")
    p.add_argument("path")
    p.add_argument("--max-iter", type=int, default=10_000)
    p.add_argument("--literal-t3ii", action="store_true",
                   help="also report the literal product-form support gap")
    common(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("bound", help="one lower (or upper) bound")
    p.add_argument("path")
    p.add_argument("--method", required=True,
                   choices=("walk", "weighted", "mean", "hwh", "schur"))
    p.add_argument("--p", type=int, default=3, help="walk bound: higher order")
    p.add_argument("--r", type=int, default=1, help="walk/weighted order")
    common(p)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("classify", help="scalar / regular / pseudo-regular / almost-regular")
    p.add_argument("path")
    common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("components", help="connected components of the support")
    p.add_argument("path")
    common(p)
    p.set_defaults(func=_cmd_components)

    p = sub.add_parser("certify", help="equality certificate for one theorem")
    p.add_argument("path")
    p.add_argument("--theorem", required=True,
                   choices=("T2", "T2.1", "T3", "T4", "HWH"))
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--r", type=int, default=None,
                   help="order parameter; defaults to 0 for T2, 1 for T2.1, 2 for T3")
    p.add_argument("--literal-t3ii", action="store_true")
    common(p)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("gen", help="generate a test matrix and write it to a file")
    p.add_argument("--kind", required=True,
                   choices=("random_nonneg", "random_complex", "regular",
                            "almost_regular", "block_diag", "graph", "paper_example"))
    p.add_argument("--shape", type=_parse_shape, default=(4, 4), metavar="MxN")
    p.add_argument("--density", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--blocks", type=_parse_blocks, metavar="AxB,CxD,...")
    p.add_argument("--target-sigma", type=float, dest="target_sigma")
    p.add_argument("--which", choices=("E1", "C2"), help="named built-in example")
    p.add_argument("--graph", metavar="NAME[:N|:A,B]",
                   help="path:5, cycle:6, complete:4, star:5, complete_bipartite:2,3")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputFormatError, DimensionMismatchError, NonFiniteEntryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, WalkScaleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (PreconditionError, GeneratorError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
