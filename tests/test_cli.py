import argparse
import ast
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from walkbound import (
    ConvergenceError,
    DenseMatrix,
    DimensionMismatchError,
    GeneratorError,
    InputFormatError,
    NonFiniteEntryError,
    NotScalarError,
    PreconditionError,
    WalkScaleError,
    cli,
    write_matrix,
)
from walkbound.cli import main


@pytest.fixture
def e1_file(tmp_path, e1):
    path = tmp_path / "e1.mtx"
    write_matrix(path, e1)
    return str(path)


@pytest.fixture
def c2_file(tmp_path, c2):
    path = tmp_path / "c2.csv"
    write_matrix(path, c2)
    return str(path)


def test_analyze_text(e1_file, capsys):
    assert main(["analyze", e1_file]) == 0
    out = capsys.readouterr().out
    assert "sigma: 2" in out
    assert "pseudo-regular yes" in out


def test_analyze_json_deterministic(e1_file, tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["analyze", e1_file, "--json", "--out", str(out1)]) == 0
    assert main(["analyze", e1_file, "--json", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    body = json.loads(out1.read_text())
    assert body["schema"] == 1
    assert body["input"]["shape"] == [3, 4]
    assert body["sigma"]["value"] == pytest.approx(2.0, abs=1e-10)


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_non_ascii_path_reaches_stdout_and_out(tmp_path, e1, capsys, flags):
    path = tmp_path / "\u00e9.csv"
    write_matrix(path, e1)
    assert main(["analyze", str(path), *flags]) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "r.txt"
    assert main(["analyze", str(path), *flags, "--out", str(out)]) == 0
    assert capsys.readouterr() == ("", "")
    assert out.read_bytes() == printed.encode("utf-8")
    if flags:  # JSON escapes every non-ASCII character
        assert printed.isascii()
        assert json.loads(printed)["input"]["path"] == str(path)
    else:
        assert printed.startswith(f"input: {path} (3x4, csv)\n")


def test_bound_subcommand(e1_file, capsys):
    assert main(["bound", e1_file, "--method", "walk", "--p", "5", "--r", "3"]) == 0
    out = capsys.readouterr().out
    assert "tight yes" in out


def test_bound_json(e1_file, capsys):
    assert main(["bound", e1_file, "--method", "mean", "--json"]) == 0
    body = json.loads(capsys.readouterr().out)
    assert body["method"] == "mean"
    assert body["tight"] is False


def test_classify_subcommand(e1_file, capsys):
    assert main(["classify", e1_file]) == 0
    out = capsys.readouterr().out
    assert "pseudo-regular: yes (lambda 4)" in out
    assert "almost-regular: no" in out


def test_components_subcommand(tmp_path, capsys):
    a = DenseMatrix([[1.0, 0.0], [0.0, 2.0]])
    path = tmp_path / "d.mtx"
    write_matrix(path, a)
    assert main(["components", str(path), "--json"]) == 0
    body = json.loads(capsys.readouterr().out)
    assert body["count"] == 2


def test_components_text_lists_isolated_rows_and_cols(tmp_path, capsys):
    a = DenseMatrix([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
    path = tmp_path / "iso.mtx"
    write_matrix(path, a)
    assert main(["components", str(path)]) == 0
    assert capsys.readouterr().out == (
        "components: 2\n"
        "  0: rows [0] cols [0]\n"
        "  1: rows [2] cols [2]\n"
        "isolated rows: [1]\n"
        "isolated cols: [1]\n"
    )


def _json_out(argv, capsys):
    assert main(argv + ["--json"]) == 0
    return json.loads(capsys.readouterr().out)


def test_components_json_is_the_analyze_components(tmp_path, capsys):
    # Two blocks and an isolated row.
    a = DenseMatrix([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 2.0], [0.0, 0.0, 0.0]])
    path = str(tmp_path / "b.mtx")
    write_matrix(path, a)
    body = _json_out(["components", path], capsys)
    assert body == _json_out(["analyze", path], capsys)["components"]
    assert body["isolated_rows"] == [3]
    assert [c["shape"] for c in body["components"]] == [[2, 2], [1, 1]]


def test_classify_json_is_the_analyze_classification(e1_file, capsys):
    body = _json_out(["classify", e1_file], capsys)
    expected = _json_out(["analyze", e1_file], capsys)["classification"]
    assert expected.pop("error") is None
    assert body == expected


def test_certify_subcommand(e1_file, capsys):
    assert main(["certify", e1_file, "--theorem", "T2"]) == 0
    out = capsys.readouterr().out
    assert "T2: holds yes" in out


def test_certify_t3_default_even_order(e1_file, capsys):
    assert main(["certify", e1_file, "--theorem", "T3", "--json"]) == 0
    body = json.loads(capsys.readouterr().out)
    assert body["details"]["r"] == 2


# An order left unset takes the library's default; T3 has no s.
@pytest.mark.parametrize("theorem, flags, orders", [
    ("T2", [], {"r": 0, "s": 1}),
    ("T2.1", [], {"r": 1, "s": 1}),
    ("T2", ["--r", "2", "--s", "3"], {"r": 2, "s": 3}),
    ("T2.1", ["--s", "2"], {"r": 1, "s": 2}),
    ("T3", ["--r", "4"], {"r": 4}),
])
def test_certify_orders_default_to_the_library(e1_file, capsys, theorem, flags, orders):
    assert main(["certify", e1_file, "--theorem", theorem, *flags, "--json"]) == 0
    details = json.loads(capsys.readouterr().out)["details"]
    assert {k: details[k] for k in orders} == orders
    assert ("s" in details) == ("s" in orders)


# An order below its floor is refused by the library, under the option's
# name, with exit 4 and one error line.
@pytest.mark.parametrize("args, message", [
    (["bound", "--method", "weighted", "--r", "0"], "r must be at least 1, got 0"),
    (["certify", "--theorem", "T2", "--s", "0"], "s must be at least 1, got 0"),
    (["certify", "--theorem", "T2", "--r", "-1"], "r must be at least 0, got -1"),
    (["certify", "--theorem", "T2.1", "--r", "0"], "r must be at least 1, got 0"),
    (["certify", "--theorem", "T3", "--r", "0"], "r must be at least 1, got 0"),
])
def test_order_below_its_floor_exits_4(e1_file, capsys, args, message):
    command, *options = args
    assert main([command, e1_file, *options]) == 4
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_gen_subcommand(tmp_path, capsys):
    out = tmp_path / "g.mtx"
    rc = main([
        "gen", "--kind", "regular", "--shape", "4x4", "--seed", "7",
        "--out", str(out),
    ])
    assert rc == 0
    assert out.exists()
    assert "certified ok" in capsys.readouterr().out


def test_gen_graph_shorthand(tmp_path):
    out = tmp_path / "g.mtx"
    rc = main(["gen", "--kind", "graph", "--graph", "path:3", "--out", str(out)])
    assert rc == 0
    from walkbound import read_matrix

    assert read_matrix(out).shape == (3, 3)


@pytest.mark.parametrize("argv, spec", [
    (["--kind", "almost_regular", "--blocks", "2x2,1x3", "--target-sigma", "3"],
     {"kind": "almost_regular", "params": {"blocks": [(2, 2), (1, 3)], "target_sigma": 3.0}}),
    (["--kind", "paper_example", "--which", "C2"],
     {"kind": "paper_example", "params": {"which": "C2"}}),
    (["--kind", "graph", "--graph", "complete_bipartite:2,3"],
     {"kind": "graph", "params": {"name": "complete_bipartite", "a": 2, "b": 3}}),
])
def test_gen_options_reach_the_generator(tmp_path, capsys, argv, spec):
    from walkbound import GeneratorSpec, generate, read_matrix

    out = tmp_path / "g.mtx"
    assert main(["gen", *argv, "--out", str(out)]) == 0
    assert "certified ok" in capsys.readouterr().out
    assert read_matrix(out) == generate(GeneratorSpec(**spec))


def _assert_usage_error(argv, capsys, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: walkbound ") and err.count("usage:") == 1
    assert "Traceback" not in err
    assert err.splitlines()[-1].endswith(message)


@pytest.mark.parametrize("command", ["analyze", "classify"])
@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_tol_must_be_finite_and_positive(e1_file, capsys, command, tol):
    _assert_usage_error([command, e1_file, "--tol", tol], capsys,
                        f"error: argument --tol: tolerance must be finite and positive, got {tol!r}")


@pytest.fixture
def near_regular_file(tmp_path):
    # Row sums 2 and 2.0000001: not regular at the default 1e-8, regular at 1e-6.
    path = tmp_path / "near.csv"
    path.write_text("1,1\n1,1.0000001\n")
    return str(path)


@pytest.mark.parametrize("flags, verdict", [([], "no"), (["--tol", "1e-6"], "yes")])
def test_tol_reaches_classify(near_regular_file, capsys, flags, verdict):
    assert main(["classify", near_regular_file, *flags]) == 0
    assert f"\nregular: {verdict}\n" in capsys.readouterr().out


def test_tol_reaches_the_report(near_regular_file, capsys):
    body = _json_out(["analyze", near_regular_file, "--tol", "1e-6"], capsys)
    assert body["tolerances"] == {"tol": 1e-06, "max_iter": 10_000}


def test_tol_must_be_a_number(near_regular_file, capsys):
    _assert_usage_error(["classify", near_regular_file, "--tol", "abc"], capsys,
                        "error: argument --tol: expected a number, got 'abc'")


@pytest.mark.parametrize("shape, message", [
    ("3x", "expected MxN, got '3x'"),
    ("0x3", "shape must be positive"),
])
def test_bad_shape_is_a_usage_error(tmp_path, capsys, shape, message):
    out = tmp_path / "g.mtx"
    _assert_usage_error(["gen", "--kind", "random_nonneg", "--shape", shape, "--out", str(out)],
                        capsys, f"error: argument --shape: {message}")
    assert not out.exists()


@pytest.mark.parametrize("graph, message", [
    ("path:x", "expected NAME[:N|:A,B], got 'path:x'"),
    ("complete_bipartite:2,x", "expected NAME[:N|:A,B], got 'complete_bipartite:2,x'"),
    ("complete_bipartite:2", "complete_bipartite takes two sizes, a,b"),
    ("path:3,4", "path takes one size, n; only complete_bipartite takes two"),
    # A colon asks for sizes, even when none follow it.
    ("path:", "expected NAME[:N|:A,B], got 'path:'"),
    ("complete_bipartite:", "expected NAME[:N|:A,B], got 'complete_bipartite:'"),
])
def test_malformed_graph_is_a_usage_error(tmp_path, capsys, graph, message):
    out = tmp_path / "g.mtx"
    _assert_usage_error(["gen", "--kind", "graph", "--graph", graph, "--out", str(out)],
                        capsys, f"error: argument --graph: {message}")
    assert not out.exists()


@pytest.mark.parametrize("seed, message", [
    ("-1", "must be at least 0, got '-1'"),
    ("1.5", "expected an integer, got '1.5'"),
])
def test_bad_seed_is_a_usage_error(tmp_path, capsys, seed, message):
    out = tmp_path / "g.mtx"
    _assert_usage_error(["gen", "--kind", "random_nonneg", "--seed", seed, "--out", str(out)],
                        capsys, f"error: argument --seed: {message}")
    assert not out.exists()


@pytest.mark.parametrize("max_iter, message", [
    ("0", "must be at least 1, got '0'"),
    ("-3", "must be at least 1, got '-3'"),
    ("x", "expected an integer, got 'x'"),
])
def test_bad_max_iter_is_a_usage_error(e1_file, capsys, max_iter, message):
    _assert_usage_error(["analyze", e1_file, "--max-iter", max_iter], capsys,
                        f"error: argument --max-iter: {message}")


def test_components_takes_no_tol(e1_file, capsys):
    # The support cutoff and the component solves use no tolerance.
    _assert_usage_error(["components", e1_file, "--tol", "0.1"], capsys,
                        "error: unrecognized arguments: --tol 0.1")


# An option that the chosen theorem or method does not take is refused,
# not ignored.
@pytest.mark.parametrize("argv, message", [
    (["certify", "--theorem", "T3", "--s", "5"], "argument --s: not allowed with --theorem T3"),
    (["certify", "--theorem", "T4", "--r", "7", "--s", "3"],
     "argument --r: not allowed with --theorem T4"),
    (["certify", "--theorem", "T2", "--literal-t3ii"],
     "argument --literal-t3ii: not allowed with --theorem T2"),
    (["certify", "--theorem", "HWH", "--s", "1"], "argument --s: not allowed with --theorem HWH"),
    (["bound", "--method", "mean", "--p", "9", "--r", "4"],
     "argument --p: not allowed with --method mean"),
    (["bound", "--method", "weighted", "--p", "5"],
     "argument --p: not allowed with --method weighted"),
    (["bound", "--method", "schur", "--r", "1"], "argument --r: not allowed with --method schur"),
    (["bound", "--method", "hwh", "--r", "0"], "argument --r: not allowed with --method hwh"),
])
def test_an_option_the_choice_does_not_take_is_a_usage_error(e1_file, capsys, argv, message):
    _assert_usage_error([argv[0], e1_file, *argv[1:]], capsys, f"error: {message}")


@pytest.mark.parametrize("argv, params", [
    (["--method", "walk"], {"p": 3, "r": 1}),
    (["--method", "walk", "--p", "5"], {"p": 5, "r": 1}),
    (["--method", "walk", "--r", "3", "--p", "7"], {"p": 7, "r": 3}),
    (["--method", "weighted"], {"r": 1}),
    (["--method", "weighted", "--r", "2"], {"r": 2}),
])
def test_bound_orders_default_to_walk_3_1(e1_file, capsys, argv, params):
    assert _json_out(["bound", e1_file, *argv], capsys)["params"] == params


@pytest.mark.parametrize("target", ["nan", "inf", "-2"])
def test_bad_target_sigma_exits_4(tmp_path, capsys, target):
    out = tmp_path / "g.mtx"
    assert main(["gen", "--kind", "almost_regular", "--target-sigma", target,
                 "--out", str(out)]) == 4
    assert capsys.readouterr().err == "error: target_sigma must be finite and positive\n"
    assert not out.exists()


@pytest.mark.parametrize("graph, message", [
    ("complete_bipartite:-1,3", "graph size a must be a non-negative integer, got -1"),
    ("complete_bipartite:2,-1", "graph size b must be a non-negative integer, got -1"),
    ("complete_bipartite:0,0", "graph needs at least one vertex"),
    ("path:-2", "graph size n must be a non-negative integer, got -2"),
])
def test_impossible_graph_sizes_exit_4(tmp_path, capsys, graph, message):
    out = tmp_path / "g.csv"
    assert main(["gen", "--kind", "graph", "--graph", graph, "--out", str(out)]) == 4
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


# Every class of the exit-code table with its documented code, subclasses
# included.
@pytest.mark.parametrize("error, code", [
    (InputFormatError("bad file"), 2),
    (DimensionMismatchError("bad shape"), 2),
    (NonFiniteEntryError("bad entry"), 2),
    (OSError("no disk"), 2),
    (FileNotFoundError("no file"), 2),
    (ConvergenceError("no convergence"), 3),
    (WalkScaleError("too large"), 3),
    (FloatingPointError("overflow"), 3),
    (OverflowError("too long"), 3),
    (PreconditionError("does not apply"), 4),
    (NotScalarError("not scalar"), 4),
    (GeneratorError("infeasible"), 4),
])
def test_each_error_class_has_its_exit_code(e1_file, capsys, monkeypatch, error, code):
    def refuse(path):
        raise error

    monkeypatch.setattr(cli, "read_matrix", refuse)
    assert main(["classify", e1_file]) == code
    assert capsys.readouterr() == ("", f"error: {error}\n")


# A param that the kind does not read is refused, not dropped.
@pytest.mark.parametrize("argv, message", [
    (["--kind", "random_nonneg", "--target-sigma", "nan"],
     "random_nonneg takes no params, not target_sigma"),
    (["--kind", "regular", "--which", "E1"], "regular takes no params, not which"),
    (["--kind", "paper_example", "--blocks", "2x2"], "paper_example takes which, not blocks"),
    (["--kind", "almost_regular", "--graph", "path:3"],
     "almost_regular takes blocks, target_sigma, style, not n, name"),
])
def test_gen_refuses_a_param_its_kind_does_not_take(tmp_path, capsys, argv, message):
    out = tmp_path / "g.mtx"
    assert main(["gen", *argv, "--out", str(out)]) == 4
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


def test_gen_past_memory_exits_4(tmp_path, capsys, monkeypatch):
    # numpy's own allocation failure is a MemoryError subclass; no large
    # array is allocated here.
    def refuse(spec):
        raise MemoryError("Unable to allocate 74.5 GiB for an array")

    monkeypatch.setattr(cli, "generate", refuse)
    out = tmp_path / "x.mtx"
    argv = ["gen", "--kind", "random_nonneg", "--shape", "100000x100000", "--out", str(out)]
    assert main(argv) == 4
    assert capsys.readouterr() == ("", "error: Unable to allocate 74.5 GiB for an array\n")
    assert not out.exists()


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_out_into_a_missing_directory_exits_2(e1_file, tmp_path, capsys, flags):
    out = tmp_path / "missing" / "r.txt"
    assert main(["analyze", e1_file, *flags, "--out", str(out)]) == 2
    assert capsys.readouterr() == (
        "", f"error: [Errno 2] No such file or directory: {str(out)!r}\n")


def test_missing_file_exits_2(capsys):
    assert main(["analyze", "/nope/missing.mtx"]) == 2
    assert "error:" in capsys.readouterr().err


def test_bad_content_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("1,zebra\n")
    assert main(["analyze", str(path)]) == 2


def test_csv_that_is_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"1,\xff\n")
    assert main(["analyze", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: not UTF-8 text\n"


def test_walk_on_non_scalar_exits_4(c2_file, capsys):
    assert main(["bound", c2_file, "--method", "walk"]) == 4
    assert "scalar" in capsys.readouterr().err


def test_infeasible_gen_exits_4(tmp_path, capsys):
    rc = main([
        "gen", "--kind", "regular", "--shape", "2x4", "--seed", "0",
        "--out", str(tmp_path / "x.mtx"),
    ])
    assert rc == 0  # plain regular with no sum constraints is feasible

    # Unknown graph name travels through the generator error path.
    rc = main([
        "gen", "--kind", "graph", "--graph", "hypercube:3",
        "--out", str(tmp_path / "y.mtx"),
    ])
    assert rc == 4


_EVERY_SUBCOMMAND = (
    [["analyze"], ["analyze", "--json"]]
    + [["bound", "--method", m, "--json"] for m in ("walk", "weighted", "mean", "hwh", "schur")]
    + [["bound", "--method", "weighted", "--r", "2", "--json"], ["bound", "--method", "schur"],
       ["classify", "--json"], ["components", "--json"]]
    + [["certify", "--theorem", t, "--json"] for t in ("T2", "T2.1", "T3", "T4", "HWH")]
)


@pytest.mark.parametrize("symmetric", [False, True])
def test_overflowing_input_exits_with_one_error_line(tmp_path, capsys, symmetric):
    # Scaled by 1e200, sums and walk weights of this 13x13 would pass the
    # float64 range; on the input over 2^e they do not, so every
    # subcommand answers.  Only the degree-product bound and certificate
    # refuse a matrix that is not symmetric, with exit 4 and one error
    # line: no traceback, no numpy warning.
    x = np.random.default_rng(13).uniform(size=(13, 13))
    path = tmp_path / "big.csv"
    write_matrix(path, DenseMatrix(1e200 * (x + x.T if symmetric else x)))
    for argv in _EVERY_SUBCOMMAND:
        rc = main([argv[0], str(path), *argv[1:]])
        err = capsys.readouterr().err
        refused = not symmetric and ("hwh" in argv or "HWH" in argv)
        assert rc == (4 if refused else 0), argv
        assert "Traceback" not in err and "Warning" not in err, argv
        if rc:
            assert err.startswith("error: ") and err.count("\n") == 1, argv


def test_the_first_call_builds_every_command_once(e1_file, capsys, monkeypatch):
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def recorded(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", recorded)
    cli._build_parser.cache_clear()
    assert main(["classify", e1_file]) == 0
    assert built == list(cli._COMMANDS)
    # The parser is built once per process and then reused.
    built.clear()
    with pytest.raises(SystemExit):
        main(["--help"])
    assert main(["analyze", e1_file]) == 0
    assert main(["classify", e1_file]) == 0
    assert built == []


def test_a_reused_parser_carries_nothing_between_calls(e1_file, capsys):
    def run(*argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        return code, out, err

    # The refusals come first on a fresh parser and again on one that has
    # since parsed, refused and printed help.
    mean_r = ("bound", e1_file, "--method", "mean", "--r", "2")
    t4_s = ("certify", e1_file, "--theorem", "T4", "--s", "1")
    cli._build_parser.cache_clear()
    first = run("analyze", e1_file, "--json")
    assert first[0] == 0
    refused = run(*mean_r)
    assert refused[0] == 2 and "not allowed with --method mean" in refused[2]
    assert run("--help")[0] == 0
    t4_refused = run(*t4_s)
    assert t4_refused[0] == 2
    assert run("bound", e1_file, "--method", "walk", "--p", "5", "--json")[0] == 0
    code, out, _ = run("bound", e1_file, "--method", "walk", "--json")
    assert (code, json.loads(out)["params"]["p"]) == (0, 3)
    assert run(*mean_r) == refused
    assert run(*t4_s) == t4_refused
    assert run("analyze", e1_file, "--json") == first


def test_cli_imports_no_private_report_name():
    # Every rendering lives in report, behind report.render.
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    private = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module in ("report", "walkbound.report")
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_installed_entry_point_runs(e1_file):
    proc = subprocess.run(
        [sys.executable, "-m", "walkbound", "analyze", e1_file],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "sigma: 2" in proc.stdout


def test_max_iter_caps_every_solve(tmp_path, record_calls):
    # 60 x 60 is above the dense SVD cutoff, and a top gap of 1e-3 takes
    # Lanczos more than 3 steps.  The diagonal has 60 components, so one
    # analysis runs 61 solves, and each must get the CLI's cap.
    caps = []
    record_calls(lambda name, args, kwargs: caps.append(kwargs.get("max_iter")),
                 ("spectral", "largest_singular"))
    path = tmp_path / "tie.mtx"
    spectrum = np.r_[1.0, 1.0 - 1e-3, np.linspace(0.5, 0.1, 58)]
    write_matrix(path, DenseMatrix(np.diag(spectrum)))
    out = tmp_path / "tie.json"
    assert main(["analyze", str(path), "--max-iter", "3", "--json", "--out", str(out)]) == 3
    assert caps == [3]
    caps.clear()
    assert main(["analyze", str(path), "--max-iter", "60000", "--json", "--out", str(out)]) == 0
    assert caps == [60_000] * 61
    body = json.loads(out.read_text())
    assert body["sigma"]["method"] == "golub_kahan_lanczos"
    assert body["sigma"]["iterations"] > 3
    assert body["tolerances"]["max_iter"] == 60_000
    assert [c["theorem"] for c in body["certificates"]] == ["T2", "T2.1", "T3", "T4", "HWH"]
