import json
import subprocess
import sys

import numpy as np
import pytest

from walkbound import DenseMatrix, write_matrix
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


def test_missing_file_exits_2(capsys):
    assert main(["analyze", "/nope/missing.mtx"]) == 2
    assert "error:" in capsys.readouterr().err


def test_bad_content_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("1,zebra\n")
    assert main(["analyze", str(path)]) == 2


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


def test_installed_entry_point_runs(e1_file):
    proc = subprocess.run(
        [sys.executable, "-m", "walkbound", "analyze", e1_file],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "sigma: 2" in proc.stdout


def test_max_iter_caps_every_solve(tmp_path, monkeypatch):
    # 60 x 60 is above the dense SVD cutoff, and a top gap of 1e-3 takes
    # Lanczos more than 3 steps.  The diagonal has 60 components, so one
    # analysis runs 61 solves, and each must get the CLI's cap.
    from walkbound import analysis

    caps = []
    solve = analysis.largest_singular

    def recorded(a, **kwargs):
        caps.append(kwargs.get("max_iter"))
        return solve(a, **kwargs)

    monkeypatch.setattr(analysis, "largest_singular", recorded)
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
