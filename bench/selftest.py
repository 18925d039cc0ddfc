"""Self-test of the benchmark itself.

    python3 bench/selftest.py

1. A tiny run (inputs a tenth the size, one second) of every workload in
   ``BENCHMARK.json``, untraced and traced: the last line must carry
   exactly the manifest's metrics with their units, the report lines
   must name every end-to-end metric, and the ordinary inputs must pass
   the oracle.
2. The oracle must flag planted wrong answers: sigma off by 1e-6
   relative, a lower bound above sigma, a wrong component count.
3. Without ``src/`` beside it the benchmark must exit non-zero and print
   no result.

Exits 0 when every check passes and prints what failed otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REPORT_NAMES = ("setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms", "fail_share",
                "peak_rss_mb")


def _run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(root / "bench" / "run.py"), *args],
                          capture_output=True, text=True, timeout=170, cwd=root)


def check_runs(manifest: dict) -> list[str]:
    problems = []
    for workload in (w["name"] for w in manifest["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            where = f"{workload} trace {trace}"
            proc = _run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                        "--trace", str(trace), "--tiny")
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if result["correct"] is not True or result["attempted"] < 1:
                problems.append(f"{where}: correct {result['correct']}, "
                                f"attempted {result['attempted']}")
            expected = {m["name"]: m["unit"] for m in manifest[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected:
                problems.append(f"{where}: metrics and units differ from the manifest: "
                                f"{sorted(set(got.items()) ^ set(expected.items()))}")
            for name, metric in result["metrics"].items():
                if not (isinstance(metric["value"], (int, float))
                        and math.isfinite(metric["value"])):
                    problems.append(f"{where}: {name} = {metric['value']!r}")
            if trace == 0:
                report = "\n".join(lines[:-1])
                problems += [f"{where}: report lacks {name}" for name in REPORT_NAMES
                             if f"\n{name} " not in f"\n{report}"]
    return problems


def check_oracle() -> list[str]:
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    from walkbound import largest_singular
    from walkbound.gen import GeneratorSpec, generate
    from walkbound.report import full_analysis

    from oracle import check_report, reference, _check_sigma
    from workloads import Item

    item = Item("planted", generate(GeneratorSpec("random_nonneg", (7, 5), seed=3)))
    ref = reference(item)
    report = full_analysis(item.matrix)
    problems = []
    if check_report(item, ref, report) is not None:
        problems.append(f"oracle rejects a correct report: {check_report(item, ref, report)}")

    def planted(name, edit):
        wrong = json.loads(json.dumps(report))
        edit(wrong)
        if check_report(item, ref, wrong) is None:
            problems.append(f"oracle missed a planted {name}")

    planted("sigma off by 1e-6", lambda r: r["sigma"].update(value=ref.sigma * (1 + 1e-6)))
    planted("lower bound above sigma",
            lambda r: r["bounds"][0].update(value=ref.sigma * (1 + 1e-6)))
    planted("component count", lambda r: r["components"].update(count=ref.components + 1))
    result = largest_singular(item.matrix)
    off = dataclasses.replace(result, sigma=result.sigma * (1 + 1e-6))
    if _check_sigma(item, ref, result) is not None or _check_sigma(item, ref, off) is None:
        problems.append("largest_singular check misjudges a 1e-6 sigma error")
    return problems


def check_bare_tree(manifest: dict) -> list[str]:
    bare = BENCH / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        for path in manifest["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = _run(bare, "--workload", manifest["workloads"][0]["name"], "--seed", "1",
                    "--seconds", "1", "--trace", "0")
        if proc.returncode == 0 or proc.stdout.strip():
            return [f"without src/ the benchmark exits {proc.returncode} "
                    f"and prints {proc.stdout[-200:]!r}"]
        return []
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_bare_tree(manifest) + check_oracle() + check_runs(manifest)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
