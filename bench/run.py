"""walkbound benchmark: seeded closed-loop workloads checked by an oracle.

    python3 bench/run.py --workload analyze_small --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One client in one process sends the next operation only after
the previous one finished (a closed loop), passing over the workload's
inputs in a fixed order, whole passes only, until ``--seconds`` of wall
time have gone by.  Every operation is checked by the oracle in
``oracle.py`` outside its timed interval.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates an
untraced and a traced pass and reports per-layer calls, self time and
counters per pass (see ``tracing.py``).  A human-readable report comes
first; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller
record, with the environment and, for traced runs, every span, is
written to ``bench/results/``.

An operation fails when it raises an error that its input does not
document, or when the oracle rejects its output.  ``correct`` is false
when an operation outside analyze_small's hard slice fails; the hard
slice's misses (known defects) are counted in ``failed`` and
``fail_share`` like any other failure and are never skipped.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
WORK = BENCH / ".work"
RESULTS = BENCH / "results"

WORKLOADS = ("analyze_small", "analyze_large", "point_queries")

# BLAS runs single-threaded: one client, and steadier figures on a small
# shared machine.  Set before numpy loads; recorded with every result.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# Set-up is timed this many times per run (here, then in fresh
# interpreters) and reported as the median.
SETUP_RUNS = 5

# End-to-end metrics in the final JSON line, with their units.
END_TO_END = {"ops_per_s": "1/s", "op_p50_ms": "ms", "peak_rss_mb": "MB", "setup_s": "s"}
# Reported in the human-readable lines only: p90 needs ten samples beyond
# it, which analyze_large does not have, and fail_share is 0 on most runs.
P90_MIN_SAMPLES = 100


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="inputs a tenth the size, for the self-test")
    parser.add_argument("--setup-probe", action="store_true",
                        help="time one set-up in this interpreter, print it, exit")
    return parser.parse_args(argv)


def quiet():
    """Swallow what the program writes to stderr (CLI error lines and
    numpy warnings on the hard inputs) so the report stays readable."""
    return contextlib.redirect_stderr(io.StringIO())


def set_up(workload: str, seed: int, workdir: Path, tiny: bool):
    """Import walkbound, build and write the inputs, run one warm-up op."""
    start = time.perf_counter()
    import walkbound  # noqa: F401  -- the import is part of set-up

    import workloads

    ops = workloads.build(workload, seed, workdir, tiny)
    with quiet():
        workloads.execute(ops[workloads.warm_up_index(workload, ops)])
    return ops, time.perf_counter() - start


def _probe_setup(args) -> float:
    """One set-up in a fresh interpreter, as a user pays it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"] + (["--tiny"] if args.tiny else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


class Outcome:
    """What the operations run so far gave: latencies and failures."""

    def __init__(self):
        self.latencies: list[float] = []
        self.failures: list[tuple[str, bool, str]] = []  # (op, hard, why)

    def run(self, ops, oracle, tracer=None) -> float:
        """One pass over ``ops``; returns the summed operation time."""
        from workloads import execute

        total = 0.0
        for op in ops:
            if tracer is not None:
                tracer.op = len(self.latencies)
            t0 = time.perf_counter()
            value, exc = execute(op)
            elapsed = time.perf_counter() - t0
            total += elapsed
            self.latencies.append(elapsed)
            why = oracle.check(op, value, exc)
            if why is not None:
                self.failures.append((op.label, op.item.hard, why))
        return total

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def correct(self) -> bool:
        return all(hard for _, hard, _ in self.failures)


def timed_run(ops, oracle, seconds: float) -> tuple[Outcome, float]:
    outcome = Outcome()
    op_time = 0.0
    start = time.perf_counter()
    with quiet():
        while True:
            op_time += outcome.run(ops, oracle)
            if time.perf_counter() - start >= seconds:
                return outcome, op_time


def traced_run(ops, oracle, seconds: float):
    """Untraced and traced passes in turn; returns per-pass layer metrics."""
    from tracing import COUNTERS, RATIOS, TRACED, Tracer

    tracer = Tracer()
    outcome = Outcome()
    untraced = traced = 0.0
    passes = 0
    start = time.perf_counter()
    with quiet():
        while True:
            untraced += outcome.run(ops, oracle)
            tracer.install()
            try:
                traced += outcome.run(ops, oracle, tracer)
            finally:
                tracer.remove()
            passes += 1
            if time.perf_counter() - start >= seconds:
                break

    def per_pass(total):
        return total // passes if total % passes == 0 else total / passes

    times = tracer.self_times()
    metrics: dict[str, tuple[float, str]] = {}
    for module, names in TRACED.items():
        module_ns = 0
        for fn in names:
            calls, ns = times.get(f"{module}.{fn}", (0, 0))
            metrics[f"{module}.{fn}.calls"] = (per_pass(calls), "count")
            metrics[f"{module}.{fn}.self_s"] = (ns / 1e9 / passes, "s")
            module_ns += ns
        metrics[f"{module}.self_s"] = (module_ns / 1e9 / passes, "s")
    for name, unit in COUNTERS:
        metrics[name] = (per_pass(tracer.counters[name]), unit)
    metrics["tracing.overhead_s"] = ((traced - untraced) / passes, "s")
    for name, fn in RATIOS:
        calls = times.get(fn, (0, 0))[0] / passes
        metrics[name] = (calls / len(ops), "1/op")
    return outcome, metrics, tracer, passes


def environment(args) -> dict:
    import numpy
    import scipy

    deps = numpy.show_config(mode="dicts")["Build Dependencies"]
    blas, lapack = (deps.get(lib, {}) for lib in ("blas", "lapack"))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "blas_threads": BLAS_THREADS,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "lapack": f"{lapack.get('name')} {lapack.get('version')}",
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _failure_lines(outcome: Outcome) -> list[str]:
    seen: dict[str, str] = {}
    for label, hard, why in outcome.failures:
        seen.setdefault(label, f"  {'hard ' if hard else ''}{label}: {why}")
    return list(seen.values())


def _write_result(args, record: dict) -> None:
    RESULTS.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(record) + "\n")


def run(args, workdir: Path) -> int:
    ops, first_setup = set_up(args.workload, args.seed, workdir, args.tiny)
    from oracle import Oracle

    oracle = Oracle(ops)  # reference answers: outside set-up and timing
    env = environment(args)
    lines = [
        f"walkbound benchmark: workload {args.workload}, seed {args.seed}, "
        f"{args.seconds:g} s, trace {args.trace}, {len(ops)} ops per pass",
        "environment: " + ", ".join(f"{k} {v}" for k, v in env.items()
                                    if k not in ("workload", "seed", "seconds", "trace")),
    ]
    record = {"environment": env}

    if args.trace:
        outcome, layer, tracer, passes = traced_run(ops, oracle, args.seconds)
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layer.items()}
        lines.append(f"per pass over the inputs ({passes} traced passes, "
                     f"{len(ops)} ops per pass; ratios per op):")
        lines += [f"  {name:<44} {v:.6g} {u}" for name, (v, u) in layer.items()]
        names = sorted({span[0] for span in tracer.spans})
        index = {name: k for k, name in enumerate(names)}
        record["spans"] = {
            "columns": ["name", "parent", "op", "start_ns", "end_ns"],
            "names": names,
            "rows": [[index[s[0]], *s[1:]] for s in tracer.spans],
        }
    else:
        setups = [first_setup] + [_probe_setup(args)
                                  for _ in range(SETUP_RUNS - 1)]
        outcome, op_time = timed_run(ops, oracle, args.seconds)
        lat = outcome.latencies
        n, ok = outcome.attempted, outcome.attempted - outcome.failed
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": ok / op_time,
            "op_p50_ms": statistics.median(lat) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        hard = sum(1 for _, h, _ in outcome.failures if h)
        lines += [
            f"setup_s      {values['setup_s']:.4f} s    median of {len(setups)} set-ups",
            f"ops_per_s    {values['ops_per_s']:.4f} 1/s  {ok} correct of {n} ops "
            f"in {op_time:.3f} s of operation time",
            f"op_p50_ms    {values['op_p50_ms']:.4f} ms   n={n}",
        ]
        if n >= P90_MIN_SAMPLES:
            values["op_p90_ms"] = statistics.quantiles(lat, n=10)[-1] * 1e3
            lines.append(f"op_p90_ms    {values['op_p90_ms']:.4f} ms   n={n}, "
                         f"{n - int(0.9 * n)} beyond p90")
        else:
            lines.append(f"op_p90_ms    not reported: n={n}, fewer than ten beyond p90")
        values["fail_share"] = outcome.failed / n
        lines += [
            f"fail_share   {values['fail_share']:.6f}      {outcome.failed} of {n} ops "
            f"failed, {hard} of them in the hard slice",
            f"peak_rss_mb  {values['peak_rss_mb']:.1f} MB",
        ]
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        record["all_metrics"] = values
        record["setup_samples_s"] = setups
    if outcome.failures:
        lines.append("failures (first per operation):")
        lines += _failure_lines(outcome)

    result = {"correct": outcome.correct, "attempted": outcome.attempted,
              "failed": outcome.failed, "metrics": metrics}
    record.update(result)
    record["failures"] = sorted({f"{label}: {why}" for label, _, why in outcome.failures})
    _write_result(args, record)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "walkbound" / "__init__.py").is_file():
        print(f"error: no walkbound package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            _, seconds = set_up(args.workload, args.seed, workdir, args.tiny)
            print(json.dumps({"setup_s": seconds}))
            return 0
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
