"""Benchmark of the ulambda toolkit.  See perfbench/README.md.

    python3 perfbench/run.py --workload <conjecture|quadrature|subordination>
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  Measures set-up (fresh imports),
then runs the workload in one fresh child process and prints, as the last
line of standard output, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The line before it holds diagnostics
(raw wall throughput, reference-kernel speed, the fast-half/slow-half
self-check and digests of the op list and outcomes).

Exit codes: 0 ok, 1 the workload process failed, 2 no ulambda source tree
under ./src, 3 the fast-half/slow-half self-check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import refkernel  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYERS  # noqa: E402

# fresh-interpreter imports whose median is setup_s
SETUP_IMPORTS = 11
# Times the import, then runs the kernel three times in the same process and
# reports the mean of the last two (the first warms numpy's code paths).
IMPORT_SNIPPET = """\
import sys, time
t0 = time.perf_counter()
import ulambda, ulambda.cli
t1 = time.perf_counter()
sys.path.insert(0, {here!r})
import refkernel
kernel = []
for _ in range(3):
    k0 = time.perf_counter()
    refkernel.run()
    kernel.append(time.perf_counter() - k0)
print(t1 - t0, (kernel[1] + kernel[2]) / 2)
"""
# outcomes of this many ops (warm-up included) go into the outcome digest
DIGEST_OPS = 40
# a p90 needs ten samples beyond it
MIN_OPS_FOR_P90 = 100
CHILD_TIMEOUT_S = 170


def normalise(wall_s: float, k_before_s: float, k_after_s: float) -> float:
    """Seconds at reference speed: wall time over the mean bracketing kernel
    time, times the kernel's nominal cost."""
    return wall_s * (refkernel.NOMINAL_MS / 1000.0) / ((k_before_s + k_after_s) / 2)


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.pop("ULAMBDA_THREADS", None)  # left at the program's default
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(env: dict) -> float:
    """Median normalised seconds to import ulambda and its dependencies in a
    fresh interpreter, each import normalised by a kernel run in the same
    process right after it."""
    cmd = [sys.executable, "-c", IMPORT_SNIPPET.format(here=str(HERE))]
    # the first import may compile bytecode; users pay that once
    subprocess.run(cmd, env=env, check=True, capture_output=True, timeout=60)
    times = []
    for _ in range(SETUP_IMPORTS):
        proc = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True, timeout=60)
        import_s, kernel_s = (float(v) for v in proc.stdout.split())
        times.append(normalise(import_s, kernel_s, kernel_s))
    return statistics.median(times)


def percentile(values, p: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def op_ms(rec: dict, key: str = "wall_s") -> float:
    return 1000.0 * normalise(rec[key], rec["k_before_s"], rec["k_after_s"])


def self_check(records: list, bound: float) -> dict:
    """Split each op kind's ops in halves by kernel time (fast host against
    slow host) and compare the normalised p50 of the two halves."""
    fast, slow = [], []
    for kind in sorted({r["kind"] for r in records}):
        mine = sorted((r for r in records if r["kind"] == kind), key=lambda r: r["k_before_s"] + r["k_after_s"])
        half = len(mine) // 2
        fast += [op_ms(r) for r in mine[:half]]
        slow += [op_ms(r) for r in mine[len(mine) - half:]]
    if not fast:  # too few ops to split
        return {"gap": 0.0, "bound": bound, "passed": True}
    p_fast, p_slow = statistics.median(fast), statistics.median(slow)
    gap = abs(p_fast - p_slow) / min(p_fast, p_slow)
    return {
        "fast_half_latency_p50_ms": p_fast,
        "slow_half_latency_p50_ms": p_slow,
        "gap": gap,
        "bound": bound,
        "passed": gap <= bound,
    }


def end_to_end(out: dict, setup_s: float, all_ops: list) -> dict:
    timed = out["timed"]
    lat = [op_ms(r) for r in timed]
    cpu = [op_ms(r, "cpu_s") for r in timed]
    ok = sum(r["ok"] for r in all_ops)
    return {
        "ops_per_s": ("1/s", len(lat) / (sum(lat) / 1000.0)),
        "latency_p50_ms": ("ms", percentile(lat, 50)),
        "latency_p90_ms": ("ms", percentile(lat, 90)),
        "cpu_ms_per_op": ("ms", sum(cpu) / len(cpu)),
        "peak_rss_mb": ("MB", out["maxrss_kb"] / 1024.0),
        "setup_s": ("s", setup_s),
        "ok_ops_frac": ("ratio", ok / len(all_ops)),
    }


def per_layer(out: dict) -> dict:
    n = len(out["traced"])
    calls, counts = out["calls"], out["counts"]

    def per_op(total):
        return total / n

    def calls_of(*names):
        return sum(calls.get(k, 0) for k in names)

    taylor = [k for k in calls if k.startswith("diskfun.") and k.endswith(".taylor")]
    built = calls_of("core.q_from_phi", "core.q_from_omega")
    factors = {i: normalise(1.0, r["k_before_s"], r["k_after_s"]) for i, r in enumerate(out["traced"])}
    self_ms = {}
    for op, layer, s in out["self_s"]:
        if op >= 0:
            self_ms[layer] = self_ms.get(layer, 0.0) + 1000.0 * s * factors[op]
    traced = sum(op_ms(r) for r in out["traced"])
    untraced = sum(op_ms(r) for r in out["untraced"])
    metrics = {
        "series.eval_many.calls": ("count", per_op(calls_of("series.series_eval_many"))),
        "series.eval_many.macs": ("count", per_op(counts.get("series.eval_many.macs", 0))),
        "series.reciprocal.calls": ("count", per_op(calls_of("series.series_reciprocal"))),
        "series.reciprocal.macs": ("count", per_op(counts.get("series.reciprocal.macs", 0))),
        "diskfun.antiderivative.calls": ("count", per_op(calls_of("diskfun.antiderivative"))),
        "diskfun.eval.points": ("count", per_op(counts.get("diskfun.eval.points", 0))),
        "diskfun.taylor.calls": ("count", per_op(calls_of(*taylor))),
        "core.sup_u.calls": ("count", per_op(calls_of("core.sup_u"))),
        "core.count_disk_zeros.calls": ("count", per_op(calls_of("core.count_disk_zeros"))),
        "core.candidates_kept_ratio": ("ratio", counts.get("core.members_kept", 0) / built if built else 0.0),
        "core.subordination_check.samples": ("count", per_op(counts.get("core.subordination_check.samples", 0))),
        "geometry.contains.calls": ("count", per_op(calls_of("geometry.BoundaryRegion.contains"))),
        "geometry.segment_tests": ("count", per_op(counts.get("geometry.segment_tests", 0))),
        "bounds.v_of_omega.calls": ("count", per_op(calls_of("bounds.v_of_omega"))),
        "bounds.b_a.calls": ("count", per_op(calls_of("bounds.b_a"))),
        "bounds.c_omega_curve.pairs": ("count", per_op(counts.get("bounds.c_omega_curve.pairs", 0))),
        "cli.main.calls": ("count", per_op(calls_of("cli.main"))),
        "cli.bytes_written": ("bytes", per_op(counts.get("cli.bytes_written", 0))),
        "trace.overhead_frac": ("ratio", traced / untraced - 1.0),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = ("ms", self_ms.get(layer, 0.0) / n)
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "ulambda" / "__init__.py").is_file():
        print("no ulambda source tree under ./src; run from the root of a checkout", file=sys.stderr)
        return 2
    bounds = {m["name"]: m.get("bound") for m in json.loads((root / "BENCHMARK.json").read_text())["end_to_end"]}

    env = child_env(root)
    setup_s = None if args.trace else measure_setup(env)

    (root / ".perfbench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=root / ".perfbench_work"))
    try:
        result = workdir / "result.json"
        (workdir / "ops").mkdir()
        cmd = [
            sys.executable, str(HERE / "worker.py"), "--root", str(root),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--workdir", str(workdir / "ops"), "--result", str(result),
        ]
        proc = subprocess.run(cmd, env=env, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            print(f"workload process exited with {proc.returncode}", file=sys.stderr)
            return 1
        out = json.loads(result.read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    phases = ("warmup", "untraced", "traced") if args.trace else ("warmup", "timed")
    all_ops = [r for phase in phases for r in out[phase]]
    failed = sum(not r["ok"] for r in all_ops)
    diag = {
        "workload": args.workload,
        "seed": args.seed,
        "ops_digest": out["ops_digest"],
        "outcomes_digest": workloads.digest([r["outcome"] for r in all_ops[:DIGEST_OPS]]),
        "outcomes_digest_ops": min(DIGEST_OPS, len(all_ops)),
    }
    kernels = [r["k_before_s"] for r in all_ops]
    diag["kernel_median_ms"] = 1000.0 * statistics.median(kernels)

    if args.trace:
        metrics = per_layer(out)
        diag["spans_file"] = out["spans_file"]
        diag["traced_ops"] = len(out["traced"])
        check = None
    else:
        metrics = end_to_end(out, setup_s, all_ops)
        timed = out["timed"]
        diag["timed_ops"] = len(timed)
        diag["raw_ops_per_s"] = len(timed) / sum(r["wall_s"] for r in timed)
        diag["ops_by_kind"] = {k: sum(r["kind"] == k for r in timed) for k in sorted({r["kind"] for r in timed})}
        if len(timed) < MIN_OPS_FOR_P90:
            diag["warning"] = f"only {len(timed)} timed ops; latency_p90_ms wants {MIN_OPS_FOR_P90}"
        check = self_check(timed, bounds["latency_p50_ms"])
        diag["self_check"] = check
    print(json.dumps({"diagnostics": diag}))
    if check is not None and not check["passed"]:
        print(
            f"self-check failed: fast-half p50 {check['fast_half_latency_p50_ms']:.3f} ms vs "
            f"slow-half p50 {check['slow_half_latency_p50_ms']:.3f} ms differ by "
            f"{check['gap']:.3f} > {check['bound']}",
            file=sys.stderr,
        )
        return 3
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(all_ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (u, v) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
