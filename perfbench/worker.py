"""One workload in a fresh process: closed loop, one op at a time.

    python3 perfbench/worker.py --root <checkout> --workload <name> --seed <n>
        --seconds <s> --trace <0|1> --workdir <dir> --result <file>

Generates the op list from the seed, runs a few untimed warm-up ops, then
times ops until ``--seconds`` have passed.  Each op is bracketed by runs of
the reference kernel.  With ``--trace 1`` it instead runs a fixed number of
ops twice, untraced and then traced, so that per-op counts repeat exactly
for a seed.  The records go to ``--result`` as JSON; ``run.py`` turns them
into metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

sys.path.insert(0, str(Path(__file__).resolve().parent))

import refkernel  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

# ops generated per run; far more than a run can time
MAX_OPS = 4000
# ops of the traced run (a multiple of every cycle length)
TRACED_OPS = 24


def time_kernel() -> float:
    t0 = perf_counter()
    refkernel.run()
    return perf_counter() - t0


def run_ops(ulambda, ops, workdir: Path, deadline_s=None, tracer=None) -> list:
    """Run ops in order, each bracketed by kernel runs; stop starting new
    ops once ``deadline_s`` seconds have passed."""
    records = []
    k_before = time_kernel()
    start = perf_counter()
    for i, op in enumerate(ops):
        if deadline_s is not None and perf_counter() - start >= deadline_s:
            break
        runner = workloads.make_runner(op, workdir)
        runner.prepare()
        if tracer is not None:
            tracer.op = i
        error = None
        c0 = process_time()
        t0 = perf_counter()
        try:
            result = runner(ulambda)
        except Exception:  # a raising op is a failed op, not a failed run
            result = None
            error = traceback.format_exc(limit=3)
        t1 = perf_counter()
        c1 = process_time()
        if tracer is not None:
            tracer.op = -1
        k_after = time_kernel()
        if error is None:
            outcome, ok, extra = runner.check(result)
        else:
            outcome, ok, extra = {"error": error.splitlines()[-1]}, False, {}
        if tracer is not None:
            tracer.counts.update(extra)
        if not ok:
            print(f"op {i} ({op['kind']}) failed: {outcome}", file=sys.stderr)
        records.append({
            "kind": op["kind"], "wall_s": t1 - t0, "cpu_s": c1 - c0,
            "k_before_s": k_before, "k_after_s": k_after,
            "ok": ok, "outcome": outcome,
        })
        k_before = k_after
    return records


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    sys.path.insert(0, str(Path(args.root) / "src"))
    import ulambda
    import ulambda.cli  # noqa: F401  (the entry point the CLI ops call)

    workdir = Path(args.workdir)
    cycle = len(workloads.CYCLES[args.workload])
    ops = workloads.generate(args.workload, args.seed, MAX_OPS + cycle)
    warmup, timed = ops[:cycle], ops[cycle:]
    for _ in range(3):
        time_kernel()
    out = {
        "ops_digest": workloads.digest(ops),
        "warmup": run_ops(ulambda, warmup, workdir),
    }
    if args.trace:
        subset = timed[:TRACED_OPS]
        out["untraced"] = run_ops(ulambda, subset, workdir)
        tracer = Tracer()
        tracer.install(ulambda)
        try:
            out["traced"] = run_ops(ulambda, subset, workdir, tracer=tracer)
        finally:
            tracer.uninstall()
        out["calls"] = dict(tracer.calls)
        out["counts"] = dict(tracer.counts)
        out["self_s"] = [[op, layer, s] for (op, layer), s in tracer.self_times().items()]
        spans = Path(args.root) / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.csv.gz"
        tracer.write(spans)
        out["spans_file"] = str(spans.relative_to(args.root))
    else:
        out["timed"] = run_ops(ulambda, timed, workdir, deadline_s=args.seconds)
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(args.result).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
