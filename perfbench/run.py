"""Benchmark of banachproj: one command, four workloads, a traced variant.

    python3 perfbench/run.py --workload <closed_form|polytope|moduli|cli> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from
./src (nothing is installed).  The seed fixes every input; the program
only ever sees the generated inputs.  Load is closed-loop with a single
caller, and no run uses more threads than the cores it may run on.

A run measures whole rounds (each round is the workload's fixed list of
operations, see workloads.py) until --seconds have passed, checks every
output against the independent references, and prints one JSON line of
detail (per-kind metrics such as proj_p50_us, deriv_p50_us, cmd_p50_s,
failure labels, set-up samples, machine and versions) followed by the
result line {"correct", "attempted", "failed", "metrics"}.

--trace 0 gives the end-to-end metrics, measured untraced.  Every round
repeats the same calls, so each operation's latency is taken as its
fastest call in the run (other tenants of a shared machine only ever add
time); medians and tails are then taken across the distinct operations.
  setup_s      median over 3 fresh interpreters of `import banachproj` plus
               building the workload's inputs (PolytopeH runs an LP there)
  wall_s       time of one round of fixed work, each call at its fastest
  op_p50_us    median latency of the workload's primary operation
  peak_rss_mb  peak resident memory of this process (of the children, cli)
error_rate is failed / attempted from the result line itself.  The detail
line adds, ungated, the primary operation's tail (its highest percentile
with at least ten operations beyond it, or the maximum below 20) and the
secondary operation's latency: across seeds on a shared 2-core machine
they spread by more than the largest bound a gated metric may have.

--trace 1 alternates untraced and traced rounds and reports the per-layer
metrics of spans.layer_metrics (per round of fixed work, so they compare
across runs of different length), cli.import.* from a fresh interpreter,
moduli.rel_gap, and trace.overhead_ratio = traced wall_s / untraced wall_s.
Spans are written to .bench_out/spans_<workload>_<seed>.tsv.gz.

Held-out seed: claims made with this benchmark must also be re-checked on
seed 9001, which was not used while the benchmark or any change was tuned.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
SPAN_CAP = 400_000          # stop adding traced rounds beyond this many spans
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(count: int) -> float:
    """Highest ladder percentile leaving >= 10 samples beyond it."""
    for pct in TAIL_LADDER:
        if count * (1.0 - pct / 100.0) >= 10.0:
            return pct
    return 100.0


def best_times(ops, timings) -> dict:
    """Each operation's fastest call over the run, per row for bound checks.

    The same inputs repeat every round (some operations more than once a
    round), and interference from other tenants of the machine only ever
    adds time, so the minimum is the steadiest estimate of what a call costs.
    """
    best: dict = {}
    for op, t in zip(ops, np.min(np.asarray(timings), axis=0)):
        best[op] = min(best.get(op, np.inf), t / op.per)
    return best


def latency_summary(best, select) -> dict:
    """Median and tail over the distinct operations picked by `select`."""
    values = np.array([t for op, t in best.items() if select(op)])
    pct = tail_percentile(values.size)
    return {"p50_us": float(np.median(values)) * 1e6,
            "tail_us": float(np.percentile(values, pct)) * 1e6,
            "tail_pct": pct, "samples": int(values.size)}


def machine() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model)
    except OSError:
        pass
    import scipy
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": model,
            "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__}


def child(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True,
                          text=True, timeout=170, check=True)


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Wall time of fresh interpreters that import banachproj and build inputs."""
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        child([__file__, "--workload", workload, "--seed", str(seed), "--setup-probe"])
        samples.append(time.perf_counter() - t0)
    return samples


IMPORT_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import numpy, scipy.optimize
t1 = time.perf_counter()
from scipy import stats
from scipy.stats import qmc
t2 = time.perf_counter()
import banachproj.cli
print(time.perf_counter() - t0, t2 - t1)
"""


def import_seconds() -> dict:
    """cli.import.s and the scipy.stats share of it, in a fresh interpreter.

    Timed with perf_counter rather than -X importtime: banachproj reaches
    scipy.stats through SciPy's lazy module __getattr__, which importtime
    does not attribute to a line of its own.
    """
    total, stats_s = map(float, child(["-c", IMPORT_PROBE, str(ROOT / "src")]).stdout.split())
    return {"cli.import.s": total, "cli.import.scipy_stats_s": stats_s}


def run_round(ops, tracer=None):
    bench = tracer.name_id("bench.op") if tracer else None
    times, results = [], []
    start = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        try:
            res = op.call() if tracer is None else tracer.call(bench, op.call)
        except Exception as exc:   # the failure is the measurement: record it, go on
            res = exc
        times.append(time.perf_counter() - t0)
        results.append(res)
    return time.perf_counter() - start, times, results


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "banachproj" / "__init__.py").is_file():
        print(f"no banachproj sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    workloads.load_program(ROOT)

    wl = workloads.WORKLOADS[args.workload](args.seed, ROOT)
    try:
        if args.setup_probe:
            return 0
        return measure(args, wl)
    finally:
        if hasattr(wl, "close"):
            wl.close()


def measure(args, wl) -> int:
    import spans

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    setup = import_probe = None
    if args.trace:
        import_probe = import_seconds()
    else:
        setup = setup_seconds(args.workload, args.seed)
    wl.warm()

    tracer = spans.Tracer() if args.trace else None
    ops = getattr(wl, "traced_ops", wl.ops) if args.trace else wl.ops
    round_s = {False: [], True: []}
    untraced, failures = [], Counter()     # per-op times of the untraced rounds
    attempted = 0
    t_end = time.perf_counter() + args.seconds
    while True:
        traced = bool(args.trace) and len(round_s[False]) > len(round_s[True])
        if traced:
            tracer.install()
        try:
            wall, times, results = run_round(ops, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        round_s[traced].append(wall)
        if not traced:
            untraced.append(times)
        for op, res in zip(ops, results):
            attempted += op.attempts
            failures.update(f"{op.kind}:{label}" for label in op.check(res))
        done = time.perf_counter() >= t_end or (tracer and len(tracer.start) > SPAN_CAP)
        if done and (not args.trace or round_s[True]):
            break

    failed = sum(failures.values())
    correct = not any(":wrong:" in k for k in failures)
    rusage = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(rusage).ru_maxrss / 1024.0
    best = best_times(ops, untraced)
    lat = {role: latency_summary(best, lambda op, r=role: op.role == r) for role in ("op", "aux")}
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "held_out_seed": 9001,
        "rounds": len(untraced), "ops_per_round": len(ops),
        "round_s": round_s[False], "traced_round_s": round_s[True], "latency": lat,
        **named_metrics(args.workload, wl, best),
        "error_rate": failed / attempted, "failures": dict(sorted(failures.items())),
        "setup_s_samples": setup, "machine": machine(),
    }
    print(json.dumps({"detail": detail}))

    if args.trace:
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"spans_{args.workload}_{args.seed}.tsv.gz")
        layer = spans.layer_metrics(tracer, len(round_s[True]), len(round_s[True]) * len(ops))
        layer.update(import_probe)
        layer["moduli.rel_gap"] = getattr(wl, "rel_gap", 0.0)
        layer["trace.overhead_ratio"] = float(np.median(round_s[True]) / np.median(round_s[False]))
        metrics = {m["name"]: {"value": layer[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        values = {
            "setup_s": float(np.median(setup)),
            "wall_s": sum(best[op] * op.per for op in ops),
            "op_p50_us": lat["op"]["p50_us"],
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def named_metrics(workload, wl, best) -> dict:
    """Per-workload metrics (proj_*, deriv_*, moduli_*, cmd_*) for the detail line."""
    def summary(name, prefix, scale, unit):
        lat = latency_summary(best, lambda op: op.kind.startswith(prefix))
        return {f"{name}_p50_{unit}": lat["p50_us"] * scale, f"{name}_tail_{unit}": lat["tail_us"] * scale,
                f"{name}_tail_pct": lat["tail_pct"], f"{name}_samples": lat["samples"]}

    def total(prefix):
        return sum(t * op.per for op, t in best.items() if op.kind.startswith(prefix))

    if workload in ("closed_form", "polytope"):
        n_proj = sum(1 for op in best if op.kind.startswith("project:"))
        return {**summary("proj", "project:", 1.0, "us"), "proj_per_s": n_proj / total("project:"),
                **summary("deriv", "derivative:", 1.0, "us")}
    if workload == "moduli":
        rows = sum(op.per for op in best if op.kind == "bound")
        return {"moduli_curve_s": total("curves") / len(wl.CONFIGS),
                "bound_pairs_per_s": rows / total("bound"), "moduli_rel_gap": wl.rel_gap}
    return summary("cmd", "cli:", 1e-6, "s")


if __name__ == "__main__":
    sys.exit(main())
