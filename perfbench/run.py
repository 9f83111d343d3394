"""Benchmark of the mchb simulator, run from the root of a source checkout.

    python3 perfbench/run.py --workload zero-source-64 --seed 1 --seconds 20 --trace 0

One process per run drives mchb's public API in a closed loop: each round
of operations starts when the previous one returns.  Rounds repeat until
``--seconds`` have passed, and every round's outputs are checked.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer split with ``--trace 1``.  See README.md for the workloads and
the metrics.
"""

import os

# one numerical-library thread: SuperLU and the sparse kernels are serial,
# and a second BLAS thread only adds scheduling noise on a small host
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("zero-source-64", "darcy-limit-64", "relax-128", "mms-ladder")
SETUP_PROBES = 5


def import_sources():
    """Import mchb from the checkout's own sources, never an installed copy."""
    pkg = SRC_DIR / "mchb"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"perfbench: no mchb sources at {pkg}")
    sys.path.insert(0, str(SRC_DIR))
    import mchb
    if Path(mchb.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"perfbench: imported mchb from {mchb.__file__}, not {pkg}")
    import hostspeed
    import workloads
    return hostspeed, workloads


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def setup_seconds(args, host) -> float:
    """Median over fresh processes of start-up to ready-to-run.

    Each probe imports, builds the configuration, the stepper and the initial
    state, then prints its CLOCK_MONOTONIC reading, which shares its origin
    with this process's clock.  Each sample is scaled by the host speed
    measured just before the probe starts.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    samples = []
    for _ in range(SETUP_PROBES):
        scale = host.scale([host.sample() for _ in range(3)])
        t0 = time.monotonic()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              check=True)
        samples.append((float(done.stdout.split()[-1]) - t0) * scale)
    return statistics.median(samples)


def main(argv=None) -> int:
    args = parse_args(argv)
    hostspeed, wl_mod = import_sources()
    out_dir = OUT_DIR / args.workload
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    if args.probe_setup:
        wl_mod.make(args.workload, args.seed, out_dir)
        print(time.monotonic(), flush=True)
        return 0
    host = hostspeed.HostSpeed(wl_mod.KERNEL[args.workload])
    wl = wl_mod.make(args.workload, args.seed, out_dir, host)
    setup_end = len(tracer.spans) if tracer else 0
    if tracer:
        tracer.uninstall()
    setup_s = None if args.trace else setup_seconds(args, host)

    problems: list[str] = []
    op_s: list[float] = []              # scaled to reference-host speed
    round_s = {False: [], True: []}     # scaled, keyed by "traced"
    attempted = failed = 0
    io_bytes = 0.0
    traced_cal: list[float] = []
    start = time.perf_counter()
    rounds = 0
    min_rounds = 2 if tracer else 1
    # traced runs alternate untraced and traced rounds, so that the tracing
    # overhead is measured in the same process
    while rounds < min_rounds or time.perf_counter() - start < args.seconds:
        traced = tracer is not None and rounds % 2 == 1
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            wl.run_round(tracer if traced else None)
        finally:
            t1 = time.perf_counter()
            if traced:
                tracer.uninstall()
        # each op is scaled by the host speed sampled next to it, the rest
        # of the round (run loop, writer) by the round's median speed
        ops = [op * host.reference_s / cal
               for op, cal in zip(wl.op_s, wl.cal_s, strict=True)]
        rest = t1 - t0 - wl.cal_spent - sum(wl.op_s)
        round_s[traced].append(sum(ops) + rest * host.scale(wl.cal_s))
        op_s += ops
        attempted += len(wl.op_s)
        failed += wl.failed
        rounds += 1
        if traced:
            io_bytes = wl.written_bytes() / max(len(wl.op_s), 1)
            traced_cal += wl.cal_s
        problems += wl.check_round()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems += wl.final_check()

    if tracer:
        metrics, trace_problems = tracing.layer_split(
            tracer.spans, wl.op_span, setup_end, io_bytes)
        problems += trace_problems
        scale = host.scale(traced_cal)
        metrics = {k: v * scale if _unit(k) == "ms" else v
                   for k, v in metrics.items()}
        metrics["trace.overhead_s"] = (statistics.median(round_s[True])
                                       - statistics.median(round_s[False]))
        units = {k: _unit(k) for k in metrics}
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        stem = OUT_DIR / f"trace_{args.workload}_{args.seed}"
        tracer.write(stem.with_suffix(".jsonl"))
        stem.with_suffix(".json").write_text(json.dumps(metrics, indent=1))
    else:
        metrics = {"setup_s": setup_s,
                   "run_s": statistics.median(round_s[False]),
                   "op_ms_p50": 1e3 * statistics.median(op_s),
                   "peak_rss_mb": peak_rss_mb}
        units = {"setup_s": "s", "run_s": "s", "op_ms_p50": "ms",
                 "peak_rss_mb": "MB"}
    for p in problems:
        print(f"perfbench: check failed: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_ms") or name.endswith(".ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "B"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
