"""One workload in one fresh interpreter: set up, measure, print one JSON line.

``run.py`` starts this script once per set-up it times and once to measure;
it is also importable, so the self-tests can drive a workload in-process.

    python3 perfbench/worker.py --workload product-table --seed 1 \\
        --seconds 20 --trace 0 [--n 4] [--setup-only]

The loop is closed with one caller: each operation starts when the previous
one has returned.  A run draws one seeded batch and issues it in whole
passes, at least ``MIN_PASSES`` of them; another pass starts only while it
is expected to end less than half a pass past ``--seconds``.

Times are scaled to reference speed.  On a machine whose cores are shared
with other tenants, the same pure-Python work runs up to ~1.7x slower for
seconds to minutes at a time.  So a fixed probe (benchmark code, not the
package) runs about every ``PROBE_EVERY_S``, and each operation's wall time
is multiplied by ``REFERENCE_PROBE_S`` over the probe time measured around
it.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACE_DIR = ROOT / "perfbench" / "out"

#: The probe's time on the machine the benchmark was defined on (a 2-core
#: Xeon VM), when that machine ran at full speed.  Scaled times are wall
#: times on such a machine.
REFERENCE_PROBE_S = 0.0017
#: How much of the probe's slowdown the package's code shares, fitted on
#: that machine: when the probe ran 1.7x slower, the workloads ran about
#: 1.7 ** 0.85 times slower.
SLOWDOWN_SHARE = 0.85
PROBE_EVERY_S = 0.05
#: Every operation is timed at least this often, so that no latency rests
#: on one sample.
MIN_PASSES = 2
_PROBE_PERMS = list(itertools.permutations(range(1, 7)))[::18][:40]


def _probe_work() -> int:
    # the shape of the package's hot loops: tuples, dict counting, calls
    acc: dict = {}
    for a in _PROBE_PERMS:
        lookup = ((0,) + a).__getitem__
        for b in _PROBE_PERMS:
            z = tuple(map(lookup, b))
            acc[z] = acc.get(z, 0) + 1
    return len(acc)


def probe() -> float:
    """Seconds the probe takes now: fastest of three, collector off, so the
    package's heap does not change it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            _probe_work()
            best = min(best, time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return best


def scale(probe_s: float) -> float:
    """Factor from a wall time to a time at reference speed."""
    return (REFERENCE_PROBE_S / probe_s) ** SLOWDOWN_SHARE


def run_batch(wl, batch, op=None) -> dict:
    """Issue every item of ``batch`` back to back; checks and probes run
    untimed between operations.  Latencies come back scaled."""
    op = wl.op if op is None else op
    raw: list[float] = []
    probe_before: list[int] = []
    probes = [probe()]
    failed = 0
    totals: dict = {}
    wl.begin_batch()
    next_probe = time.perf_counter() + PROBE_EVERY_S
    for item in batch:
        if time.perf_counter() >= next_probe:
            probes.append(probe())
            next_probe = time.perf_counter() + PROBE_EVERY_S
        probe_before.append(len(probes) - 1)
        t0 = time.perf_counter()
        try:
            out = op(item)
        except Exception:
            raw.append(time.perf_counter() - t0)
            if not failed:
                traceback.print_exc(file=sys.stderr)
            failed += 1
            continue
        raw.append(time.perf_counter() - t0)
        if not wl.check(item, out):
            failed += 1
        wl.tally(item, out, totals)
    probes.append(probe())
    scaled = [t * scale((probes[i] + probes[i + 1]) / 2)
              for t, i in zip(raw, probe_before)]
    return {"latencies": scaled, "raw_s": sum(raw), "probes": probes,
            "failed": failed, "pinned_ok": wl.pinned_ok(totals),
            "totals": totals}


def tail(sorted_latencies: list[float]) -> tuple[int, float, int]:
    """The highest of p99/p95/p90 with at least ten samples beyond it, as
    ``(percentile, value, samples beyond)``; the maximum if none has."""
    n = len(sorted_latencies)
    for pct in (99, 95, 90):
        rank = math.ceil(pct / 100 * n)
        if n - rank >= 10:
            return pct, sorted_latencies[rank - 1], n - rank
    return 100, sorted_latencies[-1], 0


def timed_run(wl, seconds: float) -> dict:
    """One seeded batch, issued pass after pass for about ``seconds``.  Each
    operation's latency is its mean over the passes, so the sample count,
    and with it the tail percentile, is the batch size in every run."""
    batch = wl.batch()
    sums = [0.0] * len(batch)
    probes: list[float] = []
    failed = passes = 0
    raw = 0.0
    pinned_ok = True
    start = time.perf_counter()
    elapsed = 0.0
    while passes < MIN_PASSES or elapsed + 0.5 * elapsed / passes <= seconds:
        done = run_batch(wl, batch)
        sums = list(map(float.__add__, sums, done["latencies"]))
        probes += done["probes"]
        raw += done["raw_s"]
        failed += done["failed"]
        pinned_ok = pinned_ok and done["pinned_ok"]
        passes += 1
        elapsed = time.perf_counter() - start
    latencies = sorted(t / passes for t in sums)
    busy = sum(latencies)
    pct, tail_s, beyond = tail(latencies)
    attempted = len(batch) * passes
    metrics = {
        "ops_per_s": len(batch) / busy,
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }
    report = [
        f"passes: {passes} of {len(batch)} ops in {elapsed:.3f} s wall; "
        f"{raw:.3f} s inside operations, {busy * passes:.3f} s at reference "
        "speed",
        f"probe: {len(probes)} samples, median "
        f"{statistics.median(probes) * 1e3:.4f} ms (reference "
        f"{REFERENCE_PROBE_S * 1e3} ms)",
        f"op_tail_ms is p{pct}: {beyond} of {len(batch)} ops lie beyond it",
        f"failed_ops_ratio: {failed / attempted} ({failed} of {attempted} "
        "ops)",
        f"pinned totals: {'match' if pinned_ok else 'MISMATCH'}",
    ]
    return {"correct": failed == 0 and pinned_ok, "attempted": attempted,
            "failed": failed, "metrics": metrics, "report": report}


def traced_run(wl, meta: dict, trace_path: Path | None) -> dict:
    """One batch untraced, then the same batch traced: per-layer metrics.
    Span times are raw wall times; ``tracing_overhead_s`` compares the two
    batches at reference speed."""
    import tracer as tracing

    batch = wl.batch()
    plain = run_batch(wl, batch)
    gc.collect()
    recorder = tracing.Tracer()
    tracing.install(recorder)
    try:
        traced = run_batch(wl, batch, recorder.wrap("op", wl.op))
    finally:
        recorder.remove()
    plain_s, traced_s = sum(plain["latencies"]), sum(traced["latencies"])
    layers = tracing.layer_metrics(recorder, traced_s - plain_s)
    guard_ok = wl.trace_guard(layers, batch)
    if trace_path is not None:
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        recorder.write(trace_path, meta)
    ops = 2 * len(batch)
    failed = plain["failed"] + traced["failed"]
    pinned_ok = plain["pinned_ok"] and traced["pinned_ok"]
    report = [
        f"one batch of {len(batch)} ops at reference speed: {plain_s:.4f} s "
        f"untraced, {traced_s:.4f} s traced",
        f"algebra.product_cache_hit_ratio base: "
        f"{layers['algebra.product_lookups']} lookups, "
        f"{layers['backend.reading_word_counts.calls']} kernel calls",
        f"failed_ops_ratio: {failed / ops} ({failed} of {ops} ops)",
        f"pinned totals: {'match' if pinned_ok else 'MISMATCH'}",
        f"trace guard: {'ok' if guard_ok else 'FAILED'}",
    ]
    if trace_path is not None:
        report.append(f"spans: {len(recorder.start)} written to "
                      f"{trace_path.relative_to(ROOT)}")
    return {"correct": failed == 0 and pinned_ok and guard_ok,
            "attempted": ops, "failed": failed, "metrics": layers,
            "report": report}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--n", type=int, default=None,
                   help="degree override, for the tiny self-test sizes")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    before = probe()
    t0 = time.perf_counter()
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import descents
    if Path(descents.__file__).resolve().parent != src / "descents":
        raise SystemExit(f"descents imported from {descents.__file__}, "
                         f"not from {src}")
    import workloads
    wl = workloads.make(args.workload, args.n, args.seed)
    setup_s = time.perf_counter() - t0
    setup_s *= scale((before + probe()) / 2)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    meta = {
        "workload": args.workload, "seed": args.seed, "sizes": wl.sizes(),
        "backend": descents.backend_name(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "loop": "closed, one caller",
    }
    gc.collect()
    if args.trace:
        result = traced_run(wl, meta,
                            TRACE_DIR / f"{args.workload}.spans.jsonl")
    else:
        result = timed_run(wl, args.seconds)
    result["setup_s"] = setup_s
    result["meta"] = meta
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
