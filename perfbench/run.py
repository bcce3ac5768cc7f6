#!/usr/bin/env python3
"""The repository benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload product-table --seed 1 \\
        --seconds 10 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src`` directory, never from an installed copy.  Each set-up and
the measurement run in a fresh interpreter, one process at a time.

``--trace 0`` times several set-ups (their median is ``setup_s``) and
then one closed-loop measurement of about ``--seconds``.  ``--trace 1``
replays one batch with every layer boundary wrapped and reports the
per-layer metrics.  Either way the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it say what was run and how.  ``BENCHMARK.json`` at the
checkout root names the metrics, their units and their bounds, and
``README.md`` beside this file says why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("product-table", "element-stream", "oracle-check", "lemma-sweep")
#: Set-ups timed per run, each in its own interpreter; setup_s is their median.
SETUP_RUNS = 9
#: Limit on any one child interpreter.
CHILD_TIMEOUT_S = 150


def child(args, *extra) -> dict:
    """Run ``worker.py`` in a fresh interpreter; return its JSON line."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.n is not None:
        cmd += ["--n", str(args.n)]
    # a fixed hash seed keeps set and dict iteration order, and so the
    # package's work, the same from run to run
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(cmd + list(extra), cwd=ROOT, env=env,
                          capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--n", type=int, default=None,
                   help="smaller degree, for the benchmark's self-tests")
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not (ROOT / "src" / "descents" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    if args.trace:
        result = child(args)
        setups = []
    else:
        # set-ups on both sides of the measurement, so that one slow spell
        # of the machine does not take them all
        setups = [child(args, "--setup-only")["setup_s"]
                  for _ in range(SETUP_RUNS // 2)]
        result = child(args)
        setups.append(result["setup_s"])
        setups += [child(args, "--setup-only")["setup_s"]
                   for _ in range(SETUP_RUNS - len(setups))]
        result["metrics"]["setup_s"] = statistics.median(setups)

    meta = result["meta"]
    print(f"workload: {args.workload} ({meta['sizes']})")
    print(f"seed: {args.seed}  backend: {meta['backend']}  python: "
          f"{meta['python']}  nproc: {meta['nproc']}  loop: {meta['loop']}")
    if setups:
        print(f"setup_s is the median of {len(setups)} set-ups: "
              + ", ".join(f"{s:.4f}" for s in setups))
    for line in result["report"]:
        print(line)
    metrics = {}
    for m in declared:
        value = result["metrics"][m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']}: {value} {m['unit']}")
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
