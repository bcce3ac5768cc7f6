"""Self-tests of the benchmark at tiny sizes (n <= 4).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import descents.backend  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
TINY = 4
#: Counts a traced batch repeats exactly.
EXACT = ("backend.reading_word_counts.calls",
         "backend.reading_word_counts.tables",
         "backend.sum_reading_multinomials.calls",
         "backend.convolve.calls", "backend.convolve.term_pairs",
         "algebra.to_group_algebra.calls", "cosets.verify_subset_pair.calls",
         "cosets.witnesses", "cosets.intersection_table.calls",
         "combinatorics.ordered_presentation.calls")


def run_bench(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--n", str(TINY)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_workload_names_match_spec():
    assert NAMES == list(workloads.WORKLOADS)


def test_layer_units_match_spec():
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracer.LAYER_UNITS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_every_metric_printed_with_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert f"{m['name']}: {got['value']} {m['unit']}" in lines
    assert any(line.startswith("failed_ops_ratio: 0.0") for line in lines)


def drop_one_table(original):
    def patched(row_margins, col_margins, n):
        counts = original(row_margins, col_margins, n)
        mask = next(iter(counts))
        counts[mask] -= 1
        if not counts[mask]:
            del counts[mask]
        return counts
    return patched


@pytest.mark.parametrize("workload", ["product-table", "element-stream"])
def test_dropped_table_fails_ops(monkeypatch, workload):
    monkeypatch.setattr(descents.backend, "reading_word_counts",
                        drop_one_table(descents.backend.reading_word_counts))
    descents.algebra._solomon.cache_clear()
    result = worker.timed_run(workloads.make(workload, TINY, 1), 0.01)
    descents.algebra._solomon.cache_clear()
    assert result["failed"] > 0
    assert result["correct"] is False


def test_seed_leaves_pinned_counts_unchanged():
    for name in ("product-table", "lemma-sweep"):
        totals = [worker.run_batch(wl, wl.batch())["totals"]
                  for wl in (workloads.make(name, TINY, s) for s in (1, 2, 3))]
        assert totals == [workloads.PINNED[name][TINY]] * 3


@pytest.mark.parametrize("workload", NAMES)
def test_traced_counts_repeat(workload):
    counts = []
    for seed in (1, 1, 2):
        result = worker.traced_run(workloads.make(workload, TINY, seed),
                                   {}, None)
        assert result["correct"] is True
        counts.append({k: result["metrics"][k] for k in EXACT})
    assert counts[0] == counts[1]
    if workload == "oracle-check":
        # a pass holds every partition pair twice; when a seed rearranges
        # both copies alike, the second hits the product cache
        for k in ("backend.reading_word_counts.calls",
                  "backend.reading_word_counts.tables"):
            del counts[0][k], counts[2][k]
    assert counts[0] == counts[2]


def test_warm_cache_trips_guard():
    wl = workloads.make("product-table", TINY, 1)
    wl.begin_batch = lambda: None  # the untraced batch leaves the cache warm
    result = worker.traced_run(wl, {}, None)
    descents.algebra._solomon.cache_clear()
    assert result["metrics"]["algebra.product_cache_hit_ratio"] == 1.0
    assert result["correct"] is False


def test_refuses_checkout_without_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, "product-table", 0)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
