"""Tier-1 smoke invocation of the allocator speed benchmark.

Runs ``benchmarks.bench_allocator_speed`` in its scaled-down mode so
regressions in the incremental fast path (full rebuilds sneaking back into
the recovery loop, mode divergence) fail loudly in the normal test run.
The full-size benchmark (``python -m benchmarks.bench_allocator_speed``)
is the one that reports the headline speedup to ``BENCH_allocator.json``.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.bench_allocator_speed import run_bench


def test_bench_smoke(tmp_path):
    out = tmp_path / "BENCH_allocator.json"
    payload = run_bench(small=True, path=out)

    # Both modes must agree exactly — the speedup is free of behaviour drift.
    assert payload["plans_identical"]
    inc = payload["incremental_mode"]
    full = payload["full_rebuild_mode"]
    assert inc["final_throughput"] == full["final_throughput"]
    assert inc["recovery_attempts"] == full["recovery_attempts"]
    assert inc["recovery_accepted"] == full["recovery_accepted"]

    # The engine's acceptance invariant: no full LocalDFG rebuilds inside
    # the recovery loop, deltas instead; the reference mode rebuilds away.
    assert inc["recovery_full_rebuilds"] == 0
    assert inc["recovery_incremental_updates"] > 0
    assert full["recovery_full_rebuilds"] > 0
    assert inc["full_rebuilds"] < full["full_rebuilds"]
    # Planning state is per device type: same-type ranks share one DAG
    # object and one set of DFG node lists.
    assert inc["dfg_shared_per_type"] is True

    # The rank-scaling curve is reported (no timing gate) with one
    # deterministic iteration time per cell.
    scaling = payload["rank_scaling"]
    for cell in scaling["cells"].values():
        assert len(cell["samples_s"]) == scaling["repeats"] >= 5
        assert len(cell["iteration_time"]) == 1

    # Wall-clock is too noisy at smoke scale to gate on (the counters above
    # pin the fast path deterministically); just require it was measured.
    assert payload["speedup"] > 0.0

    # The artifact is valid JSON on disk with the headline fields.
    written = json.loads(out.read_text())
    assert written["plans_identical"] is True
    assert "speedup" in written
