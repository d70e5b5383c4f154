"""Allocator hot-loop speed: incremental replay engine vs. full rebuilds.

The Allocator's recovery loop re-simulates the cluster after every tentative
one-op promotion.  The incremental replay engine (dirty-tracked Precision
DAGs, delta Algorithm-1 cost mapping, per-device-type DFG caching, memoized
memory estimates) makes each trial O(affected subgraph); this benchmark runs
the same allocation twice — once with the engine disabled (every simulate
rebuilds every rank's LocalDFG from scratch, the pre-engine behaviour) and
once with it enabled — verifies the final plans are byte-identical, and
writes wall times, rebuild/delta counters and the speedup to
``BENCH_allocator.json``.  Its ``rank_scaling`` section times warm
``qsync`` plans at growing rank counts over four device types (median and
IQR, no gate) beside each plan's ``iteration_time.hex()``.

Standalone: ``python -m benchmarks.bench_allocator_speed [output.json]``.
The tier-1 suite runs a scaled-down smoke invocation
(``tests/test_bench_allocator_speed.py``) so fast-path regressions fail
loudly.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # standalone invocation without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.allocator import Allocator
from repro.core.indicator import VarianceIndicator, gamma_for_loss
from repro.core.qsync import build_replayer
from repro.hardware import (
    A10, A100, T4, V100, Cluster, NodeSpec, Topology, Worker, make_cluster_a,
)
from repro.hardware.topology import ETH100G, NVLINK2, NVLINK3, PCIE4
from repro.models import mini_model_graph
from repro.profiling import synthesize_stats
from repro.session import PlanRequest, PlanSession

#: The ``bench_ablation_allocator`` mini-BERT model on ClusterA's default
#: 4+4 slice (the paper's testbed is 16+16; full-rebuild cost scales
#: linearly with ranks, the incremental engine builds one DFG per device
#: *type* and is nearly flat).
FULL_SETUP = dict(
    width_scale=24, spatial_scale=8, batch=8,
    n_training=4, n_inference=4, profile_repeats=2,
)
#: Scaled down for the tier-1 smoke test.
SMALL_SETUP = dict(
    width_scale=8, spatial_scale=4, batch=4,
    n_training=1, n_inference=1, profile_repeats=1,
)
#: Rank-scaling curve: warm ``qsync`` plans of one model on clusters of
#: four device types at growing rank counts (no timing gate; the target is
#: <= 1.2x from the first to the last size).
SCALING = dict(
    ranks=(16, 128, 512),
    model="mini_bert",
    model_kwargs={"batch_size": 8, "width_scale": 8, "spatial_scale": 4},
    repeats=5,
)
SMALL_SCALING = dict(
    ranks=(4, 8),
    model="mini_vgg",
    model_kwargs={"batch_size": 2},
    repeats=5,
)


def four_type_cluster(n_ranks: int) -> Cluster:
    """``n_ranks`` split evenly over A100/V100 (training) and A10/T4
    (inference), in nodes of up to eight GPUs behind 100 Gb Ethernet."""
    kinds = (("a100", A100, NVLINK3), ("v100", V100, NVLINK2),
             ("a10", A10, PCIE4), ("t4", T4, PCIE4))
    per_type = n_ranks // len(kinds)
    per_node = min(8, per_type)
    workers: list[Worker] = []
    nodes: list[NodeSpec] = []
    for label, device, intra in kinds:
        for index in range(per_type // per_node):
            ranks = tuple(range(len(workers), len(workers) + per_node))
            workers.extend(
                Worker(rank=r, device=device, link_bandwidth=ETH100G.bandwidth)
                for r in ranks
            )
            nodes.append(NodeSpec(name=f"{label}{index}", ranks=ranks,
                                  intra_link=intra, uplink=ETH100G))
    return Cluster(name=f"FourType{n_ranks}", workers=tuple(workers),
                   topology=Topology(nodes=tuple(nodes)))


def rank_scaling(ranks, model, model_kwargs, repeats) -> dict:
    """Median and IQR of warm plan wall time per rank count, with the
    plan's ``iteration_time.hex()`` beside each cell."""
    cells = {}
    for n in ranks:
        session = PlanSession()
        request = PlanRequest(model=model, model_kwargs=model_kwargs,
                              cluster=four_type_cluster(n))
        session.plan(request)  # cold: profiles every device type once
        samples, hexes = [], set()
        for _ in range(repeats):
            t0 = time.perf_counter()
            outcome = session.plan(request)
            samples.append(time.perf_counter() - t0)
            hexes.add(outcome.simulation.iteration_time.hex())
        q1, _, q3 = statistics.quantiles(samples, n=4)
        cells[str(n)] = {
            "median_s": statistics.median(samples),
            "iqr_s": q3 - q1,
            "samples_s": samples,
            "iteration_time": sorted(hexes),
        }
    first, last = cells[str(ranks[0])], cells[str(ranks[-1])]
    return {
        "strategy": "qsync",
        "model": model,
        "model_kwargs": model_kwargs,
        "device_types": ["A100", "V100", "A10", "T4"],
        "repeats": repeats,
        "cells": cells,
        "median_ratio_last_to_first": last["median_s"] / first["median_s"],
    }


def _build_allocator(
    width_scale: int,
    spatial_scale: int,
    batch: int,
    n_training: int,
    n_inference: int,
    profile_repeats: int,
    incremental: bool,
) -> Allocator:
    cluster = make_cluster_a(n_training, n_inference)

    def builder():
        return mini_model_graph(
            "mini_bert", batch_size=batch,
            width_scale=width_scale, spatial_scale=spatial_scale,
        )

    replayer, _ = build_replayer(builder, cluster, profile_repeats=profile_repeats)
    replayer.incremental = incremental
    indicators = {}
    for w in cluster.inference_workers:
        if w.device.name not in indicators:
            dag = replayer.dags[w.rank]
            stats = synthesize_stats(dag, seed=0)
            indicators[w.device.name] = VarianceIndicator(
                dag, stats, gamma_for_loss("ce", batch)
            )
    return Allocator(replayer, indicators)


def _run_mode(setup: dict, incremental: bool) -> dict:
    allocator = _build_allocator(incremental=incremental, **setup)
    t0 = time.perf_counter()
    plan, report = allocator.allocate()
    wall = time.perf_counter() - t0
    replayer = allocator.replayer
    return {
        "wall_seconds": wall,
        "plan": plan.to_dict(),
        "final_throughput": report.final_throughput,
        "recovery_attempts": report.recovery_attempts,
        "recovery_accepted": report.recovery_accepted,
        "recovery_full_rebuilds": report.recovery_full_rebuilds,
        "recovery_incremental_updates": report.recovery_incremental_updates,
        "simulate_calls": replayer.stats.simulate_calls,
        "full_rebuilds": replayer.full_rebuilds(),
        "incremental_updates": replayer.incremental_updates(),
        "dfg_cache_hits": replayer.stats.local_cache_hits,
        "memory_cache_hits": replayer.stats.memory_cache_hits,
        "memory_evals": replayer.stats.memory_evals,
        "dfg_shared_per_type": _dfg_shared_per_type(replayer),
    }


def _dfg_shared_per_type(replayer) -> bool:
    """Whether every rank holds its device type's one DAG object and a
    LocalDFG sharing the type's node and bucket lists."""
    first: dict[str, int] = {}
    for w in replayer.cluster.workers:
        ref = first.setdefault(w.device.name, w.rank)
        mine, theirs = replayer.local_dfg(w.rank), replayer.local_dfg(ref)
        if (
            replayer.dags[w.rank] is not replayer.dags[ref]
            or mine.forward is not theirs.forward
            or mine.buckets is not theirs.buckets
        ):
            return False
    return True


def run_bench(small: bool = False, path: str | Path = "BENCH_allocator.json") -> dict:
    """Run both modes, compare, and write the JSON report.  Returns it."""
    setup = SMALL_SETUP if small else FULL_SETUP
    full = _run_mode(setup, incremental=False)
    inc = _run_mode(setup, incremental=True)
    plans_identical = full.pop("plan") == inc.pop("plan")
    payload = {
        "setup": {**setup, "mode": "small" if small else "full"},
        "wall_seconds_full_rebuild": full["wall_seconds"],
        "wall_seconds_incremental": inc["wall_seconds"],
        "speedup": full["wall_seconds"] / max(inc["wall_seconds"], 1e-12),
        "plans_identical": plans_identical,
        "full_rebuild_mode": full,
        "incremental_mode": inc,
        "rank_scaling": rank_scaling(**(SMALL_SCALING if small else SCALING)),
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    small = "--small" in argv
    unknown = [a for a in argv if a.startswith("--") and a != "--small"]
    if unknown:
        print(f"unknown option(s): {', '.join(unknown)}", file=sys.stderr)
        print(
            "usage: python -m benchmarks.bench_allocator_speed "
            "[--small] [output.json]",
            file=sys.stderr,
        )
        return 2
    paths = [a for a in argv if not a.startswith("--")]
    path = paths[0] if paths else (
        "BENCH_allocator_small.json" if small else "BENCH_allocator.json"
    )
    payload = run_bench(small=small, path=path)
    inc = payload["incremental_mode"]
    print(
        f"full-rebuild mode: {payload['wall_seconds_full_rebuild']:.3f}s, "
        f"incremental mode: {payload['wall_seconds_incremental']:.3f}s "
        f"-> {payload['speedup']:.1f}x speedup"
    )
    print(
        f"recovery loop: {inc['recovery_full_rebuilds']} full rebuilds, "
        f"{inc['recovery_incremental_updates']} delta updates, "
        f"plans identical: {payload['plans_identical']}"
    )
    scaling = payload["rank_scaling"]
    for n, cell in scaling["cells"].items():
        print(
            f"warm plan at {n} ranks: median {cell['median_s']:.3f}s "
            f"(IQR {cell['iqr_s']:.3f}s)"
        )
    print(f"wrote {path}")
    return 0 if payload["plans_identical"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
