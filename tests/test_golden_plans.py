"""Golden plans: bit-exact outcomes pinned in ``tests/data/golden_plans.json``.

Every case plans one request and compares, exactly, the per-device-type
plan, the bucket compression levels, ``iteration_time.hex()``, the
recovery attempt and accept counts and every rank's memory total with the
recorded entry.  The fixture covers every ``CLUSTER_PRESETS`` entry under
every strategy, a 128-rank four-type fleet, a cluster with non-contiguous
ranks, and clusters whose ``T4`` ranks are partly loaned, where the memory
check must hold against the tightest rank of the type.

A change that is meant to move plans regenerates the fixture with::

    PYTHONPATH=src python tests/test_golden_plans.py

and says why in its change notes; any other diff is a regression.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.common.units import GBPS
from repro.core.allocator import AllocatorConfig
from repro.hardware import A10, A100, T4, V100, Cluster, NodeSpec, Topology, Worker
from repro.hardware.cluster import CLUSTER_PRESETS
from repro.hardware.topology import ETH100G, NVLINK2, NVLINK3, PCIE4
from repro.session import PlanRequest, PlanSession

GOLDEN = Path(__file__).parent / "data" / "golden_plans.json"

STRATEGIES = ("qsync", "qsync+qsgd", "uniform", "dpro", "hessian", "random")
SMALL_BERT = {"batch_size": 4}
#: Large enough that a few percent of a T4 binds the memory check.
WIDE_BERT = {"batch_size": 32, "width_scale": 16, "spatial_scale": 8}


def fleet_cluster() -> Cluster:
    """128 ranks of four device types in sixteen eight-GPU nodes."""
    plans = (
        [("a100", A100, NVLINK3)] * 4
        + [("v100", V100, NVLINK2)] * 4
        + [("a10", A10, PCIE4)] * 4
        + [("t4", T4, PCIE4)] * 4
    )
    workers: list[Worker] = []
    nodes: list[NodeSpec] = []
    for index, (label, device, intra) in enumerate(plans):
        ranks = tuple(range(len(workers), len(workers) + 8))
        workers.extend(
            Worker(rank=r, device=device, link_bandwidth=ETH100G.bandwidth)
            for r in ranks
        )
        nodes.append(
            NodeSpec(name=f"{label}{index}", ranks=ranks, intra_link=intra,
                     uplink=ETH100G)
        )
    return Cluster(name="Fleet128", workers=tuple(workers),
                   topology=Topology(nodes=tuple(nodes)))


def gappy_cluster() -> Cluster:
    """Ranks 0, 2, 5, 9, 11: what remains after decommissioning ranks."""
    workers = (
        Worker(rank=0, device=V100, link_bandwidth=32 * GBPS),
        Worker(rank=2, device=V100, link_bandwidth=32 * GBPS),
        Worker(rank=5, device=T4, link_bandwidth=8 * GBPS),
        Worker(rank=9, device=A10, link_bandwidth=16 * GBPS),
        Worker(rank=11, device=T4, link_bandwidth=8 * GBPS),
    )
    return Cluster(name="gappy", workers=workers)


def loaned_cluster(fraction: float, loaned_first: bool) -> Cluster:
    """Two V100s and four ``T4`` ranks, two of them loaned at ``fraction``
    of their memory; all four share the device name ``T4``."""
    loaned = T4.with_sharing(fraction)
    t4s = [loaned, loaned, T4, T4] if loaned_first else [T4, T4, loaned, loaned]
    workers = [
        Worker(rank=0, device=V100, link_bandwidth=32 * GBPS),
        Worker(rank=1, device=V100, link_bandwidth=32 * GBPS),
    ] + [
        Worker(rank=2 + i, device=d, link_bandwidth=8 * GBPS)
        for i, d in enumerate(t4s)
    ]
    return Cluster(name="loaned", workers=tuple(workers))


def _cases() -> dict[str, PlanRequest]:
    cases: dict[str, PlanRequest] = {}
    for preset in CLUSTER_PRESETS:
        for strategy in STRATEGIES:
            cases[f"{preset}/{strategy}"] = PlanRequest(
                model="mini_bert", model_kwargs=SMALL_BERT, cluster=preset,
                strategy=strategy,
            )
    cases["cluster_a_4+4/qsync/amp"] = PlanRequest(
        model="mini_bert", model_kwargs=SMALL_BERT, cluster="cluster_a_4+4",
        config=AllocatorConfig(amp_mode=True),
    )
    fleet = fleet_cluster()
    fleet_bert = {"batch_size": 8, "width_scale": 8, "spatial_scale": 4}
    cases["fleet128/qsync"] = PlanRequest(
        model="mini_bert", model_kwargs=fleet_bert, cluster=fleet,
        collective_model="hierarchical",
    )
    cases["fleet128/qsync+qsgd"] = PlanRequest(
        model="mini_bert", model_kwargs=fleet_bert, cluster=fleet,
        strategy="qsync+qsgd", collective_model="tree",
    )
    for strategy in ("qsync", "uniform", "dpro"):
        cases[f"gappy/{strategy}"] = PlanRequest(
            model="mini_bert", model_kwargs=SMALL_BERT, cluster=gappy_cluster(),
            strategy=strategy,
        )
    # 0.3 is ClusterB's loan; memory binds only at a few percent of a T4.
    for fraction in (0.3, 0.012, 0.015):
        for loaned_first in (True, False):
            order = "loaned_first" if loaned_first else "loaned_last"
            cluster = loaned_cluster(fraction, loaned_first)
            for batched in (True, False):
                mode = "batched" if batched else "sequential"
                cases[f"loaned{fraction}/{order}/{mode}"] = PlanRequest(
                    model="mini_bert", model_kwargs=WIDE_BERT, cluster=cluster,
                    config=AllocatorConfig(batched_recovery=batched),
                )
    return cases


CASES = _cases()


def record(outcome) -> dict:
    """The pinned, JSON-safe projection of one outcome."""
    allocation = outcome.report.allocation
    return {
        "plan": {
            tname: {op: prec.value for op, prec in sorted(ops.items())}
            for tname, ops in sorted(outcome.plan.assignments.items())
        },
        "bucket_compression": (
            None
            if outcome.plan.bucket_compression is None
            else list(outcome.plan.bucket_compression)
        ),
        "iteration_time": outcome.simulation.iteration_time.hex(),
        "recovery_attempts": allocation.recovery_attempts,
        "recovery_accepted": allocation.recovery_accepted,
        "memory": {
            str(rank): est.total
            for rank, est in sorted(outcome.simulation.memory.items())
        },
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def session() -> PlanSession:
    return PlanSession()


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


def test_batched_recovery_matches_sequential(golden):
    """Batched recovery must reach the sequential loop's outcome, also
    when the type's loaned ranks come before its full ones."""
    pairs = [c for c in CASES if c.endswith("/batched")]
    assert pairs
    for case in pairs:
        assert golden[case] == golden[case.replace("/batched", "/sequential")]


@pytest.mark.parametrize("case", list(CASES))
def test_golden_plan(case, golden, session):
    assert record(session.plan(CASES[case])) == golden[case]


if __name__ == "__main__":
    shared = PlanSession()
    out = {case: record(shared.plan(req)) for case, req in CASES.items()}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(out)} cases to {GOLDEN}", file=sys.stderr)
