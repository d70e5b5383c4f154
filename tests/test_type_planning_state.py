"""Planning state is per device type: one DAG and one CostMapper per type.

Ranks are a multiplicity: the work of a plan does not grow with the number
of same-type ranks, the Replayer refuses per-rank inputs that would let
same-type ranks diverge, and its rank -> state mappings are read-only.
"""

from __future__ import annotations

import pytest

from repro.backend import LPBackend
from repro.common import Precision
from repro.core import replayer as replayer_mod
from repro.core.replayer import Replayer
from repro.hardware import A10, A100, T4, V100, Cluster, Worker, make_cluster_a
from repro.hardware.events import ClusterEvent
from repro.models import mini_model_graph
from repro.profiling.casting import CastCostCalculator
from repro.profiling.profiler import profile_operator_costs
from repro.session import PlanRequest, PlanSession

MODEL = {"batch_size": 8, "width_scale": 8, "spatial_scale": 4}


def _four_types(n_ranks: int) -> Cluster:
    """Four device types over a (near-)free network, so the plan — and with
    it the planner's work — does not depend on the rank count."""
    devices = (A100, V100, A10, T4)
    per_type = n_ranks // len(devices)
    workers = tuple(
        Worker(rank=i * per_type + j, device=device, link_bandwidth=1e18)
        for i, device in enumerate(devices)
        for j in range(per_type)
    )
    return Cluster(name=f"four{n_ranks}", workers=workers, collective_latency=1e-12)


def _plan(n_ranks: int):
    session = PlanSession()
    request = PlanRequest(model="mini_bert", model_kwargs=MODEL,
                          cluster=_four_types(n_ranks))
    outcome = session.plan(request)
    return outcome, session.last_context.replayer


def test_plan_work_is_rank_invariant():
    small, small_rp = _plan(16)
    large, large_rp = _plan(128)
    assert small.plan.assignments == large.plan.assignments
    assert small_rp.stats.memory_evals == large_rp.stats.memory_evals
    assert (
        small_rp.full_rebuilds() + small_rp.incremental_updates()
        == large_rp.full_rebuilds() + large_rp.incremental_updates()
    )
    for rp in (small_rp, large_rp):
        assert len({id(dag) for dag in rp.dags.values()}) == 4
        assert len({id(m) for m in rp.mappers.values()}) == 4


def test_rank_mappings_are_read_only():
    _, rp = _plan(16)
    with pytest.raises(TypeError):
        rp.dags[0] = rp.dags[1]
    with pytest.raises(TypeError):
        rp.mappers[0] = rp.mappers[1]


def _inputs():
    """Per-rank inputs for ClusterA 2+2 (ranks 0-1 V100, 2-3 T4), every
    rank with its own DAG copy and per-type profiling artifacts."""
    cluster = make_cluster_a(2, 2)
    builder = lambda: mini_model_graph("mini_bert", batch_size=4)
    dags = {w.rank: builder() for w in cluster.workers}
    catalogs, casts = {}, {}
    for w in cluster.workers:
        first = min(r.rank for r in cluster.workers if r.device is w.device)
        if first == w.rank:
            backend = LPBackend(w.device, seed=0)
            catalogs[w.rank] = profile_operator_costs(dags[w.rank], backend, repeats=1)
            casts[w.rank] = CastCostCalculator(backend)
        else:
            catalogs[w.rank], casts[w.rank] = catalogs[first], casts[first]
    return cluster, dags, catalogs, casts


def test_equal_same_type_dags_are_accepted():
    cluster, dags, catalogs, casts = _inputs()
    replayer = Replayer(cluster, dags, catalogs, casts)
    assert replayer.dags[3] is dags[2]
    assert replayer.simulate().iteration_time > 0


def test_rejects_same_type_dags_with_other_precisions():
    cluster, dags, catalogs, casts = _inputs()
    dags[3].set_precision(dags[3].adjustable_ops()[0], Precision.FP16)
    with pytest.raises(ValueError, match="rank 3"):
        Replayer(cluster, dags, catalogs, casts)


def test_rejects_same_type_dags_with_other_structure():
    cluster, dags, catalogs, casts = _inputs()
    dags[1] = mini_model_graph("mini_vgg", batch_size=4)
    with pytest.raises(ValueError, match="rank 1"):
        Replayer(cluster, dags, catalogs, casts)


@pytest.mark.parametrize("which", ["catalog", "cast"])
def test_rejects_same_type_ranks_with_other_artifacts(which):
    cluster, dags, catalogs, casts = _inputs()
    backend = LPBackend(T4, seed=0)
    if which == "catalog":
        catalogs[3] = profile_operator_costs(dags[3], backend, repeats=1)
    else:
        casts[3] = CastCostCalculator(backend)
    with pytest.raises(ValueError, match="rank 3"):
        Replayer(cluster, dags, catalogs, casts)


def _record(outcome):
    return (
        outcome.plan.to_dict(),
        outcome.simulation.iteration_time.hex(),
        outcome.report.allocation.recovery_attempts,
        outcome.report.allocation.recovery_accepted,
        {r: m.total for r, m in outcome.simulation.memory.items()},
    )


def _plan_and_replan():
    session = PlanSession()
    request = PlanRequest(model="mini_bert", model_kwargs=MODEL,
                          cluster="cluster_b_2x8+2x8")
    outcome = session.plan(request)
    replan = session.replan(
        session.last_context, (ClusterEvent(time=0.0, kind="leave", rank=31),)
    )
    return outcome, replan, replan.context.replayer


def test_tiny_memory_cache_bound_is_invisible(monkeypatch):
    plan, replan, rp = _plan_and_replan()
    monkeypatch.setattr(replayer_mod, "MEMORY_CACHE_BOUND", 1)
    tiny_plan, tiny_replan, tiny_rp = _plan_and_replan()
    # Evictions happened: the replan re-derives what adoption served.
    assert len(tiny_rp._mem_sig_cache) <= 1
    assert tiny_rp.stats.memory_evals > rp.stats.memory_evals
    assert _record(tiny_plan) == _record(plan)
    assert _record(tiny_replan.outcome) == _record(replan.outcome)
