"""The Cost Mapper's segment memo and the allocator's assembly-free trials.

An op's segment depends only on its own effective precision and those of
its one-hop neighbours, so while an allocation runs the type mappers look
segments up by that neighbourhood instead of re-deriving them, and the
brute-force trials read ``Replayer.compute_time`` instead of assembling a
``LocalDFG``.  These tests pin both to the from-scratch paths, bit for
bit, check that the memo does not outlive the allocation, and that a
plan's feasibility does not depend on the order of the device types.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import Precision, new_rng
from repro.common.errors import InfeasiblePlanError
from repro.common.units import GBPS
from repro.core import CostMapper
from repro.core.qsync import build_replayer
from repro.graph.subgraph import group_blocks, isomorphism_classes
from repro.hardware import A10, T4, V100, Cluster, Worker, make_cluster_a
from repro.models import mini_model_graph
from repro.session import PlanRequest, PlanSession, get_planner

#: Large enough that a few percent of a T4 binds the memory check.
WIDE_BERT = {"batch_size": 32, "width_scale": 16, "spatial_scale": 8}


def _builder():
    return mini_model_graph(
        "mini_bert", batch_size=4, width_scale=8, spatial_scale=4
    )


def _flat(nodes):
    return [(n.name, n.kind, n.duration, n.op) for n in nodes]


_PAIR: dict = {}


def _replayer_pair():
    """An incremental replayer and a non-incremental one over equal DAGs
    (built once; every example drives both through the same writes)."""
    if not _PAIR:
        cluster = make_cluster_a(1, 1)
        inc, _ = build_replayer(_builder, cluster, profile_repeats=1)
        full, _ = build_replayer(_builder, cluster, profile_repeats=1)
        full.incremental = False
        rank = cluster.inference_workers[0].rank
        device = cluster.inference_workers[0].device
        dag = inc.dags[rank]
        cands = {
            op: [
                p for p in dag.spec(op).supported_precisions()
                if device.supports(p)
            ]
            for op in dag.adjustable_ops()
        }
        cands = {op: c for op, c in cands.items() if len(c) > 1}
        blocks = group_blocks(dag)
        classes = [
            [op for lbl in labels for op in blocks[lbl] if op in cands]
            for _, labels in sorted(isomorphism_classes(dag).items())
        ]
        _PAIR.update(
            inc=inc, full=full, rank=rank, cands=cands,
            ops=sorted(cands), classes=[c for c in classes if c],
        )
    return _PAIR


_step = st.one_of(
    st.tuples(st.just("op"), st.integers(0, 10**6), st.integers(0, 2)),
    st.tuples(st.just("class"), st.integers(0, 10**6), st.integers(0, 2)),
)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(steps=st.lists(_step, min_size=1, max_size=6))
def test_compute_time_matches_assembled_dfg(steps):
    """``compute_time`` summed from retained segments equals the assembled
    DFG's and a non-incremental replayer's, as ``float.hex``."""
    pair = _replayer_pair()
    inc, full, rank, cands = pair["inc"], pair["full"], pair["rank"], pair["cands"]
    plan: dict[str, Precision] = {}
    with inc.segment_memos():
        for kind, which, level in steps:
            if kind == "op":
                op = pair["ops"][which % len(pair["ops"])]
                plan = {op: cands[op][level % len(cands[op])]}
            else:
                ops = pair["classes"][which % len(pair["classes"])]
                plan = {op: cands[op][level % len(cands[op])] for op in ops}
            inc.apply_plan(rank, plan)
            full.apply_plan(rank, plan)
            got = inc.compute_time(rank).hex()
            assert got == inc.local_dfg(rank).compute_time.hex()
            assert got == full.compute_time(rank).hex()
            assert got == full.local_dfg(rank).compute_time.hex()


def test_memo_served_segments_equal_fresh_rebuild():
    """After memo-served refreshes (a walk that revisits neighbourhoods),
    every retained segment and the assembled DFG equal a from-scratch
    ``build_local_dfg`` node for node."""
    cluster = make_cluster_a(1, 1)
    replayer, _ = build_replayer(_builder, cluster, profile_repeats=1)
    worker = cluster.inference_workers[0]
    mapper = replayer.mappers[worker.rank]
    dag = mapper.dag
    ops = [
        op for op in dag.adjustable_ops()
        if len([p for p in dag.spec(op).supported_precisions()
                if worker.device.supports(p)]) > 1
    ]
    rng = new_rng(77)
    mapper.refresh()
    mapper.hold_segment_memo()
    served = 0
    for step in range(30):
        op = ops[int(rng.integers(len(ops)))]
        cands = [p for p in dag.spec(op).supported_precisions()
                 if worker.device.supports(p)]
        dag.set_precision(op, cands[int(rng.integers(len(cands)))])
        before = mapper.memo_entries
        mapper.refresh()
        served += mapper.memo_entries == before
        fresh = CostMapper(dag, mapper.catalog, mapper.cast_calc,
                           device=worker.device,
                           bucket_cap_bytes=mapper.bucket_cap_bytes)
        reference = fresh.build_local_dfg(worker.device.name, worker.rank)
        for name in dag.topo_order():
            mine, theirs = mapper._state.segs[name], fresh._state.segs[name]
            assert _flat(mine.fwd) == _flat(theirs.fwd)
            assert _flat(mine.bwd) == _flat(theirs.bwd)
            assert (mine.fwd_dur, mine.bwd_dur, mine.bwd_pos) == (
                theirs.fwd_dur, theirs.bwd_dur, theirs.bwd_pos
            )
        assembled = mapper.current_dfg(worker.device.name, worker.rank)
        assert _flat(assembled.forward) == _flat(reference.forward)
        assert _flat(assembled.backward) == _flat(reference.backward)
        assert assembled.bucket_ready_after == reference.bucket_ready_after
        assert assembled.compute_time == reference.compute_time
        assert mapper.compute_time() == reference.compute_time
    assert mapper.memo_entries > 0
    assert served > 0  # some refreshes derived nothing new
    mapper.release_segment_memo()
    assert mapper.memo_entries == 0


def test_allocation_releases_segment_memos(monkeypatch):
    """The memo lives for one ``allocate()``: held while it runs, empty on
    every mapper of the planned context afterwards."""
    released: list[int] = []
    original = CostMapper.release_segment_memo

    def spy(self):
        released.append(self.memo_entries)
        original(self)

    monkeypatch.setattr(CostMapper, "release_segment_memo", spy)
    session = PlanSession()
    ctx = session.prepare(PlanRequest(
        model="mini_bert", model_kwargs={"batch_size": 4},
        cluster="cluster_a_4+4",
    ))
    get_planner("qsync").plan(ctx)
    assert released and max(released) > 0
    mappers = set(ctx.replayer.mappers.values())
    assert len(released) == len(mappers)
    assert all(m.memo_entries == 0 for m in mappers)


def _mixed_cluster(a10_first: bool) -> Cluster:
    inference = [(A10, 16), (T4.with_sharing(0.012), 8)]
    if not a10_first:
        inference.reverse()
    workers = [
        Worker(rank=0, device=V100, link_bandwidth=32 * GBPS),
        Worker(rank=1, device=V100, link_bandwidth=32 * GBPS),
    ] + [
        Worker(rank=2 + i, device=d, link_bandwidth=bw * GBPS)
        for i, (d, bw) in enumerate(inference)
    ]
    return Cluster(name="mixed", workers=tuple(workers))


def test_feasibility_does_not_depend_on_type_order():
    """A type that has not been planned yet (still at its prepared
    precisions) must not fail the uniform step of a type planned before
    it: both orders plan, to the same plan and iteration time."""
    session = PlanSession()
    outcomes = [
        session.plan(PlanRequest(
            model="mini_bert", model_kwargs=WIDE_BERT,
            cluster=_mixed_cluster(a10_first),
        ))
        for a10_first in (True, False)
    ]
    first, second = (o.plan.to_dict() for o in outcomes)
    assert first == second
    assert (
        outcomes[0].simulation.iteration_time.hex()
        == outcomes[1].simulation.iteration_time.hex()
    )


def test_unfit_training_type_is_named():
    """A type no allocator step writes (training GPUs at FP32) that does
    not fit raises a typed error naming it."""
    workers = (
        Worker(rank=0, device=V100.with_sharing(0.001),
               link_bandwidth=32 * GBPS),
        Worker(rank=1, device=T4, link_bandwidth=8 * GBPS),
    )
    request = PlanRequest(
        model="mini_bert", model_kwargs=WIDE_BERT,
        cluster=Cluster(name="tiny-v100", workers=workers),
    )
    with pytest.raises(InfeasiblePlanError, match="V100"):
        PlanSession().plan(request)
