"""Request generators for the three planner workloads.

Every generator takes the run seed and returns plain ``PlanRequest``s,
membership events and due times; the planner sees only those.  Each
stream is stratified: the seed shuffles and parameterises a fixed mix of
request kinds, so two seeds load the same layers in the same proportions
and their figures stay comparable.

fleet_whatif
    Closed loop over one warm ``PlanSession`` on a 128-rank fleet of four
    device types (A100/V100 training, A10/T4 inference, 8 GPUs per node,
    100 GbE uplinks) planning ``mini_bert``.  Per-rank planning state
    (DAG copies, memory checks, per-rank plan writes) dominates here.
deep_whatif
    The same loop on ``cluster_a_4+4`` with the full-size ``bert`` graph:
    per-op work (memory evaluation, batched what-ifs) dominates and the
    rank count barely matters.
serve_churn
    Open loop at a fixed offered rate into a ``PlanService`` over a
    persistent store: coalescing hot pairs, distinct what-ifs, new model
    recipes (profiling plus disk writes), churn replans (leave, join,
    degrade), perturbed and ``blocking_sync`` requests, and service
    restarts that read the store back from disk.
"""

from __future__ import annotations

import dataclasses
import itertools
import random

from repro.engine.perturbation import Perturbation
from repro.hardware.cluster import Cluster, Worker
from repro.hardware.events import ClusterEvent
from repro.hardware.presets import A10, A100, T4, V100
from repro.hardware.topology import (
    ETH100G,
    NVLINK2,
    NVLINK3,
    PCIE4,
    WAN10G,
    NodeSpec,
    Topology,
)
from repro.quant.qsgd import CompressionConfig
from repro.session.request import PlanRequest

WORKLOADS = ("fleet_whatif", "deep_whatif", "serve_churn")

COLLECTIVES = ("flat", "hierarchical", "tree", "compressed_multihop")
#: Indicator-statistics seeds the what-if streams draw from; the closed
#: loops synthesise all of them before timing, so the timed phase of a
#: what-if workload profiles nothing.
STAT_SEEDS = tuple(range(8))
LOSSES = ("ce", "mse")
BUDGETS = (0.005, 0.01, 0.02, 0.05)
#: One closed-loop block: seven allocator-backed (strategy, collective
#: model) slots, shuffled per block.  Every second block ends in one passive
#: baseline (uniform and dpro alternate), so the first passive is the 15th
#: plan: the median always lands on an allocator-backed plan, and so does
#: the tail (the 11th largest sample), which a passive would otherwise set
#: whenever a slow run times only 11 plans.
CLOSED_BLOCK = (
    ("qsync", "flat"),
    ("qsync", "hierarchical"),
    ("qsync+qsgd", "tree"),
    ("qsync+qsgd", "compressed_multihop"),
    ("hessian", "hierarchical"),
    ("random", "flat"),
    ("qsync", "tree"),
)
PASSIVE_COLLECTIVE = "hierarchical"

FLEET_MODEL = ("mini_bert", {"batch_size": 8, "width_scale": 8, "spatial_scale": 4})
DEEP_MODEL = ("bert", {})
SERVE_CLUSTER = "cloud_edge_4+2x2"


def fleet_cluster() -> Cluster:
    """128 ranks of four device types in 16 eight-GPU nodes."""
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
            NodeSpec(name=f"{label}{index}", ranks=ranks, intra_link=intra, uplink=ETH100G)
        )
    return Cluster(name="Fleet128", workers=tuple(workers), topology=Topology(nodes=tuple(nodes)))


def _closed_base(workload: str) -> PlanRequest:
    if workload == "fleet_whatif":
        model, kwargs = FLEET_MODEL
        return PlanRequest(model=model, model_kwargs=kwargs, cluster=fleet_cluster())
    model, kwargs = DEEP_MODEL
    return PlanRequest(model=model, model_kwargs=kwargs, cluster="cluster_a_4+4")


def setup_request(workload: str) -> PlanRequest:
    """The fixed first request of a cold session or service."""
    if workload == "serve_churn":
        return PlanRequest(model="resnet50", cluster=SERVE_CLUSTER)
    return _closed_base(workload)


def closed_stream(workload: str, seed: int):
    """Endless stream of distinct what-if requests for a closed loop.

    Block ``b`` draws from its own derived seed, so the prefix of the
    stream does not depend on how far a run gets.  A request repeats only
    once its (strategy, collective) slot has exhausted every seed × loss
    (× budget) combination.
    """
    base = _closed_base(workload)
    seen: set = set()
    for block in itertools.count():
        rng = random.Random(f"{seed}:{workload}:block:{block}")
        slots = list(CLOSED_BLOCK)
        rng.shuffle(slots)
        if block % 2 == 1:
            slots.append(("uniform" if block % 4 == 1 else "dpro", PASSIVE_COLLECTIVE))
        for strategy, collective in slots:
            for _ in range(64):
                knobs = {
                    "strategy": strategy,
                    "collective_model": collective,
                    "loss": rng.choice(LOSSES),
                    "seed": rng.choice(STAT_SEEDS),
                }
                if strategy == "qsync+qsgd":
                    knobs["compression"] = CompressionConfig(loss_budget=rng.choice(BUDGETS))
                key = tuple(sorted((k, repr(v)) for k, v in knobs.items()))
                if key not in seen:
                    break
            seen.add(key)
            request = dataclasses.replace(base, **knobs)
            yield request


#: Every third closed-loop operation is a churn replan, so the replans are
#: sampled across the whole timed phase rather than in one burst after it.
REPLAN_EVERY = 3


def closed_replans(workload: str, seed: int):
    """Endless chained churn: seed-chosen inference ranks leave and rejoin
    in turn, so every replan plans a cluster of about the same size.  The
    ranks rotate over the inference device types, so every seed churns the
    same types."""
    cluster = setup_request(workload).resolve_cluster()
    rng = random.Random(f"{seed}:{workload}:replans")
    by_type: dict[str, list] = {}
    for w in cluster.inference_workers:
        by_type.setdefault(w.device.name, []).append(w)
    pools = [rng.sample(ws, len(ws)) for _, ws in sorted(by_type.items())]
    for i in itertools.count():
        pool = pools[i % len(pools)]
        w = pool[(i // len(pools)) % len(pool)]
        yield (ClusterEvent(time=0.0, kind="leave", rank=w.rank),)
        yield (ClusterEvent(time=0.0, kind="join", rank=w.rank, device=w.device,
                            link_bandwidth=w.link_bandwidth),)


def closed_ops(workload: str, seed: int):
    """Endless closed-loop operations: ``("plan", request)`` from
    :func:`closed_stream`, with ``("replan", events)`` from
    :func:`closed_replans` as every ``REPLAN_EVERY``-th operation."""
    plans = closed_stream(workload, seed)
    replans = closed_replans(workload, seed)
    for i in itertools.count(1):
        if i % REPLAN_EVERY == 0:
            yield "replan", next(replans)
        else:
            yield "plan", next(plans)


# ---------------------------------------------------------------------------
# serve_churn
# ---------------------------------------------------------------------------

#: Offered load in schedule slots per second (a hot slot issues two
#: identical requests at once).  The client threads share one interpreter
#: lock, so this keeps one core about 40% busy: low enough that queueing
#: does not amplify a slower machine into much longer waits.
SERVE_RATE = 0.75
#: The fixed slot mix of one cycle; the seed draws each slot's parameters.
#: A hot pair needs both clients, so each one follows a short slot, and the
#: long join and degrade replans are each followed by a single request that
#: the other client can take at once; otherwise every hot pair would queue
#: behind a replan and its latency would follow that replan's.  Leaves are
#: half of all replans, so the replan median lands among them rather than
#: between them and the slower joins of a new type.
SERVE_CYCLE = (
    "hot", "whatif", "leave", "join", "whatif", "perturbed",
    "hot", "recipe", "degrade", "leave", "blocking", "restart",
)
SERVE_STRATEGIES = ("qsync", "qsync+qsgd", "hessian", "uniform", "random")
#: ``mini_bert`` recipes differ in batch size only, so each one brings new
#: catalogs (profiling plus disk writes) at a similar planning cost.
RECIPE_BATCHES = tuple(range(12, 21))
HOT_BATCH = 16


def _recipe(batch: int) -> dict:
    return {"batch_size": batch, "width_scale": 4, "spatial_scale": 2}


@dataclasses.dataclass
class Op:
    """One scheduled operation of the open loop."""

    index: int
    #: Seconds after the start of the timed phase.
    due: float
    #: Slot kind from ``SERVE_CYCLE``.
    tag: str
    #: "plan", "replan" or "restart".
    kind: str
    request: PlanRequest | None = None
    events: tuple = ()
    #: For a replan: the op whose replan context this one continues, or
    #: ``None`` to replan from ``request`` directly.
    after: int | None = None

    @property
    def checks_sequential(self) -> bool:
        """Perturbed and blocking_sync work must match the sequential
        recovery oracle."""
        return self.tag in ("perturbed", "blocking", "degrade")


def serve_schedule(seed: int, seconds: float) -> list[Op]:
    """Every operation due within ``seconds`` of the timed phase.

    Slot kinds, hot requests, strategies, collective models, slowdown
    factors and joined device types follow fixed rotations, and every
    degrade hits an inference rank; the seed draws losses, statistics
    seeds, recipes and ranks.

    Hot pairs, what-ifs and recipes plan ``mini_bert``; ``resnet50`` carries
    the perturbed, ``blocking_sync`` and churn work.  The two models' plan
    latencies form two clusters; with about half of the plan requests in
    each, the median would sit in the gap between them and flip from seed
    to seed.
    """
    rng = random.Random(f"{seed}:serve_churn")
    base = setup_request("serve_churn")
    mini = PlanRequest(model="mini_bert", model_kwargs=_recipe(HOT_BATCH), cluster=SERVE_CLUSTER)
    hot = (mini, dataclasses.replace(mini, strategy="qsync+qsgd"))
    fresh = [b for b in RECIPE_BATCHES if b != HOT_BATCH]
    rng.shuffle(fresh)
    known = [HOT_BATCH]
    inference = {w.rank for w in base.resolve_cluster().inference_workers}
    counts = dict.fromkeys(SERVE_CYCLE, 0)
    ops: list[Op] = []
    chain: dict = {}
    next_rank = 8
    for slot in range(int(seconds * SERVE_RATE)):
        due = slot / SERVE_RATE
        tag = SERVE_CYCLE[slot % len(SERVE_CYCLE)]
        nth = counts[tag]
        counts[tag] += 1

        def add(kind, request=None, events=(), after=None):
            ops.append(Op(len(ops), due, tag, kind, request, events, after))

        def knobs(strategy):
            return {
                "strategy": strategy,
                "collective_model": COLLECTIVES[nth % len(COLLECTIVES)],
                "loss": rng.choice(LOSSES),
                "seed": rng.choice(STAT_SEEDS[:4]),
            }

        if tag == "hot":
            add("plan", hot[nth % 2])
            add("plan", hot[nth % 2])
        elif tag == "whatif":
            model = dataclasses.replace(mini, model_kwargs=_recipe(rng.choice(known)))
            add("plan", dataclasses.replace(model, **knobs(SERVE_STRATEGIES[nth % 5])))
        elif tag == "perturbed":
            perturbation = Perturbation(
                seed=rng.randrange(1 << 16),
                compute_jitter=0.05,
                stragglers={rng.randrange(4, 8): 2.0},
            )
            add("plan", dataclasses.replace(base, perturbation=perturbation, **knobs("qsync")))
        elif tag == "blocking":
            add("plan", dataclasses.replace(base, schedule_policy="blocking_sync",
                                            **knobs("qsync")))
        elif tag == "recipe":
            known.append(fresh.pop())
            add("plan", dataclasses.replace(mini, model_kwargs=_recipe(known[-1]),
                                            collective_model=COLLECTIVES[nth % len(COLLECTIVES)]))
        elif tag == "leave":
            # Each cycle's churn chain starts again from the base cluster.
            chain = {"ranks": [w.rank for w in base.resolve_cluster().workers]}
            rank = rng.choice([r for r in chain["ranks"] if r >= 4])
            chain["ranks"].remove(rank)
            add("replan", base, (ClusterEvent(time=0.0, kind="leave", rank=rank),))
            chain["last"] = ops[-1].index
        elif tag == "join":
            # The first join of a run brings a new device type; later joins
            # add ranks of a type the cluster already has.
            event = ClusterEvent(time=0.0, kind="join", rank=next_rank,
                                 device=A10 if nth == 0 else T4,
                                 link_bandwidth=WAN10G.bandwidth)
            chain["ranks"].append(next_rank)
            next_rank += 1
            add("replan", events=(event,), after=chain["last"])
            chain["last"] = ops[-1].index
        elif tag == "degrade":
            # Only inference ranks degrade.  A degraded training rank slows
            # the simulated iteration, and the replan, by far more, so a mix
            # of the two would make both figures depend on the draw.
            pool = [r for r in chain["ranks"] if r in inference]
            event = ClusterEvent(time=0.0, kind="degrade", rank=rng.choice(pool), factor=2.0)
            add("replan", events=(event,), after=chain["last"])
        else:
            add("restart")
    return ops
