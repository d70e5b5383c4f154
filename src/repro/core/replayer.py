"""The Replayer: throughput estimation ``E(.)`` and memory ``M_i(.)``.

QSync plans per device type: every worker of one type runs the same
precision plan.  The Replayer therefore keeps one Precision DAG and one
Cost Mapper per device type, plus a rank -> type map; ranks appear only
where they really differ — the per-rank :class:`LocalDFG` views handed to
the engine (and its perturbations) and the per-rank dicts of a
:class:`SimulationResult`.  :meth:`simulate` plays the global DFG forward
under the synchronous-collective recurrence of Eq. (6):

.. math::

    comm^{start}_n = \\max(\\max_i comm^{start}_{i,n},\\; comm^{end}_{n-1})

    comm^{end}_n = comm^{start}_n + \\max_i comm^{dur}_{i,n}

i.e. bucket ``n`` starts when every device has produced its gradients *and*
the previous collective finished; it lasts as long as the slowest
participant.  The iteration latency is the max across devices of
(compute end vs last collective end) plus the optimizer step.

Caches (incremental mode only) — key; invalidation; bound:

* ``_type_dfg_cache`` — type -> LocalDFG; precision signature + structure
  fingerprint mismatch (entries may be adopted from a pre-churn replayer);
  one per type.
* ``_type_memory`` — type -> MemoryEstimate; DAG version move; one per type.
* ``_mem_sig_cache`` — (fingerprint, signature) -> MemoryEstimate, shared
  by types and replayers; LRU eviction; :data:`MEMORY_CACHE_BOUND`.
* ``_kernel_local_cache`` — as ``_type_dfg_cache``, -> CompiledLocal or
  a cached ``None`` ("won't lower").
* ``_kernel_global_cache`` — every type's (name, signature, fingerprint)
  + compression bits -> CompiledGlobal; replaced on mismatch; one entry.
* ``_comm_price_cache`` — per-type bucket sizes + bits -> bucket
  durations; cleared when ``collective_model`` is swapped; one per
  distinct size tuple (compression levels and structures only).
* ``_kernel_fast`` / ``_kernel_result_cache`` — (cluster, collective
  model, bits, per-type DAG versions) or the CompiledGlobal's identity
  (results and per-rank memory); replaced on mismatch; one entry each.
* Each type mapper's segment memo (:meth:`CostMapper.hold_segment_memo`)
  — (op, its effective precision, its predecessors' and successors'
  effective precisions) -> the op's derived segment; emptied on a
  ``structure_version`` move; held only inside :meth:`segment_memos`
  (one ``Allocator.allocate()``), so it is bounded by the distinct
  one-hop neighbourhoods one allocation visits and a retained replayer
  keeps none.
"""

from __future__ import annotations

import contextlib
import dataclasses
import types

from repro.common.dtypes import Precision
from repro.core.cost_mapper import CostMapper
from repro.core.dfg import GlobalDFG, LocalDFG
from repro.engine.perturbation import Perturbation  # repro: allow RPR004 dispatch tiers (PR 5): the Replayer validates policy/perturbation kwargs at construction, before any engine run
from repro.engine.policy import DDPOverlapPolicy, SchedulePolicy, resolve_schedule_policy  # repro: allow RPR004 dispatch tiers (PR 5): non-default policies route through the engine; the engine itself never imports core's Replayer
from repro.graph.dag import PrecisionDAG
from repro.hardware.cluster import Cluster
from repro.kernel import (
    compile_global,
    compile_local,
    evaluate as kernel_evaluate,
    candidate_row as kernel_candidate_row,
    simulate_batch as kernel_simulate_batch,
    HAVE_NUMPY,
)
from repro.parallel.comm_model import CollectiveModel, resolve_collective_model
from repro.quant.qsgd import level_bits
from repro.profiling.casting import CastCostCalculator
from repro.profiling.memory import MemoryEstimate, MemoryModel
from repro.profiling.profiler import OperatorCostCatalog

#: Entries kept by a replayer's signature-keyed memory-estimate LRU.
MEMORY_CACHE_BOUND = 8192


@dataclasses.dataclass
class TimelineEvent:
    """One executed interval, for Fig. 6-style waterfalls."""

    rank: int
    device: str
    stream: str
    start: float
    end: float
    label: str


@dataclasses.dataclass
class ReplayerStats:
    """Counters for the incremental replay engine (diagnostics/benchmarks)."""

    simulate_calls: int = 0
    #: Device-type DFG served from the type cache (signature unchanged).
    local_cache_hits: int = 0
    memory_evals: int = 0
    memory_cache_hits: int = 0
    #: simulate() calls served by the compiled array kernel (PR 8).
    kernel_sims: int = 0
    #: Candidates evaluated through the batched what-if kernel sweep.
    whatif_evals: int = 0


class BoundedLRU(dict):
    """A dict of its ``bound`` most recently used entries, oldest first
    (a plain dict, so copies and merges reuse the stored key hashes)."""

    def __init__(self, bound: int) -> None:
        super().__init__()
        self.bound = bound

    def hit(self, key):
        """The cached value (refreshed as most recent), or ``None``."""
        value = self.pop(key, None)
        if value is not None:
            self[key] = value
        return value

    def put(self, key, value) -> None:
        """Insert a key that :meth:`hit` just missed."""
        self[key] = value
        if len(self) > self.bound:
            del self[next(iter(self))]

    def adopt(self, older: dict) -> None:
        """Merge ``older``'s entries in as less recently used than ours."""
        if older:
            mine = dict(self)
            self.clear()
            self.update(older)
            for key in mine:
                self.pop(key, None)
            self.update(mine)
        while len(self) > self.bound:
            del self[next(iter(self))]


@dataclasses.dataclass
class SimulationResult:
    """Outcome of one global-DFG simulation."""

    iteration_time: float
    per_device_compute: dict[int, float]
    comm_wait_time: dict[int, float]
    memory: dict[int, MemoryEstimate]
    timeline: list[TimelineEvent]

    @property
    def throughput(self) -> float:
        """Iterations per second."""
        return 1.0 / self.iteration_time if self.iteration_time > 0 else float("inf")


class Replayer:
    """Simulates hybrid mixed-precision distributed training.

    Planning state is per device type (``device.name``), taken from the
    type's first rank in cluster order.  :attr:`dags` and :attr:`mappers`
    are read-only rank -> type-state mappings: a write through
    ``replayer.dags[rank]`` reaches every rank of the type.

    Parameters
    ----------
    cluster:
        Worker topology (provides the all-reduce cost model).
    dags:
        Per-rank Precision DAGs; same-type ranks share one object or
        agree on ``structure_fingerprint()`` and ``precision_signature()``.
    catalogs, cast_calcs:
        Per-rank profiled cost catalogs and fitted casting models;
        same-type ranks map to the same objects (a ``ValueError`` names
        the rank that breaks either rule).
    optimizer_slots:
        Memory-model optimizer state multiplier.
    collective_model:
        All-reduce cost model (name, instance, or ``None`` for the flat-ring
        default — the legacy single-bottleneck ring, bit-identical to the
        pre-topology Replayer).
    schedule_policy:
        Execution schedule (name, instance, or ``None`` for the DDP-overlap
        default — the Eq. (6) semantics, bit-identical to the analytic
        path).  Non-default policies run through the discrete-event engine.
    perturbation:
        Optional deterministic straggler/bandwidth-drift injection
        (:class:`repro.engine.Perturbation`); also routed through the
        engine.
    use_kernel:
        Compiled-array-kernel dispatch tier (:mod:`repro.kernel`).
        ``None`` (the default) enables it when numpy is importable;
        ``True`` requests it (still subject to numpy availability and
        incremental mode); ``False`` pins the object path.  The kernel is
        bit-identical to the analytic Eq. (6) fast path and only serves
        the same calls that path would (default policy, no perturbation,
        no timeline).
    """

    def __init__(
        self,
        cluster: Cluster,
        dags: dict[int, PrecisionDAG],
        catalogs: dict[int, OperatorCostCatalog],
        cast_calcs: dict[int, CastCostCalculator],
        optimizer_slots: int = 1,
        bucket_cap_bytes: int = 25 * 1024**2,
        incremental: bool = True,
        collective_model: CollectiveModel | str | None = None,
        schedule_policy: SchedulePolicy | str | None = None,
        perturbation: Perturbation | None = None,
        use_kernel: bool | None = None,
    ) -> None:
        self.cluster = cluster
        self.collective_model = resolve_collective_model(collective_model)
        self.schedule_policy = resolve_schedule_policy(schedule_policy)
        self.perturbation = perturbation
        #: Per-bucket QSGD compression levels (the joint-planning axis), or
        #: ``None`` for uncompressed.  Set via :meth:`set_bucket_compression`;
        #: all-zero levels normalize to ``None`` so level 0 takes the exact
        #: legacy code path on every dispatch tier (the parity contract).
        self.bucket_compression: tuple[int, ...] | None = None
        self.memory_model = MemoryModel(optimizer_slots=optimizer_slots)
        #: When False every simulate() rebuilds every rank's DFG and memory
        #: estimate from scratch (the pre-caching behaviour) — kept as the
        #: reference mode for equivalence tests and the speed benchmark.
        self.incremental = incremental
        self.stats = ReplayerStats()
        # rank -> device type, and type -> its first rank (the rank the
        # type's DFG is built for; other ranks get views of it).
        self._type_of: dict[int, str] = {}
        self._first_rank: dict[str, int] = {}
        self._type_mappers: dict[str, CostMapper] = {}
        for worker in cluster.workers:
            rank, tname = worker.rank, worker.device.name
            self._type_of[rank] = tname
            first = self._first_rank.setdefault(tname, rank)
            if first == rank:
                self._type_mappers[tname] = CostMapper(
                    dags[rank], catalogs[rank], cast_calcs[rank],
                    device=worker.device, bucket_cap_bytes=bucket_cap_bytes,
                )
                continue
            mapper = self._type_mappers[tname]
            dag, ref = dags[rank], mapper.dag
            if dag is not ref and (
                dag.structure_fingerprint() != ref.structure_fingerprint()
                or dag.precision_signature() != ref.precision_signature()
            ):
                what = "DAG"
            elif catalogs[rank] is mapper.catalog and (
                cast_calcs[rank] is mapper.cast_calc
            ):
                continue
            else:
                what = "catalog or cast calculator"
            raise ValueError(
                f"rank {rank}: its {tname} {what} is not rank {first}'s; "
                f"same-type ranks share one planning state"
            )
        self.dags = types.MappingProxyType(
            {r: self._type_mappers[t].dag for r, t in self._type_of.items()}
        )
        self.mappers = types.MappingProxyType(
            {r: self._type_mappers[t] for r, t in self._type_of.items()}
        )
        self._type_dfg_cache: dict[str, tuple[tuple, int, LocalDFG]] = {}
        self._type_memory: dict[str, tuple[int, MemoryEstimate]] = {}
        self._mem_sig_cache = BoundedLRU(MEMORY_CACHE_BOUND)
        self.use_kernel = (
            HAVE_NUMPY if use_kernel is None else bool(use_kernel) and HAVE_NUMPY
        )
        self._kernel_local_cache: dict[str, tuple[tuple, int, object]] = {}
        self._kernel_global_cache: tuple[tuple, object] | None = None
        # The pricing itself always goes through bucket_comm_durations so
        # the kernel and analytic tiers cannot drift.
        self._comm_price_cache: dict[tuple, list[float]] = {}
        self._priced_model: CollectiveModel = self.collective_model
        self._kernel_fast: tuple | None = None
        self._kernel_result_cache: tuple | None = None

    # ------------------------------------------------------------------
    def apply_plan(self, rank: int, plan: dict[str, Precision]) -> None:
        """Install a per-op precision plan on the rank's device type."""
        self.dags[rank].apply_plan(plan)

    def set_bucket_compression(
        self, levels: tuple[int, ...] | list[int] | None
    ) -> None:
        """Install per-bucket QSGD compression levels (``None`` = off).

        Levels are validated against the :data:`~repro.quant.qsgd.LEVEL_BITS`
        ladder; an all-zero assignment normalizes to ``None`` so the
        uncompressed configuration is *indistinguishable* from never having
        touched the axis — same cache keys, same float operations, same
        bits on every tier (object, engine, kernel).
        """
        if levels is None:
            self.bucket_compression = None
            return
        levels = tuple(int(lvl) for lvl in levels)
        for lvl in levels:
            level_bits(lvl)  # raises ValueError on unknown rungs
        self.bucket_compression = levels if any(levels) else None

    def _bucket_bits(self) -> tuple[int, ...] | None:
        """Per-bucket wire bit widths of the current compression levels,
        or ``None`` when uncompressed (the hot-path branch: one attribute
        read on every simulate)."""
        levels = self.bucket_compression
        if levels is None:
            return None
        return tuple(level_bits(lvl) for lvl in levels)

    def full_rebuilds(self) -> int:
        """Total from-scratch LocalDFG constructions across all mappers."""
        return sum(m.full_rebuilds for m in self._type_mappers.values())

    def incremental_updates(self) -> int:
        """Total delta DFG updates across all mappers."""
        return sum(m.incremental_updates for m in self._type_mappers.values())

    def adopt_shared_state(self, other: "Replayer") -> int:
        """Adopt another replayer's device-type DFGs and memory estimates.

        The elastic re-planning entry point: after a membership change, the
        surviving device types have already built (and signed) their DFGs
        in the pre-churn replayer, so a fresh replayer over the new cluster
        serves them from ``other`` instead of re-deriving them.  A type is
        adopted only when both replayers (incremental) map it to the same
        catalog and cast calculator objects with equal bucket caps.  A
        stale entry is harmless: :meth:`local_dfg` serves it only on an
        exact signature + fingerprint match.

        Returns the number of device-type DFG entries adopted.
        """
        if not (self.incremental and other.incremental):
            return 0
        adopted = 0
        for tname, entry in other._type_dfg_cache.items():
            mine = self._type_mappers.get(tname)
            theirs = other._type_mappers[tname]
            if (
                mine is not None
                and mine.catalog is theirs.catalog
                and mine.cast_calc is theirs.cast_calc
                and mine.bucket_cap_bytes == theirs.bucket_cap_bytes
            ):
                self._type_dfg_cache[tname] = entry
                adopted += 1
        # Memory estimates are device-independent but scale with slots.
        if self.memory_model.optimizer_slots == other.memory_model.optimizer_slots:
            self._mem_sig_cache.adopt(other._mem_sig_cache)
        return adopted

    # ------------------------------------------------------------------
    def _type_dfg(self, tname: str) -> LocalDFG:
        """The device type's LocalDFG (built for its first rank) under its
        current precisions; a miss costs the mapper a delta update."""
        dag = self._type_mappers[tname].dag
        sig = dag.precision_signature()
        fingerprint = dag.structure_fingerprint()
        entry = self._type_dfg_cache.get(tname)
        if entry is not None and entry[0] == sig and entry[1] == fingerprint:
            self.stats.local_cache_hits += 1
            return entry[2]
        dfg = self._type_mappers[tname].current_dfg(tname, self._first_rank[tname])
        self._type_dfg_cache[tname] = (sig, fingerprint, dfg)
        return dfg

    def local_dfg(self, rank: int) -> LocalDFG:
        """The rank's LocalDFG under its type's current precisions: the
        type DFG itself, or a view of it that shares every node list."""
        tname = self._type_of[rank]
        if not self.incremental:
            return self._type_mappers[tname].build_local_dfg(tname, rank)
        dfg = self._type_dfg(tname)
        return dfg if dfg.rank == rank else dfg.view_for_rank(rank)

    def compute_time(self, rank: int) -> float:
        """``local_dfg(rank).compute_time`` (no communication).  In
        incremental mode the type mapper sums its retained segment
        durations instead of assembling a DFG — the allocator's
        brute-force trials read only this."""
        if not self.incremental:
            return self.local_dfg(rank).compute_time
        return self._type_mappers[self._type_of[rank]].compute_time()

    @contextlib.contextmanager
    def segment_memos(self):
        """Memoize every type mapper's segments for the block (see
        :class:`CostMapper`), releasing them on exit so a retained
        replayer does not grow."""
        for mapper in self._type_mappers.values():
            mapper.hold_segment_memo()
        try:
            yield
        finally:
            for mapper in self._type_mappers.values():
                mapper.release_segment_memo()

    def build_global_dfg(self) -> GlobalDFG:
        return GlobalDFG([self.local_dfg(w.rank) for w in self.cluster.workers])

    # ------------------------------------------------------------------
    # compiled array kernel tier (repro.kernel; PR 8)
    # ------------------------------------------------------------------
    def _compiled_local(self, tname: str):
        """The type's :class:`repro.kernel.CompiledLocal`, keyed like
        ``_type_dfg_cache``; a ``None`` "won't lower" verdict is cached
        too, so failures don't retry on every call."""
        dag = self._type_mappers[tname].dag
        sig = dag.precision_signature()
        fingerprint = dag.structure_fingerprint()
        entry = self._kernel_local_cache.get(tname)
        if entry is not None and entry[0] == sig and entry[1] == fingerprint:
            return entry[2]
        dfg = self._type_dfg(tname)
        compiled = compile_local(dfg, self._type_mappers[tname].kernel_layout())
        self._kernel_local_cache[tname] = (sig, fingerprint, compiled)
        return compiled

    def _dag_versions(self) -> list:
        """Mutation counters of every type's DAG — the kernel fast path's
        revalidation key (monotone: mutate-and-revert never replays one)."""
        return [
            (m.dag.version, m.dag.structure_version)
            for m in self._type_mappers.values()
        ]

    def compiled_global(self):
        """The compiled representation of the current global DFG, or None.

        ``None`` whenever the kernel tier cannot serve bit-identically:
        numpy missing or the tier disabled, non-incremental mode, or a
        type DFG that refuses to lower.  Callers fall back to the object
        path.
        """
        if not (self.use_kernel and self.incremental):
            return None
        versions = self._dag_versions()
        bits = self._bucket_bits()
        fast = self._kernel_fast
        if (
            fast is not None
            and fast[0] is self.cluster
            and fast[1] is self.collective_model
            and fast[2] == bits
            and fast[3] == versions
        ):
            return fast[4]
        if self._priced_model is not self.collective_model:
            # collective_model was swapped (e.g. topology experiments):
            # every priced duration is stale, so reprice from scratch.
            self._comm_price_cache.clear()
            self._kernel_global_cache = None
            self._priced_model = self.collective_model
        by_type: dict[str, object] = {}
        key_parts = []
        for tname in self._type_mappers:
            cl = self._compiled_local(tname)
            if cl is None:
                return None
            by_type[tname] = cl
            entry = self._kernel_local_cache[tname]
            key_parts.append((tname, entry[0], entry[1]))
        # The compression axis rides in every pricing/compilation key: a
        # level change recompiles the global (durations are baked into the
        # CompiledGlobal), and level 0 normalizes to None so uncompressed
        # keys are byte-identical to the pre-compression ones.
        gkey = (tuple(key_parts), bits)
        cached = self._kernel_global_cache
        if cached is not None and cached[0] == gkey:
            self._kernel_fast = (
                self.cluster, self.collective_model, bits, versions, cached[1]
            )
            return cached[1]
        size_key = (tuple(cl.bucket_nbytes for cl in by_type.values()), bits)
        durs = self._comm_price_cache.get(size_key)
        if durs is None:
            # Same-type ranks hold the same buckets: one DFG per type
            # prices exactly what every rank's would.
            durs = bucket_comm_durations(
                [self._type_dfg(tname) for tname in by_type],
                self.cluster, self.collective_model, bits,
            )
            self._comm_price_cache[size_key] = durs
        cg = compile_global(
            [(w.rank, by_type[self._type_of[w.rank]]) for w in self.cluster.workers],
            durs,
        )
        if cg is None:
            return None
        self._kernel_global_cache = (gkey, cg)
        self._kernel_fast = (
            self.cluster, self.collective_model, bits, versions, cg
        )
        return cg

    def _kernel_result(self, cg) -> SimulationResult:
        """One Eq. (6) evaluation on the compiled arrays."""
        cached = self._kernel_result_cache
        if cached is not None and cached[0] is cg:
            _, iteration, per_device_compute, comm_wait, memory = cached
        else:
            iteration, comm_end = kernel_evaluate(cg)
            per_device_compute = {}
            comm_wait = {}
            for w in self.cluster.workers:
                cl = cg.locals[cg.local_of_rank[w.rank]]
                # compute_end + opt is the object path's compute_time
                # addition order ((fwd + bwd) + opt) — bit-identical by
                # construction.
                per_device_compute[w.rank] = cl.compute_end + cl.opt
                comm_wait[w.rank] = max(0.0, comm_end - cl.compute_end)
            # A compilation fixes every type's signature, and with it
            # every footprint.
            memory = self._memory_by_rank()
            self._kernel_result_cache = (
                cg, iteration, per_device_compute, comm_wait, memory
            )
        # The per-rank dicts are shared across results of one compilation
        # (results are read-only by the same convention as published DFGs);
        # a fresh SimulationResult still wraps them per call.
        return SimulationResult(
            iteration_time=iteration,
            per_device_compute=per_device_compute,
            comm_wait_time=comm_wait,
            memory=memory,
            timeline=[],
        )

    def whatif_candidates(self, candidates):
        """Evaluate ``(rank, op, target)`` what-ifs in one batched sweep.

        The allocator's recovery hot loop: each candidate is described
        mutation-free by :meth:`CostMapper.whatif_change`, spliced into the
        compiled base by :func:`repro.kernel.candidate_row`, and the whole
        batch plays Eq. (6) in one :func:`repro.kernel.simulate_batch`
        call.  Returns one ``(throughput, memory_total_bytes)`` pair per
        candidate — bit-identical to apply + ``simulate()`` + revert — or
        ``None`` when the kernel tier cannot serve the batch (callers fall
        back to the sequential path).  The DAGs are never touched.
        """
        if not candidates:
            return []
        cg = self.compiled_global()
        if cg is None:
            return None
        rows = []
        local_indices = []
        compute_ends = []
        mem_totals = []
        for rank, op, target in candidates:
            cl = cg.locals[cg.local_of_rank[rank]]
            change = self.mappers[rank].whatif_change(op, target)
            rc = kernel_candidate_row(cl, change)
            if rc is None:
                return None
            row, compute_end = rc
            rows.append(row)
            local_indices.append(cg.local_of_rank[rank])
            compute_ends.append(compute_end)
            # Mirrors memory_estimate()'s MemoryEstimate.total (all-int).
            weights = (
                self.dags[rank].total_weight_elems() * Precision.FP32.nbytes
            )
            mem_totals.append(
                weights
                + change.wcopy_total
                + weights
                + self.memory_model.optimizer_slots * weights
                + change.act_total
                + change.workspace
            )
        iterations = kernel_simulate_batch(cg, rows, local_indices, compute_ends)
        self.stats.whatif_evals += len(rows)
        results = []
        for iteration, mem in zip(iterations.tolist(), mem_totals):
            throughput = 1.0 / iteration if iteration > 0 else float("inf")
            results.append((throughput, mem))
        return results

    # ------------------------------------------------------------------
    def simulate(
        self,
        collect_timeline: bool = False,
        schedule_policy: SchedulePolicy | str | None = None,
        perturbation: Perturbation | None = None,
    ) -> SimulationResult:
        """Estimate one iteration's latency under current precisions.

        ``schedule_policy``/``perturbation`` override the instance defaults
        for this call only.  The default DDP-overlap schedule without a
        timeline stays on the Eq. (6) fast path (the allocator hot loop) —
        served by the compiled array kernel when available, the analytic
        object recurrence otherwise, bit-identical either way; timeline
        collection, alternative policies, and perturbations run through
        the discrete-event engine — bit-identical on the default policy.
        """
        self.stats.simulate_calls += 1
        policy = (
            self.schedule_policy
            if schedule_policy is None
            else resolve_schedule_policy(schedule_policy)
        )
        pert = self.perturbation if perturbation is None else perturbation
        # Kernel tier: exactly the calls execute_global_dfg would route to
        # the analytic fast path (same guard), minus anything the compiled
        # representation can't serve (then the kernel declines and the
        # object path runs).
        if (
            not collect_timeline
            and (pert is None or pert.is_noop)
            and type(policy) is DDPOverlapPolicy
        ):
            cg = self.compiled_global()
            if cg is not None:
                self.stats.kernel_sims += 1
                return self._kernel_result(cg)
        gdfg = self.build_global_dfg()
        # One dispatcher owns the analytic-vs-engine choice.
        from repro.engine.core import execute_global_dfg

        return execute_global_dfg(
            gdfg, self.cluster, collect_timeline=collect_timeline,
            memory=self._memory_by_rank(), collective_model=self.collective_model,
            schedule_policy=policy, perturbation=pert,
            bucket_bits=self._bucket_bits(),
        )

    def _memory_by_rank(self) -> dict[int, MemoryEstimate]:
        by_type = {t: self.memory_estimate(r) for t, r in self._first_rank.items()}
        return {w.rank: by_type[self._type_of[w.rank]] for w in self.cluster.workers}

    def memory_estimate(self, rank: int) -> MemoryEstimate:
        """``M_i``: the footprint of the rank's device type's plan."""
        tname = self._type_of[rank]
        dag = self._type_mappers[tname].dag
        if not self.incremental:
            return self.memory_model.estimate(dag)
        version = dag.version
        entry = self._type_memory.get(tname)
        if entry is not None and entry[0] == version:
            self.stats.memory_cache_hits += 1
            return entry[1]
        sig_key = (dag.structure_fingerprint(), dag.precision_signature())
        est = self._mem_sig_cache.hit(sig_key)
        if est is None:
            # Precision-dependent terms come from the mapper's incrementally
            # maintained per-op contributions (O(affected), not O(graph));
            # the structural terms are precision-independent.
            self.stats.memory_evals += 1
            wcopies, acts, workspace = self._type_mappers[tname].memory_components()
            weights = dag.total_weight_elems() * Precision.FP32.nbytes
            est = MemoryEstimate(
                weights=weights,
                weight_copies=wcopies,
                gradients=weights,
                optimizer=self.memory_model.optimizer_slots * weights,
                activations=acts,
                workspace=workspace,
            )
            self._mem_sig_cache.put(sig_key, est)
        else:
            self.stats.memory_cache_hits += 1
        self._type_memory[tname] = (version, est)
        return est


def bucket_comm_durations(
    locals_: list[LocalDFG],
    cluster: Cluster,
    comm_model: CollectiveModel,
    bucket_bits: tuple[int, ...] | None = None,
) -> list[float]:
    """Per-bucket collective durations, priced once per distinct size.

    In synchronous data parallelism every rank's bucket ``n`` holds the
    same gradients, so the historical per-rank re-pricing of an identical
    collective was pure waste; one call per distinct byte count yields the
    same max bit-for-bit.  Shared by the analytic Eq. (6) path, the
    compiled kernel tier, and the discrete-event engine's COMM events so
    their pricing cannot drift.

    ``bucket_bits`` optionally carries per-bucket gradient bit widths (the
    compression axis): pricing then routes through
    :meth:`~repro.parallel.comm_model.CollectiveModel.allreduce_time_bits`
    keyed on ``(nbytes, bits)``.  ``None`` — the default everywhere — takes
    the exact historical code path, so uncompressed callers cannot drift
    by a single float operation.

    Two short-circuits, both value-preserving: when every local shares one
    bucket list object (the ``view_for_rank`` common case) the per-bucket
    size set collapses to the reference bucket's own size without scanning
    ranks, and each distinct byte count is priced at most once across the
    whole call (``allreduce_time`` is a pure function of cluster + size).
    """
    ref = locals_[0].buckets
    all_shared = all(ldfg.buckets is ref for ldfg in locals_)
    if bucket_bits is not None and len(bucket_bits) != len(ref):
        raise ValueError(
            f"bucket_bits has {len(bucket_bits)} entries for "
            f"{len(ref)} buckets"
        )
    price: dict = {}
    durations: list[float] = []
    for n in range(len(ref)):
        if all_shared:
            sizes: tuple[int, ...] | set[int] = (ref[n].nbytes,)
        else:
            sizes = {ldfg.buckets[n].nbytes for ldfg in locals_}
        slowest: float | None = None
        for nbytes in sizes:
            if bucket_bits is None:
                key = nbytes
            else:
                key = (nbytes, bucket_bits[n])
            dur = price.get(key)
            if dur is None:
                if bucket_bits is None:
                    dur = comm_model.allreduce_time(cluster, nbytes)
                else:
                    dur = comm_model.allreduce_time_bits(
                        cluster, nbytes, bucket_bits[n]
                    )
                price[key] = dur
            if slowest is None or dur > slowest:
                slowest = dur
        durations.append(slowest)
    return durations


def simulate_global_dfg(
    gdfg: GlobalDFG,
    cluster: Cluster,
    collect_timeline: bool = False,
    memory: dict[int, MemoryEstimate] | None = None,
    collective_model: CollectiveModel | str | None = None,
    bucket_bits: tuple[int, ...] | None = None,
) -> SimulationResult:
    """Play a global DFG through Eq. (6) — the analytic closed form.

    Separated from :class:`Replayer` so the ground-truth simulator can reuse
    the identical synchronization semantics with its own (noisy) node
    durations — keeping Table III's comparison about *cost modelling*, not
    about divergent schedulers.  ``collective_model`` prices each bucket's
    all-reduce; the default flat ring reproduces
    :meth:`Cluster.allreduce_time` bit-for-bit.

    This closed form is also the parity oracle for the discrete-event
    engine (:mod:`repro.engine`): under the default
    :class:`~repro.engine.policy.DDPOverlapPolicy` with no perturbation the
    engine must reproduce it bit-for-bit, timeline included.

    ``bucket_bits`` (per-bucket gradient bit widths, the compression axis)
    is forwarded to :func:`bucket_comm_durations`; ``None`` keeps the
    uncompressed pricing bit-identical.
    """
    comm_model = resolve_collective_model(collective_model)
    locals_ = gdfg.locals
    timeline: list[TimelineEvent] = []

    # Per-device CUDA-stream times.
    compute_end: dict[int, float] = {}
    ready_times: dict[int, dict[int, float]] = {}
    for ldfg in locals_:
        ready_times[ldfg.rank] = ldfg.bucket_ready_times()
        compute_end[ldfg.rank] = ldfg.forward_time + ldfg.backward_time
        if collect_timeline:
            _emit_stream_timeline(ldfg, timeline)

    # Synchronous collectives: Eq. (6).  Pricing is hoisted out of the
    # recurrence — one call per bucket, not one per (bucket, rank).
    durations = bucket_comm_durations(locals_, cluster, comm_model, bucket_bits)
    comm_end_prev = 0.0
    comm_end_final: float = 0.0
    for n in range(gdfg.n_buckets):
        start_candidates = [ready_times[ld.rank][n] for ld in locals_]
        comm_start = max(max(start_candidates), comm_end_prev)
        comm_end = comm_start + durations[n]
        if collect_timeline:
            for ldfg in locals_:
                timeline.append(
                    TimelineEvent(
                        rank=ldfg.rank,
                        device=ldfg.device_name,
                        stream="comm",
                        start=comm_start,
                        end=comm_end,
                        label=f"allreduce:bucket{n}",
                    )
                )
        comm_end_prev = comm_end
        comm_end_final = comm_end

    # Iteration end per device: optimizer runs after both the local backward
    # and the final collective complete.
    iteration_time = 0.0
    per_device_compute: dict[int, float] = {}
    comm_wait: dict[int, float] = {}
    for ldfg in locals_:
        rank = ldfg.rank
        opt = ldfg.optimizer.duration if ldfg.optimizer else 0.0
        local_done = max(compute_end[rank], comm_end_final)
        comm_wait[rank] = max(0.0, comm_end_final - compute_end[rank])
        end = local_done + opt
        per_device_compute[rank] = ldfg.compute_time
        if collect_timeline and ldfg.optimizer:
            timeline.append(
                TimelineEvent(rank, ldfg.device_name, "cuda", local_done, end, "optimizer")
            )
        iteration_time = max(iteration_time, end)

    return SimulationResult(
        iteration_time=iteration_time,
        per_device_compute=per_device_compute,
        comm_wait_time=comm_wait,
        memory=memory or {},
        timeline=timeline,
    )


def _emit_stream_timeline(ldfg: LocalDFG, timeline: list[TimelineEvent]) -> None:
    t = 0.0
    for node in (*ldfg.forward, *ldfg.backward):
        timeline.append(
            TimelineEvent(
                rank=ldfg.rank,
                device=ldfg.device_name,
                stream="cuda",
                start=t,
                end=t + node.duration,
                label=node.name,
            )
        )
        t += node.duration
