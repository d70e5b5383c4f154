"""The end-to-end QSync workflow (Fig. 3) — legacy compatibility surface.

``qsync_plan`` executes steps 1-5 of the paper's pipeline:

1. *Substitution* — the model graph arrives with mixed-precision-capable
   operator specs (the catalog builders).
2. *Profiling* — per device type: operator cost catalogs, casting-cost model
   fits, and indicator statistics (real instrumented runs for mini models,
   synthesized for full-size graphs).
3. *Pre-replay construction* — one Precision DAG per device type,
   indicator values.
4. *Replay and optimization* — the Allocator searches precision settings
   against the Replayer.
5. The optimized :class:`PrecisionPlan` plus a :class:`QSyncReport` come
   back; steps 6-7 (kernel configuration, actual training) live in
   :mod:`repro.backend` and :mod:`repro.parallel`.

Since the :mod:`repro.session` redesign this module is a *thin wrapper*:
both entry points delegate to an ephemeral
:class:`~repro.session.session.PlanSession`, which owns the profiling
artifacts and the planner strategies.  Callers that issue more than one
query should hold a session themselves and reuse it — repeated
``session.plan()`` calls over the same device types re-profile nothing.
"""

from __future__ import annotations

import dataclasses

from repro.backend.lp_backend import LPBackend
from repro.core.allocator import AllocationReport, AllocatorConfig
from repro.core.plan import PrecisionPlan
from repro.core.replayer import Replayer, SimulationResult
from repro.hardware.cluster import Cluster
from repro.profiling.stats import OperatorStats


@dataclasses.dataclass
class QSyncReport:
    """Everything an operator of the system wants to know post-allocation."""

    cluster: str
    model_summary: str
    allocation: AllocationReport
    final_simulation: SimulationResult

    def summary(self) -> str:
        sim = self.final_simulation
        return (
            f"[{self.cluster}] {self.model_summary}\n"
            f"  allocation: {self.allocation.summary()}\n"
            f"  predicted iteration: {sim.iteration_time * 1e3:.1f} ms "
            f"({sim.throughput:.3f} it/s)"
        )


def build_replayer(
    dag_builder,
    cluster: Cluster,
    optimizer_slots: int = 1,
    backends: dict[int, LPBackend] | None = None,
    profile_repeats: int = 3,
    collective_model=None,
) -> tuple[Replayer, dict[int, LPBackend]]:
    """Construct a Replayer with per-device-type DAGs, catalogs, and cast
    models.

    ``dag_builder()`` must return a fresh PrecisionDAG per call; it is built
    once and copied per device type, as is a PrecisionDAG instance.
    Profiling artifacts are shared across same-type workers (one catalog
    per device type, like the paper's homogeneous-set tracing).  A partial
    ``backends`` dict is filled with default :class:`LPBackend`\\ s for the
    missing ranks; a backend whose device mismatches its rank's worker
    raises :class:`ValueError`.

    Compatibility wrapper: one-shot callers only.  For repeated queries use
    :class:`repro.session.PlanSession` and keep the profiling warm.
    """
    from repro.session.request import PlanRequest
    from repro.session.session import PlanSession

    ctx = PlanSession().prepare(
        PlanRequest(
            model=dag_builder,
            cluster=cluster,
            optimizer_slots=optimizer_slots,
            profile_repeats=profile_repeats,
            collective_model=collective_model,
            backends=backends,
        )
    )
    return ctx.replayer, ctx.backends


def qsync_plan(
    dag_builder,
    cluster: Cluster,
    stats: dict[str, OperatorStats] | None = None,
    loss: str = "ce",
    batch_size: int | None = None,
    optimizer_slots: int = 1,
    indicator_factory=None,
    config: AllocatorConfig | None = None,
    collective_model=None,
    profile_repeats: int = 3,
) -> tuple[PrecisionPlan, QSyncReport]:
    """Run the QSync workflow and return (plan, report).

    Parameters
    ----------
    dag_builder:
        Zero-arg callable returning a fresh :class:`PrecisionDAG`, or a
        PrecisionDAG instance (copied per device type).
    cluster:
        Hybrid cluster topology.
    stats:
        Indicator statistics; synthesized from the graph when omitted
        (full-size models — see DESIGN.md §4).
    loss:
        ``"ce"`` or ``"mse"`` — sets the gamma of Proposition 3.
    batch_size:
        Local batch size (defaults to the graph input's leading dim).
    indicator_factory:
        Optional ``(dag, stats, gamma) -> IndicatorProtocol`` override, used
        by the baseline-indicator experiments (Table II).
    collective_model:
        All-reduce cost model name/instance; ``None`` keeps the flat-ring
        default (see :mod:`repro.parallel.comm_model`).
    profile_repeats:
        Measurements averaged per catalog entry (the experiments use 2/3).

    Compatibility wrapper over ``PlanSession().plan(request)`` with the
    ``"qsync"`` strategy.
    """
    from repro.session.request import PlanRequest
    from repro.session.session import PlanSession

    outcome = PlanSession().plan(
        PlanRequest(
            model=dag_builder,
            cluster=cluster,
            stats=stats,
            loss=loss,
            batch_size=batch_size,
            optimizer_slots=optimizer_slots,
            indicator=indicator_factory,
            config=config,
            collective_model=collective_model,
            profile_repeats=profile_repeats,
        )
    )
    return outcome.plan, outcome.report
