"""Per-layer tracing from outside the program.

The planner has no spans of its own, so the benchmark wraps the public
functions of each layer at the name their caller resolves (a class
attribute, or a module global bound by ``from ... import``), times every
call, and restores the originals afterwards.  Wrappers pass arguments and
results through untouched; the benchmark proves this by comparing the
output digest of a traced pass with that of an untraced pass.

Each wrapped call is a span.  A span's self time is its duration minus the
time of the wrapped calls made inside it, so self times of nested layers
add up without double counting.  Each thread keeps its own span stack and
counters (the serving workload plans on two client threads); they are
merged when the pass ends.  The hot replayer calls (about 190k
``memory_estimate`` calls per fleet plan) are aggregated as a count plus
busy time per name, never stored one by one.
"""

from __future__ import annotations

import threading
import time

perf_counter = time.perf_counter

#: Span names whose self time is not attributed to any layer: the planner
#: strategy glue inside ``PlanSession.plan`` (indicator construction, the
#: passive baselines).  ``bench.coverage_frac`` leaves it uncovered.
UNATTRIBUTED = ("session.plan",)


class _ThreadState(threading.local):
    def __init__(self, registry: list) -> None:
        # Bottom frame collects the time of top-level spans; never popped.
        self.stack = [0.0]
        self.slots: dict[str, list] = {}
        # [stack depth of the running allocate, simulate return times]
        self.alloc: list | None = None
        registry.append(self.slots)


class Tracer:
    """Installs timing wrappers around the planner's layer boundaries.

    ``slots`` maps a span name to ``[calls, total_s, self_s]``; the
    ``extra`` counters hold values read off returned objects (allocation
    reports, replan outcomes, replayer statistics).
    """

    def __init__(self) -> None:
        self._registry: list[dict] = []
        self._state = _ThreadState(self._registry)
        self._patches: list[tuple[object, str, object]] = []
        self._lock = threading.Lock()
        self.replayer_stats: list = []
        self.extra: dict[str, float] = {}

    # -- span primitives ------------------------------------------------
    def _span(self, name: str, fn):
        state = self._state

        def wrapper(*args, **kwargs):
            stack = state.stack
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                stack[-1] += dt
                slots = state.slots
                slot = slots.get(name)
                if slot is None:
                    slot = slots[name] = [0, 0.0, 0.0]
                slot[0] += 1
                slot[1] += dt
                slot[2] += dt - child

        wrapper.__wrapped__ = fn
        return wrapper

    def _add(self, key: str, value: float) -> None:
        with self._lock:
            self.extra[key] = self.extra.get(key, 0.0) + value

    # -- installation ---------------------------------------------------
    def _patch(self, owner, attr: str, make) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        import repro.baselines.dpro as dpro_mod
        import repro.core.replayer as replayer_mod
        import repro.engine.core as engine_mod
        import repro.session.planners as planners_mod
        from repro.core.allocator import Allocator
        from repro.core.replayer import Replayer
        from repro.service.service import PlanService
        from repro.session.profiles import ProfileStore
        from repro.session.session import PlanSession

        span = self._span
        self._patch(PlanSession, "plan", lambda f: span("session.plan", f))
        self._patch(PlanSession, "prepare", lambda f: span("session.prepare", f))
        self._patch(PlanSession, "replan", self._wrap_replan)
        for attr in ("catalog_for", "cast_calc_for", "stats_for", "template_for"):
            self._patch(ProfileStore, attr, lambda f: span("profiling", f))
        self._patch(Allocator, "allocate", self._wrap_allocate)
        self._patch(Replayer, "__init__", self._wrap_replayer_init)
        self._patch(Replayer, "simulate", self._wrap_simulate)
        for attr, name in (
            ("memory_estimate", "core.replayer.memory_estimate"),
            ("apply_plan", "core.replayer.apply_plan"),
            ("local_dfg", "core.replayer.local_dfg"),
            ("whatif_candidates", "core.replayer.whatif"),
        ):
            self._patch(Replayer, attr, lambda f, n=name: span(n, f))
        for attr in ("compile_local", "compile_global"):
            self._patch(replayer_mod, attr, lambda f: span("kernel.compile", f))
        for attr in ("kernel_simulate_batch", "kernel_candidate_row"):
            self._patch(replayer_mod, attr, lambda f: span("kernel.batch", f))
        self._patch(
            planners_mod, "allocate_compression",
            lambda f: span("core.compression", f),
        )
        for mod in (engine_mod, dpro_mod):
            self._patch(mod, "execute_global_dfg", lambda f: span("engine", f))
        self._patch(PlanService, "plan", lambda f: span("service", f))
        self._patch(PlanService, "replan", lambda f: span("service", f))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- wrappers that also read results --------------------------------
    def _wrap_replan(self, fn):
        timed = self._span("session.replan", fn)

        def replan(*args, **kwargs):
            result = timed(*args, **kwargs)
            self._add("session.replan.adopted_dfg_types", result.adopted_dfg_types)
            self._add("session.replan.new_profile_events", result.new_profile_events)
            return result

        return replan

    def _wrap_replayer_init(self, fn):
        def init(replayer, *args, **kwargs):
            fn(replayer, *args, **kwargs)
            with self._lock:
                self.replayer_stats.append(replayer.stats)

        return init

    def _wrap_allocate(self, fn):
        state = self._state
        timed = self._span("core.allocator", fn)

        def allocate(*args, **kwargs):
            outer = state.alloc
            marks: list[float] = []
            # Direct simulate() calls of this allocate run one frame deeper.
            state.alloc = [len(state.stack) + 1, marks]
            t0 = perf_counter()
            try:
                plan, report = timed(*args, **kwargs)
            finally:
                state.alloc = outer
            end = perf_counter()
            # T_min, initial and final simulate() calls split the run;
            # sequential recovery adds trial calls between the last two.
            first = marks[0] if marks else end
            second = marks[1] if len(marks) > 1 else end
            self._add("core.allocator.uniform_ms", (first - t0) * 1e3)
            self._add("core.allocator.initial_ms", (second - first) * 1e3)
            self._add("core.allocator.recovery_ms", (end - second) * 1e3)
            self._add("core.allocator.recovery_attempts", report.recovery_attempts)
            self._add("core.allocator.recovery_accepted", report.recovery_accepted)
            return plan, report

        return allocate

    def _wrap_simulate(self, fn):
        state = self._state
        timed = self._span("core.replayer.simulate", fn)

        def simulate(*args, **kwargs):
            alloc = state.alloc
            depth = len(state.stack)
            result = timed(*args, **kwargs)
            if alloc is not None and alloc[0] == depth:
                alloc[1].append(perf_counter())
            return result

        return simulate

    # -- results --------------------------------------------------------
    def merged(self) -> dict[str, list]:
        """Span slots summed over every thread that ran a wrapper."""
        out: dict[str, list] = {}
        for slots in self._registry:
            for name, (calls, total, self_s) in list(slots.items()):
                slot = out.setdefault(name, [0, 0.0, 0.0])
                slot[0] += calls
                slot[1] += total
                slot[2] += self_s
        return out

    def replayer_totals(self) -> dict[str, int]:
        totals: dict[str, int] = {}
        for stats in self.replayer_stats:
            for key, value in vars(stats).items():
                totals[key] = totals.get(key, 0) + value
        return totals
