#!/usr/bin/env python3
"""planbench — the end-to-end benchmark of the QSync planner.

Usage (from the repository root)::

    python3 planbench/run.py --workload fleet_whatif --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` runs the same requests twice, untraced and then with the
layer wrappers of :mod:`tracer` installed, and reports the per-layer
breakdown, the tracing overhead and how much of the request wall time the
layers' self times cover.  Either way the run re-checks its outputs
outside the timed phase (see ``LAYERS.md`` next to this file) and prints,
as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The lines before it carry provenance and the
figures that do not fit that object (tail percentile and sample count,
error rate, output digest).
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import itertools
import json
import os
import platform
import queue
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

perf_counter = time.perf_counter

#: Cold set-ups per run, before and after the timed phase; ``setup_s`` is
#: the median of all of them.  Splitting them keeps one slow spell of a
#: shared machine from setting them all.
SETUPS_BEFORE = 3
SETUPS_AFTER = 2
#: Closed-loop stream requests behind ``sim_iter_ms`` and ``lowp_op_frac``:
#: the first block, one of each allocator-backed slot.  A run that times
#: fewer plans them after the timed phase, so both figures depend only on
#: the seed, never on speed.
MODEL_PREFIX = 7
#: Closed loops read the peak RSS after this many operations.  A warm
#: session's memory grows with every distinct request it plans, so a read
#: at the end of the timed phase would depend on how many requests the
#: machine got through.
RSS_OPS = 12
#: Timed requests per closed-loop run re-planned by a fresh session.
CLOSED_SAMPLE = 1
#: Served plan requests re-planned by a direct session, and served
#: replans re-planned cold.
SERVE_SAMPLE = 2
#: Client threads of the open loop, one per core of the 2-core reference
#: machine.  Hot pairs are handed to both clients at once, so it must be 2.
CLIENTS = 2
#: The fixed latency limit behind ``goodput_per_s``, per workload.
LATENCY_LIMIT_S = {"fleet_whatif": 5.0, "deep_whatif": 5.0, "serve_churn": 2.5}
#: Check kinds whose mismatches are the known batched-recovery defect:
#: ``Replayer.whatif_candidates`` skips the kernel-expressibility guard of
#: ``simulate()``, so batched recovery ignores perturbations and schedule
#: policies.  They count as failed operations but leave ``correct`` true.
KNOWN_DEFECT_CHECKS = ("sequential",)
#: Iterations of one calibration pass (about 6 ms), and the median time of
#: one pass on the reference machine (2-core shared x86-64 host, CPython
#: 3.11) at its usual speed.  See ``HostSpeed``.
CALIBRATION_ITERS = 4000
CALIBRATION_REF_S = 0.0065
#: Calibration passes per host-speed sample.
CALIBRATION_PASSES = 3
#: How the planner's speed follows the calibration loop's across host
#: states, measured on the reference machine: when the loop ran 2.0x faster
#: (3.2 ms a pass instead of 6.5 ms), fleet plans ran 1.46x faster.  A
#: tight loop gains more from an idle host than the planner does, so the
#: scale is the square root of the loop's speed ratio; within the slow
#: state it steadies run-to-run figures as well as the full ratio does.
CALIBRATION_EXPONENT = 0.5

E2E_UNITS = {
    "setup_s": "s",
    "plan_p50_ms": "ms",
    "plan_tail_ms": "ms",
    "plans_per_s": "1/s",
    "goodput_per_s": "1/s",
    "replan_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "sim_iter_ms": "ms",
    "lowp_op_frac": "ratio",
}


# ---------------------------------------------------------------------------
# records and digests
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class Rec:
    """One timed operation."""

    index: int
    kind: str  # "plan", "replan" or "restart"
    tag: str
    request: object = None
    events: tuple = ()  # a replan's membership events
    outcome: object = None  # PlanOutcome (a replan's new plan included)
    replan: object = None  # ReplanOutcome
    latency: float = 0.0
    queue: float = 0.0
    error: str | None = None
    failed_checks: list = dataclasses.field(default_factory=list)

    @property
    def digest(self) -> str:
        if self.kind == "restart":
            return "restart"
        if self.outcome is None:
            return f"error:{self.error}"
        return outcome_digest(self.outcome)


def outcome_digest(outcome) -> str:
    """Plan dict plus the exact simulated iteration time."""
    body = json.dumps(
        [outcome.plan.to_dict(), outcome.simulation.iteration_time.hex()],
        sort_keys=True,
    )
    return hashlib.blake2b(body.encode(), digest_size=12).hexdigest()


def run_digest(recs) -> str:
    joined = "\n".join(r.digest for r in sorted(recs, key=lambda r: r.index))
    return hashlib.blake2b(joined.encode(), digest_size=12).hexdigest()


def tail(values):
    """Highest percentile with at least ten samples beyond it: the 11th
    largest sample.  Returns (value, percentile, sample count)."""
    ordered = sorted(values)
    n = len(ordered)
    k = max(0, n - 11)
    return ordered[k], 100.0 * k / n, n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _Cell:
    __slots__ = ("key", "cost", "bits")

    def __init__(self, key, cost, bits) -> None:
        self.key = key
        self.cost = cost
        self.bits = bits


def calibration_pass() -> float:
    """Seconds one pass of a fixed pure-Python loop takes: small objects,
    tuple-keyed dict updates and float arithmetic, as in the planner's own
    inner loops, but calling no planner code, so no change to ``src`` can
    move it."""
    t0 = perf_counter()
    table: dict = {}
    cells = []
    total = 0.0
    for i in range(CALIBRATION_ITERS):
        cell = _Cell((i & 63, i % 5), i * 0.5, 8 << (i & 1))
        cells.append(cell)
        table[cell.key] = table.get(cell.key, 0.0) + cell.cost * cell.bits
        total += table[cell.key] / (1 + len(cells) % 7)
    return perf_counter() - t0


class HostSpeed:
    """The speed of the host while a run measures.

    A shared machine's speed drifts by up to 2x over minutes, and one run
    sits inside one such spell, so the same code reads very differently
    from run to run.  The run takes calibration samples between its timed
    intervals (between operations, never inside one) and reports each
    duration multiplied by ``scale``: the reference pass time over the
    median pass time of this run, raised to ``CALIBRATION_EXPONENT``.
    Durations then read as on the reference machine at its usual speed,
    while the planner's own speed shows in full, because the calibration
    loop runs no planner code.  The raw figures go to the ``# run`` line.
    """

    def __init__(self) -> None:
        self.passes: list[float] = []

    def sample(self) -> None:
        self.passes.extend(calibration_pass() for _ in range(CALIBRATION_PASSES))

    @property
    def scale(self) -> float:
        ratio = CALIBRATION_REF_S / statistics.median(self.passes)
        return ratio ** CALIBRATION_EXPONENT

    def info(self) -> dict:
        return {
            "calibration_ms_p50": round(1e3 * statistics.median(self.passes), 4),
            "calibration_ref_ms": 1e3 * CALIBRATION_REF_S,
            "passes": len(self.passes),
            "scale": round(self.scale, 4),
        }


# ---------------------------------------------------------------------------
# model-side figures
# ---------------------------------------------------------------------------


class ModelFigures:
    """``sim_iter_ms`` and ``lowp_op_frac`` over a fixed set of outcomes."""

    def __init__(self) -> None:
        self._adjustable: dict = {}

    def _ops(self, request):
        key = request.model_cache_key()
        if key not in self._adjustable:
            self._adjustable[key] = tuple(request.build_template().adjustable_ops())
        return self._adjustable[key]

    def __call__(self, pairs):
        """``pairs``: (request, outcome, cluster) triples."""
        iters = []
        low = total = 0
        for request, outcome, cluster in pairs:
            iters.append(outcome.simulation.iteration_time)
            ops = self._ops(request)
            types = {w.device.name for w in cluster.inference_workers}
            for tname in sorted(types):
                assigned = outcome.plan.assignments.get(tname, {})
                for op in ops:
                    prec = assigned.get(op)
                    total += 1
                    if prec is not None and prec.bits < 32:
                        low += 1
        return 1e3 * statistics.fmean(iters), (low / total if total else 0.0)


# ---------------------------------------------------------------------------
# closed loops: fleet_whatif, deep_whatif
# ---------------------------------------------------------------------------


def cold_setups(make, first_request, repeats, speed):
    """Times from a cold session/service to its first finished plan;
    returns the first instance too.  Takes host-speed samples before and
    after each set-up."""
    times = []
    first = None
    for _ in range(repeats):
        gc.collect()
        speed.sample()
        t0 = perf_counter()
        instance = make()
        instance.plan(first_request)
        times.append(perf_counter() - t0)
        speed.sample()
        if first is None:
            first = instance
        del instance
    return times, first


def warm_stats(session, request) -> None:
    """Synthesize the indicator statistics of every what-if seed, as a
    long-lived session would already have them."""
    from workloads import STAT_SEEDS

    template = session.profiles.template_for(request.model_cache_key(), request.build_template)
    for seed in STAT_SEEDS:
        session.profiles.stats_for(template, seed)


def timed_call(fn, *args):
    t0 = perf_counter()
    try:
        result, error = fn(*args), None
    except Exception as exc:  # a failed request is a measured outcome
        result, error = None, f"{type(exc).__name__}: {exc}"
    return result, error, perf_counter() - t0


def closed_pass(session, ops, setup_req, seconds=None, speed=None):
    """Run ``ops`` (an iterator of ``("plan", request)`` and ``("replan",
    events)``) back to back until ``seconds`` have passed or the iterator
    ends.  Each replan continues the churn chain from the previous replan's
    context, starting at ``setup_req``.  Also returns the generator lag
    (how long each operation took to issue after the client became ready)
    and the peak RSS after ``RSS_OPS`` operations, or at the end if fewer
    ran.  With ``speed``, takes a host-speed sample after each operation."""
    recs = []
    lags = []
    ctx = setup_req
    start = ready = perf_counter()
    deadline = None if seconds is None else start + seconds
    for kind, payload in ops:
        now = perf_counter()
        if deadline is not None and now >= deadline:
            break
        lags.append(now - ready)
        if kind == "plan":
            outcome, error, latency = timed_call(session.plan, payload)
            rec = Rec(len(recs), kind, payload.strategy, payload, outcome=outcome,
                      latency=latency, error=error)
        else:
            rep, error, latency = timed_call(session.replan, ctx, payload)
            rec = Rec(len(recs), kind, payload[0].kind, ctx, payload, rep and rep.outcome, rep,
                      latency=latency, error=error)
            if rep is not None:
                ctx = rep.context
        recs.append(rec)
        if speed is not None:
            speed.sample()
        ready = perf_counter()
        if len(recs) == RSS_OPS:
            rss = peak_rss_mb()
    if len(recs) < RSS_OPS:
        rss = peak_rss_mb()
    return recs, perf_counter() - start, lags, rss


def run_closed(args):
    import workloads
    from tracer import Tracer
    from repro.session.session import PlanSession

    workload = args.workload
    setup_req = workloads.setup_request(workload)
    speed = HostSpeed()
    setups, session = cold_setups(PlanSession, setup_req, SETUPS_BEFORE, speed)
    warm_stats(session, setup_req)

    ops = workloads.closed_ops(workload, args.seed)
    if args.requests:
        ops = itertools.islice(ops, args.requests)
    recs, wall, _, rss = closed_pass(session, ops, setup_req,
                                     None if args.requests else window(args), speed)
    setups += cold_setups(PlanSession, setup_req, SETUPS_AFTER, speed)[0]
    plans = [r for r in recs if r.kind == "plan"]
    layer = None
    if args.trace:
        replay = [("plan", r.request) if r.kind == "plan" else ("replan", r.events) for r in recs]
        tracer = Tracer()
        tracer.install()
        try:
            t_stats0 = dataclasses.replace(session.stats)
            t_recs, _, t_lags, _ = closed_pass(session, iter(replay), setup_req)
        finally:
            tracer.uninstall()
        layer = dict(
            tracer=tracer,
            recs=t_recs,
            untraced=recs,
            stats=[(t_stats0, session.stats)],
            lags=t_lags,
            open_loop=False,
        )
    # Model-side figures: the fixed stream prefix, planned untimed if the
    # timed phase did not reach it.
    prefix = [(r.request, r.outcome) for r in plans[:MODEL_PREFIX]]
    rest = workloads.closed_stream(workload, args.seed)
    for request in itertools.islice(rest, len(prefix), MODEL_PREFIX):
        prefix.append((request, session.plan(request)))

    # Correctness: a seed-chosen sample of plans against a fresh session,
    # and one of the replans against a cold plan of the surviving cluster.
    oracle = PlanSession()
    rng = random.Random(f"{args.seed}:{workload}:sample")
    sampled = [r for r in plans if r.outcome is not None]
    for rec in rng.sample(sampled, min(CLOSED_SAMPLE, len(sampled))):
        check(rec, "fresh_session", oracle.plan, rec.request)
    replanned = [r for r in recs if r.kind == "replan" and r.replan is not None]
    for rec in rng.sample(replanned, min(1, len(replanned))):
        check(rec, "cold_replan", oracle.plan, rec.replan.context.request)

    return summarize(
        args,
        recs=recs,
        wall=wall,
        setups=setups,
        speed=speed,
        rss=rss,
        model_pairs=[(q, o, q.resolve_cluster()) for q, o in prefix if o is not None],
        layer=layer,
    )


def window(args) -> float:
    """Length of the timed phase.  A traced run spends half of ``--seconds``
    on its untraced pass, then replays the same operations traced, so it
    takes about as long as an untraced run."""
    return args.seconds / 2 if args.trace else args.seconds


def check(rec, kind, plan_fn, request) -> None:
    """Re-plan ``request`` with ``plan_fn``; a differing outcome (or an
    exception) marks ``rec`` failed under check ``kind``."""
    try:
        expected = outcome_digest(plan_fn(request))
    except Exception as exc:  # the oracle failing is a failed check
        expected = f"error:{type(exc).__name__}"
    if rec.outcome is None or outcome_digest(rec.outcome) != expected:
        rec.failed_checks.append(kind)


# ---------------------------------------------------------------------------
# open loop: serve_churn
# ---------------------------------------------------------------------------


class OpenLoop:
    """Issues scheduled operations on time to ``CLIENTS`` client threads.

    Latency runs from an operation's due time to its completion, so a stall
    also charges the requests queued behind it.  A restart waits until no
    other operation is in flight, then swaps in a new ``PlanService`` on the
    same store root.  With ``speed``, the generator takes a host-speed
    sample in each gap between due times in which no operation is
    outstanding, so the sample never shares the interpreter with a client.
    """

    #: A gap must leave at least this long after a sample.
    SAMPLE_MARGIN_S = 0.05

    def __init__(self, ops, service, root, speed=None) -> None:
        self.ops = ops
        self.root = root
        self.speed = speed
        self.services = [(service, dataclasses.replace(service.stats))]
        self.service = service
        self.recs: list[Rec | None] = [None] * len(ops)
        self.done = [threading.Event() for _ in ops]
        self.picked = [threading.Event() for _ in ops]
        # The first copy of each hot pair waits until the other client has
        # picked up the second, so the pair always coalesces.
        self.partner = {
            a.index: b.index
            for a, b in zip(ops, ops[1:])
            if a.tag == b.tag == "hot" and a.due == b.due
        }
        self.lags: list[float] = []
        self._cond = threading.Condition()
        self._active = 0
        self._outstanding = 0
        self._restarting = False

    def run(self) -> float:
        work: queue.Queue = queue.Queue()
        threads = [threading.Thread(target=self._client, args=(work,)) for _ in range(CLIENTS)]
        for thread in threads:
            thread.start()
        start = perf_counter() + 0.01
        try:
            for op in self.ops:
                due = start + op.due
                if self.speed is not None:
                    self._sample_when_idle(due)
                delay = due - perf_counter()
                if delay > 0:
                    time.sleep(delay)
                self.lags.append(perf_counter() - due)
                with self._cond:
                    self._outstanding += 1
                work.put((op, due))
        finally:
            for _ in threads:
                work.put(None)
            for thread in threads:
                thread.join()
        return start

    def _sample_when_idle(self, due) -> None:
        """Wait until no operation is outstanding, then take one host-speed
        sample, unless the next operation is due within the margin."""
        with self._cond:
            while self._outstanding:
                left = due - self.SAMPLE_MARGIN_S - perf_counter()
                if left <= 0:
                    return
                self._cond.wait(left)
        if due - perf_counter() > self.SAMPLE_MARGIN_S:
            self.speed.sample()

    def _client(self, work) -> None:
        from repro.service.service import PlanService

        while True:
            item = work.get()
            if item is None:
                return
            op, due = item
            self.picked[op.index].set()
            if op.index in self.partner:
                self.picked[self.partner[op.index]].wait()
            picked = perf_counter()
            rec = Rec(op.index, op.kind, op.tag, op.request, queue=picked - due)
            if op.kind == "restart":
                with self._cond:
                    self._restarting = True
                    while self._active:
                        self._cond.wait()
                    self.service = PlanService(root=self.root)
                    self.services.append((self.service, dataclasses.replace(self.service.stats)))
                    self._restarting = False
                    self._cond.notify_all()
            else:
                ctx = op.request
                if op.after is not None:
                    # Churn is serial: continue from the previous replan.
                    self.done[op.after].wait()
                    previous = self.recs[op.after].replan
                    ctx = previous.context if previous is not None else None
                with self._cond:
                    while self._restarting:
                        self._cond.wait()
                    self._active += 1
                    service = self.service
                try:
                    if ctx is None:
                        rec.error = "churn chain broken by an earlier failure"
                    elif op.kind == "plan":
                        rec.outcome, rec.error, _ = timed_call(service.plan, op.request)
                    else:
                        rec.replan, rec.error, _ = timed_call(service.replan, ctx, op.events)
                        if rec.replan is not None:
                            rec.outcome = rec.replan.outcome
                            rec.request = rec.replan.context.request
                finally:
                    with self._cond:
                        self._active -= 1
                        self._cond.notify_all()
            rec.latency = perf_counter() - due
            self.recs[op.index] = rec
            self.done[op.index].set()
            with self._cond:
                self._outstanding -= 1
                self._cond.notify_all()

    def store_size(self) -> tuple[int, int]:
        files = [p for p in Path(self.root).rglob("*") if p.is_file()]
        return sum(p.stat().st_size for p in files), len(files)


def run_serve(args):
    import workloads
    from tracer import Tracer
    from repro.core.allocator import AllocatorConfig
    from repro.service.service import PlanService
    from repro.session.session import PlanSession

    scratch = ROOT / ".planbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="serve-", dir=scratch))
    try:
        setup_req = workloads.setup_request("serve_churn")
        roots = iter(tmp / f"store{i}" for i in itertools.count())

        def cold_service():
            return PlanService(root=str(next(roots)))

        speed = HostSpeed()
        setups, service = cold_setups(cold_service, setup_req, SETUPS_BEFORE, speed)
        root = service.session.profiles.root
        ops = workloads.serve_schedule(args.seed, window(args))

        loop = OpenLoop(ops, service, root, speed)
        start = loop.run()
        recs = loop.recs
        wall = max(start + op.due + rec.latency for op, rec in zip(ops, recs)) - start
        rss = peak_rss_mb()
        setups += cold_setups(cold_service, setup_req, SETUPS_AFTER, speed)[0]

        layer = None
        if args.trace:
            t_service = PlanService(root=str(next(roots)))
            t_service.plan(setup_req)
            tracer = Tracer()
            tracer.install()
            try:
                t_loop = OpenLoop(ops, t_service, t_service.session.profiles.root)
                t_loop.run()
            finally:
                tracer.uninstall()
            layer = dict(
                tracer=tracer,
                recs=t_loop.recs,
                untraced=recs,
                stats=[(s0, s.stats) for s, s0 in t_loop.services],
                store=t_loop.store_size(),
                lags=t_loop.lags,
                open_loop=True,
            )

        # Correctness, outside the timed phase.
        direct = PlanSession()
        sequential = PlanSession()
        no_batch = AllocatorConfig(batched_recovery=False)
        rng = random.Random(f"{args.seed}:serve_churn:sample")
        served = [r for r in recs if r.kind == "plan" and r.outcome is not None]
        for rec in rng.sample(served, min(SERVE_SAMPLE, len(served))):
            check(rec, "served_vs_direct", direct.plan, rec.request)
        replanned = [r for r in recs if r.kind == "replan" and r.replan is not None]
        for rec in rng.sample(replanned, min(SERVE_SAMPLE, len(replanned))):
            check(rec, "cold_replan", direct.plan, rec.request)
        for op, rec in zip(ops, recs):
            if op.checks_sequential and rec.request is not None:
                check(rec, "sequential", sequential.plan,
                      dataclasses.replace(rec.request, config=no_batch))

        model_pairs = [
            (r.request, r.outcome,
             r.replan.context.cluster if r.replan is not None else r.request.resolve_cluster())
            for r in recs
            if r.kind != "restart" and r.outcome is not None
        ]
        return summarize(args, recs=recs, wall=wall, setups=setups, speed=speed, rss=rss,
                         model_pairs=model_pairs, layer=layer)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


#: Scaled to the reference speed on every workload (see ``HostSpeed``).
SCALED_TIMES = ("setup_s", "plan_p50_ms", "plan_tail_ms", "replan_p50_ms")
#: Scaled with them on the closed loops only: an open loop's rates follow
#: its fixed schedule, not the host's speed.
SCALED_RATES = ("plans_per_s", "goodput_per_s")


def summarize(args, *, recs, wall, setups, speed, rss, model_pairs, layer):
    limit = LATENCY_LIMIT_S[args.workload]
    ops = [r for r in recs if r.kind != "restart"]
    failed = [r for r in ops if r.error is not None or r.failed_checks]
    plans = [r.latency for r in ops if r.kind == "plan"]
    replans = [r.latency for r in ops if r.kind == "replan"]
    good = [r for r in ops if r.latency <= limit and r.error is None and not r.failed_checks]
    tail_value, tail_pct, tail_n = tail(plans)
    sim_iter_ms, lowp = ModelFigures()(model_pairs)
    metrics = {
        "setup_s": statistics.median(setups),
        "plan_p50_ms": 1e3 * statistics.median(plans),
        "plan_tail_ms": 1e3 * tail_value,
        "plans_per_s": len(ops) / wall,
        "goodput_per_s": len(good) / wall,
        "replan_p50_ms": 1e3 * statistics.median(replans),
        "peak_rss_mb": rss,
        "sim_iter_ms": sim_iter_ms,
        "lowp_op_frac": lowp,
    }
    raw = {k: metrics[k] for k in SCALED_TIMES + SCALED_RATES}
    for k in SCALED_TIMES:
        metrics[k] *= speed.scale
    if args.workload != "serve_churn":
        for k in SCALED_RATES:
            metrics[k] /= speed.scale
    unexpected = [
        r for r in failed
        if r.error is not None or any(k not in KNOWN_DEFECT_CHECKS for k in r.failed_checks)
    ]
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "digest": run_digest(recs),
        "plan_tail": {"percentile": round(tail_pct, 2), "samples": tail_n},
        "error_rate": len(failed) / len(ops),
        "failures": sorted({k for r in failed for k in (r.failed_checks or ["exception"])}),
        "latency_limit_s": limit,
        "host_speed": speed.info(),
        "unscaled": raw,
    }
    correct = not unexpected
    if layer is not None:
        traced_digest = run_digest(layer["recs"])
        info["traced_digest"] = traced_digest
        correct = correct and traced_digest == info["digest"]
        out_metrics = layer_metrics(layer)
    else:
        out_metrics = {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}
    return {
        "info": info,
        "e2e": metrics,
        "result": {
            "correct": correct,
            "attempted": len(ops),
            "failed": len(failed),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out_metrics.items()},
        },
    }


def layer_metrics(layer) -> dict:
    """Per-layer figures of the traced pass; counts and times are means per
    timed operation unless the name says otherwise (see LAYERS.md)."""
    from tracer import UNATTRIBUTED

    tracer = layer["tracer"]
    recs = [r for r in layer["recs"] if r.kind != "restart"]
    n = len(recs)
    slots = tracer.merged()
    extra = tracer.extra
    rstats = tracer.replayer_totals()

    def calls(name):
        return slots.get(name, [0, 0.0, 0.0])[0] / n

    def ms(name):
        return 1e3 * slots.get(name, [0, 0.0, 0.0])[1] / n

    def per(key):
        return extra.get(key, 0.0) / n

    def ratio(a, b):
        return a / b if b else 0.0

    session = {}
    for before, after in layer["stats"]:
        for field in dataclasses.fields(after):
            key = field.name
            session[key] = session.get(key, 0) + getattr(after, key) - getattr(before, key)
    n_replans = sum(1 for r in recs if r.kind == "replan")
    queue_s = sum(r.queue for r in recs)
    wall_s = sum(r.latency for r in recs)
    untraced_s = sum(r.latency for r in layer["untraced"] if r.kind != "restart")
    covered = sum(s[2] for name, s in slots.items() if name not in UNATTRIBUTED)
    if layer["open_loop"]:
        covered += queue_s
    alloc_ms = ms("core.allocator")
    attempts = extra.get("core.allocator.recovery_attempts", 0.0)
    store_bytes, store_files = layer.get("store", (0, 0))
    lags = layer["lags"]
    m = {
        "session.prepare.calls": (calls("session.prepare"), "count"),
        "session.prepare.ms": (ms("session.prepare"), "ms"),
        "session.replan.ms": (ratio(1e3 * slots.get("session.replan", [0, 0.0])[1], n_replans), "ms"),
        "session.replan.adopted_dfg_types": (
            ratio(extra.get("session.replan.adopted_dfg_types", 0.0), n_replans), "count"),
        "session.replan.new_profile_events": (
            ratio(extra.get("session.replan.new_profile_events", 0.0), n_replans), "count"),
        "profiling.ms": (ms("profiling"), "ms"),
        "profiling.catalog_profiles": (session["catalog_profiles"] / n, "count"),
        "profiling.catalog_hits": (session["catalog_hits"] / n, "count"),
        "profiling.cast_fits": (session["cast_fits"] / n, "count"),
        "profiling.stats_syntheses": (session["stats_syntheses"] / n, "count"),
        "profiling.template_builds": (session["template_builds"] / n, "count"),
        "core.allocator.ms": (alloc_ms, "ms"),
        "core.allocator.self_ms": (1e3 * slots.get("core.allocator", [0, 0.0, 0.0])[2] / n, "ms"),
        "core.allocator.uniform_ms": (per("core.allocator.uniform_ms"), "ms"),
        "core.allocator.initial_ms": (per("core.allocator.initial_ms"), "ms"),
        "core.allocator.recovery_ms": (per("core.allocator.recovery_ms"), "ms"),
        "core.allocator.recovery_attempts": (per("core.allocator.recovery_attempts"), "count"),
        "core.allocator.recovery_accepted": (per("core.allocator.recovery_accepted"), "count"),
        "core.allocator.accept_ratio": (
            ratio(extra.get("core.allocator.recovery_accepted", 0.0), attempts), "ratio"),
        "core.replayer.memory_estimate.calls": (calls("core.replayer.memory_estimate"), "count"),
        "core.replayer.memory_estimate.ms": (ms("core.replayer.memory_estimate"), "ms"),
        "core.replayer.memory_evals": (rstats.get("memory_evals", 0) / n, "count"),
        "core.replayer.memory_hit_ratio": (
            ratio(rstats.get("memory_cache_hits", 0),
                  rstats.get("memory_cache_hits", 0) + rstats.get("memory_evals", 0)), "ratio"),
        "core.replayer.apply_plan.calls": (calls("core.replayer.apply_plan"), "count"),
        "core.replayer.apply_plan.ms": (ms("core.replayer.apply_plan"), "ms"),
        "core.replayer.local_dfg.calls": (calls("core.replayer.local_dfg"), "count"),
        "core.replayer.local_dfg.ms": (ms("core.replayer.local_dfg"), "ms"),
        "core.replayer.simulate.calls": (calls("core.replayer.simulate"), "count"),
        "core.replayer.simulate.ms": (ms("core.replayer.simulate"), "ms"),
        "core.replayer.kernel_sims": (rstats.get("kernel_sims", 0) / n, "count"),
        "core.replayer.whatif.calls": (calls("core.replayer.whatif"), "count"),
        "core.replayer.whatif.ms": (ms("core.replayer.whatif"), "ms"),
        "core.replayer.whatif_evals": (rstats.get("whatif_evals", 0) / n, "count"),
        "kernel.compile.calls": (calls("kernel.compile"), "count"),
        "kernel.compile.ms": (ms("kernel.compile"), "ms"),
        "kernel.batch.ms": (ms("kernel.batch"), "ms"),
        "core.compression.calls": (calls("core.compression"), "count"),
        "core.compression.ms": (ms("core.compression"), "ms"),
        "engine.calls": (calls("engine"), "count"),
        "engine.ms": (ms("engine"), "ms"),
        "service.queue_ms": (1e3 * queue_s / n, "ms"),
        "service.wait_ms": (1e3 * slots.get("service", [0, 0.0, 0.0])[2] / n, "ms"),
        "service.coalesced": (session["coalesced_requests"] / n, "count"),
        "service.disk_hits": (session["disk_hits"] / n, "count"),
        "service.disk_misses": (session["disk_misses"] / n, "count"),
        "service.store_bytes": (store_bytes, "bytes"),
        "service.store_files": (store_files, "count"),
        "bench.trace_overhead_frac": (ratio(wall_s, untraced_s) - 1.0, "ratio"),
        "bench.coverage_frac": (ratio(covered, wall_s), "ratio"),
        "bench.gen_lag_p90_ms": (
            1e3 * statistics.quantiles(lags, n=10)[-1] if len(lags) > 1 else 0.0, "ms"),
    }
    return m


# ---------------------------------------------------------------------------
# provenance and entry point
# ---------------------------------------------------------------------------


def commit() -> str:
    """HEAD of the checkout when it is a git work tree, else ``unknown``."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def source_digest() -> str:
    """Digest of every Python file under ``src`` (the program measured)."""
    h = hashlib.blake2b(digest_size=12)
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(args) -> dict:
    try:
        import numpy
    except ImportError:
        numpy_version = "absent"
    else:
        numpy_version = numpy.__version__
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "commit": commit(),
        "src_digest": source_digest(),
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def parse_args(argv=None):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--requests", type=int, default=0,
        help="closed loops: time exactly this many requests instead of --seconds "
        "(the determinism self-check uses it)",
    )
    args = parser.parse_args(argv)
    cycle = len(workloads.SERVE_CYCLE) / workloads.SERVE_RATE
    if args.workload == "serve_churn" and window(args) < cycle:
        parser.error(f"serve_churn needs a timed phase of >= {cycle:g} s, one full slot "
                     f"cycle (--trace 1 times half of --seconds)")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # Import every lazily imported planner module before any timing.
    import repro.baselines.dpro  # noqa: F401
    import repro.engine.core  # noqa: F401
    import repro.models  # noqa: F401
    import repro.service  # noqa: F401

    runner = run_serve if args.workload == "serve_churn" else run_closed
    out = runner(args)
    print("# provenance " + json.dumps(provenance(args), sort_keys=True))
    print("# run " + json.dumps(out["info"], sort_keys=True))
    for name, value in out["e2e"].items():
        print(f"# {name:16s} {value:14.6g} {E2E_UNITS[name]}")
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
