"""Per-layer tracing by wrapping the simulator's public functions.

Nothing in `src/` is changed: while a `Tracer` is installed, each wrapped
function is replaced on its class (or module) by a timing wrapper, and the
originals are put back on exit. Every wrapper keeps a stack of child time,
so a span's self time is its duration minus the time spent in wrapped calls
it made. Counters are taken at the same boundaries.

`sarasim.engine.translate` is wrapped rather than `sarasim.meters.translate`
because the engine binds that name at import.
"""

from __future__ import annotations

import time
from collections import Counter

from sarasim import controller, dram, engine, meters, noc, traffic

METER_CLASSES = (meters.LatencyMeter, meters.FrameProgressMeter,
                 meters.OccupancyMeter, meters.BandwidthMeter)


class Tracer:
    """Collects self time and call counts per span, plus layer counters."""

    def __init__(self):
        self._acc = {}  # span -> [self seconds, calls]
        self.counts = Counter()
        self._stack = [0.0]  # child time of each open span; [0] is the root
        self._saved = []
        self._last_state = None

    # -- installation ------------------------------------------------------

    def _accumulator(self, span: str) -> list:
        return self._acc.setdefault(span, [0.0, 0])

    @property
    def self_s(self) -> Counter:
        return Counter({k: v[0] for k, v in self._acc.items()})

    @property
    def calls(self) -> Counter:
        return Counter({k: v[1] for k, v in self._acc.items()})

    def _patch(self, owner, attr, span, pre=None, post=None):
        fn = getattr(owner, attr)
        stack, acc = self._stack, self._accumulator(span)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            token = pre(args) if pre is not None else None
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                acc[0] += dt - stack.pop()
                acc[1] += 1
                stack[-1] += dt
            if post is not None:
                post(args, result, token)
            return result

        self._saved.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def __enter__(self):
        counts = self.counts

        def emitted(args, result, token):
            counts["emitted"] += len(result)

        def offer_refused(args, result, token):
            counts["offer_refused"] += not result

        def enqueue_refused(args, result, token):
            counts["enqueue_refused"] += not result

        p = self._patch
        p(engine.World, "step", "engine.step", post=self._after_step)
        p(engine.World, "report", "metrics.report")
        p(traffic.Generator, "next_requests", "traffic.next_requests",
          post=emitted)
        p(traffic.Generator, "next_action_cycle", "traffic.next_action_cycle")
        p(traffic.Generator, "on_completion", "traffic.on_completion")
        p(engine, "translate", "meters.translate")
        for cls in METER_CLASSES:
            p(cls, "npi", "meters.npi")
            p(cls, "on_completion", "meters.on_completion")
        p(meters.FrameProgressMeter, "start_frame", "meters.start_frame")
        p(noc.NocFabric, "step", "noc.step")
        p(noc.NocFabric, "leaf_space", "noc.leaf_space")
        p(noc.NocFabric, "offer", "noc.offer", post=offer_refused)
        p(noc.NocFabric, "age_resident", "noc.age_resident")
        scans = self._accumulator("dram.earliest_issue")
        p(controller.ControllerState, "select", "controller.select",
          pre=lambda a: scans[1], post=self._after_select)
        p(controller.ControllerState, "enqueue", "controller.enqueue",
          post=enqueue_refused)
        p(controller.ControllerState, "apply_aging", "controller.apply_aging")
        p(dram.DramModel, "earliest_issue", "dram.earliest_issue")
        p(dram.DramModel, "issue", "dram.issue")
        p(dram.DramModel, "decode_into", "dram.decode_into")
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)
        return False

    def span(self, name: str):
        """Context manager timing benchmark-side work as span `name`."""
        return _Span(self, name)

    # -- counters ----------------------------------------------------------

    def _after_select(self, args, result, calls_before):
        counts = self.counts
        counts["select_scan"] += (self._acc["dram.earliest_issue"][1]
                                  > calls_before)
        counts["select_hit"] += result is not None

    def _after_step(self, args, result, token):
        # A cycle is idle when the generated, completed, controller-occupancy,
        # NoC-resident and inflight counts all stay unchanged. Occupancy is
        # enqueued - issued, NoC-resident is generated - enqueued and
        # inflight is issued - completed, so these four counts decide it.
        world, counts, acc = args[0], self.counts, self._acc
        state = (world.generated, world.completed,
                 acc["controller.enqueue"][1] - counts["enqueue_refused"],
                 acc["dram.issue"][1])
        counts["steps"] += 1
        counts["active_steps"] += state != self._last_state
        counts["occupancy_sum"] += world.controller.occupancy
        self._last_state = state

    # -- results -----------------------------------------------------------

    def layer_self_s(self, layer: str) -> float:
        return sum(v[0] for k, v in self._acc.items()
                   if k.split(".", 1)[0] == layer)

    def metrics(self, cfg, report, wall_s: float) -> dict:
        """Per-layer metrics of one traced simulation of `cfg`.

        `wall_s` is the traced wall time of the whole simulation, including
        report and CSV writing.
        """
        c, calls, self_s = self.counts, self.calls, self.self_s
        cycles = report.duration_cycles
        issues = calls["dram.issue"]
        selects = calls["controller.select"]
        enqueues = calls["controller.enqueue"]
        steps = c["steps"]
        return {
            "engine.step.self_s": self_s["engine.step"],
            "engine.idle_cycle_frac": 1.0 - c["active_steps"] / cycles,
            "traffic.next_requests.calls": calls["traffic.next_requests"],
            "traffic.next_requests.self_s": self_s["traffic.next_requests"],
            "traffic.emitted_per_call":
                c["emitted"] / max(calls["traffic.next_requests"], 1),
            "traffic.next_action_cycle.calls":
                calls["traffic.next_action_cycle"],
            "traffic.self_s": self.layer_self_s("traffic"),
            "meters.npi.calls": calls["meters.npi"],
            "meters.on_completion.calls": calls["meters.on_completion"],
            "meters.translate.calls": calls["meters.translate"],
            "meters.self_s": self.layer_self_s("meters"),
            "noc.step.self_s": self_s["noc.step"],
            "noc.leaf_space.calls": calls["noc.leaf_space"],
            "noc.offer.refused": c["offer_refused"],
            "noc.self_s": self.layer_self_s("noc"),
            "controller.select.calls": selects,
            "controller.select.self_s": self_s["controller.select"],
            "controller.select.scan_frac": c["select_scan"] / max(selects, 1),
            "controller.select.hit_frac": c["select_hit"] / max(selects, 1),
            "controller.enqueue.refused_frac":
                c["enqueue_refused"] / max(enqueues, 1),
            "controller.occupancy_mean": c["occupancy_sum"] / max(steps, 1),
            "controller.self_s": self.layer_self_s("controller"),
            "dram.earliest_issue.calls_per_cycle":
                calls["dram.earliest_issue"] / cycles,
            "dram.earliest_issue.per_issue":
                calls["dram.earliest_issue"] / max(issues, 1),
            "dram.earliest_issue.self_s": self_s["dram.earliest_issue"],
            "dram.issue.calls": issues,
            "dram.issue.hits": report.row_hits,
            "dram.issue.misses": report.row_misses,
            "dram.issue.opens": report.bank_opens,
            "dram.bus_util":
                issues * cfg.dram.tBURST / (cycles * cfg.dram.channels),
            "dram.self_s": self.layer_self_s("dram"),
            "metrics.report_s": self_s["metrics.report"],
            "trace.wall_s": wall_s,
            "trace.unattributed_s": wall_s - sum(self_s.values()),
        }


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.stack = tracer._stack
        self.acc = tracer._accumulator(name)

    def __enter__(self):
        self.stack.append(0.0)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        dt = time.perf_counter() - self.t0
        self.acc[0] += dt - self.stack.pop()
        self.acc[1] += 1
        self.stack[-1] += dt
        return False
