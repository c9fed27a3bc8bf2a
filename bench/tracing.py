"""Spans around the program's public entry points, recorded from here.

The traced pass needs to know where a round's wall time goes, layer by
layer, without a single span inside ``src/``. :class:`SpanRecorder`
gets there in three moves:

* ``install()`` replaces each entry point in ``ENTRY_POINTS`` by a
  wrapper that appends ``(name, start, end)`` to one in-memory list —
  on the class, so instances that already exist are covered;
* operator work runs as generator slices inside ``Simulator.run``; the
  program's own ``WallProfiler`` hook times those, and the subclass
  below turns each slice into one more span named after its task;
* callbacks handed *through* an entry point (``call_soon`` functions,
  ``on_complete`` handlers) run later, inside the simulator loop, so
  they are wrapped on the way in and billed to the module that defined
  them.

The program is single-threaded, so spans nest properly and parentage
follows from containment: ``self_times`` recovers each span's parent
and self time (duration minus direct children) in one pass over the
list. Layers are this repository's module names.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter

import repro.experiments.fig6 as fig6_module
import repro.workload.driver as driver_module
from repro.db.session import Session
from repro.engine.engine import Engine
from repro.engine.memory import MemoryBroker, MemoryGrant
from repro.obs.metrics import MetricsRegistry
from repro.obs.perf import WallProfiler, attach_profiler
from repro.obs.trace import validate_chrome_trace
from repro.policies.base import SharingPolicy
from repro.policies.coordinator import SharingCoordinator
from repro.policies.model_guided import ModelGuidedPolicy
from repro.profiling.profiler import QueryProfiler
from repro.server.admission import AdmissionPolicy
from repro.server.server import Server
from repro.sim.simulator import Simulator
from repro.storage.buffer import BufferPool, SpillFile
from repro.storage.shared_scan import ScanShareManager
from repro.storage.spill_cursor import SpillCursor
from repro.storage.table import Table

# (layer, owner, attributes). A class owner covers its subclasses too.
ENTRY_POINTS = (
    ("server", Server, ("serve",)),
    ("server.admission", AdmissionPolicy, ("admit",)),
    ("db", Session, ("submit", "run", "run_all")),
    ("obs", MetricsRegistry, ("snapshot",)),
    ("policies", SharingPolicy, ("should_share",)),
    ("policies", Session, ("advise",)),
    ("policies", ModelGuidedPolicy, ("choose_mode",)),
    ("policies.coordinator", SharingCoordinator, ("submit",)),
    ("profiling", QueryProfiler, ("profile",)),
    ("workload", fig6_module, ("run", "run_closed_system")),
    ("engine.build", Engine, ("execute", "execute_group")),
    ("sim", Simulator, ("run",)),
    ("engine.memory", MemoryBroker, ("grant",)),
    ("engine.memory", MemoryGrant, ("resize_used", "close")),
    ("storage.pool", BufferPool, ("access", "admit", "pin", "unpin")),
    ("storage.scans", ScanShareManager, ("attach", "acquire", "throttle_wait", "detach")),
    ("storage.spill", SpillFile, ("append_rows", "flush", "page_at")),
    ("storage.spill", SpillCursor, ("next_page",)),
    ("storage.table", Table, ("column_slices", "page_at")),
)

# Entry points whose callers state a sharing verdict through them.
DECISIONS = {"SharingPolicy.should_share", "Session.advise", "ModelGuidedPolicy.choose_mode"}

# Entry points that are handed ``on_complete`` handlers to call later.
CARRIES_CALLBACKS = {"SharingCoordinator.submit", "Engine.execute", "Engine.execute_group"}

# Layer of a callback, by the module that defined it (first match).
CALLBACK_LAYERS = (
    ("repro.server", "server"),
    ("repro.policies.coordinator", "policies.coordinator"),
    ("repro.workload", "workload"),
    ("repro.db", "db"),
)

# Layer of an operator slice, by the plan-node kind of its task.
KIND_LAYERS = {
    "scan": "engine.scan",
    "filter": "engine.filter",
    "project": "engine.filter",
    "limit": "engine.filter",
    "aggregate": "engine.aggregate",
    "hash_join": "engine.join",
    "merge_join": "engine.join",
    "nested_loop_join": "engine.join",
    "sort": "engine.sort",
}
PARALLEL_SUFFIXES = (".exchange", ".gather", ".merge")

LAYERS = (
    "server", "server.admission", "db", "obs", "policies",
    "policies.coordinator", "profiling", "workload", "engine.build", "sim",
    "engine.scan", "engine.filter", "engine.aggregate", "engine.join",
    "engine.sort", "engine.parallel", "engine.other", "engine.memory",
    "storage.pool", "storage.scans", "storage.spill", "storage.table", "bench",
)


def _owners(owner):
    """The owner and, for a class, every subclass beneath it."""
    yield owner
    if isinstance(owner, type):
        for sub in owner.__subclasses__():
            yield from _owners(sub)


class _SliceProfiler(WallProfiler):
    """The program's wall profiler, also recording each slice as a span.

    The simulator reads ``clock()`` right before and right after a
    generator slice and then calls ``record_slice``; the last two
    readings are therefore that slice's exact bounds.
    """

    def __init__(self, events: list) -> None:
        super().__init__(clock=self._tick)
        self._events = events
        self._before = self._after = 0.0

    def _tick(self) -> float:
        self._before = self._after
        self._after = now = perf_counter()
        return now

    def record_slice(self, task_name: str, wall_s: float) -> None:
        super().record_slice(task_name, wall_s)
        self._events.append((task_name, self._before, self._after))


class SpanRecorder:
    def __init__(self) -> None:
        self.events: list = []  # (name, start, end), in order of end
        self.layer_of: dict = {"round": "bench"}
        self.profiler = _SliceProfiler(self.events)
        self.engines: list = []  # engines built while installed
        self.decisions = 0
        self.shared_decisions = 0
        self._policy_depth = 0
        self._undo: list = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name: str, fn):
        events = self.events

        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                events.append((name, start, perf_counter()))

        return wrapper

    def _decision(self, name: str, fn):
        """A span that also counts the outermost verdict of a nest
        (``should_share`` may consult ``advise``): one decision."""
        spanned = self._span(name, fn)

        def wrapper(*args, **kwargs):
            self._policy_depth += 1
            try:
                verdict = spanned(*args, **kwargs)
            finally:
                self._policy_depth -= 1
            if self._policy_depth == 0:
                self.decisions += 1
                mode = getattr(verdict, "mode", None)
                if mode is not None:
                    shared = mode in ("share", "both")
                else:
                    shared = bool(getattr(verdict, "share", verdict))
                self.shared_decisions += shared
            return verdict

        return wrapper

    def _callback(self, fn):
        """Span a callback under its defining module's layer."""
        if fn is None or getattr(fn, "_bench_span", False):
            return fn
        module = getattr(fn, "__module__", "") or ""
        for prefix, layer in CALLBACK_LAYERS:
            if module.startswith(prefix):
                name = f"callback:{layer}"
                self.layer_of[name] = layer
                wrapper = self._span(name, fn)
                wrapper._bench_span = True
                return wrapper
        return fn

    def _with_callbacks(self, fn):
        """Wrap the ``on_complete`` handlers passed through ``fn``."""

        def wrapper(*args, **kwargs):
            handlers = kwargs.get("on_complete")
            if callable(handlers):
                kwargs["on_complete"] = self._callback(handlers)
            elif handlers is not None:
                kwargs["on_complete"] = [self._callback(h) for h in handlers]
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._undo.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    # -- install / uninstall -----------------------------------------------

    def install(self, engines=()) -> None:
        """Patch every entry point and profile ``engines`` (those that
        exist already; engines the closed driver builds later are
        profiled as they are made)."""
        for layer, base, attributes in ENTRY_POINTS:
            base_name = getattr(base, "__name__", "").rsplit(".", 1)[-1]
            for attribute in attributes:
                name = f"{base_name}.{attribute}"
                self.layer_of[name] = layer
                for owner in _owners(base):
                    if attribute not in owner.__dict__:
                        continue
                    wrap = self._decision if name in DECISIONS else self._span
                    wrapped = wrap(name, owner.__dict__[attribute])
                    if name in CARRIES_CALLBACKS:
                        wrapped = self._with_callbacks(wrapped)
                    self._patch(owner, attribute, wrapped)

        real_call_soon = Simulator.call_soon
        self._patch(
            Simulator,
            "call_soon",
            lambda sim, fn: real_call_soon(sim, self._callback(fn)),
        )

        real_engine = driver_module.Engine

        def profiled_engine(*args, **kwargs):
            engine = real_engine(*args, **kwargs)
            self._profile(engine)
            return engine

        self._patch(driver_module, "Engine", profiled_engine)
        for engine in engines:
            self._profile(engine)

    def _profile(self, engine) -> None:
        attach_profiler(engine.sim, engine, profiler=self.profiler)
        self.engines.append(engine)

    def uninstall(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)
        for engine in self.engines:
            engine.sim.perf = None

    @contextmanager
    def round(self):
        start = perf_counter()
        try:
            yield
        finally:
            self.events.append(("round", start, perf_counter()))

    # -- analysis ------------------------------------------------------------

    def self_times(self):
        """Per-span ``(self_s, parent)``: spans arrive in order of end,
        so a span's direct children are the not-yet-claimed earlier
        spans that start inside it."""
        events = self.events
        self_s = [0.0] * len(events)
        parent = [-1] * len(events)
        unclaimed = []
        for index, (_, start, end) in enumerate(events):
            children = 0.0
            while unclaimed and events[unclaimed[-1]][1] >= start:
                child = unclaimed.pop()
                parent[child] = index
                children += events[child][2] - events[child][1]
            self_s[index] = (end - start) - children
            unclaimed.append(index)
        return self_s, parent

    def layers(self, plans, parent) -> list:
        """Each span's layer. Operator slices are named after engine
        tasks, ``prefix/op_id`` plus a suffix for the exchange fabric,
        and take the layer of their plan node's kind. Everything under
        ``QueryProfiler.profile`` is profiling: its private engines run
        through the same patched classes."""
        kinds = {node.op_id: node.kind for plan in plans for node in plan.walk()}
        memo = dict(self.layer_of)
        layers = [""] * len(self.events)
        # Parents end after their children, so walking backwards meets
        # every span after its parent.
        for index in range(len(self.events) - 1, -1, -1):
            name = self.events[index][0]
            if parent[index] >= 0 and layers[parent[index]] == "profiling":
                layers[index] = "profiling"
                continue
            layer = memo.get(name)
            if layer is None:
                layer = memo[name] = _slice_layer(name, kinds)
            layers[index] = layer
        return layers

    def layer_self_times(self, plans) -> dict:
        """Seconds of self time per layer over everything recorded."""
        self_s, parent = self.self_times()
        totals = dict.fromkeys(LAYERS, 0.0)
        for layer, seconds in zip(self.layers(plans, parent), self_s):
            totals[layer] += seconds
        return totals

    def calls(self, name: str) -> int:
        return sum(1 for event in self.events if event[0] == name)

    def wall_s(self) -> float:
        return sum(end - start for name, start, end in self.events if name == "round")

    def write_chrome(self, path: str, plans) -> None:
        """Write every span as a Chrome ``trace_event`` complete event:
        name, layer, start, duration, and its parent span and round."""
        _, parent = self.self_times()
        layers = self.layers(plans, parent)
        origin = min((start for _, start, _ in self.events), default=0.0)
        trace_events = []
        round_id = 0
        for index, (name, start, end) in enumerate(self.events):
            trace_events.append(
                {
                    "name": name,
                    "cat": layers[index],
                    "ph": "X",
                    "ts": (start - origin) * 1e6,
                    "dur": (end - start) * 1e6,
                    "pid": 1,
                    "tid": 0,
                    "args": {"id": index, "parent": parent[index], "round": round_id},
                }
            )
            # A round's span ends after everything inside it.
            round_id += name == "round"
        trace = {"traceEvents": trace_events, "displayTimeUnit": "ms"}
        problems = validate_chrome_trace(trace)
        if problems:
            raise ValueError(f"invalid Chrome trace: {problems[:3]}")
        with open(path, "w") as handle:
            json.dump(trace, handle)


def _slice_layer(task_name: str, kinds: dict) -> str:
    op = task_name.rsplit("/", 1)[-1]
    if op.endswith(PARALLEL_SUFFIXES):
        return "engine.parallel"
    if op in kinds:
        return KIND_LAYERS.get(kinds[op], "engine.other")
    if op == "sink":
        return "engine.build"  # engine.py's result collector
    if task_name == "server/arrivals":
        return "server"
    return "engine.other"
