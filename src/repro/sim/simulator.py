"""The discrete-event chip-multiprocessor simulator.

This module is the substrate that replaces the paper's UltraSparc T1
testbed. It executes cooperative *tasks* (generators yielding the
:mod:`repro.sim.events` vocabulary) on ``n`` processor contexts:

* tasks run until they issue a :class:`~repro.sim.events.Compute`,
  which occupies a context for ``cost / speed`` simulated time;
* after each compute chunk the task rejoins the tail of the run queue,
  giving round-robin fairness across all runnable tasks — the T1's
  scheduling policy ("each core executes instructions from available
  threads in a round-robin fashion");
* :class:`~repro.sim.events.Put`/:class:`~repro.sim.events.Get` on
  bounded queues block when full/empty, providing the finite buffering
  that throttles producers behind slow consumers;
* contention for shared hardware scales per-context speed via
  :class:`~repro.sim.processor.SpeedModel` (Section 4.1.4).

Determinism: the event heap breaks time ties by insertion order and
all queues are FIFO, so a given task program yields identical
timelines on every run.
"""

from __future__ import annotations

import heapq
from collections import deque
from itertools import count
from typing import Any, Callable, Generator, Optional

from repro.core.contention import ContentionLike
from repro.errors import DeadlockError, SimulationError
from repro.obs.trace import TID_QUEUES, TID_TASKS
from repro.sim.events import CLOSED, Close, Compute, Get, Put, Sleep
from repro.sim.processor import Processor, SpeedModel
from repro.sim.queues import SimQueue
from repro.sim.task import BLOCKED, DONE, FAILED, READY, RUNNING, Task

__all__ = ["Simulator"]


def _livelock(task: Task) -> SimulationError:
    """The error for a task past its zero-time step budget."""
    return SimulationError(
        f"task {task.name!r} performed {task.zero_time_steps} requests "
        "without consuming CPU; suspected zero-time livelock"
    )


class Simulator:
    """Event-driven multiprocessor executing cooperative tasks.

    Parameters
    ----------
    processors:
        Number of hardware contexts (the paper sweeps 1, 2, 8, 32).
    contention:
        Optional contention spec (kappa float, callable, or model); see
        :mod:`repro.core.contention`.
    max_zero_time_steps:
        Livelock guard: a task performing this many consecutive
        requests without any positive-cost Compute is assumed stuck in
        a zero-time loop and fails.
    """

    def __init__(
        self,
        processors: int,
        contention: ContentionLike = None,
        max_zero_time_steps: int = 1_000_000,
    ) -> None:
        if processors < 1:
            raise SimulationError(f"processors must be >= 1, got {processors}")
        self.n_processors = int(processors)
        self.now = 0.0
        self._speed = SpeedModel(contention)
        # Per-busy-count speed memo: ``SpeedModel.speed`` is a pure
        # function of the busy count, and the hot loop asks for the
        # same handful of values millions of times.
        self._speed_memo: dict[int, float] = {}
        self._max_zero_time_steps = max_zero_time_steps
        # Heap entries are ``(when, seq, fn, args)`` — callable plus
        # argument tuple rather than a bound closure, so scheduling a
        # compute completion allocates no lambda on the hot path.
        self._heap: list[tuple[float, int, Callable[..., None], tuple]] = []
        self._seq = count()
        self._processors = [Processor(i) for i in range(self.n_processors)]
        self._idle: deque[Processor] = deque(self._processors)
        self._run_queue: deque[Task] = deque()
        # Every task spawned and not yet retired, in spawn order. A
        # session retires the finished prefix at the end of each batch
        # (``repro.engine.stats.retire_finished``); ``spawned`` and
        # ``completions`` count every task ever spawned / finished.
        self.tasks: list[Task] = []
        self.spawned = 0
        self.completions = 0
        self._alive = 0
        # Optional flight recorder (see repro.obs.trace). ``None`` is
        # the hot default: every emit site guards with one identity
        # check, so a detached tracer costs nothing and changes no
        # scheduling decision — traced and untraced runs are
        # timeline-identical.
        self.tracer = None
        # Optional wall-clock profiler (see repro.obs.perf). Same
        # contract as the tracer: ``None`` is the hot default, every
        # hook site is one pointer test, and the profiler observes the
        # *host* clock only — it never feeds back into scheduling.
        self.perf = None
        # ``repro.engine.stats.stage_rows``'s resumable fold over
        # ``tasks`` (a ``StageFold``), created on the first read; it also
        # holds the sums of every retired task. The simulator only
        # carries it, as it carries the two observers above, so a read
        # costs the tasks spawned since the last one.
        self.stage_fold = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def queue(self, name: str, capacity: int = 4) -> SimQueue:
        """Create a bounded queue for this simulator's tasks."""
        return SimQueue(name, capacity)

    def call_soon(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` at the current simulated time, after the event
        cascade currently executing finishes.

        Used by schedulers layered on the simulator (e.g. the sharing
        coordinator) to coalesce work triggered by several callbacks
        that fire at the same instant.
        """
        self._schedule(self.now, fn)

    def spawn(
        self,
        gen: Generator[Any, Any, Any],
        name: str,
        on_done: Optional[Callable[[Task], None]] = None,
        owner: Any = None,
        op_id: Optional[str] = None,
    ) -> Task:
        """Register a new task; it becomes runnable immediately.

        ``owner`` is the group the task works for and receives its
        failure (``owner.fail(task, error)``); ``op_id`` keys its
        stage-statistics row. Both stay ``None`` for a task spawned by
        hand, which raises out of :meth:`run` when it fails and has no
        stage row (see :class:`~repro.sim.task.Task`).
        """
        task = Task(name=name, gen=gen, on_done=on_done, owner=owner, op_id=op_id)
        task.spawned_at = self.now
        self.tasks.append(task)
        self.spawned += 1
        self._alive += 1
        if self.tracer is not None:
            self.tracer.instant("spawn", "task", tid=TID_TASKS, task=name)
        self._make_ready(task, None)
        return task

    def run(self, until: Optional[float] = None) -> None:
        """Advance the simulation.

        Runs until the event heap drains (all tasks done or blocked) or
        until simulated time exceeds ``until``, whichever comes first.
        Raises :class:`DeadlockError` if tasks remain blocked with no
        pending events.
        """
        perf = self.perf
        started = perf.clock() if perf is not None else 0.0
        heap = self._heap
        heappop = heapq.heappop
        run_queue = self._run_queue
        idle = self._idle
        advance = self._advance
        try:
            while True:
                # Inline dispatch: pair runnable tasks with idle
                # contexts (both FIFO) until one side runs dry.
                while run_queue and idle:
                    advance(idle.popleft(), run_queue.popleft())
                if not heap:
                    break
                entry = heappop(heap)
                t = entry[0]
                if until is not None and t > until:
                    heapq.heappush(heap, entry)
                    self.now = until
                    return
                self.now = t
                entry[2](*entry[3])
        finally:
            if perf is not None:
                perf.record_run(perf.clock() - started)
        if self._alive > 0 and not self._run_queue:
            blocked = [t.name for t in self.tasks if t.state == BLOCKED]
            raise DeadlockError(
                f"simulation stalled at t={self.now:.6g} with {self._alive} live "
                f"task(s); blocked: {blocked[:20]}"
            )

    # -- accounting -------------------------------------------------------

    @property
    def total_busy_time(self) -> float:
        return sum(p.busy_time for p in self._processors)

    def utilization(self) -> float:
        """Fraction of processor-time spent computing since t=0."""
        if self.now == 0:
            return 0.0
        return self.total_busy_time / (self.n_processors * self.now)

    # ------------------------------------------------------------------
    # Scheduler internals
    # ------------------------------------------------------------------

    def _schedule(
        self, when: float, fn: Callable[..., None], args: tuple = ()
    ) -> None:
        heapq.heappush(self._heap, (when, next(self._seq), fn, args))

    def _make_ready(self, task: Task, value: Any) -> None:
        if task.blocked_since is not None:
            task.queue_block_time += self.now - task.blocked_since
            task.blocked_since = None
            if self.tracer is not None:
                self.tracer.instant(
                    "unblock", "queue", tid=TID_QUEUES, task=task.name
                )
        task.resume_value = value
        task.state = READY
        self._run_queue.append(task)

    def _release(self, proc: Processor) -> None:
        proc.current = None
        self._idle.append(proc)

    def _finish(self, task: Task) -> None:
        task.state = DONE
        task.finished_at = self.now
        task.owner = None
        self._alive -= 1
        if self.tracer is not None:
            self.tracer.instant("finish", "task", tid=TID_TASKS, task=task.name)
        self.completions += 1
        if task.on_done is not None:
            task.on_done(task)

    def _fail(self, proc: Processor, task: Task, error: SimulationError) -> None:
        """The one failure route of a task ``proc`` is driving.

        Every request ``_advance`` cannot serve, and every exception
        the task's generator raises, ends here: the task is marked
        ``FAILED`` with ``error``, its processor is released, and it
        stops counting as live. Its generator is closed, so a task
        stopped at a request it cannot serve runs its ``finally``
        clauses too (a stage frees its grant, a scan its elevator
        ticket). Then ``error`` goes to the task's owner
        (``owner.fail(task, error)``), or is raised out of :meth:`run`
        when the task has none.
        """
        self._release(proc)
        task.state = FAILED
        task.error = error
        task.finished_at = self.now
        self._alive -= 1
        task.gen.close()
        owner = task.owner
        if owner is None:
            raise error
        task.owner = None
        owner.fail(task, error)

    def _compute_done(self, proc: Processor, task: Task) -> None:
        # A compute completion: the task was RUNNING (never parked on a
        # queue), so the _make_ready blocked-time bookkeeping is moot.
        proc.current = None
        self._idle.append(proc)
        task.resume_value = None
        task.state = READY
        self._run_queue.append(task)

    def _advance(self, proc: Processor, task: Task) -> None:
        """Drive ``task`` on ``proc`` until it computes, blocks or ends.

        All non-Compute requests take zero simulated time and are
        processed inline; the loop exits when the task occupies the
        processor (Compute), parks on a queue, sleeps, or finishes.

        This is the simulator's innermost loop — every simulated event
        passes through it — so it trades a little shape for speed:
        request dispatch is on exact class identity (the isinstance
        fallback covers subclasses), the livelock counter is inlined,
        and per-busy-count speeds are memoized. Every way the task can
        fail here leaves through :meth:`_fail`.
        """
        proc.current = task
        task.state = RUNNING
        value = task.resume_value
        task.resume_value = None
        tracer = self.tracer
        perf = self.perf
        send = task.gen.send
        now = self.now  # constant within this call: requests are zero-time
        idle = self._idle
        max_zero = self._max_zero_time_steps
        while True:
            try:
                if perf is not None:
                    # Time the generator slice (resume to next yield /
                    # return) with the host clock; the finally clause
                    # attributes the terminal StopIteration slice too.
                    slice_start = perf.clock()
                    try:
                        request = send(value)
                    finally:
                        perf.record_slice(
                            task.name, perf.clock() - slice_start
                        )
                else:
                    request = send(value)
            except StopIteration:
                self._release(proc)
                self._finish(task)
                return
            except Exception as exc:
                error = SimulationError(f"task {task.name!r} raised {exc!r} at t={now:.6g}")
                error.__cause__ = exc
                return self._fail(proc, task, error)
            value = None

            cls = request.__class__
            if cls is Compute:
                cost = request.cost
                if cost == 0:
                    task.zero_time_steps += 1
                    if task.zero_time_steps > max_zero:
                        return self._fail(proc, task, _livelock(task))
                    continue
                busy = self.n_processors - len(idle)
                memo = self._speed_memo
                speed = memo.get(busy)
                if speed is None:
                    speed = memo[busy] = self._speed.speed(busy)
                duration = cost / speed
                proc.busy_time += duration
                task.busy_time += duration
                task.io_time += request.io / speed
                task.zero_time_steps = 0
                if tracer is not None:
                    # Emitted at issue time with the exact duration the
                    # processor ledger accrued, in accrual order — the
                    # per-lane sums reproduce busy_time bit for bit.
                    tracer.complete(
                        task.name,
                        "compute",
                        start=now,
                        dur=duration,
                        tid=proc.index,
                        cost=cost,
                        io=request.io,
                    )
                heapq.heappush(
                    self._heap,
                    (now + duration, next(self._seq),
                     self._compute_done, (proc, task)),
                )
                return

            if cls is Get:
                q = request.queue
                items = q.items
                if items:
                    value = items.popleft()
                    q.total_dequeued += 1
                    if q.waiting_putters:
                        self._refill_from_putters(q)
                    task.zero_time_steps += 1
                    if task.zero_time_steps > max_zero:
                        return self._fail(proc, task, _livelock(task))
                    continue
                if q.closed:
                    value = CLOSED
                    task.zero_time_steps += 1
                    if task.zero_time_steps > max_zero:
                        return self._fail(proc, task, _livelock(task))
                    continue
                q.waiting_getters.append(task)
                task.state = BLOCKED
                task.blocked_since = now
                if tracer is not None:
                    tracer.instant(
                        "block", "queue", tid=TID_QUEUES,
                        task=task.name, queue=q.name, op="get",
                    )
                self._release(proc)
                return

            if cls is Put:
                q = request.queue
                if q.closed:
                    error = SimulationError(f"put on closed queue {q.name!r}")
                    return self._fail(proc, task, error)
                if len(q.items) < q.capacity:
                    self._enqueue(q, request.item)
                    task.zero_time_steps += 1
                    if task.zero_time_steps > max_zero:
                        return self._fail(proc, task, _livelock(task))
                    continue
                q.waiting_putters.append((task, request.item))
                task.state = BLOCKED
                task.blocked_since = now
                if tracer is not None:
                    tracer.instant(
                        "block", "queue", tid=TID_QUEUES,
                        task=task.name, queue=q.name, op="put",
                    )
                self._release(proc)
                return

            if cls is Close:
                q = request.queue
                q.closed = True
                if q.waiting_putters:
                    error = SimulationError(
                        f"queue {q.name!r} closed while producers blocked on it"
                    )
                    return self._fail(proc, task, error)
                while q.waiting_getters:
                    getter = q.waiting_getters.popleft()
                    self._make_ready(getter, CLOSED)
                task.zero_time_steps += 1
                if task.zero_time_steps > max_zero:
                    return self._fail(proc, task, _livelock(task))
                continue

            if cls is Sleep:
                if request.throttle:
                    task.throttle_time += request.duration
                if tracer is not None:
                    tracer.instant(
                        "sleep", "sched", tid=TID_TASKS,
                        task=task.name, duration=request.duration,
                        throttle=request.throttle,
                    )
                task.state = BLOCKED
                self._schedule(
                    now + request.duration,
                    self._make_ready, (task, None),
                )
                self._release(proc)
                return

            if isinstance(request, (Compute, Get, Put, Close, Sleep)):
                error = SimulationError(
                    f"task {task.name!r} yielded a request subclass "
                    f"{cls.__name__}; yield the base event types directly"
                )
            else:
                error = SimulationError(f"task {task.name!r} yielded unknown request {request!r}")
            return self._fail(proc, task, error)

    # -- queue plumbing ----------------------------------------------------

    def _enqueue(self, q: SimQueue, item: Any) -> None:
        """Append an item, then hand it straight to a waiting getter."""
        q.items.append(item)
        q.total_enqueued += 1
        self._serve_getters(q)

    def _serve_getters(self, q: SimQueue) -> None:
        while q.waiting_getters and q.items:
            getter = q.waiting_getters.popleft()
            value = q.items.popleft()
            q.total_dequeued += 1
            self._make_ready(getter, value)
        self._refill_from_putters(q)

    def _refill_from_putters(self, q: SimQueue) -> None:
        while q.waiting_putters and not q.full:
            putter, item = q.waiting_putters.popleft()
            q.items.append(item)
            q.total_enqueued += 1
            self._make_ready(putter, None)
        # Newly buffered items may serve still-waiting getters.
        while q.waiting_getters and q.items:
            getter = q.waiting_getters.popleft()
            value = q.items.popleft()
            q.total_dequeued += 1
            self._make_ready(getter, value)
