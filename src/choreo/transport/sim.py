"""Deterministic in-memory transport with a seeded cooperative scheduler.

Exactly one thread runs at a time, and there is no scheduler thread: a baton
passes directly from task to task.  Every task owns a pipe, and whoever holds
the baton runs the scheduler's steps itself: `run` at the start, a task that
blocks on a receive, or a task that finishes.  It runs steps until one
resumes a task, then writes one byte to that task's pipe; a blocked task
reads its own pipe.  `os.write` releases the GIL before the kernel wakes the
reader, so the woken thread need not wait for the writer to drop it.
Resuming a task is one thread switch, and none when the step delivers the
message a blocked task was waiting for and chooses that same task again.
Since only the baton holder touches the queues, sends and receives need no
mutex.  `run` waits for the run by joining each task thread it started, and
closes that task's pipe once the thread has ended.

At every step the scheduler picks, from a deterministically ordered list of
enabled actions (resume a runnable task, in name order, then deliver the head
of a non-empty pair queue, in pair order), one action using a PRNG derived
from the run seed.  The runnable names and the non-empty pairs are kept as
two sorted lists, updated by bisection when a task blocks or wakes, a send
fills a queue or a delivery empties one, so a step costs O(log n) list upkeep
instead of a sort of every enabled action, and the PRNG draws an index into
their concatenation without building it.  Delivery choices are a pure
function of (seed, send history), per-pair FIFO always holds, and the same
seed reproduces the same schedule and message log byte for byte.

A provable stall (every live task blocked, nothing left to deliver) and a
blown step budget are both flagged as StepBudgetExceeded at the stuck
endpoints; both signal a deadlock or livelock and are always test failures.
Purely CPU-bound loops inside one endpoint never yield, so only blocking
points count as steps.  An exception inside a step (a scheduler fault), or a
task thread that fails to start, is raised at every live task's next blocking
point in turn, one task at a time, and then out of `run` as a TransportError.
A task thread returns right after its last hand-off, and `run` returns only
after joining every one it started.  A net runs once.
"""

from __future__ import annotations

import os
import random
import threading
from bisect import insort
from collections import deque
from typing import Callable

from ..errors import StepBudgetExceeded, TransportError
from ..seeding import derived_seed
from . import MessageRecord


class _Task:
    __slots__ = ("name", "thread", "state", "blocked_on", "abort", "error", "steps", "baton")

    def __init__(self, name: str):
        self.name = name
        self.thread = None
        self.state = "ready"  # ready (to run, or running) | blocked | done
        self.blocked_on = None
        self.abort = None  # exception to raise at next activation
        self.error = None
        self.steps = 0  # scheduler steps charged to this endpoint
        self.baton = os.pipe()  # (read, write): the baton holder writes to resume this task


class _SimHandle:
    """Per-endpoint transport handle bound to one location."""

    def __init__(self, net: "SimNet", name: str):
        self._net = net
        self._name = name

    def send(self, to: str, body: bytes) -> None:
        self._net._send(self._name, to, body)

    def recv(self, frm: str) -> bytes:
        return self._net._recv(self._name, frm)


class SimNet:
    def __init__(self, names, seed: int = 0, step_budget: int = 10_000):
        self.names = tuple(names)
        pairs = [(s, r) for s in self.names for r in self.names if s != r]
        self._pending = {p: deque() for p in pairs}
        self._arrived = {p: deque() for p in pairs}
        self._seqs = {p: 0 for p in pairs}
        # the enabled actions, each list sorted: names of the tasks in state
        # "ready", then the pairs with pending mail
        self._runnable: list[str] = []
        self._deliverable: list[tuple[str, str]] = []
        self._rng = random.Random(derived_seed(seed, "scheduler"))
        self._fault: BaseException | None = None
        self._clock = 0
        self._tasks: dict[str, _Task] = {}
        self._alive = 0
        self._budget = step_budget
        self.messages: list[MessageRecord] = []

    def handle(self, name: str) -> _SimHandle:
        if name not in self.names:
            raise TransportError(f"unknown location {name!r}")
        return _SimHandle(self, name)

    # -- endpoint side (runs only while the calling task holds the baton) --

    def _send(self, sender: str, to: str, body: bytes) -> None:
        pair = (sender, to)
        pending = self._pending.get(pair)
        if pending is None:
            raise TransportError(f"no route {sender!r} -> {to!r}")
        seq = self._seqs[pair]
        self._seqs[pair] = seq + 1
        t = self._clock
        self._clock = t + 1
        record = MessageRecord(sender, to, len(body), seq, t_send=t)
        self.messages.append(record)
        if not pending:
            insort(self._deliverable, pair)
        pending.append((record, body))

    def _recv(self, receiver: str, frm: str) -> bytes:
        queue = self._arrived.get((frm, receiver))
        if queue is None:
            raise TransportError(f"no route {frm!r} -> {receiver!r}")
        while not queue:
            task = self._tasks[receiver]
            task.state = "blocked"
            task.blocked_on = frm
            self._pass_baton(task)
            task.blocked_on = None
            if task.abort is not None:
                exc = task.abort
                task.abort = None
                raise exc
        record, body = queue.popleft()
        record.t_recv = self._clock
        self._clock += 1
        return body

    # -- the scheduler (runs on whichever thread holds the baton) ----------

    def run(self, mains: dict[str, Callable[[], None]]) -> dict[str, BaseException | None]:
        """Run one callable per endpoint to completion under the scheduler.

        Returns each endpoint's error (None on success).  Endpoint exceptions
        never propagate out of the run; stalled endpoints end with
        StepBudgetExceeded.  Raises TransportError on a second call, or
        after the run if a scheduler step raised or a task thread failed to
        start.
        """
        if self._tasks:
            raise TransportError("a SimNet runs once; build a new one for another run")
        if set(mains) != set(self.names):
            raise TransportError("one entry point per census location is required")
        self._tasks = {name: _Task(name) for name in self.names}
        self._runnable = sorted(self.names)
        self._alive = len(self._tasks)
        for task in self._tasks.values():
            task.thread = threading.Thread(
                target=self._thread_main, args=(task, mains[task.name]), daemon=True
            )
            if self._fault is None:
                try:
                    task.thread.start()
                    continue
                except Exception as exc:  # the started tasks are aborted as after a fault
                    self._fault = exc
            task.state = "done"

        self._pass_baton(None)
        for task in self._tasks.values():
            if task.thread.ident is not None:  # started
                task.thread.join()
            os.close(task.baton[0])
            os.close(task.baton[1])
        if self._fault is not None:
            raise TransportError(
                f"simulator scheduler failed: {self._fault!r}"
            ) from self._fault
        return {name: task.error for name, task in self._tasks.items()}

    def _pass_baton(self, holder: _Task | None) -> None:
        """Run steps until one resumes a task and hand that task the baton;
        `holder`, the task giving it up (None for `run`), then waits until it
        is resumed, unless it is the one chosen or has finished."""
        chosen = self._next()
        if chosen is holder:
            return
        if chosen is not None:
            os.write(chosen.baton[1], b"\0")
        if holder is not None and holder.state != "done":
            os.read(holder.baton[0], 1)

    def _next(self) -> _Task | None:
        """The task the next steps resume, or None once none is alive.  After
        a scheduler fault, every live task in turn, with the fault to raise."""
        if self._fault is None:
            try:
                return self._step()
            except Exception as exc:
                self._fault = exc
        for task in self._tasks.values():
            if task.state != "done":
                task.abort = TransportError(f"simulator scheduler failed: {self._fault!r}")
                return task
        return None

    def _step(self) -> _Task | None:
        runnable, deliverable, tasks = self._runnable, self._deliverable, self._tasks
        getrandbits = self._rng.getrandbits
        while self._alive:
            n_run = len(runnable)
            n = n_run + len(deliverable)
            if not n:
                for t in tasks.values():
                    if t.state != "done":
                        if t.abort is None:
                            t.abort = StepBudgetExceeded(
                                f"stalled: {t.name!r} blocked on recv from "
                                f"{t.blocked_on!r} with nothing in flight"
                            )
                        self._wake(t)
                continue
            # the draws of Random.choice(range(n)), without its calls
            k = n.bit_length()
            i = getrandbits(k)
            while i >= n:
                i = getrandbits(k)
            if i < n_run:
                task = tasks[runnable.pop(i)]
                task.steps += 1
                if task.steps > self._budget:
                    self._trip(task)
                return task
            pair = deliverable[i - n_run]
            pending = self._pending[pair]
            envelope = pending.popleft()
            if not pending:
                del deliverable[i - n_run]
            envelope[0].t_deliver = self._clock
            self._clock += 1
            self._arrived[pair].append(envelope)
            task = tasks[pair[1]]
            if task.state == "blocked" and task.blocked_on == pair[0]:
                self._wake(task)
            task.steps += 1
            if task.steps > self._budget:
                self._trip(task)
        return None

    def _wake(self, task: _Task) -> None:
        task.state = "ready"
        insort(self._runnable, task.name)

    def _trip(self, task: _Task) -> None:
        """`task` is over the step budget: abort every live task."""
        text = f"step budget of {self._budget} per endpoint exceeded at {task.name!r}"
        for t in self._tasks.values():
            if t.state != "done" and t.abort is None:
                t.abort = StepBudgetExceeded(text)  # one per task: a raise extends its traceback
                if t.state == "blocked":
                    self._wake(t)

    def _thread_main(self, task: _Task, main: Callable[[], None]) -> None:
        os.read(task.baton[0], 1)
        if task.abort is not None:
            task.error = task.abort
            task.abort = None
        else:
            try:
                main()
            except BaseException as exc:  # recorded per endpoint, never propagated
                task.error = exc
        task.state = "done"
        self._alive -= 1
        self._pass_baton(task)
