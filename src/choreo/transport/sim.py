"""Deterministic in-memory transport with a seeded cooperative scheduler.

Exactly one thread runs at a time, the scheduler or one endpoint task, and
they pass a baton between them.  Every task owns a binary semaphore (a lock
created acquired), and so does the scheduler.  To resume a task, the scheduler
releases that task's lock and waits on its own.  A task that blocks on a
receive releases the scheduler's lock and waits on its own; a task that
finishes releases the scheduler's lock and returns.  A step therefore wakes
exactly one thread, whatever the number of endpoints, and since only the
baton holder touches the queues, sends and receives need no mutex.

At every step the scheduler picks, from a deterministically ordered list of
enabled actions (resume a runnable task, or deliver the head of a non-empty
pair queue), one action using a PRNG derived from the run seed.  The set of
non-empty pair queues is kept up to date by each send and each delivery, so a
step sorts that set instead of scanning every ordered pair.  Delivery choices
are a pure function of (seed, send history), per-pair FIFO always holds, and
the same seed reproduces the same schedule and message log byte for byte.

A provable stall (every live task blocked, nothing left to deliver) and a
blown step budget are both flagged as StepBudgetExceeded at the stuck
endpoints; both signal a deadlock or livelock and are always test failures.
Purely CPU-bound loops inside one endpoint never yield, so only blocking
points count as steps.  Every task thread has returned by the time `run`
does; one that has not is a TransportError, never a silent leak.
"""

from __future__ import annotations

import random
import threading
from collections import deque
from typing import Callable

from ..errors import StepBudgetExceeded, TransportError
from ..seeding import derived_seed
from . import MessageRecord

_JOIN_TIMEOUT_S = 5.0


def _baton() -> threading.Lock:
    lock = threading.Lock()
    lock.acquire()
    return lock


class _Envelope:
    __slots__ = ("record", "body")

    def __init__(self, record: MessageRecord, body: bytes):
        self.record = record
        self.body = body


class _Task:
    __slots__ = ("name", "thread", "state", "blocked_on", "abort", "error", "baton")

    def __init__(self, name: str):
        self.name = name
        self.thread = None
        self.state = "ready"  # ready | running | blocked | done
        self.blocked_on = None
        self.abort = None  # exception to raise at next activation
        self.error = None
        self.baton = _baton()  # released by the scheduler to resume this task


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
        self._deliverable: set[tuple[str, str]] = set()  # pairs with pending mail
        self._arrived = {p: deque() for p in pairs}
        self._seqs = {p: 0 for p in pairs}
        self._rng = random.Random(derived_seed(seed, "scheduler"))
        self._baton = _baton()  # released by a task to hand control back
        self._clock = 0
        self._tasks: dict[str, _Task] = {}
        self._budget = step_budget
        self._steps = {n: 0 for n in self.names}
        self.messages: list[MessageRecord] = []

    def handle(self, name: str) -> _SimHandle:
        if name not in self.names:
            raise TransportError(f"unknown location {name!r}")
        return _SimHandle(self, name)

    # -- endpoint side (runs only while the calling task holds the baton) --

    def _tick(self) -> int:
        t = self._clock
        self._clock += 1
        return t

    def _send(self, sender: str, to: str, body: bytes) -> None:
        pair = (sender, to)
        pending = self._pending.get(pair)
        if pending is None:
            raise TransportError(f"no route {sender!r} -> {to!r}")
        seq = self._seqs[pair]
        self._seqs[pair] = seq + 1
        record = MessageRecord(sender, to, len(body), seq, t_send=self._tick())
        self.messages.append(record)
        pending.append(_Envelope(record, body))
        self._deliverable.add(pair)

    def _recv(self, receiver: str, frm: str) -> bytes:
        queue = self._arrived.get((frm, receiver))
        if queue is None:
            raise TransportError(f"no route {frm!r} -> {receiver!r}")
        task = self._tasks[receiver]
        while not queue:
            task.state = "blocked"
            task.blocked_on = frm
            self._baton.release()
            task.baton.acquire()
            task.state = "running"
            task.blocked_on = None
            if task.abort is not None:
                exc = task.abort
                task.abort = None
                raise exc
        envelope = queue.popleft()
        envelope.record.t_recv = self._tick()
        return envelope.body

    # -- scheduler side ---------------------------------------------------

    def run(self, mains: dict[str, Callable[[], None]]) -> dict[str, BaseException | None]:
        """Run one callable per endpoint to completion under the scheduler.

        Returns each endpoint's error (None on success).  Endpoint exceptions
        never propagate out of the run; stalled endpoints end with
        StepBudgetExceeded.  Raises TransportError if a task thread is still
        alive after the last one has handed back control.
        """
        if set(mains) != set(self.names):
            raise TransportError("one entry point per census location is required")
        for name in self.names:
            task = _Task(name)
            task.thread = threading.Thread(
                target=self._thread_main, args=(task, mains[name]), daemon=True
            )
            self._tasks[name] = task
        for task in self._tasks.values():
            task.thread.start()

        while True:
            alive = [t for t in self._tasks.values() if t.state != "done"]
            if not alive:
                break
            runnable = sorted(t.name for t in alive if t.state == "ready")
            deliverable = sorted(self._deliverable)
            actions = [("run", n) for n in runnable] + [
                ("deliver", s, r) for (s, r) in deliverable
            ]
            if not actions:
                for t in alive:
                    if t.abort is None:
                        t.abort = StepBudgetExceeded(
                            f"stalled: {t.name!r} blocked on recv from "
                            f"{t.blocked_on!r} with nothing in flight"
                        )
                    t.state = "ready"
                continue
            action = self._rng.choice(actions)
            if action[0] == "run":
                name = action[1]
                self._charge(name)
                self._tasks[name].baton.release()
                self._baton.acquire()
            else:
                _, s, r = action
                pending = self._pending[(s, r)]
                envelope = pending.popleft()
                if not pending:
                    self._deliverable.discard((s, r))
                envelope.record.t_deliver = self._tick()
                self._arrived[(s, r)].append(envelope)
                task = self._tasks[r]
                if task.state == "blocked" and task.blocked_on == s:
                    task.state = "ready"
                self._charge(r)

        for task in self._tasks.values():
            task.thread.join(timeout=_JOIN_TIMEOUT_S)
        leaked = [t.name for t in self._tasks.values() if t.thread.is_alive()]
        if leaked:
            raise TransportError(f"simulator threads still alive after the run: {leaked}")
        return {name: task.error for name, task in self._tasks.items()}

    def _charge(self, name: str) -> None:
        self._steps[name] += 1
        if self._steps[name] <= self._budget:
            return
        exc = StepBudgetExceeded(
            f"step budget of {self._budget} per endpoint exceeded at {name!r}"
        )
        for t in self._tasks.values():
            if t.state != "done" and t.abort is None:
                t.abort = exc
                if t.state == "blocked":
                    t.state = "ready"

    def _thread_main(self, task: _Task, main: Callable[[], None]) -> None:
        task.baton.acquire()
        task.state = "running"
        if task.abort is not None:
            task.error = task.abort
            task.abort = None
        else:
            try:
                main()
            except BaseException as exc:  # recorded per endpoint, never propagated
                task.error = exc
        task.state = "done"
        self._baton.release()
