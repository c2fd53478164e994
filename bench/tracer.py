"""Span tracing of choreo's layers, applied from outside the library.

`Tracer.install` replaces the public functions and methods of each layer at
the place they are called (module globals that a caller imported, class
attributes) with thin wrappers, and `uninstall` puts the originals back.
Nothing under `src/` is edited.

Two kinds of wrapper:

- span wrappers record (op, id, parent, name, thread, start, end) and keep a
  parent stack per thread, so a span's self time is its duration minus the
  time its direct children cover, and simulated and TCP endpoint threads each
  get their own self time;
- count wrappers only bump a per-thread counter; they sit on the hottest
  calls (`Census.names`, witness construction) where a span would cost more
  than the call.

Aggregates live in per-thread dictionaries that are merged at the end, so no
lock is taken on the hot path.  Spans are kept in memory, up to a cap, and
written out when the benchmark ends.
"""

import functools
import importlib
import itertools
import json
import threading
import time

# Where each wrapped boundary lives.  Modules are named relative to `choreo`.
CODEC_SITES = ("runtime.central", "runtime.endpoint", "runtime.views", "transport.tcp")
WITNESS_SITES = {
    "ops": ("member", "subset", "compose"),
    "protocols.gmw": ("subset", "compose"),
    "protocols.kvs": ("subset",),
    "protocols.lottery": ("compose",),
}
OPERATORS = (
    "locally",
    "multicast",
    "naked",
    "enclave",
    "replicated",
    "fanout",
    "fanin",
    "flatten",
    "others_forget",
)
BODY_TAKING = {"locally": 1, "replicated": 0}  # operator -> index of its body arg

SPAN_CAP = 50_000


class _ThreadStats:
    __slots__ = ("stack", "counts", "self_s", "incl_s")

    def __init__(self):
        self.stack = []
        self.counts = {}
        self.self_s = {}
        self.incl_s = {}


class Tracer:
    def __init__(self):
        self.op = 0  # id of the op in flight; spans of every thread take it
        self.active = False
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._threads = []
        self._lock = threading.Lock()
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _stats(self) -> _ThreadStats:
        try:
            return self._local.stats
        except AttributeError:
            stats = _ThreadStats()
            self._local.stats = stats
            with self._lock:
                self._threads.append(stats)
            return stats

    def count(self, name: str, n: int = 1) -> None:
        counts = self._stats().counts
        counts[name] = counts.get(name, 0) + n

    def begin(self, name: str) -> list:
        stack = self._stats().stack
        parent = stack[-1][3] if stack else 0
        frame = [name, time.perf_counter(), 0.0, next(self._ids), parent]
        stack.append(frame)
        return frame

    def end(self, frame: list) -> None:
        now = time.perf_counter()
        stats = self._stats()
        stats.stack.pop()
        name, start, child, span_id, parent = frame
        duration = now - start
        if stats.stack:
            stats.stack[-1][2] += duration
        stats.self_s[name] = stats.self_s.get(name, 0.0) + duration - child
        stats.incl_s[name] = stats.incl_s.get(name, 0.0) + duration
        stats.counts[name] = stats.counts.get(name, 0) + 1
        if len(self.spans) < SPAN_CAP:
            self.spans.append(
                (self.op, span_id, parent, name, threading.get_ident(), start, now)
            )

    def totals(self) -> tuple[dict, dict, dict]:
        """Merged (counts, self seconds, inclusive seconds) over all threads."""
        counts, self_s, incl_s = {}, {}, {}
        with self._lock:
            threads = list(self._threads)
        for stats in threads:
            for into, frm in ((counts, stats.counts), (self_s, stats.self_s),
                              (incl_s, stats.incl_s)):
                for key, value in frm.items():
                    into[key] = into.get(key, 0) + value
        return counts, self_s, incl_s

    def write_spans(self, path) -> None:
        """One JSON object per line; times in microseconds from the first span."""
        origin = min((s[5] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            for op, span_id, parent, name, thread, start, end in self.spans:
                fh.write(json.dumps({
                    "op": op, "id": span_id, "parent": parent, "name": name,
                    "thread": thread,
                    "start_us": round((start - origin) * 1e6, 3),
                    "end_us": round((end - origin) * 1e6, 3),
                }) + "\n")

    # -- wrappers ------------------------------------------------------------

    def _span(self, name: str, fn, tally=None):
        """Span every call of `fn`; `tally=(counter, size)` also adds
        `size(args, result)` to a byte counter."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(frame)
            if tally is not None:
                tracer.count(tally[0], tally[1](args, result))
            return result

        return traced

    def _counted(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.active:
                tracer.count(name)
            return fn(*args, **kwargs)

        return counted

    def _operator(self, op: str, fn):
        """Span the operator, and the local body it is handed as a child."""
        name = f"ops.{op}"
        body_index = BODY_TAKING.get(op)
        tracer = self

        @functools.wraps(fn)
        def traced(bundle, *args, **kwargs):
            if not tracer.active:
                return fn(bundle, *args, **kwargs)
            if body_index is not None:
                args = list(args)
                args[body_index] = tracer._span("body", args[body_index])
            frame = tracer.begin(name)
            try:
                return fn(bundle, *args, **kwargs)
            finally:
                tracer.end(frame)

        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every layer boundary of the imported `choreo` package."""

        def mod(rel):
            return importlib.import_module(f"choreo.{rel}")

        tracer = self
        census = mod("locations").Census
        names = census.__dict__["names"].fget

        def counted_names(obj):
            if tracer.active:
                tracer.count("locations.census_names")
            return names(obj)

        self._patch(census, "names", property(counted_names))

        for rel, attrs in WITNESS_SITES.items():
            module = mod(rel)
            for attr in attrs:
                self._patch(module, attr,
                            self._counted("locations.witness", module.__dict__[attr]))

        encoded = ("portable.encode.bytes", lambda args, result: len(result))
        for rel in CODEC_SITES:
            module = mod(rel)
            self._patch(module, "encode",
                        self._span("portable.encode", module.encode, encoded))
            if "decode" in module.__dict__:
                self._patch(module, "decode", self._span("portable.decode", module.decode))

        for bundle in (mod("runtime.central").CentralBundle,
                       mod("runtime.endpoint").EndpointBundle):
            for op in OPERATORS:
                self._patch(bundle, op, self._operator(op, bundle.__dict__[op]))

        transports = ((mod("transport.sim")._SimHandle, "transport.sim"),
                      (mod("transport.tcp").TcpTransport, "transport.tcp"))
        for cls, prefix in transports:
            for attr in ("send", "recv"):
                self._patch(cls, attr, self._span(f"{prefix}.{attr}", cls.__dict__[attr]))

        tcp = mod("transport.tcp")
        self._patch(tcp, "pack_envelope",
                    self._span("transport.tcp.pack_envelope", tcp.pack_envelope))
        framed = ("transport.tcp.wire_bytes", lambda args, result: 4 + len(args[1]))
        self._patch(tcp, "write_frame",
                    self._span("transport.tcp.write_frame", tcp.write_frame, framed))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
