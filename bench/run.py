"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload gmw-oracle --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the `choreo` package is imported from
`src/` next to this directory.  With `--trace 0` the run measures the
end-to-end metrics; with `--trace 1` it measures the same work untraced for
half the time, then traced for the other half, and reports the per-layer
metrics and the tracing overhead.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  The line before
it is the run record (seed, platform, digest, sample counts, unscaled
timings), also written to `bench/out/`.  Timings are scaled to the speed
probe's reference machine (`speed.py`).  See bench/README.md.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPS = 21
SETUP_PROBES = 3  # probes before each set-up

from speed import Probe  # noqa: E402  (sibling modules of this script)
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def load_workload(name: str, seed: int, size: str = "full"):
    """Build the workload SETUP_REPS times, each from a fresh import of
    `choreo`, and keep the last build.  Returns (workload, median set-up s
    scaled by the speed probe, median set-up s unscaled)."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    probe = Probe()
    raw, scaled = [], []
    workload = None
    for _ in range(SETUP_REPS):
        if workload is not None:
            workload.close()
        for module in [m for m in sys.modules if m == "choreo" or m.startswith("choreo.")]:
            del sys.modules[module]
        for _ in range(SETUP_PROBES):
            probe.tick()
        t0 = time.perf_counter()
        workload = WORKLOADS[name](seed, size)
        raw.append(time.perf_counter() - t0)
        scaled.append(raw[-1] * probe.factor(t0))
    workload.close()
    return workload, statistics.median(scaled), statistics.median(raw)


def percentile(values: list, q: int) -> float:
    """The q-th percentile (1..99) by linear interpolation."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timings(phase, scaled: bool = True) -> dict:
    """Ops per second of time spent in ops, and the latency median and p90
    of the correct ops, over the whole phase."""
    times = phase.scaled_s() if scaled else phase.op_s
    latencies = phase.latencies(scaled=scaled) or times  # no correct op: not correct
    return {
        "ops_per_s": (len(times) / max(sum(times), 1e-9), "1/s"),
        "op_ms_p50": (statistics.median(latencies) * 1e3, "ms"),
        "op_ms_p90": (percentile(latencies, 90) * 1e3, "ms"),
    }


def end_to_end(phase, setup_s: float) -> dict:
    return {
        **timings(phase),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(plain, traced, tracer) -> dict:
    counts, self_s, incl_s = tracer.totals()
    ops = max(traced.attempted, 1)

    def per_op(value):
        return value / ops

    def calls(name):
        return counts.get(name, 0)

    sim_msgs = calls("transport.sim.send")
    sim_wait = incl_s.get("transport.sim.recv", 0.0)
    ops_self = sum(v for k, v in self_s.items() if k.startswith("ops."))
    codec = self_s.get("portable.encode", 0.0) + self_s.get("portable.decode", 0.0)
    body = self_s.get("body", 0.0)
    wait = sim_wait + incl_s.get("transport.tcp.recv", 0.0)
    send = sum(v for k, v in self_s.items()
               if k.startswith("transport.") and not k.endswith(".recv"))
    split_total = (ops_self + codec + body + wait + send) or 1.0

    def kvs_p50(kind):
        values = plain.latencies(kind)
        return statistics.median(values) * 1e3 if values else 0.0

    # Overhead over the ops both phases ran: they walk the same work list.
    common = min(len(plain.op_s), len(traced.op_s))
    plain_s, traced_s = plain.scaled_s()[:common], traced.scaled_s()[:common]
    overhead = sum(traced_s) / sum(plain_s) if common and sum(plain_s) else 0.0

    metrics = {
        "locations.census_names.calls": (per_op(calls("locations.census_names")), "1/op"),
        "locations.witness.calls": (per_op(calls("locations.witness")), "1/op"),
        "runtime.central.value_records":
            (per_op(traced.counts.get("runtime.central.value_records", 0)), "1/op"),
        "runtime.central.branch_records":
            (per_op(traced.counts.get("runtime.central.branch_records", 0)), "1/op"),
    }
    for op in ("locally", "multicast", "naked", "enclave", "replicated", "fanout",
               "fanin", "flatten", "others_forget"):
        metrics[f"ops.{op}.calls"] = (per_op(calls(f"ops.{op}")), "1/op")
    metrics.update({
        "ops.self_s": (per_op(ops_self), "s/op"),
        "portable.encode.calls": (per_op(calls("portable.encode")), "1/op"),
        "portable.encode.bytes": (per_op(calls("portable.encode.bytes")), "B/op"),
        "portable.encode.self_s": (per_op(self_s.get("portable.encode", 0.0)), "s/op"),
        "portable.decode.calls": (per_op(calls("portable.decode")), "1/op"),
        "portable.decode.self_s": (per_op(self_s.get("portable.decode", 0.0)), "s/op"),
        "runtime.endpoint.value_records":
            (per_op(traced.counts.get("runtime.endpoint.value_records", 0)), "1/op"),
        "transport.sim.msgs": (per_op(sim_msgs), "1/op"),
        "transport.sim.recv.calls": (per_op(calls("transport.sim.recv")), "1/op"),
        "transport.sim.recv_wait_s": (per_op(sim_wait), "s/op"),
        "transport.sim.wait_us_per_msg": (sim_wait / sim_msgs * 1e6 if sim_msgs else 0.0, "us"),
        "transport.tcp.msgs": (per_op(calls("transport.tcp.send")), "1/op"),
        "transport.tcp.wire_bytes": (per_op(calls("transport.tcp.wire_bytes")), "B/op"),
        "transport.tcp.send_s": (per_op(incl_s.get("transport.tcp.send", 0.0)), "s/op"),
        "transport.tcp.recv_wait_s": (per_op(incl_s.get("transport.tcp.recv", 0.0)), "s/op"),
        "transport.tcp.threads_left":
            (statistics.mean(traced.threads_left) if traced.threads_left else 0.0,
             "1/session"),
        "protocols.body_s": (per_op(body), "s/op"),
        "protocols.kvs.get_ms_p50": (kvs_p50("get"), "ms"),
        "protocols.kvs.put_ms_p50": (kvs_p50("put"), "ms"),
        "split.body": (body / split_total, "ratio"),
        "split.codec": (codec / split_total, "ratio"),
        "split.operator": (ops_self / split_total, "ratio"),
        "split.transport_send": (send / split_total, "ratio"),
        "split.transport_wait": (wait / split_total, "ratio"),
        "trace.overhead": (overhead, "ratio"),
        "trace.spans": (per_op(sum(v for k, v in counts.items() if k in self_s)), "1/op"),
    })
    return metrics


def pin_to_one_cpu() -> int:
    """Keep this process and every thread it starts on one CPU, the highest
    it may use.  Threads then hand off on that CPU instead of waking another
    one, and the speed probe runs where the workload runs."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def git_sha() -> str:
    """HEAD of the checkout, read from `.git` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(name: str, seed: int, seconds: float, trace: bool, size: str = "full"):
    """Set up, warm up and measure one workload; returns (result, record)."""
    workload, setup_s, raw_setup_s = load_workload(name, seed, size)
    workload.warm_up()
    if not trace:
        phase = workload.measure(seconds)
        metrics = end_to_end(phase, setup_s)
        unscaled = {k: v for k, (v, _) in timings(phase, scaled=False).items()}
        unscaled["setup_s"] = raw_setup_s
        phases = [phase]
        digests = [phase.digest.hexdigest()]
    else:
        # Only the digest prefix is required here: no percentile is reported.
        least = workload.size.digest_ops
        plain = workload.measure(seconds / 2, min_ops=least)
        tracer = Tracer()
        tracer.install()
        try:
            traced = workload.measure(seconds / 2, tracer, min_ops=least)
        finally:
            tracer.uninstall()
        metrics = per_layer(plain, traced, tracer)
        unscaled = {}
        phases = [plain, traced]
        digests = [plain.digest.hexdigest(), traced.digest.hexdigest()]
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / f"{name}-seed{seed}.spans.jsonl")

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    correct = failed == 0 and len(set(digests)) == 1
    record = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "git_sha": git_sha(),
        "report_digest": digests[0],
        "digests_agree": len(set(digests)) == 1,
        "error_rate": failed / attempted if attempted else 1.0,
        "samples": [len(p.latencies()) for p in phases],
        "unscaled": unscaled,
        "probe_us_median": [statistics.median(p.probe.seconds) * 1e6 if p.probe.seconds
                            else None for p in phases],
        "problems": [text for p in phases for text in p.problems],
    }
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "choreo" / "__init__.py").is_file():
        print(f"no choreo package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    cpu = pin_to_one_cpu()
    result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    record["pinned_cpu"] = cpu
    OUT.mkdir(exist_ok=True)
    suffix = "-trace" if args.trace else ""
    (OUT / f"{args.workload}-seed{args.seed}{suffix}.json").write_text(
        json.dumps({"record": record, "result": result}, indent=1) + "\n"
    )
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
