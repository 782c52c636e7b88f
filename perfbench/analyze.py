"""Span analysis for the end-to-end benchmark.

Reads the span dumps written by kera_e2e (trace.h SpanRecord:
u16 name, u16 thread, i32 parent, u64 start_ns, u64 end_ns), computes
each span's self time (its duration minus the part of its interval that
its child spans cover) and turns them into per-layer metrics.
"""

import math
import struct

SPAN_NAMES = {
    1: "client.send",
    2: "client.flush",
    3: "client.poll",
    10: "broker.produce",
    11: "broker.consume",
    12: "broker.other",
    20: "vlog.replicate_call",
    30: "backup.replicate",
    31: "backup.other",
    40: "coordinator.create_stream",
    41: "coordinator.get_stream_info",
    42: "coordinator.other",
}
RECORD = struct.Struct("<HHiQQ")


class Span:
    __slots__ = ("name", "start", "end", "children")

    def __init__(self, name, start, end):
        self.name = name
        self.start = start
        self.end = end
        self.children = []

    @property
    def duration(self):
        return self.end - self.start


def covered(lo, hi, intervals):
    """Length of [lo, hi) covered by the union of `intervals`."""
    total = 0
    cur_lo = cur_hi = None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_hi is None or s > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = s, e
        else:
            cur_hi = max(cur_hi, e)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_time(span):
    return span.duration - covered(
        span.start, span.end, [(c.start, c.end) for c in span.children])


def build_spans(records):
    """records: (name, thread, parent, start, end) in dump order, where
    `parent` indexes the same thread's records. Returns closed spans with
    their children linked."""
    per_thread = {}
    for rec in records:
        per_thread.setdefault(rec[1], []).append(rec)
    spans = []
    for recs in per_thread.values():
        objs = [Span(SPAN_NAMES.get(r[0], "unknown.%d" % r[0]), r[3], r[4])
                for r in recs]
        for r, s in zip(recs, objs):
            if r[2] >= 0 and r[4] != 0 and objs[r[2]].end != 0:
                objs[r[2]].children.append(s)
        spans.extend(s for s in objs if s.end != 0)
    return spans


def load(path):
    with open(path, "rb") as f:
        data = f.read()
    return build_spans(list(RECORD.iter_unpack(data)))


def quantile(values, q):
    """Nearest-rank quantile, the same rule kera_e2e uses."""
    if not values:
        return 0.0
    v = sorted(values)
    k = max(1, min(len(v), math.ceil(q * len(v))))
    return float(v[k - 1])


def in_windows(span, windows):
    return any(lo <= span.start <= hi for lo, hi in windows)


def summarize(spans, windows):
    """Per span name: count and p50/p99 of duration and self time (us).
    Coordinator spans are kept whole (set-up is their workload) and also
    pooled under "coordinator"; all others count only inside the measured
    windows."""
    groups = {}
    for s in spans:
        names = [s.name]
        if s.name.startswith("coordinator."):
            names.append("coordinator")
        elif not in_windows(s, windows):
            continue
        for name in names:
            g = groups.setdefault(name, ([], []))
            g[0].append(s.duration / 1e3)
            g[1].append(self_time(s) / 1e3)
    out = {}
    for name, (dur, self_us) in sorted(groups.items()):
        out[name] = {
            "count": len(dur),
            "p50": quantile(dur, 0.5),
            "p99": quantile(dur, 0.99),
            "self_p50": quantile(self_us, 0.5),
            "self_p99": quantile(self_us, 0.99),
        }
    return out


def layer_metrics(summary):
    """The span-derived per-layer metrics, by benchmark metric name."""
    def get(name, key):
        return summary.get(name, {}).get(key, 0.0)

    return {
        "client.send_us.p50": get("client.send", "p50"),
        "client.send_us.p99": get("client.send", "p99"),
        "client.flush_ms": get("client.flush", "p50") / 1e3,
        "client.poll_us.p50": get("client.poll", "p50"),
        "broker.produce_us.p50": get("broker.produce", "p50"),
        "broker.produce_us.p99": get("broker.produce", "p99"),
        "broker.produce_self_us.p50": get("broker.produce", "self_p50"),
        "broker.consume_us.p50": get("broker.consume", "p50"),
        "broker.consume_us.p99": get("broker.consume", "p99"),
        "vlog.replicate_call_us.p50": get("vlog.replicate_call", "p50"),
        "vlog.replicate_call_us.p99": get("vlog.replicate_call", "p99"),
        "backup.replicate_us.p50": get("backup.replicate", "p50"),
        "backup.replicate_us.p99": get("backup.replicate", "p99"),
        "coordinator.rpcs": float(get("coordinator", "count")),
        "coordinator.rpc_us.p50": get("coordinator", "p50"),
    }
