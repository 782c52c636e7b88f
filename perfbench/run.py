#!/usr/bin/env python3
"""End-to-end socket benchmark of the KerA cluster.

Builds the benchmark binary kera_e2e (perfbench/CMakeLists.txt, which
compiles the library from src/) and runs one workload:

    python3 perfbench/run.py --workload tail-r3 --seed 1 --seconds 22 --trace 0

Run it from the repository root. kera_e2e spawns a 3-node cluster in a
server process per round and runs the clients in its own process over one
rpc::SocketNetwork. The report goes to standard output; its last line is
one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1. The exit code is 0 only for a correct, complete run.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import analyze  # noqa: E402

WORKLOADS = ("ingest-r3", "tail-r3", "catchup-tiered")

# Gated end-to-end metrics. e2e_p99_us and failed_frac are printed in every
# report but not gated: p99 moves by up to 25% between runs of the same
# code on a shared 4-core host, and failed_frac is 0 in every correct run
# (failures fail the run through `correct` and `failed` instead).
END_TO_END = {
    "setup_s": "s",
    "ingest_MBps": "MB/s",
    "e2e_p50_us": "us",
    "catchup_MBps": "MB/s",
    "server_cpu_ms_per_MB": "ms/MB",
    "server_peak_rss_MB": "MB",
}

PER_LAYER = {
    "client.send_us.p50": "us",
    "client.send_us.p99": "us",
    "client.flush_ms": "ms",
    "client.request_us.p50": "us",
    "client.request_us.p99": "us",
    "client.chunks_per_request": "count",
    "client.chunk_fill": "ratio",
    "client.request_failures": "count",
    "client.poll_us.p50": "us",
    "client.records_per_poll": "count",
    "client.fetch_useful_ratio": "ratio",
    "client.flow_control_pauses": "count",
    "rpc.client.frames_per_sendmsg": "count",
    "rpc.client.wire_bytes_per_user_byte": "ratio",
    "rpc.client.tx_copied_bytes_per_user_byte": "ratio",
    "rpc.server.frames_per_sendmsg": "count",
    "rpc.server.wire_bytes_per_user_byte": "ratio",
    "rpc.server.tx_copied_bytes_per_user_byte": "ratio",
    "broker.produce_us.p50": "us",
    "broker.produce_us.p99": "us",
    "broker.produce_self_us.p50": "us",
    "broker.consume_us.p50": "us",
    "broker.consume_us.p99": "us",
    "broker.chunks_per_produce": "count",
    "broker.chunks_per_consume": "count",
    "broker.consume_long_polls": "count",
    "broker.cross_shard_ops": "count",
    "vlog.chunks_per_batch": "count",
    "vlog.bytes_per_batch": "bytes",
    "vlog.replication_rpcs": "count",
    "vlog.replicate_call_us.p50": "us",
    "vlog.replicate_call_us.p99": "us",
    "backup.replicate_us.p50": "us",
    "backup.replicate_us.p99": "us",
    "backup.bytes_per_rpc": "bytes",
    "backup.replicate_rpcs": "count",
    "storage.cold_reads": "count",
    "storage.cold_cache_hit_ratio": "ratio",
    "storage.readahead_hits": "count",
    "storage.segments_spilled": "count",
    "storage.segments_evicted": "count",
    "storage.spill_MB": "MB",
    "storage.resident_MB": "MB",
    "coordinator.rpcs": "count",
    "coordinator.rpc_us.p50": "us",
    "e2e.p99_us": "us",
    "trace.e2e_p50_us": "us",
    "trace.attributed_us": "us",
    "trace.unattributed_us": "us",
    "trace.spans_dropped": "count",
    "trace.overhead.setup_s": "s",
    "trace.overhead.ingest_MBps": "MB/s",
    "trace.overhead.e2e_p50_us": "us",
    "trace.overhead.e2e_p99_us": "us",
    "trace.overhead.catchup_MBps": "MB/s",
    "trace.overhead.server_cpu_ms_per_MB": "ms/MB",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(root):
    """Configures and builds kera_e2e; returns its path or None."""
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                 build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", build_dir, "-j", jobs, "--target",
                 "kera_e2e"]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=root).returncode != 0:
            return None
    return os.path.join(build_dir, "kera_e2e")


def source_revision(root):
    """Git revision when available, plus a hash of the library sources
    (the benchmark may run from an export that is not a git checkout)."""
    rev = "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            rev = out.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return rev, h.hexdigest()[:16]


def trace_metrics(layer, info, out_dir, workload, seed):
    """Per-layer metrics of a traced run: kera_e2e's counters plus the
    span-derived timings and self times."""
    windows = info.get("trace_windows_ns", [])
    windows = list(zip(windows[0::2], windows[1::2]))
    spans = []
    tag = "%s-s%d" % (workload, seed)
    for name in sorted(os.listdir(out_dir)):
        if name.startswith("spans-") and tag in name:
            spans.extend(analyze.load(os.path.join(out_dir, name)))
    summary = analyze.summarize(spans, windows)
    print("span summary (us; self = duration minus child spans):")
    print("  %-28s %9s %10s %10s %10s %10s" % (
        "span", "count", "p50", "p99", "self_p50", "self_p99"))
    for name, s in summary.items():
        print("  %-28s %9d %10.1f %10.1f %10.1f %10.1f" % (
            name, s["count"], s["p50"], s["p99"], s["self_p50"],
            s["self_p99"]))
    metrics = dict(layer)
    metrics.update(analyze.layer_metrics(summary))
    # The blocking steps the boundary spans can see on a record's way from
    # due time to Poll: its Send, its produce request (client round trip,
    # which nests broker produce -> replicate call -> backup apply) and the
    # Poll that returns it. Linger, request queueing, the consume wake and
    # the wire are inside the library and stay unattributed.
    attributed = (metrics["client.send_us.p50"] +
                  metrics["client.request_us.p50"] +
                  metrics["client.poll_us.p50"])
    metrics["trace.attributed_us"] = attributed
    metrics["trace.unattributed_us"] = metrics["trace.e2e_p50_us"] - attributed
    print("blocking path at p50: e2e %.1f us = send %.1f + request %.1f + "
          "poll %.1f + unattributed %.1f (tracing overhead on e2e p50: "
          "%.1f us)" % (metrics["trace.e2e_p50_us"],
                        metrics["client.send_us.p50"],
                        metrics["client.request_us.p50"],
                        metrics["client.poll_us.p50"],
                        metrics["trace.unattributed_us"],
                        metrics["trace.overhead.e2e_p50_us"]))
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Volume multiplier for smoke tests; the benchmark proper uses 1.
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--stall-seconds", type=float, default=10.0)
    args = ap.parse_args()

    root = os.getcwd()
    exe = build(root)
    if exe is None:
        log("build failed")
        return 2
    rev, src_hash = source_revision(root)
    out_dir = os.path.join(root, ".bench_out", "%s-s%d-t%d-%d" % (
        args.workload, args.seed, args.trace, os.getpid()))
    os.makedirs(out_dir, exist_ok=True)
    cmd = [exe, "client", "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--out", out_dir, "--scale", str(args.scale),
           "--stall-seconds", str(args.stall_seconds)]
    result = None
    try:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                cwd=root)
        for line in proc.stdout:
            if line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
            else:
                print(line, end="", flush=True)
        rc = proc.wait()
        if result is None:
            log("kera_e2e exited %d without a result" % rc)
            return rc or 3
        info = result.get("info", {})
        info["git_revision"] = rev
        info["source_hash"] = src_hash
        print("provenance: " + json.dumps(info, sort_keys=True))
        if args.trace:
            values = trace_metrics(result.get("layer", {}), info, out_dir,
                                   args.workload, args.seed)
            names = PER_LAYER
        else:
            values = result.get("metrics", {})
            names = END_TO_END
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in names.items() if name in values}
        print(json.dumps({
            "correct": bool(result.get("correct")) and rc == 0,
            "attempted": int(result.get("attempted", 1)),
            "failed": int(result.get("failed", 0)),
            "metrics": metrics,
        }), flush=True)
        return rc
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
