#!/usr/bin/env python3
"""Tests of the end-to-end benchmark itself.

    python3 perfbench/test_bench.py          (from the repository root)

- the self-time computation on synthetic span sets;
- a tiny-volume smoke run of every workload: every named metric prints
  with its unit and the correctness oracle passes;
- the stall deadline: a run whose server is SIGSTOPped mid-run ends by its
  deadline, non-zero, with the outstanding records counted as failed.
"""

import json
import os
import signal
import subprocess
import sys
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import analyze  # noqa: E402
import run  # noqa: E402


def rec(name, thread, parent, start, end):
    return (name, thread, parent, start, end)


class SelfTimeTest(unittest.TestCase):
    def spans_by_name(self, records):
        return {s.name: s for s in analyze.build_spans(records)}

    def test_leaf_self_time_is_its_duration(self):
        s = self.spans_by_name([rec(10, 0, -1, 100, 350)])
        self.assertEqual(analyze.self_time(s["broker.produce"]), 250)

    def test_children_are_subtracted_once_when_they_overlap(self):
        # produce [0,1000) with two replicate calls [100,400) and
        # [300,600): their union covers 500.
        records = [rec(10, 0, -1, 0, 1000), rec(20, 0, 0, 100, 400),
                   rec(20, 0, 0, 300, 600)]
        spans = analyze.build_spans(records)
        produce = [s for s in spans if s.name == "broker.produce"][0]
        self.assertEqual(analyze.self_time(produce), 500)
        for s in spans:
            if s.name == "vlog.replicate_call":
                self.assertEqual(analyze.self_time(s), s.duration)

    def test_child_outliving_its_parent_is_clipped(self):
        records = [rec(10, 0, -1, 0, 100), rec(20, 0, 0, 50, 500)]
        s = self.spans_by_name(records)
        self.assertEqual(analyze.self_time(s["broker.produce"]), 50)

    def test_grandchildren_count_only_against_their_parent(self):
        # poll [0,100) > produce [10,90) > replicate [20,80).
        records = [rec(3, 0, -1, 0, 100), rec(10, 0, 0, 10, 90),
                   rec(20, 0, 1, 20, 80)]
        s = self.spans_by_name(records)
        self.assertEqual(analyze.self_time(s["client.poll"]), 20)
        self.assertEqual(analyze.self_time(s["broker.produce"]), 20)
        self.assertEqual(analyze.self_time(s["vlog.replicate_call"]), 60)

    def test_parents_resolve_within_their_own_thread(self):
        # Thread 1's record 0 is its own root even though thread 0's
        # record 0 precedes it in the dump.
        records = [rec(10, 0, -1, 0, 100), rec(10, 1, -1, 0, 100),
                   rec(20, 1, 0, 0, 40)]
        spans = analyze.build_spans(records)
        selfs = sorted(analyze.self_time(s) for s in spans
                       if s.name == "broker.produce")
        self.assertEqual(selfs, [60, 100])

    def test_unclosed_spans_are_dropped(self):
        records = [rec(10, 0, -1, 0, 0), rec(20, 0, 0, 10, 20)]
        names = [s.name for s in analyze.build_spans(records)]
        self.assertEqual(names, ["vlog.replicate_call"])

    def test_summary_windows_and_quantiles(self):
        records = [rec(10, 0, -1, i * 1000, i * 1000 + 1000 * (i + 1))
                   for i in range(10)]
        records.append(rec(40, 0, -1, 10**9, 10**9 + 5000))  # set-up
        summary = analyze.summarize(analyze.build_spans(records),
                                    [(0, 4500)])
        produce = summary["broker.produce"]
        self.assertEqual(produce["count"], 5)  # starts 0..4000
        self.assertEqual(produce["p50"], 3.0)
        self.assertEqual(summary["coordinator"]["count"], 1)
        self.assertEqual(analyze.quantile([5, 1, 4, 2, 3], 0.5), 3.0)
        self.assertEqual(analyze.quantile(list(range(1, 101)), 0.99), 99.0)


def run_bench(workload, trace, scale):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "3", "--seconds", "2", "--trace", str(trace),
           "--scale", str(scale)]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)


class SmokeTest(unittest.TestCase):
    def check(self, workload, trace, scale=0.05):
        out = run_bench(workload, trace, scale)
        self.assertEqual(out.returncode, 0, out.stdout[-3000:] +
                         out.stderr[-3000:])
        result = json.loads(out.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        expected = run.PER_LAYER if trace else run.END_TO_END
        self.assertEqual(set(result["metrics"]), set(expected))
        for name, unit in expected.items():
            self.assertEqual(result["metrics"][name]["unit"], unit)
            self.assertIsInstance(result["metrics"][name]["value"],
                                  (int, float))
        # The human-readable report names all eight end-to-end metrics.
        for name in list(run.END_TO_END) + ["e2e_p99_us", "failed_frac"]:
            self.assertIn(name, out.stdout)
        self.assertIn("CORRECT", out.stdout)
        return result

    def test_ingest_r3(self):
        self.check("ingest-r3", 0)

    def test_tail_r3(self):
        m = self.check("tail-r3", 0)["metrics"]
        self.assertGreater(m["e2e_p50_us"]["value"], 0)

    def test_catchup_tiered(self):
        self.check("catchup-tiered", 0)

    def test_traced_catchup_tiered(self):
        # Full-size history, so the budget really evicts.
        m = self.check("catchup-tiered", 1, scale=1)["metrics"]
        self.assertGreater(m["broker.produce_us.p50"]["value"], 0)
        self.assertGreater(m["backup.replicate_rpcs"]["value"], 0)
        self.assertGreater(m["storage.segments_evicted"]["value"], 0)
        self.assertGreater(m["coordinator.rpcs"]["value"], 0)


class StallTest(unittest.TestCase):
    def test_sigstopped_server_ends_run_by_deadline(self):
        stall_s = 3.0
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               "tail-r3", "--seed", "4", "--seconds", "60", "--trace", "0",
               "--stall-seconds", str(stall_s)]
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, text=True)
        lines = []
        server = None
        try:
            for line in proc.stdout:
                lines.append(line)
                if "server pid" in line:
                    server = int(line.split("server pid")[1].split()[0])
                    break
            self.assertIsNotNone(server, "".join(lines))
            time.sleep(1.0)  # inside the first round's measured window
            os.kill(server, signal.SIGSTOP)
            stopped_at = time.monotonic()
            rest, _ = proc.communicate(timeout=60)
            elapsed = time.monotonic() - stopped_at
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        lines.extend(rest.splitlines(keepends=True))
        text = "".join(lines)
        self.assertNotEqual(proc.returncode, 0, text[-3000:])
        self.assertLess(elapsed, stall_s + 20, text[-3000:])
        self.assertIn("STALL", text)
        self.assertIn("server counters", text)
        result = json.loads(lines[-1])
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        # The stopped server was killed and reaped, not left behind.
        with self.assertRaises(ProcessLookupError):
            os.kill(server, 0)


if __name__ == "__main__":
    unittest.main(verbosity=2)
