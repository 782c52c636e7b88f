// chaos_soak: long-running chaos sweep for soak testing and CI stages.
// Runs a contiguous band of seeds through the deterministic chaos harness
// and emits a machine-readable JSON summary (schedules run, faults by
// kind, the harness counters, and the summed component stats under the
// prefixes recovery_, backup_, net_ and broker_). Any failing seed
// dumps its replayable trace and fails the process.
//
//   chaos_soak [--schedules=N] [--events=N] [--seed_base=N] [--shards=N]
//              [--recovery_parallelism=N] [--memory_budget=BYTES]
//              [--exactly_once] [--out=PATH]
//
// --shards=N runs every schedule against brokers with N shared-nothing
// shards (see BrokerConfig::shards). The schedule generator is untouched:
// seed->schedule mapping and trace format are identical at any shard
// count, so a failure found at --shards=2 replays from the same trace.
// --recovery_parallelism=N sets the coordinator's recovery fan-out (see
// CoordinatorConfig): under the single-threaded chaos network the engine
// runs serially and models the fan-out, so traces stay identical at any
// value while the scatter/batched-read/lane machinery is exercised.
// --memory_budget=BYTES caps each broker's sealed-segment DRAM (see
// BrokerConfig::memory_budget_bytes), forcing mid-schedule spill/evict/
// cold-read cycles. Spill decisions are a pure function of seal order
// and budget, so traces stay byte-identical to --memory_budget=0.
// --exactly_once turns on end-to-end exactly-once (RunOptions::
// exactly_once): producers get coordinator epochs, every consume event
// durably commits consumer cursors, restarts resume from broker offsets,
// and the redelivery invariant tightens to zero; the JSON's dedup_hits,
// broker_chunks_fenced and broker_offset_commits then go non-zero.
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <string_view>

#include "chaos/chaos_harness.h"
#include "chaos/fault_schedule.h"
#include "common/host_info.h"
#include "common/stats.h"

namespace {

uint64_t ParseU64(const char* s, const char* what) {
  char* end = nullptr;
  uint64_t v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') {
    std::fprintf(stderr, "chaos_soak: bad %s value: %s\n", what, s);
    std::exit(2);
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t schedules = 1000;
  uint32_t events = 60;
  uint64_t seed_base = 1;
  uint32_t shards = 1;
  uint32_t recovery_parallelism = 1;
  uint64_t memory_budget = 0;
  bool exactly_once = false;
  std::string out_path = "BENCH_chaos.json";

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--schedules=", 12) == 0) {
      schedules = ParseU64(arg + 12, "--schedules");
    } else if (std::strncmp(arg, "--events=", 9) == 0) {
      events = uint32_t(ParseU64(arg + 9, "--events"));
    } else if (std::strncmp(arg, "--seed_base=", 12) == 0) {
      seed_base = ParseU64(arg + 12, "--seed_base");
    } else if (std::strncmp(arg, "--shards=", 9) == 0) {
      shards = uint32_t(ParseU64(arg + 9, "--shards"));
      if (shards == 0) shards = 1;
    } else if (std::strncmp(arg, "--recovery_parallelism=", 23) == 0) {
      recovery_parallelism = uint32_t(ParseU64(arg + 23,
                                               "--recovery_parallelism"));
      if (recovery_parallelism == 0) recovery_parallelism = 1;
    } else if (std::strncmp(arg, "--memory_budget=", 16) == 0) {
      memory_budget = ParseU64(arg + 16, "--memory_budget");
    } else if (std::strcmp(arg, "--exactly_once") == 0) {
      exactly_once = true;
    } else if (std::strncmp(arg, "--out=", 6) == 0) {
      out_path = arg + 6;
    } else {
      std::fprintf(stderr,
                   "usage: chaos_soak [--schedules=N] [--events=N] "
                   "[--seed_base=N] [--shards=N] "
                   "[--recovery_parallelism=N] [--memory_budget=BYTES] "
                   "[--exactly_once] [--out=PATH]\n");
      return 2;
    }
  }
  kera::chaos::RunOptions run_options;
  run_options.broker_shards = shards;
  run_options.recovery_parallelism = recovery_parallelism;
  run_options.memory_budget_bytes = memory_budget;
  run_options.exactly_once = exactly_once;

  using Clock = std::chrono::steady_clock;
  auto start = Clock::now();

  std::map<std::string, uint64_t> faults_by_kind;
  kera::chaos::RunResult total;
  uint64_t ran = 0;
  for (uint64_t i = 0; i < schedules; ++i) {
    uint64_t seed = seed_base + i;
    auto schedule = kera::chaos::GenerateSchedule(seed, events);
    for (const auto& ev : schedule.events) {
      ++faults_by_kind[kera::chaos::FaultKindName(ev.kind)];
    }
    auto r = kera::chaos::RunSchedule(schedule, run_options);
    if (!r.ok) {
      std::string trace_path = "chaos_failure_" + std::to_string(seed) +
                               ".trace";
      if (FILE* f = std::fopen(trace_path.c_str(), "w")) {
        std::fwrite(r.trace.data(), 1, r.trace.size(), f);
        std::fclose(f);
      }
      std::fprintf(stderr,
                   "chaos_soak: FAILED seed=%" PRIu64 " event=%zu shards=%u\n"
                   "  %s\n"
                   "  trace: %s\n  replay: chaos_test --chaos_seed=%" PRIu64
                   "\n",
                   seed, r.failed_event, shards, r.failure.c_str(),
                   trace_path.c_str(), seed);
      return 1;
    }
    ++ran;
    total += r;
    if (ran % 100 == 0) {
      std::fprintf(stderr, "chaos_soak: %" PRIu64 "/%" PRIu64 " schedules\n",
                   ran, schedules);
    }
  }

  double secs = std::chrono::duration<double>(Clock::now() - start).count();

  FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "chaos_soak: cannot write %s\n", out_path.c_str());
    return 1;
  }
  // One flat JSON object: run metadata, then the harness counters and
  // each component's stats table under its prefix.
  const char* sep = "{\n";
  auto put = [&](const std::string& key, const std::string& value) {
    std::fprintf(out, "%s  \"%s\": %s", sep, key.c_str(), value.c_str());
    sep = ",\n";
  };
  auto put_counters = [&](const std::string& prefix, const auto& stats) {
    kera::ForEachCounter(stats, [&](std::string_view name, uint64_t v) {
      put(prefix + std::string(name), std::to_string(v));
    });
  };
  char secs_buf[32];
  std::snprintf(secs_buf, sizeof(secs_buf), "%.3f", secs);
  std::string faults = "{";
  for (const auto& [kind, count] : faults_by_kind) {
    faults += (faults.size() > 1 ? ", \"" : "\"") + kind +
              "\": " + std::to_string(count);
  }
  faults += "}";

  put("nproc", std::to_string(kera::HostNproc()));
  put("cpu_model", "\"" + kera::HostCpuModel() + "\"");
  put("broker_shards", std::to_string(shards));
  put("recovery_parallelism", std::to_string(recovery_parallelism));
  put("memory_budget_bytes", std::to_string(memory_budget));
  put("exactly_once", exactly_once ? "true" : "false");
  put("schedules", std::to_string(ran));
  put("events_per_schedule", std::to_string(events));
  put("seed_base", std::to_string(seed_base));
  put("seconds", secs_buf);
  put("faults_by_kind", faults);
  put_counters("", total);
  put_counters("recovery_", total.recovery);
  // Percentiles of every run's per-task replay times merged: wall-clock,
  // report-only.
  put("recovery_task_p50_us",
      std::to_string(total.recovery.task_replay_us.Quantile(0.50)));
  put("recovery_task_p99_us",
      std::to_string(total.recovery.task_replay_us.Quantile(0.99)));
  put_counters("backup_", total.backups);
  put_counters("net_", total.net);
  put_counters("broker_", total.brokers);
  std::fprintf(out, "\n}\n");
  std::fclose(out);

  std::fprintf(stderr,
               "chaos_soak: %" PRIu64 " schedules, %" PRIu64
               " events, %" PRIu64 " invariant checks in %.1fs -> %s\n",
               ran, total.events_run, total.checks, secs, out_path.c_str());
  return 0;
}
