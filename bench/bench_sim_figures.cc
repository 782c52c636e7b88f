// The paper's figures and the DES ablations, one benchmark family each.
// Every benchmark runs one full simulated experiment (src/sim) per
// iteration and reports the paper's metric (cluster throughput in million
// records/s) plus replication and latency statistics as counters. The
// simulation is deterministic, so the counters are exact; select one
// figure with --benchmark_filter=BM_Fig12.
#include <benchmark/benchmark.h>

#include "bench_host_context.h"
#include "sim/figure_harness.h"

namespace kera::sim {
namespace {

System SystemArg(int64_t v) { return v == 0 ? System::kKerA : System::kKafka; }

// Runs `cfg` once per iteration and reports the last result.
void RunAndReport(benchmark::State& state, const SimExperimentConfig& cfg) {
  SimExperimentResult r;
  for (auto _ : state) {
    r = RunSimExperiment(cfg);
  }
  state.counters["ingest_Mrec_s"] = r.ingest_mrecords_per_s;
  state.counters["consume_Mrec_s"] = r.consume_mrecords_per_s;
  state.counters["repl_rpcs"] = double(r.replication_rpcs);
  state.counters["avg_repl_KB"] = r.avg_replication_kb;
  state.counters["p50_us"] = r.produce_latency_p50_us;
  state.counters["p99_us"] = r.produce_latency_p99_us;
  if (r.e2e_latency_p50_us > 0) {
    state.counters["e2e_p50_us"] = r.e2e_latency_p50_us;
    state.counters["e2e_p99_us"] = r.e2e_latency_p99_us;
  }
  state.counters["dispatch_util"] = r.dispatch_utilization;
}

// Figure 8: scaling the number of streams. Kafka vs KerA, 4 concurrent
// producers over 4 brokers, chunk size 1 KB, one partition per stream;
// KerA replicates through 4 shared virtual logs per broker.
void BM_Fig08(benchmark::State& state) {
  RunAndReport(state, Fig8(SystemArg(state.range(0)), uint32_t(state.range(1)),
                           uint32_t(state.range(2))));
}
BENCHMARK(BM_Fig08)
    ->ArgNames({"sys", "streams", "R"})
    ->ArgsProduct({{0, 1}, {32, 64, 128, 256, 512}, {1, 2, 3}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// Figure 9: scaling the number of clients. Kafka vs KerA with increasing
// replication factor; concurrent producers with 16 KB chunks; 128 streams
// (one partition each) on 4 brokers. KerA is configured like Kafka: one
// replicated log per partition — the difference left is active push vs
// passive pull replication.
void BM_Fig09(benchmark::State& state) {
  RunAndReport(state, Fig9(SystemArg(state.range(0)), uint32_t(state.range(1)),
                           uint32_t(state.range(2))));
}
BENCHMARK(BM_Fig09)
    ->ArgNames({"sys", "producers", "R"})
    ->ArgsProduct({{0, 1}, {4, 8, 16}, {1, 2, 3}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// Figure 10: low-latency configuration. Kafka vs KerA while varying the
// number of streams; replication factor 3, chunk size 1 KB, 4 producers
// running in parallel with 4 consumers on 4 brokers. Series 0 is Kafka,
// series 1 and 2 are KerA with 4 and 32 virtual logs per broker.
void BM_Fig10(benchmark::State& state) {
  int64_t series = state.range(0);
  uint32_t streams = uint32_t(state.range(1));
  RunAndReport(state, series == 0 ? Fig10(System::kKafka, streams, 4)
                                  : Fig10(System::kKerA, streams,
                                          series == 1 ? 4 : 32));
}
BENCHMARK(BM_Fig10)
    ->ArgNames({"series", "streams"})
    ->ArgsProduct({{0, 1, 2}, {64, 128, 256, 512}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// Figure 11: high-throughput configuration. Kafka vs KerA while varying
// the number of producers and the chunk size; replication factor 3 over
// 4 brokers. Kafka: one stream with 32 partitions; KerA: one stream with
// 32 streamlets, 4 active sub-partitions each, one virtual log per
// sub-partition.
void BM_Fig11(benchmark::State& state) {
  RunAndReport(state,
               Fig11(SystemArg(state.range(0)), uint32_t(state.range(1)),
                     size_t(state.range(2)) << 10));
}
BENCHMARK(BM_Fig11)
    ->ArgNames({"sys", "producers", "chunkKB"})
    ->ArgsProduct({{0, 1}, {4, 8, 16, 32}, {4, 16, 64}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// Figure 12: scaling the number of streams in KerA with ONE shared
// replicated virtual log per broker for up to 512 streams. Replication
// factor 1/2/3; 8 concurrent producers and consumers, 4 brokers, chunk
// size 1 KB. The W axis sweeps the replication window (batches in flight
// per vlog): with one shared vlog per broker the stop-and-wait (W=1)
// pipeline gates ingestion on the replication round-trip, and W>=4
// overlaps the round-trips.
void BM_Fig12(benchmark::State& state) {
  SimExperimentConfig cfg =
      Fig12(uint32_t(state.range(0)), uint32_t(state.range(1)));
  cfg.replication_window = uint32_t(state.range(2));
  RunAndReport(state, cfg);
}
BENCHMARK(BM_Fig12)
    ->ArgNames({"streams", "R", "W"})
    ->ArgsProduct({{64, 128, 256, 512}, {1, 2, 3}, {1, 4}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// Figure 13: increasing the replication capacity (1, 2 and 4 shared
// replicated virtual logs per broker) while scaling the number of
// streams. Replication factor 3, 8 concurrent producers and consumers,
// 4 brokers, chunk size 1 KB.
void BM_Fig13(benchmark::State& state) {
  RunAndReport(state,
               Fig13(uint32_t(state.range(0)), uint32_t(state.range(1))));
}
BENCHMARK(BM_Fig13)
    ->ArgNames({"streams", "vlogs"})
    ->ArgsProduct({{128, 256, 512}, {1, 2, 4}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// Figures 14-16: ingestion of 128, 256 and 512 streams varying the number
// of virtual logs per broker. 8 concurrent producers and consumers, 4
// brokers, chunk size 1 KB, replication factor 1/2/3. Beyond the sweet
// spot, throughput drops as replication RPCs flood the dispatch threads.
void BM_Fig14(benchmark::State& state) {
  RunAndReport(state, Fig14to16(/*streams=*/128, uint32_t(state.range(0)),
                                uint32_t(state.range(1))));
}
void BM_Fig15(benchmark::State& state) {
  RunAndReport(state, Fig14to16(/*streams=*/256, uint32_t(state.range(0)),
                                uint32_t(state.range(1))));
}
void BM_Fig16(benchmark::State& state) {
  RunAndReport(state, Fig14to16(/*streams=*/512, uint32_t(state.range(0)),
                                uint32_t(state.range(1))));
}
void VaryVlogsArgs(benchmark::internal::Benchmark* b) {
  b->ArgNames({"vlogs", "R"})
      ->ArgsProduct({{1, 2, 4, 8, 16, 32, 64, 128}, {1, 2, 3}})
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
}
BENCHMARK(BM_Fig14)->Apply(VaryVlogsArgs);
BENCHMARK(BM_Fig15)->Apply(VaryVlogsArgs);
BENCHMARK(BM_Fig16)->Apply(VaryVlogsArgs);

// Figures 17-20: throughput configuration with one virtual log per
// sub-partition (32 shared virtual logs per broker). 4, 8, 16 and 32
// producers running in parallel with as many consumers on 4 brokers; one
// stream with 32 streamlets, 4 active sub-partitions each; chunk size
// 4-64 KB, R 1/2/3.
void BM_Fig17(benchmark::State& state) {
  RunAndReport(state, Fig17to20(/*clients=*/4, size_t(state.range(0)) << 10,
                                uint32_t(state.range(1))));
}
void BM_Fig18(benchmark::State& state) {
  RunAndReport(state, Fig17to20(/*clients=*/8, size_t(state.range(0)) << 10,
                                uint32_t(state.range(1))));
}
void BM_Fig19(benchmark::State& state) {
  RunAndReport(state, Fig17to20(/*clients=*/16, size_t(state.range(0)) << 10,
                                uint32_t(state.range(1))));
}
void BM_Fig20(benchmark::State& state) {
  RunAndReport(state, Fig17to20(/*clients=*/32, size_t(state.range(0)) << 10,
                                uint32_t(state.range(1))));
}
void ThroughputArgs(benchmark::internal::Benchmark* b) {
  b->ArgNames({"chunkKB", "R"})
      ->ArgsProduct({{4, 8, 16, 32, 64}, {1, 2, 3}})
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
}
BENCHMARK(BM_Fig17)->Apply(ThroughputArgs);
BENCHMARK(BM_Fig18)->Apply(ThroughputArgs);
BENCHMARK(BM_Fig19)->Apply(ThroughputArgs);
BENCHMARK(BM_Fig20)->Apply(ThroughputArgs);

// Figure 21: varying the number of virtual logs in the throughput
// configuration; chunk size 32 KB and 64 KB; 8 producers + 8 consumers,
// 4 brokers, one stream with 32 streamlets (4 sub-partitions each),
// replication factor 3. The vlogs are a shared per-broker pool sized 1-32.
void BM_Fig21(benchmark::State& state) {
  RunAndReport(state, Fig21(uint32_t(state.range(0)),
                            size_t(state.range(1)) << 10));
}
BENCHMARK(BM_Fig21)
    ->ArgNames({"vlogs", "chunkKB"})
    ->ArgsProduct({{1, 2, 4, 8, 16, 32}, {32, 64}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// Ablation: active (KerA push) vs passive (Kafka pull) replication with
// the SAME partitioning (one replication stream per partition, 128
// streams) and the same chunk size, sweeping the replication factor.
// Isolates the synchronization architecture from the partitioning model.
void BM_AblActivePassive(benchmark::State& state) {
  RunAndReport(state, Fig9(SystemArg(state.range(0)), /*producers=*/8,
                           uint32_t(state.range(1))));
}
BENCHMARK(BM_AblActivePassive)
    ->ArgNames({"sys", "R"})
    ->ArgsProduct({{0, 1}, {1, 2, 3}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// Ablation: chunk aggregation in the virtual log. Sweeps the replication
// batch cap from "one chunk per replication RPC" (1 KB: no aggregation,
// the naive design §II.B warns against) up to 1 MB batches, holding the
// rest of the latency-optimized configuration fixed (128 streams, R3, 8+8
// clients, 1 KB chunks, 4 vlogs per broker).
void BM_AblChunkAggregation(benchmark::State& state) {
  SimExperimentConfig cfg = Fig14to16(/*streams=*/128, /*vlogs=*/4,
                                      /*replication=*/3);
  cfg.replication_max_batch_bytes = size_t(state.range(0)) << 10;
  RunAndReport(state, cfg);
}
BENCHMARK(BM_AblChunkAggregation)
    ->ArgNames({"batchKB"})
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// Ablation: producer request batching (the request.size trade-off of
// §V.A). Sweeps the number of chunks per produce request for the
// latency-optimized KerA configuration: deeper requests amortize RPC and
// replication latency at the cost of per-record latency.
void BM_AblRequestBatching(benchmark::State& state) {
  SimExperimentConfig cfg = Fig14to16(/*streams=*/128, /*vlogs=*/4,
                                      /*replication=*/3);
  cfg.request_max_chunks = uint32_t(state.range(0));
  RunAndReport(state, cfg);
}
BENCHMARK(BM_AblRequestBatching)
    ->ArgNames({"chunks_per_request"})
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// Latency profile: produce-request latency (p50/p99) across the paper's
// two configuration families and the chunk-size / replication knobs
// (§V.C/V.D frame every setting as a latency-throughput trade-off).
void BM_LatencyVsChunkSize(benchmark::State& state) {
  RunAndReport(state, Fig17to20(/*clients=*/8, size_t(state.range(0)) << 10,
                                /*replication=*/3));
}
BENCHMARK(BM_LatencyVsChunkSize)
    ->ArgNames({"chunkKB"})
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->Arg(64)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void BM_LatencyVsReplication(benchmark::State& state) {
  RunAndReport(state, LatencyBase(System::kKerA, 4, 4, 128,
                                  uint32_t(state.range(0))));
}
BENCHMARK(BM_LatencyVsReplication)
    ->ArgNames({"R"})
    ->Arg(1)
    ->Arg(2)
    ->Arg(3)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void BM_LatencyVsRequestDepth(benchmark::State& state) {
  SimExperimentConfig cfg = LatencyBase(System::kKerA, 4, 4, 128, 3);
  cfg.request_max_chunks = uint32_t(state.range(0));
  RunAndReport(state, cfg);
}
BENCHMARK(BM_LatencyVsRequestDepth)
    ->ArgNames({"chunks_per_request"})
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->Arg(32)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace kera::sim
