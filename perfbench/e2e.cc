// End-to-end benchmark program: producer Send -> durable ack -> consumer
// Poll over rpc::SocketNetwork, with the cluster and the clients in two
// OS processes.
//
//   kera_e2e client --workload NAME --seed N --seconds S --trace 0|1
//                   --out DIR [--scale F] [--stall-seconds T]
//   kera_e2e server ...   (spawned by the client, one per round)
//
// The client runs the workload in rounds. Each round spawns a fresh server
// process (a 3-node cluster: coordinator plus a broker and a backup per
// node), connects one client SocketNetwork to it (coordinator + 3 brokers:
// at most 4 connections), sets up, measures, verifies every delivered
// record and tears the server down. It prints a human-readable report and
// a final `RESULT {json}` line that perfbench/run.py turns into the
// benchmark's result.
//
// Only cluster shape and capacity are configured (node count, streamlets,
// R, record and chunk size, rate, volume, broker memory, and for the
// tiered workload the memory budget and spill dir). Every other knob is the
// library default, so a change of default is measured as users get it.
//
// Layers are timed from outside: the server wraps every registered
// handler (Broker/Backup/Coordinator::HandleRpc, split by opcode) and the
// network the brokers replicate through; the client times Producer::Send/
// Flush and Consumer::Poll. The wrappers are installed in every run and
// record only when tracing is on, so the traced and untraced runs execute
// the same configuration, routing and zero-copy send path.
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "backup/backup.h"
#include "broker/broker.h"
#include "client/consumer.h"
#include "client/producer.h"
#include "common/crc32c.h"
#include "common/host_info.h"
#include "coordinator/coordinator.h"
#include "rpc/messages.h"
#include "rpc/socket_transport.h"
#include "trace.h"

extern char** environ;

namespace perfbench {
namespace {

using kera::BackupServiceId;
using kera::NodeId;
using Clock = std::chrono::steady_clock;

constexpr uint32_t kNodes = 3;
constexpr size_t kRecordBytes = 100;
constexpr double kMB = 1e6;

// ---------------------------------------------------------------- records
//
// Every record is kRecordBytes long and self-describing, so the consumer
// side can check it without shared state:
//   [0,4)   producer id        [4,12)  sequence number
//   [12,20) due time (ns, steady clock; CLOCK_MONOTONIC is system-wide)
//   [20,96) filler derived from (seed, producer, seq)
//   [96,100) CRC32C of bytes [0,96)

uint64_t SplitMix(uint64_t& x) {
  uint64_t z = (x += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

void FillRecord(std::byte* out, uint32_t producer, uint64_t seq,
                uint64_t due_ns, uint64_t seed) {
  std::memcpy(out, &producer, 4);
  std::memcpy(out + 4, &seq, 8);
  std::memcpy(out + 12, &due_ns, 8);
  uint64_t x = seed ^ (uint64_t(producer) << 40) ^ seq;
  for (size_t off = 20; off < kRecordBytes - 4; off += 8) {
    uint64_t v = SplitMix(x);
    std::memcpy(out + off, &v, std::min<size_t>(8, kRecordBytes - 4 - off));
  }
  uint32_t crc = kera::Crc32c(out, kRecordBytes - 4);
  std::memcpy(out + kRecordBytes - 4, &crc, 4);
}

// ------------------------------------------------------------------ oracle

/// Checks delivered records: bit-exact (CRC), exactly once per
/// (producer, seq), and in order per (producer, streamlet, group) — the
/// library orders records within a group; a catch-up reader may interleave
/// a streamlet's groups. Also collects due-time latencies.
class Checker {
 public:
  /// Declares a producer whose records this checker may see.
  void Expect(uint32_t producer) { seen_[producer]; }

  void CheckBatch(const std::vector<kera::ConsumedRecord>& batch,
                  uint64_t now_ns, bool record_latency) {
    for (const auto& rec : batch) Check(rec, now_ns, record_latency);
  }

  uint64_t delivered_ok() const { return delivered_ok_; }
  uint64_t violations() const {
    return corrupt_ + duplicates_ + out_of_order_ + unknown_;
  }
  std::string ViolationSummary() const {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "corrupt=%" PRIu64 " duplicate=%" PRIu64
                  " out_of_order=%" PRIu64 " unknown_producer=%" PRIu64,
                  corrupt_, duplicates_, out_of_order_, unknown_);
    return buf;
  }
  std::vector<uint64_t>& latencies_ns() { return latency_ns_; }
  std::vector<uint64_t>& dues_ns() { return due_ns_; }

 private:
  void Check(const kera::ConsumedRecord& rec, uint64_t now_ns,
             bool record_latency) {
    const std::byte* p = rec.value.data();
    if (rec.value.size() != kRecordBytes) {
      ++corrupt_;
      return;
    }
    uint32_t crc = 0;
    std::memcpy(&crc, p + kRecordBytes - 4, 4);
    if (kera::Crc32c(p, kRecordBytes - 4) != crc) {
      ++corrupt_;
      return;
    }
    uint32_t producer = 0;
    uint64_t seq = 0, due = 0;
    std::memcpy(&producer, p, 4);
    std::memcpy(&seq, p + 4, 8);
    std::memcpy(&due, p + 12, 8);
    auto it = seen_.find(producer);
    if (it == seen_.end() || producer != rec.producer) {
      ++unknown_;
      return;
    }
    std::vector<uint64_t>& bits = it->second;
    size_t word = size_t(seq / 64);
    if (word >= bits.size()) bits.resize(std::max(word + 1, bits.size() * 2));
    uint64_t mask = uint64_t(1) << (seq % 64);
    if (bits[word] & mask) {
      ++duplicates_;
      return;
    }
    bits[word] |= mask;
    uint64_t key = (uint64_t(producer) << 48) ^
                   (uint64_t(rec.streamlet) << 32) ^
                   uint64_t(rec.group);
    uint64_t& last = last_seq_[key];  // seq + 1 of the previous record
    if (last > seq) {
      ++out_of_order_;
      return;
    }
    last = seq + 1;
    ++delivered_ok_;
    if (record_latency) {
      latency_ns_.push_back(now_ns - due);
      due_ns_.push_back(due);
    }
  }

  std::unordered_map<uint32_t, std::vector<uint64_t>> seen_;
  std::unordered_map<uint64_t, uint64_t> last_seq_;
  std::vector<uint64_t> latency_ns_;
  std::vector<uint64_t> due_ns_;
  uint64_t delivered_ok_ = 0;
  uint64_t corrupt_ = 0, duplicates_ = 0, out_of_order_ = 0, unknown_ = 0;
};

// ------------------------------------------------------------- statistics

double Quantile(std::vector<uint64_t>& v, double q) {
  if (v.empty()) return 0.0;
  size_t k = size_t(std::ceil(q * double(v.size()))) ;
  k = std::clamp<size_t>(k, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + ptrdiff_t(k), v.end());
  return double(v[k]);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Splits a round's latency samples into intervals by due time and
/// appends each interval's p50 and p99 (us). Intervals need enough samples
/// for ten beyond their p99.
void IntervalPercentiles(const std::vector<uint64_t>& due_ns,
                         const std::vector<uint64_t>& latency_ns,
                         std::vector<double>& p50, std::vector<double>& p99) {
  constexpr uint64_t kIntervalNs = 500'000'000;
  if (due_ns.empty()) return;
  const uint64_t t0 = *std::min_element(due_ns.begin(), due_ns.end());
  std::map<uint64_t, std::vector<uint64_t>> per;
  for (size_t i = 0; i < due_ns.size(); ++i) {
    per[(due_ns[i] - t0) / kIntervalNs].push_back(latency_ns[i]);
  }
  for (auto& [interval, v] : per) {
    if (v.size() < 1000) continue;
    p50.push_back(Quantile(v, 0.50) / 1e3);
    p99.push_back(Quantile(v, 0.99) / 1e3);
  }
}

/// Highest percentile with at least ten samples beyond it.
double SupportedPercentile(size_t n) {
  return n <= 10 ? 0.0 : 100.0 * (1.0 - 10.0 / double(n));
}

// ------------------------------------------------------------------- JSON

class Json {
 public:
  Json& Num(const std::string& k, double v) {
    char buf[64];
    if (!std::isfinite(v)) v = 0.0;
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return Raw(k, buf);
  }
  Json& Int(const std::string& k, uint64_t v) {
    return Raw(k, std::to_string(v));
  }
  Json& Str(const std::string& k, const std::string& v) {
    std::string q = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') q += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) q += c;
    }
    return Raw(k, q + "\"");
  }
  Json& Bool(const std::string& k, bool v) {
    return Raw(k, v ? "true" : "false");
  }
  Json& Raw(const std::string& k, const std::string& v) {
    body_ += (body_.empty() ? "" : ",") + ("\"" + k + "\":") + v;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// ----------------------------------------------------- server-side wrappers

uint16_t PeekOpcode(std::span<const std::byte> frame) {
  uint16_t op = 0;
  if (frame.size() >= 2) std::memcpy(&op, frame.data(), 2);
  return op;
}

enum class Service { kCoordinator, kBroker, kBackup };

SpanName SpanFor(Service svc, uint16_t op) {
  using kera::rpc::Opcode;
  switch (svc) {
    case Service::kBroker:
      if (op == uint16_t(Opcode::kProduce)) return SpanName::kBrokerProduce;
      if (op == uint16_t(Opcode::kConsume)) return SpanName::kBrokerConsume;
      return SpanName::kBrokerOther;
    case Service::kBackup:
      return op == uint16_t(Opcode::kReplicate) ? SpanName::kBackupReplicate
                                                : SpanName::kBackupOther;
    case Service::kCoordinator:
      if (op == uint16_t(Opcode::kCreateStream)) {
        return SpanName::kCoordinatorCreateStream;
      }
      if (op == uint16_t(Opcode::kGetStreamInfo)) {
        return SpanName::kCoordinatorGetStreamInfo;
      }
      return SpanName::kCoordinatorOther;
  }
  return SpanName::kCoordinatorOther;
}

/// Times a service's HandleRpc by opcode.
class TimedHandler final : public kera::rpc::RpcHandler {
 public:
  TimedHandler(kera::rpc::RpcHandler& inner, Service svc)
      : inner_(inner), svc_(svc) {}
  std::vector<std::byte> HandleRpc(std::span<const std::byte> req) override {
    Tracer::Scope span(SpanFor(svc_, PeekOpcode(req)));
    return inner_.HandleRpc(req);
  }

 private:
  kera::rpc::RpcHandler& inner_;
  const Service svc_;
};

/// The network a broker replicates through: forwards every entry point —
/// CallAsyncParts included, so replication keeps the zero-copy vectored
/// send — and, while tracing, times kReplicate calls from issue until the
/// broker consumes the result.
class TimedNetwork final : public kera::rpc::Network {
 public:
  using Future = std::future<kera::Result<std::vector<std::byte>>>;
  explicit TimedNetwork(kera::rpc::Network& inner) : inner_(inner) {}

  kera::Result<std::vector<std::byte>> Call(
      NodeId to, std::span<const std::byte> request) override {
    return inner_.Call(to, request);
  }
  Future CallAsync(NodeId to, std::span<const std::byte> request) override {
    if (!Traced(request)) return inner_.CallAsync(to, request);
    auto h = Tracer::BeginDetached(SpanName::kReplicateCall);
    return Wrap(h, inner_.CallAsync(to, request));
  }
  Future CallAsyncParts(NodeId to,
                        const kera::rpc::BytesRefParts& parts) override {
    if (parts.pieces.empty() || !Traced(parts.pieces.front())) {
      return inner_.CallAsyncParts(to, parts);
    }
    auto h = Tracer::BeginDetached(SpanName::kReplicateCall);
    return Wrap(h, inner_.CallAsyncParts(to, parts));
  }

 private:
  static bool Traced(std::span<const std::byte> head) {
    return Tracer::enabled() &&
           PeekOpcode(head) == uint16_t(kera::rpc::Opcode::kReplicate);
  }
  static Future Wrap(Tracer::Handle h, Future inner) {
    return std::async(std::launch::deferred,
                      [h, f = std::move(inner)]() mutable {
                        auto r = f.get();
                        Tracer::End(h);
                        return r;
                      });
  }

  kera::rpc::Network& inner_;
};

uint64_t CpuNs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ns = [](const timeval& tv) {
    return uint64_t(tv.tv_sec) * 1'000'000'000ull + uint64_t(tv.tv_usec) * 1000;
  };
  return ns(ru.ru_utime) + ns(ru.ru_stime);
}

/// Host CPU time counters from /proc/stat: {steal, total} in ticks. On a
/// virtual machine, steal is time the hypervisor ran something else while
/// this machine's CPUs had work.
std::pair<uint64_t, uint64_t> HostCpuTicks() {
  FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return {0, 0};
  uint64_t v[8] = {};
  int n = std::fscanf(f, "cpu %" SCNu64 " %" SCNu64 " %" SCNu64 " %" SCNu64
                      " %" SCNu64 " %" SCNu64 " %" SCNu64 " %" SCNu64,
                      &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  if (n != 8) return {0, 0};
  uint64_t total = 0;
  for (uint64_t x : v) total += x;
  return {v[7], total};
}

double StealShare(std::pair<uint64_t, uint64_t> from,
                  std::pair<uint64_t, uint64_t> to) {
  return to.second > from.second ? double(to.first - from.first) /
                                       double(to.second - from.second)
                                 : 0.0;
}

uint64_t VmHwmKb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  uint64_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtoull(line + 6, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

void AddSocketStats(Json& j, const std::string& prefix,
                    const kera::rpc::SocketNetwork::Stats& s) {
  j.Int(prefix + "frames_sent", s.frames_sent)
      .Int(prefix + "sendmsg_calls", s.sendmsg_calls)
      .Int(prefix + "bytes_sent", s.bytes_sent)
      .Int(prefix + "bytes_received", s.bytes_received)
      .Int(prefix + "tx_copied_bytes", s.tx_copied_bytes)
      .Int(prefix + "connections_opened", s.connections_opened);
}

struct ServerArgs {
  size_t memory_bytes = size_t(1) << 30;
  size_t budget_bytes = 0;
  std::string spill_dir;
  std::string spans_path;  // non-empty: record spans, dump at QUIT
};

int RunServer(const ServerArgs& args) {
  Tracer::SetEnabled(!args.spans_path.empty());
  kera::rpc::SocketNetwork net;
  TimedNetwork broker_net(net);
  kera::CoordinatorConfig cc;
  cc.recovery_use_threads = true;  // as on any threaded transport
  kera::Coordinator coordinator(net, cc);
  TimedHandler coordinator_h(coordinator, Service::kCoordinator);

  std::vector<std::unique_ptr<kera::Broker>> brokers;
  std::vector<std::unique_ptr<kera::Backup>> backups;
  std::vector<std::unique_ptr<TimedHandler>> handlers;
  for (NodeId node = 1; node <= kNodes; ++node) {
    kera::BrokerConfig bc;
    bc.node = node;
    bc.memory_bytes = args.memory_bytes;
    for (NodeId n = 1; n <= kNodes; ++n) {
      bc.backup_nodes.push_back(BackupServiceId(n));
    }
    if (args.budget_bytes != 0) {
      bc.memory_budget_bytes = args.budget_bytes;
      bc.spill_dir = args.spill_dir + "/node" + std::to_string(node);
    }
    // Prefetch on a thread, as MiniCluster does on every nondeterministic
    // transport.
    bc.async_readahead = true;
    brokers.push_back(std::make_unique<kera::Broker>(bc, broker_net));
    kera::BackupConfig bkc;
    bkc.node = node;
    backups.push_back(std::make_unique<kera::Backup>(bkc));
  }

  std::vector<uint16_t> ports;
  auto listen = [&](NodeId service, kera::rpc::RpcHandler* handler,
                    bool sharded) {
    // Same reactor shape MiniCluster registers on the socket transport.
    kera::rpc::SocketNetwork::NodeOptions opts;
    uint32_t shards = brokers.front()->shards();
    if (sharded && shards > 1) {
      opts.shards = int(shards);
      opts.router = kera::rpc::RouteFrameToShard;
    }
    auto port = net.Register(service, handler, std::move(opts));
    if (!port.ok()) {
      std::fprintf(stderr, "register %u: %s\n", unsigned(service),
                   port.status().ToString().c_str());
      std::exit(1);
    }
    ports.push_back(*port);
  };
  listen(kera::kCoordinatorNode, &coordinator_h, false);
  for (NodeId node = 1; node <= kNodes; ++node) {
    handlers.push_back(std::make_unique<TimedHandler>(*brokers[node - 1],
                                                      Service::kBroker));
    listen(node, handlers.back().get(), true);
  }
  for (NodeId node = 1; node <= kNodes; ++node) {
    handlers.push_back(std::make_unique<TimedHandler>(*backups[node - 1],
                                                      Service::kBackup));
    listen(BackupServiceId(node), handlers.back().get(), true);
    coordinator.RegisterNode(node, brokers[node - 1].get(),
                             backups[node - 1].get());
  }
  std::printf("READY");
  for (uint16_t p : ports) std::printf(" %u", unsigned(p));
  std::printf("\n");
  std::fflush(stdout);

  uint64_t cpu_mark = CpuNs(), cpu_stop = 0;
  char line[64];
  while (std::fgets(line, sizeof(line), stdin) != nullptr) {
    std::string cmd(line);
    if (cmd == "MARK\n") {
      cpu_mark = CpuNs();
      std::printf("MARKED %" PRIu64 "\n", NowNs());
    } else if (cmd == "STOP\n") {
      cpu_stop = CpuNs();
      std::printf("STOPPED %" PRIu64 "\n", NowNs());
    } else if (cmd == "STATS\n") {
      kera::Broker::Stats t;
      for (auto& b : brokers) {
        kera::Broker::Stats s = b->GetStats();
        t.produce_rpcs += s.produce_rpcs;
        t.chunks_appended += s.chunks_appended;
        t.bytes_appended += s.bytes_appended;
        t.consume_rpcs += s.consume_rpcs;
        t.chunks_served += s.chunks_served;
        t.consume_long_polls += s.consume_long_polls;
        t.replication_batches += s.replication_batches;
        t.replication_rpcs += s.replication_rpcs;
        t.replication_bytes += s.replication_bytes;
        t.checksum_failures += s.checksum_failures;
        t.cross_shard_ops += s.cross_shard_ops;
        t.segments_spilled += s.segments_spilled;
        t.segments_evicted += s.segments_evicted;
        t.spill_bytes += s.spill_bytes;
        t.cold_reads += s.cold_reads;
        t.cold_cache_hits += s.cold_cache_hits;
        t.cold_cache_misses += s.cold_cache_misses;
        t.readahead_hits += s.readahead_hits;
        t.memory_bytes_resident += s.memory_bytes_resident;
      }
      kera::Backup::Stats bt;
      for (auto& b : backups) {
        kera::Backup::Stats s = b->GetStats();
        bt.replicate_rpcs += s.replicate_rpcs;
        bt.bytes_received += s.bytes_received;
        bt.chunks_received += s.chunks_received;
        bt.checksum_failures += s.checksum_failures;
      }
      Json j;
      j.Int("produce_rpcs", t.produce_rpcs)
          .Int("chunks_appended", t.chunks_appended)
          .Int("bytes_appended", t.bytes_appended)
          .Int("consume_rpcs", t.consume_rpcs)
          .Int("chunks_served", t.chunks_served)
          .Int("consume_long_polls", t.consume_long_polls)
          .Int("replication_batches", t.replication_batches)
          .Int("replication_rpcs", t.replication_rpcs)
          .Int("replication_bytes", t.replication_bytes)
          .Int("checksum_failures", t.checksum_failures)
          .Int("cross_shard_ops", t.cross_shard_ops)
          .Int("segments_spilled", t.segments_spilled)
          .Int("segments_evicted", t.segments_evicted)
          .Int("spill_bytes", t.spill_bytes)
          .Int("cold_reads", t.cold_reads)
          .Int("cold_cache_hits", t.cold_cache_hits)
          .Int("cold_cache_misses", t.cold_cache_misses)
          .Int("readahead_hits", t.readahead_hits)
          .Int("memory_bytes_resident", t.memory_bytes_resident)
          .Int("backup_replicate_rpcs", bt.replicate_rpcs)
          .Int("backup_bytes_received", bt.bytes_received)
          .Int("backup_chunks_received", bt.chunks_received)
          .Int("backup_checksum_failures", bt.checksum_failures)
          .Int("cpu_ns", (cpu_stop != 0 ? cpu_stop : CpuNs()) - cpu_mark)
          .Int("vmhwm_kb", VmHwmKb())
          .Int("spans_dropped", Tracer::dropped());
      AddSocketStats(j, "net_", net.GetStats());
      std::printf("STATS %s\n", j.str().c_str());
    } else if (cmd == "QUIT\n") {
      break;
    }
    std::fflush(stdout);
  }
  // Teardown order of MiniCluster: wake long-polls, stop replication, then
  // the transport.
  for (auto& b : brokers) b->StopConsumeWaits();
  for (auto& b : brokers) b->StopReplicator();
  net.Shutdown();
  bool dumped = args.spans_path.empty() || Tracer::Dump(args.spans_path);
  std::printf("BYE\n");
  std::fflush(stdout);
  return dumped ? 0 : 1;
}

// ------------------------------------------------------ server subprocess

/// A spawned server process with a line protocol on its stdin/stdout.
class ServerProcess {
 public:
  ServerProcess() = default;
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess() { Kill(); }

  bool Start(const std::vector<std::string>& args) {
    int to_child[2], from_child[2];
    if (pipe(to_child) != 0) return false;
    if (pipe(from_child) != 0) return false;
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, to_child[0], 0);
    posix_spawn_file_actions_adddup2(&fa, from_child[1], 1);
    posix_spawn_file_actions_addclose(&fa, to_child[1]);
    posix_spawn_file_actions_addclose(&fa, from_child[0]);
    std::vector<char*> argv;
    std::string exe = "/proc/self/exe";
    argv.push_back(exe.data());
    std::vector<std::string> copy = args;
    for (auto& a : copy) argv.push_back(a.data());
    argv.push_back(nullptr);
    int rc = posix_spawn(&pid_, exe.c_str(), &fa, nullptr, argv.data(),
                         environ);
    posix_spawn_file_actions_destroy(&fa);
    close(to_child[0]);
    close(from_child[1]);
    in_fd_ = to_child[1];
    out_fd_ = from_child[0];
    if (rc != 0) {
      pid_ = -1;
      return false;
    }
    return true;
  }

  pid_t pid() const { return pid_; }

  /// Reads one line; nullopt on EOF or after `timeout_ms`.
  std::optional<std::string> ReadLine(int timeout_ms) {
    auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
    for (;;) {
      size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                      deadline - Clock::now())
                      .count();
      if (left <= 0) return std::nullopt;
      pollfd p{out_fd_, POLLIN, 0};
      int n = ::poll(&p, 1, int(left));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return std::nullopt;
      char chunk[4096];
      ssize_t got = read(out_fd_, chunk, sizeof(chunk));
      if (got <= 0) return std::nullopt;
      buf_.append(chunk, size_t(got));
    }
  }

  /// Sends a command and returns the reply line starting with `expect`.
  std::optional<std::string> Ask(const std::string& cmd,
                                 const std::string& expect, int timeout_ms) {
    std::string line = cmd + "\n";
    if (write(in_fd_, line.data(), line.size()) != ssize_t(line.size())) {
      return std::nullopt;
    }
    auto reply = ReadLine(timeout_ms);
    if (!reply || reply->rfind(expect, 0) != 0) return std::nullopt;
    return reply->substr(expect.size());
  }

  /// Asks the server to quit and reaps it; kills it if it does not exit.
  bool Quit() {
    bool ok = Ask("QUIT", "BYE", 60'000).has_value();
    return Reap(ok ? 30'000 : 0) && ok;
  }

  void Kill() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      Reap(-1);
    }
  }

 private:
  bool Reap(int timeout_ms) {
    if (pid_ <= 0) return true;
    auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
    int status = 0;
    while (timeout_ms >= 0 && Clock::now() < deadline) {
      pid_t r = waitpid(pid_, &status, WNOHANG);
      if (r == pid_) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (waitpid(pid_, &status, WNOHANG) != pid_) {
      ::kill(pid_, SIGKILL);
      waitpid(pid_, &status, 0);
    }
    pid_ = -1;
    close(in_fd_);
    close(out_fd_);
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

  pid_t pid_ = -1;
  int in_fd_ = -1;
  int out_fd_ = -1;
  std::string buf_;
};

// --------------------------------------------------------------- workloads

struct Workload {
  std::string name;
  std::string why;
  uint32_t streamlets = 16;
  uint32_t replication = 3;
  size_t chunk_bytes = 1024;
  int load_producers = 2;
  /// Open-loop arrival rate over all load producers (records/s); 0 means
  /// closed loop (send the fixed volume as fast as Send allows).
  double rate_rps = 0;
  /// Closed loop: bytes sent per round.
  uint64_t volume_bytes = 0;
  bool tail_consumer = false;
  /// Latency probe beside a closed loop: a separate small stream written
  /// at a low open-loop rate and tailed by the same thread.
  double probe_rate_rps = 0;
  /// Tiered catch-up: preloaded history and per-broker memory budget.
  uint64_t history_bytes = 0;
  uint32_t history_streamlets = 0;
  size_t budget_bytes = 0;
  /// Broker segment pool (BrokerConfig::memory_bytes), sized to the
  /// volume the round writes.
  size_t memory_bytes = 0;
};

constexpr double kTailRate = 50'000;  // 100-byte records: 5 MB/s

std::optional<Workload> MakeWorkload(const std::string& name, double scale) {
  Workload w;
  w.name = name;
  // Segment buffers (BrokerConfig::segment_size, 8 MiB by default) are
  // taken per active group, so the pool must also cover one open segment
  // per streamlet a broker leads.
  auto pool = [](uint64_t data_per_broker, uint32_t streamlets_per_broker) {
    return size_t(data_per_broker * 2 + (uint64_t(streamlets_per_broker) + 8) *
                                            (uint64_t(8) << 20));
  };
  if (name == "ingest-r3") {
    w.why = "closed-loop write saturation, Fig 9 config";
    w.streamlets = 96;
    w.chunk_bytes = 16 << 10;
    w.volume_bytes = uint64_t(128e6 * scale);
    w.probe_rate_rps = 10'000;
    w.memory_bytes = pool(w.volume_bytes / kNodes, 96 / kNodes + 1);
  } else if (name == "tail-r3") {
    w.why = "open-loop produce->durable->consume latency, Fig 10 config";
    w.streamlets = 16;
    w.chunk_bytes = 1024;
    w.rate_rps = kTailRate;
    w.tail_consumer = true;
    w.memory_bytes = pool(uint64_t(kTailRate * kRecordBytes * 20), 6);
  } else if (name == "catchup-tiered") {
    w.why = "catch-up read of history 4x the DRAM budget beside live writes";
    w.streamlets = 16;
    w.chunk_bytes = 1024;
    w.rate_rps = kTailRate;
    w.tail_consumer = true;
    // One history streamlet per broker: each leads 4 segments (one group)
    // of history, 3 of them sealed, against a budget of one segment.
    w.budget_bytes = size_t(8u << 20);
    w.history_streamlets = kNodes;
    w.history_bytes = uint64_t(double(w.budget_bytes) * 4 * kNodes * scale);
    w.memory_bytes = pool(w.history_bytes / kNodes, 8);
  } else {
    return std::nullopt;
  }
  return w;
}

// -------------------------------------------------------------- generator

std::atomic<uint64_t> g_progress{0};  // bumped on every send and delivery
std::atomic<bool> g_abort{false};

struct GenSpec {
  uint32_t producer = 0;
  double rate_rps = 0;      // 0 = closed loop
  uint64_t records = 0;     // closed loop: records to send
  uint64_t end_ns = 0;      // open loop: last due time
  uint64_t seed = 0;
  int send_span_every = 0;  // trace one Send in N (0 = none)
};

/// Filled by the generator thread. `attempted` and `done` may be read
/// while it runs; the rest only once `done` is set.
struct GenResult {
  std::atomic<uint64_t> attempted{0};
  std::atomic<bool> done{false};
  uint64_t send_failed = 0;
  uint64_t first_send_ns = 0;
  uint64_t flush_done_ns = 0;
  bool flush_ok = false;
  std::vector<uint64_t> lateness_ns;
};

/// Sends records through `producer` (the caller thread is the producer's
/// single source thread), then flushes. Open-loop arrivals are seeded
/// Poisson; each record carries its due time, so latency is timed from
/// when the record was due, not from when the generator got to it.
void RunGenerator(kera::Producer& producer, const GenSpec& spec,
                  GenResult& out) {
  std::mt19937_64 rng(spec.seed * 1000003 + spec.producer);
  std::exponential_distribution<double> gap(spec.rate_rps > 0 ? spec.rate_rps
                                                              : 1.0);
  std::array<std::byte, kRecordBytes> rec{};
  double due = double(NowNs());
  out.first_send_ns = NowNs();
  for (uint64_t seq = 0; !g_abort.load(std::memory_order_relaxed); ++seq) {
    uint64_t due_ns;
    if (spec.rate_rps > 0) {
      due += gap(rng) * 1e9;
      due_ns = uint64_t(due);
      if (due_ns > spec.end_ns) break;
      uint64_t now = NowNs();
      if (due_ns > now) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due_ns - now));
      }
      out.lateness_ns.push_back(NowNs() - due_ns);
    } else {
      if (seq >= spec.records) break;
      due_ns = NowNs();
    }
    FillRecord(rec.data(), spec.producer, seq, due_ns, spec.seed);
    ++out.attempted;
    bool ok;
    {
      std::optional<Tracer::Scope> span;
      if (spec.send_span_every > 0 &&
          seq % uint64_t(spec.send_span_every) == 0) {
        span.emplace(SpanName::kClientSend);
      }
      ok = producer.Send(rec).ok();
    }
    if (!ok) ++out.send_failed;
    g_progress.fetch_add(1, std::memory_order_relaxed);
  }
  {
    Tracer::Scope span(SpanName::kClientFlush);
    out.flush_ok = producer.Flush().ok();
  }
  out.flush_done_ns = NowNs();
  out.done.store(true, std::memory_order_release);
  g_progress.fetch_add(1, std::memory_order_relaxed);
}

// ---------------------------------------------------------------- client

struct ClientArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_out";
  double scale = 1.0;
  double stall_seconds = 10;
};

/// Everything one round measured.
struct Round {
  bool traced = false;
  double steal = 0;  // host steal share of CPU time during the round
  double setup_s = 0;
  double ingest_mbps = 0;
  std::vector<double> catchup_mbps;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t verified = 0;  // records that passed a delivery check so far
  std::string violations;
  uint64_t ingested_bytes = 0;
  std::vector<uint64_t> latency_ns;
  std::vector<uint64_t> due_ns;
  std::vector<uint64_t> lateness_ns;
  uint64_t mark_ns = 0, stop_ns = 0;
  std::map<std::string, double> server;  // STATS fields
  kera::rpc::SocketNetwork::Stats net{};
  // Client layer counters over the measured window.
  uint64_t records_sent = 0, chunks_sent = 0, requests_sent = 0,
           request_failures = 0, producer_bytes = 0;
  kera::Histogram request_latency_us;
  uint64_t polls = 0, polled_records = 0, fetch_requests = 0,
           fetch_empty = 0, flow_control_pauses = 0,
           client_checksum_failures = 0;
};

std::map<std::string, double> ParseFlatJson(const std::string& s) {
  std::map<std::string, double> out;
  size_t i = 0;
  while ((i = s.find('"', i)) != std::string::npos) {
    size_t j = s.find('"', i + 1);
    if (j == std::string::npos) break;
    std::string key = s.substr(i + 1, j - i - 1);
    size_t colon = s.find(':', j);
    if (colon == std::string::npos) break;
    out[key] = std::strtod(s.c_str() + colon + 1, nullptr);
    i = s.find_first_of(",}", colon);
    if (i == std::string::npos) break;
  }
  return out;
}

kera::Status CreateStream(kera::rpc::Network& net, const std::string& name,
                          uint32_t streamlets, uint32_t replication) {
  kera::rpc::CreateStreamRequest req;
  req.name = name;
  req.options.num_streamlets = streamlets;
  req.options.replication_factor = replication;
  kera::rpc::Writer body;
  req.Encode(body);
  auto raw =
      net.Call(kera::kCoordinatorNode,
               kera::rpc::Frame(kera::rpc::Opcode::kCreateStream, body));
  if (!raw.ok()) return raw.status();
  kera::rpc::Reader r(*raw);
  auto resp = kera::rpc::CreateStreamResponse::Decode(r);
  if (!resp.ok()) return resp.status();
  if (resp->status != kera::StatusCode::kOk) {
    return kera::Status(resp->status, "create stream rejected");
  }
  return kera::OkStatus();
}

std::unique_ptr<kera::Consumer> MakeConsumer(kera::rpc::Network& net,
                                             const std::string& stream) {
  kera::ConsumerConfig cc;
  cc.stream = stream;
  auto c = std::make_unique<kera::Consumer>(cc, net);
  if (!c->Connect().ok()) return nullptr;
  return c;
}

std::unique_ptr<kera::Producer> MakeProducer(kera::rpc::Network& net,
                                             const std::string& stream,
                                             uint32_t id, size_t chunk) {
  kera::ProducerConfig pc;
  pc.producer_id = id;
  pc.stream = stream;
  pc.chunk_size = chunk;
  auto p = std::make_unique<kera::Producer>(pc, net);
  if (!p->Connect().ok()) return nullptr;
  return p;
}

void AccumulateProducer(Round& r, const kera::Producer& p) {
  auto s = p.GetStats();
  r.records_sent += s.records_sent;
  r.chunks_sent += s.chunks_sent;
  r.requests_sent += s.requests_sent;
  r.request_failures += s.request_failures;
  r.producer_bytes += s.bytes_sent;
  r.request_latency_us.Merge(s.request_latency_us);
}

void AccumulateConsumer(Round& r, const kera::Consumer& c) {
  auto s = c.GetStats();
  r.fetch_requests += s.requests_sent;
  r.fetch_empty += s.empty_responses;
  r.flow_control_pauses += s.flow_control_pauses;
  r.client_checksum_failures += s.checksum_failures;
}

/// Adds one delivery check of `expected` records to the round's tally.
void Account(Round& r, const char* what, uint64_t expected,
             const Checker& c) {
  uint64_t missing =
      expected > c.delivered_ok() ? expected - c.delivered_ok() : 0;
  r.failed += missing + c.violations();
  if (missing != 0 || c.violations() != 0) {
    r.violations += std::string(" ") + what + ": missing=" +
                    std::to_string(missing) + " " + c.ViolationSummary();
  }
}

/// Waits until `done` holds. Returns false when g_progress stops moving
/// for `stall_s` seconds first.
bool WaitForProgress(const std::function<bool()>& done, double stall_s) {
  uint64_t last = g_progress.load();
  auto last_move = Clock::now();
  while (!done()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    uint64_t now = g_progress.load();
    if (now != last) {
      last = now;
      last_move = Clock::now();
    } else if (Clock::now() - last_move >
               std::chrono::duration<double>(stall_s)) {
      return false;
    }
  }
  return true;
}

/// A tailing consumer on its own thread; verification and latency are
/// taken on that thread right after PollBlocking returns.
struct TailReader {
  std::unique_ptr<kera::Consumer> consumer;
  Checker checker;
  std::thread thread;
  std::atomic<uint64_t> delivered{0};  // verified + violations
  std::atomic<bool> stop{false};
  uint64_t polls = 0, polled = 0;

  void Start() {
    thread = std::thread([this] {
      while (!stop.load(std::memory_order_relaxed)) {
        std::vector<kera::ConsumedRecord> batch;
        {
          Tracer::Scope span(SpanName::kClientPoll);
          batch = consumer->PollBlocking(1024);
        }
        uint64_t now = NowNs();
        ++polls;
        polled += batch.size();
        checker.CheckBatch(batch, now, true);
        delivered.store(checker.delivered_ok() + checker.violations(),
                        std::memory_order_relaxed);
        g_progress.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  void Finish() {
    stop.store(true);
    consumer->Close();
    if (thread.joinable()) thread.join();
  }
};

/// Reads `stream` from offset 0 on the calling thread until `records` are
/// checked. Returns the pass's MB/s, or nullopt when no record arrives for
/// `stall_s` seconds.
std::optional<double> CatchUpPass(kera::rpc::Network& net,
                                  const std::string& stream,
                                  const std::vector<uint32_t>& producers,
                                  uint64_t records, Round& r,
                                  double stall_s, const char* what) {
  const uint64_t t0 = NowNs();
  auto consumer = MakeConsumer(net, stream);
  if (consumer == nullptr) return std::nullopt;
  Checker checker;
  for (uint32_t p : producers) checker.Expect(p);
  uint64_t last_move = NowNs();
  while (checker.delivered_ok() + checker.violations() < records) {
    std::vector<kera::ConsumedRecord> batch;
    {
      Tracer::Scope span(SpanName::kClientPoll);
      batch = consumer->Poll(4096);
    }
    ++r.polls;
    r.polled_records += batch.size();
    if (batch.empty()) {
      if (NowNs() - last_move > uint64_t(stall_s * 1e9)) return std::nullopt;
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      continue;
    }
    last_move = NowNs();
    checker.CheckBatch(batch, last_move, false);
    g_progress.fetch_add(1, std::memory_order_relaxed);
  }
  const uint64_t t1 = NowNs();
  consumer->Close();
  AccumulateConsumer(r, *consumer);
  Account(r, what, records, checker);
  return double(records * kRecordBytes) / kMB / (double(t1 - t0) / 1e9);
}

[[noreturn]] void StallExit(Round& r, ServerProcess& server,
                            const std::string& where) {
  g_abort.store(true);
  std::printf("STALL during %s: no progress for the stall window\n",
              where.c_str());
  // A stopped server cannot answer; ask with a short timeout.
  auto stats = server.Ask("STATS", "STATS ", 2000);
  std::printf("server counters: %s\n",
              stats ? stats->c_str() : "(server unresponsive)");
  std::printf("client counters: attempted=%" PRIu64 " verified=%" PRIu64
              " records_sent=%" PRIu64 " chunks_sent=%" PRIu64
              " requests_sent=%" PRIu64 " request_failures=%" PRIu64 "\n",
              r.attempted, r.verified, r.records_sent, r.chunks_sent,
              r.requests_sent, r.request_failures);
  server.Kill();
  // Every record not yet verified as delivered is outstanding: failed.
  uint64_t failed = std::max(r.failed, r.attempted > r.verified
                                           ? r.attempted - r.verified
                                           : uint64_t(0));
  uint64_t attempted = std::max<uint64_t>(r.attempted, 1);
  failed = std::max<uint64_t>(failed, 1);
  std::printf("failed_frac = %.6f ratio (%" PRIu64 " of %" PRIu64
              " records outstanding or failed)\n",
              double(failed) / double(attempted), failed, attempted);
  Json j;
  j.Bool("correct", false)
      .Int("attempted", attempted)
      .Int("failed", failed)
      .Bool("stalled", true);
  std::printf("RESULT %s\n", j.str().c_str());
  std::fflush(stdout);
  // Client threads may be blocked inside the library on the dead server;
  // exiting ends them with the process (the server is already reaped).
  std::_Exit(3);
}

[[noreturn]] void FatalExit(ServerProcess& server, const std::string& why) {
  std::fprintf(stderr, "fatal: %s\n", why.c_str());
  server.Kill();
  std::_Exit(4);
}

Round RunRound(const Workload& w, const ClientArgs& args, int round,
               bool traced) {
  Round r;
  r.traced = traced;
  const uint64_t seed = args.seed * 7919 + uint64_t(round);
  const std::string tag = w.name + "-s" + std::to_string(args.seed) + "-r" +
                          std::to_string(round);
  const std::string spill = args.out_dir + "/spill-" + tag;
  std::vector<std::string> sargs = {
      "server", "--memory-bytes", std::to_string(w.memory_bytes),
      "--budget-bytes", std::to_string(w.budget_bytes), "--spill-dir", spill};
  if (traced) {
    sargs.push_back("--spans");
    sargs.push_back(args.out_dir + "/spans-server-" + tag + ".bin");
  }

  // Set-up: process start -> server up, streams created, clients
  // connected (and the tiered history preloaded).
  const auto host_start = HostCpuTicks();
  const uint64_t t0 = NowNs();
  ServerProcess server;
  if (!server.Start(sargs)) FatalExit(server, "spawn server failed");
  std::printf("round %d: server pid %d%s\n", round, int(server.pid()),
              traced ? " (traced)" : "");
  std::fflush(stdout);
  auto ready = server.ReadLine(60'000);
  std::vector<uint16_t> ports;
  if (ready && ready->rfind("READY", 0) == 0) {
    const char* p = ready->c_str() + 5;
    char* end = nullptr;
    for (unsigned long v = std::strtoul(p, &end, 10); end != p;
         v = std::strtoul(p, &end, 10)) {
      ports.push_back(uint16_t(v));
      p = end;
    }
  }
  if (ports.size() != 1 + 2 * kNodes) FatalExit(server, "server not ready");

  kera::rpc::SocketNetwork net;
  net.SetPeer(kera::kCoordinatorNode, "127.0.0.1", ports[0]);
  for (NodeId n = 1; n <= kNodes; ++n) net.SetPeer(n, "127.0.0.1", ports[n]);

  const std::string load = "load", probe = "probe", history = "history";
  bool ok = CreateStream(net, load, w.streamlets, w.replication).ok();
  if (ok && w.probe_rate_rps > 0) {
    ok = CreateStream(net, probe, kNodes, w.replication).ok();
  }
  if (ok && w.history_bytes > 0) {
    ok = CreateStream(net, history, w.history_streamlets, w.replication).ok();
  }
  if (!ok) FatalExit(server, "create stream failed");
  std::vector<std::unique_ptr<kera::Producer>> producers;
  std::vector<uint32_t> load_ids;
  for (int i = 0; i < w.load_producers; ++i) {
    load_ids.push_back(uint32_t(1 + i));
    producers.push_back(
        MakeProducer(net, load, load_ids.back(), w.chunk_bytes));
    if (producers.back() == nullptr) FatalExit(server, "producer connect");
  }

  std::vector<uint32_t> history_ids;
  uint64_t history_records = 0;
  if (w.history_bytes > 0) {
    std::vector<std::unique_ptr<kera::Producer>> hp;
    std::vector<GenResult> hr(2);
    std::vector<std::thread> ht;
    uint64_t per = w.history_bytes / kRecordBytes / 2;
    for (uint32_t i = 0; i < 2; ++i) {
      history_ids.push_back(200 + i);
      hp.push_back(MakeProducer(net, history, 200 + i, 16 << 10));
      if (hp.back() == nullptr) FatalExit(server, "history producer connect");
    }
    for (uint32_t i = 0; i < 2; ++i) {
      GenSpec spec;
      spec.producer = 200 + i;
      spec.records = per;
      spec.seed = seed;
      ht.emplace_back([&, i, spec] { RunGenerator(*hp[i], spec, hr[i]); });
    }
    bool done = WaitForProgress(
        [&] { return hr[0].done.load() && hr[1].done.load(); },
        args.stall_seconds);
    if (!done) StallExit(r, server, "history preload");
    for (auto& t : ht) t.join();
    for (auto& g : hr) {
      if (!g.flush_ok || g.send_failed != 0) {
        FatalExit(server, "history preload failed");
      }
      history_records += g.attempted;
    }
    for (auto& p : hp) (void)p->Close();
  }

  TailReader tail;
  if (w.tail_consumer) {
    tail.consumer = MakeConsumer(net, load);
    if (tail.consumer == nullptr) FatalExit(server, "consumer connect");
    for (uint32_t id : load_ids) tail.checker.Expect(id);
  }
  std::unique_ptr<kera::Producer> probe_producer;
  std::unique_ptr<kera::Consumer> probe_consumer;
  if (w.probe_rate_rps > 0) {
    probe_producer = MakeProducer(net, probe, 100, 1024);
    probe_consumer = MakeConsumer(net, probe);
    if (probe_producer == nullptr || probe_consumer == nullptr) {
      FatalExit(server, "probe connect");
    }
  }
  r.setup_s = double(NowNs() - t0) / 1e9;

  // ----- measured window -----
  if (traced) Tracer::SetEnabled(true);
  auto marked = server.Ask("MARK", "MARKED ", 10'000);
  if (!marked) FatalExit(server, "server MARK");
  r.mark_ns = std::strtoull(marked->c_str(), nullptr, 10);
  const uint64_t end_ns = NowNs() + uint64_t(args.seconds * 1e9);

  std::vector<GenResult> gens(producers.size());
  std::vector<std::thread> threads;
  for (size_t i = 0; i < producers.size(); ++i) {
    GenSpec spec;
    spec.producer = load_ids[i];
    spec.seed = seed;
    spec.send_span_every = traced ? 64 : 0;
    if (w.rate_rps > 0) {
      spec.rate_rps = w.rate_rps / double(producers.size());
      spec.end_ns = end_ns;
    } else {
      spec.records = w.volume_bytes / kRecordBytes / producers.size();
    }
    threads.emplace_back(
        [&, i, spec] { RunGenerator(*producers[i], spec, gens[i]); });
  }
  if (w.tail_consumer) tail.Start();

  // Latency probe: one thread writes the probe stream open-loop and tails
  // it, polling without blocking between arrivals.
  std::atomic<bool> load_done{false};
  std::atomic<bool> probe_done{false};
  std::atomic<uint64_t> probe_delivered{0};
  Checker probe_checker;
  GenResult probe_gen;
  std::thread probe_thread;
  if (w.probe_rate_rps > 0) {
    probe_checker.Expect(100);
    probe_thread = std::thread([&] {
      std::mt19937_64 rng(seed * 31 + 100);
      std::exponential_distribution<double> gap(w.probe_rate_rps);
      std::array<std::byte, kRecordBytes> rec{};
      double due = double(NowNs()) + gap(rng) * 1e9;
      uint64_t seq = 0;
      bool flushed = false;
      while (!g_abort.load(std::memory_order_relaxed)) {
        const bool sending = !load_done.load(std::memory_order_relaxed);
        uint64_t now = NowNs();
        while (sending && uint64_t(due) <= now) {
          FillRecord(rec.data(), 100, seq++, uint64_t(due), seed);
          ++probe_gen.attempted;
          probe_gen.lateness_ns.push_back(now - uint64_t(due));
          if (!probe_producer->Send(rec).ok()) ++probe_gen.send_failed;
          due += gap(rng) * 1e9;
        }
        std::vector<kera::ConsumedRecord> batch;
        {
          Tracer::Scope span(SpanName::kClientPoll);
          batch = probe_consumer->Poll(1024);
        }
        if (!batch.empty()) {
          probe_checker.CheckBatch(batch, NowNs(), true);
          probe_delivered.store(probe_checker.delivered_ok(),
                                std::memory_order_relaxed);
          g_progress.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (!sending && !flushed) {
          probe_gen.flush_ok = probe_producer->Flush().ok();
          flushed = true;
        }
        if (flushed && probe_checker.delivered_ok() +
                               probe_checker.violations() >=
                           probe_gen.attempted) {
          break;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      probe_done.store(true);
    });
  }

  auto gens_done = [&] {
    for (auto& g : gens) {
      if (!g.done.load()) return false;
    }
    return true;
  };
  auto stall = [&](const char* where) {
    for (auto& g : gens) r.attempted += g.attempted;
    r.attempted += probe_gen.attempted;
    r.verified = tail.delivered.load() + probe_delivered.load();
    for (auto& p : producers) AccumulateProducer(r, *p);
    StallExit(r, server, where);
  };

  // One catch-up pass over the tiered history runs on this thread beside
  // the live load (a second pass would be served from the warmed cold
  // cache). The pass watches for its own stall.
  if (w.history_bytes > 0) {
    auto mbps = CatchUpPass(net, history, history_ids, history_records, r,
                            args.stall_seconds, "catch-up");
    r.attempted += history_records;
    if (!mbps) stall("catch-up read");
    r.catchup_mbps.push_back(*mbps);
  }

  if (!WaitForProgress(gens_done, args.stall_seconds)) stall("ingest");
  for (auto& t : threads) t.join();
  uint64_t acked = 0, first = UINT64_MAX, last = 0;
  for (auto& g : gens) {
    first = std::min(first, g.first_send_ns);
    last = std::max(last, g.flush_done_ns);
    r.attempted += g.attempted;
    r.failed += g.send_failed;
    if (g.flush_ok) {
      acked += g.attempted - g.send_failed;
    } else {
      r.failed += g.attempted - g.send_failed;
    }
    r.lateness_ns.insert(r.lateness_ns.end(), g.lateness_ns.begin(),
                         g.lateness_ns.end());
  }
  r.ingested_bytes = acked * kRecordBytes;
  r.ingest_mbps = double(r.ingested_bytes) / kMB / (double(last - first) / 1e9);
  load_done.store(true);

  if (w.tail_consumer) {
    if (!WaitForProgress([&] { return tail.delivered.load() >= acked; },
                         args.stall_seconds)) {
      stall("tail delivery");
    }
    tail.Finish();
    Account(r, "tail", acked, tail.checker);
    r.polls += tail.polls;
    r.polled_records += tail.polled;
    r.latency_ns = std::move(tail.checker.latencies_ns());
    r.due_ns = std::move(tail.checker.dues_ns());
  }
  if (probe_thread.joinable()) {
    if (!WaitForProgress([&] { return probe_done.load(); },
                         args.stall_seconds)) {
      stall("probe");
    }
    probe_thread.join();
    r.attempted += probe_gen.attempted;
    r.failed += probe_gen.send_failed;
    Account(r, "probe", probe_gen.flush_ok ? probe_gen.attempted.load() : 0,
            probe_checker);
    r.latency_ns = std::move(probe_checker.latencies_ns());
    r.due_ns = std::move(probe_checker.dues_ns());
    r.lateness_ns.insert(r.lateness_ns.end(), probe_gen.lateness_ns.begin(),
                         probe_gen.lateness_ns.end());
  }
  auto stopped = server.Ask("STOP", "STOPPED ", 10'000);
  if (!stopped) FatalExit(server, "server STOP");
  r.stop_ns = std::strtoull(stopped->c_str(), nullptr, 10);
  Tracer::SetEnabled(false);
  for (auto& p : producers) AccumulateProducer(r, *p);
  if (w.tail_consumer) AccumulateConsumer(r, *tail.consumer);
  if (probe_consumer != nullptr) AccumulateConsumer(r, *probe_consumer);
  r.net = net.GetStats();

  // Read-back from offset 0: the delivery check of a workload without a
  // tailing consumer, a second one otherwise, and the all-resident
  // catch-up rate. One full pass verifies every acked record; short
  // passes over the start of the stream add rate samples, since the rate
  // of a single pass varies by a factor of up to 3 from pass to pass.
  if (w.history_bytes == 0) {
    for (int pass = 0; pass < 5; ++pass) {
      const uint64_t records =
          pass == 0 ? acked : std::min<uint64_t>(acked, 160'000);
      auto mbps = CatchUpPass(net, load, load_ids, records, r,
                              args.stall_seconds, "read-back");
      if (!mbps) stall("read-back");
      r.catchup_mbps.push_back(*mbps);
    }
  }

  auto stats = server.Ask("STATS", "STATS ", 10'000);
  if (!stats) FatalExit(server, "server STATS");
  r.server = ParseFlatJson(*stats);
  for (auto& p : producers) (void)p->Close();
  if (probe_producer != nullptr) (void)probe_producer->Close();
  if (probe_consumer != nullptr) probe_consumer->Close();
  net.Shutdown();
  if (!server.Quit()) FatalExit(server, "server did not shut down cleanly");
  std::error_code ec;
  std::filesystem::remove_all(spill, ec);
  r.steal = StealShare(host_start, HostCpuTicks());
  return r;
}

// ------------------------------------------------------------- reporting

std::string BuildType() {
#ifdef PERFBENCH_BUILD_TYPE
  return PERFBENCH_BUILD_TYPE;
#else
  return "unknown";
#endif
}

bool OptimizedBuild() {
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  return true;
#else
  return false;
#endif
}

int RunClient(const ClientArgs& args) {
  auto wl = MakeWorkload(args.workload, args.scale);
  if (!wl) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const Workload& w = *wl;
  if (!OptimizedBuild()) {
    std::printf("WARNING: UNOPTIMIZED BUILD (%s) - numbers are not "
                "representative\n", BuildType().c_str());
  }
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  const auto host_start = HostCpuTicks();

  // Rounds: each spawns a fresh server and sets up from scratch, so
  // setup_s is a median of several set-ups. A traced run alternates
  // untraced and traced rounds so it also measures its own overhead.
  constexpr int kRounds = 9;
  const int rounds = args.trace ? kRounds + 1 : kRounds;
  ClientArgs per_round = args;
  per_round.seconds = args.seconds / kRounds;
  std::vector<Round> results;
  for (int i = 0; i < rounds; ++i) {
    bool traced = args.trace && (i % 2 == 1);
    results.push_back(RunRound(w, per_round, i, traced));
    const Round& r = results.back();
    std::vector<uint64_t> lat = r.latency_ns;
    std::printf("round %d: setup %.3f s, ingest %.2f MB/s, catch-up %.1f "
                "MB/s, e2e p50 %.0f us p99 %.0f us (%zu samples), server "
                "cpu %.1f ms/MB, host steal %.1f%%, failed %" PRIu64
                "/%" PRIu64 "%s\n",
                i, r.setup_s, r.ingest_mbps, Median(r.catchup_mbps),
                Quantile(lat, 0.5) / 1e3, Quantile(lat, 0.99) / 1e3,
                lat.size(), r.server.at("cpu_ns") / 1e6 /
                    (double(r.ingested_bytes) / kMB),
                r.steal * 100, r.failed, r.attempted, r.violations.c_str());
    std::fflush(stdout);
  }
  const double steal = StealShare(host_start, HostCpuTicks());
  if (args.trace) {
    if (!Tracer::Dump(args.out_dir + "/spans-client-" + w.name + "-s" +
                      std::to_string(args.seed) + ".bin")) {
      std::fprintf(stderr, "span dump failed\n");
      return 5;
    }
  }

  // Aggregate a set of rounds into the end-to-end metrics.
  struct E2E {
    double setup_s, ingest, p50, p99, catchup, cpu, rss;
    double pooled_p50, pooled_p99, pmax, pmax_us, late_p99, late_max;
    size_t samples, rounds_used;
  };
  // On a virtual machine the hypervisor steals CPU time in bursts, and a
  // round that lost several percent of its CPU measures the neighbours,
  // not the program. Rounds whose host steal (the host's own counter,
  // never the figures) exceeds kStealLimit are left out, down to the
  // calmer half of the rounds.
  constexpr double kStealLimit = 0.03;
  auto calm = [&](bool traced) {
    std::vector<Round*> rs;
    for (auto& r : results) {
      if (r.traced == traced) rs.push_back(&r);
    }
    std::stable_sort(rs.begin(), rs.end(), [](const Round* a, const Round* b) {
      return a->steal < b->steal;
    });
    size_t keep = size_t(std::count_if(
        rs.begin(), rs.end(),
        [](const Round* r) { return r->steal <= kStealLimit; }));
    rs.resize(std::max(keep, (rs.size() + 1) / 2));
    return rs;
  };
  auto aggregate = [&](bool traced) {
    E2E e{};
    std::vector<double> setup, ingest, catchup, cpu, rss, p50, p99;
    std::vector<uint64_t> lat, late;
    for (Round* rp : calm(traced)) {
      Round& r = *rp;
      ++e.rounds_used;
      setup.push_back(r.setup_s);
      ingest.push_back(r.ingest_mbps);
      catchup.insert(catchup.end(), r.catchup_mbps.begin(),
                     r.catchup_mbps.end());
      cpu.push_back(r.server["cpu_ns"] / 1e6 /
                    (double(r.ingested_bytes) / kMB));
      rss.push_back(r.server["vmhwm_kb"] / 1024.0);
      IntervalPercentiles(r.due_ns, r.latency_ns, p50, p99);
      lat.insert(lat.end(), r.latency_ns.begin(), r.latency_ns.end());
      late.insert(late.end(), r.lateness_ns.begin(), r.lateness_ns.end());
    }
    e.setup_s = Median(setup);
    e.ingest = Median(ingest);
    e.catchup = Median(catchup);
    e.cpu = Median(cpu);
    e.rss = Median(rss);
    e.samples = lat.size();
    // Gated latency: the median over half-second intervals of each
    // interval's percentile. A rare scheduling hiccup on the shared cores
    // moves the pooled p99 of a run by tens of percent from run to run;
    // the interval median moves only when the tail moves in most of the
    // run. The pooled figures are reported beside it.
    e.p50 = p50.empty() ? Quantile(lat, 0.50) / 1e3 : Median(p50);
    e.p99 = p99.empty() ? Quantile(lat, 0.99) / 1e3 : Median(p99);
    e.pooled_p50 = Quantile(lat, 0.50) / 1e3;
    e.pooled_p99 = Quantile(lat, 0.99) / 1e3;
    e.pmax = SupportedPercentile(lat.size());
    e.pmax_us = Quantile(lat, e.pmax / 100.0) / 1e3;
    e.late_p99 = Quantile(late, 0.99) / 1e3;
    e.late_max = late.empty() ? 0.0
                              : double(*std::max_element(late.begin(),
                                                         late.end())) / 1e3;
    return e;
  };
  const E2E e = aggregate(false);

  // Generator lateness bound: beyond it the offered load was not the
  // stated schedule and the run is marked invalid. Lateness includes time
  // blocked in Send on the producer's chunk pool, which reaches a few ms
  // at p99 when the 4 cores are contended; 20 ms means the schedule was
  // lost. Validity is reported beside the oracle's verdict, not folded
  // into it: `correct` says whether the outputs were right.
  constexpr double kLatenessBoundUs = 20'000;
  const bool open_loop = w.rate_rps > 0 || w.probe_rate_rps > 0;
  const bool valid = !open_loop || e.late_p99 <= kLatenessBoundUs;
  uint64_t server_checksum = 0, client_checksum = 0;
  for (auto& r : results) {
    server_checksum += uint64_t(r.server["checksum_failures"] +
                                r.server["backup_checksum_failures"]);
    client_checksum += r.client_checksum_failures;
  }
  uint64_t attempted = 0, failed = 0, connections = 0;
  for (auto& r : results) {
    attempted += r.attempted;
    failed += r.failed;
    connections = std::max(connections, r.net.connections_opened);
  }
  const bool correct =
      failed == 0 && server_checksum == 0 && client_checksum == 0;

  std::printf("\nworkload %s (%s), seed %" PRIu64 ", %d rounds of %.2f s, "
              "figures from the %zu with host steal <= %.0f%% (or the "
              "calmer half)\n",
              w.name.c_str(), w.why.c_str(), args.seed, rounds,
              per_round.seconds, e.rounds_used, kStealLimit * 100);
  std::printf("  %-22s %14.4f %s\n", "setup_s", e.setup_s, "s");
  std::printf("  %-22s %14.4f %s\n", "ingest_MBps", e.ingest, "MB/s");
  std::printf("  %-22s %14.2f %s\n", "e2e_p50_us", e.p50, "us");
  std::printf("  %-22s %14.2f %s\n", "e2e_p99_us", e.p99, "us");
  std::printf("  %-22s %14.2f %s\n", "catchup_MBps", e.catchup, "MB/s");
  // Every round counts for correctness, calm or not.
  const double failed_frac =
      double(failed) / double(std::max<uint64_t>(attempted, 1));
  std::printf("  %-22s %14.6f %s\n", "failed_frac", failed_frac, "ratio");
  std::printf("  %-22s %14.3f %s\n", "server_cpu_ms_per_MB", e.cpu, "ms/MB");
  std::printf("  %-22s %14.1f %s\n", "server_peak_rss_MB", e.rss, "MB");
  std::printf("  latency samples %zu; pooled p50 %.2f us, p99 %.2f us; "
              "highest supported percentile p%.4f = %.2f us\n", e.samples,
              e.pooled_p50, e.pooled_p99, e.pmax, e.pmax_us);
  std::printf("  generator lateness p99 %.1f us, max %.1f us (bound p99 <= "
              "%.0f us): %s\n", e.late_p99, e.late_max, kLatenessBoundUs,
              valid ? "valid" : "INVALID");
  std::printf("  host steal time %.1f%% of CPU time during the run%s\n",
              steal * 100,
              steal > 0.05 ? " - WARNING: the host is oversubscribed, figures "
                             "are not comparable"
                           : "");
  std::printf("  client: one SocketNetwork, %" PRIu64 " connections per "
              "round at most\n", connections);
  std::printf("  oracle: attempted %" PRIu64 ", failed %" PRIu64
              ", checksum_failures server %" PRIu64 " client %" PRIu64
              " -> %s\n", attempted, failed, server_checksum,
              client_checksum, correct ? "CORRECT" : "INCORRECT");

  Json metrics;
  metrics.Num("setup_s", e.setup_s)
      .Num("ingest_MBps", e.ingest)
      .Num("e2e_p50_us", e.p50)
      .Num("e2e_p99_us", e.p99)
      .Num("catchup_MBps", e.catchup)
      .Num("failed_frac", failed_frac)
      .Num("server_cpu_ms_per_MB", e.cpu)
      .Num("server_peak_rss_MB", e.rss);
  Json info;
  info.Int("latency_samples", e.samples)
      .Num("pooled_p50_us", e.pooled_p50)
      .Num("pooled_p99_us", e.pooled_p99)
      .Num("highest_supported_percentile", e.pmax)
      .Num("highest_supported_percentile_us", e.pmax_us)
      .Num("generator_lateness_p99_us", e.late_p99)
      .Num("generator_lateness_max_us", e.late_max)
      .Bool("generator_valid", valid)
      .Int("client_connections", connections)
      .Num("host_steal_frac", steal)
      .Int("rounds", uint64_t(rounds))
      .Int("rounds_used", e.rounds_used)
      .Num("round_seconds", per_round.seconds)
      .Int("nproc", kera::HostNproc())
      .Str("cpu_model", kera::HostCpuModel())
      .Str("build_type", BuildType())
      .Bool("optimized_build", OptimizedBuild())
      .Int("seed", args.seed)
      .Str("workload", w.name)
      .Int("nodes", kNodes)
      .Int("streamlets", w.streamlets)
      .Int("replication", w.replication)
      .Int("record_bytes", kRecordBytes)
      .Int("chunk_bytes", w.chunk_bytes)
      .Int("load_producers", uint64_t(w.load_producers))
      .Num("rate_rps", w.rate_rps)
      .Int("volume_bytes", w.volume_bytes)
      .Num("probe_rate_rps", w.probe_rate_rps)
      .Int("history_bytes", w.history_bytes)
      .Int("budget_bytes", w.budget_bytes)
      .Int("memory_bytes", w.memory_bytes);

  // Per-layer counters and client-side timings of the traced rounds, plus
  // the tracing overhead (traced minus untraced end-to-end figures).
  Json layer;
  if (args.trace) {
    const E2E t = aggregate(true);
    Round sum;
    std::vector<uint64_t> windows;
    for (auto& r : results) {
      if (!r.traced) continue;
      windows.push_back(r.mark_ns);
      windows.push_back(r.stop_ns);
      sum.records_sent += r.records_sent;
      sum.chunks_sent += r.chunks_sent;
      sum.requests_sent += r.requests_sent;
      sum.request_failures += r.request_failures;
      sum.producer_bytes += r.producer_bytes;
      sum.request_latency_us.Merge(r.request_latency_us);
      sum.polls += r.polls;
      sum.polled_records += r.polled_records;
      sum.fetch_requests += r.fetch_requests;
      sum.fetch_empty += r.fetch_empty;
      sum.flow_control_pauses += r.flow_control_pauses;
      sum.ingested_bytes += r.ingested_bytes;
      for (auto& [k, v] : r.server) sum.server[k] += v;
      sum.net.frames_sent += r.net.frames_sent;
      sum.net.sendmsg_calls += r.net.sendmsg_calls;
      sum.net.bytes_sent += r.net.bytes_sent;
      sum.net.tx_copied_bytes += r.net.tx_copied_bytes;
    }
    auto& s = sum.server;
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    const double user = double(sum.producer_bytes);
    layer.Num("client.request_us.p50",
              double(sum.request_latency_us.Quantile(0.5)))
        .Num("client.request_us.p99",
             double(sum.request_latency_us.Quantile(0.99)))
        .Num("client.chunks_per_request",
             ratio(double(sum.chunks_sent), double(sum.requests_sent)))
        .Num("client.chunk_fill",
             ratio(user, double(sum.chunks_sent) * double(w.chunk_bytes)))
        .Int("client.request_failures", sum.request_failures)
        .Num("client.records_per_poll",
             ratio(double(sum.polled_records), double(sum.polls)))
        .Num("client.fetch_useful_ratio",
             sum.fetch_requests == 0
                 ? 0.0
                 : 1.0 - ratio(double(sum.fetch_empty),
                               double(sum.fetch_requests)))
        .Int("client.flow_control_pauses", sum.flow_control_pauses)
        .Num("rpc.client.frames_per_sendmsg",
             ratio(double(sum.net.frames_sent), double(sum.net.sendmsg_calls)))
        .Num("rpc.client.wire_bytes_per_user_byte",
             ratio(double(sum.net.bytes_sent), user))
        .Num("rpc.client.tx_copied_bytes_per_user_byte",
             ratio(double(sum.net.tx_copied_bytes), user))
        .Num("rpc.server.frames_per_sendmsg",
             ratio(s["net_frames_sent"], s["net_sendmsg_calls"]))
        .Num("rpc.server.wire_bytes_per_user_byte",
             ratio(s["net_bytes_sent"], user))
        .Num("rpc.server.tx_copied_bytes_per_user_byte",
             ratio(s["net_tx_copied_bytes"], user))
        .Num("broker.chunks_per_produce",
             ratio(s["chunks_appended"], s["produce_rpcs"]))
        .Num("broker.chunks_per_consume",
             ratio(s["chunks_served"], s["consume_rpcs"]))
        .Num("broker.consume_long_polls", s["consume_long_polls"])
        .Num("broker.cross_shard_ops", s["cross_shard_ops"])
        .Num("vlog.chunks_per_batch",
             ratio(s["backup_chunks_received"], s["replication_rpcs"]))
        .Num("vlog.bytes_per_batch",
             ratio(s["replication_bytes"], s["replication_rpcs"]))
        .Num("vlog.replication_rpcs", s["replication_rpcs"])
        .Num("backup.bytes_per_rpc",
             ratio(s["backup_bytes_received"], s["backup_replicate_rpcs"]))
        .Num("backup.replicate_rpcs", s["backup_replicate_rpcs"])
        .Num("storage.cold_reads", s["cold_reads"])
        .Num("storage.cold_cache_hit_ratio",
             ratio(s["cold_cache_hits"],
                   s["cold_cache_hits"] + s["cold_cache_misses"]))
        .Num("storage.readahead_hits", s["readahead_hits"])
        .Num("storage.segments_spilled", s["segments_spilled"])
        .Num("storage.segments_evicted", s["segments_evicted"])
        .Num("storage.spill_MB", s["spill_bytes"] / kMB)
        // A gauge, unlike the counters summed above: mean per round.
        .Num("storage.resident_MB", s["memory_bytes_resident"] / kMB /
                                        double(windows.size() / 2))
        .Num("trace.spans_dropped",
             s["spans_dropped"] + double(Tracer::dropped()))
        .Num("trace.overhead.setup_s", t.setup_s - e.setup_s)
        .Num("trace.overhead.ingest_MBps", t.ingest - e.ingest)
        .Num("trace.overhead.e2e_p50_us", t.p50 - e.p50)
        .Num("trace.overhead.e2e_p99_us", t.p99 - e.p99)
        .Num("trace.overhead.catchup_MBps", t.catchup - e.catchup)
        .Num("trace.overhead.server_cpu_ms_per_MB", t.cpu - e.cpu)
        .Num("e2e.p99_us", e.p99)
        .Num("trace.e2e_p50_us", t.p50);
    std::string win = "[";
    for (size_t i = 0; i < windows.size(); ++i) {
      win += (i ? "," : "") + std::to_string(windows[i]);
    }
    info.Raw("trace_windows_ns", win + "]");
  }

  Json out;
  out.Bool("correct", correct)
      .Int("attempted", std::max<uint64_t>(attempted, 1))
      .Int("failed", failed)
      .Raw("metrics", metrics.str())
      .Raw("layer", layer.str())
      .Raw("info", info.str());
  std::printf("RESULT %s\n", out.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s client|server [options]\n", argv[0]);
    return 2;
  }
  std::string role = argv[1];
  std::map<std::string, std::string> opt;
  for (int i = 2; i + 1 < argc; i += 2) opt[argv[i]] = argv[i + 1];
  auto get = [&](const char* k, const char* d) {
    auto it = opt.find(k);
    return it == opt.end() ? std::string(d) : it->second;
  };
  signal(SIGPIPE, SIG_IGN);
  if (role == "server") {
    ServerArgs a;
    a.memory_bytes = std::stoull(get("--memory-bytes", "1073741824"));
    a.budget_bytes = std::stoull(get("--budget-bytes", "0"));
    a.spill_dir = get("--spill-dir", ".bench_out/spill");
    a.spans_path = get("--spans", "");
    return RunServer(a);
  }
  if (role == "client") {
    ClientArgs a;
    a.workload = get("--workload", "");
    a.seed = std::stoull(get("--seed", "1"));
    a.seconds = std::stod(get("--seconds", "10"));
    a.trace = get("--trace", "0") == "1";
    a.out_dir = get("--out", ".bench_out");
    a.scale = std::stod(get("--scale", "1"));
    a.stall_seconds = std::stod(get("--stall-seconds", "10"));
    return RunClient(a);
  }
  std::fprintf(stderr, "unknown role '%s'\n", role.c_str());
  return 2;
}
