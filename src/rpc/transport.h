// Transport layer: how RPC frames move between nodes.
//
// Deployments:
//  - DirectNetwork: synchronous in-process dispatch; deterministic, used
//    by unit tests and by the DES harness (which adds its own timing).
//  - ThreadedNetwork: RAMCloud-style dispatch/worker threading — each node
//    has a request queue and a pool of worker threads; callers get
//    futures. Used by the MiniCluster and the examples.
#pragma once

#include <atomic>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "common/queue.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/types.h"
#include "rpc/serialize.h"

namespace kera::rpc {

/// A node-resident service that handles raw RPC frames.
class RpcHandler {
 public:
  virtual ~RpcHandler() = default;
  /// Handles one framed request (opcode + body) and returns the framed
  /// response body. Must be thread-safe in threaded deployments.
  [[nodiscard]] virtual std::vector<std::byte> HandleRpc(
      std::span<const std::byte> request) = 0;
};

class Network {
 public:
  virtual ~Network() = default;

  /// Synchronous call; kUnavailable if the node is not registered (or has
  /// been "crashed" by a fault-injection test).
  [[nodiscard]] virtual Result<std::vector<std::byte>> Call(
      NodeId to, std::span<const std::byte> request) = 0;

  /// Asynchronous call (parallel replication to multiple backups).
  /// Implementations consume `request` before returning; the caller's
  /// buffer need not outlive the call.
  [[nodiscard]] virtual std::future<Result<std::vector<std::byte>>> CallAsync(
      NodeId to, std::span<const std::byte> request) = 0;

  /// Vectored asynchronous call: the request frame is the concatenation of
  /// `parts.pieces`, referencing caller-owned memory (segment buffers,
  /// sealed chunk frames, a live Writer). Unlike CallAsync, the referenced
  /// memory must stay alive and unchanged until the returned future is
  /// ready. The default materializes the frame once and forwards to
  /// CallAsync; transports with scatter-gather sends (SocketNetwork's
  /// writev path) override it and never copy the payload.
  [[nodiscard]] virtual std::future<Result<std::vector<std::byte>>>
  CallAsyncParts(NodeId to, const BytesRefParts& parts);

  /// Payload bytes copied by the base-class CallAsyncParts fallback above
  /// (the PR 2 "frame materialization" copy). Transports that send parts
  /// frames with writev never add to it — tests pin the produce/replicate
  /// parts path to zero materialization copies with this counter.
  [[nodiscard]] uint64_t materialized_parts_bytes() const {
    return materialized_parts_bytes_.load(std::memory_order_relaxed);
  }

 protected:
  std::atomic<uint64_t> materialized_parts_bytes_{0};
};

/// Synchronous direct-dispatch network. Registration is not thread-safe;
/// do it before issuing calls. Crash(node) makes subsequent calls fail
/// with kUnavailable (fault injection).
class DirectNetwork final : public Network {
 public:
  void Register(NodeId node, RpcHandler* handler);
  void Crash(NodeId node);
  void Restore(NodeId node, RpcHandler* handler);

  Result<std::vector<std::byte>> Call(
      NodeId to, std::span<const std::byte> request) override;
  std::future<Result<std::vector<std::byte>>> CallAsync(
      NodeId to, std::span<const std::byte> request) override;

  struct Stats {
    uint64_t calls = 0;
    uint64_t bytes_sent = 0;
    uint64_t bytes_received = 0;

    static constexpr StatField<Stats> kFields[] = {
        {"calls", &Stats::calls},
        {"bytes_sent", &Stats::bytes_sent},
        {"bytes_received", &Stats::bytes_received},
    };
  };
  static_assert(CountersCovered<Stats>(sizeof(Stats)));
  [[nodiscard]] Stats GetStats() const { return Snapshot(stats_); }

 private:
  std::map<NodeId, RpcHandler*> handlers_;
  // Bumped atomically: handlers may be invoked from concurrent callers
  // (the DES harness and tests drive one DirectNetwork from several
  // threads).
  Stats stats_;
};

/// Fault-injection decorator: fails a configurable fraction of calls with
/// kUnavailable (before delivery — the request is lost, as with a dropped
/// TCP connection) or after delivery (the response is lost: the handler
/// ran but the caller sees a failure, which is how duplicate
/// retransmissions arise). Deterministic given the seed.
class FlakyNetwork final : public Network {
 public:
  struct Options {
    /// Probability a call is dropped before reaching the handler.
    double drop_request = 0.0;
    /// Probability the response is lost after the handler ran.
    double drop_response = 0.0;
    uint64_t seed = 1;
  };
  FlakyNetwork(Network& inner, Options options);

  Result<std::vector<std::byte>> Call(
      NodeId to, std::span<const std::byte> request) override;
  std::future<Result<std::vector<std::byte>>> CallAsync(
      NodeId to, std::span<const std::byte> request) override;
  std::future<Result<std::vector<std::byte>>> CallAsyncParts(
      NodeId to, const BytesRefParts& parts) override;

  struct Stats {
    uint64_t calls = 0;
    uint64_t dropped_requests = 0;
    uint64_t dropped_responses = 0;
  };
  [[nodiscard]] Stats GetStats() const;

 private:
  /// Draws the two fault coins for one call (under mu_, so fault patterns
  /// stay deterministic in issue order given the seed).
  void DrawCoins(bool& drop_request, bool& drop_response);
  /// Wraps an in-flight inner future so the response-drop coin is applied
  /// when the result is consumed, not at issue time.
  std::future<Result<std::vector<std::byte>>> ApplyResponseCoin(
      std::future<Result<std::vector<std::byte>>> inner, bool drop_response);

  Network& inner_;
  const Options options_;
  mutable std::mutex mu_;
  uint64_t rng_state_;
  Stats stats_;
};

/// Dispatch/worker threaded network: each registered node owns a request
/// queue and `workers` threads draining it.
class ThreadedNetwork final : public Network {
 public:
  explicit ThreadedNetwork(int workers_per_node = 4);
  ~ThreadedNetwork() override;

  ThreadedNetwork(const ThreadedNetwork&) = delete;
  ThreadedNetwork& operator=(const ThreadedNetwork&) = delete;

  /// Registers a node and spawns its workers. Refused (no-op) after
  /// Shutdown — late registration would spawn workers nobody joins.
  void Register(NodeId node, RpcHandler* handler);

  /// Fault injection: stop serving a node. In-flight requests complete;
  /// new calls fail with kUnavailable.
  void Crash(NodeId node);

  /// Fault injection: serve a crashed (or never-registered) node again.
  void Restore(NodeId node, RpcHandler* handler);

  Result<std::vector<std::byte>> Call(
      NodeId to, std::span<const std::byte> request) override;
  std::future<Result<std::vector<std::byte>>> CallAsync(
      NodeId to, std::span<const std::byte> request) override;

  void Shutdown();

 private:
  struct Work {
    std::vector<std::byte> request;
    std::promise<Result<std::vector<std::byte>>> promise;
  };
  struct NodeState {
    // Atomic: Restore() swaps the handler while workers are draining.
    std::atomic<RpcHandler*> handler{nullptr};
    BlockingQueue<std::unique_ptr<Work>> queue;
    std::vector<std::thread> workers;
    std::atomic<bool> crashed{false};
  };

  const int workers_per_node_;
  mutable std::mutex mu_;
  std::map<NodeId, std::unique_ptr<NodeState>> nodes_;
  bool shutdown_ = false;
};

}  // namespace kera::rpc
