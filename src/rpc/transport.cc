#include "rpc/transport.h"

#include <cstring>

namespace kera::rpc {

// --------------------------------------------------------------- Network

std::future<Result<std::vector<std::byte>>> Network::CallAsyncParts(
    NodeId to, const BytesRefParts& parts) {
  // Copying fallback: materialize the frame once and forward. CallAsync
  // consumes the request before returning, so the local buffer's lifetime
  // is sufficient.
  std::vector<std::byte> frame(parts.total_size());
  size_t off = 0;
  for (const auto& p : parts.pieces) {
    if (p.empty()) continue;
    std::memcpy(frame.data() + off, p.data(), p.size());
    off += p.size();
  }
  materialized_parts_bytes_.fetch_add(frame.size(),
                                      std::memory_order_relaxed);
  return CallAsync(to, frame);
}

// ---------------------------------------------------------- DirectNetwork

void DirectNetwork::Register(NodeId node, RpcHandler* handler) {
  handlers_[node] = handler;
}

void DirectNetwork::Crash(NodeId node) { handlers_.erase(node); }

void DirectNetwork::Restore(NodeId node, RpcHandler* handler) {
  handlers_[node] = handler;
}

Result<std::vector<std::byte>> DirectNetwork::Call(
    NodeId to, std::span<const std::byte> request) {
  auto it = handlers_.find(to);
  if (it == handlers_.end()) {
    return Status(StatusCode::kUnavailable, "node down");
  }
  Bump(stats_.calls);
  Bump(stats_.bytes_sent, request.size());
  std::vector<std::byte> response = it->second->HandleRpc(request);
  Bump(stats_.bytes_received, response.size());
  return response;
}

std::future<Result<std::vector<std::byte>>> DirectNetwork::CallAsync(
    NodeId to, std::span<const std::byte> request) {
  std::promise<Result<std::vector<std::byte>>> promise;
  promise.set_value(Call(to, request));
  return promise.get_future();
}

// --------------------------------------------------------- FlakyNetwork

FlakyNetwork::FlakyNetwork(Network& inner, Options options)
    : inner_(inner), options_(options), rng_state_(options.seed) {}

void FlakyNetwork::DrawCoins(bool& drop_request, bool& drop_response) {
  auto next_double = [this] {
    // splitmix64 -> [0,1)
    uint64_t z = (rng_state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z ^= z >> 31;
    return double(z >> 11) * (1.0 / (uint64_t(1) << 53));
  };
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.calls;
  drop_request = next_double() < options_.drop_request;
  drop_response = next_double() < options_.drop_response;
  if (drop_request) ++stats_.dropped_requests;
}

Result<std::vector<std::byte>> FlakyNetwork::Call(
    NodeId to, std::span<const std::byte> request) {
  bool drop_req;
  bool drop_resp;
  DrawCoins(drop_req, drop_resp);
  if (drop_req) {
    return Status(StatusCode::kUnavailable, "injected request drop");
  }
  auto result = inner_.Call(to, request);
  if (result.ok() && drop_resp) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.dropped_responses;
    return Status(StatusCode::kUnavailable, "injected response drop");
  }
  return result;
}

std::future<Result<std::vector<std::byte>>> FlakyNetwork::ApplyResponseCoin(
    std::future<Result<std::vector<std::byte>>> inner, bool drop_response) {
  // Deferred post-processing: the inner call is already in flight (so
  // fan-out stays parallel); the coin is applied when the caller consumes
  // the result.
  return std::async(
      std::launch::deferred,
      [this, drop_response,
       f = std::move(inner)]() mutable -> Result<std::vector<std::byte>> {
        auto result = f.get();
        if (result.ok() && drop_response) {
          std::lock_guard<std::mutex> lock(mu_);
          ++stats_.dropped_responses;
          return Status(StatusCode::kUnavailable, "injected response drop");
        }
        return result;
      });
}

std::future<Result<std::vector<std::byte>>> FlakyNetwork::CallAsync(
    NodeId to, std::span<const std::byte> request) {
  bool drop_req;
  bool drop_resp;
  DrawCoins(drop_req, drop_resp);
  if (drop_req) {
    std::promise<Result<std::vector<std::byte>>> promise;
    promise.set_value(Status(StatusCode::kUnavailable,
                             "injected request drop"));
    return promise.get_future();
  }
  return ApplyResponseCoin(inner_.CallAsync(to, request), drop_resp);
}

std::future<Result<std::vector<std::byte>>> FlakyNetwork::CallAsyncParts(
    NodeId to, const BytesRefParts& parts) {
  bool drop_req;
  bool drop_resp;
  DrawCoins(drop_req, drop_resp);
  if (drop_req) {
    std::promise<Result<std::vector<std::byte>>> promise;
    promise.set_value(Status(StatusCode::kUnavailable,
                             "injected request drop"));
    return promise.get_future();
  }
  return ApplyResponseCoin(inner_.CallAsyncParts(to, parts), drop_resp);
}

FlakyNetwork::Stats FlakyNetwork::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

// -------------------------------------------------------- ThreadedNetwork

ThreadedNetwork::ThreadedNetwork(int workers_per_node)
    : workers_per_node_(workers_per_node) {}

ThreadedNetwork::~ThreadedNetwork() { Shutdown(); }

void ThreadedNetwork::Register(NodeId node, RpcHandler* handler) {
  auto state = std::make_unique<NodeState>();
  state->handler.store(handler, std::memory_order_release);
  NodeState* raw = state.get();
  // Publication and worker spawn share the critical section: Shutdown
  // snapshots nodes_ under mu_ and joins every spawned worker, so a
  // Register racing Shutdown either loses (refused below, no threads
  // spawned) or wins with its workers already recorded for joining.
  std::lock_guard<std::mutex> lock(mu_);
  if (shutdown_) return;  // refused: workers would never be joined
  nodes_[node] = std::move(state);
  for (int i = 0; i < workers_per_node_; ++i) {
    raw->workers.emplace_back([raw] {
      while (auto work = raw->queue.Pop()) {
        if (raw->crashed.load(std::memory_order_acquire)) {
          (*work)->promise.set_value(
              Status(StatusCode::kUnavailable, "node crashed"));
          continue;
        }
        RpcHandler* h = raw->handler.load(std::memory_order_acquire);
        (*work)->promise.set_value(h->HandleRpc((*work)->request));
      }
    });
  }
}

void ThreadedNetwork::Crash(NodeId node) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = nodes_.find(node);
  if (it != nodes_.end()) {
    it->second->crashed.store(true, std::memory_order_release);
  }
}

void ThreadedNetwork::Restore(NodeId node, RpcHandler* handler) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = nodes_.find(node);
    if (it != nodes_.end()) {
      it->second->handler.store(handler, std::memory_order_release);
      it->second->crashed.store(false, std::memory_order_release);
      return;
    }
  }
  Register(node, handler);
}

std::future<Result<std::vector<std::byte>>> ThreadedNetwork::CallAsync(
    NodeId to, std::span<const std::byte> request) {
  NodeState* state = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = nodes_.find(to);
    if (it != nodes_.end() &&
        !it->second->crashed.load(std::memory_order_acquire)) {
      state = it->second.get();
    }
  }
  if (state == nullptr) {
    std::promise<Result<std::vector<std::byte>>> promise;
    promise.set_value(Status(StatusCode::kUnavailable, "node down"));
    return promise.get_future();
  }
  auto work = std::make_unique<Work>();
  work->request.assign(request.begin(), request.end());
  auto future = work->promise.get_future();
  state->queue.Push(std::move(work));
  return future;
}

Result<std::vector<std::byte>> ThreadedNetwork::Call(
    NodeId to, std::span<const std::byte> request) {
  return CallAsync(to, request).get();
}

void ThreadedNetwork::Shutdown() {
  std::map<NodeId, std::unique_ptr<NodeState>> nodes;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) return;
    shutdown_ = true;
    nodes.swap(nodes_);
  }
  for (auto& [_, state] : nodes) {
    state->queue.Shutdown();
  }
  for (auto& [_, state] : nodes) {
    for (auto& t : state->workers) t.join();
  }
}

}  // namespace kera::rpc
