#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

namespace perfbench {
namespace {

constexpr size_t kBlockSpans = 4096;
// 24 MiB of spans per thread at most; a traced run samples its hottest
// span (Send) so that no thread comes close in a normal run.
constexpr size_t kMaxSpansPerThread = size_t(1) << 20;

struct ThreadBuf {
  uint16_t id = 0;
  std::vector<std::unique_ptr<SpanRecord[]>> blocks;
  size_t count = 0;
  std::vector<int32_t> open;  // indices of the enclosing Scopes

  SpanRecord* Append(SpanName name) {
    if (count >= kMaxSpansPerThread) return nullptr;
    if (count == blocks.size() * kBlockSpans) {
      blocks.push_back(std::make_unique<SpanRecord[]>(kBlockSpans));
    }
    SpanRecord* s = &blocks[count / kBlockSpans][count % kBlockSpans];
    s->name = uint16_t(name);
    s->thread = id;
    s->parent = open.empty() ? -1 : open.back();
    s->start_ns = NowNs();
    s->end_ns = 0;
    ++count;
    return s;
  }
};

std::mutex registry_mu;
std::vector<std::unique_ptr<ThreadBuf>> registry;  // guarded by registry_mu
std::atomic<uint64_t> dropped_spans{0};
thread_local ThreadBuf* tl_buf = nullptr;

ThreadBuf& Local() {
  if (tl_buf == nullptr) {
    std::lock_guard<std::mutex> lock(registry_mu);
    registry.push_back(std::make_unique<ThreadBuf>());
    registry.back()->id = uint16_t(registry.size() - 1);
    tl_buf = registry.back().get();
  }
  return *tl_buf;
}

}  // namespace

std::atomic<bool> Tracer::enabled_{false};

void Tracer::SetEnabled(bool on) {
  enabled_.store(on, std::memory_order_relaxed);
}

Tracer::Handle Tracer::BeginDetached(SpanName name) {
  if (!enabled()) return {};
  Handle h{Local().Append(name)};
  if (h.span == nullptr) dropped_spans.fetch_add(1, std::memory_order_relaxed);
  return h;
}

Tracer::Scope::Scope(SpanName name) {
  if (!enabled()) return;
  ThreadBuf& buf = Local();
  span_ = buf.Append(name);
  if (span_ == nullptr) {
    dropped_spans.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buf.open.push_back(int32_t(buf.count - 1));
}

Tracer::Scope::~Scope() {
  if (span_ == nullptr) return;
  span_->end_ns = NowNs();
  tl_buf->open.pop_back();
}

bool Tracer::Dump(const std::string& path) {
  std::lock_guard<std::mutex> lock(registry_mu);
  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  bool ok = true;
  for (const auto& buf : registry) {
    for (size_t i = 0; i < buf->count && ok; i += kBlockSpans) {
      size_t n = std::min(kBlockSpans, buf->count - i);
      ok = std::fwrite(buf->blocks[i / kBlockSpans].get(), sizeof(SpanRecord),
                       n, f) == n;
    }
  }
  return std::fclose(f) == 0 && ok;
}

uint64_t Tracer::dropped() {
  return dropped_spans.load(std::memory_order_relaxed);
}

}  // namespace perfbench
