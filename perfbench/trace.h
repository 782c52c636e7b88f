// In-memory span recorder for the end-to-end benchmark.
//
// A span is (name, start, end, parent), where the parent is the span that
// was open on the same thread when this one began. Spans are appended to a
// per-thread buffer made of fixed-size blocks, so a span's address never
// moves and an asynchronous span (an RPC whose future is consumed later)
// can be closed through its handle. Nothing is recorded while the tracer
// is disabled: the untraced run executes the same wrappers and pays one
// relaxed atomic load per call.
//
// Dump() writes every recorded span as a flat little-endian array of
// SpanRecord; perfbench/analyze.py reads it back and computes self times.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

namespace perfbench {

/// Span names. The numeric values are part of the dump format: keep them
/// in sync with SPAN_NAMES in analyze.py.
enum class SpanName : uint16_t {
  kClientSend = 1,
  kClientFlush = 2,
  kClientPoll = 3,
  kBrokerProduce = 10,
  kBrokerConsume = 11,
  kBrokerOther = 12,
  kReplicateCall = 20,  // broker -> backup kReplicate, issue to result
  kBackupReplicate = 30,
  kBackupOther = 31,
  kCoordinatorCreateStream = 40,
  kCoordinatorGetStreamInfo = 41,
  kCoordinatorOther = 42,
};

/// On-disk span layout (24 bytes). `parent` indexes the same thread's
/// spans in dump order, -1 for a root span.
struct SpanRecord {
  uint16_t name = 0;
  uint16_t thread = 0;
  int32_t parent = -1;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;  // 0: never closed (dropped by the analysis)
};
static_assert(sizeof(SpanRecord) == 24);

inline uint64_t NowNs() {
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count());
}

class Tracer {
 public:
  static void SetEnabled(bool on);
  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }

  /// Handle of an open span; null when tracing was off at Begin.
  struct Handle {
    SpanRecord* span = nullptr;
  };

  /// Opens a span that does not become the parent of later spans on this
  /// thread (for calls whose completion is observed later).
  static Handle BeginDetached(SpanName name);
  static void End(Handle h) {
    if (h.span != nullptr) h.span->end_ns = NowNs();
  }

  /// RAII span that encloses, and so parents, spans begun inside it.
  class Scope {
   public:
    explicit Scope(SpanName name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecord* span_ = nullptr;
  };

  /// Writes all spans recorded so far to `path`. Call once recording has
  /// quiesced. Returns false on an IO error.
  static bool Dump(const std::string& path);

  /// Spans discarded because a thread hit its buffer cap.
  static uint64_t dropped();

 private:
  static std::atomic<bool> enabled_;
};

}  // namespace perfbench
