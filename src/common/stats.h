// Table-driven stats structs. A component's Stats is a plain snapshot of
// uint64_t fields, declared first, followed by one `static constexpr`
// table, kFields, naming each of them once. The helpers walk that table:
// Bump and Snapshot give lock-free live counters on a component's own
// Stats member, AddCounters sums instances, ForEachCounter feeds reports.
// Each struct guards its table with
//   static_assert(CountersCovered<Stats>(offsetof(Stats, first_other)));
// (sizeof(Stats) when it holds only counters), so a field left out of
// the table fails to compile instead of silently snapshotting as 0.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string_view>

namespace kera {

/// How a field combines across instances (nodes, runs): counters add; a
/// high-water mark or a per-event measurement keeps the larger value.
enum class StatMerge : uint8_t { kSum, kMax };

template <typename S>
struct StatField {
  std::string_view name;
  uint64_t S::*field;
  StatMerge merge = StatMerge::kSum;
};

static_assert(std::atomic_ref<uint64_t>::required_alignment ==
              alignof(uint64_t));

/// True when S::kFields names `counters_end / 8` distinct fields under
/// distinct names. With the counters declared first, `counters_end` is the
/// offset of the first other field (or sizeof(S)).
template <typename S>
constexpr bool CountersCovered(size_t counters_end) {
  const auto& f = S::kFields;
  for (size_t i = 0; i < std::size(f); ++i) {
    for (size_t j = 0; j < i; ++j) {
      if (f[i].field == f[j].field || f[i].name == f[j].name) return false;
    }
  }
  return std::size(f) * sizeof(uint64_t) == counters_end;
}

/// Adds `n` to a field of a live stats struct: one relaxed `lock add`,
/// as on a std::atomic<uint64_t> member. Counters order nothing; they are
/// only reported.
inline void Bump(uint64_t& counter, uint64_t n = 1) {
  std::atomic_ref<uint64_t>(counter).fetch_add(n, std::memory_order_relaxed);
}

/// Relaxed copy of every table field of a live struct that other threads
/// may be bumping. Fields outside the table keep their defaults.
template <typename S>
[[nodiscard]] S Snapshot(const S& live) {
  S out{};
  for (const StatField<S>& f : S::kFields) {
    // atomic_ref needs a mutable referent (until C++26); this only loads.
    out.*f.field =
        std::atomic_ref<uint64_t>(const_cast<uint64_t&>(live.*f.field))
            .load(std::memory_order_relaxed);
  }
  return out;
}

/// Folds `part` into `total` field by field: the body of each summable
/// struct's operator+=.
template <typename S>
void AddCounters(S& total, const S& part) {
  for (const StatField<S>& f : S::kFields) {
    uint64_t& t = total.*f.field;
    const uint64_t p = part.*f.field;
    t = f.merge == StatMerge::kMax ? std::max(t, p) : t + p;
  }
}

/// Calls fn(name, value) for every table field, in table order.
template <typename S, typename Fn>
void ForEachCounter(const S& s, Fn&& fn) {
  for (const StatField<S>& f : S::kFields) fn(f.name, s.*f.field);
}

}  // namespace kera
