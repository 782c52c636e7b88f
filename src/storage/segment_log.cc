#include "storage/segment_log.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "common/crc32c.h"
#include "common/logging.h"

namespace kera {

namespace {

namespace fs = std::filesystem;

uint64_t NowUs() {
  return uint64_t(std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count());
}

/// log-<id>.klog; ids are monotone, so lexicographic order == write order.
bool ParseLogFileName(const std::string& name, uint32_t& id) {
  unsigned v = 0;
  char tail[8] = {0};
  if (std::sscanf(name.c_str(), "log-%08u.%4s", &v, tail) != 2) return false;
  if (std::strcmp(tail, "klog") != 0) return false;
  id = uint32_t(v);
  return true;
}

/// Directory's log file ids in ascending order.
std::vector<uint32_t> ListLogFiles(const std::string& dir) {
  std::vector<uint32_t> ids;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    uint32_t id = 0;
    if (ParseLogFileName(entry.path().filename().string(), id)) {
      ids.push_back(id);
    }
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

}  // namespace

std::string SegmentLog::FilePathFor(uint32_t file_id) const {
  char name[32];
  std::snprintf(name, sizeof(name), "log-%08u.klog", unsigned(file_id));
  return dir_ + "/" + name;
}

// ---------------------------------------------------------------- framing

void SegmentLog::EncodeRecordHeader(const RecordHeader& h,
                                    std::byte out[kRecordHeaderSize]) {
  auto put32 = [&](size_t at, uint32_t v) { std::memcpy(out + at, &v, 4); };
  auto put64 = [&](size_t at, uint64_t v) { std::memcpy(out + at, &v, 8); };
  put32(0, kRecordMagic);
  out[4] = std::byte(uint8_t(h.type));
  out[5] = std::byte(0);  // flags
  out[6] = std::byte(0);  // reserved
  out[7] = std::byte(0);
  put64(8, h.primary);
  put32(16, h.vlog);
  put32(20, h.chunk_count);
  put64(24, h.vseg);
  put64(32, h.offset);
  put32(40, h.crc_after);
  put32(44, h.payload_len);
  put32(48, h.payload_crc);
  put32(52, Crc32c(out, 52));
}

bool SegmentLog::DecodeRecordHeader(std::span<const std::byte> in,
                                    RecordHeader& out) {
  if (in.size() < kRecordHeaderSize) return false;
  auto get32 = [&](size_t at) {
    uint32_t v;
    std::memcpy(&v, in.data() + at, 4);
    return v;
  };
  auto get64 = [&](size_t at) {
    uint64_t v;
    std::memcpy(&v, in.data() + at, 8);
    return v;
  };
  if (get32(0) != kRecordMagic) return false;
  if (get32(52) != Crc32c(in.data(), 52)) return false;
  uint8_t type = uint8_t(in[4]);
  if (type < uint8_t(RecordType::kOpen) ||
      type > uint8_t(RecordType::kEvacuate)) {
    return false;
  }
  out.type = RecordType(type);
  out.primary = get64(8);
  out.vlog = get32(16);
  out.chunk_count = get32(20);
  out.vseg = get64(24);
  out.offset = get64(32);
  out.crc_after = get32(40);
  out.payload_len = get32(44);
  out.payload_crc = get32(48);
  return true;
}

// -------------------------------------------------------------- lifecycle

SegmentLog::SegmentLog(std::string dir, SegmentLogOptions options)
    : dir_(std::move(dir)), options_(options) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    error_ = Status(StatusCode::kInternal,
                    "create " + dir_ + ": " + ec.message());
  } else {
    ScanOnStartup();
  }
  flusher_ = std::thread([this] { FlusherLoop(); });
}

SegmentLog::~SegmentLog() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  flusher_cv_.notify_all();
  if (flusher_.joinable()) flusher_.join();
}

void SegmentLog::Abandon() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    pending_.clear();
    pending_bytes_ = 0;
    if (error_.ok()) {
      error_ = Status(StatusCode::kUnavailable, "segment log abandoned");
    }
  }
  flusher_cv_.notify_all();
  durable_cv_.notify_all();
  if (flusher_.joinable()) flusher_.join();
}

Status SegmentLog::status() const {
  std::lock_guard<std::mutex> lock(mu_);
  return error_;
}

void SegmentLog::NoteIoError(const Status& s) {
  if (error_.ok()) {
    KERA_ERROR("segment log %s: %s", dir_.c_str(), s.message().c_str());
    error_ = s;
  }
}

// ------------------------------------------------------------ copy-map ops

void SegmentLog::ApplyRecord(const RecordHeader& h, uint32_t file_id,
                             uint64_t payload_pos) {
  CopyKey key{h.primary, h.vlog, VirtualSegmentId(h.vseg)};
  uint64_t rec_size = kRecordHeaderSize + h.payload_len;
  if (h.type == RecordType::kEvacuate) {
    // The copy and every record it left behind are garbage now, the
    // evacuate record included.
    auto it = copies_.find(key);
    if (it != copies_.end()) {
      for (const auto& [f, bytes] : it->second.record_bytes) {
        auto fit = files_.find(f);
        if (fit != files_.end()) {
          fit->second.dead_bytes += bytes;
          fit->second.keys.erase(key);
        }
      }
      copies_.erase(it);
    }
    files_[file_id].dead_bytes += rec_size;
    return;
  }
  Copy& c = copies_[key];
  c.record_bytes[file_id] += rec_size;
  files_[file_id].keys.insert(key);
  switch (h.type) {
    case RecordType::kOpen:
      break;
    case RecordType::kAppend: {
      Extent e;
      e.file = file_id;
      e.pos = payload_pos;
      e.len = h.payload_len;
      e.chunk_count = h.chunk_count;
      e.crc_after = h.crc_after;
      e.payload_crc = h.payload_crc;
      // Same-offset duplicates (GC relocation, or a re-ship after a torn
      // tail) carry identical content; the latest record wins.
      c.extents[h.offset] = e;
      break;
    }
    case RecordType::kSeal:
      // A copy is re-sealed only at a shorter length (the primary's final
      // empty seal after an aborted sealing batch), so the shortest seal
      // wins, in whatever order the records are scanned.
      if (!c.sealed) ++stats_.seals_durable;
      if (!c.sealed || h.offset < c.seal_size) {
        c.sealed = true;
        c.seal_size = h.offset;
        c.seal_chunks = h.chunk_count;
        c.seal_crc = h.crc_after;
      }
      break;
    case RecordType::kTruncate:
      if (h.offset <= c.truncate_size) {
        c.truncate_size = h.offset;
        c.truncate_chunks = h.chunk_count;
        c.truncate_crc = h.crc_after;
      }
      break;
    case RecordType::kEvacuate:
      break;  // handled above
  }
}

void SegmentLog::ContiguousPrefix(const Copy& c, uint64_t& size,
                                  uint32_t& chunks, uint32_t& crc) const {
  size = 0;
  chunks = 0;
  crc = 0;
  for (const auto& [off, e] : c.extents) {
    if (off != size) break;  // hole: a later extent outlived a torn middle
    size += e.len;
    chunks += e.chunk_count;
    crc = e.crc_after;
  }
  if (c.truncate_size < size) {
    size = c.truncate_size;
    chunks = c.truncate_chunks;
    crc = c.truncate_crc;
  }
  if (c.sealed && c.seal_size <= size) {
    size = c.seal_size;
    chunks = c.seal_chunks;
    crc = c.seal_crc;
  }
}

std::vector<SegmentLog::RecoveredCopy> SegmentLog::RecoveredCopies() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<RecoveredCopy> out;
  out.reserve(copies_.size());
  for (const auto& [key, c] : copies_) {
    RecoveredCopy r;
    r.key = key;
    ContiguousPrefix(c, r.size, r.chunk_count, r.running_checksum);
    // A seal whose prefix did not survive in full reverts the copy to an
    // unsealed durable prefix (defensive; group commit writes a seal only
    // after its appends, so a prefix cut cannot normally strand one).
    r.sealed = c.sealed && r.size == c.seal_size;
    out.push_back(r);
  }
  return out;
}

Status SegmentLog::ReadSegment(const CopyKey& key,
                               std::vector<std::byte>& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = copies_.find(key);
  if (it == copies_.end()) {
    return Status(StatusCode::kNotFound, "no such copy in segment log");
  }
  const Copy& c = it->second;
  uint64_t size = 0;
  uint32_t chunks = 0, crc = 0;
  ContiguousPrefix(c, size, chunks, crc);
  out.clear();
  out.resize(size_t(size));
  Status s = ReadExtentsLocked(c, {out.data(), out.size()}, size);
  if (!s.ok()) out.clear();
  return s;
}

Status SegmentLog::ReadSegmentInto(const CopyKey& key, std::span<std::byte> out,
                                   uint64_t& size) const {
  std::lock_guard<std::mutex> lock(mu_);
  size = 0;
  auto it = copies_.find(key);
  if (it == copies_.end()) {
    return Status(StatusCode::kNotFound, "no such copy in segment log");
  }
  uint32_t chunks = 0, crc = 0;
  ContiguousPrefix(it->second, size, chunks, crc);
  if (size > out.size()) {
    return Status(StatusCode::kNoSpace, "copy larger than caller buffer");
  }
  return ReadExtentsLocked(it->second, out.first(size_t(size)), size);
}

Status SegmentLog::ReadExtentsLocked(const Copy& c, std::span<std::byte> out,
                                     uint64_t size) const {
  std::map<uint32_t, PosixFile> handles;
  std::vector<std::byte> scratch;
  uint64_t covered = 0;
  for (const auto& [off, e] : c.extents) {
    if (covered >= size) break;
    if (off != covered) break;  // ContiguousPrefix bounded size already
    auto hit = handles.find(e.file);
    if (hit == handles.end()) {
      auto opened = PosixFile::Open(FilePathFor(e.file), O_RDONLY);
      if (!opened.ok()) return opened.status();
      hit = handles.emplace(e.file, std::move(*opened)).first;
    }
    // The recorded CRC covers the whole extent; read it in full even when
    // a truncate clipped the copy inside it.
    scratch.resize(e.len);
    Status s = hit->second.ReadAt(e.pos, scratch);
    if (!s.ok()) {
      return Status(StatusCode::kCorruption,
                    "extent unreadable: " + s.message());
    }
    if (Crc32c(scratch.data(), scratch.size()) != e.payload_crc) {
      return Status(StatusCode::kCorruption,
                    "extent CRC mismatch in " + FilePathFor(e.file));
    }
    uint64_t take = std::min<uint64_t>(e.len, size - covered);
    std::memcpy(out.data() + covered, scratch.data(), size_t(take));
    covered += take;
  }
  if (covered != size) {
    return Status(StatusCode::kCorruption, "copy prefix has a hole");
  }
  return OkStatus();
}

// ------------------------------------------------------------ restart scan

void SegmentLog::ScanOnStartup() {
  uint64_t t0 = NowUs();
  std::vector<uint32_t> ids = ListLogFiles(dir_);
  for (uint32_t id : ids) {
    auto opened = PosixFile::Open(FilePathFor(id), O_RDWR);
    if (!opened.ok()) {
      NoteIoError(opened.status());
      return;
    }
    auto size = opened->Size();
    if (!size.ok()) {
      NoteIoError(size.status());
      return;
    }
    uint64_t pos = 0;
    std::array<std::byte, kRecordHeaderSize> hdr;
    std::vector<std::byte> payload;
    while (pos + kRecordHeaderSize <= *size) {
      Status s = opened->ReadAt(pos, hdr);
      if (!s.ok()) break;
      RecordHeader h;
      if (!DecodeRecordHeader(hdr, h)) break;
      if (pos + kRecordHeaderSize + h.payload_len > *size) break;
      payload.resize(h.payload_len);
      if (!opened->ReadAt(pos + kRecordHeaderSize, payload).ok()) break;
      if (Crc32c(payload.data(), payload.size()) != h.payload_crc) break;
      ApplyRecord(h, id, pos + kRecordHeaderSize);
      pos += kRecordHeaderSize + h.payload_len;
    }
    if (pos < *size) {
      // Torn tail (or mid-file corruption): this file's validity ends
      // here. Truncate physically so future appends never interleave
      // fresh records with garbage.
      ++stats_.restart_torn_records;
      Status s = opened->Truncate(pos);
      if (!s.ok()) {
        NoteIoError(s);
        return;
      }
    }
    files_[id].size = pos;
    next_file_id_ = id + 1;
  }
  if (!ids.empty() && files_[ids.back()].size < options_.log_file_bytes) {
    active_file_ = ids.back();
  }
  stats_.restart_scan_ms = (NowUs() - t0) / 1000;
}

// ------------------------------------------------------------- write path

uint64_t SegmentLog::Enqueue(const RecordHeader& h,
                             std::span<const std::byte> payload) {
  std::unique_lock<std::mutex> lock(mu_);
  if (shutdown_) return next_ticket_++;  // abandoned: never durable
  PendingRecord rec;
  rec.header = h;
  rec.header.payload_len = uint32_t(payload.size());
  rec.header.payload_crc = Crc32c(payload.data(), payload.size());
  rec.payload.assign(payload.begin(), payload.end());
  rec.ticket = next_ticket_++;
  bool was_empty = pending_.empty();
  if (was_empty) pending_oldest_us_ = NowUs();
  pending_bytes_ += kRecordHeaderSize + payload.size();
  uint64_t ticket = rec.ticket;
  pending_.push_back(std::move(rec));
  // Wake the flusher when the queue goes non-empty (it must enter the
  // timed wait for the group-commit interval to ever fire) and when the
  // batch threshold trips (flush now, don't wait out the interval).
  bool kick = was_empty || pending_bytes_ >= options_.flush_batch_bytes;
  lock.unlock();
  if (kick) flusher_cv_.notify_all();
  return ticket;
}

uint64_t SegmentLog::EnqueueOpen(const CopyKey& key) {
  RecordHeader h;
  h.type = RecordType::kOpen;
  h.primary = key.primary;
  h.vlog = key.vlog;
  h.vseg = key.vseg;
  return Enqueue(h, {});
}

uint64_t SegmentLog::EnqueueAppend(const CopyKey& key, uint64_t start_offset,
                                   std::span<const std::byte> payload,
                                   uint32_t chunk_count, uint32_t crc_after) {
  RecordHeader h;
  h.type = RecordType::kAppend;
  h.primary = key.primary;
  h.vlog = key.vlog;
  h.vseg = key.vseg;
  h.offset = start_offset;
  h.chunk_count = chunk_count;
  h.crc_after = crc_after;
  return Enqueue(h, payload);
}

uint64_t SegmentLog::EnqueueSeal(const CopyKey& key, uint64_t final_size,
                                 uint32_t chunk_count, uint32_t crc_after) {
  RecordHeader h;
  h.type = RecordType::kSeal;
  h.primary = key.primary;
  h.vlog = key.vlog;
  h.vseg = key.vseg;
  h.offset = final_size;
  h.chunk_count = chunk_count;
  h.crc_after = crc_after;
  return Enqueue(h, {});
}

uint64_t SegmentLog::EnqueueTruncate(const CopyKey& key, uint64_t new_size,
                                     uint32_t chunk_count,
                                     uint32_t crc_after) {
  RecordHeader h;
  h.type = RecordType::kTruncate;
  h.primary = key.primary;
  h.vlog = key.vlog;
  h.vseg = key.vseg;
  h.offset = new_size;
  h.chunk_count = chunk_count;
  h.crc_after = crc_after;
  return Enqueue(h, {});
}

uint64_t SegmentLog::EnqueueEvacuate(const CopyKey& key) {
  RecordHeader h;
  h.type = RecordType::kEvacuate;
  h.primary = key.primary;
  h.vlog = key.vlog;
  h.vseg = key.vseg;
  return Enqueue(h, {});
}

uint64_t SegmentLog::DurableTicket() const {
  std::lock_guard<std::mutex> lock(mu_);
  return durable_ticket_;
}

Status SegmentLog::Sync() {
  std::unique_lock<std::mutex> lock(mu_);
  uint64_t target = next_ticket_ - 1;
  if (durable_ticket_ >= target) return error_;
  sync_requested_ = true;
  flusher_cv_.notify_all();
  durable_cv_.wait(lock, [&] {
    return durable_ticket_ >= target || !error_.ok();
  });
  return error_;
}

Status SegmentLog::WaitDurable(uint64_t ticket) {
  std::unique_lock<std::mutex> lock(mu_);
  durable_cv_.wait(lock, [&] {
    return durable_ticket_ >= ticket || !error_.ok();
  });
  return error_;
}

// ---------------------------------------------------------- group commit

void SegmentLog::FlusherLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (pending_.empty()) {
      if (shutdown_) break;
      flusher_cv_.wait(lock, [&] {
        return shutdown_ || !pending_.empty() || sync_requested_;
      });
      sync_requested_ = sync_requested_ && !pending_.empty();
      continue;
    }
    if (!shutdown_ && !sync_requested_ &&
        pending_bytes_ < options_.flush_batch_bytes) {
      auto deadline =
          std::chrono::steady_clock::time_point(std::chrono::microseconds(
              pending_oldest_us_ + options_.flush_interval_us));
      if (std::chrono::steady_clock::now() < deadline) {
        flusher_cv_.wait_until(lock, deadline, [&] {
          return shutdown_ || sync_requested_ ||
                 pending_bytes_ >= options_.flush_batch_bytes;
        });
        continue;
      }
    }
    lock.unlock();
    FlushGroup();
    lock.lock();
    sync_requested_ = false;
    if (error_.ok() && options_.gc_live_ratio > 0) {
      GcLocked(lock);
    }
  }
}

void SegmentLog::FlushGroup() {
  struct Placement {
    uint32_t file = 0;
    uint64_t payload_pos = 0;  // record start + header size
  };
  std::deque<PendingRecord> group;
  std::vector<Placement> where;
  std::vector<uint32_t> new_files;
  uint64_t last_ticket = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (pending_.empty()) return;
    if (!error_.ok()) {
      // Sticky failure: drop the queue (durability never advances past the
      // error; waiters observe it) instead of growing it without bound.
      pending_.clear();
      pending_bytes_ = 0;
      durable_cv_.notify_all();
      return;
    }
    group.swap(pending_);
    pending_bytes_ = 0;
    last_ticket = group.back().ticket;
    where.resize(group.size());
    for (size_t i = 0; i < group.size(); ++i) {
      uint64_t rec_size = kRecordHeaderSize + group[i].payload.size();
      if (active_file_ == 0 ||
          files_[active_file_].size + rec_size > options_.log_file_bytes) {
        active_file_ = next_file_id_++;
        new_files.push_back(active_file_);
        files_[active_file_];  // create entry
      }
      LogFile& f = files_[active_file_];
      where[i].file = active_file_;
      where[i].payload_pos = f.size + kRecordHeaderSize;
      f.size += rec_size;
      ++f.pending_io;
    }
  }

  // IO outside the lock: encode headers, then one vectored write + one
  // fsync per log file touched by this group (normally exactly one).
  std::vector<std::array<std::byte, kRecordHeaderSize>> headers(group.size());
  Status io;
  uint64_t group_bytes = 0;
  uint32_t group_fsyncs = 0;
  size_t i = 0;
  while (i < group.size() && io.ok()) {
    uint32_t file_id = where[i].file;
    uint64_t start = where[i].payload_pos - kRecordHeaderSize;
    std::vector<struct iovec> iov;
    size_t j = i;
    while (j < group.size() && where[j].file == file_id) {
      EncodeRecordHeader(group[j].header, headers[j].data());
      iov.push_back({headers[j].data(), kRecordHeaderSize});
      if (!group[j].payload.empty()) {
        iov.push_back({group[j].payload.data(), group[j].payload.size()});
      }
      group_bytes += kRecordHeaderSize + group[j].payload.size();
      ++j;
    }
    auto f = PosixFile::Open(FilePathFor(file_id), O_RDWR | O_CREAT);
    if (!f.ok()) {
      io = f.status();
      break;
    }
    io = f->WritevAt(start, iov);
    if (io.ok()) {
      io = f->Sync();
      ++group_fsyncs;
    }
    i = j;
  }
  if (io.ok() && !new_files.empty()) {
    io = PosixFile::SyncDir(dir_);
    ++group_fsyncs;
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Placement& p : where) {
      auto it = files_.find(p.file);
      if (it != files_.end() && it->second.pending_io > 0) {
        --it->second.pending_io;
      }
    }
    if (!io.ok()) {
      NoteIoError(io);
    } else {
      for (size_t k = 0; k < group.size(); ++k) {
        ApplyRecord(group[k].header, where[k].file, where[k].payload_pos);
      }
      durable_ticket_ = last_ticket;
      ++stats_.flush_groups;
      stats_.fsyncs += group_fsyncs;
      stats_.bytes_flushed += group_bytes;
      stats_.records_flushed += group.size();
    }
  }
  durable_cv_.notify_all();
}

// ---------------------------------------------------------------------- GC

uint64_t SegmentLog::MaybeGc() {
  std::unique_lock<std::mutex> lock(mu_);
  return GcLocked(lock);
}

uint64_t SegmentLog::GcLocked(std::unique_lock<std::mutex>& lock) {
  if (options_.gc_live_ratio <= 0 || !error_.ok()) return 0;

  // Victim: the non-active, non-cold, IO-quiet file with the lowest live
  // ratio below the threshold.
  uint32_t victim = 0;
  double victim_ratio = 1.0;
  for (const auto& [id, f] : files_) {
    if (id == active_file_ || id == cold_file_) continue;
    if (f.pending_io > 0 || f.size == 0) continue;
    uint64_t dead = std::min(f.dead_bytes, f.size);
    double ratio = double(f.size - dead) / double(f.size);
    if (ratio < options_.gc_live_ratio && ratio <= victim_ratio) {
      victim = id;
      victim_ratio = ratio;
    }
  }
  if (victim == 0) return 0;
  uint64_t reclaimed = files_[victim].size;

  // Relocation plan: every live copy with records in the victim gets its
  // full metadata rewritten (open/truncate/seal — idempotent on rebuild,
  // and the victim may hold the only durable instance) plus every payload
  // extent that physically lives there. Relocated data has survived at
  // least one collection — it is cold, and goes to the dedicated cold
  // file, away from the hot append head (hot-cold separation keeps write
  // amplification down: hot files die almost entirely on their own).
  struct Relocation {
    RecordHeader header;
    std::vector<std::byte> payload;
    uint64_t extent_offset = 0;  // segment offset (kAppend only)
    CopyKey key;
  };
  std::vector<Relocation> plan;
  std::set<CopyKey> keys = files_[victim].keys;
  for (const CopyKey& key : keys) {
    auto cit = copies_.find(key);
    if (cit == copies_.end()) continue;
    Copy& c = cit->second;
    Relocation open;
    open.key = key;
    open.header.type = RecordType::kOpen;
    open.header.primary = key.primary;
    open.header.vlog = key.vlog;
    open.header.vseg = key.vseg;
    plan.push_back(open);
    if (c.truncate_size != UINT64_MAX) {
      Relocation t = open;
      t.header.type = RecordType::kTruncate;
      t.header.offset = c.truncate_size;
      t.header.chunk_count = c.truncate_chunks;
      t.header.crc_after = c.truncate_crc;
      plan.push_back(t);
    }
    if (c.sealed) {
      Relocation s = open;
      s.header.type = RecordType::kSeal;
      s.header.offset = c.seal_size;
      s.header.chunk_count = c.seal_chunks;
      s.header.crc_after = c.seal_crc;
      plan.push_back(s);
    }
    for (const auto& [off, e] : c.extents) {
      if (e.file != victim) continue;
      Relocation a;
      a.key = key;
      a.extent_offset = off;
      a.header.type = RecordType::kAppend;
      a.header.primary = key.primary;
      a.header.vlog = key.vlog;
      a.header.vseg = key.vseg;
      a.header.offset = off;
      a.header.chunk_count = e.chunk_count;
      a.header.crc_after = e.crc_after;
      a.payload.resize(e.len);
      plan.push_back(std::move(a));
    }
  }

  // Read surviving extents out of the victim. IO under the lock: GC runs
  // on the flusher thread between groups; enqueues briefly block, reads of
  // other copies do not touch the victim once it is gone.
  {
    auto vf = PosixFile::Open(FilePathFor(victim), O_RDONLY);
    if (!vf.ok()) {
      NoteIoError(vf.status());
      return 0;
    }
    for (Relocation& r : plan) {
      if (r.header.type != RecordType::kAppend) continue;
      const Extent& e = copies_[r.key].extents[r.extent_offset];
      Status s = vf->ReadAt(e.pos, r.payload);
      if (!s.ok()) {
        NoteIoError(s);
        return 0;
      }
      if (Crc32c(r.payload.data(), r.payload.size()) != e.payload_crc) {
        // The only durable instance of this extent is damaged; collecting
        // the file would turn latent corruption into data loss. Leave the
        // file alone — reads will report kCorruption with the evidence
        // intact.
        KERA_ERROR("segment log %s: GC aborted, extent CRC mismatch in %s",
                   dir_.c_str(), FilePathFor(victim).c_str());
        return 0;
      }
      r.header.payload_len = uint32_t(r.payload.size());
      r.header.payload_crc = e.payload_crc;
    }
  }

  // Write the relocations into the cold file (rolling it when full), fsync,
  // and only then drop the victim — a crash in between leaves idempotent
  // duplicates, never a gap.
  bool made_cold_file = false;
  std::vector<std::pair<uint32_t, std::pair<uint64_t, uint64_t>>> placed;
  placed.reserve(plan.size());  // (file, (payload_pos, rec_size))
  PosixFile cold_handle;
  uint32_t open_cold = 0;
  std::array<std::byte, kRecordHeaderSize> hdr;
  for (Relocation& r : plan) {
    uint64_t rec_size = kRecordHeaderSize + r.payload.size();
    if (cold_file_ == 0 ||
        files_[cold_file_].size + rec_size > options_.log_file_bytes) {
      cold_file_ = next_file_id_++;
      files_[cold_file_];
      made_cold_file = true;
    }
    if (open_cold != cold_file_) {
      auto f = PosixFile::Open(FilePathFor(cold_file_), O_RDWR | O_CREAT);
      if (!f.ok()) {
        NoteIoError(f.status());
        return 0;
      }
      if (open_cold != 0) {
        Status s = cold_handle.Sync();
        if (!s.ok()) {
          NoteIoError(s);
          return 0;
        }
        ++stats_.fsyncs;
      }
      cold_handle = std::move(*f);
      open_cold = cold_file_;
    }
    LogFile& cf = files_[cold_file_];
    uint64_t start = cf.size;
    EncodeRecordHeader(r.header, hdr.data());
    Status s = cold_handle.WriteAt(start, hdr);
    if (s.ok() && !r.payload.empty()) {
      s = cold_handle.WriteAt(start + kRecordHeaderSize, r.payload);
    }
    if (!s.ok()) {
      NoteIoError(s);
      return 0;
    }
    placed.push_back({cold_file_, {start + kRecordHeaderSize, rec_size}});
    cf.size += rec_size;
  }
  if (open_cold != 0) {
    Status s = cold_handle.Sync();
    if (!s.ok()) {
      NoteIoError(s);
      return 0;
    }
    ++stats_.fsyncs;
  }
  if (made_cold_file) {
    Status s = PosixFile::SyncDir(dir_);
    if (!s.ok()) {
      NoteIoError(s);
      return 0;
    }
    ++stats_.fsyncs;
  }

  // Point the copy map at the relocated records and drop the victim.
  for (size_t i = 0; i < plan.size(); ++i) {
    const Relocation& r = plan[i];
    auto cit = copies_.find(r.key);
    if (cit == copies_.end()) continue;
    Copy& c = cit->second;
    c.record_bytes[placed[i].first] += placed[i].second.second;
    files_[placed[i].first].keys.insert(r.key);
    if (r.header.type == RecordType::kAppend) {
      Extent& e = c.extents[r.extent_offset];
      e.file = placed[i].first;
      e.pos = placed[i].second.first;
    }
  }
  for (const CopyKey& key : keys) {
    auto cit = copies_.find(key);
    if (cit != copies_.end()) cit->second.record_bytes.erase(victim);
  }
  files_.erase(victim);
  std::error_code ec;
  fs::remove(FilePathFor(victim), ec);
  Status s = PosixFile::SyncDir(dir_);
  if (!s.ok()) NoteIoError(s);
  ++stats_.fsyncs;
  ++stats_.gc_runs;
  stats_.gc_bytes_reclaimed += reclaimed;
  (void)lock;
  return reclaimed;
}

// -------------------------------------------------------------------- stats

SegmentLog::Stats SegmentLog::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s = stats_;
  s.log_files = files_.size();
  s.log_bytes = 0;
  for (const auto& [_, f] : files_) s.log_bytes += f.size;
  return s;
}

// ----------------------------------------------------- power-loss helpers

uint64_t SegmentLog::TotalLogBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (uint32_t id : ListLogFiles(dir)) {
    char name[32];
    std::snprintf(name, sizeof(name), "log-%08u.klog", unsigned(id));
    total += uint64_t(fs::file_size(dir + "/" + std::string(name), ec));
  }
  return total;
}

Status SegmentLog::TruncateLogsAt(const std::string& dir, uint64_t offset) {
  std::vector<uint32_t> ids = ListLogFiles(dir);
  uint64_t cum = 0;
  bool cutting = false;
  for (uint32_t id : ids) {
    char name[32];
    std::snprintf(name, sizeof(name), "log-%08u.klog", unsigned(id));
    std::string path = dir + "/" + std::string(name);
    std::error_code ec;
    uint64_t size = uint64_t(fs::file_size(path, ec));
    if (ec) {
      return Status(StatusCode::kInternal, "file_size " + path);
    }
    if (cutting) {
      fs::remove(path, ec);
      continue;
    }
    if (offset < cum + size) {
      auto f = PosixFile::Open(path, O_RDWR);
      if (!f.ok()) return f.status();
      KERA_RETURN_IF_ERROR(f->Truncate(offset - cum));
      cutting = true;
    }
    cum += size;
  }
  return OkStatus();
}

}  // namespace kera
