#include "src/core/change_log.h"

#include <algorithm>
#include <cassert>

namespace switchfs::core {

void ChangeLogEntry::EncodeTo(Encoder& enc) const {
  enc.PutU64(seq);
  enc.PutI64(timestamp);
  enc.PutU8(static_cast<uint8_t>(op));
  enc.PutString(name);
  enc.PutU8(static_cast<uint8_t>(entry_type));
  enc.PutI64(size_delta);
}

ChangeLogEntry ChangeLogEntry::DecodeFrom(Decoder& dec) {
  ChangeLogEntry e;
  e.seq = dec.GetU64();
  e.timestamp = dec.GetI64();
  e.op = static_cast<OpType>(dec.GetU8());
  e.name = dec.GetString();
  e.entry_type = static_cast<FileType>(dec.GetU8());
  e.size_delta = dec.GetI64();
  return e;
}

uint64_t ChangeLog::Append(ChangeLogEntry entry) {
  entry.seq = next_seq_++;
  max_timestamp_ = std::max(max_timestamp_, entry.timestamp);
  entries_.push_back(std::move(entry));
  return entries_.back().seq;
}

void ChangeLog::Restore(ChangeLogEntry entry) {
  assert(entries_.empty() || entries_.back().seq < entry.seq);
  max_timestamp_ = std::max(max_timestamp_, entry.timestamp);
  SkipPast(entry.seq);
  entries_.push_back(std::move(entry));
}

std::vector<uint64_t> ChangeLog::AckUpTo(uint64_t acked_seq) {
  std::vector<uint64_t> lsns;
  while (!entries_.empty() && entries_.front().seq <= acked_seq) {
    if (entries_.front().wal_lsn != 0) {
      lsns.push_back(entries_.front().wal_lsn);
    }
    entries_.pop_front();
  }
  return lsns;
}

size_t ChangeLog::DrainInto(ChangeLog& target) {
  assert(&target != this);  // self-drain would append forever
  const size_t moved = entries_.size();
  while (!entries_.empty()) {
    target.Append(std::move(entries_.front()));  // re-assigns the seq
    entries_.pop_front();
  }
  return moved;
}

int64_t ChangeLog::pending_size_delta() const {
  int64_t total = 0;
  for (const ChangeLogEntry& e : entries_) {
    total += e.size_delta;
  }
  return total;
}

}  // namespace switchfs::core
