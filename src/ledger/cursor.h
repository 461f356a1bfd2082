// Streaming access to a LedgerStore: the replacement for index-poke reads.
//
// A LedgerCursor walks entries [begin, end) in order, pinning one segment at
// a time; the views it hands out alias the pinned segment, so at most one
// segment's bytes are resident per cursor regardless of ledger size — and
// only the part of it inside the cursor's range, so a one-record cursor
// reads one frame. Seek() reuses the current pin when the target lands in
// the same segment, so mostly-clustered random access (e.g. the
// registration index) stays cheap.
//
// Contract (the tally pipeline's reproducibility depends on it):
//  * Views returned by Next() are valid until the next Next()/Seek() that
//    crosses a segment boundary, and never outlive the cursor.
//  * Iteration order is ledger order — identical for every backend and
//    thread count. Parallel consumers give each shard its own cursor over
//    its Executor::Shards range; cursors share nothing mutable.
//  * Cursors are read-only and must not be used concurrently with appends.
//
// TopicCursor walks only the entries of one topic, driven by the per-topic
// index the Ledger maintains at append time (no scanning).
#ifndef SRC_LEDGER_CURSOR_H_
#define SRC_LEDGER_CURSOR_H_

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "src/ledger/store.h"

namespace votegral {

class LedgerCursor {
 public:
  static constexpr uint64_t kEnd = std::numeric_limits<uint64_t>::max();

  // Cursor over entries [begin, min(end, store.Size())).
  explicit LedgerCursor(const LedgerStore& store, uint64_t begin = 0, uint64_t end = kEnd);

  // Reads the entry at the current position into `*out` and advances.
  // Returns false at the end of the range.
  bool Next(LedgerEntryView* out);

  // Repositions to `index`, clamped into the construction-time [begin, end)
  // range at both ends. The current segment pin is kept when `index` lands
  // inside it.
  void Seek(uint64_t index);

  // Index the next Next() will read.
  uint64_t position() const { return pos_; }
  uint64_t end() const { return end_; }

 private:
  const LedgerStore* store_;
  uint64_t begin_;
  uint64_t pos_;
  uint64_t end_;
  PinnedSegment pin_;
};

// Iterates the entries of one topic in append order. Built from the topic
// index, so it never visits (or pins) segments holding no matching entries.
class TopicCursor {
 public:
  TopicCursor(const LedgerStore& store, std::span<const uint64_t> indices);

  bool Next(LedgerEntryView* out);
  size_t remaining() const { return indices_.size() - next_; }

 private:
  const LedgerStore* store_;
  std::span<const uint64_t> indices_;
  size_t next_ = 0;
  PinnedSegment pin_;
};

}  // namespace votegral

#endif  // SRC_LEDGER_CURSOR_H_
