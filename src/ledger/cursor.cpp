#include "src/ledger/cursor.h"

#include <algorithm>

namespace votegral {

LedgerCursor::LedgerCursor(const LedgerStore& store, uint64_t begin, uint64_t end)
    : store_(&store),
      begin_(begin),
      pos_(begin),
      end_(std::min<uint64_t>(end, store.Size())) {}

bool LedgerCursor::Next(LedgerEntryView* out) {
  if (pos_ >= end_) {
    return false;
  }
  if (!pin_.Contains(pos_)) {
    // Pin the cursor's whole range within this segment (Seek may revisit
    // any of it) and nothing outside it: a one-record cursor reads one
    // frame, a shard cursor its shard's slice.
    const uint64_t segment_first = store_->SegmentOf(pos_) * store_->SegmentEntries();
    pin_ = PinnedSegment();  // release before pinning: one segment resident
    pin_ = store_->PinRange(std::max(begin_, segment_first),
                            std::min(end_, segment_first + store_->SegmentEntries()));
  }
  *out = pin_.View(pos_);
  ++pos_;
  return true;
}

void LedgerCursor::Seek(uint64_t index) {
  // Clamp into the construction-time range at both ends: a consumer must
  // not be able to wander into another shard's entries.
  pos_ = std::min<uint64_t>(std::max<uint64_t>(index, begin_), end_);
}

TopicCursor::TopicCursor(const LedgerStore& store, std::span<const uint64_t> indices)
    : store_(&store), indices_(indices) {}

bool TopicCursor::Next(LedgerEntryView* out) {
  if (next_ >= indices_.size()) {
    return false;
  }
  uint64_t index = indices_[next_];
  Require(index < store_->Size(), "TopicCursor: topic index beyond store");
  if (!pin_.Contains(index)) {
    pin_ = PinnedSegment();  // release before pinning: one segment resident
    pin_ = store_->Pin(store_->SegmentOf(index));
  }
  *out = pin_.View(index);
  ++next_;
  return true;
}

}  // namespace votegral
