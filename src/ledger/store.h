// Pluggable storage backends for the append-only ledger.
//
// A LedgerStore persists fully-hashed ledger entries as a sequence of
// fixed-capacity *segments* (segment s covers entry indices
// [s·segment_entries, (s+1)·segment_entries)); all but the last segment are
// *sealed* (immutable, at capacity). Readers never poke entries one index at
// a time: they Pin() a segment — which materializes at most one segment's
// raw bytes — and read zero-copy LedgerEntryView spans out of it. The
// LedgerCursor/TopicCursor wrappers (src/ledger/cursor.h) drive that pin
// lifecycle for forward scans and seeks.
//
// Two backends:
//  * InMemoryLedgerStore — entries in a deque (stable addresses); Pin() is a
//    view, no copies. The seed's std::vector ledger, behind the new API.
//  * FileLedgerStore — one file per segment under a directory, each entry a
//    length-prefixed frame carrying (index, topic, payload, prev_hash,
//    entry_hash). Appends write through; sealed segments are dropped from
//    memory and re-read on Pin(), so resident payload memory is O(segment),
//    not O(ledger). Frames are flushed as they append; a completed segment
//    is sealed by rewriting it (sealed header flag set) to a temp file and
//    atomically renaming it over the live one. Open() recovers crash-safely:
//    a torn frame at the tail of the *last* segment is truncated away, a
//    torn seal (stray temp file, full-but-unsealed tail) is repaired; any
//    damage to a sealed segment (bit flip, short file, missing file) is
//    reported as a localized, named failure instead of being silently
//    dropped. The append and seal paths carry faults::kLedgerAppend /
//    faults::kLedgerSeal fault points for crash-recovery drills.
//
// Thread-safety contract: concurrent Pin()/read from any number of threads
// is safe; Append() must not run concurrently with reads (the protocol
// appends single-threaded and the tally/verify paths are read-only).
#ifndef SRC_LEDGER_STORE_H_
#define SRC_LEDGER_STORE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/outcome.h"
#include "src/common/status.h"
#include "src/ledger/merkle.h"

namespace votegral {

// One immutable ledger entry (owning form).
struct LedgerEntry {
  uint64_t index = 0;
  std::string topic;     // namespacing, e.g. "registration", "envelope", "ballot"
  Bytes payload;
  LedgerHash prev_hash;  // hash of the preceding entry (zero for the first)
  LedgerHash entry_hash; // H(index || topic || payload || prev_hash)
};

// Zero-copy view of one stored entry. Valid only while the PinnedSegment
// (or cursor) it came from is alive and unadvanced.
struct LedgerEntryView {
  uint64_t index = 0;
  std::string_view topic;
  std::span<const uint8_t> payload;
  LedgerHash prev_hash;
  LedgerHash entry_hash;

  LedgerEntry Materialize() const {
    return LedgerEntry{index, std::string(topic), Bytes(payload.begin(), payload.end()),
                       prev_hash, entry_hash};
  }
};

// Which backend a ledger (or the whole PublicLedger) lives on.
struct LedgerStorageConfig {
  enum class Backend { kMemory, kFile };
  Backend backend = Backend::kMemory;
  // File backend: root directory (PublicLedger appends one subdirectory per
  // sub-log). Created if absent.
  std::string directory;
  // Entries per sealed segment; also the pin/chunk granularity of the
  // in-memory backend. Must be a power of two so sealed segments stay
  // aligned with complete Merkle subtrees.
  size_t segment_entries = 1024;

  // Storage for one named sub-log of a compound ledger: same backend, with
  // the file backend nested into a subdirectory.
  LedgerStorageConfig ForSubLog(const char* name) const;
};

// One segment's entries, pinned into memory (or viewed in place). Cheap to
// move; releasing the last copy releases the backing buffer (and the
// file backend's pinned-byte accounting).
class PinnedSegment {
 public:
  PinnedSegment() = default;

  bool valid() const { return count_ > 0; }
  uint64_t first_index() const { return first_index_; }
  size_t count() const { return count_; }
  bool Contains(uint64_t index) const {
    return valid() && index >= first_index_ && index < first_index_ + count_;
  }

  // View of the entry at *absolute* ledger index `index` (must be inside
  // this segment).
  const LedgerEntryView& View(uint64_t index) const {
    Require(Contains(index), "PinnedSegment: index outside pinned segment");
    return views_[index - first_index_];
  }

 private:
  friend class InMemoryLedgerStore;
  friend class FileLedgerStore;

  uint64_t first_index_ = 0;
  size_t count_ = 0;
  std::vector<LedgerEntryView> views_;
  std::shared_ptr<const void> backing_;  // keeps the buffer (if any) alive
};

// Abstract storage backend. Stores raw, fully-hashed entries; hashing,
// Merkle commitments and topic indices are the Ledger facade's job.
class LedgerStore {
 public:
  virtual ~LedgerStore() = default;

  // Appends one entry; entry.index must equal Size(). Returns the index.
  virtual uint64_t Append(const LedgerEntry& entry) = 0;

  virtual uint64_t Size() const = 0;
  virtual size_t SegmentEntries() const = 0;

  // Number of segments currently holding entries (sealed + active).
  uint64_t SegmentCount() const {
    return (Size() + SegmentEntries() - 1) / SegmentEntries();
  }
  uint64_t SegmentOf(uint64_t index) const { return index / SegmentEntries(); }

  // Pins segment `segment` (< SegmentCount()) for reading. Thread-safe for
  // concurrent readers.
  PinnedSegment Pin(uint64_t segment) const {
    const uint64_t first = segment * SegmentEntries();
    return PinRange(first, std::min<uint64_t>(first + SegmentEntries(), Size()));
  }

  // Pins only entries [begin, end), which must be non-empty and lie inside
  // one segment — a one-record lookup materializes one entry, not its whole
  // segment. Thread-safe for concurrent readers.
  virtual PinnedSegment PinRange(uint64_t begin, uint64_t end) const = 0;

  // Human-readable backend description ("memory", "file:<dir>").
  virtual std::string Describe() const = 0;

  // Test hook: overwrites a stored payload in place *without* recomputing
  // hashes, simulating a compromised replica. See Ledger::TamperWithPayloadForTest.
  virtual void TamperWithPayloadForTest(uint64_t index, Bytes payload) = 0;
};

// --- In-memory backend -------------------------------------------------------

class InMemoryLedgerStore final : public LedgerStore {
 public:
  explicit InMemoryLedgerStore(size_t segment_entries = 1024);

  uint64_t Append(const LedgerEntry& entry) override;
  uint64_t Size() const override { return entries_.size(); }
  size_t SegmentEntries() const override { return segment_entries_; }
  PinnedSegment PinRange(uint64_t begin, uint64_t end) const override;
  std::string Describe() const override { return "memory"; }
  void TamperWithPayloadForTest(uint64_t index, Bytes payload) override;

 private:
  size_t segment_entries_;
  std::deque<LedgerEntry> entries_;  // deque: addresses stable across appends
};

// --- File-backed segmented log ----------------------------------------------

class FileLedgerStore final : public LedgerStore {
 public:
  struct RecoveryStats {
    bool truncated_tail = false;  // a torn tail frame was cut off on open
    uint64_t dropped_bytes = 0;   // bytes removed by that truncation
    uint64_t recovered_entries = 0;
    // Crash-during-seal repairs: a leftover seg-*.log.tmp from an
    // interrupted atomic seal was discarded, and/or a full-but-unsealed
    // last segment (the seal never committed) was re-sealed on open.
    bool removed_seal_temp = false;
    bool resealed_tail = false;
  };

  // Opens (creating the directory if needed) and recovers the log: every
  // segment's frames are re-parsed, every entry hash and chain link
  // re-verified. Failures are localized ("segment 2 entry 17: ...").
  static Outcome<std::unique_ptr<FileLedgerStore>> Open(
      std::string directory, size_t segment_entries = 1024);

  uint64_t Append(const LedgerEntry& entry) override;
  uint64_t Size() const override { return size_; }
  size_t SegmentEntries() const override { return segment_entries_; }
  // Sealed ranges read exactly their frames' bytes (located through the
  // frame-offset index) — never the whole segment file.
  PinnedSegment PinRange(uint64_t begin, uint64_t end) const override;
  std::string Describe() const override { return "file:" + directory_; }
  void TamperWithPayloadForTest(uint64_t index, Bytes payload) override;

  const RecoveryStats& recovery_stats() const { return recovery_stats_; }

  // Peak bytes of segment buffers pinned simultaneously since open (a
  // range pin counts the bytes it read) — the "ledger-resident payload
  // memory" the streaming bench bounds against O(segment size).
  uint64_t PeakPinnedBytes() const { return peak_pinned_bytes_.load(); }

  // Path of segment `segment`'s file (tests corrupt/remove these).
  std::string SegmentPath(uint64_t segment) const;

 private:
  FileLedgerStore(std::string directory, size_t segment_entries);

  Status RecoverFromDisk();
  void OpenActiveStream();
  // Atomically seals the (full) active segment: writes the complete segment
  // image — sealed flag set — to `<path>.tmp`, flushes, then renames over
  // the live file. Carries the faults::kLedgerSeal fault point.
  void SealActiveSegment();
  // File offset where entry `index`'s frame begins.
  uint64_t FrameBegin(uint64_t index) const;

  std::string directory_;
  size_t segment_entries_;
  uint64_t size_ = 0;
  // Entries of the active (last, unsealed) segment; sealed segments live
  // only on disk.
  std::deque<LedgerEntry> active_;
  uint64_t active_first_ = 0;
  std::ofstream active_out_;
  RecoveryStats recovery_stats_;
  // Frame-offset index: frame_end_[i] is the byte offset just past entry
  // i's frame in its segment file (a frame starts at the segment header or
  // at the previous entry's end). Built at append and recovery time.
  std::vector<uint64_t> frame_end_;

  mutable std::atomic<uint64_t> pinned_bytes_{0};
  mutable std::atomic<uint64_t> peak_pinned_bytes_{0};
};

// Creates the backend named by `config` with no entries; for the file
// backend the directory must not already contain a log (recovering an
// existing one goes through FileLedgerStore::Open / Ledger::Open so the
// caller handles failures as values, not throws).
std::unique_ptr<LedgerStore> CreateFreshStore(const LedgerStorageConfig& config);

// The ledger's entry-hash rule, H(index || topic || payload || prev) — shared
// by the Ledger facade (append), file-store recovery and persistence import
// so every path recomputes the same commitment.
LedgerHash HashLedgerEntry(uint64_t index, std::string_view topic,
                           std::span<const uint8_t> payload, const LedgerHash& prev);

// Entry frame codec, shared between segment files and the persistence wire
// format (a serialized ledger is exactly an exported sequence of frames).
void AppendEntryFrame(Bytes* out, const LedgerEntry& entry);
void AppendEntryFrame(Bytes* out, const LedgerEntryView& view);
// Decodes one frame starting at `*offset`; advances `*offset` past it.
Outcome<LedgerEntry> DecodeEntryFrame(std::span<const uint8_t> bytes, size_t* offset);

// Smallest possible entry frame: u32 frame_len | u64 index | u32 topic_len |
// u32 payload_len | 32B prev_hash | 32B entry_hash (empty topic and payload).
// Decoders cap untrusted entry counts with it before reserving.
inline constexpr size_t kMinEntryFrameBytes = 4 + 8 + 4 + 4 + 32 + 32;

}  // namespace votegral

#endif  // SRC_LEDGER_STORE_H_
