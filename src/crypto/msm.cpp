#include "src/crypto/msm.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/executor.h"
#include "src/common/status.h"

namespace votegral {

namespace {

// Signed width-w NAF digits of a scalar, least significant first. Digits are
// odd with |d| < 2^(w-1), and any w consecutive positions hold at most one
// nonzero digit, so an interleaved ladder pays ~256/(w+1) additions per term.
using NafDigits = std::array<int8_t, 256>;

// Computes the width-w NAF of `s` and returns the number of digit positions
// actually used (index of the highest nonzero digit, plus one). Scalars are
// canonical (< ℓ < 2^253); negative-digit corrections can carry at most a few
// bits past the top, so 256 positions always suffice for w <= 8.
size_t ComputeWnaf(const Scalar& s, int w, NafDigits& naf) {
  naf.fill(0);
  std::array<uint64_t, 5> k{};
  auto bytes = s.ToBytes();
  for (int i = 0; i < 4; ++i) {
    k[static_cast<size_t>(i)] = LoadLe64(bytes.data() + 8 * i);
  }
  const uint64_t window = uint64_t{1} << w;
  const uint64_t half = window >> 1;
  size_t used = 0;
  for (size_t pos = 0; pos < 256; ++pos) {
    if ((k[0] | k[1] | k[2] | k[3] | k[4]) == 0) {
      break;
    }
    if (k[0] & 1) {
      uint64_t d = k[0] & (window - 1);
      if (d < half) {
        naf[pos] = static_cast<int8_t>(d);
        k[0] -= d;  // low w bits of k equal d: no borrow
      } else {
        naf[pos] = static_cast<int8_t>(static_cast<int64_t>(d) -
                                       static_cast<int64_t>(window));
        uint64_t carry = window - d;  // k += 2^w - d
        for (size_t i = 0; i < 5 && carry != 0; ++i) {
          uint64_t prev = k[i];
          k[i] += carry;
          carry = (k[i] < prev) ? 1 : 0;
        }
      }
      used = pos + 1;
    }
    for (size_t i = 0; i < 4; ++i) {
      k[i] = (k[i] >> 1) | (k[i + 1] << 63);
    }
    k[4] >>= 1;
  }
  return used;
}

// Odd multiples P, 3P, 5P, ..., (2*Count - 1)P.
template <size_t Count>
std::array<RistrettoPoint, Count> OddMultiples(const RistrettoPoint& p) {
  std::array<RistrettoPoint, Count> table;
  table[0] = p;
  const RistrettoPoint p2 = p.Double();
  for (size_t i = 1; i < Count; ++i) {
    table[i] = table[i - 1] + p2;
  }
  return table;
}

// The per-point Straus table: odd multiples P, 3P, ..., 15P.
using OddTable = std::array<RistrettoPoint, 8>;

// Fills `tables` with pointers to odd-multiple tables for every point whose
// slot is still null, building them into `storage` (sized here, before any
// pointer into it is taken, so the pointers stay stable).
void BuildMissingTables(std::span<const RistrettoPoint> points,
                        std::vector<const OddTable*>& tables,
                        std::vector<OddTable>& storage) {
  std::vector<size_t> missing;
  for (size_t i = 0; i < tables.size(); ++i) {
    if (tables[i] == nullptr) {
      missing.push_back(i);
    }
  }
  storage.resize(missing.size());
  for (size_t j = 0; j < missing.size(); ++j) {
    storage[j] = OddMultiples<8>(points[missing[j]]);
    tables[missing[j]] = &storage[j];
  }
}

// Precomputed odd multiples of the basepoint for the width-8 fixed-base NAF:
// B, 3B, ..., 127B. Built once per process.
const std::array<RistrettoPoint, 64>& BaseOddMultiples() {
  static const std::array<RistrettoPoint, 64> kTable =
      OddMultiples<64>(RistrettoPoint::Base());
  return kTable;
}

// Adds the digit contribution d * (table of odd multiples) into `acc`.
template <size_t Count>
void AddNafDigit(RistrettoPoint& acc, const std::array<RistrettoPoint, Count>& table,
                 int8_t d) {
  if (d > 0) {
    acc = acc + table[static_cast<size_t>(d >> 1)];
  } else if (d < 0) {
    acc = acc - table[static_cast<size_t>((-d) >> 1)];
  }
}

// Straus interleaved ladder over prebuilt odd-multiple tables: one shared
// doubling chain, width-5 wNAF per variable point, width-8 wNAF for the
// optional fixed-base term.
RistrettoPoint StrausLadder(const Scalar* base_scalar, std::span<const Scalar> scalars,
                            std::span<const OddTable* const> tables) {
  const size_t n = scalars.size();
  std::vector<NafDigits> nafs(n);
  size_t height = 0;
  for (size_t i = 0; i < n; ++i) {
    height = std::max(height, ComputeWnaf(scalars[i], 5, nafs[i]));
  }
  NafDigits base_naf{};
  if (base_scalar != nullptr) {
    height = std::max(height, ComputeWnaf(*base_scalar, 8, base_naf));
  }

  RistrettoPoint acc;  // identity
  for (size_t pos = height; pos-- > 0;) {
    acc = acc.Double();
    for (size_t i = 0; i < n; ++i) {
      AddNafDigit(acc, *tables[i], nafs[i][pos]);
    }
    if (base_scalar != nullptr) {
      AddNafDigit(acc, BaseOddMultiples(), base_naf[pos]);
    }
  }
  return acc;
}

RistrettoPoint StrausMsm(const Scalar* base_scalar, std::span<const Scalar> scalars,
                         std::span<const RistrettoPoint> points) {
  std::vector<const OddTable*> tables(points.size(), nullptr);
  std::vector<OddTable> storage;
  BuildMissingTables(points, tables, storage);
  return StrausLadder(base_scalar, scalars, tables);
}

// Window width for Pippenger as a function of term count; roughly log2(n),
// chosen to minimize ceil(253/w)*(n + 2^w) with signed digits (which halve
// the bucket count relative to unsigned radix-2^w).
int PippengerWindow(size_t n) {
  if (n < 400) return 6;
  if (n < 900) return 7;
  if (n < 2500) return 8;
  if (n < 10000) return 9;
  if (n < 40000) return 10;
  if (n < 150000) return 11;
  return 12;
}

// Reads the w-bit window starting at `bit` from a 32-byte little-endian
// scalar encoding (w <= 12, so at most three bytes contribute). Windows
// beyond bit 255 read as zero.
uint32_t ExtractWindow(const std::array<uint8_t, 32>& bytes, size_t bit, int w) {
  if (bit >= 256) {
    return 0;
  }
  size_t byte = bit / 8;
  int shift = static_cast<int>(bit % 8);
  uint32_t v = static_cast<uint32_t>(bytes[byte]) >> shift;
  int got = 8 - shift;
  for (size_t k = byte + 1; got < w && k < 32; ++k, got += 8) {
    v |= static_cast<uint32_t>(bytes[k]) << got;
  }
  return v & ((uint32_t{1} << w) - 1);
}

// One window's bucket pass of Pippenger with *signed* radix-2^w digits
// (signed recoding halves the bucket count; negative digits contribute the
// negated point — negation is two field negations, essentially free). Terms
// are sorted into buckets by |digit| with one addition per term, then the
// buckets collapse with the running-suffix trick:
//   sum_d d * bucket[d] = sum over suffixes of (bucket[max] + ... + bucket[d]),
// i.e. two additions per bucket instead of a multiplication per bucket.
// Returns whether any digit was nonzero.
bool PippengerWindowPass(std::span<const RistrettoPoint> points,
                         std::span<const int16_t> digits, size_t win, size_t nwindows,
                         size_t nbuckets, RistrettoPoint* window_total) {
  const size_t n = points.size();
  std::vector<RistrettoPoint> buckets(nbuckets);
  bool any = false;
  for (size_t i = 0; i < n; ++i) {
    int16_t digit = digits[i * nwindows + win];
    if (digit == 0) {
      continue;
    }
    RistrettoPoint& bucket = buckets[static_cast<size_t>(digit > 0 ? digit : -digit) - 1];
    bucket = bucket + (digit > 0 ? points[i] : -points[i]);
    any = true;
  }
  *window_total = RistrettoPoint::Identity();
  if (any) {
    RistrettoPoint running;  // bucket suffix sum
    for (size_t b = nbuckets; b-- > 0;) {
      running = running + buckets[b];
      *window_total = *window_total + running;
    }
  }
  return any;
}

RistrettoPoint PippengerMsm(std::span<const Scalar> scalars,
                            std::span<const RistrettoPoint> points) {
  const size_t n = scalars.size();
  const int w = PippengerWindow(n);
  const size_t nbuckets = size_t{1} << (w - 1);
  // One extra window absorbs the recoding carry out of the top bits.
  const size_t nwindows = (256 + static_cast<size_t>(w) - 1) / static_cast<size_t>(w) + 1;
  // Scope-bound executor: inherits the caller's pool (or its serial
  // Executor(1)) instead of unconditionally waking the global one.
  Executor& executor = Executor::Current();

  // Signed-digit recoding, all scalars up front (cache-friendly window pass).
  std::vector<int16_t> digits(n * nwindows);
  const int32_t half = int32_t{1} << (w - 1);
  const int32_t full = int32_t{1} << w;
  executor.ParallelForEach(n, [&](size_t i) {
    auto bytes = scalars[i].ToBytes();
    int32_t carry = 0;
    for (size_t win = 0; win < nwindows; ++win) {
      int32_t d = static_cast<int32_t>(ExtractWindow(
                      bytes, win * static_cast<size_t>(w), w)) +
                  carry;
      if (d > half) {
        d -= full;
        carry = 1;
      } else {
        carry = 0;
      }
      digits[i * nwindows + win] = static_cast<int16_t>(d);
    }
    // Canonical scalars are < 2^253 < 2^(w*(nwindows-1)), so the recoding
    // carry always terminates inside the extra window.
  });

  // Window bucket passes are mutually independent: run them on the pool,
  // one per-window total each, then fold the totals with the shared doubling
  // chain. The fold costs ~256 doublings regardless of n, so all the O(n)
  // work parallelizes. Group addition is exact, and each window keeps the
  // seed's term order, so the result is bit-identical at any thread count.
  std::vector<RistrettoPoint> window_totals(nwindows);
  std::vector<uint8_t> window_any(nwindows, 0);
  executor.ParallelForEach(nwindows, [&](size_t win) {
    window_any[win] = PippengerWindowPass(points, digits, win, nwindows, nbuckets,
                                          &window_totals[win])
                          ? 1
                          : 0;
  });

  RistrettoPoint acc;  // identity
  bool started = false;
  for (size_t win = nwindows; win-- > 0;) {
    if (started) {
      for (int d = 0; d < w; ++d) {
        acc = acc.Double();
      }
    }
    if (window_any[win]) {
      acc = acc + window_totals[win];
      started = true;
    }
  }
  return acc;
}

// --- Shared-base support -----------------------------------------------------

std::atomic<uint64_t> g_collapsed_terms{0};
std::atomic<uint64_t> g_table_hits{0};
std::atomic<uint64_t> g_table_misses{0};
std::atomic<uint64_t> g_table_evictions{0};

// Mutex-guarded LRU of odd-multiple tables keyed by wire bytes. Lookups and
// insertions take the lock; the 7-addition table build happens outside it.
// Entries are handed out as shared_ptr so an eviction never invalidates a
// table an in-flight MSM still walks.
class FixedBaseTableCache {
 public:
  std::shared_ptr<const OddTable> Find(const CompressedRistretto& key) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it == map_.end()) {
      return nullptr;
    }
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->second;
  }

  // Inserts `table` for `key` unless a concurrent builder won the race, in
  // which case the already-cached table is returned (both are tables of the
  // same point, but returning one canonical winner keeps behavior tidy).
  std::shared_ptr<const OddTable> Insert(const CompressedRistretto& key,
                                         std::shared_ptr<const OddTable> table) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it != map_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      return it->second->second;
    }
    lru_.emplace_front(key, std::move(table));
    map_[key] = lru_.begin();
    if (lru_.size() > kFixedBaseTableCacheCapacity) {
      map_.erase(lru_.back().first);
      lru_.pop_back();
      g_table_evictions.fetch_add(1, std::memory_order_relaxed);
    }
    return lru_.front().second;
  }

  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    map_.clear();
    lru_.clear();
  }

 private:
  std::mutex mu_;
  std::list<std::pair<CompressedRistretto, std::shared_ptr<const OddTable>>> lru_;
  std::unordered_map<CompressedRistretto, decltype(lru_)::iterator, CompressedRistrettoHash> map_;
};

FixedBaseTableCache& TableCache() {
  static FixedBaseTableCache* cache = new FixedBaseTableCache();
  return *cache;
}

}  // namespace

RistrettoPoint MultiScalarMulShared(const Scalar& base_scalar,
                                    std::span<const Scalar> scalars,
                                    std::span<const RistrettoPoint> points,
                                    std::span<const CompressedRistretto> keys,
                                    std::span<const uint8_t> key_present) {
  const size_t n = scalars.size();
  Require(points.size() == n && keys.size() == n && key_present.size() == n,
          "msm: shared batch size mismatch");

  // Collapse pass: first-seen order, scalar sums for repeated keys, basepoint
  // terms folded into the fixed-base coefficient.
  Scalar base_acc = base_scalar;
  std::vector<Scalar> term_scalars;
  std::vector<RistrettoPoint> term_points;
  std::vector<const CompressedRistretto*> term_keys;  // nullptr for unkeyed terms
  std::vector<uint32_t> term_uses;                    // key occurrence count per term
  term_scalars.reserve(n);
  term_points.reserve(n);
  term_keys.reserve(n);
  term_uses.reserve(n);
  std::unordered_map<CompressedRistretto, size_t, CompressedRistrettoHash> first_seen;
  const CompressedRistretto& base_wire = RistrettoPoint::BaseWire();
  uint64_t collapsed = 0;
  for (size_t i = 0; i < n; ++i) {
    if (key_present[i]) {
      if (keys[i] == base_wire) {
        base_acc = base_acc + scalars[i];
        ++collapsed;
        continue;
      }
      auto [it, inserted] = first_seen.try_emplace(keys[i], term_scalars.size());
      if (!inserted) {
        term_scalars[it->second] = term_scalars[it->second] + scalars[i];
        ++term_uses[it->second];
        ++collapsed;
        continue;
      }
      term_keys.push_back(&keys[i]);
    } else {
      term_keys.push_back(nullptr);
    }
    term_scalars.push_back(scalars[i]);
    term_points.push_back(points[i]);
    term_uses.push_back(1);
  }
  if (collapsed != 0) {
    g_collapsed_terms.fetch_add(collapsed, std::memory_order_relaxed);
  }

  const size_t m = term_scalars.size();
  if (m >= kPippengerThreshold) {
    // Bucket accumulation has no per-term tables to reuse; the collapse above
    // already shrank n, which is the whole win at this scale.
    return PippengerMsm(term_scalars, term_points) + RistrettoPoint::MulBase(base_acc);
  }

  // Straus regime: recurring keyed terms resolve their odd-multiple tables
  // through the process-wide cache; everything else builds throwaway tables
  // four at a time. "Recurring" means the key appeared more than once in this
  // batch (or is already cached) — one-shot keyed terms such as proof
  // commitments would only churn the LRU.
  std::vector<std::shared_ptr<const OddTable>> held(m);
  std::vector<const OddTable*> tables(m, nullptr);
  for (size_t i = 0; i < m; ++i) {
    if (term_keys[i] == nullptr) {
      continue;
    }
    if (term_uses[i] < 2) {
      held[i] = TableCache().Find(*term_keys[i]);
      if (held[i] != nullptr) {
        g_table_hits.fetch_add(1, std::memory_order_relaxed);
        tables[i] = held[i].get();
      }
      continue;
    }
    held[i] = TableCache().Find(*term_keys[i]);
    if (held[i] == nullptr) {
      held[i] = TableCache().Insert(
          *term_keys[i], std::make_shared<OddTable>(OddMultiples<8>(term_points[i])));
      g_table_misses.fetch_add(1, std::memory_order_relaxed);
    } else {
      g_table_hits.fetch_add(1, std::memory_order_relaxed);
    }
    tables[i] = held[i].get();
  }
  std::vector<OddTable> storage;
  BuildMissingTables(term_points, tables, storage);
  return StrausLadder(&base_acc, term_scalars, tables);
}

MsmSharedStats SharedMsmStats() {
  MsmSharedStats stats;
  stats.collapsed_terms = g_collapsed_terms.load(std::memory_order_relaxed);
  stats.table_hits = g_table_hits.load(std::memory_order_relaxed);
  stats.table_misses = g_table_misses.load(std::memory_order_relaxed);
  stats.table_evictions = g_table_evictions.load(std::memory_order_relaxed);
  return stats;
}

void ResetSharedMsmForTest() {
  TableCache().Clear();
  g_collapsed_terms.store(0, std::memory_order_relaxed);
  g_table_hits.store(0, std::memory_order_relaxed);
  g_table_misses.store(0, std::memory_order_relaxed);
  g_table_evictions.store(0, std::memory_order_relaxed);
}

RistrettoPoint MultiScalarMul(std::span<const Scalar> scalars,
                              std::span<const RistrettoPoint> points) {
  Require(scalars.size() == points.size(), "msm: scalar/point count mismatch");
  if (scalars.empty()) {
    return RistrettoPoint::Identity();
  }
  if (scalars.size() < kPippengerThreshold) {
    return StrausMsm(nullptr, scalars, points);
  }
  return PippengerMsm(scalars, points);
}

RistrettoPoint MultiScalarMulWithBase(const Scalar& base_scalar,
                                      std::span<const Scalar> scalars,
                                      std::span<const RistrettoPoint> points) {
  Require(scalars.size() == points.size(), "msm: scalar/point count mismatch");
  if (scalars.size() < kPippengerThreshold) {
    return StrausMsm(&base_scalar, scalars, points);
  }
  // At Pippenger scale the fixed-base term is one of thousands; the
  // precomputed-table MulBase (64 additions) is cheaper than widening the
  // bucket pass by one term.
  return PippengerMsm(scalars, points) + RistrettoPoint::MulBase(base_scalar);
}

RistrettoPoint MultiScalarMulNaive(std::span<const Scalar> scalars,
                                   std::span<const RistrettoPoint> points) {
  Require(scalars.size() == points.size(), "msm: scalar/point count mismatch");
  RistrettoPoint acc;
  for (size_t i = 0; i < scalars.size(); ++i) {
    acc = acc + scalars[i] * points[i];
  }
  return acc;
}

// Defined here rather than in ristretto.cpp so the Schnorr verification
// workhorse rides the shared-doubling ladder with the wide fixed-base table.
RistrettoPoint RistrettoPoint::DoubleScalarMulBase(const Scalar& a, const RistrettoPoint& p,
                                                   const Scalar& b) {
  return MultiScalarMulWithBase(b, std::span<const Scalar>(&a, 1),
                                std::span<const RistrettoPoint>(&p, 1));
}

}  // namespace votegral
