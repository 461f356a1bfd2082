// Multi-scalar multiplication (MSM): sum_i s_i * P_i in one pass.
//
// Every verification equation in the stack — batched Schnorr, batched DLEQ,
// RPC mixnet link checks, decryption-share checks — is a random linear
// combination that must equal a known point. Evaluating it as n independent
// `operator*` calls costs n * (252 doublings + window additions); an MSM
// shares the doublings across all terms (Straus) or amortizes additions into
// buckets (Pippenger), making the per-term cost drop toward a handful of
// additions as n grows. This is the amortization that turns the linear-time
// tally of Fig. 5b into a *fast* linear-time tally.
//
// All entry points act on public data (signatures, proofs, transcripts),
// never on secrets. Secret-dependent multiplications use the single-scalar
// paths in ristretto.h (operator*, MulBase, PrecomputedBase::Mul); those are
// variable-time as well today (fe25519.h; constant-time selection is an
// open ROADMAP item).
#ifndef SRC_CRYPTO_MSM_H_
#define SRC_CRYPTO_MSM_H_

#include <span>

#include "src/crypto/ristretto.h"
#include "src/crypto/scalar.h"

namespace votegral {

// Computes sum_i scalars[i] * points[i]. Dispatches on n:
//   n == 0        -> identity,
//   n <  kPippengerThreshold -> Straus interleaved width-5 wNAF windows with
//                    shared doublings,
//   n >= kPippengerThreshold -> Pippenger bucket accumulation with window
//                    size ~log2(n) and the running-suffix bucket sum.
// Throws ProtocolError when the spans disagree in length (API misuse, per
// the repository Status convention).
RistrettoPoint MultiScalarMul(std::span<const Scalar> scalars,
                              std::span<const RistrettoPoint> points);

// Computes base_scalar * B + sum_i scalars[i] * points[i], merging the
// fixed-base term into the shared-doubling loop via a precomputed width-8
// wNAF table of odd basepoint multiples (the fixed base gets the widest
// window because its table is built once per process).
RistrettoPoint MultiScalarMulWithBase(const Scalar& base_scalar,
                                      std::span<const Scalar> scalars,
                                      std::span<const RistrettoPoint> points);

// Term-by-term reference evaluation (n independent `operator*` calls plus
// n additions). Kept as the differential-testing and benchmarking baseline —
// this is exactly the seed's per-entry accumulation pattern.
RistrettoPoint MultiScalarMulNaive(std::span<const Scalar> scalars,
                                   std::span<const RistrettoPoint> points);

// --- Shared-base MSM --------------------------------------------------------
//
// Verification batches repeat base points heavily: every Schnorr entry under
// the same authority key contributes a term on that key, every DLEQ pair on
// the ElGamal public key repeats it, and the group generator appears in all
// of them. Because the group has prime order, w1*P + w2*P == (w1+w2)*P, so
// repeated terms can be summed in scalar space — O(1) field additions —
// before any group work happens.
//
// Repetition is detected by *wire bytes*, not by group comparison: keys[i]
// must be the canonical encoding of points[i] whenever key_present[i] is
// nonzero. Callers always have these bytes at hand (they just decoded the
// points from them, or they carry validated wire caches); an equal-encoding
// pair is equal in the group by canonicality. Keys are trusted the same way
// the decoded points are — a wrong key merges the wrong terms, which is the
// caller handing the MSM a different equation, not a soundness leak in here.
//
// Entries whose key equals RistrettoPoint::BaseWire() fold into
// `base_scalar` and ride the width-8 fixed-base table. Other repeated keys
// collapse into the first occurrence (deterministic first-seen order). In
// the Straus regime, collapsed keyed terms additionally fetch their
// odd-multiple tables from a process-wide LRU cache keyed by the same wire
// bytes, so a verifier that batches per producer pays each table once per
// election, not once per batch.
RistrettoPoint MultiScalarMulShared(const Scalar& base_scalar,
                                    std::span<const Scalar> scalars,
                                    std::span<const RistrettoPoint> points,
                                    std::span<const CompressedRistretto> keys,
                                    std::span<const uint8_t> key_present);

// Counters for the collapse and the table cache (process-wide, relaxed
// atomics; read after the measured region joins).
struct MsmSharedStats {
  uint64_t collapsed_terms = 0;   // input terms merged into an earlier term or the base
  uint64_t table_hits = 0;        // Straus tables served from the cache
  uint64_t table_misses = 0;      // Straus tables built and inserted
  uint64_t table_evictions = 0;   // LRU evictions (capacity kFixedBaseTableCacheCapacity)
};
MsmSharedStats SharedMsmStats();

// Clears the table cache and zeroes the counters (test/bench isolation).
void ResetSharedMsmForTest();

// LRU capacity of the shared-base table cache, in tables (each table holds
// the 8 odd multiples P, 3P, ..., 15P — 1 KiB of points). Sized for the
// distinct recurring bases of one election: authority keys, per-authority
// share commitments, tagging bases.
inline constexpr size_t kFixedBaseTableCacheCapacity = 256;

// Below this size Straus wins (per-point table setup amortizes poorly into
// Pippenger buckets); at and above it Pippenger wins. Exposed for benches.
inline constexpr size_t kPippengerThreshold = 192;

}  // namespace votegral

#endif  // SRC_CRYPTO_MSM_H_
