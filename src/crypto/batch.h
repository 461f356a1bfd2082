// Batch verification via random linear combination.
//
// The universal verifier checks thousands of Schnorr signatures and
// Chaum–Pedersen proofs per election. Both have linear verification
// equations, so n checks can be merged into one multi-term equation with
// random 128-bit weights: if any single check fails, the combined equation
// holds with probability at most 2^-128 (Schwartz–Zippel over Z_ℓ).
//
// Used wherever a whole section only needs an accept/reject verdict: the
// auditor's replay and the tally's own validate stage (ballot signatures)
// and release gate (decryption-share self-check). The per-item paths run
// only after a batch rejects, to pinpoint the failure.
#ifndef SRC_CRYPTO_BATCH_H_
#define SRC_CRYPTO_BATCH_H_

#include <array>
#include <span>
#include <string_view>
#include <vector>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/crypto/dleq.h"
#include "src/crypto/schnorr.h"

namespace votegral {

// 128-bit random-linear-combination weight (sufficient for 2^-128 soundness,
// half the scalar-multiplication cost of full-width weights). Shared by every
// batched check in the stack — one definition keeps the weight convention in
// sync. Stack-allocated: a weight is drawn per batch term, and a heap
// round-trip per weight showed up in the batch-verification profile.
inline Scalar RandomRlcWeight(Rng& rng) {
  std::array<uint8_t, 64> wide{};
  rng.Fill(std::span<uint8_t>(wide.data(), 16));
  return Scalar::FromBytesWide(wide);
}

// One Schnorr verification instance.
struct SchnorrBatchEntry {
  CompressedRistretto public_key{};
  Bytes message;
  SchnorrSignature signature;
};

// Verifies all entries at once. Empty batches verify trivially. On failure
// the batch only reports *that* something failed; callers fall back to the
// per-item path to locate it.
Status BatchVerifySchnorr(std::span<const SchnorrBatchEntry> entries, Rng& rng);

// Deterministic weight seed for reproducible BatchVerifySchnorr calls: hashes
// `domain` and, per entry, enc(P) ‖ enc(R) ‖ s ‖ LE64(|m|) ‖ m. The weights
// therefore depend on every signature in the batch, so a signer cannot choose
// signatures whose errors cancel under weights it knows in advance — and a
// caller needs no randomness of its own (the tally's validate stage must not
// draw from its transcript stream).
std::array<uint8_t, 64> SchnorrBatchWeightSeed(std::string_view domain,
                                               std::span<const SchnorrBatchEntry> entries);

// One Fiat–Shamir DLEQ verification instance. Statements should carry their
// producer-local wire caches (see src/crypto/dleq.h trust model) so challenge
// recomputation is SHA-only; transcript commit caches are validated by
// BatchVerifyDleq before use.
struct DleqBatchEntry {
  std::string domain;
  DleqStatement statement;
  DleqTranscript transcript;
  Bytes extra;
};

// Verifies all DLEQ proofs at once (challenge recomputation stays per-item;
// the group equations are combined). Present transcript commit caches are
// decoded back and recompared in one batched pass before they may bind
// challenge bits; a stale or forged cache is a localized per-entry failure.
Status BatchVerifyDleq(std::span<const DleqBatchEntry> entries, Rng& rng);

// Deterministic weight seed for auditor-reproducible BatchVerifyDleq calls:
// binds every entry's Fiat–Shamir challenge and response under `domain`.
// The challenge itself already binds the proof domain, statement and
// commitments (collision resistance of the FS hash), so hashing the
// (challenge, response) pairs binds the entire batch without re-encoding
// any points — entries are only accepted by BatchVerifyDleq if their
// recomputed challenge matches, which ties the weights to the statements.
std::array<uint8_t, 64> DleqBatchWeightSeed(std::string_view domain,
                                            std::span<const DleqBatchEntry> entries);

}  // namespace votegral

#endif  // SRC_CRYPTO_BATCH_H_
