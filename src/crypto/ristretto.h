// ristretto255 (RFC 9496): a prime-order group built on edwards25519,
// implemented from scratch on top of src/crypto/fe25519.
//
// Votegral/TRIP needs a prime-order group with canonical encodings for
// ElGamal credentials, Schnorr signatures, Chaum–Pedersen proofs and
// deterministic tagging; ristretto removes the cofactor pitfalls of raw
// edwards25519 that a from-scratch protocol stack would otherwise have to
// handle case by case.
//
// Internal representation: extended Edwards coordinates (X:Y:Z:T) with
// x = X/Z, y = Y/Z, x*y = T/Z on the a=-1 twisted Edwards curve.
#ifndef SRC_CRYPTO_RISTRETTO_H_
#define SRC_CRYPTO_RISTRETTO_H_

#include <array>
#include <optional>
#include <span>
#include <string_view>

#include "src/crypto/fe25519.h"
#include "src/crypto/scalar.h"

namespace votegral {

// An element of the ristretto255 group.
class RistrettoPoint {
 public:
  // The identity element.
  RistrettoPoint();

  static RistrettoPoint Identity() { return RistrettoPoint(); }

  // The canonical generator (the edwards25519 basepoint's coset).
  static const RistrettoPoint& Base();

  // Decodes a canonical 32-byte encoding; rejects non-canonical field
  // encodings, negative s, and off-curve inputs (RFC 9496 §4.3.1).
  static std::optional<RistrettoPoint> Decode(std::span<const uint8_t> bytes32);

  // Canonical 32-byte encoding (RFC 9496 §4.3.2).
  std::array<uint8_t, 32> Encode() const;

  // Canonical encoding of Base(), computed once at startup. The wire-byte
  // DLEQ layer (src/crypto/dleq.h) hashes this constant instead of paying a
  // fresh inverse square root for the generator in every statement.
  static const std::array<uint8_t, 32>& BaseWire();

  // Maps 64 uniform bytes to a group element (two Elligator evaluations,
  // RFC 9496 §4.3.4). The basis of HashToGroup.
  static RistrettoPoint FromUniformBytes(std::span<const uint8_t> bytes64);

  // Domain-separated hash-to-group via SHA-512.
  static RistrettoPoint HashToGroup(std::string_view domain, std::span<const uint8_t> data);

  // out[k] = a[k] + b[k] for k < 4. Kept only for the lifecycle benchmark;
  // defined in src/crypto/fe25519_x4.h.
  static void AddX4(const RistrettoPoint* a, const RistrettoPoint* b, RistrettoPoint* out);

  // Group operations.
  RistrettoPoint operator+(const RistrettoPoint& other) const;
  RistrettoPoint operator-(const RistrettoPoint& other) const;
  RistrettoPoint operator-() const;
  RistrettoPoint Double() const;

  // Variable-base scalar multiplication (4-bit window).
  friend RistrettoPoint operator*(const Scalar& s, const RistrettoPoint& p);

  // Fixed-base scalar multiplication s*B using a precomputed radix-16 table
  // (~16x faster than the variable-base path; an ablation bench quantifies
  // this, see bench/ablation_design_choices).
  static RistrettoPoint MulBase(const Scalar& s);

  // Fixed-base multiplication without the precomputed table (ablation only).
  static RistrettoPoint MulBaseSlow(const Scalar& s);

  // a*P + b*Base, the Schnorr verification workhorse. Implemented on the MSM
  // engine (src/crypto/msm.h): one shared-doubling wNAF ladder with a
  // precomputed width-8 NAF table for the fixed base. Variable-time; only
  // ever applied to public verification data.
  static RistrettoPoint DoubleScalarMulBase(const Scalar& a, const RistrettoPoint& p,
                                            const Scalar& b);

  // Ristretto equality (coset-aware; does not require encoding).
  bool operator==(const RistrettoPoint& other) const;
  bool operator!=(const RistrettoPoint& other) const { return !(*this == other); }

  bool IsIdentity() const { return *this == RistrettoPoint(); }

 private:
  RistrettoPoint(const Fe25519& x, const Fe25519& y, const Fe25519& z, const Fe25519& t)
      : x_(x), y_(y), z_(z), t_(t) {}

  // One Elligator 2 evaluation (MAP of RFC 9496 §4.3.4).
  static RistrettoPoint ElligatorMap(const Fe25519& t);

  friend size_t BatchValidateEncodings(std::span<const RistrettoPoint> points,
                                       std::span<const std::array<uint8_t, 32>> bytes,
                                       std::span<uint8_t> ok);

  Fe25519 x_;
  Fe25519 y_;
  Fe25519 z_;
  Fe25519 t_;
};

// Convenience alias used by protocol signatures.
using CompressedRistretto = std::array<uint8_t, 32>;

// --- Batched canonical encode/decode ---------------------------------------
//
// Both routines fan fixed-position shards out on Executor::Current() (the
// pool bound by the enclosing protocol stage; serial under threads=1) and
// run Encode()/Decode() per element, so outputs and the invocation counters
// below match element-wise calls exactly. The inverse square roots stay
// per-point: a Montgomery-style shared tree recovers only the product of the
// roots, never the individual canonical roots, and any "validation" built
// naively on a shared tree would accept the encoding of -P for P
// (re-opening the challenge-grinding attack wire-cache validation exists to
// stop; see docs/TRANSCRIPTS.md).

// out[i] = points[i].Encode(). out.size() must equal points.size().
void BatchEncodePoints(std::span<const RistrettoPoint> points,
                       std::span<CompressedRistretto> out);

// Decodes bytes[i] into out[i]; ok[i] = 1 on success, 0 on any rejection
// (non-canonical field encoding, negative s, off-curve input). Returns the
// number of failures. All spans must have equal sizes.
size_t BatchDecodePoints(std::span<const CompressedRistretto> bytes,
                         std::span<RistrettoPoint> out, std::span<uint8_t> ok);

// Checks bytes[i] == points[i].Encode() without computing any inverse square
// roots: one Montgomery-batched field inversion per shard recovers affine
// coordinates, then each element costs ~8 field multiplications. Sound and
// complete: ok[i] = 1 exactly when bytes[i] is the canonical encoding of
// points[i] — unlike a naive shared-root scheme this can never accept the
// encoding of -P, because the claimed s is checked against the unique
// canonical coset representative (selected by the same rotation/sign rules
// Encode applies) and s^2 = (1-y)/(1+y) has a unique non-negative root.
// Identity-coset points (affine x or y zero) compare against the all-zero
// encoding directly. Returns the number of failures; this is the verify-side
// workhorse for wire-cache validation (mixnet hashing, DLEQ commit caches).
size_t BatchValidateEncodings(std::span<const RistrettoPoint> points,
                              std::span<const CompressedRistretto> bytes,
                              std::span<uint8_t> ok);

// Process-wide Encode()/Decode() invocation counters (relaxed atomics) — the
// group-layer analogue of MerkleCommitmentTree::hash_invocations(). Tests
// assert "challenge derivation is SHA-only" as a zero Encode delta across a
// verification call instead of trusting comments; benches report the deltas
// as evidence next to wall-clock numbers.
uint64_t RistrettoEncodeInvocations();
uint64_t RistrettoDecodeInvocations();

}  // namespace votegral

#endif  // SRC_CRYPTO_RISTRETTO_H_
