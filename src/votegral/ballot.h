// Ballot formation and validation (Fig. 3 "Vote" stage, Appendix M).
//
// A Votegral ballot carries: an ElGamal encryption of the vote, the casting
// credential's *public* key c_pk (real or fake — indistinguishable), the
// kiosk certificate σ_kr binding c_pk to a registrar-issued credential
// (§4.5 "Credential signing": defeats board flooding and the forged-related-
// credential attacks of [142]), and a Schnorr signature by c_sk over the
// whole ballot.
#ifndef SRC_VOTEGRAL_BALLOT_H_
#define SRC_VOTEGRAL_BALLOT_H_

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/crypto/batch.h"
#include "src/crypto/elgamal.h"
#include "src/crypto/schnorr.h"
#include "src/trip/vsd.h"

namespace votegral {

// The election's choice set. Votes are encoded as hash-to-group points so
// decryption can be matched back by table lookup.
class CandidateList {
 public:
  explicit CandidateList(std::vector<std::string> names);

  size_t size() const { return names_.size(); }
  const std::string& name(size_t i) const { return names_.at(i); }
  const RistrettoPoint& point(size_t i) const { return points_.at(i); }

  // Reverse lookup of a decrypted vote point; nullopt for invalid votes.
  std::optional<size_t> IndexOfPoint(const RistrettoPoint& point) const;

  // Same lookup from an already-computed canonical encoding. The tally and
  // verifier pipelines encode decrypted points in parallel batches; this
  // avoids paying a second Encode inside the sequential counting loop.
  std::optional<size_t> IndexOfEncoding(const CompressedRistretto& encoding) const;

 private:
  std::vector<std::string> names_;
  std::vector<RistrettoPoint> points_;
  std::map<CompressedRistretto, size_t> by_encoding_;
};

// An encrypted ballot as posted on L_V.
struct Ballot {
  ElGamalCiphertext encrypted_vote;
  CompressedRistretto credential_pk{};
  CompressedRistretto kiosk_pk{};
  std::array<uint8_t, 32> kiosk_cert_hash{};  // H(e‖r) bound inside σ_kr
  SchnorrSignature kiosk_cert;                // σ_kr from the receipt
  SchnorrSignature credential_sig;            // by c_sk over the ballot body

  Bytes Serialize() const;
  static std::optional<Ballot> Parse(std::span<const uint8_t> bytes);

  // The byte string credential_sig covers.
  Bytes SignedPayload() const;
};

// Forms a ballot for `candidate_index` using an activated credential.
Ballot MakeBallot(const ActivatedCredential& credential, const CandidateList& candidates,
                  size_t candidate_index, const RistrettoPoint& authority_pk, Rng& rng);

// The two signatures a ballot carries, as batch entries: [0] the kiosk
// certificate σ_kr over (c_pk ‖ H(e‖r)) under K_pk, [1] the credential
// signature over SignedPayload() under c_pk. The one definition of what a
// ballot signs — CheckBallot verifies these entries one by one, the validate
// stage folds a shard's worth into one BatchVerifySchnorr call.
std::array<SchnorrBatchEntry, 2> BallotSignatureEntries(const Ballot& ballot);

// Structural/eligibility validation performed by the tally service and by
// anyone auditing L_V: credential signature, kiosk certificate, and kiosk
// authorization. Linear-time per ballot — this is the registrar-issued
// credential restriction that keeps Votegral's filtering out of Civitas'
// quadratic PET regime (§7.4).
Status CheckBallot(const Ballot& ballot, const std::set<CompressedRistretto>& authorized_kiosks);

// --- Deniable revoting (docs/REVOTING.md) ----------------------------------
//
// Under ElectionConfig::revoting a cast posts a RevoteBallot instead of a
// Ballot: the credential never appears in the clear (a cleartext c_pk would
// make any re-cast publicly linkable on L_V — exactly the channel a coercer
// watches), and the ballot carries an encrypted per-credential cast counter
// so the supersession dedup can keep the last cast without learning board
// order. Eligibility is deferred to the tag join (unregistered and dummy
// credentials drop as unmatched tags), replacing the kiosk certificate.

// The distinguished non-candidate vote plaintext dummy (padding) ballots
// encrypt: a hash-to-group point outside every candidate set.
const RistrettoPoint& RevoteBottomPoint();

// Knowledge-binding proof for a revote ballot: an Okamoto-style AND-sigma
// PoK of (r, c_sk) with C1 = r*B and C2 = r*A + c_sk*B for the encrypted
// credential (C1, C2), Fiat–Shamir over the whole ballot body. Proves the
// caster knows the credential secret *inside* the encryption — a coercer
// cannot re-randomize someone else's encrypted credential into a fresh
// ballot, and the challenge binds the vote and counter ciphertexts.
struct RevoteBindingProof {
  CompressedRistretto t1{};
  CompressedRistretto t2{};
  Scalar z1;
  Scalar z2;

  // 128-byte wire format: T1 || T2 || z1 || z2.
  Bytes Serialize() const;
  static std::optional<RevoteBindingProof> Parse(std::span<const uint8_t> bytes);
};

// An encrypted revote ballot as posted on L_V (320 bytes — length alone
// distinguishes it from a 288-byte legacy Ballot, so a mixed ledger fails
// structural validation rather than silently merging modes).
struct RevoteBallot {
  ElGamalCiphertext encrypted_vote;
  ElGamalCiphertext encrypted_credential;  // Enc_A(c_pk)
  ElGamalCiphertext encrypted_counter;     // Enc_A(counter * B)
  RevoteBindingProof proof;

  Bytes Serialize() const;
  static std::optional<RevoteBallot> Parse(std::span<const uint8_t> bytes);

  // The byte string the binding proof's challenge covers (everything but the
  // proof itself).
  Bytes BoundPayload() const;
};

// Forms a revote ballot for `candidate_index` with per-credential cast index
// `counter` (0 for the first cast; each re-cast increments).
RevoteBallot MakeRevoteBallot(const ActivatedCredential& credential,
                              const CandidateList& candidates, size_t candidate_index,
                              const RistrettoPoint& authority_pk, uint64_t counter, Rng& rng);

// Structural validation of a revote ballot: parse plus the binding proof.
// No kiosk certificate — eligibility is enforced by the tag join.
Status CheckRevoteBallot(const RevoteBallot& ballot, const RistrettoPoint& authority_pk);

}  // namespace votegral

#endif  // SRC_VOTEGRAL_BALLOT_H_
