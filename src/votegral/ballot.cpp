#include "src/votegral/ballot.h"

#include <array>

#include "src/common/serde.h"
#include "src/crypto/msm.h"
#include "src/crypto/sha512.h"
#include "src/trip/messages.h"

namespace votegral {

namespace {

constexpr std::string_view kCandidateDomain = "votegral/candidate/v1";
constexpr std::string_view kBallotDomain = "votegral/ballot/v1";
constexpr std::string_view kRevoteBallotDomain = "votegral/revote/ballot/v1";
constexpr std::string_view kRevoteBindingDomain = "votegral/revote/binding/v1";
constexpr std::string_view kRevoteBottomDomain = "votegral/revote/bottom/v1";

// Fiat–Shamir challenge for the binding proof: SHA-512 over the domain, the
// ballot body bytes, and both commitments, reduced mod L.
Scalar BindingChallenge(std::span<const uint8_t> body, const CompressedRistretto& t1,
                        const CompressedRistretto& t2) {
  Sha512 h;
  h.Update(AsBytes(kRevoteBindingDomain));
  h.Update(body);
  h.Update(t1);
  h.Update(t2);
  return Scalar::FromBytesWide(h.Finalize());
}

}  // namespace

CandidateList::CandidateList(std::vector<std::string> names) : names_(std::move(names)) {
  Require(!names_.empty(), "CandidateList: need at least one candidate");
  points_.reserve(names_.size());
  for (size_t i = 0; i < names_.size(); ++i) {
    RistrettoPoint point = RistrettoPoint::HashToGroup(kCandidateDomain, AsBytes(names_[i]));
    by_encoding_[point.Encode()] = i;
    points_.push_back(point);
  }
  Require(by_encoding_.size() == names_.size(), "CandidateList: duplicate candidate");
}

std::optional<size_t> CandidateList::IndexOfPoint(const RistrettoPoint& point) const {
  return IndexOfEncoding(point.Encode());
}

std::optional<size_t> CandidateList::IndexOfEncoding(const CompressedRistretto& encoding) const {
  auto it = by_encoding_.find(encoding);
  if (it == by_encoding_.end()) {
    return std::nullopt;
  }
  return it->second;
}

Bytes Ballot::SignedPayload() const {
  ByteWriter w;
  w.Str(kBallotDomain);
  w.Fixed(encrypted_vote.Serialize());
  w.Fixed(credential_pk);
  w.Fixed(kiosk_pk);
  w.Fixed(kiosk_cert_hash);
  w.Fixed(kiosk_cert.Serialize());
  return w.Take();
}

Bytes Ballot::Serialize() const {
  ByteWriter w;
  w.Fixed(encrypted_vote.Serialize());
  w.Fixed(credential_pk);
  w.Fixed(kiosk_pk);
  w.Fixed(kiosk_cert_hash);
  w.Fixed(kiosk_cert.Serialize());
  w.Fixed(credential_sig.Serialize());
  return w.Take();
}

std::optional<Ballot> Ballot::Parse(std::span<const uint8_t> bytes) {
  try {
    ByteReader r(bytes);
    Ballot b;
    auto vote = ElGamalCiphertext::Parse(r.Fixed(64));
    Bytes cred_pk = r.Fixed(32);
    Bytes kiosk_pk = r.Fixed(32);
    Bytes cert_hash = r.Fixed(32);
    auto cert = SchnorrSignature::Parse(r.Fixed(64));
    auto sig = SchnorrSignature::Parse(r.Fixed(64));
    r.ExpectEnd();
    if (!vote || !cert || !sig) {
      return std::nullopt;
    }
    b.encrypted_vote = *vote;
    std::copy(cred_pk.begin(), cred_pk.end(), b.credential_pk.begin());
    std::copy(kiosk_pk.begin(), kiosk_pk.end(), b.kiosk_pk.begin());
    std::copy(cert_hash.begin(), cert_hash.end(), b.kiosk_cert_hash.begin());
    b.kiosk_cert = *cert;
    b.credential_sig = *sig;
    return b;
  } catch (const ProtocolError&) {
    return std::nullopt;
  }
}

Ballot MakeBallot(const ActivatedCredential& credential, const CandidateList& candidates,
                  size_t candidate_index, const RistrettoPoint& authority_pk, Rng& rng) {
  Ballot ballot;
  ballot.encrypted_vote =
      ElGamalEncrypt(authority_pk, candidates.point(candidate_index), rng);
  ballot.credential_pk = credential.credential_pk;
  ballot.kiosk_pk = credential.kiosk_pk;
  ballot.kiosk_cert_hash = credential.challenge_response_hash;
  ballot.kiosk_cert = credential.kiosk_response_sig;
  SchnorrKeyPair key = SchnorrKeyPair::FromSecret(credential.credential_sk);
  ballot.credential_sig = key.Sign(ballot.SignedPayload(), rng);
  return ballot;
}

const RistrettoPoint& RevoteBottomPoint() {
  static const RistrettoPoint bottom =
      RistrettoPoint::HashToGroup(kRevoteBottomDomain, {});
  return bottom;
}

Bytes RevoteBindingProof::Serialize() const {
  ByteWriter w;
  w.Fixed(t1);
  w.Fixed(t2);
  w.Fixed(z1.ToBytes());
  w.Fixed(z2.ToBytes());
  return w.Take();
}

std::optional<RevoteBindingProof> RevoteBindingProof::Parse(std::span<const uint8_t> bytes) {
  try {
    ByteReader r(bytes);
    RevoteBindingProof p;
    Bytes t1 = r.Fixed(32);
    Bytes t2 = r.Fixed(32);
    Bytes z1 = r.Fixed(32);
    Bytes z2 = r.Fixed(32);
    r.ExpectEnd();
    std::copy(t1.begin(), t1.end(), p.t1.begin());
    std::copy(t2.begin(), t2.end(), p.t2.begin());
    auto s1 = Scalar::FromCanonicalBytes(z1);
    auto s2 = Scalar::FromCanonicalBytes(z2);
    if (!s1 || !s2) {
      return std::nullopt;
    }
    p.z1 = *s1;
    p.z2 = *s2;
    return p;
  } catch (const ProtocolError&) {
    return std::nullopt;
  }
}

Bytes RevoteBallot::BoundPayload() const {
  ByteWriter w;
  w.Str(kRevoteBallotDomain);
  w.Fixed(encrypted_vote.Serialize());
  w.Fixed(encrypted_credential.Serialize());
  w.Fixed(encrypted_counter.Serialize());
  return w.Take();
}

Bytes RevoteBallot::Serialize() const {
  ByteWriter w;
  w.Fixed(encrypted_vote.Serialize());
  w.Fixed(encrypted_credential.Serialize());
  w.Fixed(encrypted_counter.Serialize());
  w.Fixed(proof.Serialize());
  return w.Take();
}

std::optional<RevoteBallot> RevoteBallot::Parse(std::span<const uint8_t> bytes) {
  try {
    ByteReader r(bytes);
    RevoteBallot b;
    auto vote = ElGamalCiphertext::Parse(r.Fixed(64));
    auto credential = ElGamalCiphertext::Parse(r.Fixed(64));
    auto counter = ElGamalCiphertext::Parse(r.Fixed(64));
    auto proof = RevoteBindingProof::Parse(r.Fixed(128));
    r.ExpectEnd();
    if (!vote || !credential || !counter || !proof) {
      return std::nullopt;
    }
    b.encrypted_vote = *vote;
    b.encrypted_credential = *credential;
    b.encrypted_counter = *counter;
    b.proof = *proof;
    return b;
  } catch (const ProtocolError&) {
    return std::nullopt;
  }
}

RevoteBallot MakeRevoteBallot(const ActivatedCredential& credential,
                              const CandidateList& candidates, size_t candidate_index,
                              const RistrettoPoint& authority_pk, uint64_t counter,
                              Rng& rng) {
  RevoteBallot ballot;
  ballot.encrypted_vote =
      ElGamalEncrypt(authority_pk, candidates.point(candidate_index), rng);
  Scalar credential_r;
  ballot.encrypted_credential =
      ElGamalEncrypt(authority_pk, RistrettoPoint::MulBase(credential.credential_sk), rng,
                     &credential_r);
  ballot.encrypted_counter = ElGamalEncrypt(
      authority_pk, RistrettoPoint::MulBase(Scalar::FromU64(counter)), rng);
  // Okamoto AND-sigma for (r, c_sk): T1 = a*B, T2 = a*A + b*B.
  const Scalar a = Scalar::Random(rng);
  const Scalar b = Scalar::Random(rng);
  ballot.proof.t1 = RistrettoPoint::MulBase(a).Encode();
  ballot.proof.t2 = (a * authority_pk + RistrettoPoint::MulBase(b)).Encode();
  const Scalar e = BindingChallenge(ballot.BoundPayload(), ballot.proof.t1, ballot.proof.t2);
  ballot.proof.z1 = a + e * credential_r;
  ballot.proof.z2 = b + e * credential.credential_sk;
  return ballot;
}

Status CheckRevoteBallot(const RevoteBallot& ballot, const RistrettoPoint& authority_pk) {
  const Scalar e = BindingChallenge(ballot.BoundPayload(), ballot.proof.t1, ballot.proof.t2);
  const ElGamalCiphertext& c = ballot.encrypted_credential;
  // z1*B == T1 + e*C1  and  z1*A + z2*B == T2 + e*C2.
  auto t1 = RistrettoPoint::Decode(ballot.proof.t1);
  auto t2 = RistrettoPoint::Decode(ballot.proof.t2);
  if (!t1.has_value() || !t2.has_value()) {
    return Status::Error("revote ballot: binding proof commitment undecodable");
  }
  const RistrettoPoint lhs1 = RistrettoPoint::DoubleScalarMulBase(-e, c.c1, ballot.proof.z1);
  if (!(lhs1 == *t1)) {
    return Status::Error("revote ballot: binding proof first equation failed");
  }
  // z2*B + z1*A - e*C2 in one shared-doubling ladder.
  const RistrettoPoint lhs2 = MultiScalarMulWithBase(
      ballot.proof.z2, std::array{ballot.proof.z1, -e}, std::array{authority_pk, c.c2});
  if (!(lhs2 == *t2)) {
    return Status::Error("revote ballot: binding proof second equation failed");
  }
  return Status::Ok();
}

std::array<SchnorrBatchEntry, 2> BallotSignatureEntries(const Ballot& ballot) {
  // Kiosk certificate: σ_kr over (c_pk ‖ H(e‖r)) — proves the credential was
  // issued by a registrar kiosk (real or fake, deliberately indistinct).
  return {SchnorrBatchEntry{ballot.kiosk_pk,
                            ResponseSegment::SignedPayload(ballot.credential_pk,
                                                           ballot.kiosk_cert_hash),
                            ballot.kiosk_cert},
          SchnorrBatchEntry{ballot.credential_pk, ballot.SignedPayload(),
                            ballot.credential_sig}};
}

Status CheckBallot(const Ballot& ballot,
                   const std::set<CompressedRistretto>& authorized_kiosks) {
  if (authorized_kiosks.count(ballot.kiosk_pk) == 0) {
    return Status::Error("ballot: kiosk not authorized");
  }
  const auto [cert, sig] = BallotSignatureEntries(ballot);
  if (!SchnorrVerify(cert.public_key, cert.message, cert.signature).ok()) {
    return Status::Error("ballot: kiosk certificate invalid");
  }
  if (!SchnorrVerify(sig.public_key, sig.message, sig.signature).ok()) {
    return Status::Error("ballot: credential signature invalid");
  }
  return Status::Ok();
}

}  // namespace votegral
