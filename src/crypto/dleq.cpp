#include "src/crypto/dleq.h"

#include <array>
#include <string>

#include "src/common/bytes.h"
#include "src/common/serde.h"
#include "src/crypto/msm.h"
#include "src/crypto/sha512.h"

namespace votegral {

namespace {

// Hashes one statement/commit section: the cached bytes when the cache is
// complete, a fresh canonical encoding otherwise. Both paths feed the hash
// the exact same byte stream — the cache invariant wire[i] == Encode(p[i]) —
// so proofs do not depend on which path ran.
void HashSection(Sha512& h, std::span<const RistrettoPoint> points,
                 std::span<const CompressedRistretto> wire) {
  if (wire.size() == points.size()) {
    for (const CompressedRistretto& bytes : wire) {
      h.Update(bytes);
    }
    return;
  }
  for (const RistrettoPoint& point : points) {
    h.Update(point.Encode());
  }
}

// Decode-and-recompare of one cache section (the PR 2 MixItem rule): the
// bytes are parsed back into a group element and compared coset-aware
// against the claimed point, so a byte string can never bind challenge bits
// for a point it does not encode.
Status ValidateSection(std::span<const RistrettoPoint> points,
                       std::span<const CompressedRistretto> wire, const char* what) {
  if (wire.empty()) {
    return Status::Ok();
  }
  if (wire.size() != points.size()) {
    return Status::Error(std::string("dleq: ") + what + " wire cache size mismatch");
  }
  for (size_t i = 0; i < wire.size(); ++i) {
    auto decoded = RistrettoPoint::Decode(wire[i]);
    if (!decoded.has_value() || !(*decoded == points[i])) {
      return Status::Error(std::string("dleq: ") + what +
                           " wire cache does not match point at index " + std::to_string(i));
    }
  }
  return Status::Ok();
}

// True when base i is the group generator, read from the (producer-local)
// base cache when present and by group equality otherwise. Generator bases
// take the fixed-base paths: MulBase for commits, the width-8 basepoint
// table for r*G_i + e*P_i.
bool IsGeneratorBase(const DleqStatement& statement, size_t i) {
  if (statement.base_wire.size() == statement.bases.size()) {
    return statement.base_wire[i] == RistrettoPoint::BaseWire();
  }
  return statement.bases[i] == RistrettoPoint::Base();
}

// r*G_i + e*P_i: the commit a transcript with response r and challenge e
// must carry for pair i. A simulator sets the commit to it; a verifier
// compares against it. One shared-doubling ladder either way.
RistrettoPoint ResponseCommit(const DleqStatement& statement, size_t i, const Scalar& response,
                              const Scalar& challenge) {
  if (IsGeneratorBase(statement, i)) {
    return RistrettoPoint::DoubleScalarMulBase(challenge, statement.publics[i], response);
  }
  return MultiScalarMul(std::array{response, challenge},
                        std::array{statement.bases[i], statement.publics[i]});
}

}  // namespace

DleqStatement DleqStatement::MakePair(const RistrettoPoint& g1, const RistrettoPoint& p1,
                                      const RistrettoPoint& g2, const RistrettoPoint& p2) {
  DleqStatement s;
  s.bases = {g1, g2};
  s.publics = {p1, p2};
  return s;
}

DleqStatement DleqStatement::MakePairWire(
    const RistrettoPoint& g1, const CompressedRistretto& g1_wire, const RistrettoPoint& p1,
    const CompressedRistretto& p1_wire, const RistrettoPoint& g2,
    const CompressedRistretto& g2_wire, const RistrettoPoint& p2,
    const CompressedRistretto& p2_wire) {
  DleqStatement s;
  s.bases = {g1, g2};
  s.publics = {p1, p2};
  s.base_wire = {g1_wire, g2_wire};
  s.public_wire = {p1_wire, p2_wire};
  return s;
}

void DleqStatement::EnsureWire() {
  if (base_wire.size() != bases.size()) {
    base_wire.resize(bases.size());
    BatchEncodePoints(bases, base_wire);
  }
  if (public_wire.size() != publics.size()) {
    public_wire.resize(publics.size());
    BatchEncodePoints(publics, public_wire);
  }
}

Status DleqStatement::ValidateWire() const {
  if (Status s = ValidateSection(bases, base_wire, "base"); !s.ok()) {
    return s;
  }
  return ValidateSection(publics, public_wire, "public");
}

void DleqTranscript::EnsureWire() {
  if (commit_wire.size() != commits.size()) {
    commit_wire.resize(commits.size());
    BatchEncodePoints(commits, commit_wire);
  }
}

Status DleqTranscript::ValidateWire() const {
  return ValidateSection(commits, commit_wire, "commit");
}

Bytes DleqTranscript::Serialize() const {
  // Byte-identical with or without the cache: wire[i] == commits[i].Encode()
  // is the producer invariant, so the cache only spares the inverse sqrt.
  const bool cached = commit_wire.size() == commits.size();
  ByteWriter w;
  w.U32(static_cast<uint32_t>(commits.size()));
  for (size_t i = 0; i < commits.size(); ++i) {
    w.Fixed(cached ? commit_wire[i] : commits[i].Encode());
  }
  w.Fixed(challenge.ToBytes());
  w.Fixed(response.ToBytes());
  return w.Take();
}

std::optional<DleqTranscript> DleqTranscript::Parse(std::span<const uint8_t> bytes) {
  try {
    ByteReader r(bytes);
    uint32_t n = r.U32();
    if (n > 1024) {
      return std::nullopt;
    }
    DleqTranscript t;
    t.commits.reserve(n);
    t.commit_wire.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      Bytes raw = r.Fixed(32);
      auto point = RistrettoPoint::Decode(raw);
      if (!point.has_value()) {
        return std::nullopt;
      }
      t.commits.push_back(*point);
      // Decode accepts only canonical encodings, so the consumed bytes ARE
      // the commit's unique wire form — retain them as the cache.
      CompressedRistretto wire;
      std::copy(raw.begin(), raw.end(), wire.begin());
      t.commit_wire.push_back(wire);
    }
    auto challenge = Scalar::FromCanonicalBytes(r.Fixed(32));
    auto response = Scalar::FromCanonicalBytes(r.Fixed(32));
    r.ExpectEnd();
    if (!challenge.has_value() || !response.has_value()) {
      return std::nullopt;
    }
    t.challenge = *challenge;
    t.response = *response;
    return t;
  } catch (const ProtocolError&) {
    return std::nullopt;
  }
}

DleqProver::DleqProver(DleqStatement statement, const Scalar& x, Rng& rng)
    : statement_(std::move(statement)), x_(x), y_(Scalar::Random(rng)) {
  Require(statement_.bases.size() == statement_.publics.size() && !statement_.bases.empty(),
          "DleqProver: malformed statement");
  commits_.reserve(statement_.bases.size());
  commit_wire_.reserve(statement_.bases.size());
  for (size_t i = 0; i < statement_.bases.size(); ++i) {
    commits_.push_back(IsGeneratorBase(statement_, i) ? RistrettoPoint::MulBase(y_)
                                                      : y_ * statement_.bases[i]);
    commit_wire_.push_back(commits_.back().Encode());
  }
}

DleqTranscript DleqProver::Respond(const Scalar& challenge) const {
  DleqTranscript t;
  t.commits = commits_;
  t.commit_wire = commit_wire_;
  t.challenge = challenge;
  t.response = y_ - challenge * x_;
  return t;
}

DleqTranscript SimulateDleq(const DleqStatement& statement, const Scalar& challenge, Rng& rng) {
  Require(statement.bases.size() == statement.publics.size() && !statement.bases.empty(),
          "SimulateDleq: malformed statement");
  DleqTranscript t;
  t.challenge = challenge;
  t.response = Scalar::Random(rng);
  t.commits.reserve(statement.bases.size());
  t.commit_wire.reserve(statement.bases.size());
  for (size_t i = 0; i < statement.bases.size(); ++i) {
    // Y_i = r*G_i + e*P_i makes the verification equation hold by
    // construction — without any witness.
    t.commits.push_back(ResponseCommit(statement, i, t.response, challenge));
    t.commit_wire.push_back(t.commits.back().Encode());
  }
  return t;
}

Status VerifyDleqTranscript(const DleqStatement& statement, const DleqTranscript& transcript) {
  if (statement.bases.size() != statement.publics.size() || statement.bases.empty()) {
    return Status::Error("dleq: malformed statement");
  }
  if (transcript.commits.size() != statement.bases.size()) {
    return Status::Error("dleq: commit count mismatch");
  }
  for (size_t i = 0; i < statement.bases.size(); ++i) {
    const RistrettoPoint expected =
        ResponseCommit(statement, i, transcript.response, transcript.challenge);
    if (!(expected == transcript.commits[i])) {
      return Status::Error("dleq: verification equation failed");
    }
  }
  return Status::Ok();
}

Scalar DeriveFsChallenge(std::string_view domain, const DleqStatement& statement,
                         std::span<const RistrettoPoint> commits,
                         std::span<const uint8_t> extra) {
  return DeriveFsChallenge(domain, statement, commits, {}, extra);
}

Scalar DeriveFsChallenge(std::string_view domain, const DleqStatement& statement,
                         std::span<const RistrettoPoint> commits,
                         std::span<const CompressedRistretto> commit_wire,
                         std::span<const uint8_t> extra) {
  Sha512 h;
  h.Update(AsBytes(domain));
  uint8_t sep = 0;
  h.Update({&sep, 1});
  HashSection(h, statement.bases, statement.base_wire);
  HashSection(h, statement.publics, statement.public_wire);
  HashSection(h, commits, commit_wire);
  h.Update(extra);
  return Scalar::FromBytesWide(h.Finalize());
}

DleqTranscript ProveDleqFs(std::string_view domain, const DleqStatement& statement,
                           const Scalar& x, Rng& rng, std::span<const uint8_t> extra) {
  DleqProver prover(statement, x, rng);
  Scalar challenge =
      DeriveFsChallenge(domain, statement, prover.commits(), prover.commit_wire(), extra);
  return prover.Respond(challenge);
}

Status VerifyDleqFs(std::string_view domain, const DleqStatement& statement,
                    const DleqTranscript& transcript, std::span<const uint8_t> extra) {
  // Attacker-cache rule: commit bytes may bind challenge bits only after
  // they decode back to the claimed commit points.
  if (Status s = transcript.ValidateWire(); !s.ok()) {
    return s;
  }
  Scalar expected = DeriveFsChallenge(domain, statement, transcript.commits,
                                      transcript.commit_wire, extra);
  if (expected != transcript.challenge) {
    return Status::Error("dleq-fs: challenge mismatch");
  }
  return VerifyDleqTranscript(statement, transcript);
}

}  // namespace votegral
