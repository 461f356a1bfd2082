// Adversarial serialization tests: every externally-supplied byte string
// (QR payloads, ledger entries, ballots, proofs) is parsed defensively —
// random mutations and truncations must never crash, and whenever a mutated
// artifact *does* parse, downstream cryptographic verification must reject
// it. This is the robustness contract of the `Parse -> nullopt` +
// `Status`-verification design.
#include <gtest/gtest.h>

#include "src/crypto/drbg.h"
#include "src/ledger/persistence.h"
#include "src/net/transport.h"
#include "src/replica/messages.h"
#include "src/trip/registrar.h"
#include "src/votegral/ballot.h"
#include "src/votegral/election.h"

namespace votegral {
namespace {

// Applies `mutations` random single-byte mutations.
Bytes Mutate(Bytes data, size_t mutations, Rng& rng) {
  for (size_t i = 0; i < mutations && !data.empty(); ++i) {
    size_t pos = rng.Uniform(data.size());
    data[pos] ^= static_cast<uint8_t>(1 + rng.Uniform(255));
  }
  return data;
}

class SerializationFuzz : public ::testing::Test {
 protected:
  void SetUp() override {
    rng_ = std::make_unique<ChaChaRng>(600);
    TripSystemParams params;
    params.roster = {"alice"};
    system_ = std::make_unique<TripSystem>(TripSystem::Create(params, *rng_));
    RegistrationDesk desk(*system_);
    auto outcome = desk.RegisterVoter("alice", 1, *rng_);
    ASSERT_TRUE(outcome.ok());
    outcome_ = std::make_unique<RegistrationOutcome>(std::move(*outcome));
  }

  std::unique_ptr<ChaChaRng> rng_;
  std::unique_ptr<TripSystem> system_;
  std::unique_ptr<RegistrationOutcome> outcome_;
};

TEST_F(SerializationFuzz, MutatedCommitSegmentsNeverActivate) {
  Bytes wire = outcome_->real.commit.Serialize();
  int parsed_count = 0;
  for (int trial = 0; trial < 300; ++trial) {
    Bytes mutated = Mutate(wire, 1 + rng_->Uniform(4), *rng_);
    auto parsed = CommitSegment::Parse(mutated);
    if (!parsed.has_value()) {
      continue;
    }
    ++parsed_count;
    if (mutated == wire) {
      continue;  // mutation happened to cancel out
    }
    // A structurally-parsable mutant must fail activation (signature or
    // proof or ledger check breaks).
    PaperCredential credential = outcome_->real;
    credential.commit = *parsed;
    Vsd vsd = system_->MakeVsd();
    auto activated = vsd.Activate(credential, system_->ledger());
    EXPECT_FALSE(activated.ok());
  }
  // Fixed-width point/scalar fields make some mutants parseable; ensure the
  // loop exercised the interesting path at least occasionally.
  EXPECT_GT(parsed_count, 0);
}

TEST_F(SerializationFuzz, MutatedResponseSegmentsNeverActivate) {
  Bytes wire = outcome_->real.response.Serialize();
  for (int trial = 0; trial < 300; ++trial) {
    Bytes mutated = Mutate(wire, 1 + rng_->Uniform(4), *rng_);
    if (mutated == wire) {
      continue;
    }
    auto parsed = ResponseSegment::Parse(mutated);
    if (!parsed.has_value()) {
      continue;
    }
    PaperCredential credential = outcome_->real;
    credential.response = *parsed;
    Vsd vsd = system_->MakeVsd();
    EXPECT_FALSE(vsd.Activate(credential, system_->ledger()).ok());
  }
}

TEST_F(SerializationFuzz, TruncatedMessagesParseToNullopt) {
  std::vector<Bytes> wires = {
      outcome_->ticket.Serialize(),          outcome_->real.commit.Serialize(),
      outcome_->real.checkout.Serialize(),   outcome_->real.response.Serialize(),
      outcome_->real.envelope.Serialize(),
  };
  for (const Bytes& wire : wires) {
    for (size_t cut = 0; cut < wire.size(); cut += 1 + wire.size() / 23) {
      Bytes truncated(wire.begin(), wire.begin() + static_cast<ptrdiff_t>(cut));
      // Must not crash; must not parse to a full artifact of the same size
      // class (some prefixes may parse for variable-size formats; the
      // signature checks downstream still reject them).
      (void)CheckInTicket::Parse(truncated);
      (void)CommitSegment::Parse(truncated);
      (void)CheckOutSegment::Parse(truncated);
      (void)ResponseSegment::Parse(truncated);
      (void)Envelope::Parse(truncated);
    }
  }
  SUCCEED();
}

TEST_F(SerializationFuzz, MutatedBallotsNeverValidate) {
  ChaChaRng rng(601);
  ElectionConfig config;
  config.roster = {"alice"};
  config.candidates = {"A", "B"};
  Election election(config, rng);
  Vsd vsd = election.trip().MakeVsd();
  auto alice = election.Register("alice", 0, vsd, rng);
  ASSERT_TRUE(alice.ok());
  Ballot ballot = MakeBallot(alice->activated[0], election.candidates(), 0,
                             election.trip().authority_pk(), rng);
  Bytes wire = ballot.Serialize();
  ASSERT_TRUE(CheckBallot(ballot, election.trip().authorized_kiosks()).ok());

  int parsed_count = 0;
  for (int trial = 0; trial < 300; ++trial) {
    Bytes mutated = Mutate(wire, 1 + rng.Uniform(3), rng);
    if (mutated == wire) {
      continue;
    }
    auto parsed = Ballot::Parse(mutated);
    if (!parsed.has_value()) {
      continue;
    }
    ++parsed_count;
    EXPECT_FALSE(CheckBallot(*parsed, election.trip().authorized_kiosks()).ok());
  }
  EXPECT_GT(parsed_count, 0);
}

TEST_F(SerializationFuzz, RandomGarbageNeverCrashesParsers) {
  ChaChaRng rng(602);
  for (int trial = 0; trial < 200; ++trial) {
    Bytes garbage = rng.RandomBytes(rng.Uniform(512));
    (void)CheckInTicket::Parse(garbage);
    (void)CommitSegment::Parse(garbage);
    (void)CheckOutSegment::Parse(garbage);
    (void)ResponseSegment::Parse(garbage);
    (void)Envelope::Parse(garbage);
    (void)Ballot::Parse(garbage);
    (void)RegistrationRecord::Parse(garbage);
    (void)EnvelopeCommitment::Parse(garbage);
    (void)SchnorrSignature::Parse(garbage);
    (void)ElGamalCiphertext::Parse(garbage);
    (void)DleqTranscript::Parse(garbage);
    // Board parsers: transport frames, ledger entry frames, replication
    // messages and revote ballots all arrive from the network or the disk.
    size_t offset = 0;
    (void)DecodeFrame(garbage);
    (void)DecodeEntryFrame(garbage, &offset);
    (void)ConsistencyProof::Parse(garbage);
    (void)SignedCheckpoint::Parse(garbage);
    (void)RevoteBallot::Parse(garbage);
    (void)RevoteBindingProof::Parse(garbage);
    // Ledger snapshots arrive as downloaded files (in-memory import).
    (void)ParseLedger(garbage);
    (void)ParsePublicLedger(garbage);
    for (ReplicaMsgType type :
         {ReplicaMsgType::kGetCheckpoint, ReplicaMsgType::kCheckpoint,
          ReplicaMsgType::kGetFrames, ReplicaMsgType::kFrames, ReplicaMsgType::kError}) {
      const WireMessage msg{static_cast<uint16_t>(type), garbage};
      (void)DecodeGetCheckpoint(msg);
      (void)DecodeCheckpoint(msg);
      (void)DecodeGetFrames(msg);
      (void)DecodeFrames(msg);
      (void)DecodeError(msg);
    }
  }
  SUCCEED();
}

TEST_F(SerializationFuzz, DamagedPublicLedgerSnapshotsAreRejected) {
  // One valid snapshot of the fixture's board, then every strict prefix and
  // one flipped bit per byte (cycling through the bit positions). Framing,
  // magic, lengths, entry hashes and chain links each catch some of these;
  // none may crash, and none may import.
  const Bytes wire = SerializePublicLedger(system_->ledger());
  ASSERT_TRUE(ParsePublicLedger(wire).ok());
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    const Bytes truncated(wire.begin(), wire.begin() + static_cast<ptrdiff_t>(cut));
    EXPECT_FALSE(ParsePublicLedger(truncated).ok()) << "prefix of " << cut << " bytes";
  }
  for (size_t pos = 0; pos < wire.size(); ++pos) {
    Bytes flipped = wire;
    flipped[pos] ^= static_cast<uint8_t>(1u << (pos % 8));
    EXPECT_FALSE(ParsePublicLedger(flipped).ok()) << "bit " << pos % 8 << " of byte " << pos;
  }
}

}  // namespace
}  // namespace votegral
