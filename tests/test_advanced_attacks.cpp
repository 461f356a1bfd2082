// Additional adversarial coverage beyond test_trip_attacks: corrupt
// check-out officials, ballot-log flooding (the linear-filter defense of
// Appendix M / [82]), ballot replay and malleability, and cross-voter
// credential substitution.
#include <gtest/gtest.h>

#include "src/common/clock.h"
#include "src/common/executor.h"
#include "src/crypto/drbg.h"
#include "src/trip/official.h"
#include "src/trip/registrar.h"
#include "src/votegral/election.h"

namespace votegral {
namespace {

ElectionConfig SmallConfig(std::vector<std::string> roster) {
  ElectionConfig config;
  config.roster = std::move(roster);
  config.candidates = {"A", "B"};
  return config;
}

TEST(MaliciousOfficial, UnauthorizedKioskRejectedAtCheckOut) {
  // A corrupt desk tries to check out a credential "issued" by a rogue
  // kiosk the authority never certified.
  ChaChaRng rng(1000);
  TripSystemParams params;
  params.roster = {"alice"};
  TripSystem system = TripSystem::Create(params, rng);

  Kiosk rogue(SchnorrKeyPair::Generate(rng), system.shared_mac_key(),
              system.authority_pk());
  auto ticket = system.official().CheckIn("alice", system.ledger());
  ASSERT_TRUE(ticket.ok());
  ASSERT_TRUE(rogue.StartSession(*ticket).ok());
  auto printed = rogue.BeginRealCredential(rng);
  ASSERT_TRUE(printed.ok());
  auto envelope = system.booth_envelopes().TakeWithSymbol(printed->symbol, rng);
  ASSERT_TRUE(envelope.ok());
  auto credential = rogue.FinishRealCredential(*envelope, rng);
  ASSERT_TRUE(credential.ok());

  Status checkout = system.official().CheckOut(
      credential->checkout, system.authorized_kiosks(), system.ledger(), rng);
  EXPECT_FALSE(checkout.ok());
  EXPECT_NE(checkout.reason().find("unauthorized"), std::string::npos);
}

TEST(MaliciousOfficial, ForgedRecordFailsPublicVerification) {
  // An official who invents a registration record (e.g. to impersonate an
  // absent voter) cannot produce a valid kiosk signature for it.
  ChaChaRng rng(1001);
  TripSystemParams params;
  params.roster = {"alice"};
  TripSystem system = TripSystem::Create(params, rng);

  RegistrationRecord forged;
  forged.voter_id = "alice";
  forged.public_credential =
      ElGamalEncrypt(system.authority_pk(), RistrettoPoint::Base(), rng);
  forged.kiosk_pk = system.kiosk().public_key();
  SchnorrKeyPair official_key = SchnorrKeyPair::Generate(rng);
  forged.kiosk_sig = official_key.Sign(AsBytes("not a kiosk"), rng);  // garbage
  forged.official_pk = official_key.public_bytes();
  forged.official_sig = official_key.Sign(AsBytes("self-approved"), rng);
  ASSERT_TRUE(system.ledger().PostRegistration(forged).ok());  // ledger accepts bytes...

  // ...but the public record verification (run by auditors and the
  // universal verifier) rejects it.
  Status verdict = VerifyRegistrationRecord(forged, system.authorized_kiosks(),
                                            system.authorized_officials());
  EXPECT_FALSE(verdict.ok());
  // And the voter's device notices the unexpected registration event.
  Vsd vsd = system.MakeVsd();
  EXPECT_EQ(vsd.UnexpectedRegistrationEvents("alice", system.ledger()), 1u);
}

TEST(BoardFlooding, InvalidBallotsRejectedLinearly) {
  // Appendix M / [82]: because every ballot must carry a kiosk certificate,
  // flooding the board costs the attacker real rejections, each O(1) — the
  // tally never enters the quadratic JCJ regime.
  ChaChaRng rng(1002);
  Election election(SmallConfig({"alice"}), rng);
  Vsd vsd = election.trip().MakeVsd();
  auto alice = election.Register("alice", 0, vsd, rng);
  ASSERT_TRUE(alice.ok());
  ASSERT_TRUE(election.Cast(alice->activated[0], "A", rng).ok());

  // Flood with 200 self-signed ballots.
  for (int i = 0; i < 200; ++i) {
    SchnorrKeyPair forged = SchnorrKeyPair::Generate(rng);
    Ballot junk;
    junk.encrypted_vote =
        ElGamalEncrypt(election.trip().authority_pk(), RistrettoPoint::Base(), rng);
    junk.credential_pk = forged.public_bytes();
    junk.kiosk_pk = forged.public_bytes();
    junk.kiosk_cert = forged.Sign(AsBytes("x"), rng);
    junk.credential_sig = forged.Sign(junk.SignedPayload(), rng);
    election.ledger().PostBallot(junk.Serialize());
  }

  TallyDiscards discards;
  WallTimer timer;
  std::vector<Ballot> accepted = ValidateAndDeduplicate(
      election.ledger(), election.trip().authorized_kiosks(), &discards);
  double elapsed = timer.Seconds();
  EXPECT_EQ(accepted.size(), 1u);
  EXPECT_EQ(discards.invalid_signature, 200u);
  // O(1) per junk ballot: the whole flood filters in well under a second.
  EXPECT_LT(elapsed, 2.0);

  // The tally and verification still succeed.
  TallyOutput output = election.Tally(rng);
  EXPECT_EQ(output.result.counted, 1u);
  EXPECT_TRUE(election.Verify(output).ok());
}

TEST(BallotMalleability, ResignedCopyCannotHijackAVote) {
  // An attacker lifts Alice's posted ballot, swaps the encrypted vote for
  // its own, and re-posts. Without c_sk it cannot re-sign: the mutated
  // ballot fails the credential signature check.
  ChaChaRng rng(1003);
  Election election(SmallConfig({"alice"}), rng);
  Vsd vsd = election.trip().MakeVsd();
  auto alice = election.Register("alice", 0, vsd, rng);
  ASSERT_TRUE(alice.ok());
  ASSERT_TRUE(election.Cast(alice->activated[0], "A", rng).ok());

  auto posted = Ballot::Parse(election.ledger().AllBallots()[0]);
  ASSERT_TRUE(posted.has_value());
  Ballot mutated = *posted;
  mutated.encrypted_vote =
      ElGamalEncrypt(election.trip().authority_pk(),
                     RistrettoPoint::HashToGroup("votegral/candidate/v1", AsBytes("B")), rng);
  election.ledger().PostBallot(mutated.Serialize());

  TallyOutput output = election.Tally(rng);
  // The mutated "later" ballot is rejected (bad signature), so it does NOT
  // supersede Alice's genuine ballot.
  EXPECT_EQ(output.result.counts.at("A"), 1u);
  EXPECT_EQ(output.result.counts.at("B"), 0u);
  EXPECT_EQ(output.result.discards.invalid_signature, 1u);
}

TEST(BallotReplay, ExactReplaySupersedesHarmlessly) {
  // Replaying the identical ballot bytes is valid (same signature) but
  // changes nothing: dedup keeps one ballot with the same vote.
  ChaChaRng rng(1004);
  Election election(SmallConfig({"alice"}), rng);
  Vsd vsd = election.trip().MakeVsd();
  auto alice = election.Register("alice", 0, vsd, rng);
  ASSERT_TRUE(alice.ok());
  ASSERT_TRUE(election.Cast(alice->activated[0], "A", rng).ok());
  Bytes ballot_bytes = election.ledger().AllBallots()[0];
  election.ledger().PostBallot(ballot_bytes);
  election.ledger().PostBallot(ballot_bytes);

  TallyOutput output = election.Tally(rng);
  EXPECT_EQ(output.result.counted, 1u);
  EXPECT_EQ(output.result.counts.at("A"), 1u);
  EXPECT_EQ(output.result.discards.superseded, 2u);
  EXPECT_TRUE(election.Verify(output).ok());
}

TEST(CredentialSubstitution, CoercerCannotUseVictimsCertForOwnKey) {
  // The §4.5 "credential signing" defense: the kiosk certificate binds the
  // exact credential key, so a coercer cannot graft Alice's certificate
  // onto a key it controls (the forged-related-credential attack of [142]).
  ChaChaRng rng(1005);
  Election election(SmallConfig({"alice"}), rng);
  Vsd vsd = election.trip().MakeVsd();
  auto alice = election.Register("alice", 0, vsd, rng);
  ASSERT_TRUE(alice.ok());

  SchnorrKeyPair attacker = SchnorrKeyPair::Generate(rng);
  ActivatedCredential franken = alice->activated[0];
  franken.credential_sk = attacker.secret();
  franken.credential_pk = attacker.public_bytes();
  // kiosk_response_sig still covers Alice's original c_pk.
  Ballot ballot = MakeBallot(franken, election.candidates(), 1,
                             election.trip().authority_pk(), rng);
  EXPECT_FALSE(CheckBallot(ballot, election.trip().authorized_kiosks()).ok());
}

TEST(Availability, TallyToleratesGarbageAndEmptyLogs) {
  // Defensive-parsing sweep at the tally boundary: arbitrary junk in L_V
  // must never break the pipeline.
  ChaChaRng rng(1006);
  Election election(SmallConfig({"alice"}), rng);
  for (int i = 0; i < 50; ++i) {
    election.ledger().PostBallot(rng.RandomBytes(rng.Uniform(300)));
  }
  TallyOutput output = election.Tally(rng);
  EXPECT_EQ(output.result.counted, 0u);
  EXPECT_EQ(output.result.discards.invalid_structure +
                output.result.discards.invalid_signature,
            50u);
  EXPECT_TRUE(election.Verify(output).ok());
}

TEST(BatchedValidation, OneBadCredentialSignatureAmongValidBallotsInAShard) {
  // The validate stage checks a shard's signatures as one batch and only
  // falls back to per-ballot checks when the batch rejects. One ballot with
  // a valid kiosk certificate but a broken credential signature, sharing its
  // shard with valid ballots, must be the only discard — in the tally and in
  // the verifier's replay alike.
  ChaChaRng rng(1010);
  const std::vector<std::string> voters = {"v0", "v1", "v2", "v3"};
  Election election(SmallConfig(voters), rng);
  Vsd vsd = election.trip().MakeVsd();
  std::vector<ActivatedCredential> credentials;
  for (const std::string& voter : voters) {
    auto registered = election.Register(voter, 0, vsd, rng);
    ASSERT_TRUE(registered.ok());
    credentials.push_back(registered->activated[0]);
  }
  auto cast_round = [&](int round) {
    for (size_t v = 0; v < credentials.size(); ++v) {
      ASSERT_TRUE(election.Cast(credentials[v], (round + v) % 2 == 0 ? "A" : "B", rng).ok());
    }
  };
  for (int round = 0; round < 20; ++round) {
    cast_round(round);
  }
  const size_t bad_index = election.ledger().BallotCount();
  auto lifted = Ballot::Parse(election.ledger().AllBallots().back());
  ASSERT_TRUE(lifted.has_value());
  Ballot bad = *lifted;
  bad.credential_sig.s = bad.credential_sig.s + Scalar::One();
  ASSERT_EQ(CheckBallot(bad, election.trip().authorized_kiosks()).reason(),
            "ballot: credential signature invalid");
  election.ledger().PostBallot(bad.Serialize());
  for (int round = 20; round < 40; ++round) {
    cast_round(round);
  }

  // The bad ballot's validate shard also holds valid ballots.
  const size_t n = election.ledger().BallotCount();
  bool shared_shard = false;
  for (const auto& [begin, end] : Executor::Shards(n, Executor::kRngShards)) {
    if (begin <= bad_index && bad_index < end) {
      shared_shard = end - begin > 1;
    }
  }
  ASSERT_TRUE(shared_shard);

  TallyDiscards discards;
  std::vector<Ballot> accepted =
      ValidateAndDeduplicate(election.ledger(), election.trip().authorized_kiosks(), &discards);
  EXPECT_EQ(discards.invalid_signature, 1u);
  EXPECT_EQ(discards.invalid_structure, 0u);
  EXPECT_EQ(accepted.size(), voters.size());

  TallyOutput output = election.Tally(rng);
  EXPECT_EQ(output.result.discards.invalid_signature, 1u);
  ASSERT_EQ(output.transcript.accepted_ballots.size(), accepted.size());
  for (size_t i = 0; i < accepted.size(); ++i) {
    EXPECT_EQ(output.transcript.accepted_ballots[i].Serialize(), accepted[i].Serialize()) << i;
  }
  EXPECT_EQ(output.result.counted, voters.size());
  EXPECT_TRUE(election.Verify(output).ok());
}

TEST(BatchedValidation, BadOfficialSignatureInRosterNamedExactly) {
  // The verifier checks every roster signature as one batch; when it
  // rejects, the per-record pass must report the lowest failing record with
  // its exact reason. Record 3 carries a broken official signature and
  // record 5 a broken kiosk signature, so record 3's reason wins.
  ChaChaRng rng(1011);
  const std::vector<std::string> voters = {"v0", "v1", "v2", "v3", "v4", "v5", "v6"};
  Election election(SmallConfig(voters), rng);
  Vsd vsd = election.trip().MakeVsd();
  for (const std::string& voter : voters) {
    auto registered = election.Register(voter, 0, vsd, rng);
    ASSERT_TRUE(registered.ok());
    ASSERT_TRUE(election.Cast(registered->activated[0], "A", rng).ok());
  }
  auto repost = [&](const std::string& voter, bool break_official) {
    auto record = election.ledger().ActiveRegistration(voter);
    ASSERT_TRUE(record.has_value());
    SchnorrSignature& sig = break_official ? record->official_sig : record->kiosk_sig;
    sig.s = sig.s + Scalar::One();
    ASSERT_TRUE(election.ledger().PostRegistration(*record).ok());
  };
  repost("v3", /*break_official=*/true);
  repost("v5", /*break_official=*/false);
  const std::vector<RegistrationRecord> roster = election.ledger().ActiveRegistrations();
  ASSERT_EQ(roster.size(), voters.size());
  ASSERT_EQ(roster[3].voter_id, "v3");

  TallyOutput output = election.Tally(rng);
  Status status = election.Verify(output);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.reason(), "registration record: official signature invalid");
  Status direct = VerifyRegistrationRecords(roster, election.trip().authorized_kiosks(),
                                            election.trip().authorized_officials(),
                                            election.executor());
  EXPECT_EQ(direct.reason(), "registration record: official signature invalid");
}

}  // namespace
}  // namespace votegral
