// Executable analogues of the paper's formal security games (Appendix F):
//
//  * C-Resist (F.1): a coercer who demands credentials and inspects
//    receipts, the ledger, and the tally must not distinguish a complying
//    voter from an evading one. We run both worlds with the real machinery
//    and check that every observable the proof enumerates is identically
//    distributed (or differs only through D_c/D_v statistics).
//
//  * Game IV (F.3): the integrity adversary controls the registrar and wins
//    by making the ledger bind a credential the voter did not create,
//    without tripping the VSD's activation checks. We enumerate its
//    strategies against the real checks.
//
//  * Tagger soundness: a tagging member that deviates inside one shard —
//    a wrong output, a permutation, or an exponent z' other than its
//    committed z — must be rejected and blamed on that (step, shard), even
//    when it proves over exactly what it published.
//
// These are sanity executions of the games, not proofs — the value is that
// every observable and check referenced by the paper's argument exists in
// the code and behaves as the proof assumes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "src/crypto/drbg.h"
#include "src/trip/attacks.h"
#include "src/votegral/election.h"
#include "src/votegral/mixnet.h"

namespace votegral {
namespace {

ElectionConfig GameConfig(size_t honest_voters) {
  ElectionConfig config;
  config.roster = {"target"};
  for (size_t i = 0; i < honest_voters; ++i) {
    config.roster.push_back("honest-" + std::to_string(i));
  }
  config.candidates = {"coerced-choice", "true-choice"};
  return config;
}

// The coercer's view of a surrendered credential: everything printed on the
// receipt plus the ledger record. Returns a feature vector of the checks a
// computationally-bounded coercer can run.
struct CoercerView {
  bool transcript_valid;
  bool checkout_matches_ledger;
  bool kiosk_authorized;
  size_t receipt_bytes;
};

CoercerView InspectCredential(const PaperCredential& credential, TripSystem& system) {
  CoercerView view{};
  // Structural proof check (what a coercer's tool would do — same equations
  // as the VSD, minus the one-time challenge-reveal which burns the
  // credential).
  RistrettoPoint credential_pk = RistrettoPoint::MulBase(credential.response.credential_sk);
  RistrettoPoint big_x = credential.commit.public_credential.c2 - credential_pk;
  DleqStatement statement =
      DleqStatement::MakePair(RistrettoPoint::Base(), credential.commit.public_credential.c1,
                              system.authority_pk(), big_x);
  DleqTranscript transcript;
  transcript.commits = {credential.commit.commit_y1, credential.commit.commit_y2};
  transcript.challenge = credential.envelope.challenge;
  transcript.response = credential.response.zkp_response;
  view.transcript_valid = VerifyDleqTranscript(statement, transcript).ok();

  auto record = system.ledger().ActiveRegistration(credential.commit.voter_id);
  view.checkout_matches_ledger =
      record.has_value() && record->public_credential == credential.commit.public_credential;
  view.kiosk_authorized =
      system.authorized_kiosks().count(credential.response.kiosk_pk) > 0;
  view.receipt_bytes = credential.commit.Serialize().size() +
                       credential.checkout.Serialize().size() +
                       credential.response.Serialize().size();
  return view;
}

TEST(CoercionGame, SurrenderedRealAndFakeViewsAreIdentical) {
  // Hybrid 2 of the proof: handing the coercer a fake credential instead of
  // the real one changes nothing the coercer can evaluate.
  ChaChaRng rng(700);
  Election election(GameConfig(3), rng);
  Vsd vsd = election.trip().MakeVsd();
  auto target = election.Register("target", 1, vsd, rng);
  ASSERT_TRUE(target.ok());

  CoercerView real_view = InspectCredential(target->paper.real, election.trip());
  CoercerView fake_view = InspectCredential(target->paper.fakes[0], election.trip());

  EXPECT_TRUE(real_view.transcript_valid);
  EXPECT_TRUE(fake_view.transcript_valid);  // the simulated transcript holds
  EXPECT_EQ(real_view.checkout_matches_ledger, fake_view.checkout_matches_ledger);
  EXPECT_EQ(real_view.kiosk_authorized, fake_view.kiosk_authorized);
  EXPECT_EQ(real_view.receipt_bytes, fake_view.receipt_bytes);
}

TEST(CoercionGame, ComplyAndEvadeWorldsMatchOnAllObservables) {
  // The full experiment: world b=1 (comply: coercer gets the real
  // credential, target casts nothing else) vs world b=0 (evade: coercer
  // gets a fake, target privately casts). With one honest voter casting the
  // same ballot content in both worlds, every public observable except the
  // D_v-governed tallies must match; the tally difference is exactly the
  // honest-voter cover the ideal game allows.
  for (int world = 0; world <= 1; ++world) {
    ChaChaRng rng(701);  // identical randomness in both worlds
    Election election(GameConfig(2), rng);
    Vsd vsd = election.trip().MakeVsd();
    auto target = election.Register("target", 1, vsd, rng);
    ASSERT_TRUE(target.ok());
    auto honest0 = election.Register("honest-0", 1, vsd, rng);
    auto honest1 = election.Register("honest-1", 1, vsd, rng);
    ASSERT_TRUE(honest0.ok());
    ASSERT_TRUE(honest1.ok());

    // Coercer's demanded vote, cast with the surrendered credential.
    const ActivatedCredential& surrendered =
        (world == 1) ? target->activated[0] : target->activated[1];
    ASSERT_TRUE(election.Cast(surrendered, "coerced-choice", rng).ok());
    if (world == 0) {
      ASSERT_TRUE(election.Cast(target->activated[0], "true-choice", rng).ok());
    }
    // Honest cover: one voter for each choice.
    ASSERT_TRUE(election.Cast(honest0->activated[0], "true-choice", rng).ok());
    ASSERT_TRUE(election.Cast(honest1->activated[0], "coerced-choice", rng).ok());

    TallyOutput output = election.Tally(rng);
    ASSERT_TRUE(election.Verify(output).ok());

    // Observables available to the coercer:
    size_t ledger_registrations = election.ledger().ActiveRegistrations().size();
    size_t revealed_challenges = election.ledger().revealed_challenge_count();
    size_t ballots_posted = election.ledger().AllBallots().size();
    EXPECT_EQ(ledger_registrations, 3u);
    EXPECT_EQ(revealed_challenges, 6u);  // 3 voters x (1 real + 1 fake)
    EXPECT_EQ(ballots_posted, world == 0 ? 4u : 3u);  // the evader casts once more...
    // ...but the coercer cannot attribute the extra anonymous ballot: with
    // honest voters also holding fakes, any of them could have cast it.
    // What the tally reveals:
    if (world == 1) {
      // Comply: coerced vote counts.
      EXPECT_EQ(output.result.counts.at("coerced-choice"), 2u);
      EXPECT_EQ(output.result.counts.at("true-choice"), 1u);
    } else {
      // Evade: target's true vote counts instead.
      EXPECT_EQ(output.result.counts.at("coerced-choice"), 1u);
      EXPECT_EQ(output.result.counts.at("true-choice"), 2u);
    }
    // In both worlds the tallies are consistent with "some voter voted each
    // way" — the statistical uncertainty (D_v) the ideal game leaves the
    // adversary. No observable identifies WHICH voter produced which count.
  }
}

TEST(CoercionGame, EncryptingTheSurrenderedKeyDoesNotMatchLedger) {
  // The §5.2 argument: the coercer re-encrypts the surrendered credential's
  // public key under A_pk and compares with the ledger's c_pc — randomized
  // encryption makes the comparison useless for real AND fake credentials.
  ChaChaRng rng(702);
  Election election(GameConfig(0), rng);
  Vsd vsd = election.trip().MakeVsd();
  auto target = election.Register("target", 1, vsd, rng);
  ASSERT_TRUE(target.ok());
  auto record = election.ledger().ActiveRegistration("target");
  ASSERT_TRUE(record.has_value());
  for (const ActivatedCredential& credential :
       {target->activated[0], target->activated[1]}) {
    auto point = RistrettoPoint::Decode(credential.credential_pk);
    ASSERT_TRUE(point.has_value());
    auto re_encrypted = ElGamalEncrypt(election.trip().authority_pk(), *point, rng);
    EXPECT_NE(re_encrypted, record->public_credential);
  }
}

TEST(CoercionGame, OneExtraFakeAlwaysAvailable) {
  // "voters can always generate one more fake credential" (§5.2): a coercer
  // demanding N credentials before registration still cannot exhaust the
  // voter's ability to keep the real one secret.
  ChaChaRng rng(703);
  Election election(GameConfig(0), rng);
  Vsd vsd = election.trip().MakeVsd();
  const size_t demanded = 4;
  auto target = election.Register("target", demanded + 1, vsd, rng);
  ASSERT_TRUE(target.ok());
  // Hand over `demanded` fakes plus "one additional credential - their real
  // one"... which is actually another fake.
  std::vector<const ActivatedCredential*> surrendered;
  for (size_t i = 1; i <= demanded + 1; ++i) {
    surrendered.push_back(&target->activated[i]);
  }
  EXPECT_EQ(surrendered.size(), demanded + 1);
  // All surrendered credentials are fakes; the real one stays private, and
  // each surrendered one passes the coercer's inspection.
  for (const ActivatedCredential* credential : surrendered) {
    EXPECT_NE(credential->credential_pk, target->activated[0].credential_pk);
  }
}

// ---------------------------------------------------------------------------
// C-Resist under deniable revoting (docs/REVOTING.md)
// ---------------------------------------------------------------------------

// Everything the revote board reveals to a coercer who audits the published
// transcript: the post-mix group-size multiset (replayed from the verified
// tags and counters — the coercer runs the same pure selection function the
// verifier does), the discard counters, and the board/accepted sizes.
struct CoercerBoardView {
  size_t board_size = 0;
  size_t accepted = 0;
  std::map<uint64_t, size_t> group_sizes;
  size_t superseded = 0;
  size_t duplicate_tag = 0;
  size_t unmatched_tag = 0;

  bool operator==(const CoercerBoardView&) const = default;
};

CoercerBoardView InspectBoard(Election& election, const TallyOutput& output) {
  CoercerBoardView view;
  view.board_size = election.ledger().AllBallots().size();
  const RevoteTranscript& rt = output.transcript.revote;
  view.accepted = rt.accepted.size();
  view.group_sizes = SelectLastPerTag(rt.tags, rt.counter_points).group_sizes;
  view.superseded = output.result.discards.superseded;
  view.duplicate_tag = output.result.discards.duplicate_tag;
  view.unmatched_tag = output.result.discards.unmatched_tag;
  return view;
}

// Runs one world of the revoting C-Resist game and returns the coercer's
// board view. World b=1 (comply): the coercer casts with the surrendered
// real credential and the target only adds a fake-credential decoy. World
// b=0 (evade): the target secretly revotes over the coercer's cast with a
// higher counter. Both worlds post the same number of ballots.
CoercerBoardView RunRevoteWorld(int world, bool padding, TallyResult* result = nullptr) {
  ChaChaRng rng(720);  // identical randomness in both worlds
  ElectionConfig config = GameConfig(2);
  config.revoting = true;
  config.revote_padding = padding;
  Election election(config, rng);
  Vsd vsd = election.trip().MakeVsd();
  auto target = election.Register("target", 1, vsd, rng);
  auto honest0 = election.Register("honest-0", 1, vsd, rng);
  auto honest1 = election.Register("honest-1", 1, vsd, rng);
  EXPECT_TRUE(target.ok() && honest0.ok() && honest1.ok());

  // The coercer votes with the surrendered real credential at a counter of
  // their choosing.
  EXPECT_TRUE(election.CastRevote(target->activated[0], "coerced-choice", 0, rng).ok());
  if (world == 0) {
    // Evade: outbid the coercer's counter in secret.
    EXPECT_TRUE(election.CastRevote(target->activated[0], "true-choice", 1, rng).ok());
  } else {
    // Comply: the extra anonymous ballot is a fake-credential decoy.
    EXPECT_TRUE(election.Cast(target->activated[1], "true-choice", rng).ok());
  }
  // Honest cover: one voter for each choice.
  EXPECT_TRUE(election.Cast(honest0->activated[0], "true-choice", rng).ok());
  EXPECT_TRUE(election.Cast(honest1->activated[0], "coerced-choice", rng).ok());

  TallyOutput output = election.Tally(rng);
  EXPECT_TRUE(election.Verify(output).ok());
  if (result != nullptr) {
    *result = output.result;
  }
  return InspectBoard(election, output);
}

TEST(RevoteCoercionGame, PaddedBoardViewsAreIndistinguishable) {
  // With cover-traffic padding the revealed group-size multiset is lifted to
  // the T=4 envelope in BOTH worlds — every observable the coercer can
  // compute from the board is identical, so revoting stays deniable.
  TallyResult evade_result, comply_result;
  CoercerBoardView evade = RunRevoteWorld(0, /*padding=*/true, &evade_result);
  CoercerBoardView comply = RunRevoteWorld(1, /*padding=*/true, &comply_result);
  EXPECT_EQ(evade, comply);
  // The tallies differ exactly by the honest-voter cover the ideal game
  // allows (same D_v argument as ComplyAndEvadeWorldsMatchOnAllObservables).
  EXPECT_EQ(evade_result.counts.at("true-choice"), 2u);
  EXPECT_EQ(evade_result.counts.at("coerced-choice"), 1u);
  EXPECT_EQ(comply_result.counts.at("true-choice"), 1u);
  EXPECT_EQ(comply_result.counts.at("coerced-choice"), 2u);
}

TEST(RevoteCoercionGame, UnpaddedControlIsDistinguishable) {
  // The control arm: with padding disabled the evade world shows a size-2
  // group where the comply world shows singletons — the coercer reads the
  // revote straight off the board. This is exactly the leak the envelope
  // exists to close.
  CoercerBoardView evade = RunRevoteWorld(0, /*padding=*/false);
  CoercerBoardView comply = RunRevoteWorld(1, /*padding=*/false);
  EXPECT_NE(evade.group_sizes, comply.group_sizes);
  EXPECT_EQ(evade.group_sizes[2], 1u);   // the target's superseded pair
  EXPECT_EQ(comply.group_sizes[2], 0u);  // all singletons
  EXPECT_EQ(evade.board_size, comply.board_size);  // ...and NOT by ballot count
}

// ---------------------------------------------------------------------------
// Game IV (F.3)
// ---------------------------------------------------------------------------

TEST(IntegrityGame, AdversaryCannotForgeSoundProofForWrongKey) {
  // Strategy (a) of the theorem: forging the Σ-protocol. The kiosk commits
  // first (sound order), then tries to claim a different credential than
  // the one in c_pc: the response equation fails for any response it can
  // compute without solving DLP. We check the verifier rejects transcripts
  // where the claimed key differs.
  ChaChaRng rng(710);
  TripSystemParams params;
  params.roster = {"target"};
  TripSystem system = TripSystem::Create(params, rng);
  RegistrationDesk desk(system);
  auto outcome = desk.RegisterVoter("target", 0, rng);
  ASSERT_TRUE(outcome.ok());

  // Swap in a different credential secret (the adversary's "claimed" key):
  // the transcript equations now verify against X' = C2 - claimed_pk, which
  // no longer matches the committed Y values.
  PaperCredential forged = outcome->real;
  forged.response.credential_sk = Scalar::Random(rng);
  Vsd vsd = system.MakeVsd();
  auto activated = vsd.Activate(forged, system.ledger());
  EXPECT_FALSE(activated.ok());
}

TEST(IntegrityGame, SuccessProbabilityMatchesTheoremAcrossStrategies) {
  // Strategy (b): guessing the challenge via duplicates. Sweep k and verify
  // the simulated win rate never exceeds the theorem bound (+3σ).
  ChaChaRng rng(711);
  const size_t n_e = 16;
  const size_t n_c = 2;
  const int trials = 20000;
  for (size_t k : {2u, 4u, 8u}) {
    int wins = 0;
    for (int t = 0; t < trials; ++t) {
      std::vector<size_t> pool(n_e);
      for (size_t i = 0; i < n_e; ++i) {
        pool[i] = i;
      }
      bool real_stuffed = false;
      bool fake_stuffed = false;
      for (size_t pick = 0; pick < n_c; ++pick) {
        size_t j = pick + rng.Uniform(pool.size() - pick);
        std::swap(pool[pick], pool[j]);
        bool stuffed = pool[pick] < k;
        (pick == 0 ? real_stuffed : fake_stuffed) |= stuffed;
      }
      wins += (real_stuffed && !fake_stuffed) ? 1 : 0;
    }
    double rate = static_cast<double>(wins) / trials;
    double bound = IvAdversaryBound(n_e, k, n_c);
    double sigma = std::sqrt(bound * (1 - bound) / trials);
    EXPECT_LE(rate, bound + 3 * sigma) << "k=" << k;
    EXPECT_GE(rate, bound - 3 * sigma) << "k=" << k;
  }
}

TEST(IntegrityGame, TamperingAfterRegistrationIsDetected) {
  // The theorem's first case: post-registration tampering. A registrar that
  // rewrites the voter's ledger record after activation is caught by the
  // hash chain; a re-posted (superseding) record triggers the VSD's
  // registration-event monitoring.
  ChaChaRng rng(712);
  TripSystemParams params;
  params.roster = {"target"};
  TripSystem system = TripSystem::Create(params, rng);
  Vsd vsd = system.MakeVsd();
  auto voter = RegisterAndActivate(system, "target", 0, vsd, rng);
  ASSERT_TRUE(voter.ok());

  // In-place rewrite: hash chain breaks.
  Bytes forged = voter->paper.real.checkout.Serialize();
  system.ledger().mutable_registration_log().TamperWithPayloadForTest(0, forged);
  EXPECT_FALSE(system.ledger().VerifyChains().ok());
}

// ---------------------------------------------------------------------------
// Tagger soundness (composite per-shard proofs)
// ---------------------------------------------------------------------------

// One tallied election with 70 ballots, so the ballot tagging chain's shards
// hold two ciphertexts each at the front (shard 0 is [0, 2)).
class TaggerGame : public ::testing::Test {
 protected:
  static constexpr size_t kVoters = 70;

  static void SetUpTestSuite() {
    rng_ = new ChaChaRng(720);
    ElectionConfig config = GameConfig(kVoters - 1);
    election_ = new Election(config, *rng_);
    Vsd vsd = election_->trip().MakeVsd();
    for (const std::string& id : config.roster) {
      auto voter = election_->Register(id, 0, vsd, *rng_);
      ASSERT_TRUE(voter.ok()) << voter.status.reason();
      ASSERT_TRUE(election_->Cast(voter->activated[0], "true-choice", *rng_).ok());
    }
    honest_ = new TallyOutput(election_->Tally(*rng_));
  }

  static void TearDownTestSuite() {
    delete honest_;
    delete election_;
    delete rng_;
  }

  // The input of ballot tagging step t and its (validated) wire bytes.
  static std::vector<ElGamalCiphertext> StepInput(const TallyOutput& out, size_t t) {
    return t == 0 ? BatchColumn(out.transcript.ballot_mix_output, 1)
                  : out.transcript.ballot_tag_steps[t - 1].output;
  }
  static std::vector<ElGamalWire> StepInputWire(const TallyOutput& out, size_t t) {
    return t == 0 ? BatchColumnWire(out.transcript.ballot_mix_output, 1)
                  : out.transcript.ballot_tag_steps[t - 1].output_wire;
  }

  // Member t proves shard s over whatever its step now publishes.
  static void Reprove(TallyOutput& out, size_t t, size_t s) {
    const TaggingService& tagging = election_->tagging();
    tagging.ProveShard(t, StepInput(out, t), StepInputWire(out, t),
                       tagging.commitments()[t].Encode(), s, *rng_,
                       out.transcript.ballot_tag_steps[t]);
  }

  // Both verifiers must reject, blaming `blame` (step, shard and range).
  static void ExpectRejected(const TallyOutput& out, const std::string& blame) {
    Status chain = TaggingService::VerifyChain(
        StepInput(out, 0), out.transcript.ballot_tag_steps,
        election_->tagging().commitments(), election_->executor(), StepInputWire(out, 0));
    ASSERT_FALSE(chain.ok());
    EXPECT_NE(chain.reason().find(blame), std::string::npos) << chain.reason();
    Status full = election_->Verify(out);
    ASSERT_FALSE(full.ok());
    EXPECT_NE(full.reason().find("verifier: ballot tagging: " + blame), std::string::npos)
        << full.reason();
  }

  static ChaChaRng* rng_;
  static Election* election_;
  static TallyOutput* honest_;
};

ChaChaRng* TaggerGame::rng_ = nullptr;
Election* TaggerGame::election_ = nullptr;
TallyOutput* TaggerGame::honest_ = nullptr;

TEST_F(TaggerGame, HonestTranscriptHasOneProofPerShard) {
  const auto shards = Executor::Shards(kVoters, Executor::kRngShards);
  ASSERT_EQ(shards[0], (std::pair<size_t, size_t>{0, 2}));
  ASSERT_EQ(honest_->transcript.ballot_tag_steps.size(), 4u);
  for (const TaggingStep& step : honest_->transcript.ballot_tag_steps) {
    EXPECT_EQ(step.output.size(), kVoters);
    EXPECT_EQ(step.proofs.size(), shards.size());
  }
  EXPECT_TRUE(election_->Verify(*honest_).ok());
}

TEST_F(TaggerGame, OneWrongOutputInAnOtherwiseHonestShard) {
  TallyOutput out = *honest_;
  TaggingStep& step = out.transcript.ballot_tag_steps[1];
  step.output[1].c2 = step.output[1].c2 + RistrettoPoint::Base();
  step.output_wire[1] = step.output[1].Wire();
  Reprove(out, 1, 0);
  ExpectRejected(out, "tagging: step 1 shard 0 [0, 2) proof invalid: composite equation failed");
}

TEST_F(TaggerGame, TwoOutputsSwappedWithinAShard) {
  TallyOutput out = *honest_;
  TaggingStep& step = out.transcript.ballot_tag_steps[2];
  std::swap(step.output[0], step.output[1]);
  std::swap(step.output_wire[0], step.output_wire[1]);  // caches stay consistent
  Reprove(out, 2, 0);
  ExpectRejected(out, "tagging: step 2 shard 0 [0, 2) proof invalid: composite equation failed");
}

TEST_F(TaggerGame, DeviantExponentForAWholeShard) {
  // Member 3 tags shard 0 with its own z' and proves that against its
  // published Z_3 — the challenge binds, the commitment equation cannot.
  TallyOutput out = *honest_;
  ChaChaRng rng(721);
  TaggingService deviant = TaggingService::Create(4, rng);
  deviant.ApplyShard(3, StepInput(out, 3), StepInputWire(out, 3),
                     election_->tagging().commitments()[3].Encode(), 0, rng,
                     out.transcript.ballot_tag_steps[3]);
  ExpectRejected(out,
                 "tagging: step 3 shard 0 [0, 2) proof invalid: commitment equation failed");
}

}  // namespace
}  // namespace votegral
