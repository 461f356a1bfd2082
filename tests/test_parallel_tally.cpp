// Tests for the staged parallel tally pipeline: the transcript and the
// universal-verification verdict must be byte-identical at any thread
// count, and the parallel verifier must still localize a single corrupted
// link or share to the exact pair/index.
#include <gtest/gtest.h>

#include "src/common/bytes.h"
#include "src/crypto/drbg.h"
#include "src/crypto/sha256.h"
#include "src/votegral/election.h"
#include "tests/transcript_digest.h"

namespace votegral {
namespace {

// Builds one fixed election (setup + registration + casting is serial and
// seeded, so the ledger is identical across calls), tallies and verifies it
// on an executor with the given thread count.
struct TalliedElection {
  std::array<uint8_t, 32> digest;       // extended: protocol bytes + wire caches
  std::array<uint8_t, 32> protocol_digest;  // pre-wire field set (golden-pinned)
  std::array<uint8_t, 32> except_tag_proofs;  // extended digest minus tag proofs
  bool verified = false;
  TallyResult result;
};

TalliedElection RunElection(size_t threads) {
  ChaChaRng rng(0x7A11E7);
  ElectionConfig config;
  config.roster = {"alice", "bob", "carol", "dave", "erin", "frank"};
  config.candidates = {"Alpha", "Beta", "Gamma"};
  config.threads = threads;
  Election election(config, rng);
  Vsd vsd = election.trip().MakeVsd();
  const char* choices[] = {"Alpha", "Alpha", "Beta", "Gamma", "Alpha", "Beta"};
  for (size_t i = 0; i < config.roster.size(); ++i) {
    auto voter = election.Register(config.roster[i], /*fake_count=*/1, vsd, rng);
    EXPECT_TRUE(voter.ok()) << voter.status.reason();
    EXPECT_TRUE(election.Cast(voter->activated[0], choices[i], rng).ok());
    // Every voter also casts a decoy with the fake credential.
    EXPECT_TRUE(election.Cast(voter->activated[1], "Gamma", rng).ok());
  }
  // The tally draws from a fresh, fixed stream so the transcript comparison
  // is exact by construction.
  ChaChaRng tally_rng(0x7A11E8);
  TallyOutput output = election.Tally(tally_rng);
  TalliedElection out;
  out.digest = DigestTranscriptWithWire(output);
  out.protocol_digest = DigestTranscript(output);
  out.except_tag_proofs = DigestTranscriptExceptTagProofs(output);
  out.verified = election.Verify(output).ok();
  out.result = output.result;
  return out;
}

// The protocol-byte digest of this fixed election with composite
// (per-shard) tagging proofs. It was 262d9019…edb3f while tagging carried one
// proof per ciphertext; that value had held since before the wire-byte DLEQ
// change, which moved no transcript byte.
constexpr const char* kGoldenDigestHex =
    "8bb0e71b037f6baa18adbe49a68e5c6b2a34bafd72030912a99e7e694419c3df";

// DigestTranscriptExceptTagProofs of the same election, captured with
// per-ciphertext tagging proofs: the composite proofs draw one nonce per
// shard from the same forked per-shard streams, so no other byte — mix,
// tag outputs and wires, shares, tags, result — may move.
constexpr const char* kExceptTagProofsDigestHex =
    "9cf8ab265e45b1d03a4d1f16ca151c306ce7a41f6d5e9a0302e22c42506af4ac";

// DigestTranscriptWithWire of the same election: the protocol bytes plus the
// wire caches. Captured while a second, stage-wide barrier scheduler still
// produced this transcript byte for byte, so it stands in for that engine as
// the reference the dataflow engine is checked against.
constexpr const char* kWireDigestHex =
    "0e25489d7e504daad1a7ded9fcca5c3a5554ee9819e38c63efa06c94b89a45e3";

TEST(ParallelTally, TranscriptByteIdenticalAcrossThreadCounts) {
  TalliedElection serial = RunElection(1);
  EXPECT_TRUE(serial.verified);
  EXPECT_EQ(serial.result.counted, 6u);
  EXPECT_EQ(serial.result.counts.at("Alpha"), 3u);
  EXPECT_EQ(serial.result.counts.at("Beta"), 2u);
  EXPECT_EQ(serial.result.counts.at("Gamma"), 1u);
  EXPECT_EQ(serial.result.discards.unmatched_tag, 6u);  // the six decoys

  for (size_t threads : {size_t{2}, size_t{8}}) {
    TalliedElection parallel = RunElection(threads);
    EXPECT_EQ(parallel.digest, serial.digest) << "threads=" << threads;
    EXPECT_EQ(parallel.verified, serial.verified) << "threads=" << threads;
    EXPECT_EQ(parallel.result.counts, serial.result.counts) << "threads=" << threads;
  }
}

TEST(ParallelTally, TranscriptMatchesGoldenDigest) {
  // Every protocol byte — proofs, ciphertexts, tags, shares, mix wire — is
  // pinned; the wire caches are a transport for bytes the transcript already
  // contains, never new protocol state.
  TalliedElection serial = RunElection(1);
  EXPECT_EQ(HexEncode(serial.protocol_digest), kGoldenDigestHex);
}

TEST(ParallelTally, OnlyTagProofsDifferFromPerItemProofTranscript) {
  TalliedElection serial = RunElection(1);
  EXPECT_EQ(HexEncode(serial.except_tag_proofs), kExceptTagProofsDigestHex);
}

TEST(ParallelTally, AllDigestsPinnedAtEveryThreadCount) {
  // Scheduling decides only when a shard runs, never what it computes: the
  // wire-extended digest, the protocol digest and the except-tag-proofs
  // digest must all hold their pinned values at every thread count.
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    TalliedElection run = RunElection(threads);
    EXPECT_EQ(HexEncode(run.digest), kWireDigestHex) << "threads=" << threads;
    EXPECT_EQ(HexEncode(run.protocol_digest), kGoldenDigestHex) << "threads=" << threads;
    EXPECT_EQ(HexEncode(run.except_tag_proofs), kExceptTagProofsDigestHex)
        << "threads=" << threads;
    EXPECT_TRUE(run.verified) << "threads=" << threads;
  }
}

// A full election fixture the localization tests tamper with.
struct Fixture {
  Fixture()
      : rng(0x10CA1),
        election(MakeConfig(), rng),
        vsd(election.trip().MakeVsd()) {
    for (const char* id : {"alice", "bob", "carol"}) {
      auto voter = election.Register(id, 1, vsd, rng);
      EXPECT_TRUE(voter.ok());
      EXPECT_TRUE(election.Cast(voter->activated[0], "Alpha", rng).ok());
      EXPECT_TRUE(election.Cast(voter->activated[1], "Beta", rng).ok());
    }
    output = election.Tally(rng);
    EXPECT_TRUE(election.Verify(output).ok());
  }

  static ElectionConfig MakeConfig() {
    ElectionConfig config;
    config.roster = {"alice", "bob", "carol"};
    config.candidates = {"Alpha", "Beta"};
    config.threads = 8;  // exercise the parallel verifier paths
    return config;
  }

  ChaChaRng rng;
  Election election;
  Vsd vsd;
  TallyOutput output;
};

TEST(ParallelVerifier, CorruptedLinkLocalizedToExactPairAndIndex) {
  Fixture f;
  // Tamper with one reveal's randomness in pair 1: the batched MSM rejects
  // and the (parallel) per-link fallback must name pair 1 and the index.
  TallyOutput bad = f.output;
  ASSERT_GT(bad.transcript.ballot_mix_proof.pairs.size(), 1u);
  auto& reveal = bad.transcript.ballot_mix_proof.pairs[1].reveals[2];
  reveal.randomness[0] = reveal.randomness[0] + Scalar::One();
  Status status = f.election.Verify(bad);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.reason().find("re-encryption check failed at pair 1 index 2"),
            std::string::npos)
      << status.reason();
}

TEST(ParallelVerifier, CorruptedShareLocalizedToExactIndex) {
  Fixture f;
  // Tamper with one decryption share of ballot-tag ciphertext 2: the batch
  // rejects; localization must name that ciphertext index.
  TallyOutput bad = f.output;
  ASSERT_GT(bad.transcript.ballot_tag_shares.size(), 2u);
  bad.transcript.ballot_tag_shares[2][1].share =
      bad.transcript.ballot_tag_shares[2][1].share + RistrettoPoint::Base();
  Status status = f.election.Verify(bad);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.reason().find("ballot tags: share proof invalid at 2"),
            std::string::npos)
      << status.reason();
}

TEST(ParallelVerifier, CorruptedTaggingProofLocalized) {
  Fixture f;
  TallyOutput bad = f.output;
  ASSERT_FALSE(bad.transcript.roster_tag_steps.empty());
  // Swap one tagging output ciphertext for another — wire caches included,
  // so the caches stay internally consistent and it is the *proofs* that no
  // longer verify; the batched chain check falls back per shard and names
  // the shard holding index 0 (this small election has one ciphertext per
  // shard). (Swapping points alone is caught earlier, as a stale wire cache
  // — see CorruptedTaggingWireCacheLocalized.)
  auto& step = bad.transcript.roster_tag_steps[0];
  ASSERT_GT(step.output.size(), 1u);
  std::swap(step.output[0], step.output[1]);
  ASSERT_TRUE(step.HasWire());
  std::swap(step.output_wire[0], step.output_wire[1]);
  Status status = f.election.Verify(bad);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.reason().find("tagging: step 0 shard 0 [0, 1) proof invalid"),
            std::string::npos)
      << status.reason();
}

TEST(ParallelVerifier, CorruptedTaggingWireCacheLocalized) {
  Fixture f;
  // Substitute a tagging output ciphertext without refreshing its wire
  // cache: the chain verifier must refuse to let the cached bytes back the
  // next statement's hash (same rule as the mixnet's stale-cache case).
  TallyOutput bad = f.output;
  ASSERT_FALSE(bad.transcript.roster_tag_steps.empty());
  auto& step = bad.transcript.roster_tag_steps[0];
  ASSERT_GT(step.output.size(), 1u);
  ASSERT_TRUE(step.HasWire());
  std::swap(step.output[0], step.output[1]);  // points move, caches do not
  Status status = f.election.Verify(bad);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.reason().find("step 0 output wire cache does not match ciphertexts"),
            std::string::npos)
      << status.reason();
}

TEST(ParallelVerifier, StaleWireCacheRejected) {
  Fixture f;
  // Substitute a mixed ciphertext without refreshing its wire cache: the
  // verifier must refuse to hash cached bytes that no longer match the
  // points (otherwise a cheating mixer could grind challenge bits).
  TallyOutput bad = f.output;
  ASSERT_FALSE(bad.transcript.ballot_mix_output.empty());
  ASSERT_TRUE(bad.transcript.ballot_mix_output[0].HasWire());
  bad.transcript.ballot_mix_output[0].cts[0] = ElGamalEncrypt(
      f.election.trip().authority_pk(), RistrettoPoint::Base(), f.rng);
  Status status = f.election.Verify(bad);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.reason().find("wire cache does not match points"), std::string::npos)
      << status.reason();
}

TEST(ParallelTally, SerialAndGlobalExecutorAgree) {
  // TallyService with an explicit serial executor produces the same
  // transcript as the config-driven pools above (threads=1 escape hatch).
  TalliedElection serial = RunElection(1);
  TalliedElection pooled = RunElection(0);  // 0 = global pool
  EXPECT_EQ(serial.digest, pooled.digest);
}

}  // namespace
}  // namespace votegral
