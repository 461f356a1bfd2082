// Tests for the RPC mix cascade and the deterministic tagging service.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/crypto/dkg.h"
#include "src/crypto/drbg.h"
#include "src/votegral/mixnet.h"
#include "src/votegral/tagging.h"

namespace votegral {
namespace {

// Builds a batch of `n` width-`w` items encrypting known points.
MixBatch MakeBatch(size_t n, size_t width, const RistrettoPoint& pk,
                   std::vector<std::vector<RistrettoPoint>>* plaintexts, Rng& rng) {
  MixBatch batch;
  plaintexts->clear();
  for (size_t i = 0; i < n; ++i) {
    MixItem item;
    std::vector<RistrettoPoint> row;
    for (size_t c = 0; c < width; ++c) {
      RistrettoPoint m = RistrettoPoint::FromUniformBytes(rng.RandomBytes(64));
      row.push_back(m);
      item.cts.push_back(ElGamalEncrypt(pk, m, rng));
    }
    plaintexts->push_back(std::move(row));
    batch.push_back(std::move(item));
  }
  return batch;
}

// Decrypts a batch and returns sorted encodings of the first column.
std::vector<std::string> DecryptColumn(const MixBatch& batch, const Scalar& sk,
                                       size_t column) {
  std::vector<std::string> out;
  for (const MixItem& item : batch) {
    out.push_back(HexEncode(ElGamalDecrypt(sk, item.cts.at(column)).Encode()));
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(Mixnet, ShufflePreservesPlaintextMultiset) {
  ChaChaRng rng(130);
  Scalar sk = Scalar::Random(rng);
  RistrettoPoint pk = RistrettoPoint::MulBase(sk);
  std::vector<std::vector<RistrettoPoint>> plaintexts;
  MixBatch input = MakeBatch(20, 2, pk, &plaintexts, rng);

  MixProof proof;
  MixBatch output = RunRpcMixCascade(input, PrecomputedBase(pk), /*pair_count=*/2, rng, &proof);
  ASSERT_EQ(output.size(), input.size());
  for (size_t column = 0; column < 2; ++column) {
    EXPECT_EQ(DecryptColumn(input, sk, column), DecryptColumn(output, sk, column));
  }
}

TEST(Mixnet, BundleColumnsStayAligned) {
  // The vote and credential ciphertexts of one ballot must travel together.
  ChaChaRng rng(131);
  Scalar sk = Scalar::Random(rng);
  RistrettoPoint pk = RistrettoPoint::MulBase(sk);
  std::vector<std::vector<RistrettoPoint>> plaintexts;
  MixBatch input = MakeBatch(15, 2, pk, &plaintexts, rng);
  std::map<std::string, std::string> pairing;
  for (const auto& row : plaintexts) {
    pairing[HexEncode(row[0].Encode())] = HexEncode(row[1].Encode());
  }
  MixProof proof;
  MixBatch output = RunRpcMixCascade(input, PrecomputedBase(pk), 2, rng, &proof);
  for (const MixItem& item : output) {
    auto a = HexEncode(ElGamalDecrypt(sk, item.cts[0]).Encode());
    auto b = HexEncode(ElGamalDecrypt(sk, item.cts[1]).Encode());
    ASSERT_TRUE(pairing.count(a) > 0);
    EXPECT_EQ(pairing[a], b);
  }
}

TEST(Mixnet, ProofVerifies) {
  ChaChaRng rng(132);
  Scalar sk = Scalar::Random(rng);
  RistrettoPoint pk = RistrettoPoint::MulBase(sk);
  std::vector<std::vector<RistrettoPoint>> plaintexts;
  MixBatch input = MakeBatch(12, 1, pk, &plaintexts, rng);
  MixProof proof;
  MixBatch output = RunRpcMixCascade(input, PrecomputedBase(pk), 2, rng, &proof);
  EXPECT_TRUE(VerifyRpcMixCascade(input, output, proof, pk).ok());
}

TEST(Mixnet, TamperedRevealRandomnessRejectedInBothModes) {
  // A reveal whose randomness does not match the committed re-encryption
  // must be rejected by the batched-MSM link check (which then localizes
  // via the per-link path) and by the per-link mode directly.
  ChaChaRng rng(136);
  Scalar sk = Scalar::Random(rng);
  RistrettoPoint pk = RistrettoPoint::MulBase(sk);
  std::vector<std::vector<RistrettoPoint>> plaintexts;
  MixBatch input = MakeBatch(12, 2, pk, &plaintexts, rng);
  MixProof proof;
  MixBatch output = RunRpcMixCascade(input, PrecomputedBase(pk), 1, rng, &proof);
  ASSERT_TRUE(VerifyRpcMixCascade(input, output, proof, pk).ok());

  MixProof tampered = proof;
  tampered.pairs[0].reveals[3].randomness[1] =
      tampered.pairs[0].reveals[3].randomness[1] + Scalar::One();
  Status batched =
      VerifyRpcMixCascade(input, output, tampered, pk, MixLinkCheck::kBatchedMsm);
  EXPECT_FALSE(batched.ok());
  // The fallback names the exact failing link.
  EXPECT_NE(batched.reason().find("re-encryption check failed"), std::string::npos)
      << batched.reason();
  EXPECT_FALSE(
      VerifyRpcMixCascade(input, output, tampered, pk, MixLinkCheck::kPerLink).ok());

  // Wrong randomness *width* is a Status failure, not a ProtocolError.
  MixProof truncated = proof;
  truncated.pairs[0].reveals[3].randomness.resize(1);
  Status width = VerifyRpcMixCascade(input, output, truncated, pk);
  EXPECT_FALSE(width.ok());
  EXPECT_NE(width.reason().find("randomness width mismatch"), std::string::npos)
      << width.reason();
}

TEST(Mixnet, TamperedOutputRejected) {
  ChaChaRng rng(133);
  Scalar sk = Scalar::Random(rng);
  RistrettoPoint pk = RistrettoPoint::MulBase(sk);
  std::vector<std::vector<RistrettoPoint>> plaintexts;
  // Enough items that RPC detection is essentially certain when all are
  // tampered (each tampered link is caught with probability 1/2).
  MixBatch input = MakeBatch(40, 1, pk, &plaintexts, rng);
  MixProof proof;
  MixBatch output = RunRpcMixCascade(input, PrecomputedBase(pk), 2, rng, &proof);

  // Substituting ballots wholesale in the final output: detected because the
  // published output hash no longer matches the proof's last layer.
  MixBatch forged = output;
  for (MixItem& item : forged) {
    item.cts[0] = ElGamalEncrypt(pk, RistrettoPoint::Base(), rng);
  }
  EXPECT_FALSE(VerifyRpcMixCascade(input, forged, proof, pk).ok());
}

TEST(Mixnet, CheatingMixerCaughtWithHighProbability) {
  // A mixer that replaces items *inside* the cascade must forge reveals;
  // with 32 replaced items the escape probability is 2^-32.
  ChaChaRng rng(134);
  Scalar sk = Scalar::Random(rng);
  RistrettoPoint pk = RistrettoPoint::MulBase(sk);
  std::vector<std::vector<RistrettoPoint>> plaintexts;
  MixBatch input = MakeBatch(32, 1, pk, &plaintexts, rng);
  MixProof proof;
  MixBatch output = RunRpcMixCascade(input, PrecomputedBase(pk), 1, rng, &proof);

  // Tamper with the middle layer of the (only) pair: swap in fresh
  // encryptions. The reveals now point at re-encryptions that don't check.
  for (MixItem& item : proof.pairs[0].mid) {
    item.cts[0] = ElGamalEncrypt(pk, RistrettoPoint::Base(), rng);
  }
  EXPECT_FALSE(VerifyRpcMixCascade(input, output, proof, pk).ok());
}

TEST(Mixnet, RevealsOpenOnlyOneSidePerItem) {
  // Privacy: for every middle item exactly one adjacent link is opened.
  ChaChaRng rng(135);
  Scalar sk = Scalar::Random(rng);
  RistrettoPoint pk = RistrettoPoint::MulBase(sk);
  std::vector<std::vector<RistrettoPoint>> plaintexts;
  MixBatch input = MakeBatch(64, 1, pk, &plaintexts, rng);
  MixProof proof;
  (void)RunRpcMixCascade(input, PrecomputedBase(pk), 2, rng, &proof);
  for (const RpcPairProof& pair : proof.pairs) {
    ASSERT_EQ(pair.reveals.size(), input.size());
    size_t left = 0;
    size_t right = 0;
    for (const RpcReveal& reveal : pair.reveals) {
      (reveal.side == 0 ? left : right) += 1;
    }
    // Challenge bits are ~uniform: both sides occur, neither dominates
    // completely (this is the "never both" structural property).
    EXPECT_EQ(left + right, input.size());
    EXPECT_GT(left, 10u);
    EXPECT_GT(right, 10u);
  }
}

TEST(Mixnet, EmptyAndSingletonBatches) {
  ChaChaRng rng(136);
  Scalar sk = Scalar::Random(rng);
  RistrettoPoint pk = RistrettoPoint::MulBase(sk);
  // Singleton batch still round-trips.
  std::vector<std::vector<RistrettoPoint>> plaintexts;
  MixBatch one = MakeBatch(1, 2, pk, &plaintexts, rng);
  MixProof proof;
  MixBatch out = RunRpcMixCascade(one, PrecomputedBase(pk), 2, rng, &proof);
  EXPECT_TRUE(VerifyRpcMixCascade(one, out, proof, pk).ok());
  EXPECT_TRUE(ElGamalDecrypt(sk, out[0].cts[0]) == plaintexts[0][0]);
  // Empty batch: trivially fine.
  MixBatch empty;
  MixProof empty_proof;
  MixBatch empty_out = RunRpcMixCascade(empty, PrecomputedBase(pk), 2, rng, &empty_proof);
  EXPECT_TRUE(empty_out.empty());
  EXPECT_TRUE(VerifyRpcMixCascade(empty, empty_out, empty_proof, pk).ok());
}

TEST(Tagging, SamePlaintextSameTag) {
  ChaChaRng rng(140);
  auto authority = ElectionAuthority::Create(4, rng);
  auto tagging = TaggingService::Create(4, rng);
  RistrettoPoint credential = RistrettoPoint::FromUniformBytes(rng.RandomBytes(64));
  RistrettoPoint other = RistrettoPoint::FromUniformBytes(rng.RandomBytes(64));

  // Two independent encryptions of the same credential + one of another.
  std::vector<ElGamalCiphertext> cts = {
      ElGamalEncrypt(authority.public_key(), credential, rng),
      ElGamalEncrypt(authority.public_key(), credential, rng),
      ElGamalEncrypt(authority.public_key(), other, rng),
  };
  std::vector<TaggingStep> steps;
  auto tagged = tagging.ApplyAll(cts, &steps, rng);
  ASSERT_EQ(tagged.size(), 3u);
  auto tag0 = authority.Decrypt(tagged[0]).Encode();
  auto tag1 = authority.Decrypt(tagged[1]).Encode();
  auto tag2 = authority.Decrypt(tagged[2]).Encode();
  EXPECT_EQ(tag0, tag1);
  EXPECT_NE(tag0, tag2);
  // And the tag is Z·M for Z = Πz_t.
  EXPECT_EQ(tag0, (tagging.CombinedExponent() * credential).Encode());
}

TEST(Tagging, ChainVerifies) {
  ChaChaRng rng(141);
  auto authority = ElectionAuthority::Create(3, rng);
  auto tagging = TaggingService::Create(3, rng);
  std::vector<ElGamalCiphertext> cts;
  for (int i = 0; i < 5; ++i) {
    cts.push_back(ElGamalEncrypt(authority.public_key(),
                                 RistrettoPoint::FromUniformBytes(rng.RandomBytes(64)), rng));
  }
  std::vector<TaggingStep> steps;
  (void)tagging.ApplyAll(cts, &steps, rng);
  EXPECT_TRUE(TaggingService::VerifyChain(cts, steps, tagging.commitments()).ok());
}

TEST(Tagging, CheatingTaggerDetected) {
  ChaChaRng rng(142);
  auto authority = ElectionAuthority::Create(3, rng);
  auto tagging = TaggingService::Create(3, rng);
  std::vector<ElGamalCiphertext> cts = {
      ElGamalEncrypt(authority.public_key(), RistrettoPoint::Base(), rng)};
  std::vector<TaggingStep> steps;
  (void)tagging.ApplyAll(cts, &steps, rng);

  // Substitute a different ciphertext in step 1's output: the proof for that
  // item no longer verifies (and step 2's input check breaks too).
  std::vector<TaggingStep> forged = steps;
  forged[1].output[0] = ElGamalEncrypt(authority.public_key(), RistrettoPoint::Base(), rng);
  EXPECT_FALSE(TaggingService::VerifyChain(cts, forged, tagging.commitments()).ok());

  // A tagger using a different exponent than committed is also caught.
  std::vector<TaggingStep> wrong_exp = steps;
  Scalar bogus = Scalar::Random(rng);
  wrong_exp[0].output[0] = cts[0].ExponentiateBy(bogus);
  EXPECT_FALSE(TaggingService::VerifyChain(cts, wrong_exp, tagging.commitments()).ok());
}

TEST(Tagging, StepsOutOfOrderRejected) {
  ChaChaRng rng(143);
  auto authority = ElectionAuthority::Create(2, rng);
  auto tagging = TaggingService::Create(2, rng);
  std::vector<ElGamalCiphertext> cts = {
      ElGamalEncrypt(authority.public_key(), RistrettoPoint::Base(), rng)};
  std::vector<TaggingStep> steps;
  (void)tagging.ApplyAll(cts, &steps, rng);
  std::swap(steps[0], steps[1]);
  EXPECT_FALSE(TaggingService::VerifyChain(cts, steps, tagging.commitments()).ok());
}

// --- Composite per-shard proofs ------------------------------------------------

// A 4-member chain over `n` fresh ciphertexts.
struct CompositeChain {
  explicit CompositeChain(size_t n, uint64_t seed = 150)
      : rng(seed),
        authority(ElectionAuthority::Create(3, rng)),
        tagging(TaggingService::Create(4, rng)) {
    for (size_t i = 0; i < n; ++i) {
      input.push_back(ElGamalEncrypt(authority.public_key(),
                                     RistrettoPoint::FromUniformBytes(rng.RandomBytes(64)), rng));
    }
    (void)tagging.ApplyAll(input, &steps, rng);
  }

  const std::vector<ElGamalCiphertext>& StepInput(size_t t) const {
    return t == 0 ? input : steps[t - 1].output;
  }

  // Re-proves shard `s` of step `t` over the outputs it now holds — the
  // member proving what it published — then reruns the later members
  // honestly over the result, as a coherent chain would.
  std::vector<ElGamalWire> StepInputWire(size_t t) const {
    std::vector<ElGamalWire> wire;
    for (const ElGamalCiphertext& ct : StepInput(t)) {
      wire.push_back(ct.Wire());
    }
    return wire;
  }

  void ProveAndRechain(size_t t, size_t s) {
    tagging.ProveShard(t, StepInput(t), StepInputWire(t), tagging.commitments()[t].Encode(), s,
                       rng, steps[t]);
    Rechain(t + 1);
  }

  void Rechain(size_t from) {
    for (size_t t = from; t < steps.size(); ++t) {
      steps[t] = tagging.Apply(t, StepInput(t), rng);
    }
  }

  Status Verify() const { return TaggingService::VerifyChain(input, steps, tagging.commitments()); }

  ChaChaRng rng;
  ElectionAuthority authority;
  TaggingService tagging;
  std::vector<ElGamalCiphertext> input;
  std::vector<TaggingStep> steps;
};

bool Mentions(const Status& status, const std::string& text) {
  return status.reason().find(text) != std::string::npos;
}

TEST(CompositeTagging, OneProofPerShardAndChainVerifies) {
  for (size_t n : {size_t{0}, size_t{1}, size_t{63}, size_t{64}, size_t{130}}) {
    CompositeChain chain(n);
    for (const TaggingStep& step : chain.steps) {
      EXPECT_EQ(step.proofs.size(), Executor::Shards(n, Executor::kRngShards).size())
          << "n=" << n;
      for (const DleqTranscript& proof : step.proofs) {
        EXPECT_EQ(proof.commits.size(), 2u);
      }
    }
    EXPECT_TRUE(chain.Verify().ok()) << "n=" << n << ": " << chain.Verify().reason();
  }
}

TEST(CompositeTagging, ChainBytesDoNotDependOnThreadCount) {
  CompositeChain serial(130, 151);
  for (size_t threads : {size_t{2}, size_t{8}}) {
    Executor pool(threads);
    ChaChaRng rng(152);
    std::vector<TaggingStep> steps;
    std::vector<TaggingStep> reference;
    ChaChaRng reference_rng(152);
    Executor one(1);
    (void)serial.tagging.ApplyAll(serial.input, &steps, rng, pool);
    (void)serial.tagging.ApplyAll(serial.input, &reference, reference_rng, one);
    ASSERT_EQ(steps.size(), reference.size());
    for (size_t t = 0; t < steps.size(); ++t) {
      ASSERT_EQ(steps[t].proofs.size(), reference[t].proofs.size());
      for (size_t s = 0; s < steps[t].proofs.size(); ++s) {
        EXPECT_EQ(steps[t].proofs[s].Serialize(), reference[t].proofs[s].Serialize())
            << "threads=" << threads << " step " << t << " shard " << s;
      }
    }
    EXPECT_TRUE(TaggingService::VerifyChain(serial.input, steps, serial.tagging.commitments(),
                                            pool)
                    .ok());
  }
}

// 130 ciphertexts: shard 0 is [0, 3), shard 1 is [3, 6).
TEST(CompositeTagging, OneWrongOutputInHonestShardLocalized) {
  CompositeChain chain(130);
  TaggingStep& step = chain.steps[1];
  step.output[4].c2 = step.output[4].c2 + RistrettoPoint::Base();
  step.output_wire[4] = step.output[4].Wire();
  chain.ProveAndRechain(1, 1);
  Status status = chain.Verify();
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(Mentions(status, "tagging: step 1 shard 1 [3, 6) proof invalid: composite equation"))
      << status.reason();
}

TEST(CompositeTagging, SwappedOutputsWithinShardLocalized) {
  CompositeChain chain(130);
  TaggingStep& step = chain.steps[2];
  std::swap(step.output[0], step.output[2]);
  std::swap(step.output_wire[0], step.output_wire[2]);
  chain.ProveAndRechain(2, 0);
  Status status = chain.Verify();
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(Mentions(status, "tagging: step 2 shard 0 [0, 3) proof invalid: composite equation"))
      << status.reason();
}

TEST(CompositeTagging, DeviantExponentForWholeShardLocalized) {
  CompositeChain chain(130);
  // Member 0 exponentiates shard 1 with a z' of its own choosing and proves
  // it against its published commitment Z_0.
  ChaChaRng rng(153);
  TaggingService deviant = TaggingService::Create(1, rng);
  ChaChaRng child(154);
  deviant.ApplyShard(0, chain.input, chain.StepInputWire(0),
                     chain.tagging.commitments()[0].Encode(), 1, child, chain.steps[0]);
  chain.Rechain(1);
  Status status = chain.Verify();
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(
      Mentions(status, "tagging: step 0 shard 1 [3, 6) proof invalid: commitment equation"))
      << status.reason();
}

TEST(CompositeTagging, OutputChangedAfterProvingLocalized) {
  // Publishing different outputs than the proof hashed breaks the
  // Fiat–Shamir binding before any group equation is evaluated.
  CompositeChain chain(130);
  TaggingStep& step = chain.steps[3];
  step.output[129].c1 = step.output[129].c1 + RistrettoPoint::Base();
  step.output_wire[129] = step.output[129].Wire();
  Status status = chain.Verify();
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(Mentions(status, "tagging: step 3 shard 63 [128, 130) proof invalid: challenge"))
      << status.reason();
}

TEST(CompositeTagging, ForgedCommitWireCacheLocalized) {
  // A commit cache that is not the commit's encoding may not bind challenge
  // bits, even when it is a valid encoding of some other point.
  CompositeChain chain(130);
  chain.steps[2].proofs[5].commit_wire[1] = RistrettoPoint::Base().Encode();
  Status status = chain.Verify();
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(Mentions(status, "tagging: step 2 shard 5 [12, 14) proof invalid: dleq: commit"))
      << status.reason();
}

TEST(CompositeTagging, WrongProofCountRejected) {
  CompositeChain chain(130);
  chain.steps[1].proofs.pop_back();
  EXPECT_FALSE(chain.Verify().ok());
}

// Parameterized: mix + tag across batch sizes, checking the join property
// end to end (same credential ends with same tag after mixing).
class MixTagJoin : public ::testing::TestWithParam<size_t> {};

TEST_P(MixTagJoin, TagsSurviveMixing) {
  size_t n = GetParam();
  ChaChaRng rng(144 + n);
  auto authority = ElectionAuthority::Create(4, rng);
  auto tagging = TaggingService::Create(4, rng);
  RistrettoPoint pk = authority.public_key();

  // Roster: n credentials. Ballot side: same credentials, freshly wrapped.
  std::vector<RistrettoPoint> credentials;
  MixBatch roster;
  MixBatch ballots;
  for (size_t i = 0; i < n; ++i) {
    RistrettoPoint c = RistrettoPoint::FromUniformBytes(rng.RandomBytes(64));
    credentials.push_back(c);
    roster.push_back(MixItem{{ElGamalEncrypt(pk, c, rng)}});
    ballots.push_back(MixItem{{ElGamalTrivialEncrypt(c)}});
  }
  MixProof p1;
  MixProof p2;
  MixBatch roster_mixed = RunRpcMixCascade(roster, authority.public_key_table(), 2, rng, &p1);
  MixBatch ballots_mixed = RunRpcMixCascade(ballots, authority.public_key_table(), 2, rng, &p2);

  auto column = [](const MixBatch& b) {
    std::vector<ElGamalCiphertext> out;
    for (const auto& item : b) {
      out.push_back(item.cts[0]);
    }
    return out;
  };
  std::vector<TaggingStep> steps;
  auto roster_tagged = tagging.ApplyAll(column(roster_mixed), &steps, rng);
  auto ballots_tagged = tagging.ApplyAll(column(ballots_mixed), &steps, rng);

  std::set<std::string> roster_tags;
  for (const auto& ct : roster_tagged) {
    roster_tags.insert(HexEncode(authority.Decrypt(ct).Encode()));
  }
  size_t matched = 0;
  for (const auto& ct : ballots_tagged) {
    matched += roster_tags.count(HexEncode(authority.Decrypt(ct).Encode()));
  }
  EXPECT_EQ(matched, n);
}

INSTANTIATE_TEST_SUITE_P(BatchSizes, MixTagJoin, ::testing::Values(1, 2, 5, 16));

}  // namespace
}  // namespace votegral
