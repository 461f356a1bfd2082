#include "src/votegral/tagging.h"

#include <algorithm>
#include <array>
#include <string>

#include "src/common/bytes.h"
#include "src/crypto/batch.h"
#include "src/crypto/drbg.h"
#include "src/crypto/msm.h"
#include "src/crypto/sha512.h"

namespace votegral {

namespace {

// Framing of docs/TRANSCRIPTS.md §Composite tagging proofs.
constexpr std::string_view kTagDomain = "votegral/tagging/step/v2";
constexpr std::string_view kChainWeightDomain = "votegral/tagging/chain-batch-weights/v2";
constexpr uint8_t kWeightSeparator = 0x00;
constexpr uint8_t kChallengeSeparator = 0x01;

using Digest = std::array<uint8_t, 64>;

// One (member, shard) composite statement: the digest D binding member,
// range, commitment and the shard's input/output wire bytes, and the
// 128-bit weights it expands to — weights[2k] = d_i on c1_i and
// weights[2k+1] = e_i on c2_i for i = begin + k.
struct ShardComposite {
  Digest digest{};
  std::vector<Scalar> weights;
};

// The wire spans hold the shard's bytes only (element k is position
// begin + k). Callers vouch for them (producer-local or validated).
ShardComposite DeriveComposite(size_t member, size_t begin, size_t end,
                               const CompressedRistretto& commitment_wire,
                               std::span<const ElGamalWire> input_wire,
                               std::span<const ElGamalWire> output_wire) {
  ShardComposite composite;
  Sha512 h;
  h.Update(AsBytes(kTagDomain));
  h.Update({&kWeightSeparator, 1});
  uint8_t header[24];
  StoreLe64(header, member);
  StoreLe64(header + 8, begin);
  StoreLe64(header + 16, end);
  h.Update(header);
  h.Update(commitment_wire);
  for (size_t k = 0; k < end - begin; ++k) {
    h.Update(input_wire[k]);
    h.Update(output_wire[k]);
  }
  composite.digest = h.Finalize();

  composite.weights.resize(2 * (end - begin));
  uint8_t block[72];
  std::copy(composite.digest.begin(), composite.digest.end(), block);
  for (size_t i = begin; i < end; ++i) {
    StoreLe64(block + 64, i);
    const Digest expanded = Sha512::Hash(block);
    std::array<uint8_t, 32> d{};
    std::array<uint8_t, 32> e{};
    std::copy_n(expanded.begin(), 16, d.begin());
    std::copy_n(expanded.begin() + 16, 16, e.begin());
    composite.weights[2 * (i - begin)] = Scalar::FromBytesModL(d);
    composite.weights[2 * (i - begin) + 1] = Scalar::FromBytesModL(e);
  }
  return composite;
}

// e = FromBytesWide(SHA512(domain ‖ 0x01 ‖ D ‖ enc(y·B) ‖ enc(y·M))). M and
// N are functions of D, so the challenge binds them without ever encoding
// them.
Scalar CompositeChallenge(const Digest& digest, const CompressedRistretto& commit_base,
                          const CompressedRistretto& commit_composite) {
  return Scalar::FromBytesWide(Sha512::HashParts({AsBytes(kTagDomain),
                                                  {&kChallengeSeparator, 1},
                                                  digest,
                                                  commit_base,
                                                  commit_composite}));
}

// Σ weights[2k]·c1_{begin+k} + weights[2k+1]·c2_{begin+k} (public data).
RistrettoPoint CompositePoint(std::span<const ElGamalCiphertext> cts, size_t begin,
                              std::span<const Scalar> weights) {
  std::vector<RistrettoPoint> points(weights.size());
  for (size_t k = 0; 2 * k < weights.size(); ++k) {
    points[2 * k] = cts[begin + k].c1;
    points[2 * k + 1] = cts[begin + k].c2;
  }
  return MultiScalarMul(weights, points);
}

std::string ShardLabel(size_t step, size_t shard, std::pair<size_t, size_t> range) {
  return "tagging: step " + std::to_string(step) + " shard " + std::to_string(shard) + " [" +
         std::to_string(range.first) + ", " + std::to_string(range.second) + ")";
}

// Commit bytes a composite proof may hash: its cache once validated
// (attacker data), or a fresh encoding.
Status ProofCommitWire(const DleqTranscript& proof, std::array<CompressedRistretto, 2>* out) {
  if (proof.commits.size() != 2) {
    return Status::Error("malformed proof (expected 2 commits)");
  }
  if (proof.HasWire()) {
    if (Status s = proof.ValidateWire(); !s.ok()) {
      return s;
    }
    *out = {proof.commit_wire[0], proof.commit_wire[1]};
  } else {
    *out = {proof.commits[0].Encode(), proof.commits[1].Encode()};
  }
  return Status::Ok();
}

// Checks one (member, shard) composite proof on its own — the localization
// path. Spans are full lists; the wire bytes are trusted (validated or
// freshly encoded).
Status VerifyShardProof(size_t member, std::pair<size_t, size_t> range,
                        std::span<const ElGamalCiphertext> input,
                        std::span<const ElGamalWire> input_wire,
                        std::span<const ElGamalCiphertext> output,
                        std::span<const ElGamalWire> output_wire,
                        const RistrettoPoint& commitment,
                        const CompressedRistretto& commitment_wire,
                        const DleqTranscript& proof) {
  std::array<CompressedRistretto, 2> commit_wire;
  if (Status s = ProofCommitWire(proof, &commit_wire); !s.ok()) {
    return s;
  }
  const auto [begin, end] = range;
  const ShardComposite composite =
      DeriveComposite(member, begin, end, commitment_wire, input_wire.subspan(begin, end - begin),
                      output_wire.subspan(begin, end - begin));
  if (CompositeChallenge(composite.digest, commit_wire[0], commit_wire[1]) != proof.challenge) {
    return Status::Error("challenge mismatch");
  }
  // r·B + e·Z_t == y·B
  if (RistrettoPoint::DoubleScalarMulBase(proof.challenge, commitment, proof.response) !=
      proof.commits[0]) {
    return Status::Error("commitment equation failed");
  }
  // r·M + e·N == y·M, expanded over the shard's ciphertexts.
  const size_t k = end - begin;
  std::vector<Scalar> scalars(4 * k + 1);
  std::vector<RistrettoPoint> points(4 * k + 1);
  for (size_t j = 0; j < k; ++j) {
    const Scalar& d = composite.weights[2 * j];
    const Scalar& e = composite.weights[2 * j + 1];
    scalars[4 * j] = proof.response * d;
    points[4 * j] = input[begin + j].c1;
    scalars[4 * j + 1] = proof.response * e;
    points[4 * j + 1] = input[begin + j].c2;
    scalars[4 * j + 2] = proof.challenge * d;
    points[4 * j + 2] = output[begin + j].c1;
    scalars[4 * j + 3] = proof.challenge * e;
    points[4 * j + 3] = output[begin + j].c2;
  }
  scalars[4 * k] = -Scalar::One();
  points[4 * k] = proof.commits[1];
  if (!MultiScalarMul(scalars, points).IsIdentity()) {
    return Status::Error("composite equation failed");
  }
  return Status::Ok();
}

}  // namespace

TaggingService TaggingService::Create(size_t members, Rng& rng) {
  Require(members >= 1, "tagging: need at least one member");
  TaggingService service;
  service.secrets_.reserve(members);
  service.commitments_.reserve(members);
  for (size_t i = 0; i < members; ++i) {
    Scalar z = Scalar::Random(rng);
    service.secrets_.push_back(z);
    service.commitments_.push_back(RistrettoPoint::MulBase(z));
  }
  return service;
}

TaggingStep TaggingService::PrepareStep(size_t member, size_t n) const {
  Require(member < secrets_.size(), "tagging: member out of range");
  TaggingStep step;
  step.member_index = member;
  step.output.resize(n);
  step.proofs.resize(Executor::Shards(n, Executor::kRngShards).size());
  step.output_wire.resize(n);
  return step;
}

void TaggingService::ApplyShard(size_t member, std::span<const ElGamalCiphertext> input,
                                std::span<const ElGamalWire> input_wire,
                                const CompressedRistretto& commitment_wire, size_t shard,
                                Rng& child, TaggingStep& step) const {
  const Scalar& z = secrets_.at(member);
  Require(step.output.size() == input.size() && step.output_wire.size() == input.size(),
          "tagging: shard outside prepared step");
  const auto [begin, end] = Executor::Shards(input.size(), Executor::kRngShards).at(shard);
  // Each ciphertext costs two exponentiations; its output bytes are encoded
  // here, once, while the points are hot — the weight hash reads them next
  // and the step retains them for the next member and the decrypt stage.
  for (size_t i = begin; i < end; ++i) {
    step.output[i] = input[i].ExponentiateBy(z);
    step.output_wire[i] = step.output[i].Wire();
  }
  ProveShard(member, input, input_wire, commitment_wire, shard, child, step);
}

void TaggingService::ProveShard(size_t member, std::span<const ElGamalCiphertext> input,
                                std::span<const ElGamalWire> input_wire,
                                const CompressedRistretto& commitment_wire, size_t shard,
                                Rng& child, TaggingStep& step) const {
  const Scalar& z = secrets_.at(member);
  Require(input_wire.size() == input.size() && step.output_wire.size() == input.size(),
          "tagging: shard proof needs input and output wire bytes");
  const auto [begin, end] = Executor::Shards(input.size(), Executor::kRngShards).at(shard);
  // DLEQ (B, M; Z, z·M) over the hash-weighted input combination M. N = z·M
  // never needs computing — the verifier expands it over the outputs.
  const ShardComposite composite = DeriveComposite(
      member, begin, end, commitment_wire, input_wire.subspan(begin, end - begin),
      std::span<const ElGamalWire>(step.output_wire).subspan(begin, end - begin));
  const RistrettoPoint m = CompositePoint(input, begin, composite.weights);
  const Scalar y = Scalar::Random(child);
  DleqTranscript& proof = step.proofs.at(shard);
  proof.commits = {RistrettoPoint::MulBase(y), y * m};
  proof.commit_wire = {proof.commits[0].Encode(), proof.commits[1].Encode()};
  proof.challenge = CompositeChallenge(composite.digest, proof.commit_wire[0],
                                       proof.commit_wire[1]);
  proof.response = y - proof.challenge * z;
}

TaggingStep TaggingService::Apply(size_t member, const std::vector<ElGamalCiphertext>& input,
                                  Rng& rng, Executor& executor,
                                  std::span<const ElGamalWire> input_wire) const {
  Require(input_wire.empty() || input_wire.size() == input.size(),
          "tagging: input wire size mismatch");
  Executor::Scope scope(executor);
  TaggingStep step = PrepareStep(member, input.size());
  std::vector<ElGamalWire> fresh_input_wire;
  if (input_wire.empty()) {
    fresh_input_wire.resize(input.size());
    executor.ParallelForEach(input.size(),
                             [&](size_t i) { fresh_input_wire[i] = input[i].Wire(); });
    input_wire = fresh_input_wire;
  }
  // The commitment is hashed by every shard's weight derivation: encode it
  // once here. Shards are fixed by input size; nonces come from forked
  // streams.
  const CompressedRistretto commitment_wire = commitments_[member].Encode();
  auto seeds = ForkRngSeeds(rng, step.proofs.size());
  executor.ParallelForEach(step.proofs.size(), [&](size_t s) {
    ChaChaRng child(seeds[s]);
    ApplyShard(member, input, input_wire, commitment_wire, s, child, step);
  });
  return step;
}

std::vector<ElGamalCiphertext> TaggingService::ApplyAll(
    const std::vector<ElGamalCiphertext>& input, std::vector<TaggingStep>* steps, Rng& rng,
    Executor& executor, std::span<const ElGamalWire> input_wire) const {
  Require(steps != nullptr, "tagging: steps output required");
  steps->clear();
  std::vector<ElGamalCiphertext> current = input;
  std::vector<ElGamalWire> current_wire(input_wire.begin(), input_wire.end());
  for (size_t member = 0; member < secrets_.size(); ++member) {
    TaggingStep step = Apply(member, current, rng, executor, current_wire);
    current = step.output;
    current_wire = step.output_wire;  // each step feeds the next one's weight hash
    steps->push_back(std::move(step));
  }
  return current;
}

Status TaggingService::VerifyChain(const std::vector<ElGamalCiphertext>& input,
                                   const std::vector<TaggingStep>& steps,
                                   const std::vector<RistrettoPoint>& commitments,
                                   Executor& executor,
                                   std::span<const ElGamalWire> input_wire) {
  if (steps.size() != commitments.size()) {
    return Status::Error("tagging: step count does not match committee size");
  }
  Executor::Scope scope(executor);  // the batched MSM below follows this pool
  const size_t n = input.size();
  const auto shards = Executor::Shards(n, Executor::kRngShards);
  // Structural pass.
  for (size_t i = 0; i < steps.size(); ++i) {
    if (steps[i].member_index != i) {
      return Status::Error("tagging: steps out of order");
    }
    if (steps[i].output.size() != n || steps[i].proofs.size() != shards.size()) {
      return Status::Error("tagging: step size mismatch");
    }
  }

  // Wire pass: produce per-step ciphertext bytes the weight hashes can
  // trust. Steps carrying output_wire are attacker data — decode every
  // cached point back and recompare in one pooled pass (the MixItem rule);
  // a mismatch is a localized failure. Cacheless steps (and a cacheless
  // chain input) are encoded fresh, once per chain.
  std::vector<ElGamalWire> fresh_input_wire;
  std::span<const ElGamalWire> in_wire = input_wire;
  if (in_wire.size() != n) {
    fresh_input_wire.resize(n);
    executor.ParallelForEach(n, [&](size_t j) { fresh_input_wire[j] = input[j].Wire(); });
    in_wire = fresh_input_wire;
  }
  std::vector<std::vector<ElGamalWire>> fresh_step_wire(steps.size());
  for (size_t i = 0; i < steps.size(); ++i) {
    if (steps[i].HasWire()) {
      continue;
    }
    fresh_step_wire[i].resize(n);
    executor.ParallelForEach(
        n, [&, i](size_t j) { fresh_step_wire[i][j] = steps[i].output[j].Wire(); });
  }
  {
    // Flat decode of every cached component (2 points per ciphertext).
    std::vector<CompressedRistretto> cache_bytes;
    std::vector<std::pair<size_t, size_t>> cache_slot;  // (step, item)
    for (size_t i = 0; i < steps.size(); ++i) {
      if (!steps[i].HasWire()) {
        continue;
      }
      for (size_t j = 0; j < n; ++j) {
        cache_bytes.push_back(ElGamalWireHalf(steps[i].output_wire[j], 0));
        cache_bytes.push_back(ElGamalWireHalf(steps[i].output_wire[j], 1));
        cache_slot.emplace_back(i, j);
      }
    }
    std::vector<RistrettoPoint> cache_points(cache_bytes.size());
    std::vector<uint8_t> cache_ok(cache_bytes.size(), 0);
    BatchDecodePoints(cache_bytes, cache_points, cache_ok);
    std::vector<uint8_t> bad(cache_slot.size(), 0);
    executor.ParallelForEach(cache_slot.size(), [&](size_t k) {
      auto [i, j] = cache_slot[k];
      const ElGamalCiphertext& ct = steps[i].output[j];
      if (!cache_ok[2 * k] || !cache_ok[2 * k + 1] ||
          !(cache_points[2 * k] == ct.c1) || !(cache_points[2 * k + 1] == ct.c2)) {
        bad[k] = 1;
      }
    });
    if (auto k = FirstMarked(bad); k.has_value()) {
      auto [i, j] = cache_slot[*k];
      return Status::Error("tagging: step " + std::to_string(i) +
                           " output wire cache does not match ciphertexts at index " +
                           std::to_string(j));
    }
  }
  // Trusted per-layer views: layer 0 is the chain input, layer t+1 step t's
  // output.
  std::vector<const std::vector<ElGamalCiphertext>*> layer = {&input};
  std::vector<std::span<const ElGamalWire>> layer_wire = {in_wire};
  std::vector<CompressedRistretto> commitment_wire(steps.size());
  for (size_t i = 0; i < steps.size(); ++i) {
    layer.push_back(&steps[i].output);
    layer_wire.push_back(steps[i].HasWire()
                             ? std::span<const ElGamalWire>(steps[i].output_wire)
                             : std::span<const ElGamalWire>(fresh_step_wire[i]));
    commitment_wire[i] = commitments[i].Encode();
  }
  auto verify_shard = [&](size_t i, size_t s) {
    return VerifyShardProof(i, shards[s], *layer[i], layer_wire[i], *layer[i + 1],
                            layer_wire[i + 1], commitments[i], commitment_wire[i],
                            steps[i].proofs[s]);
  };
  // Localization: the first (step, shard) whose proof fails on its own.
  auto localize = [&]() -> Status {
    for (size_t i = 0; i < steps.size(); ++i) {
      if (auto s = ParallelFirstFailure(executor, shards.size(),
                                        [&](size_t s) { return verify_shard(i, s).ok(); });
          s.has_value()) {
        return Status::Error(ShardLabel(i, *s, shards[*s]) +
                             " proof invalid: " + verify_shard(i, *s).reason());
      }
    }
    return Status::Error("tagging: batched chain check failed");
  };

  // Commit caches are attacker data: every one is checked against its
  // commit point in one decode-free pass before it may bind challenge bits.
  const size_t per_step = shards.size();
  const size_t proof_count = steps.size() * per_step;
  {
    std::vector<RistrettoPoint> points;
    std::vector<CompressedRistretto> bytes;
    for (const TaggingStep& step : steps) {
      for (const DleqTranscript& proof : step.proofs) {
        if (proof.commits.size() != 2) {
          return localize();
        }
        if (proof.HasWire()) {
          points.insert(points.end(), proof.commits.begin(), proof.commits.end());
          bytes.insert(bytes.end(), proof.commit_wire.begin(), proof.commit_wire.end());
        }
      }
    }
    std::vector<uint8_t> ok(points.size(), 0);
    if (BatchValidateEncodings(points, bytes, ok) != 0) {
      return localize();
    }
  }

  // Per-proof pass: weights and the SHA-only challenge check.
  std::vector<std::array<CompressedRistretto, 2>> commit_wire(proof_count);
  std::vector<ShardComposite> composites(proof_count);
  std::vector<uint8_t> bad(proof_count, 0);
  executor.ParallelForEach(proof_count, [&](size_t p) {
    const size_t i = p / per_step;
    const size_t s = p % per_step;
    const DleqTranscript& proof = steps[i].proofs[s];
    commit_wire[p] = proof.HasWire()
                         ? std::array{proof.commit_wire[0], proof.commit_wire[1]}
                         : std::array{proof.commits[0].Encode(), proof.commits[1].Encode()};
    const auto [begin, end] = shards[s];
    composites[p] =
        DeriveComposite(i, begin, end, commitment_wire[i],
                        layer_wire[i].subspan(begin, end - begin),
                        layer_wire[i + 1].subspan(begin, end - begin));
    if (CompositeChallenge(composites[p].digest, commit_wire[p][0], commit_wire[p][1]) !=
        proof.challenge) {
      bad[p] = 1;
    }
  });
  if (FirstMarked(bad).has_value()) {
    return localize();
  }

  // Deterministic batch weights over everything the provers chose: each
  // digest binds its statement, then the commits and (challenge, response).
  Digest seed;
  {
    Sha512 h;
    h.Update(AsBytes(kChainWeightDomain));
    for (size_t p = 0; p < proof_count; ++p) {
      const DleqTranscript& proof = steps[p / per_step].proofs[p % per_step];
      h.Update(composites[p].digest);
      h.Update(commit_wire[p][0]);
      h.Update(commit_wire[p][1]);
      h.Update(proof.challenge.ToBytes());
      h.Update(proof.response.ToBytes());
    }
    seed = h.Finalize();
  }
  ChaChaRng weight_rng(seed);
  std::vector<std::array<Scalar, 2>> weights(proof_count);
  for (auto& w : weights) {
    w = {RandomRlcWeight(weight_rng), RandomRlcWeight(weight_rng)};
  }

  // One MSM for the whole chain. Per proof, w1·(r·B + e·Z − Y1) and
  // w2·(r·M + e·N − Y2) with M, N expanded over the shard: terms on Z, Y1,
  // Y2, then (w2·r·d_i, w2·r·e_i) on the input ciphertext and (w2·e·d_i,
  // w2·e·e_i) on the output. Wire keys let MultiScalarMulShared merge step
  // t's output terms with step t+1's input terms and the Z_t columns.
  std::vector<size_t> offset(proof_count + 1, 0);
  for (size_t p = 0; p < proof_count; ++p) {
    const auto [begin, end] = shards[p % per_step];
    offset[p + 1] = offset[p] + 3 + 4 * (end - begin);
  }
  const size_t terms = offset[proof_count];
  std::vector<Scalar> scalars(terms);
  std::vector<RistrettoPoint> points(terms);
  std::vector<CompressedRistretto> keys(terms);
  std::vector<uint8_t> keyed(terms, 0);
  std::vector<Scalar> base_part(proof_count);
  executor.ParallelForEach(proof_count, [&](size_t p) {
    const size_t i = p / per_step;
    const auto [begin, end] = shards[p % per_step];
    const DleqTranscript& proof = steps[i].proofs[p % per_step];
    const auto& [w1, w2] = weights[p];
    base_part[p] = w1 * proof.response;
    size_t at = offset[p];
    scalars[at] = w1 * proof.challenge;
    points[at] = commitments[i];
    keys[at] = commitment_wire[i];
    keyed[at] = 1;
    scalars[at + 1] = -w1;
    points[at + 1] = proof.commits[0];
    scalars[at + 2] = -w2;
    points[at + 2] = proof.commits[1];
    at += 3;
    const Scalar in_factor = w2 * proof.response;
    const Scalar out_factor = w2 * proof.challenge;
    const std::vector<Scalar>& cw = composites[p].weights;
    for (size_t j = begin; j < end; ++j) {
      const size_t k = j - begin;
      const ElGamalCiphertext& in = (*layer[i])[j];
      const ElGamalCiphertext& out = (*layer[i + 1])[j];
      const ElGamalWire& in_bytes = layer_wire[i][j];
      const ElGamalWire& out_bytes = layer_wire[i + 1][j];
      scalars[at] = in_factor * cw[2 * k];
      points[at] = in.c1;
      keys[at] = ElGamalWireHalf(in_bytes, 0);
      scalars[at + 1] = in_factor * cw[2 * k + 1];
      points[at + 1] = in.c2;
      keys[at + 1] = ElGamalWireHalf(in_bytes, 1);
      scalars[at + 2] = out_factor * cw[2 * k];
      points[at + 2] = out.c1;
      keys[at + 2] = ElGamalWireHalf(out_bytes, 0);
      scalars[at + 3] = out_factor * cw[2 * k + 1];
      points[at + 3] = out.c2;
      keys[at + 3] = ElGamalWireHalf(out_bytes, 1);
      std::fill_n(keyed.begin() + static_cast<ptrdiff_t>(at), 4, uint8_t{1});
      at += 4;
    }
  });
  Scalar base_scalar = Scalar::Zero();
  for (const Scalar& part : base_part) {
    base_scalar = base_scalar + part;
  }
  if (MultiScalarMulShared(base_scalar, scalars, points, keys, keyed).IsIdentity()) {
    return Status::Ok();
  }
  return localize();
}

Scalar TaggingService::CombinedExponent() const {
  Scalar product = Scalar::One();
  for (const Scalar& z : secrets_) {
    product = product * z;
  }
  return product;
}

}  // namespace votegral
