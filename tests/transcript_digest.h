// Shared test helper: flattens every field of a tally transcript into one
// SHA-256 digest so "byte-identical transcripts" — across thread counts
// (test_parallel_tally) and across ledger storage backends
// (test_ledger_store) — is a single comparison. Includes the wire caches:
// producers must fill them identically under any scheduling.
//
// DigestTranscript covers exactly the pre-wire-byte-DLEQ field set, so its
// value for the fixed test election is pinned by a golden constant
// (test_parallel_tally's TranscriptByteIdenticalToPreWireSeed).
// DigestTranscriptWithWire additionally folds in the wire caches introduced
// by the wire-byte DLEQ PR (tagging output wires, DLEQ commit wires); the
// cross-thread and cross-backend identity tests compare that one.
// DigestTranscriptExceptTagProofs is the extended digest minus the tagging
// steps' proofs (and their commit caches): the contract that a change to
// the tag-proof format moves no other transcript byte.
#ifndef TESTS_TRANSCRIPT_DIGEST_H_
#define TESTS_TRANSCRIPT_DIGEST_H_

#include <array>

#include "src/crypto/sha256.h"
#include "src/votegral/tally.h"

namespace votegral {

inline std::array<uint8_t, 32> DigestTranscript(const TallyOutput& output,
                                                bool include_tag_proofs = true) {
  Sha256 h;
  auto hash_u64 = [&](uint64_t v) {
    uint8_t buf[8];
    StoreLe64(buf, v);
    h.Update(buf);
  };
  auto hash_batch = [&](const MixBatch& batch) {
    hash_u64(batch.size());
    for (const MixItem& item : batch) {
      for (const ElGamalCiphertext& ct : item.cts) {
        h.Update(ct.Serialize());
      }
      hash_u64(item.wire.size());
      h.Update(item.wire);
    }
  };
  auto hash_proof = [&](const MixProof& proof) {
    hash_u64(proof.pairs.size());
    for (const RpcPairProof& pair : proof.pairs) {
      hash_batch(pair.mid);
      hash_batch(pair.out);
      for (const RpcReveal& reveal : pair.reveals) {
        h.Update({&reveal.side, 1});
        hash_u64(reveal.source_or_dest);
        for (const Scalar& r : reveal.randomness) {
          h.Update(r.ToBytes());
        }
      }
    }
  };
  auto hash_steps = [&](const std::vector<TaggingStep>& steps) {
    hash_u64(steps.size());
    for (const TaggingStep& step : steps) {
      hash_u64(step.member_index);
      for (const ElGamalCiphertext& ct : step.output) {
        h.Update(ct.Serialize());
      }
      if (!include_tag_proofs) {
        continue;
      }
      for (const DleqTranscript& proof : step.proofs) {
        h.Update(proof.Serialize());
      }
    }
  };
  auto hash_shares = [&](const std::vector<std::vector<DecryptionShare>>& shares) {
    hash_u64(shares.size());
    for (const auto& per_ct : shares) {
      for (const DecryptionShare& share : per_ct) {
        hash_u64(share.member_index);
        h.Update(share.share.Encode());
        h.Update(share.proof.Serialize());
      }
    }
  };

  const TallyTranscript& t = output.transcript;
  hash_u64(t.accepted_ballots.size());
  for (const Ballot& ballot : t.accepted_ballots) {
    h.Update(ballot.Serialize());
  }
  hash_batch(t.ballot_mix_input);
  hash_batch(t.ballot_mix_output);
  hash_proof(t.ballot_mix_proof);
  hash_batch(t.roster_mix_input);
  hash_batch(t.roster_mix_output);
  hash_proof(t.roster_mix_proof);
  hash_steps(t.ballot_tag_steps);
  hash_steps(t.roster_tag_steps);
  hash_shares(t.ballot_tag_shares);
  hash_shares(t.roster_tag_shares);
  for (const CompressedRistretto& tag : t.ballot_tags) {
    h.Update(tag);
  }
  for (const CompressedRistretto& tag : t.roster_tags) {
    h.Update(tag);
  }
  for (uint64_t v : t.counted_indices) {
    hash_u64(v);
  }
  for (uint64_t v : t.counted_weights) {
    hash_u64(v);
  }
  hash_shares(t.vote_shares);
  for (const CompressedRistretto& point : t.vote_points) {
    h.Update(point);
  }
  // Revote supersession section — hashed only when present, so every
  // pre-revoting golden digest is unchanged by this field existing.
  if (!t.revote.empty()) {
    const RevoteTranscript& rt = t.revote;
    hash_u64(rt.accepted.size());
    for (const RevoteBallot& ballot : rt.accepted) {
      h.Update(ballot.Serialize());
    }
    hash_u64(rt.dummies.size());
    for (const RevoteDummyGroup& group : rt.dummies) {
      h.Update(group.credential.ToBytes());
      hash_u64(group.size);
    }
    hash_batch(rt.mix_input);
    hash_batch(rt.mix_output);
    hash_proof(rt.mix_proof);
    hash_steps(rt.tag_steps);
    hash_shares(rt.tag_shares);
    for (const CompressedRistretto& tag : rt.tags) {
      h.Update(tag);
    }
    hash_shares(rt.counter_shares);
    for (const CompressedRistretto& point : rt.counter_points) {
      h.Update(point);
    }
    hash_u64(rt.kept_indices.size());
    for (uint64_t v : rt.kept_indices) {
      hash_u64(v);
    }
  }
  // Published result too: counts must agree, not just the transcript.
  for (const auto& [name, count] : output.result.counts) {
    h.Update(AsBytes(name));
    hash_u64(count);
  }
  hash_u64(output.result.counted);
  return h.Finalize();
}

inline std::array<uint8_t, 32> DigestTranscriptWithWire(const TallyOutput& output,
                                                        bool include_tag_proofs = true) {
  Sha256 h;
  h.Update(DigestTranscript(output, include_tag_proofs));
  auto hash_u64 = [&](uint64_t v) {
    uint8_t buf[8];
    StoreLe64(buf, v);
    h.Update(buf);
  };
  auto hash_proof_wire = [&](const DleqTranscript& proof) {
    hash_u64(proof.commit_wire.size());
    for (const CompressedRistretto& wire : proof.commit_wire) {
      h.Update(wire);
    }
  };
  auto hash_steps_wire = [&](const std::vector<TaggingStep>& steps) {
    for (const TaggingStep& step : steps) {
      hash_u64(step.output_wire.size());
      for (const ElGamalWire& wire : step.output_wire) {
        h.Update(wire);
      }
      if (!include_tag_proofs) {
        continue;
      }
      for (const DleqTranscript& proof : step.proofs) {
        hash_proof_wire(proof);
      }
    }
  };
  auto hash_shares_wire = [&](const std::vector<std::vector<DecryptionShare>>& shares) {
    for (const auto& per_ct : shares) {
      for (const DecryptionShare& share : per_ct) {
        hash_proof_wire(share.proof);
      }
    }
  };
  const TallyTranscript& t = output.transcript;
  hash_steps_wire(t.ballot_tag_steps);
  hash_steps_wire(t.roster_tag_steps);
  hash_shares_wire(t.ballot_tag_shares);
  hash_shares_wire(t.roster_tag_shares);
  hash_shares_wire(t.vote_shares);
  if (!t.revote.empty()) {
    hash_steps_wire(t.revote.tag_steps);
    hash_shares_wire(t.revote.tag_shares);
    hash_shares_wire(t.revote.counter_shares);
  }
  return h.Finalize();
}

inline std::array<uint8_t, 32> DigestTranscriptExceptTagProofs(const TallyOutput& output) {
  return DigestTranscriptWithWire(output, /*include_tag_proofs=*/false);
}

}  // namespace votegral

#endif  // TESTS_TRANSCRIPT_DIGEST_H_
