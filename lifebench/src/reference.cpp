#include "lifebench/src/reference.h"

#include <cstdio>

#include "src/crypto/sha256.h"

namespace lifebench {

namespace {

using CredentialKey = std::pair<size_t, size_t>;  // (voter, credential index)

void ExpectPlaintext(const ElectionPlan& plan, const std::vector<uint8_t>& posted,
                     ExpectedResult& out) {
  std::map<CredentialKey, size_t> last;  // credential -> index of its last cast
  std::map<CredentialKey, size_t> casts;
  for (size_t i = 0; i < plan.casts.size(); ++i) {
    if (posted[i] == 0) {
      continue;
    }
    const CredentialKey key{plan.casts[i].voter, plan.casts[i].credential};
    last[key] = i;
    casts[key] += 1;
  }
  for (const auto& [key, index] : last) {
    out.superseded += casts[key] - 1;
    if (key.second != 0) {
      ++out.unmatched_tag;  // fake credential: its tag matches no roster entry
      continue;
    }
    out.counts[plan.candidates[plan.casts[index].candidate]] += 1;
    out.counted += 1;
  }
}

void ExpectRevote(const ElectionPlan& plan, const std::vector<uint8_t>& posted,
                  ExpectedResult& out) {
  struct Group {
    size_t size = 0;
    uint64_t max_counter = 0;
    size_t max_count = 0;  // members holding the maximum
    size_t winner = 0;     // cast index of the (last) maximum
  };
  std::map<CredentialKey, Group> groups;
  for (size_t i = 0; i < plan.casts.size(); ++i) {
    if (posted[i] == 0) {
      continue;
    }
    const CastEvent& cast = plan.casts[i];
    Group& g = groups[{cast.voter, cast.credential}];
    if (g.size == 0 || cast.counter > g.max_counter) {
      g.max_counter = cast.counter;
      g.max_count = 1;
      g.winner = i;
    } else if (cast.counter == g.max_counter) {
      g.max_count += 1;
    }
    g.size += 1;
  }
  for (const auto& [key, g] : groups) {
    out.group_sizes[g.size] += 1;
    if (g.max_count > 1) {
      out.duplicate_tag += g.size;  // tied maximum: the whole group drops
      continue;
    }
    out.superseded += g.size - 1;
    if (key.second != 0) {
      ++out.unmatched_tag;
      continue;
    }
    out.counts[plan.candidates[plan.casts[g.winner].candidate]] += 1;
    out.counted += 1;
  }
}

// Cover class s of the envelope for `total` accepted ballots: classes
// s = 1..floor(log2 total) + 1, class s needing ceil(total / 2^(s-1)) groups
// of size s.
size_t CoverClasses(size_t total) {
  size_t classes = 0;
  for (; total > 0; total >>= 1) {
    ++classes;
  }
  return classes;
}

size_t CoverTarget(size_t total, size_t s) {
  return (total + (size_t{1} << (s - 1)) - 1) >> (s - 1);
}

// Holds the published dummy groups to the envelope and adds their discards
// to `expected`: a dummy group's counters are 0..size-1, so its top member is
// kept and the rest are superseded, and the kept member's fresh credential
// matches no roster tag.
void AddPadding(const votegral::RevoteTranscript& revote, ExpectedResult& expected,
                std::vector<std::string>& diffs) {
  const size_t total = expected.ballots;
  std::map<uint64_t, size_t> census = expected.group_sizes;
  size_t dummy_items = 0;
  for (const votegral::RevoteDummyGroup& group : revote.dummies) {
    if (group.size == 0) {
      diffs.push_back("revote padding: empty dummy group");
      continue;
    }
    census[group.size] += 1;
    dummy_items += group.size;
    expected.superseded += group.size - 1;
    expected.unmatched_tag += 1;
  }
  size_t bound = 0;
  for (size_t s = 1; s <= CoverClasses(total); ++s) {
    const size_t target = CoverTarget(total, s);
    bound += s * target;
    if (census[s] < target) {
      diffs.push_back("revote padding: cover class " + std::to_string(s) + " shows " +
                      std::to_string(census[s]) + " groups, the envelope needs " +
                      std::to_string(target));
    }
  }
  if (dummy_items > bound) {
    diffs.push_back("revote padding: " + std::to_string(dummy_items) +
                    " dummy items exceed the envelope bound " + std::to_string(bound));
  }
}

}  // namespace

ExpectedResult ComputeExpected(const ElectionPlan& plan, bool revoting,
                               const std::vector<uint8_t>& posted) {
  ExpectedResult out;
  for (const std::string& name : plan.candidates) {
    out.counts[name] = 0;
  }
  for (uint8_t p : posted) {
    out.ballots += p != 0 ? 1 : 0;
  }
  out.revoting = revoting;
  if (revoting) {
    ExpectRevote(plan, posted, out);
  } else {
    ExpectPlaintext(plan, posted, out);
  }
  return out;
}

std::vector<std::string> CompareResult(const ExpectedResult& reference,
                                       const votegral::TallyOutput& output) {
  std::vector<std::string> diffs;
  ExpectedResult expected = reference;
  if (expected.revoting) {
    AddPadding(output.transcript.revote, expected, diffs);
  }
  const votegral::TallyResult& result = output.result;
  auto check = [&](const std::string& what, size_t want, size_t got) {
    if (want != got) {
      diffs.push_back(what + ": expected " + std::to_string(want) + ", published " +
                      std::to_string(got));
    }
  };
  for (const auto& [name, want] : expected.counts) {
    auto it = result.counts.find(name);
    check("count[" + name + "]", want, it == result.counts.end() ? 0 : it->second);
  }
  for (const auto& [name, got] : result.counts) {
    if (expected.counts.count(name) == 0) {
      check("count[" + name + "] (not a candidate)", 0, got);
    }
  }
  check("counted", expected.counted, result.counted);
  check("superseded", expected.superseded, result.discards.superseded);
  check("unmatched_tag", expected.unmatched_tag, result.discards.unmatched_tag);
  check("duplicate_tag", expected.duplicate_tag, result.discards.duplicate_tag);
  check("invalid_structure", 0, result.discards.invalid_structure);
  check("invalid_signature", 0, result.discards.invalid_signature);
  check("invalid_vote", 0, result.discards.invalid_vote);
  return diffs;
}

std::array<uint8_t, 32> TranscriptDigest(const votegral::TallyOutput& output) {
  using namespace votegral;
  Sha256 h;
  auto u64 = [&](uint64_t v) {
    uint8_t buf[8];
    StoreLe64(buf, v);
    h.Update(buf);
  };
  auto batch = [&](const MixBatch& b) {
    u64(b.size());
    for (const MixItem& item : b) {
      for (const ElGamalCiphertext& ct : item.cts) {
        h.Update(ct.Serialize());
      }
    }
  };
  auto mix_proof = [&](const MixProof& proof) {
    u64(proof.pairs.size());
    for (const RpcPairProof& pair : proof.pairs) {
      batch(pair.mid);
      batch(pair.out);
      for (const RpcReveal& reveal : pair.reveals) {
        h.Update({&reveal.side, 1});
        u64(reveal.source_or_dest);
        for (const Scalar& r : reveal.randomness) {
          h.Update(r.ToBytes());
        }
      }
    }
  };
  auto steps = [&](const std::vector<TaggingStep>& tag_steps) {
    u64(tag_steps.size());
    for (const TaggingStep& step : tag_steps) {
      u64(step.member_index);
      for (const ElGamalCiphertext& ct : step.output) {
        h.Update(ct.Serialize());
      }
      for (const DleqTranscript& proof : step.proofs) {
        h.Update(proof.Serialize());
      }
    }
  };
  auto shares = [&](const std::vector<std::vector<DecryptionShare>>& per_ct) {
    u64(per_ct.size());
    for (const auto& list : per_ct) {
      for (const DecryptionShare& share : list) {
        u64(share.member_index);
        h.Update(share.share.Encode());
        h.Update(share.proof.Serialize());
      }
    }
  };
  auto points = [&](const std::vector<CompressedRistretto>& list) {
    u64(list.size());
    for (const CompressedRistretto& p : list) {
      h.Update(p);
    }
  };
  auto indices = [&](const std::vector<uint64_t>& list) {
    u64(list.size());
    for (uint64_t v : list) {
      u64(v);
    }
  };

  const TallyTranscript& t = output.transcript;
  batch(t.ballot_mix_input);
  batch(t.ballot_mix_output);
  mix_proof(t.ballot_mix_proof);
  batch(t.roster_mix_input);
  batch(t.roster_mix_output);
  mix_proof(t.roster_mix_proof);
  steps(t.ballot_tag_steps);
  steps(t.roster_tag_steps);
  shares(t.ballot_tag_shares);
  shares(t.roster_tag_shares);
  points(t.ballot_tags);
  points(t.roster_tags);
  indices(t.counted_indices);
  indices(t.counted_weights);
  shares(t.vote_shares);
  points(t.vote_points);
  const RevoteTranscript& rt = t.revote;
  u64(rt.dummies.size());
  for (const RevoteDummyGroup& group : rt.dummies) {
    h.Update(group.credential.ToBytes());
    u64(group.size);
  }
  batch(rt.mix_input);
  batch(rt.mix_output);
  mix_proof(rt.mix_proof);
  steps(rt.tag_steps);
  shares(rt.tag_shares);
  points(rt.tags);
  shares(rt.counter_shares);
  points(rt.counter_points);
  indices(rt.kept_indices);
  for (const auto& [name, count] : output.result.counts) {
    h.Update(AsBytes(name));
    u64(count);
  }
  u64(output.result.counted);
  return h.Finalize();
}

std::string Hex(const std::array<uint8_t, 32>& digest) {
  std::string out;
  char buf[3];
  for (uint8_t b : digest) {
    std::snprintf(buf, sizeof(buf), "%02x", b);
    out += buf;
  }
  return out;
}

}  // namespace lifebench
