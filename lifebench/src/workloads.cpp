#include "lifebench/src/workloads.h"

#include <algorithm>
#include <cmath>

#include "src/crypto/drbg.h"

namespace lifebench {

namespace {

// Mean fake count 1.15 (the paper's D_c).
const FakeDistribution kPaperFakes = {{0, 0.25}, {1, 0.45}, {2, 0.20}, {3, 0.10}};
// Coercion-heavy D_c, mean 2.55 fakes per voter.
const FakeDistribution kCoercionHeavyFakes = {{1, 0.15}, {2, 0.30}, {3, 0.40}, {4, 0.15}};

// Electorate sizes are per election. A run repeats whole elections while
// they fit in its time budget and pools their samples, so the sizes keep
// one election at a few seconds: several then fit in a run, and every metric
// is sampled across the run instead of in one window.
std::vector<WorkloadSpec> MakeWorkloads() {
  std::vector<WorkloadSpec> all;

  WorkloadSpec election;
  election.name = "election";
  election.why =
      "Fig. 5b path: tag, mix and decrypt set tally_s and batch MSM/DLEQ sets verify_s, "
      "while the revote dedup is idle. A tally-crypto or scheduler change must show here; "
      "a revote-only change must not.";
  election.voters = 1024;
  election.kiosks = 4;
  election.officials = 2;
  election.fakes = kPaperFakes;
  election.envelopes_per_voter = 3;
  election.segment_entries = 1024;
  election.abstain = 0.10;
  election.revote = 0.10;
  election.max_extra_casts = 1;
  election.decoy = 0.25;
  all.push_back(election);

  WorkloadSpec revote;
  revote.name = "revote";
  revote.why =
      "Deniable revoting: the dedup sub-pipeline (pad to <= 5T, width-3 mix, tag, decrypt "
      "counters, select) is a large share of tally busy time and every cast carries the "
      "AND-sigma proof. A revote or proof change shows here and must not move election.";
  revote.voters = 128;
  revote.kiosks = 1;
  revote.officials = 1;
  revote.fakes = kPaperFakes;
  revote.envelopes_per_voter = 3;
  revote.segment_entries = 1024;
  revote.revoting = true;
  revote.revote = 0.25;
  revote.max_extra_casts = 3;
  revote.decoy = 0.25;
  revote.coerced = 0.10;
  all.push_back(revote);

  WorkloadSpec registration;
  registration.name = "registration";
  registration.why =
      "Registration day: kiosk/official/VSD work and ledger appends on small segments (seals) "
      "dominate; half of the voters cast, so the tally is roster-heavy. Tally changes must "
      "not move register_ms or activate_ms here.";
  registration.voters = 1024;
  registration.kiosks = 16;
  registration.officials = 4;
  registration.fakes = kCoercionHeavyFakes;
  registration.envelopes_per_voter = 5;
  registration.segment_entries = 256;
  registration.turnout = 0.50;
  all.push_back(registration);
  return all;
}

template <typename T>
void Shuffle(std::vector<T>& v, votegral::Rng& rng) {
  for (size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.Uniform(i)]);
  }
}

size_t Quota(double share, size_t n) {
  return static_cast<size_t>(std::llround(share * static_cast<double>(n)));
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> all = MakeWorkloads();
  return all;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) {
      return &spec;
    }
  }
  return nullptr;
}

// Role and fake counts are assigned by exact quotas over a seeded
// permutation, not by independent coin flips: every seed gets the same
// number of abstainers, re-voters, decoys and fakes, so seeds change which
// voter does what (and every key and nonce) but not how much work a run is.
ElectionPlan GeneratePlan(const WorkloadSpec& spec, uint64_t seed, double scale) {
  votegral::ChaChaRng rng(seed * 0x9E3779B97F4A7C15ull + 0x706C616Eull);
  ElectionPlan plan;
  const size_t n = std::max<size_t>(
      8, static_cast<size_t>(std::llround(static_cast<double>(spec.voters) * scale)));
  plan.candidates = {"Alpha", "Beta", "Gamma", "Delta"};
  for (size_t i = 0; i < n; ++i) {
    plan.roster.push_back("voter-" + std::to_string(i));
  }

  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) {
    order[i] = i;
  }

  // Fake counts: quota per D_c bucket, the remainder to the last bucket,
  // dealt round-robin over the closed loop's waves and then shuffled
  // within each wave, so every wave serves the same mix of kiosk sessions
  // and activations whatever the seed. A session's cost depends on its
  // wave (in `election`, the last wave's activations take ~2.8x as long
  // per credential as the other waves'), and a plain permutation would vary
  // from seed to seed how many heavy sessions land in the costly waves,
  // which moves the p99s.
  std::vector<size_t> counts;
  for (size_t b = 0; b < spec.fakes.size(); ++b) {
    const size_t quota = b + 1 == spec.fakes.size()
                             ? n - counts.size()
                             : std::min(n - counts.size(), Quota(spec.fakes[b].second, n));
    counts.insert(counts.end(), quota, spec.fakes[b].first);
  }
  plan.fake_counts.assign(n, 0);
  size_t next = 0;
  for (size_t k = 0; k < kWaveVoters; ++k) {
    for (size_t begin = 0; begin + k < n; begin += kWaveVoters) {
      plan.fake_counts[begin + k] = counts[next++];
    }
  }
  for (size_t begin = 0; begin < n; begin += kWaveVoters) {
    std::vector<size_t> wave(plan.fake_counts.begin() + begin,
                             plan.fake_counts.begin() + std::min(n, begin + kWaveVoters));
    Shuffle(wave, rng);
    std::copy(wave.begin(), wave.end(), plan.fake_counts.begin() + begin);
  }

  // Roles: abstain | re-vote | coerced | plain, disjoint by quota.
  enum Role : uint8_t { kPlain, kAbstain, kRevote, kCoerced };
  std::vector<Role> role(n, kPlain);
  Shuffle(order, rng);
  next = 0;
  const size_t casting = std::min(n, Quota(spec.turnout, n));
  for (size_t k = casting; k < n; ++k) {
    role[order[k]] = kAbstain;  // outside the turnout sample
  }
  auto take = [&](double share, Role r) {
    const size_t quota = std::min(casting - next, Quota(share, n));
    for (size_t k = 0; k < quota; ++k) {
      role[order[next++]] = r;
    }
    return quota;
  };
  plan.abstainers = take(spec.abstain, kAbstain) + (n - casting);
  plan.revoters = take(spec.revote, kRevote);
  const size_t coerced = take(spec.coerced, kCoerced);

  auto candidate = [&]() { return static_cast<size_t>(rng.Uniform(plan.candidates.size())); };

  // Round 0: every casting voter's first cast plus the decoys. Later rounds
  // hold the re-casts, so each credential's casts appear in counter order
  // on the ledger.
  std::vector<std::vector<CastEvent>> rounds(2 + spec.max_extra_casts);
  std::vector<size_t> fake_holders;
  for (size_t v = 0; v < n; ++v) {
    if (role[v] == kAbstain) {
      continue;
    }
    rounds[0].push_back(CastEvent{v, 0, candidate(), 0, Caster::kVoter});
    if (plan.fake_counts[v] > 0) {
      fake_holders.push_back(v);
    }
  }
  Shuffle(fake_holders, rng);
  plan.decoys = std::min(fake_holders.size(), Quota(spec.decoy, fake_holders.size()));
  for (size_t k = 0; k < plan.decoys; ++k) {
    const size_t v = fake_holders[k];
    const size_t fake = 1 + static_cast<size_t>(rng.Uniform(plan.fake_counts[v]));
    rounds[0].push_back(CastEvent{v, fake, candidate(), 0, Caster::kVoter});
  }

  // Coerced voters: the coercer casts once with the surrendered real
  // credential at a counter it picks (1 or 2); most voters later out-count
  // it, a few comply, a few hit the coercer's counter exactly (a tied
  // maximum drops the whole group as duplicate_tag).
  std::vector<size_t> coerced_voters;
  for (size_t v = 0; v < n; ++v) {
    if (role[v] == kCoerced) {
      coerced_voters.push_back(v);
    }
  }
  Shuffle(coerced_voters, rng);
  const size_t comply = Quota(0.15, coerced);
  const size_t tie = Quota(0.15, coerced);
  for (size_t k = 0; k < coerced_voters.size(); ++k) {
    const size_t v = coerced_voters[k];
    const uint64_t coercer_counter = 1 + rng.Uniform(2);
    rounds[1].push_back(CastEvent{v, 0, 0, coercer_counter, Caster::kCoercer});
    if (k < comply) {
      ++plan.coerced_comply;
    } else if (k < comply + tie) {
      ++plan.coerced_tie;
      rounds[2].push_back(CastEvent{v, 0, candidate(), coercer_counter, Caster::kVoter});
    } else {
      ++plan.coerced_outcount;
      rounds[2].push_back(CastEvent{v, 0, candidate(), coercer_counter + 1, Caster::kVoter});
    }
  }

  // Re-voters cycle through 1..max_extra_casts re-casts in seeded order.
  std::vector<size_t> revoters;
  for (size_t v = 0; v < n; ++v) {
    if (role[v] == kRevote) {
      revoters.push_back(v);
    }
  }
  Shuffle(revoters, rng);
  for (size_t k = 0; k < revoters.size(); ++k) {
    const size_t v = revoters[k];
    const size_t extra = 1 + k % spec.max_extra_casts;
    for (size_t r = 1; r <= extra; ++r) {
      rounds[r].push_back(CastEvent{v, 0, candidate(), r, Caster::kVoter});
    }
  }

  for (std::vector<CastEvent>& round : rounds) {
    Shuffle(round, rng);
    plan.casts.insert(plan.casts.end(), round.begin(), round.end());
  }
  std::stable_sort(plan.casts.begin(), plan.casts.end(),
                   [](const CastEvent& a, const CastEvent& b) {
                     return a.voter / kWaveVoters < b.voter / kWaveVoters;
                   });
  return plan;
}

}  // namespace lifebench
