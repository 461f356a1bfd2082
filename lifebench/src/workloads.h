// The benchmark's workloads: what each one stresses, why it exists, and the
// seeded generator that turns (workload, seed) into the inputs the program
// receives — the electorate, each voter's fake-credential count and the
// ordered cast log. The generator is the only source of randomness in a run
// apart from the protocol's own seeded DRBG, so one seed gives one set of
// inputs and one transcript.
#ifndef LIFEBENCH_SRC_WORKLOADS_H_
#define LIFEBENCH_SRC_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace lifebench {

// Fake-credential count distribution D_c: (count, probability) pairs.
using FakeDistribution = std::vector<std::pair<size_t, double>>;

struct WorkloadSpec {
  std::string name;
  // Why the workload exists: the layers it exercises, the ones it bypasses,
  // and which prediction a change to those layers must satisfy here.
  std::string why;

  size_t voters = 0;
  size_t kiosks = 1;
  size_t officials = 1;
  FakeDistribution fakes;
  // Envelopes issued per roster entry; must exceed the mean credentials per
  // voter (n_E > c·|V| + λ_E, §E.2) or the booths run dry.
  size_t envelopes_per_voter = 3;
  size_t segment_entries = 1024;

  bool revoting = false;
  // Casting behaviour (shares of the electorate).
  double abstain = 0.0;
  double revote = 0.0;          // re-cast with the real credential
  size_t max_extra_casts = 1;   // re-casts per re-voter: 1..max_extra_casts
  double decoy = 0.0;           // of voters holding fakes: cast one decoy
  double coerced = 0.0;         // revote mode: coercer casts with the real credential
  // Share of the electorate that casts at all (registration day: a small
  // turnout sample after registration so the close-of-polls metrics exist).
  double turnout = 1.0;
};

// All workloads, in BENCHMARK.json order.
const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(const std::string& name);

// The closed loop serves the electorate in waves of this many voters (in
// roster order): a wave registers, activates, and posts all of its casts,
// re-casts included, before the next wave arrives. Each actor repeats its
// own operation within a wave, and every phase's samples are spread over
// the whole closed loop instead of one contiguous window.
inline constexpr size_t kWaveVoters = 64;

// Who posts a cast.
enum class Caster : uint8_t { kVoter, kCoercer };

// One cast in ledger order. `credential` indexes the voter's activated
// credentials: 0 is the real one, 1.. are fakes.
struct CastEvent {
  size_t voter = 0;
  size_t credential = 0;
  size_t candidate = 0;
  uint64_t counter = 0;  // revote mode only
  Caster caster = Caster::kVoter;
};

// The generated inputs of one run.
struct ElectionPlan {
  std::vector<std::string> roster;
  std::vector<size_t> fake_counts;  // per voter
  std::vector<CastEvent> casts;     // ledger order: by wave, then by round
  std::vector<std::string> candidates;
  // Role counts, for the run's metadata.
  size_t abstainers = 0;
  size_t revoters = 0;
  size_t decoys = 0;
  size_t coerced_outcount = 0;
  size_t coerced_comply = 0;
  size_t coerced_tie = 0;
};

// Sizes can be scaled down (self-test) without changing the mix of roles.
ElectionPlan GeneratePlan(const WorkloadSpec& spec, uint64_t seed, double scale = 1.0);

}  // namespace lifebench

#endif  // LIFEBENCH_SRC_WORKLOADS_H_
