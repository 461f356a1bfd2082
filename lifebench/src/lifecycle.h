// One whole election lifecycle through the program's public API:
//
//   setup (DKG, actor keys, roster, envelope issuance, tagging committee)
//   -> in-person registration (check-in, kiosk session, check-out)
//   -> VSD activation of every credential
//   -> casting (MakeBallot / MakeRevoteBallot, PublicLedger::PostBallot)
//   -> TallyService::Run -> VerifyElection -> independent result check.
//
// Load model: registration, activation and casting are a closed loop with
// one client (one desk queue: the next voter starts when the previous one
// leaves); tally and verify are batch jobs, each on its own Executor of
// RunConfig::threads threads, created before the phase's timer starts.
// Each layer is timed from outside, around the calls into its public
// functions.
#ifndef LIFEBENCH_SRC_LIFECYCLE_H_
#define LIFEBENCH_SRC_LIFECYCLE_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "lifebench/src/reference.h"
#include "lifebench/src/trace.h"
#include "lifebench/src/workloads.h"
#include "src/common/executor.h"
#include "src/trip/registrar.h"
#include "src/trip/setup.h"
#include "src/votegral/tally.h"
#include "src/votegral/verifier.h"

namespace lifebench {

// The host probe: a fixed integer-multiply kernel of a few microseconds,
// the benchmark's own code, returning its wall time in microseconds. On a
// shared host, other tenants' work slows throughput-bound code such as the
// program's field arithmetic by ~1.4-1.6x, in spells from a millisecond to
// several seconds, while latency-bound code barely slows (as when SMT
// siblings share a core's execution units). The probe is throughput-bound
// and slows down with the program.
double HostProbeUs();

// Contention-adjusts the closed-loop samples. How much of a run falls into
// contended spells varies from run to run, and with it every percentile of
// the raw samples (their quartiles over ten runs of one workload lie ~20%
// apart). So each sample is bracketed by two probe readings, one just
// before and one just after it, both outside its timer, and scaled by the
// run's quiet reading over the mean of its two readings (never scaled up).
// The quiet reading is the 1st percentile of all of the run's readings: a
// low percentile rather than the minimum, so that one lucky reading does
// not set it. The raw medians and the median slowdown go to the run's
// metadata.
class HostProbe {
 public:
  HostProbe();
  // One HostProbeUs() reading, kept for QuietUs().
  double Read();
  double QuietUs() const;
  // Each reading over QuietUs().
  std::vector<double> Slowdowns() const;

 private:
  std::vector<double> readings_us_;
};

struct RunConfig {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 1;
  // Index of this election within the run: every election of a run draws
  // its own inputs from (seed, election).
  uint64_t election = 0;
  double scale = 1.0;  // electorate scale (the self-test runs tiny elections)
  bool trace = false;  // traced run: every other sample records spans
  size_t threads = 1;     // executor threads of the tally and verify phases
  Tracer* tracer = nullptr;  // spans go here (required)
  HostProbe* probe = nullptr;  // brackets the closed-loop samples (required)
  std::string work_dir;      // file-backed ledgers live under here
};

// Counters of one batch phase. The phase runs on an executor of its own, so
// the executor counters (the max_queue_depth high-water mark too) are the
// phase's alone; the process-wide crypto counters are deltas across it.
struct PhaseCounters {
  votegral::ExecutorStats executor;
  uint64_t encodes = 0;
  uint64_t decodes = 0;
  uint64_t msm_collapsed_terms = 0;
  uint64_t msm_table_hits = 0;
  uint64_t msm_table_misses = 0;
};

// Closed-loop samples, each with the host probe that brackets it.
struct Samples {
  std::vector<double> ms;
  // The mean of the two HostProbe readings taken just before and just
  // after the sample.
  std::vector<double> probe_us;

  void Add(double sample_ms, double sample_probe_us) {
    ms.push_back(sample_ms);
    probe_us.push_back(sample_probe_us);
  }
  void Append(const Samples& other) {
    ms.insert(ms.end(), other.ms.begin(), other.ms.end());
    probe_us.insert(probe_us.end(), other.probe_us.begin(), other.probe_us.end());
  }
  size_t size() const { return ms.size(); }
  // The samples contention-adjusted to a probe reading of `quiet_us` (see
  // HostProbe).
  std::vector<double> Adjusted(double quiet_us) const;
};

struct LedgerFigures {
  uint64_t segments = 0;
  uint64_t disk_bytes = 0;
  uint64_t peak_pinned_bytes = 0;
  uint64_t merkle_hashes = 0;
};

class Lifecycle {
 public:
  explicit Lifecycle(RunConfig config);
  ~Lifecycle();

  Lifecycle(const Lifecycle&) = delete;
  Lifecycle& operator=(const Lifecycle&) = delete;

  // The phases, in order. Each records its samples and counts its
  // operations as attempted / failed.
  void Setup();
  // The closed loop, one client, wave by wave (kWaveVoters): the wave's
  // desk visits in roster order, then the activation of all of each of its
  // voters' credentials, then its casts in plan order.
  void ClosedLoop();
  // TallyService::Run, then VerifyElection, then the result check.
  void TallyAndVerify();

  // Every check a published tally must pass: VerifyElection and the
  // independent reference. Empty when the output is correct.
  std::vector<std::string> CheckOutput(const votegral::TallyOutput& output) const;

  const RunConfig& config() const { return config_; }
  const ElectionPlan& plan() const { return plan_; }
  const ExpectedResult& expected() const { return expected_; }
  const std::optional<votegral::TallyOutput>& output() const { return output_; }

  // Samples (milliseconds / seconds). In a traced run the *_traced sets
  // hold the samples that recorded spans and the plain ones the rest.
  double creation_s = 0.0;  // TripSystem + tagging committee creation
  Samples register_ms, register_ms_traced;
  Samples activate_ms, activate_ms_traced;
  Samples cast_ms, cast_ms_traced;
  // Traced samples only: the root span's duration over the sample's own
  // timer — how much of each measured sample the spans account for.
  std::vector<double> register_span_share, activate_span_share, cast_span_share;
  double tally_s = 0.0;
  double verify_s = 0.0;

  votegral::TallyRunMetrics tally_metrics;
  PhaseCounters tally_counters;
  PhaseCounters verify_counters;
  std::string digest;  // transcript digest (hex)

  size_t credentials_activated = 0;
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::string> failures;  // first few reasons

  LedgerFigures LedgerStats() const;

 private:
  void Fail(const std::string& what);
  // Files one closed-loop sample; `root_span` indexes its root span when traced.
  void Record(double ms, double probe_us, bool traced, size_t root_span, Samples& plain,
              Samples& traced_samples, std::vector<double>& span_share);
  std::string LedgerDir() const;
  uint64_t TraceId(uint64_t i) const { return (config_.election << 32) | i; }
  std::optional<votegral::RegistrationOutcome> RegisterVoter(size_t v, votegral::Rng& rng);
  void ActivateVoter(size_t v, const votegral::RegistrationOutcome& paper);
  void CastOne(size_t i, votegral::Rng& rng);
  votegral::VerifierParams MakeVerifierParams() const;

  RunConfig config_;
  uint64_t seed_;  // (seed, election) mixed
  ElectionPlan plan_;
  ExpectedResult expected_;
  Tracer& tracer_;
  HostProbe& probe_;
  std::optional<votegral::TripSystem> trip_;
  std::optional<votegral::TaggingService> tagging_;
  std::optional<votegral::CandidateList> candidates_;

  std::vector<std::vector<votegral::ActivatedCredential>> activated_;  // per voter
  std::vector<uint8_t> posted_;                                        // per cast
  std::optional<votegral::TallyOutput> output_;
};

// Pays every lazily-initialized, once-per-process cost up front (fixed-base
// tables, SIMD dispatch, X4 route calibrations, revote counter table, the
// first wake of `executor`'s workers), so none of them lands in a timed
// phase. Returns its wall time, which setup_s includes.
double WarmUpProcess(votegral::Executor& executor);

// Linearly interpolated percentile, q in [0, 1] (0 for an empty sample).
double Percentile(std::vector<double> values, double q);

}  // namespace lifebench

#endif  // LIFEBENCH_SRC_LIFECYCLE_H_
