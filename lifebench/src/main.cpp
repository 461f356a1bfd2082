// lifebench — the election-lifecycle benchmark.
//
//   lifebench --workload <election|revote|registration> --seed N --seconds S
//             --trace <0|1> [--out-dir DIR]
//
// One run is one fresh process. After the process warm-up it runs whole
// election lifecycles (see src/lifecycle.h) back to back, each on its own
// inputs from the seeded generator (src/workloads.cpp says why each
// workload exists), as many as fit in `--seconds` of measured time; at least
// one always runs. Every metric pools its samples over all of the run's
// elections, so each is spread over the whole run rather than one contiguous
// window: latency percentiles over all booth visits, activations and casts
// (contention-adjusted, see HostProbe in src/lifecycle.h), tally_s and
// verify_s as medians over the elections' tallies, setup_s as the warm-up
// plus the median system creation. The executors run nproc threads, so
// they never oversubscribe the CPUs the process may use.
//
// `--trace 0` prints the end-to-end metrics; `--trace 1` is the separate
// traced run: every other voter and ballot records spans (the rest measure
// the recorder's overhead), a Chrome trace file is written to --out-dir, and
// the per-layer metrics are printed. Metadata (host, build, SIMD back-end,
// sizes, transcript digest) goes to stdout as one JSON line before the
// result, which is always the last line:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Failed operations count into `failed` (failed ÷ attempted is the run's
// failed share); any failure, result mismatch or VerifyElection rejection
// makes the run incorrect and the exit code nonzero.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "lifebench/src/lifecycle.h"
#include "lifebench/src/unit_costs.h"
#include "src/common/clock.h"
#include "src/crypto/fe25519_x4.h"

extern char** environ;

namespace lifebench {
namespace {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = "lifebench-out";
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "lifebench: %s\nusage: lifebench --workload <name> --seed N --seconds S "
               "--trace <0|1> [--out-dir DIR]\n",
               why.c_str());
  std::exit(2);
}

Options ParseOptions(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (i + 1 >= argc) {
      Usage("flag without a value: " + std::string(arg));
    }
    const char* value = argv[++i];
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::atof(value);
    } else if (arg == "--trace") {
      o.trace = std::string_view(value) == "1";
    } else if (arg == "--out-dir") {
      o.out_dir = value;
    } else {
      Usage("unknown flag " + std::string(arg));
    }
  }
  if (o.workload.empty()) {
    Usage("--workload is required");
  }
  if (o.seconds <= 0.0) {
    Usage("--seconds must be positive");
  }
  return o;
}

size_t Nproc() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<size_t>(CPU_COUNT(&set));
  }
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<size_t>(n) : 1;
}

std::string ReadProcField(const char* path, const char* key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      const size_t colon = line.find(':');
      std::string value = colon == std::string::npos ? "" : line.substr(colon + 1);
      value.erase(0, value.find_first_not_of(" \t"));
      return value;
    }
  }
  return "unknown";
}

std::vector<std::string> VotegralEnvironment() {
  std::vector<std::string> found;
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, "VOTEGRAL_", 9) == 0) {
      found.emplace_back(*env, std::strcspn(*env, "="));
    }
  }
  return found;
}

// The X4 routes are chosen by one-shot calibrations the program does not
// export. The point-addition route is inferred exactly: the X4 kernels and
// the scalar formula leave different loose-limb representations, so AddX4's
// output bytes show which one ran. The inverse-square-root route is
// inferred from timing against four scalar roots.
std::string X4PointsRoute() {
  using votegral::RistrettoPoint;
  RistrettoPoint a[4], b[4], auto_out[4], scalar_out[4];
  RistrettoPoint p = RistrettoPoint::Base();
  for (int k = 0; k < 4; ++k) {
    a[k] = p;
    p = p.Double();
    b[k] = p + RistrettoPoint::Base();
    scalar_out[k] = a[k] + b[k];
  }
  RistrettoPoint::AddX4(a, b, auto_out);
  return std::memcmp(auto_out, scalar_out, sizeof(auto_out)) == 0 ? "scalar" : "x4";
}

std::string X4RootsRoute() {
  using namespace votegral;
  Fe25519 v[4];
  for (uint64_t k = 0; k < 4; ++k) {
    uint8_t bytes[32] = {};
    bytes[0] = static_cast<uint8_t>(9 + 2 * k);
    v[k] = FeFromBytes(bytes);
  }
  SqrtRatioResult out[4];
  auto best_ns = [](auto&& body) {
    double best = 1e18;
    for (int rep = 0; rep < 9; ++rep) {
      WallTimer timer;
      for (int i = 0; i < 64; ++i) {
        body();
      }
      best = std::min(best, timer.Seconds() * 1e9);
    }
    return best;
  };
  const double x4 = best_ns([&] {
    FeInvSqrtX4(v, out);
    asm volatile("" : : "r"(out) : "memory");
  });
  const double scalar = best_ns([&] {
    for (int k = 0; k < 4; ++k) {
      out[k] = FeInvSqrt(v[k]);
    }
    asm volatile("" : : "r"(out) : "memory");
  });
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s (auto/scalar time %.2f)",
                x4 < 0.9 * scalar ? "x4" : "scalar", x4 / scalar);
  return buf;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string JoinValues(const std::vector<double>& values) {
  std::string out;
  char buf[32];
  for (double v : values) {
    std::snprintf(buf, sizeof(buf), "%s%.4f", out.empty() ? "" : ", ", v);
    out += buf;
  }
  return out;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Span durations / self times by name (traced samples only).
struct SpanTable {
  std::map<std::string, std::vector<double>> duration_us;
  std::map<std::string, std::vector<double>> self_us;
  std::map<std::string, std::vector<double>> self_share;

  explicit SpanTable(const Tracer& tracer) {
    for (const Tracer::Span& span : tracer.spans()) {
      duration_us[span.name].push_back(span.duration_us());
      self_us[span.name].push_back(span.self_us());
      self_share[span.name].push_back(span.duration_us() > 0 ? span.self_us() / span.duration_us()
                                                             : 0.0);
    }
  }
  double Dur(const std::string& name, double q) const { return Q(duration_us, name, q); }
  double Self(const std::string& name, double q) const { return Q(self_us, name, q); }
  double SelfShare(const std::string& name) const { return Q(self_share, name, 0.5); }

 private:
  static double Q(const std::map<std::string, std::vector<double>>& table,
                  const std::string& name, double q) {
    auto it = table.find(name);
    return it == table.end() ? 0.0 : Percentile(it->second, q);
  }
};

double Overhead(const Samples& traced, const Samples& untraced, double quiet_us) {
  const double base = Percentile(untraced.Adjusted(quiet_us), 0.5);
  return base > 0 ? (Percentile(traced.Adjusted(quiet_us), 0.5) - base) / base : 0.0;
}

void Append(std::vector<double>& to, const std::vector<double>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

// What a run keeps of each election once the election is torn down:
// samples pooled across elections, per-election figures for medians.
struct Pooled {
  Samples register_ms, register_ms_traced, activate_ms, activate_ms_traced, cast_ms,
      cast_ms_traced;
  std::vector<double> creation_s, register_span_share, activate_span_share, cast_span_share,
      tally_s, verify_s;

  // Per election.
  std::map<std::string, std::vector<double>> busy_s;  // stage -> busy seconds
  std::vector<double> busy_total_s, tally_threads, internal_wall_s;
  std::vector<PhaseCounters> tally_counters, verify_counters;
  std::vector<LedgerFigures> ledger;
  std::vector<double> credentials_per_voter, disk_bytes_per_voter, counted_over_ballots;
  std::vector<double> padded_items, dummy_groups, dummy_items, superseded, real_over_padded;

  size_t elections = 0, voters = 0, credentials = 0, ballots = 0, roster = 0;
  size_t attempted = 0, failed = 0;
  std::vector<std::string> failures;
  std::string digest;  // election 0's transcript digest
  ExpectedResult expected;  // election 0's reference
  ElectionPlan plan;        // election 0's inputs

  void Absorb(const Lifecycle& run) {
    ++elections;
    creation_s.push_back(run.creation_s);
    register_ms.Append(run.register_ms);
    register_ms_traced.Append(run.register_ms_traced);
    activate_ms.Append(run.activate_ms);
    activate_ms_traced.Append(run.activate_ms_traced);
    cast_ms.Append(run.cast_ms);
    cast_ms_traced.Append(run.cast_ms_traced);
    Append(register_span_share, run.register_span_share);
    Append(activate_span_share, run.activate_span_share);
    Append(cast_span_share, run.cast_span_share);
    attempted += run.attempted;
    failed += run.failed;
    for (const std::string& f : run.failures) {
      if (failures.size() < 8) {
        failures.push_back("election " + std::to_string(elections - 1) + ": " + f);
      }
    }
    const size_t n = run.plan().roster.size();
    voters += n;
    credentials += run.credentials_activated;
    ballots += run.expected().ballots;
    if (elections == 1) {
      digest = run.digest;
      expected = run.expected();
      plan = run.plan();
    }
    credentials_per_voter.push_back(static_cast<double>(run.credentials_activated) /
                                    static_cast<double>(n));
    const LedgerFigures figures = run.LedgerStats();
    ledger.push_back(figures);
    disk_bytes_per_voter.push_back(static_cast<double>(figures.disk_bytes) /
                                   static_cast<double>(n));
    if (!run.output().has_value()) {
      return;
    }
    const votegral::TallyOutput& out = *run.output();
    tally_s.push_back(run.tally_s);
    verify_s.push_back(run.verify_s);
    roster += out.transcript.roster_tags.size();
    counted_over_ballots.push_back(static_cast<double>(out.result.counted) /
                                   static_cast<double>(std::max<size_t>(1, run.expected().ballots)));
    double busy_total = 0.0;
    for (const votegral::TallyStageBusy& stage : run.tally_metrics.stages) {
      busy_s[stage.name].push_back(stage.busy_seconds);
      busy_total += stage.busy_seconds;
    }
    busy_total_s.push_back(busy_total);
    tally_threads.push_back(static_cast<double>(run.tally_metrics.threads));
    internal_wall_s.push_back(run.tally_metrics.wall_seconds);
    tally_counters.push_back(run.tally_counters);
    verify_counters.push_back(run.verify_counters);

    const votegral::RevoteTranscript& rt = out.transcript.revote;
    double dummy = 0.0;
    for (const votegral::RevoteDummyGroup& g : rt.dummies) {
      dummy += static_cast<double>(g.size);
    }
    const double padded = static_cast<double>(rt.mix_input.size());
    padded_items.push_back(padded);
    dummy_groups.push_back(static_cast<double>(rt.dummies.size()));
    dummy_items.push_back(dummy);
    superseded.push_back(run.config().spec->revoting
                             ? static_cast<double>(out.result.discards.superseded)
                             : 0.0);
    real_over_padded.push_back(padded > 0 ? static_cast<double>(rt.accepted.size()) / padded
                                          : 0.0);
  }
};

double Median(const std::vector<double>& values) { return Percentile(values, 0.5); }

template <typename T, typename F>
double MedianOf(const std::vector<T>& items, F&& field) {
  std::vector<double> values;
  for (const T& item : items) {
    values.push_back(static_cast<double>(field(item)));
  }
  return Median(values);
}

std::vector<Metric> EndToEndMetrics(const Pooled& p, double quiet_us, double warmup_s,
                                    double peak_rss_mib) {
  const std::vector<double> register_ms = p.register_ms.Adjusted(quiet_us);
  const std::vector<double> activate_ms = p.activate_ms.Adjusted(quiet_us);
  const std::vector<double> cast_ms = p.cast_ms.Adjusted(quiet_us);
  return {
      {"setup_s", warmup_s + Median(p.creation_s), "s"},
      {"register_ms_p50", Percentile(register_ms, 0.50), "ms"},
      {"register_ms_p99", Percentile(register_ms, 0.99), "ms"},
      {"activate_ms_p50", Percentile(activate_ms, 0.50), "ms"},
      {"activate_ms_p99", Percentile(activate_ms, 0.99), "ms"},
      {"cast_ms_p50", Percentile(cast_ms, 0.50), "ms"},
      {"cast_ms_p99", Percentile(cast_ms, 0.99), "ms"},
      {"tally_s", Median(p.tally_s), "s"},
      {"verify_s", Median(p.verify_s), "s"},
      {"peak_rss_mib", peak_rss_mib, "MiB"},
  };
}

std::vector<Metric> PerLayerMetrics(const Pooled& p, double quiet_us,
                                    const Tracer& tracer, const UnitCosts& unit) {
  const SpanTable spans(tracer);
  std::vector<Metric> m = {
      {"trip.checkin_us_p50", spans.Dur("official.checkin", 0.5), "us"},
      {"trip.kiosk_real_us_p50", spans.Self("kiosk.real", 0.5), "us"},
      {"trip.kiosk_fake_us_p50", spans.Self("kiosk.fake", 0.5), "us"},
      {"trip.envelope_pick_us_p50", spans.Dur("booth.pick_envelope", 0.5), "us"},
      {"trip.checkout_us_p50", spans.Dur("official.checkout", 0.5), "us"},
      {"trip.activate_us_p50", spans.Dur("vsd.activate", 0.5), "us"},
      {"trip.credentials_per_voter", Median(p.credentials_per_voter), "count"},
      {"ballot.build_us_p50", spans.Dur("ballot.build", 0.5), "us"},
      {"ledger.post_us_p50", spans.Dur("ledger.post_ballot", 0.5), "us"},
      {"ledger.post_us_p99", spans.Dur("ledger.post_ballot", 0.99), "us"},
      {"ledger.segments", MedianOf(p.ledger, [](const LedgerFigures& f) { return f.segments; }),
       "count"},
      {"ledger.disk_bytes_per_voter", Median(p.disk_bytes_per_voter), "B"},
      {"ledger.peak_pinned_bytes",
       MedianOf(p.ledger, [](const LedgerFigures& f) { return f.peak_pinned_bytes; }), "B"},
      {"ledger.merkle_hashes",
       MedianOf(p.ledger, [](const LedgerFigures& f) { return f.merkle_hashes; }), "count"},
  };

  // Stage busy times are per-election medians; occupancy is pooled, so
  // Σ busy = Σ tally_s × threads × occupancy holds over the run's tallies.
  for (const char* stage : {"validate", "dedup", "mix", "tag", "decrypt-tags", "join",
                            "decrypt-votes", "release-gate"}) {
    auto it = p.busy_s.find(stage);
    m.push_back({std::string("tally.") + stage + ".busy_s",
                 it == p.busy_s.end() ? 0.0 : Median(it->second), "s"});
  }
  double busy = 0.0;
  double capacity = 0.0;
  double internal = 0.0;
  double external = 0.0;
  for (size_t i = 0; i < p.busy_total_s.size(); ++i) {
    busy += p.busy_total_s[i];
    capacity += p.tally_s[i] * p.tally_threads[i];
    internal += p.internal_wall_s[i];
    external += p.tally_s[i];
  }
  m.push_back({"tally.busy_s", Median(p.busy_total_s), "s"});
  m.push_back({"tally.occupancy", capacity > 0 ? busy / capacity : 0.0, "ratio"});
  m.push_back({"tally.counted_over_ballots", Median(p.counted_over_ballots), "ratio"});
  m.push_back({"tally.internal_over_external_wall", external > 0 ? internal / external : 0.0,
               "ratio"});

  m.push_back({"revote.padded_items", Median(p.padded_items), "count"});
  m.push_back({"revote.dummy_groups", Median(p.dummy_groups), "count"});
  m.push_back({"revote.dummy_items", Median(p.dummy_items), "count"});
  m.push_back({"revote.superseded", Median(p.superseded), "count"});
  m.push_back({"revote.real_over_padded", Median(p.real_over_padded), "ratio"});

  using PC = PhaseCounters;
  const auto& tc = p.tally_counters;
  const auto& vc = p.verify_counters;
  m.push_back({"executor.tasks.tally",
               MedianOf(tc, [](const PC& c) { return c.executor.tasks_executed; }), "count"});
  m.push_back({"executor.tasks.verify",
               MedianOf(vc, [](const PC& c) { return c.executor.tasks_executed; }), "count"});
  m.push_back({"executor.steals.tally", MedianOf(tc, [](const PC& c) { return c.executor.steals; }),
               "count"});
  m.push_back({"executor.steals.verify",
               MedianOf(vc, [](const PC& c) { return c.executor.steals; }), "count"});
  m.push_back({"executor.steal_failures.tally",
               MedianOf(tc, [](const PC& c) { return c.executor.steal_failures; }), "count"});
  m.push_back({"executor.steal_failures.verify",
               MedianOf(vc, [](const PC& c) { return c.executor.steal_failures; }), "count"});
  m.push_back({"executor.max_queue_depth.tally",
               MedianOf(tc, [](const PC& c) { return c.executor.max_queue_depth; }), "count"});
  m.push_back({"executor.max_queue_depth.verify",
               MedianOf(vc, [](const PC& c) { return c.executor.max_queue_depth; }), "count"});
  m.push_back({"crypto.encodes.tally", MedianOf(tc, [](const PC& c) { return c.encodes; }),
               "count"});
  m.push_back({"crypto.encodes.verify", MedianOf(vc, [](const PC& c) { return c.encodes; }),
               "count"});
  m.push_back({"crypto.decodes.tally", MedianOf(tc, [](const PC& c) { return c.decodes; }),
               "count"});
  m.push_back({"crypto.decodes.verify", MedianOf(vc, [](const PC& c) { return c.decodes; }),
               "count"});
  m.push_back({"msm.collapsed_terms.verify",
               MedianOf(vc, [](const PC& c) { return c.msm_collapsed_terms; }), "count"});
  m.push_back({"msm.table_hits.verify", MedianOf(vc, [](const PC& c) { return c.msm_table_hits; }),
               "count"});
  m.push_back({"msm.table_misses.verify",
               MedianOf(vc, [](const PC& c) { return c.msm_table_misses; }), "count"});

  m.push_back({"crypto.mulbase_us", unit.mulbase_us, "us"});
  m.push_back({"crypto.mul_us", unit.mul_us, "us"});
  m.push_back({"crypto.dleq_prove_us", unit.dleq_prove_us, "us"});
  m.push_back({"crypto.dleq_verify_us", unit.dleq_verify_us, "us"});
  m.push_back({"crypto.msm4096_us_per_point", unit.msm4096_us_per_point, "us"});
  m.push_back({"crypto.schnorr_sign_us", unit.schnorr_sign_us, "us"});
  m.push_back({"crypto.sha256_ns_per_block", unit.sha256_ns_per_block, "ns"});

  m.push_back({"trace.overhead_share.register",
               Overhead(p.register_ms_traced, p.register_ms, quiet_us), "ratio"});
  m.push_back({"trace.overhead_share.activate",
               Overhead(p.activate_ms_traced, p.activate_ms, quiet_us), "ratio"});
  m.push_back({"trace.overhead_share.cast",
               Overhead(p.cast_ms_traced, p.cast_ms, quiet_us), "ratio"});
  m.push_back({"trace.register_residual_share", spans.SelfShare("register"), "ratio"});
  m.push_back({"trace.activate_residual_share", spans.SelfShare("activate"), "ratio"});
  m.push_back({"trace.cast_residual_share", spans.SelfShare("cast"), "ratio"});
  m.push_back({"trace.register_span_over_sample", Median(p.register_span_share), "ratio"});
  m.push_back({"trace.activate_span_over_sample", Median(p.activate_span_share), "ratio"});
  m.push_back({"trace.cast_span_over_sample", Median(p.cast_span_share), "ratio"});
  m.push_back({"samples.register_traced", static_cast<double>(p.register_ms_traced.size()),
               "count"});
  m.push_back({"samples.cast_traced", static_cast<double>(p.cast_ms_traced.size()), "count"});
  m.push_back({"samples.elections", static_cast<double>(p.elections), "count"});
  return m;
}

void PrintMetrics(const std::vector<Metric>& metrics, bool correct, size_t attempted,
                  size_t failed) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  const Options options = ParseOptions(argc, argv);
  const WorkloadSpec* spec = FindWorkload(options.workload);
  if (spec == nullptr) {
    Usage("unknown workload " + options.workload);
  }

  // Guards: numbers from an unoptimized build or a non-default dispatch are
  // not what users get, so refuse to report them.
#if !defined(__OPTIMIZE__)
  std::fprintf(stderr, "lifebench: refusing to run an unoptimized build (%s)\n",
               LIFEBENCH_BUILD_TYPE);
  return 3;
#endif
  const size_t nproc = Nproc();
  if (const std::vector<std::string> env = VotegralEnvironment(); !env.empty()) {
    std::fprintf(stderr,
                 "lifebench: %s is set; runs must use the default dispatch users get\n",
                 env.front().c_str());
    return 3;
  }

  std::error_code ec;
  const std::filesystem::path work_dir =
      std::filesystem::path(options.out_dir) /
      ("run-" + std::to_string(static_cast<long long>(getpid())));
  std::filesystem::create_directories(work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "lifebench: cannot create %s\n", work_dir.c_str());
    return 3;
  }

  // The process executor (registration-day batch kernels run on it) is
  // spawned inside setup_s.
  votegral::WallTimer spawn;
  votegral::Executor executor(nproc);
  const double spawn_s = spawn.Seconds();
  votegral::Executor::Scope scope(executor);
  const double warmup_s = spawn_s + WarmUpProcess(executor);

  // Elections run back to back while the next one (at the mean election
  // time so far) still fits in --seconds; at least one always runs. Every
  // metric's samples are thus spread over the whole run instead of one
  // contiguous window.
  Tracer tracer;
  HostProbe probe;
  Pooled pooled;
  votegral::WallTimer measured;
  for (uint64_t election = 0;
       election == 0 ||
       (pooled.failed == 0 && measured.Seconds() * static_cast<double>(election + 1) /
                                      static_cast<double>(election) <=
                                  options.seconds);
       ++election) {
    RunConfig config;
    config.spec = spec;
    config.seed = options.seed;
    config.election = election;
    config.trace = options.trace;
    config.threads = nproc;
    config.tracer = &tracer;
    config.probe = &probe;
    config.work_dir = work_dir.string();
    Lifecycle run(config);
    run.Setup();
    run.ClosedLoop();
    run.TallyAndVerify();
    pooled.Absorb(run);
  }
  const double measured_s = measured.Seconds();

  std::string trace_file;
  UnitCosts unit;
  if (options.trace) {
    unit = MeasureUnitCosts(options.seed);
    trace_file = (std::filesystem::path(options.out_dir) /
                  ("trace-" + spec->name + "-seed" + std::to_string(options.seed) + ".json"))
                     .string();
    ++pooled.attempted;
    if (!tracer.WriteChromeTrace(trace_file)) {
      ++pooled.failed;
      pooled.failures.push_back("cannot write " + trace_file);
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mib = static_cast<double>(usage.ru_maxrss) / 1024.0;
  std::filesystem::remove_all(work_dir, ec);

  const bool correct = pooled.failed == 0 && !pooled.tally_s.empty();
  const double quiet_us = probe.QuietUs();
  const std::vector<Metric> metrics = options.trace
                                          ? PerLayerMetrics(pooled, quiet_us, tracer, unit)
                                          : EndToEndMetrics(pooled, quiet_us, warmup_s,
                                                            peak_rss_mib);

  const ExpectedResult& expected = pooled.expected;
  const ElectionPlan& plan = pooled.plan;
  char meta[6144];
  std::snprintf(
      meta, sizeof(meta),
      "{\"meta\": {\"workload\": \"%s\", \"why\": \"%s\", \"seed\": %llu, "
      "\"trace\": %d, \"nproc\": %zu, \"executor_threads\": %zu, "
      "\"process_threads\": \"%s\", \"cpu\": \"%s\", \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"simd_backend\": \"%s\", \"x4_points_route\": \"%s\", "
      "\"x4_roots_route\": \"%s\", \"elections\": %zu, \"voters_per_election\": %zu, "
      "\"kiosks\": %zu, \"officials\": %zu, \"credentials\": %zu, \"ballots\": %zu, "
      "\"roster\": %zu, \"segment_entries\": %zu, \"revoting\": %s, "
      "\"samples\": {\"register\": %zu, \"activate\": %zu, \"cast\": %zu, \"tally\": %zu, "
      "\"verify\": %zu}, \"probe_quiet_us\": %.2f, \"probe_median_slowdown\": %.3f, "
      "\"raw_p50_ms\": {\"register\": %.4f, \"activate\": %.4f, \"cast\": %.4f}, "
      "\"measured_s\": %.3f, \"warmup_s\": %.4f, \"creation_s\": [%s], "
      "\"tally_s\": [%s], \"verify_s\": [%s], "
      "\"plan_election0\": {\"abstainers\": %zu, \"revoters\": %zu, \"decoys\": %zu, "
      "\"coerced_outcount\": %zu, \"coerced_comply\": %zu, \"coerced_tie\": %zu}, "
      "\"expected_election0\": {\"counted\": %zu, \"real_superseded\": %zu, "
      "\"real_unmatched_tag\": %zu, "
      "\"duplicate_tag\": %zu}, "
      "\"failed_share\": %.6f, \"digest_election0\": \"%s\", \"trace_file\": \"%s\"}}",
      spec->name.c_str(), JsonEscape(spec->why).c_str(),
      static_cast<unsigned long long>(options.seed), options.trace ? 1 : 0, nproc, nproc,
      ReadProcField("/proc/self/status", "Threads").c_str(),
      JsonEscape(ReadProcField("/proc/cpuinfo", "model name")).c_str(),
      JsonEscape(__VERSION__).c_str(), LIFEBENCH_BUILD_TYPE,
      votegral::FeSimdBackendName(votegral::ActiveFeSimdBackend()), X4PointsRoute().c_str(),
      X4RootsRoute().c_str(), pooled.elections,
      pooled.elections > 0 ? pooled.voters / pooled.elections : 0, spec->kiosks,
      spec->officials, pooled.credentials, pooled.ballots, pooled.roster, spec->segment_entries,
      spec->revoting ? "true" : "false",
      pooled.register_ms.size() + pooled.register_ms_traced.size(),
      pooled.activate_ms.size() + pooled.activate_ms_traced.size(),
      pooled.cast_ms.size() + pooled.cast_ms_traced.size(), pooled.tally_s.size(),
      pooled.verify_s.size(), quiet_us, Median(probe.Slowdowns()),
      Percentile(pooled.register_ms.ms, 0.5), Percentile(pooled.activate_ms.ms, 0.5),
      Percentile(pooled.cast_ms.ms, 0.5), measured_s,
      warmup_s, JoinValues(pooled.creation_s).c_str(),
      JoinValues(pooled.tally_s).c_str(), JoinValues(pooled.verify_s).c_str(),
      plan.abstainers, plan.revoters, plan.decoys, plan.coerced_outcount, plan.coerced_comply,
      plan.coerced_tie, expected.counted, expected.superseded, expected.unmatched_tag,
      expected.duplicate_tag,
      pooled.attempted > 0
          ? static_cast<double>(pooled.failed) / static_cast<double>(pooled.attempted)
          : 1.0,
      pooled.digest.c_str(), JsonEscape(trace_file).c_str());
  for (const std::string& failure : pooled.failures) {
    std::fprintf(stderr, "lifebench: FAILED: %s\n", failure.c_str());
  }
  std::printf("%s\n", meta);
  PrintMetrics(metrics, correct, pooled.attempted, pooled.failed);
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace lifebench

int main(int argc, char** argv) {
  try {
    return lifebench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lifebench: aborted: %s\n", e.what());
    return 4;
  }
}
