#include "lifebench/src/lifecycle.h"

#include <algorithm>
#include <cmath>
#include <filesystem>

#include "src/common/clock.h"
#include "src/crypto/drbg.h"
#include "src/crypto/fe25519_x4.h"
#include "src/crypto/msm.h"
#include "src/votegral/ballot.h"
#include "src/votegral/revote.h"

namespace lifebench {

namespace fs = std::filesystem;
using votegral::WallTimer;

namespace {

// Independent DRBG streams per phase, so a phase's inputs do not depend on
// how much randomness an earlier phase consumed.
enum Stream : uint64_t { kSetup = 1, kRegister = 2, kCast = 3, kTally = 4 };

uint64_t StreamSeed(uint64_t seed, Stream stream) {
  return seed * 0x9E3779B97F4A7C15ull + stream * 0xBF58476D1CE4E5B9ull;
}

double Ms(const WallTimer& timer) { return timer.Seconds() * 1e3; }

template <typename T>
void Keep(const T& value) {
  asm volatile("" : : "r"(&value) : "memory");
}

// The process-wide crypto counters.
PhaseCounters CryptoCounters() {
  PhaseCounters c;
  c.encodes = votegral::RistrettoEncodeInvocations();
  c.decodes = votegral::RistrettoDecodeInvocations();
  const votegral::MsmSharedStats msm = votegral::SharedMsmStats();
  c.msm_collapsed_terms = msm.collapsed_terms;
  c.msm_table_hits = msm.table_hits;
  c.msm_table_misses = msm.table_misses;
  return c;
}

// A phase's counters: `phase` ran only that phase, the crypto counters are
// taken as deltas from `before`.
PhaseCounters PhaseDelta(const PhaseCounters& before, const votegral::Executor& phase) {
  const PhaseCounters after = CryptoCounters();
  PhaseCounters d;
  d.executor = phase.Stats();
  d.encodes = after.encodes - before.encodes;
  d.decodes = after.decodes - before.decodes;
  d.msm_collapsed_terms = after.msm_collapsed_terms - before.msm_collapsed_terms;
  d.msm_table_hits = after.msm_table_hits - before.msm_table_hits;
  d.msm_table_misses = after.msm_table_misses - before.msm_table_misses;
  return d;
}

}  // namespace

double WarmUpProcess(votegral::Executor& executor) {
  using votegral::RistrettoPoint;
  using votegral::Scalar;
  WallTimer timer;
  votegral::ChaChaRng rng(0x5741524D);
  const Scalar s = Scalar::Random(rng);
  const RistrettoPoint p = RistrettoPoint::MulBase(s);
  Keep(RistrettoPoint::BaseWire());
  const std::vector<Scalar> scalars = {s, s};
  const std::vector<RistrettoPoint> points = {p, p + p};
  Keep(votegral::MultiScalarMulWithBase(s, scalars, points));
  Keep(votegral::ActiveFeSimdBackend());
  RistrettoPoint a[4] = {p, p, p, p};
  RistrettoPoint sum[4];
  RistrettoPoint::AddX4(a, a, sum);
  Keep(sum);
  std::vector<RistrettoPoint> many(16, p);
  std::vector<votegral::CompressedRistretto> wire(many.size());
  votegral::BatchEncodePoints(many, wire);
  std::vector<RistrettoPoint> decoded(many.size());
  std::vector<uint8_t> ok(many.size());
  Keep(votegral::BatchDecodePoints(wire, decoded, ok));
  Keep(votegral::DecodeCounterPoint(wire[0]));
  Keep(votegral::RevoteBottomPoint());
  executor.ParallelFor(executor.threads() * 16, [](size_t, size_t) {});
  return timer.Seconds();
}

double HostProbeUs() {
  WallTimer timer;
  // Eight independent multiply chains: throughput-bound, like the field
  // arithmetic, so contention for the execution units shows.
  uint64_t lanes[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  for (int i = 0; i < 2500; ++i) {
    for (uint64_t k = 0; k < 8; ++k) {
      const unsigned __int128 m =
          static_cast<unsigned __int128>(lanes[k]) * 0x9E3779B97F4A7C15ull;
      lanes[k] = static_cast<uint64_t>(m) ^ static_cast<uint64_t>(m >> 64) ^ k;
    }
  }
  Keep(lanes);
  return timer.Seconds() * 1e6;
}

std::vector<double> Samples::Adjusted(double quiet_us) const {
  std::vector<double> adjusted(ms.size());
  for (size_t i = 0; i < ms.size(); ++i) {
    adjusted[i] = ms[i] * std::min(1.0, quiet_us / probe_us[i]);
  }
  return adjusted;
}

HostProbe::HostProbe() {
  for (int i = 0; i < 100; ++i) {
    Read();
  }
}

double HostProbe::Read() {
  readings_us_.push_back(HostProbeUs());
  return readings_us_.back();
}

double HostProbe::QuietUs() const { return Percentile(readings_us_, 0.01); }

std::vector<double> HostProbe::Slowdowns() const {
  const double quiet = QuietUs();
  std::vector<double> slowdowns;
  for (double us : readings_us_) {
    slowdowns.push_back(us / quiet);
  }
  return slowdowns;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(values.size() - 1, lo + 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

Lifecycle::Lifecycle(RunConfig config)
    : config_(std::move(config)),
      seed_(config_.seed ^ (config_.election * 0xD6E8FEB86659FD93ull)),
      plan_(GeneratePlan(*config_.spec, seed_, config_.scale)),
      tracer_(*config_.tracer),
      probe_(*config_.probe) {}

Lifecycle::~Lifecycle() {
  output_.reset();
  trip_.reset();
  std::error_code ignored;
  fs::remove_all(LedgerDir(), ignored);
}

std::string Lifecycle::LedgerDir() const {
  return (fs::path(config_.work_dir) / ("e" + std::to_string(config_.election) + "-ledger"))
      .string();
}

void Lifecycle::Fail(const std::string& what) {
  ++failed;
  if (failures.size() < 8) {
    failures.push_back(what);
  }
}

void Lifecycle::Record(double ms, double probe_us, bool traced, size_t root_span, Samples& plain,
                       Samples& traced_samples, std::vector<double>& span_share) {
  if (!traced) {
    plain.Add(ms, probe_us);
    return;
  }
  traced_samples.Add(ms, probe_us);
  span_share.push_back(tracer_.spans().at(root_span).duration_us() * 1e-3 / ms);
}

void Lifecycle::Setup() {
  const WorkloadSpec& spec = *config_.spec;
  std::error_code ignored;
  fs::remove_all(LedgerDir(), ignored);
  votegral::TripSystemParams params;
  params.authority_members = 4;
  params.kiosks = spec.kiosks;
  params.officials = spec.officials;
  params.envelopes_per_voter = spec.envelopes_per_voter;
  params.roster = plan_.roster;
  params.storage.backend = votegral::LedgerStorageConfig::Backend::kFile;
  params.storage.directory = LedgerDir();
  params.storage.segment_entries = spec.segment_entries;

  votegral::ChaChaRng rng(StreamSeed(seed_, kSetup));
  WallTimer timer;
  trip_.emplace(votegral::TripSystem::Create(params, rng));
  tagging_.emplace(votegral::TaggingService::Create(4, rng));
  candidates_.emplace(plan_.candidates);
  creation_s = timer.Seconds();
}

std::optional<votegral::RegistrationOutcome> Lifecycle::RegisterVoter(size_t v,
                                                                       votegral::Rng& rng) {
  const std::string& voter_id = plan_.roster[v];
  votegral::TripSystem& trip = *trip_;
  votegral::Official& official = trip.official(v % config_.spec->officials);
  votegral::Kiosk& kiosk = trip.kiosk(v % config_.spec->kiosks);
  votegral::EnvelopeSupply& booth = trip.booth_envelopes();
  ScopedSpan visit(tracer_, "register", TraceId(v));

  auto fail = [&](const std::string& step, const votegral::Status& status) {
    if (kiosk.in_session()) {
      (void)kiosk.EndSession();
    }
    Fail("register " + voter_id + ": " + step + ": " + status.ToString());
    return std::nullopt;
  };

  votegral::Outcome<votegral::CheckInTicket> ticket = [&] {
    ScopedSpan span(tracer_, "official.checkin", TraceId(v));
    return official.CheckIn(voter_id, trip.ledger());
  }();
  if (!ticket.ok()) {
    return fail("check-in", ticket.status);
  }
  {
    ScopedSpan span(tracer_, "kiosk.start_session", TraceId(v));
    if (votegral::Status s = kiosk.StartSession(*ticket); !s.ok()) {
      return fail("start session", s);
    }
  }

  votegral::RegistrationOutcome outcome;
  outcome.ticket = *ticket;
  {
    // Real credential: commit printed first, then the matching envelope.
    ScopedSpan span(tracer_, "kiosk.real", TraceId(v));
    auto printed = kiosk.BeginRealCredential(rng);
    if (!printed.ok()) {
      return fail("commit", printed.status);
    }
    votegral::Outcome<votegral::Envelope> envelope = [&] {
      ScopedSpan pick(tracer_, "booth.pick_envelope", TraceId(v));
      return booth.TakeWithSymbol(printed->symbol, rng);
    }();
    if (!envelope.ok()) {
      return fail("envelope", envelope.status);
    }
    auto real = kiosk.FinishRealCredential(*envelope, rng);
    if (!real.ok()) {
      return fail("real credential", real.status);
    }
    outcome.real = std::move(*real);
  }
  for (size_t i = 0; i < plan_.fake_counts[v]; ++i) {
    // Fake credential: envelope first.
    ScopedSpan span(tracer_, "kiosk.fake", TraceId(v));
    votegral::Outcome<votegral::Envelope> envelope = [&] {
      ScopedSpan pick(tracer_, "booth.pick_envelope", TraceId(v));
      return booth.TakeAny(rng);
    }();
    if (!envelope.ok()) {
      return fail("fake envelope", envelope.status);
    }
    auto fake = kiosk.CreateFakeCredential(*envelope, rng);
    if (!fake.ok()) {
      return fail("fake credential", fake.status);
    }
    outcome.fakes.push_back(std::move(*fake));
  }
  {
    ScopedSpan span(tracer_, "kiosk.end_session", TraceId(v));
    if (votegral::Status s = kiosk.EndSession(); !s.ok()) {
      return fail("end session", s);
    }
  }
  {
    // Check-out with any one credential: they all carry the same t_ot.
    ScopedSpan span(tracer_, "official.checkout", TraceId(v));
    const size_t show = rng.Uniform(1 + outcome.fakes.size());
    const votegral::CheckOutSegment& shown =
        show == 0 ? outcome.real.checkout : outcome.fakes[show - 1].checkout;
    if (votegral::Status s =
            official.CheckOut(shown, trip.authorized_kiosks(), trip.ledger(), rng);
        !s.ok()) {
      return fail("check-out", s);
    }
  }
  return outcome;
}

void Lifecycle::ClosedLoop() {
  const size_t n = plan_.roster.size();
  std::vector<std::optional<votegral::RegistrationOutcome>> paper(n);
  activated_.assign(n, {});
  posted_.assign(plan_.casts.size(), 0);
  votegral::ChaChaRng register_rng(StreamSeed(seed_, kRegister));
  votegral::ChaChaRng cast_rng(StreamSeed(seed_, kCast));
  size_t next_cast = 0;
  for (size_t begin = 0; begin < n; begin += kWaveVoters) {
    const size_t end = std::min(n, begin + kWaveVoters);
    // A traced run records spans for every other voter and ballot; the
    // others measure the same work without the recorder.
    for (size_t v = begin; v < end; ++v) {
      const bool traced = config_.trace && v % 2 == 0;
      tracer_.set_enabled(traced);
      ++attempted;
      const size_t root_span = tracer_.spans().size();
      const double probe_before = probe_.Read();
      WallTimer timer;
      paper[v] = RegisterVoter(v, register_rng);
      const double ms = Ms(timer);
      Record(ms, (probe_before + probe_.Read()) / 2, traced, root_span, register_ms,
             register_ms_traced, register_span_share);
    }
    for (size_t v = begin; v < end; ++v) {
      if (!paper[v].has_value()) {
        continue;
      }
      const bool traced = config_.trace && v % 2 == 0;
      tracer_.set_enabled(traced);
      ++attempted;
      const size_t root_span = tracer_.spans().size();
      const double probe_before = probe_.Read();
      WallTimer timer;
      ActivateVoter(v, *paper[v]);
      const double ms = Ms(timer);
      Record(ms, (probe_before + probe_.Read()) / 2, traced, root_span, activate_ms,
             activate_ms_traced, activate_span_share);
      paper[v].reset();
    }
    for (; next_cast < plan_.casts.size() && plan_.casts[next_cast].voter < end; ++next_cast) {
      CastOne(next_cast, cast_rng);
    }
  }
  tracer_.set_enabled(false);
}

void Lifecycle::ActivateVoter(size_t v, const votegral::RegistrationOutcome& paper) {
  // One device per voter.
  votegral::Vsd vsd = trip_->MakeVsd();
  ScopedSpan visit(tracer_, "activate", TraceId(v));
  for (size_t c = 0; c <= paper.fakes.size(); ++c) {
    const votegral::PaperCredential& credential = c == 0 ? paper.real : paper.fakes[c - 1];
    ScopedSpan span(tracer_, "vsd.activate", TraceId(v));
    auto activated = vsd.Activate(credential, trip_->ledger());
    if (!activated.ok()) {
      activated_[v].clear();
      return Fail("activate " + plan_.roster[v] + " credential " + std::to_string(c) + ": " +
                  activated.status.ToString());
    }
    activated_[v].push_back(std::move(*activated));
  }
  vsd.AcknowledgeRegistration(plan_.roster[v]);
  credentials_activated += activated_[v].size();
}

void Lifecycle::CastOne(size_t i, votegral::Rng& rng) {
  const CastEvent& cast = plan_.casts[i];
  ++attempted;
  if (cast.credential >= activated_[cast.voter].size()) {
    return Fail("cast " + std::to_string(i) + ": credential was never activated");
  }
  const votegral::ActivatedCredential& credential = activated_[cast.voter][cast.credential];
  const votegral::RistrettoPoint& authority_pk = trip_->authority_pk();
  const bool traced = config_.trace && i % 2 == 0;
  tracer_.set_enabled(traced);
  const size_t root_span = tracer_.spans().size();
  const double probe_before = probe_.Read();
  WallTimer timer;
  {
    ScopedSpan span(tracer_, "cast", TraceId(i));
    votegral::Bytes payload;
    if (config_.spec->revoting) {
      votegral::RevoteBallot ballot = [&] {
        ScopedSpan build(tracer_, "ballot.build", TraceId(i));
        return votegral::MakeRevoteBallot(credential, *candidates_, cast.candidate, authority_pk,
                                          cast.counter, rng);
      }();
      ScopedSpan serialize(tracer_, "ballot.serialize", TraceId(i));
      payload = ballot.Serialize();
    } else {
      votegral::Ballot ballot = [&] {
        ScopedSpan build(tracer_, "ballot.build", TraceId(i));
        return votegral::MakeBallot(credential, *candidates_, cast.candidate, authority_pk, rng);
      }();
      ScopedSpan serialize(tracer_, "ballot.serialize", TraceId(i));
      payload = ballot.Serialize();
    }
    ScopedSpan post(tracer_, "ledger.post_ballot", TraceId(i));
    trip_->ledger().PostBallot(std::move(payload));
  }
  const double ms = Ms(timer);
  Record(ms, (probe_before + probe_.Read()) / 2, traced, root_span, cast_ms, cast_ms_traced,
         cast_span_share);
  posted_[i] = 1;
}

votegral::VerifierParams Lifecycle::MakeVerifierParams() const {
  votegral::VerifierParams params;
  params.authority_pk = trip_->authority_pk();
  for (size_t i = 0; i < trip_->authority().size(); ++i) {
    params.authority_shares.push_back(trip_->authority().member(i).public_share);
  }
  params.tagging_commitments = tagging_->commitments();
  params.authorized_kiosks = trip_->authorized_kiosks();
  params.authorized_officials = trip_->authorized_officials();
  params.revoting = config_.spec->revoting;
  params.revote_padding = true;
  return params;
}

void Lifecycle::TallyAndVerify() {
  expected_ = ComputeExpected(plan_, config_.spec->revoting, posted_);
  tracer_.set_enabled(config_.trace);

  votegral::ChaChaRng rng(StreamSeed(seed_, kTally));
  votegral::Executor tally_executor(config_.threads);
  const votegral::TallyService service(
      trip_->authority(), *tagging_, /*mix_pairs=*/2, tally_executor, votegral::RetryPolicy(),
      votegral::TallyEngine::kDataflow, config_.spec->revoting, /*revote_padding=*/true);
  const PhaseCounters tally_before = CryptoCounters();
  ++attempted;
  WallTimer tally_timer;
  votegral::Outcome<votegral::TallyOutput> outcome = [&] {
    ScopedSpan span(tracer_, "tally.run", TraceId(0));
    return service.Run(trip_->ledger(), *candidates_, trip_->authorized_kiosks(), rng,
                       &tally_metrics);
  }();
  tally_s = tally_timer.Seconds();
  tally_counters = PhaseDelta(tally_before, tally_executor);
  if (!outcome.ok()) {
    tracer_.set_enabled(false);
    return Fail("tally: " + outcome.status.ToString());
  }

  votegral::Executor verify_executor(config_.threads);
  const PhaseCounters verify_before = CryptoCounters();
  ++attempted;
  WallTimer verify_timer;
  votegral::Status verified = [&] {
    ScopedSpan span(tracer_, "verify.election", TraceId(0));
    return votegral::VerifyElection(trip_->ledger(), MakeVerifierParams(), *candidates_,
                                    *outcome, verify_executor);
  }();
  verify_s = verify_timer.Seconds();
  verify_counters = PhaseDelta(verify_before, verify_executor);
  tracer_.set_enabled(false);
  if (!verified.ok()) {
    Fail("VerifyElection: " + verified.ToString());
  }

  ++attempted;
  if (const std::vector<std::string> diffs = CompareResult(expected_, *outcome); !diffs.empty()) {
    Fail("result check: " + diffs.front() + " (" + std::to_string(diffs.size()) +
         " mismatches)");
  }
  digest = Hex(TranscriptDigest(*outcome));
  output_ = std::move(*outcome);
}

std::vector<std::string> Lifecycle::CheckOutput(const votegral::TallyOutput& output) const {
  std::vector<std::string> problems;
  votegral::Executor executor(config_.threads);
  votegral::Status verified = votegral::VerifyElection(trip_->ledger(), MakeVerifierParams(),
                                                       *candidates_, output, executor);
  if (!verified.ok()) {
    problems.push_back("VerifyElection: " + verified.ToString());
  }
  for (const std::string& diff : CompareResult(expected_, output)) {
    problems.push_back("result check: " + diff);
  }
  return problems;
}

LedgerFigures Lifecycle::LedgerStats() const {
  LedgerFigures figures;
  const votegral::PublicLedger& ledger = trip_->ledger();
  for (const votegral::Ledger* log : {&ledger.roster_log(), &ledger.registration_log(),
                                      &ledger.envelope_log(), &ledger.ballot_log()}) {
    figures.segments += log->store().SegmentCount();
    figures.merkle_hashes += log->MerkleHashInvocationsForTest();
    if (const auto* file = dynamic_cast<const votegral::FileLedgerStore*>(&log->store())) {
      figures.peak_pinned_bytes = std::max(figures.peak_pinned_bytes, file->PeakPinnedBytes());
    }
  }
  std::error_code ec;
  const std::string dir = LedgerDir();
  for (auto it = fs::recursive_directory_iterator(dir, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (it->is_regular_file(ec)) {
      figures.disk_bytes += it->file_size(ec);
    }
  }
  return figures;
}

}  // namespace lifebench
