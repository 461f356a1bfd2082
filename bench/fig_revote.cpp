// Deniable-revoting cost: supersession dedup + cover-traffic padding at
// election scale (docs/REVOTING.md, docs/BENCHMARKS.md).
//
// What this measures (and the claims it backs):
//  * The selection kernel differential at 10^5+ items: SelectLastPerTag
//    (quasilinear tag-sort) must match the quadratic last-write-wins
//    reference byte for byte at the headline size — the at-scale leg of the
//    tests/test_revote.cpp differential.
//  * Kernel sweep: selection + padding-plan time across sizes, showing the
//    dedup core is quasilinear and the padded board stays within the cover
//    envelope bound <= 5T + O(log^2 T) items.
//  * Full revote tallies off a file-backed segmented ledger, sweeping
//    revote rate x ballot count: end-to-end wall clock, the dedup stage's
//    busy time, padding overhead (dummy groups/items), and the streaming
//    contract — peak pinned ledger payload stays within
//    (threads+2)·(2·segment + 64 KiB), i.e. O(threads × segment), not O(N),
//    even though the dedup pipeline mixes ~3.3N padded width-3 items.
//  * Supersession accounting: every run cross-checks superseded /
//    unmatched-tag discards against the forged corpus and the published
//    dummy openings, and (while affordable) replays the kept set with the
//    quadratic reference over the published tags and counters.
//
// The corpus is forged directly (per-credential keys, ballots via the real
// MakeRevoteBallot) like bench/fig_stream_tally.cpp: registration ceremony
// costs would dominate setup without touching a tally code path. Revotes
// are extra casts with incremented counters by the first rate*N credentials,
// so the corpus has floor(rate*N) supersessions by construction.
//
// Scale knobs: --ballots N (headline kernel size, default 2^17;
// VOTEGRAL_BENCH_BALLOTS env works too), --tally N1,N2 (full-tally sizes,
// default 2048,8192,32768; VOTEGRAL_BENCH_TALLY env), --rate R (default
// 0.25), --threads T (default 1), --segment E. Emits BENCH_revote.json.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <unistd.h>
#include <vector>

#include "src/common/clock.h"
#include "src/common/table.h"
#include "src/crypto/drbg.h"
#include "src/crypto/schnorr.h"
#include "src/ledger/subledgers.h"
#include "src/trip/vsd.h"
#include "src/votegral/ballot.h"
#include "src/votegral/revote.h"
#include "src/votegral/tally.h"

namespace votegral {
namespace {

namespace fs = std::filesystem;

struct Options {
  size_t ballots = size_t{1} << 17;  // headline kernel-differential size
  std::vector<size_t> tally_ballots = {2048, 8192, 32768};
  double rate = 0.25;
  size_t threads = 1;
  size_t segment_entries = 1024;
  std::string out = "BENCH_revote.json";
};

std::vector<size_t> ParseSizeList(const char* arg) {
  std::vector<size_t> sizes;
  for (const char* p = arg; *p != '\0';) {
    char* end = nullptr;
    long value = std::strtol(p, &end, 10);
    if (end == p) {
      break;
    }
    if (value > 0) {
      sizes.push_back(static_cast<size_t>(value));
    }
    p = (*end == ',') ? end + 1 : end;
  }
  return sizes;
}

Options ParseOptions(int argc, char** argv) {
  Options options;
  if (const char* env = std::getenv("VOTEGRAL_BENCH_BALLOTS")) {
    long parsed = std::atol(env);
    if (parsed > 0) {
      options.ballots = static_cast<size_t>(parsed);
    }
  }
  if (const char* env = std::getenv("VOTEGRAL_BENCH_TALLY")) {
    auto parsed = ParseSizeList(env);
    if (!parsed.empty()) {
      options.tally_ballots = parsed;
    }
  }
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    auto next = [&]() -> const char* {
      Require(i + 1 < argc, "fig_revote: flag needs a value");
      return argv[++i];
    };
    if (arg == "--ballots") {
      options.ballots = static_cast<size_t>(std::atol(next()));
    } else if (arg == "--tally") {
      options.tally_ballots = ParseSizeList(next());
    } else if (arg == "--rate") {
      options.rate = std::atof(next());
    } else if (arg == "--threads") {
      options.threads = static_cast<size_t>(std::atol(next()));
    } else if (arg == "--segment") {
      options.segment_entries = static_cast<size_t>(std::atol(next()));
    } else if (arg == "--out") {
      options.out = next();
    } else {
      std::fprintf(stderr,
                   "usage: fig_revote [--ballots N] [--tally N1,N2] [--rate R] "
                   "[--threads T] [--segment E] [--out FILE]\n");
      std::exit(2);
    }
  }
  Require(options.ballots > 0 && !options.tally_ballots.empty(),
          "fig_revote: need a headline size and a tally size list");
  Require(options.rate >= 0.0 && options.rate < 1.0, "fig_revote: rate in [0, 1)");
  Require(options.threads > 0, "fig_revote: need at least one thread");
  return options;
}

// --- Part 1: selection kernel + padding plan, crypto-free ------------------

// k*B encodings for k = 0..n-1, built incrementally (the counter table).
std::vector<CompressedRistretto> CounterEncodings(size_t n) {
  std::vector<CompressedRistretto> out;
  out.reserve(n);
  RistrettoPoint point;  // identity = 0*B
  for (size_t k = 0; k < n; ++k) {
    out.push_back(point.Encode());
    point = point + RistrettoPoint::Base();
  }
  return out;
}

// A shuffled board of `items` (tag, counter-point) pairs at the given revote
// rate: floor(rate*items) casts are re-casts (counter 1) by the first
// credentials, the rest first casts. Tags are uniform 32-byte strings — the
// selection kernel treats them as opaque sort keys, exactly as it treats
// the real post-mix tag decryptions.
struct KernelBoard {
  std::vector<CompressedRistretto> tags;
  std::vector<CompressedRistretto> counters;
  size_t credentials = 0;
  size_t revotes = 0;
};

KernelBoard MakeKernelBoard(size_t items, double rate,
                            const std::vector<CompressedRistretto>& counter_table,
                            Rng& rng) {
  KernelBoard board;
  board.revotes = static_cast<size_t>(static_cast<double>(items) * rate);
  board.credentials = items - board.revotes;
  Require(board.credentials > 0, "fig_revote: rate leaves no credentials");
  std::vector<CompressedRistretto> credential_tags(board.credentials);
  for (auto& tag : credential_tags) {
    rng.Fill(tag);
  }
  board.tags.reserve(items);
  board.counters.reserve(items);
  for (size_t i = 0; i < board.credentials; ++i) {
    board.tags.push_back(credential_tags[i]);
    board.counters.push_back(counter_table[0]);
  }
  for (size_t i = 0; i < board.revotes; ++i) {
    const size_t credential = i % board.credentials;
    board.tags.push_back(credential_tags[credential]);
    board.counters.push_back(counter_table[1 + i / board.credentials]);
  }
  // Fisher–Yates: the kernel must not benefit from a presorted board.
  for (size_t i = items; i > 1; --i) {
    const size_t j = static_cast<size_t>(rng.Uniform(i));
    std::swap(board.tags[i - 1], board.tags[j]);
    std::swap(board.counters[i - 1], board.counters[j]);
  }
  return board;
}

bool SameSelection(const RevoteSelection& a, const RevoteSelection& b) {
  return a.kept == b.kept && a.superseded == b.superseded &&
         a.duplicate_tag == b.duplicate_tag &&
         a.invalid_structure == b.invalid_structure && a.group_sizes == b.group_sizes;
}

struct KernelRow {
  size_t items = 0;
  size_t groups = 0;
  size_t dummy_items = 0;
  size_t padded_items = 0;
  double select_s = 0.0;
  double plan_s = 0.0;
};

// Envelope item bound: padded board <= 5T + S(S+1)/2 (revote.h).
size_t PaddedItemBound(size_t total) {
  const size_t classes = RevoteCoverClasses(total);
  return 5 * total + classes * (classes + 1) / 2;
}

// --- Part 2: full revote tallies off a file-backed ledger ------------------

// Forges the revote corpus straight onto a file-backed PublicLedger: one
// credential + registration record per voter, a counter-0 cast each, then
// floor(rate*N) counter-1 re-casts by the first credentials. No kiosk: under
// revoting, eligibility is the tag join and validity the binding proof.
struct Fixture {
  PublicLedger ledger;
  ElectionAuthority authority;
  TaggingService tagging;
  CandidateList candidates;
  size_t credentials = 0;
  size_t revotes = 0;
  double ingest_seconds = 0.0;
  uint64_t ledger_bytes = 0;

  Fixture(size_t ballots, double rate, size_t segment_entries, const std::string& dir,
          Rng& rng)
      : ledger(MakeStorage(segment_entries, dir)),
        authority(ElectionAuthority::Create(4, rng)),
        tagging(TaggingService::Create(4, rng)),
        candidates({"Alpha", "Beta", "Gamma"}) {
    revotes = static_cast<size_t>(static_cast<double>(ballots) * rate);
    credentials = ballots - revotes;
    Require(credentials > 0, "fig_revote: rate leaves no credentials");

    WallTimer timer;
    std::vector<ActivatedCredential> activated(credentials);
    for (size_t i = 0; i < credentials; ++i) {
      const std::string voter_id = "voter-" + std::to_string(i);
      ledger.AddEligibleVoter(voter_id);

      SchnorrKeyPair credential = SchnorrKeyPair::Generate(rng);
      activated[i].voter_id = voter_id;
      activated[i].credential_sk = credential.secret();
      activated[i].credential_pk = credential.public_bytes();
      activated[i].public_credential =
          ElGamalEncrypt(authority.public_key(), credential.public_point(), rng);

      RegistrationRecord record;
      record.voter_id = voter_id;
      record.public_credential = activated[i].public_credential;
      Require(ledger.PostRegistration(record).ok(), "fig_revote: registration rejected");

      Post(MakeRevoteBallot(activated[i], candidates, i % candidates.size(),
                            authority.public_key(), /*counter=*/0, rng));
    }
    for (size_t i = 0; i < revotes; ++i) {
      const size_t credential = i % credentials;
      Post(MakeRevoteBallot(activated[credential], candidates,
                            (credential + 1) % candidates.size(), authority.public_key(),
                            /*counter=*/1 + i / credentials, rng));
    }
    ingest_seconds = timer.Seconds();
  }

  void Post(const RevoteBallot& ballot) {
    Bytes payload = ballot.Serialize();
    ledger_bytes += payload.size();
    ledger.PostBallot(std::move(payload));
  }

  static LedgerStorageConfig MakeStorage(size_t segment_entries, const std::string& dir) {
    LedgerStorageConfig storage;
    storage.backend = LedgerStorageConfig::Backend::kFile;
    storage.directory = dir;
    storage.segment_entries = segment_entries;
    return storage;
  }

  const FileLedgerStore* ballot_store() const {
    return dynamic_cast<const FileLedgerStore*>(&ledger.ballot_log().store());
  }
};

struct TallyRow {
  size_t ballots = 0;
  double rate = 0.0;
  size_t credentials = 0;
  size_t accepted = 0;
  size_t padded_items = 0;
  size_t dummy_groups = 0;
  size_t dummy_items = 0;
  size_t superseded = 0;
  size_t unmatched_tag = 0;
  size_t counted = 0;
  double ingest_s = 0.0;
  double tally_s = 0.0;
  double dedup_stage_s = 0.0;
  uint64_t peak_pinned_bytes = 0;
  uint64_t segments = 0;
  uint64_t ledger_payload_bytes = 0;
  bool kept_replayed = false;
};

// Replaying the quadratic reference over the published tags/counters is
// affordable up to roughly this many padded items on one core.
constexpr size_t kKeptReplayLimit = 140000;

TallyRow RunTally(size_t ballots, double rate, const Options& options, size_t index) {
  const fs::path dir = fs::temp_directory_path() /
                       ("votegral-revote-" + std::to_string(static_cast<unsigned>(getpid())) +
                        "-" + std::to_string(index));
  fs::remove_all(dir);
  ChaChaRng rng(0x2EF07E000 + index);
  Fixture fixture(ballots, rate, options.segment_entries, dir.string(), rng);
  const FileLedgerStore* store = fixture.ballot_store();
  Require(store != nullptr, "fig_revote: expected the file backend");

  TallyRow row;
  row.ballots = ballots;
  row.rate = rate;
  row.credentials = fixture.credentials;
  row.ingest_s = fixture.ingest_seconds;
  row.ledger_payload_bytes = fixture.ledger_bytes;

  Executor executor(options.threads);
  TallyService service(fixture.authority, fixture.tagging, /*mix_pairs=*/2, executor,
                       RetryPolicy(), TallyEngine::kDataflow,
                       /*revoting=*/true, /*revote_padding=*/true);
  TallyRunMetrics metrics;
  ChaChaRng tally_rng(0x57E1ABAD);
  WallTimer timer;
  TallyOutput output = std::move(*service.Run(fixture.ledger, fixture.candidates,
                                              /*authorized_kiosks=*/{}, tally_rng, &metrics));
  row.tally_s = timer.Seconds();
  for (const TallyStageBusy& stage : metrics.stages) {
    if (stage.name == std::string("dedup")) {
      row.dedup_stage_s = stage.busy_seconds;
    }
  }

  const RevoteTranscript& rt = output.transcript.revote;
  row.accepted = rt.accepted.size();
  row.padded_items = rt.mix_input.size();
  row.dummy_groups = rt.dummies.size();
  for (const RevoteDummyGroup& group : rt.dummies) {
    row.dummy_items += group.size;
  }
  row.superseded = output.result.discards.superseded;
  row.unmatched_tag = output.result.discards.unmatched_tag;
  row.counted = output.result.counted;
  row.peak_pinned_bytes = store->PeakPinnedBytes();
  row.segments = store->SegmentCount();

  // Supersession accounting against the forged corpus and the published
  // dummy openings: every re-cast supersedes one real ballot, every dummy
  // group contributes size-1 superseded members and one unmatched tag.
  Require(row.accepted == ballots, "fig_revote: every forged ballot must be accepted");
  Require(row.counted == fixture.credentials,
          "fig_revote: every credential's last cast must count");
  size_t dummy_superseded = 0;
  for (const RevoteDummyGroup& group : rt.dummies) {
    Require(group.size >= 1, "fig_revote: empty dummy group");
    dummy_superseded += static_cast<size_t>(group.size) - 1;
  }
  Require(row.superseded == fixture.revotes + dummy_superseded,
          "fig_revote: superseded discards do not match the corpus + dummies");
  Require(row.unmatched_tag == row.dummy_groups,
          "fig_revote: each dummy group must drop as exactly one unmatched tag");
  Require(row.padded_items == row.accepted + row.dummy_items,
          "fig_revote: padded board must be accepted + dummy items");
  Require(row.padded_items <= PaddedItemBound(row.accepted),
          "fig_revote: padded board exceeds the cover envelope bound");

  // Replay the selection with the quadratic reference over the *published*
  // tags and counter points (what any auditor sees) while affordable.
  if (row.padded_items <= kKeptReplayLimit) {
    RevoteSelection fast = SelectLastPerTag(rt.tags, rt.counter_points);
    RevoteSelection reference = SelectLastPerTagQuadratic(rt.tags, rt.counter_points);
    Require(SameSelection(fast, reference),
            "fig_revote: quadratic replay diverged from the tally's selection");
    Require(fast.kept == rt.kept_indices,
            "fig_revote: published kept set differs from the replayed selection");
    row.kept_replayed = true;
  }

  fs::remove_all(dir);
  return row;
}

void Main(int argc, char** argv) {
  Options options = ParseOptions(argc, argv);

  // ---- Part 1: kernel sweep + the 10^5 differential -----------------------
  const std::vector<CompressedRistretto> counter_table =
      CounterEncodings(kRevoteCounterLimit);
  std::vector<size_t> kernel_sizes;
  for (size_t n = std::max<size_t>(options.ballots / 16, 1024); n < options.ballots;
       n *= 2) {
    kernel_sizes.push_back(n);
  }
  kernel_sizes.push_back(options.ballots);

  std::printf("Revote dedup kernel sweep (rate %.2f)...\n", options.rate);
  std::vector<KernelRow> kernel_rows;
  double quadratic_s = 0.0;
  bool differential_ok = false;
  for (size_t n : kernel_sizes) {
    ChaChaRng rng(0x2EF07E00 + static_cast<uint64_t>(n));
    KernelBoard board = MakeKernelBoard(n, options.rate, counter_table, rng);

    KernelRow row;
    row.items = n;
    WallTimer select_timer;
    RevoteSelection selection = SelectLastPerTag(board.tags, board.counters);
    row.select_s = select_timer.Seconds();
    Require(selection.kept.size() == board.credentials,
            "fig_revote: kernel selection must keep one item per credential");

    WallTimer plan_timer;
    std::vector<uint64_t> plan = RevotePaddingPlan(n, selection.group_sizes);
    row.plan_s = plan_timer.Seconds();
    for (uint64_t size : plan) {
      row.dummy_items += static_cast<size_t>(size);
    }
    row.padded_items = n + row.dummy_items;
    Require(row.padded_items <= PaddedItemBound(n),
            "fig_revote: kernel padding exceeds the cover envelope bound");
    for (const auto& [group_size, count] : selection.group_sizes) {
      row.groups += count;
    }
    kernel_rows.push_back(row);

    if (n == options.ballots) {
      // The headline differential: quadratic last-write-wins reference,
      // byte for byte, at 10^5+ items.
      std::printf("  quadratic reference at %zu items...\n", n);
      WallTimer quad_timer;
      RevoteSelection reference = SelectLastPerTagQuadratic(board.tags, board.counters);
      quadratic_s = quad_timer.Seconds();
      differential_ok = SameSelection(selection, reference);
      Require(differential_ok,
              "fig_revote: quasilinear selection diverged from the quadratic reference");
    }
  }

  TextTable kernel_table("Selection kernel + padding plan — rate " +
                         std::to_string(options.rate));
  kernel_table.SetHeader({"Items", "Groups", "Padded", "Pad ratio", "Select", "Plan"});
  for (const KernelRow& row : kernel_rows) {
    char ratio[32];
    std::snprintf(ratio, sizeof(ratio), "%.2fx",
                  static_cast<double>(row.padded_items) / static_cast<double>(row.items));
    kernel_table.AddRow({std::to_string(row.items), std::to_string(row.groups),
                         std::to_string(row.padded_items), ratio,
                         FormatSeconds(row.select_s), FormatSeconds(row.plan_s)});
  }
  std::printf("%s", kernel_table.Format().c_str());
  std::printf("Differential at %zu items: quasilinear %s vs quadratic %s — %s\n\n",
              options.ballots, FormatSeconds(kernel_rows.back().select_s).c_str(),
              FormatSeconds(quadratic_s).c_str(),
              differential_ok ? "byte-identical" : "DIVERGED");

  // ---- Part 2: full revote tallies off the file ledger --------------------
  // Sweep rate x ballots: both rates at every size but the largest (the
  // padded board is a pure function of the accepted count, so the rate-0
  // control shows cost is driven by N, not by who revoted).
  std::vector<std::pair<size_t, double>> sweep;
  for (size_t i = 0; i < options.tally_ballots.size(); ++i) {
    if (i + 1 < options.tally_ballots.size()) {
      sweep.emplace_back(options.tally_ballots[i], 0.0);
    }
    sweep.emplace_back(options.tally_ballots[i], options.rate);
  }

  std::vector<TallyRow> tally_rows;
  for (size_t i = 0; i < sweep.size(); ++i) {
    std::printf("Full revote tally: %zu ballots at rate %.2f (%zu threads)...\n",
                sweep[i].first, sweep[i].second, options.threads);
    tally_rows.push_back(RunTally(sweep[i].first, sweep[i].second, options, i));
    const TallyRow& row = tally_rows.back();
    std::printf("  ingest %.1fs; tally %.1fs (dedup stage %.1fs); padded %zu "
                "(%zu dummy groups); peak pinned %.1f KiB over %llu segments\n",
                row.ingest_s, row.tally_s, row.dedup_stage_s, row.padded_items,
                row.dummy_groups, row.peak_pinned_bytes / 1024.0,
                static_cast<unsigned long long>(row.segments));
  }

  TextTable tally_table("Full revote tallies — file-backed ledger, dataflow engine");
  tally_table.SetHeader({"Ballots", "Rate", "Padded", "Tally (s)", "Dedup (s)",
                         "Superseded", "Pinned KiB", "Replayed"});
  for (const TallyRow& row : tally_rows) {
    char rate[16], pinned[32];
    std::snprintf(rate, sizeof(rate), "%.2f", row.rate);
    std::snprintf(pinned, sizeof(pinned), "%.1f", row.peak_pinned_bytes / 1024.0);
    tally_table.AddRow({std::to_string(row.ballots), rate, std::to_string(row.padded_items),
                        FormatSeconds(row.tally_s), FormatSeconds(row.dedup_stage_s),
                        std::to_string(row.superseded), pinned,
                        row.kept_replayed ? "quadratic" : "skipped"});
  }
  std::printf("%s\n", tally_table.Format().c_str());

  // ---- JSON ---------------------------------------------------------------
  FILE* json = std::fopen(options.out.c_str(), "w");
  Require(json != nullptr, "fig_revote: cannot write JSON output");
  std::fprintf(json,
               "{\n  \"bench\": \"revote\",\n  \"rate\": %.4f,\n"
               "  \"threads\": %zu,\n  \"segment_entries\": %zu,\n"
               "  \"hardware_concurrency\": %u,\n"
               "  \"kernel_differential\": {\"items\": %zu, \"select_s\": %.6f, "
               "\"quadratic_s\": %.6f, \"identical\": %s},\n"
               "  \"kernel_sweep\": [\n",
               options.rate, options.threads, options.segment_entries,
               std::thread::hardware_concurrency(), options.ballots,
               kernel_rows.back().select_s, quadratic_s,
               differential_ok ? "true" : "false");
  for (size_t i = 0; i < kernel_rows.size(); ++i) {
    const KernelRow& row = kernel_rows[i];
    std::fprintf(json,
                 "    {\"items\": %zu, \"groups\": %zu, \"dummy_items\": %zu, "
                 "\"padded_items\": %zu, \"padded_over_items\": %.4f, "
                 "\"select_s\": %.6f, \"plan_s\": %.6f}%s\n",
                 row.items, row.groups, row.dummy_items, row.padded_items,
                 static_cast<double>(row.padded_items) / static_cast<double>(row.items),
                 row.select_s, row.plan_s, i + 1 == kernel_rows.size() ? "" : ",");
  }
  std::fprintf(json, "  ],\n  \"tally_sweep\": [\n");
  for (size_t i = 0; i < tally_rows.size(); ++i) {
    const TallyRow& row = tally_rows[i];
    std::fprintf(
        json,
        "    {\"ballots\": %zu, \"rate\": %.4f, \"credentials\": %zu, "
        "\"accepted\": %zu, \"padded_items\": %zu, \"dummy_groups\": %zu, "
        "\"dummy_items\": %zu, \"superseded\": %zu, \"unmatched_tag\": %zu, "
        "\"counted\": %zu, \"ingest_s\": %.3f, \"tally_s\": %.6f, "
        "\"dedup_stage_s\": %.6f, \"peak_pinned_bytes\": %llu, "
        "\"segments\": %llu, \"ledger_payload_bytes\": %llu, "
        "\"kept_replayed\": %s}%s\n",
        row.ballots, row.rate, row.credentials, row.accepted, row.padded_items,
        row.dummy_groups, row.dummy_items, row.superseded, row.unmatched_tag, row.counted,
        row.ingest_s, row.tally_s, row.dedup_stage_s,
        static_cast<unsigned long long>(row.peak_pinned_bytes),
        static_cast<unsigned long long>(row.segments),
        static_cast<unsigned long long>(row.ledger_payload_bytes),
        row.kept_replayed ? "true" : "false", i + 1 == tally_rows.size() ? "" : ",");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("Wrote %s\n", options.out.c_str());

  // The streaming claim under revoting: even with the padded width-3 dedup
  // mix in flight, peak pinned ledger payload stays within
  // (threads+2)·(2·segment + 64 KiB) — the dedup pipeline works on parsed
  // ballots, never on pinned segments.
  for (const TallyRow& row : tally_rows) {
    const double segment_payload_bytes = static_cast<double>(row.ledger_payload_bytes) /
                                         static_cast<double>(row.segments);
    const double segment_bound = (static_cast<double>(options.threads) + 2.0) *
                                 (segment_payload_bytes * 2.0 + 65536.0);
    Require(static_cast<double>(row.peak_pinned_bytes) <= segment_bound,
            "fig_revote: peak pinned bytes exceed (threads+2)*(2*segment + 64 KiB)");
  }
}

}  // namespace
}  // namespace votegral

int main(int argc, char** argv) {
  votegral::Main(argc, argv);
  return 0;
}
