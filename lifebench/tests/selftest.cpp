// The benchmark's own self-test: runs every workload at a tiny size and
// shows that its checks can fail.
//
//  * The untouched run passes VerifyElection and the independent reference.
//  * A published result with one vote moved to another candidate is
//    reported by the reference check.
//  * A transcript with one tagging-step output altered is rejected by
//    VerifyElection.
//  * Revote mode: a transcript padded below the cover envelope (one dummy
//    group dropped) is reported by the reference check.
//  * The transcript digest repeats for one seed and changes with the seed.
//
// Exit code 0 when every expectation holds. Run it from the build tree:
//   lifebench_selftest [--out-dir DIR]
#include <cstdio>
#include <filesystem>
#include <string>
#include <string_view>
#include <unistd.h>

#include "lifebench/src/lifecycle.h"

namespace lifebench {
namespace {

int g_failures = 0;

void Expect(bool condition, const std::string& what) {
  std::printf("  [%s] %s\n", condition ? "ok" : "FAIL", what.c_str());
  if (!condition) {
    ++g_failures;
  }
}

bool Mentions(const std::vector<std::string>& problems, std::string_view prefix) {
  for (const std::string& p : problems) {
    if (p.rfind(prefix, 0) == 0) {
      return true;
    }
  }
  return false;
}

constexpr size_t kTinyVoters = 24;

RunConfig TinyConfig(const WorkloadSpec& spec, uint64_t seed, const std::string& dir,
                     Tracer& tracer) {
  RunConfig config;
  config.spec = &spec;
  config.seed = seed;
  config.scale = static_cast<double>(kTinyVoters) / static_cast<double>(spec.voters);
  config.threads = 2;
  config.tracer = &tracer;
  static HostProbe probe;
  config.probe = &probe;
  config.work_dir = dir;
  return config;
}

void RunToTally(Lifecycle& run) {
  run.Setup();
  run.ClosedLoop();
  run.TallyAndVerify();
}

void CheckWorkload(const WorkloadSpec& spec, const std::string& dir) {
  std::printf("%s\n", spec.name.c_str());
  Tracer tracer;
  std::string digest_seed1;
  {
    Lifecycle run(TinyConfig(spec, 1, dir, tracer));
    RunToTally(run);
    for (const std::string& f : run.failures) {
      std::printf("    %s\n", f.c_str());
    }
    Expect(run.failed == 0 && run.output().has_value(), "tiny election runs without failures");
    if (!run.output().has_value()) {
      return;
    }
    const votegral::TallyOutput& good = *run.output();
    Expect(run.CheckOutput(good).empty(), "untouched output passes both checks");
    digest_seed1 = run.digest;

    // One vote moved: take one from a candidate that has some and give it to
    // another. The totals still add up; only the per-candidate counts lie.
    votegral::TallyOutput moved = good;
    for (auto& [name, count] : moved.result.counts) {
      if (count > 0) {
        --count;
        const std::string& other = run.plan().candidates[0] == name ? run.plan().candidates[1]
                                                                    : run.plan().candidates[0];
        moved.result.counts[other] += 1;
        break;
      }
    }
    Expect(Mentions(run.CheckOutput(moved), "result check:"),
           "a result with one vote moved is reported by the reference check");

    // One tagging-step output altered (with its wire cache kept consistent,
    // as a dishonest tagger would publish it).
    votegral::TallyOutput tampered = good;
    votegral::TaggingStep& step = tampered.transcript.ballot_tag_steps.at(0);
    votegral::ElGamalCiphertext& ct = step.output.at(0);
    ct.c2 = ct.c2 + votegral::RistrettoPoint::Base();
    if (step.HasWire()) {
      step.output_wire[0] = ct.Wire();
    }
    Expect(Mentions(run.CheckOutput(tampered), "VerifyElection:"),
           "a transcript with one tag-step output altered is rejected by VerifyElection");

    if (spec.revoting) {
      // Padding below the cover envelope: drop the largest dummy group.
      votegral::TallyOutput thin = good;
      Expect(!thin.transcript.revote.dummies.empty(), "the revote tally publishes dummy groups");
      if (!thin.transcript.revote.dummies.empty()) {
        thin.transcript.revote.dummies.pop_back();
      }
      Expect(!CompareResult(run.expected(), thin).empty(),
             "padding below the cover envelope is reported by the reference check");
    }
  }
  {
    Lifecycle again(TinyConfig(spec, 1, dir, tracer));
    RunToTally(again);
    Expect(again.digest == digest_seed1, "the same seed reproduces the transcript digest");
  }
  {
    Lifecycle other(TinyConfig(spec, 2, dir, tracer));
    RunToTally(other);
    Expect(other.failed == 0, "a second seed runs without failures");
    Expect(!other.digest.empty() && other.digest != digest_seed1,
           "another seed gives another transcript digest");
  }
}

}  // namespace
}  // namespace lifebench

int main(int argc, char** argv) {
  std::string out_dir = "lifebench-out";
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string_view(argv[i]) == "--out-dir") {
      out_dir = argv[++i];
    }
  }
  const std::filesystem::path dir =
      std::filesystem::path(out_dir) / ("selftest-" + std::to_string(getpid()));
  std::filesystem::create_directories(dir);
  try {
    for (const lifebench::WorkloadSpec& spec : lifebench::Workloads()) {
      lifebench::CheckWorkload(spec, dir.string());
    }
  } catch (const std::exception& e) {
    std::printf("aborted: %s\n", e.what());
    ++lifebench::g_failures;
  }
  std::filesystem::remove_all(dir);
  std::printf("%s (%d failed expectations)\n", lifebench::g_failures == 0 ? "PASS" : "FAIL",
              lifebench::g_failures);
  return lifebench::g_failures == 0 ? 0 : 1;
}
