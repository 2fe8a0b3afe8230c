#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "cli/commands.hpp"
#include "cli/ops.hpp"
#include "obs/manifest.hpp"
#include "sched/pool.hpp"
#include "util/json.hpp"

namespace difftrace::cli {
namespace {

// --- Args -------------------------------------------------------------------

TEST(Args, PositionalAndOptions) {
  const Args args({"rank", "a.dtrc", "b.dtrc", "--k", "20", "--color"});
  ASSERT_EQ(args.positional().size(), 3u);
  EXPECT_EQ(args.positional_at(1, "x"), "a.dtrc");
  EXPECT_EQ(args.int_or("k", 10), 20);
  EXPECT_TRUE(args.flag("color"));
  EXPECT_FALSE(args.flag("missing"));
}

TEST(Args, EqualsSyntax) {
  const Args args({"--filter=mem+ompcrit", "--k=5"});
  EXPECT_EQ(args.required("filter"), "mem+ompcrit");
  EXPECT_EQ(args.int_or("k", 0), 5);
}

TEST(Args, FlagFollowedByOption) {
  const Args args({"--color", "--trace", "5.0"});
  EXPECT_TRUE(args.flag("color"));
  EXPECT_EQ(args.required("trace"), "5.0");
}

TEST(Args, MissingRequiredThrows) {
  const Args args({"cmd"});
  EXPECT_THROW((void)args.required("out"), ArgError);
  EXPECT_THROW((void)args.positional_at(1, "path"), ArgError);
}

TEST(Args, BadIntegerThrows) {
  const Args args({"--k", "ten"});
  EXPECT_THROW((void)args.int_or("k", 0), ArgError);
}

TEST(Args, EmptyOptionNameThrows) { EXPECT_THROW(Args({"--"}), ArgError); }

TEST(Args, IntInAcceptsOnlyTheRange) {
  const auto parse = [](const std::string& value) {
    return Args({"--n=" + value}).int_in("n", 7, -2, 5);
  };
  EXPECT_EQ(parse("-2"), -2);
  EXPECT_EQ(parse("5"), 5);
  EXPECT_THROW((void)parse("-3"), ArgError);
  EXPECT_THROW((void)parse("6"), ArgError);
  EXPECT_THROW((void)parse("99999999999999999999"), ArgError);  // past int64
  EXPECT_EQ(Args({}).int_in("n", 7, -2, 5), 7);
}

// Each bounded numeric option at both edges of its range and one step past
// each. Parsing sizes nothing, so the jobs edges start no pool.
TEST(Args, JobsAreBoundedByTheCap) {
  const auto cap = sched::max_jobs();
  for (const std::string key : {"jobs", "threads"}) {
    const auto jobs = [&key](std::int64_t value) {
      return jobs_request_from(Args({"--" + key + "=" + std::to_string(value)}));
    };
    EXPECT_EQ(jobs(0), 0u) << key;
    EXPECT_EQ(jobs(static_cast<std::int64_t>(cap)), cap) << key;
    EXPECT_THROW((void)jobs(-1), ArgError) << key;
    EXPECT_THROW((void)jobs(static_cast<std::int64_t>(cap) + 1), ArgError) << key;
  }
}

TEST(Args, NlrKnobsAreBounded) {
  const auto nlr = [](const std::string& option) { return nlr_from(Args({option})); };
  EXPECT_EQ(nlr("--k=1").k, 1u);
  EXPECT_EQ(nlr("--k=1000").k, 1000u);
  EXPECT_THROW((void)nlr("--k=0"), ArgError);
  EXPECT_THROW((void)nlr("--k=1001"), ArgError);
  EXPECT_THROW((void)nlr("--k=-1"), ArgError);
  EXPECT_EQ(nlr("--min-reps=2").min_reps, 2u);
  EXPECT_EQ(nlr("--min-reps=1000").min_reps, 1000u);
  EXPECT_THROW((void)nlr("--min-reps=1"), ArgError);
  EXPECT_THROW((void)nlr("--min-reps=1001"), ArgError);
}

// --- filter mini-language --------------------------------------------------------

TEST(ParseFilter, Categories) {
  const auto filter = parse_filter("mem+ompcrit+cust=^CPU_");
  EXPECT_TRUE(filter.keeps_name("memcpy"));
  EXPECT_TRUE(filter.keeps_name("GOMP_critical_start"));
  EXPECT_TRUE(filter.keeps_name("CPU_Exec"));
  EXPECT_FALSE(filter.keeps_name("MPI_Send"));
  EXPECT_TRUE(filter.drops_returns());
  EXPECT_TRUE(filter.drops_plt());
}

TEST(ParseFilter, ModifiersKeepReturnsAndPlt) {
  const auto filter = parse_filter("rets+plt+mpiall");
  EXPECT_FALSE(filter.drops_returns());
  EXPECT_FALSE(filter.drops_plt());
  EXPECT_TRUE(filter.keeps_name("MPI_Send"));
}

TEST(ParseFilter, AllKeepsEverything) {
  const auto filter = parse_filter("all");
  EXPECT_TRUE(filter.keeps_name("anything_at_all"));
}

TEST(ParseFilter, RejectsUnknownAndEmpty) {
  EXPECT_THROW((void)parse_filter("bogus"), ArgError);
  EXPECT_THROW((void)parse_filter("mem++ompcrit"), ArgError);
  EXPECT_THROW((void)parse_filter("rets"), ArgError);  // modifiers only select nothing
}

// --- command round trip -------------------------------------------------------------

class CliRoundTrip : public ::testing::Test {
 protected:
  void SetUp() override {
    // ctest runs each case as its own process in parallel: the directory
    // must be unique per process AND per test.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = std::filesystem::temp_directory_path() /
           ("difftrace_cli_" + std::to_string(::getpid()) + "_" + info->name());
    std::filesystem::create_directories(dir_);
    normal_ = (dir_ / "normal.dtrc").string();
    faulty_ = (dir_ / "faulty.dtrc").string();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  int run(const std::vector<std::string>& argv) {
    out_.str("");
    err_.str("");
    return run_command(argv, out_, err_);
  }

  std::filesystem::path dir_;
  std::string normal_;
  std::string faulty_;
  std::ostringstream out_;
  std::ostringstream err_;
};

TEST_F(CliRoundTrip, HelpPrintsUsage) {
  EXPECT_EQ(run({"help"}), 0);
  EXPECT_NE(out_.str().find("usage: difftrace"), std::string::npos);
  EXPECT_EQ(run({}), 0);
}

TEST_F(CliRoundTrip, UnknownCommandFails) {
  EXPECT_EQ(run({"frobnicate"}), 2);
  EXPECT_NE(err_.str().find("unknown command"), std::string::npos);
}

TEST_F(CliRoundTrip, CollectInfoDecodeNlr) {
  ASSERT_EQ(run({"collect", "--app", "oddeven", "--nranks", "4", "--size", "8", "--out", normal_}),
            0)
      << err_.str();
  EXPECT_NE(out_.str().find("saved 4 trace(s)"), std::string::npos);

  ASSERT_EQ(run({"info", normal_}), 0) << err_.str();
  EXPECT_NE(out_.str().find("traces:             4"), std::string::npos);
  EXPECT_NE(out_.str().find("0.0"), std::string::npos);

  ASSERT_EQ(run({"decode", normal_, "--trace", "1.0", "--filter", "mpiall"}), 0) << err_.str();
  EXPECT_NE(out_.str().find("MPI_Init"), std::string::npos);
  EXPECT_NE(out_.str().find("MPI_Finalize"), std::string::npos);

  ASSERT_EQ(run({"nlr", normal_, "--trace", "1.0", "--filter", "mpiall"}), 0) << err_.str();
  EXPECT_NE(out_.str().find("L0^"), std::string::npos);
  EXPECT_NE(out_.str().find("L0 = ["), std::string::npos);
}

TEST_F(CliRoundTrip, RankDiffnlrProgressPipeline) {
  ASSERT_EQ(run({"collect", "--app", "oddeven", "--nranks", "16", "--size", "8", "--out", normal_}),
            0)
      << err_.str();
  ASSERT_EQ(run({"collect", "--app", "oddeven", "--nranks", "16", "--size", "8", "--out", faulty_,
                 "--fault", "swapBug", "--fault-proc", "5", "--fault-iteration", "7"}),
            0)
      << err_.str();

  ASSERT_EQ(run({"rank", normal_, faulty_, "--filters", "mpiall,mpisr"}), 0) << err_.str();
  EXPECT_NE(out_.str().find("consensus suspicious trace:   5.0"), std::string::npos);

  ASSERT_EQ(run({"diffnlr", normal_, faulty_, "--trace", "5.0", "--filter", "mpiall"}), 0)
      << err_.str();
  EXPECT_NE(out_.str().find("- L"), std::string::npos);
  EXPECT_NE(out_.str().find("= MPI_Finalize"), std::string::npos);

  ASSERT_EQ(run({"progress", normal_, faulty_}), 0) << err_.str();
  EXPECT_NE(out_.str().find("least progressed:"), std::string::npos);
}

TEST_F(CliRoundTrip, RankRejectsOutOfRangeOptionsWithUsageExit) {
  ASSERT_EQ(run({"collect", "--app", "oddeven", "--nranks", "4", "--size", "8", "--out", normal_}),
            0)
      << err_.str();
  EXPECT_EQ(run({"rank", normal_, normal_, "--top=1", "--jobs=1"}), 0) << err_.str();
  EXPECT_EQ(run({"rank", normal_, normal_, "--top=1000", "--jobs=1"}), 0) << err_.str();
  EXPECT_EQ(run({"rank", normal_, normal_, "--top=0"}), 2);
  EXPECT_NE(err_.str().find("option --top must be in [1, 1000], got 0"), std::string::npos);
  EXPECT_EQ(run({"rank", normal_, normal_, "--top=1001"}), 2);
  EXPECT_EQ(run({"rank", normal_, normal_, "--top=-1"}), 2);
  EXPECT_EQ(run({"rank", normal_, normal_, "--k=-1"}), 2);
  EXPECT_EQ(run({"rank", normal_, normal_, "--jobs=-1"}), 2);
  EXPECT_NE(err_.str().find("option --jobs must be in [0, "), std::string::npos);
}

TEST_F(CliRoundTrip, OutliersSingleRun) {
  ASSERT_EQ(run({"collect", "--app", "oddeven", "--nranks", "8", "--size", "8", "--out", faulty_,
                 "--fault", "dlBug", "--fault-proc", "3", "--fault-iteration", "2"}),
            0)
      << err_.str();
  EXPECT_NE(err_.str().find("[watchdog]"), std::string::npos);
  ASSERT_EQ(run({"outliers", faulty_, "--attr", "sing.actual"}), 0) << err_.str();
  EXPECT_NE(out_.str().find("Outlier score"), std::string::npos);
  EXPECT_NE(out_.str().find("dendrogram:"), std::string::npos);
}

TEST_F(CliRoundTrip, ExportFormats) {
  ASSERT_EQ(run({"collect", "--app", "oddeven", "--nranks", "2", "--size", "4", "--out", normal_}),
            0);
  ASSERT_EQ(run({"export", normal_, "--format", "csv"}), 0) << err_.str();
  EXPECT_NE(out_.str().find("proc,thread,logical_ts"), std::string::npos);

  const auto json_path = (dir_ / "t.json").string();
  ASSERT_EQ(run({"export", normal_, "--format", "json", "--out", json_path}), 0) << err_.str();
  EXPECT_TRUE(std::filesystem::exists(json_path));

  EXPECT_EQ(run({"export", normal_, "--format", "xml"}), 2);
}

TEST_F(CliRoundTrip, CollectValidatesArguments) {
  EXPECT_EQ(run({"collect", "--app", "nosuch", "--out", normal_}), 2);
  EXPECT_EQ(run({"collect", "--app", "oddeven"}), 2);  // missing --out
  EXPECT_EQ(run({"collect", "--app", "oddeven", "--out", normal_, "--fault", "dlBug"}), 2);
  EXPECT_NE(err_.str().find("--fault-proc"), std::string::npos);
}

TEST_F(CliRoundTrip, LoadErrorsAreArgErrors) {
  EXPECT_EQ(run({"info", (dir_ / "missing.dtrc").string()}), 2);
  EXPECT_NE(err_.str().find("cannot load"), std::string::npos);
}

TEST_F(CliRoundTrip, BadTraceKeyRejected) {
  ASSERT_EQ(run({"collect", "--app", "oddeven", "--nranks", "2", "--size", "4", "--out", normal_}),
            0);
  EXPECT_EQ(run({"decode", normal_, "--trace", "x.y"}), 2);
  EXPECT_NE(err_.str().find("bad trace id"), std::string::npos);
}

// --- observability -----------------------------------------------------------

TEST_F(CliRoundTrip, InfoJsonIsParsableAndMatchesTable) {
  ASSERT_EQ(run({"collect", "--app", "oddeven", "--nranks", "4", "--size", "8", "--out", normal_}),
            0);
  ASSERT_EQ(run({"info", normal_, "--json"}), 0) << err_.str();
  const auto doc = util::parse_json(out_.str());
  EXPECT_EQ(doc.at("traces").as_uint(), 4u);
  EXPECT_GT(doc.at("events").as_uint(), 0u);
  EXPECT_GT(doc.at("compression_ratio").as_double(), 0.0);
  ASSERT_TRUE(doc.at("blobs").is_array());
  ASSERT_EQ(doc.at("blobs").array.size(), 4u);
  EXPECT_EQ(doc.at("blobs").array[0].at("codec").as_string(), "parlot");
  EXPECT_FALSE(doc.at("blobs").array[0].at("salvaged").as_bool());
}

TEST_F(CliRoundTrip, StatsFlagWritesManifestAndStatsCommandRendersIt) {
  ASSERT_EQ(run({"collect", "--app", "oddeven", "--nranks", "8", "--size", "8", "--out", normal_}),
            0);
  ASSERT_EQ(run({"collect", "--app", "oddeven", "--nranks", "8", "--size", "8", "--out", faulty_,
                 "--fault", "swapBug", "--fault-proc", "5", "--fault-iteration", "7"}),
            0);

  const auto manifest_path = (dir_ / "manifest.json").string();
  // Phase coverage is wall-time based, and on a loaded machine (parallel
  // ctest) a preemption landing between depth-1 spans shows up as dark
  // time. The property under test is that a clean run covers >= 90% —
  // retry a few times so scheduler noise cannot fail the suite.
  obs::RunManifest manifest;
  for (int attempt = 0; attempt < 5; ++attempt) {
    ASSERT_EQ(run({"rank", normal_, faulty_, "--stats=" + manifest_path}), 0) << err_.str();
    std::ifstream file(manifest_path);
    std::ostringstream text;
    text << file.rdbuf();
    manifest = obs::RunManifest::from_json_text(text.str());
    if (manifest.phase_coverage() >= 0.90) break;
  }
  EXPECT_NE(err_.str().find("[stats] manifest written"), std::string::npos);
  // Results stay clean: the manifest note goes to err, the table to out.
  EXPECT_EQ(out_.str().find("[stats]"), std::string::npos);

  EXPECT_EQ(manifest.exit_code, 0);
  ASSERT_EQ(manifest.command.size(), 4u);
  EXPECT_EQ(manifest.command[0], "rank");
  ASSERT_EQ(manifest.inputs.size(), 2u);
  EXPECT_TRUE(manifest.inputs[0].ok);
  EXPECT_GT(manifest.wall_ns, 0u);
  EXPECT_GE(manifest.phase_coverage(), 0.90);
  // Every stage the sweep exercises reported in.
  const auto counter_value = [&](std::string_view name) -> std::uint64_t {
    for (const auto& c : manifest.counters)
      if (c.name == name) return c.value;
    return 0;
  };
  EXPECT_GT(counter_value("trace.blobs_decoded"), 0u);
  EXPECT_GT(counter_value("filter.events_in"), 0u);
  EXPECT_GT(counter_value("nlr.tokens_in"), 0u);
  EXPECT_GT(counter_value("jsm.cells"), 0u);

  ASSERT_EQ(run({"stats", manifest_path}), 0) << err_.str();
  EXPECT_NE(out_.str().find("difftrace run manifest"), std::string::npos);
  EXPECT_NE(out_.str().find("phase coverage"), std::string::npos);
  EXPECT_NE(out_.str().find("Counter"), std::string::npos);
}

TEST_F(CliRoundTrip, BareStatsFlagRendersToErr) {
  ASSERT_EQ(run({"collect", "--app", "oddeven", "--nranks", "2", "--size", "4", "--out", normal_}),
            0);
  ASSERT_EQ(run({"info", normal_, "--stats"}), 0);
  EXPECT_NE(err_.str().find("difftrace run manifest"), std::string::npos);
  EXPECT_EQ(out_.str().find("difftrace run manifest"), std::string::npos);
}

TEST_F(CliRoundTrip, SelfTraceProducesAnalyzableArchive) {
  ASSERT_EQ(run({"collect", "--app", "oddeven", "--nranks", "8", "--size", "8", "--out", normal_}),
            0);
  ASSERT_EQ(run({"collect", "--app", "oddeven", "--nranks", "8", "--size", "8", "--out", faulty_,
                 "--fault", "swapBug", "--fault-proc", "5", "--fault-iteration", "7"}),
            0);

  const auto self_path = (dir_ / "self.dtrc").string();
  ASSERT_EQ(run({"rank", normal_, faulty_, "--self-trace=" + self_path}), 0) << err_.str();
  EXPECT_NE(err_.str().find("[self-trace]"), std::string::npos);

  // The self-trace is a well-formed archive...
  ASSERT_EQ(run({"fsck", self_path}), 0) << out_.str();
  // ...whose NLR names the pipeline's phases (rank/load/sweep run on the
  // main thread, which is always stream 0.0 of the self-trace).
  ASSERT_EQ(run({"nlr", self_path, "--trace", "0.0", "--filter", "all"}), 0) << err_.str();
  EXPECT_NE(out_.str().find("rank"), std::string::npos);
  EXPECT_NE(out_.str().find("sweep"), std::string::npos);
}

TEST_F(CliRoundTrip, SalvageChatterGoesToErrNotOut) {
  ASSERT_EQ(run({"collect", "--app", "oddeven", "--nranks", "4", "--size", "8", "--out", normal_}),
            0);
  const auto damaged = (dir_ / "damaged.dtrc").string();
  ASSERT_EQ(run({"chaos", normal_, "--out", damaged, "--fault", "bitflip", "--seed", "3"}), 0)
      << err_.str();
  ASSERT_EQ(run({"info", damaged, "--json"}), 0) << err_.str();
  EXPECT_NE(err_.str().find("[salvage]"), std::string::npos);
  // stdout stays machine-readable even for a damaged archive.
  EXPECT_EQ(out_.str().find("[salvage]"), std::string::npos);
  EXPECT_NO_THROW((void)util::parse_json(out_.str()));
}

TEST_F(CliRoundTrip, RankJobsAndCacheAreByteIdentical) {
  ASSERT_EQ(run({"collect", "--app", "oddeven", "--nranks", "8", "--size", "8", "--out", normal_}),
            0);
  ASSERT_EQ(run({"collect", "--app", "oddeven", "--nranks", "8", "--size", "8", "--out", faulty_,
                 "--fault", "swapBug", "--fault-proc", "3", "--fault-iteration", "2"}),
            0);
  const auto cache_dir = (dir_ / "cache").string();

  ASSERT_EQ(run({"rank", normal_, faulty_, "--jobs", "1"}), 0) << err_.str();
  const auto serial = out_.str();
  EXPECT_NE(serial.find("consensus suspicious trace"), std::string::npos);

  // Parallel, legacy alias, cold cache, warm cache: all byte-identical.
  ASSERT_EQ(run({"rank", normal_, faulty_, "--jobs", "4"}), 0) << err_.str();
  EXPECT_EQ(out_.str(), serial);
  ASSERT_EQ(run({"rank", normal_, faulty_, "--threads", "4"}), 0) << err_.str();
  EXPECT_EQ(out_.str(), serial);
  ASSERT_EQ(run({"rank", normal_, faulty_, "--jobs", "4", "--cache=" + cache_dir}), 0)
      << err_.str();
  EXPECT_EQ(out_.str(), serial);
  ASSERT_EQ(run({"rank", normal_, faulty_, "--jobs", "4", "--cache=" + cache_dir}), 0)
      << err_.str();
  EXPECT_EQ(out_.str(), serial);
}

TEST_F(CliRoundTrip, CacheCommandStatsClearVerify) {
  ASSERT_EQ(run({"collect", "--app", "oddeven", "--nranks", "4", "--size", "8", "--out", normal_}),
            0);
  ASSERT_EQ(run({"collect", "--app", "oddeven", "--nranks", "4", "--size", "8", "--out", faulty_,
                 "--fault", "swapBug", "--fault-proc", "2", "--fault-iteration", "1"}),
            0);
  const auto cache_dir = (dir_ / "cache").string();
  ASSERT_EQ(run({"rank", normal_, faulty_, "--cache=" + cache_dir}), 0) << err_.str();
  const auto ranked = out_.str();

  ASSERT_EQ(run({"cache", "stats", "--cache=" + cache_dir}), 0) << err_.str();
  EXPECT_NE(out_.str().find("entries:"), std::string::npos);
  EXPECT_EQ(out_.str().find("entries:         0"), std::string::npos);

  ASSERT_EQ(run({"cache", "verify", "--cache=" + cache_dir}), 0) << out_.str();
  EXPECT_NE(out_.str().find("0 bad"), std::string::npos);

  // Plant a defect: verify fails, but rank recomputes cleanly through it.
  std::filesystem::path planted;
  for (const auto& entry : std::filesystem::directory_iterator(cache_dir)) planted = entry.path();
  ASSERT_FALSE(planted.empty());
  std::filesystem::resize_file(planted, 4);
  EXPECT_EQ(run({"cache", "verify", "--cache=" + cache_dir}), 1);
  EXPECT_NE(out_.str().find("1 bad"), std::string::npos);
  ASSERT_EQ(run({"rank", normal_, faulty_, "--cache=" + cache_dir}), 0) << err_.str();
  EXPECT_EQ(out_.str(), ranked);

  ASSERT_EQ(run({"cache", "clear", "--cache=" + cache_dir}), 0);
  EXPECT_NE(out_.str().find("removed"), std::string::npos);
  ASSERT_EQ(run({"cache", "stats", "--cache=" + cache_dir}), 0);
  EXPECT_NE(out_.str().find("entries:         0"), std::string::npos);

  EXPECT_EQ(run({"cache", "frobnicate", "--cache=" + cache_dir}), 2);
}

TEST_F(CliRoundTrip, InfoJsonAndManifestCarryEngineFields) {
  ASSERT_EQ(run({"collect", "--app", "oddeven", "--nranks", "4", "--size", "8", "--out", normal_}),
            0);
  ASSERT_EQ(run({"collect", "--app", "oddeven", "--nranks", "4", "--size", "8", "--out", faulty_,
                 "--fault", "swapBug", "--fault-proc", "2", "--fault-iteration", "1"}),
            0);

  ASSERT_EQ(run({"info", normal_, "--json", "--jobs", "3"}), 0) << err_.str();
  const auto doc = util::parse_json(out_.str());
  EXPECT_EQ(doc.at("jobs").as_uint(), 3u);
  EXPECT_EQ(doc.at("cache_dir").as_string(), "");
  ASSERT_NE(doc.find("cache_hits"), nullptr);
  ASSERT_NE(doc.find("cache_misses"), nullptr);

  const auto cache_dir = (dir_ / "cache").string();
  const auto manifest_path = (dir_ / "manifest.json").string();
  ASSERT_EQ(run({"rank", normal_, faulty_, "--jobs", "2", "--cache=" + cache_dir,
                 "--stats=" + manifest_path}),
            0)
      << err_.str();
  std::ifstream file(manifest_path);
  std::ostringstream text;
  text << file.rdbuf();
  const auto manifest = obs::RunManifest::from_json_text(text.str());
  EXPECT_EQ(text.str().find("check_engine"), std::string::npos);
  EXPECT_EQ(manifest.jobs, 2u);
  EXPECT_EQ(manifest.cache_dir, cache_dir);
  EXPECT_EQ(manifest.cache_hits, 0u);   // cold run
  EXPECT_GT(manifest.cache_misses, 0u);
  // The rendered manifest surfaces the same fields.
  ASSERT_EQ(run({"stats", manifest_path}), 0) << err_.str();
  EXPECT_NE(out_.str().find("jobs:           2"), std::string::npos);
  EXPECT_NE(out_.str().find("cache misses:"), std::string::npos);

  // Warm run: hits recorded in the manifest.
  ASSERT_EQ(run({"rank", normal_, faulty_, "--jobs", "2", "--cache=" + cache_dir,
                 "--stats=" + manifest_path}),
            0)
      << err_.str();
  std::ifstream file2(manifest_path);
  std::ostringstream text2;
  text2 << file2.rdbuf();
  const auto warm = obs::RunManifest::from_json_text(text2.str());
  EXPECT_GT(warm.cache_hits, 0u);
  EXPECT_EQ(warm.cache_misses, 0u);
}

// --- perf command group ------------------------------------------------------

TEST_F(CliRoundTrip, PerfDiffNoiseIsCleanInjectedSlowdownGates) {
  ASSERT_EQ(run({"collect", "--app", "oddeven", "--nranks", "4", "--size", "8", "--out", normal_,
                 "--stats=" + (dir_ / "base.json").string()}),
            0)
      << err_.str();

  // Deterministic sub-threshold jitter: +10% on every phase sits inside the
  // default 25% relative threshold, so the gate must read it as noise.
  // (Timing a second independent run here instead would make the verdict a
  // coin flip under parallel ctest load.)
  std::string base_text;
  {
    std::ifstream file(dir_ / "base.json");
    std::ostringstream text;
    text << file.rdbuf();
    base_text = text.str();
    auto jittered = obs::RunManifest::from_json_text(base_text);
    for (auto& phase : jittered.phases) phase.wall_ns += phase.wall_ns / 10;
    std::ofstream rewrite(dir_ / "head.json");
    rewrite << jittered.to_json();
  }
  ASSERT_EQ(run({"perf", "diff", (dir_ / "base.json").string(), (dir_ / "head.json").string(),
                 "--no-selftrace"}),
            0)
      << out_.str();
  EXPECT_NE(out_.str().find("verdict: ok"), std::string::npos);

  // Inject a regression that clears both gate dimensions whatever the base
  // run took: double every phase and add 2 ms (>= 100% relative, > 1 ms
  // absolute floor).
  {
    auto slowed = obs::RunManifest::from_json_text(base_text);
    for (auto& phase : slowed.phases) phase.wall_ns = phase.wall_ns * 2 + 2'000'000;
    std::ofstream rewrite(dir_ / "slow.json");
    rewrite << slowed.to_json();
  }
  out_.str("");
  err_.str("");
  EXPECT_EQ(run({"perf", "diff", (dir_ / "base.json").string(), (dir_ / "slow.json").string(),
                 "--no-selftrace"}),
            3);
  EXPECT_NE(out_.str().find("regressed"), std::string::npos);
  EXPECT_NE(out_.str().find("verdict: REGRESSED"), std::string::npos);

  // --json output is machine-readable and carries the gate verdict.
  EXPECT_EQ(run({"perf", "diff", (dir_ / "base.json").string(), (dir_ / "slow.json").string(),
                 "--no-selftrace", "--json"}),
            3);
  EXPECT_NO_THROW((void)util::parse_json(out_.str()));
  EXPECT_NE(out_.str().find("\"exit_code\": 3"), std::string::npos);
}

TEST_F(CliRoundTrip, PerfExportManifestChromeAndCsv) {
  const auto stats = (dir_ / "run.json").string();
  ASSERT_EQ(run({"collect", "--app", "oddeven", "--nranks", "4", "--size", "8", "--out", normal_,
                 "--stats=" + stats}),
            0)
      << err_.str();

  ASSERT_EQ(run({"perf", "export", stats}), 0) << err_.str();
  EXPECT_NO_THROW((void)util::parse_json(out_.str()));
  EXPECT_NE(out_.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(out_.str().find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  EXPECT_NE(out_.str().find("\"collect\""), std::string::npos);

  ASSERT_EQ(run({"perf", "export", stats, "--format", "csv"}), 0) << err_.str();
  EXPECT_NE(out_.str().find("path,name,depth,count,wall_ns,cpu_ns"), std::string::npos);

  // --out writes the artifact and keeps stdout clean; chatter goes to err.
  const auto artifact = (dir_ / "run.trace.json").string();
  ASSERT_EQ(run({"perf", "export", stats, "--out", artifact}), 0) << err_.str();
  EXPECT_TRUE(out_.str().empty());
  EXPECT_NE(err_.str().find("export written"), std::string::npos);
  EXPECT_TRUE(std::filesystem::exists(artifact));

  EXPECT_EQ(run({"perf", "export", stats, "--format", "svg"}), 2);
  EXPECT_EQ(run({"perf", "frobnicate"}), 2);
}

TEST_F(CliRoundTrip, PerfSelfTraceExportIsCanonicalAcrossJobs) {
  ASSERT_EQ(run({"collect", "--app", "oddeven", "--nranks", "8", "--size", "8", "--out", normal_}),
            0);
  ASSERT_EQ(run({"collect", "--app", "oddeven", "--nranks", "8", "--size", "8", "--out", faulty_,
                 "--fault", "swapBug", "--fault-proc", "3", "--fault-iteration", "2"}),
            0);

  // The same rank pipeline, self-traced at three pool widths (the widest is
  // 8, or the jobs cap when that is lower). Which lane a sweep cell lands
  // on is racy (workers and the caller both claim ticks), but the exported
  // *work* is conserved: every job count shows the same number of
  // evaluate/cluster spans, and exactly one rank root.
  const auto count = [](const std::string& text, const std::string& needle) {
    std::size_t n = 0;
    for (auto pos = text.find(needle); pos != std::string::npos; pos = text.find(needle, pos + 1))
      ++n;
    return n;
  };
  std::size_t evaluates = 0;
  const auto wide = std::to_string(std::min<std::size_t>(8, sched::max_jobs()));
  for (const std::string& jobs : {std::string("1"), std::string("2"), wide}) {
    const auto archive = (dir_ / ("self" + jobs + ".dtrc")).string();
    ASSERT_EQ(run({"rank", normal_, faulty_, "--jobs", jobs, "--self-trace=" + archive}), 0)
        << err_.str();
    ASSERT_EQ(run({"perf", "export", archive, "--format", "csv"}), 0) << err_.str();
    const auto csv = out_.str();
    EXPECT_EQ(count(csv, ",rank,"), 1u);
    EXPECT_GT(count(csv, ",evaluate,"), 0u);
    EXPECT_EQ(count(csv, ",evaluate,"), count(csv, ",cluster,"));
    if (jobs == "1")
      evaluates = count(csv, ",evaluate,");
    else
      EXPECT_EQ(count(csv, ",evaluate,"), evaluates);
  }

  // At --jobs 1 the whole pipeline is deterministic: two separate runs
  // export byte-identical chrome traces, with canonical lane names and no
  // leaked stream keys.
  const auto rerun = (dir_ / "self1b.dtrc").string();
  ASSERT_EQ(run({"rank", normal_, faulty_, "--jobs", "1", "--self-trace=" + rerun}), 0);
  ASSERT_EQ(run({"perf", "export", (dir_ / "self1.dtrc").string()}), 0);
  const auto first = out_.str();
  ASSERT_EQ(run({"perf", "export", rerun}), 0);
  EXPECT_EQ(first, out_.str());
  // At --jobs 1 the pool spawns no worker threads (ticks run inline on the
  // caller), so the export is a single canonical "main" lane. Worker-lane
  // naming is pinned by the synthetic-store tests in test_perf.cpp.
  EXPECT_NE(first.find("\"main\""), std::string::npos);
  EXPECT_EQ(first.find("pool worker"), std::string::npos);
}

TEST_F(CliRoundTrip, PerfDiffLocalizesViaRecordedSelfTraces) {
  ASSERT_EQ(run({"collect", "--app", "oddeven", "--nranks", "8", "--size", "8", "--out", normal_}),
            0);
  ASSERT_EQ(run({"collect", "--app", "oddeven", "--nranks", "8", "--size", "8", "--out", faulty_,
                 "--fault", "swapBug", "--fault-proc", "3", "--fault-iteration", "2"}),
            0);

  // Two instrumented runs of the same pipeline, each recording both its
  // manifest and its self-trace; the manifest remembers the archive path.
  for (const std::string tag : {"a", "b"}) {
    ASSERT_EQ(run({"rank", normal_, faulty_, "--jobs", "1",
                   "--stats=" + (dir_ / (tag + ".json")).string(),
                   "--self-trace=" + (dir_ / (tag + ".dtrc")).string()}),
              0)
        << err_.str();
  }
  {
    std::ifstream file(dir_ / "a.json");
    std::ostringstream text;
    text << file.rdbuf();
    EXPECT_EQ(obs::RunManifest::from_json_text(text.str()).self_trace,
              (dir_ / "a.dtrc").string());
  }

  // Generous thresholds pin the verdict regardless of how much scheduling
  // noise separated the two timed runs (the point here is the self-trace
  // localization, not the gate); the divergence section still runs and must
  // find the two recorded pipelines identical.
  ASSERT_EQ(run({"perf", "diff", (dir_ / "a.json").string(), (dir_ / "b.json").string(),
                 "--rel-threshold", "1000", "--abs-floor-ms", "60000"}),
            0)
      << out_.str();
  EXPECT_NE(out_.str().find("self-trace divergence"), std::string::npos);
  EXPECT_NE(out_.str().find("identical"), std::string::npos);
}

TEST_F(CliRoundTrip, StatsCommandRejectsBadManifest) {
  EXPECT_EQ(run({"stats", (dir_ / "missing.json").string()}), 2);
  const auto bad = (dir_ / "bad.json").string();
  {
    std::ofstream file(bad);
    file << "{\"manifest_version\": 99}";
  }
  EXPECT_EQ(run({"stats", bad}), 2);
  EXPECT_NE(err_.str().find("cannot parse manifest"), std::string::npos);
}

}  // namespace
}  // namespace difftrace::cli
