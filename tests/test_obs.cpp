// Observability layer: metrics registry, span nesting/aggregation, run
// manifest JSON round-trip, and the self-trace capstone (difftrace's own
// pipeline phases as an analyzable v2 archive).
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <thread>
#include <unistd.h>
#include <vector>

#include "core/filter.hpp"
#include "core/nlr.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/selftrace.hpp"
#include "obs/span.hpp"
#include "trace/store.hpp"
#include "util/json.hpp"

namespace difftrace::obs {
namespace {

// --- counters ----------------------------------------------------------------

TEST(Metrics, CounterRegistersOnFirstUseAndAccumulates) {
  MetricsRegistry::instance().reset();
  auto& c = counter("test.counter_basic");
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  // Same name, same counter.
  EXPECT_EQ(&counter("test.counter_basic"), &c);
}

TEST(Metrics, ResetZeroesValuesButKeepsReferencesValid) {
  auto& c = counter("test.counter_reset");
  c.add(7);
  MetricsRegistry::instance().reset();
  EXPECT_EQ(c.value(), 0u);
  c.add(3);  // the cached reference still works after reset
  EXPECT_EQ(counter("test.counter_reset").value(), 3u);
}

TEST(Metrics, NonzeroOnlySnapshotDropsIdleCounters) {
  MetricsRegistry::instance().reset();
  counter("test.idle");  // registered, never incremented
  counter("test.busy").add(5);
  const auto all = MetricsRegistry::instance().counters(false);
  const auto nonzero = MetricsRegistry::instance().counters(true);
  const auto has = [](const std::vector<CounterSample>& v, std::string_view name) {
    for (const auto& s : v)
      if (s.name == name) return true;
    return false;
  };
  EXPECT_TRUE(has(all, "test.idle"));
  EXPECT_FALSE(has(nonzero, "test.idle"));
  EXPECT_TRUE(has(nonzero, "test.busy"));
}

TEST(Metrics, ConcurrentIncrementsAreLossless) {
  MetricsRegistry::instance().reset();
  auto& c = counter("test.concurrent");
  constexpr int kThreads = 8;
  constexpr int kAdds = 10000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t)
    pool.emplace_back([&] {
      // Mix registration (first-use lookup) with hot-path adds so the
      // registry mutex and the relaxed counter path race under TSan.
      auto& mine = counter("test.concurrent");
      for (int i = 0; i < kAdds; ++i) mine.add();
    });
  for (auto& t : pool) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kAdds);
}

// --- histograms --------------------------------------------------------------

TEST(Metrics, HistogramBucketEdges) {
  // Bucket 0 holds exactly 0; bucket i (i >= 1) covers [2^(i-1), 2^i).
  EXPECT_EQ(Histogram::bucket_index(0), 0u);
  EXPECT_EQ(Histogram::bucket_index(1), 1u);
  EXPECT_EQ(Histogram::bucket_index(2), 2u);
  EXPECT_EQ(Histogram::bucket_index(3), 2u);
  EXPECT_EQ(Histogram::bucket_index(4), 3u);
  EXPECT_EQ(Histogram::bucket_index(7), 3u);
  EXPECT_EQ(Histogram::bucket_index(8), 4u);
  EXPECT_EQ(Histogram::bucket_index(~std::uint64_t{0}), 64u);

  EXPECT_EQ(Histogram::bucket_lower_bound(0), 0u);
  EXPECT_EQ(Histogram::bucket_lower_bound(1), 1u);
  EXPECT_EQ(Histogram::bucket_lower_bound(2), 2u);
  EXPECT_EQ(Histogram::bucket_lower_bound(3), 4u);
  EXPECT_EQ(Histogram::bucket_lower_bound(64), std::uint64_t{1} << 63);

  Histogram h;
  h.record(0);
  h.record(1);
  h.record(2);
  h.record(3);
  h.record(4);
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 5u);
  EXPECT_EQ(snap.sum, 10u);
  EXPECT_EQ(snap.buckets[0], 1u);  // {0}
  EXPECT_EQ(snap.buckets[1], 1u);  // {1}
  EXPECT_EQ(snap.buckets[2], 2u);  // {2, 3}
  EXPECT_EQ(snap.buckets[3], 1u);  // {4}
}

// --- spans -------------------------------------------------------------------

TEST(Spans, NestingBuildsPathsAndAggregatesRepeats) {
  PhaseTable::instance().reset();
  {
    Span outer("outer");
    for (int i = 0; i < 3; ++i) {
      Span inner("inner");
    }
  }
  const auto phases = PhaseTable::instance().snapshot();
  ASSERT_EQ(phases.size(), 2u);
  EXPECT_EQ(phases[0].path, "outer");
  EXPECT_EQ(phases[0].name, "outer");
  EXPECT_EQ(phases[0].depth, 0u);
  EXPECT_EQ(phases[0].count, 1u);
  EXPECT_EQ(phases[1].path, "outer/inner");
  EXPECT_EQ(phases[1].name, "inner");
  EXPECT_EQ(phases[1].depth, 1u);
  EXPECT_EQ(phases[1].count, 3u);
  // A span's wall time contains its children's.
  EXPECT_GE(phases[0].wall_ns, phases[1].wall_ns);
}

TEST(Spans, WorkerThreadsRootTheirOwnTrees) {
  PhaseTable::instance().reset();
  {
    Span main_span("main");
    std::thread worker([] { Span w("worker"); });
    worker.join();
  }
  const auto phases = PhaseTable::instance().snapshot();
  ASSERT_EQ(phases.size(), 2u);
  // The worker's span is not nested under "main": span stacks are
  // thread-local, so it roots its own depth-0 tree.
  EXPECT_EQ(phases[0].path, "main");
  EXPECT_EQ(phases[1].path, "worker");
  EXPECT_EQ(phases[1].depth, 0u);
}

// --- manifest ----------------------------------------------------------------

RunManifest sample_manifest() {
  RunManifest m;
  m.command = {"rank", "a.dtrc", "b.dtrc"};
  m.exit_code = 0;
  m.wall_ns = 1000;
  m.cpu_ns = 900;
  m.peak_rss_kb = 12345;
  m.inputs.push_back({"a.dtrc", 1448, 0xc79fa2bdu, true});
  m.inputs.push_back({"missing.dtrc", 0, 0, false});
  m.phases.push_back({"rank", "rank", 0, 1, 1000, 900});
  m.phases.push_back({"rank/load", "load", 1, 1, 300, 280});
  m.phases.push_back({"rank/sweep", "sweep", 1, 1, 680, 600});
  m.counters.push_back({"nlr.tokens_in", 168});
  m.jobs = 4;
  m.cache_dir = "/tmp/cache";
  m.cache_hits = 3;
  m.cache_misses = 1;
  m.self_trace = "run.selftrace.dtrc";
  HistogramSample h;
  h.name = "trace.blob_events";
  h.data.count = 2;
  h.data.sum = 100;
  h.data.buckets[Histogram::bucket_index(28)] = 1;
  h.data.buckets[Histogram::bucket_index(72)] = 1;
  m.histograms.push_back(h);
  return m;
}

TEST(Manifest, JsonRoundTripPreservesEveryField) {
  const auto m = sample_manifest();
  const auto parsed = RunManifest::from_json_text(m.to_json());

  EXPECT_EQ(parsed.manifest_version, kManifestVersion);
  EXPECT_EQ(parsed.tool_version, m.tool_version);
  EXPECT_EQ(parsed.command, m.command);
  EXPECT_EQ(parsed.exit_code, m.exit_code);
  EXPECT_EQ(parsed.wall_ns, m.wall_ns);
  EXPECT_EQ(parsed.cpu_ns, m.cpu_ns);
  EXPECT_EQ(parsed.peak_rss_kb, m.peak_rss_kb);

  ASSERT_EQ(parsed.inputs.size(), 2u);
  EXPECT_EQ(parsed.inputs[0].path, "a.dtrc");
  EXPECT_EQ(parsed.inputs[0].bytes, 1448u);
  EXPECT_EQ(parsed.inputs[0].crc32, 0xc79fa2bdu);
  EXPECT_TRUE(parsed.inputs[0].ok);
  EXPECT_FALSE(parsed.inputs[1].ok);

  ASSERT_EQ(parsed.phases.size(), 3u);
  EXPECT_EQ(parsed.phases[1].path, "rank/load");
  EXPECT_EQ(parsed.phases[1].name, "load");
  EXPECT_EQ(parsed.phases[1].depth, 1u);
  EXPECT_EQ(parsed.phases[1].wall_ns, 300u);
  EXPECT_EQ(parsed.phases[1].cpu_ns, 280u);

  ASSERT_EQ(parsed.counters.size(), 1u);
  EXPECT_EQ(parsed.counters[0].name, "nlr.tokens_in");
  EXPECT_EQ(parsed.counters[0].value, 168u);

  // Post-release additive fields survive the round trip too.
  EXPECT_EQ(parsed.jobs, 4u);
  EXPECT_EQ(parsed.cache_dir, "/tmp/cache");
  EXPECT_EQ(parsed.cache_hits, 3u);
  EXPECT_EQ(parsed.cache_misses, 1u);
  EXPECT_EQ(parsed.self_trace, "run.selftrace.dtrc");

  ASSERT_EQ(parsed.histograms.size(), 1u);
  EXPECT_EQ(parsed.histograms[0].data.count, 2u);
  EXPECT_EQ(parsed.histograms[0].data.sum, 100u);
  EXPECT_EQ(parsed.histograms[0].data.buckets[Histogram::bucket_index(28)], 1u);
  EXPECT_EQ(parsed.histograms[0].data.buckets[Histogram::bucket_index(72)], 1u);
}

TEST(Manifest, PhaseCoverageSumsRootsDirectChildren) {
  const auto m = sample_manifest();
  // (300 + 680) / 1000
  EXPECT_NEAR(m.phase_coverage(), 0.98, 1e-9);

  RunManifest trivial;
  trivial.phases.push_back({"info", "info", 0, 1, 500, 500});
  EXPECT_DOUBLE_EQ(trivial.phase_coverage(), 1.0);  // no children to judge
}

TEST(Manifest, RejectsWrongSchemaVersion) {
  EXPECT_THROW((void)RunManifest::from_json_text(R"({"manifest_version": 99})"),
               std::runtime_error);
  EXPECT_THROW((void)RunManifest::from_json_text("not json"), std::runtime_error);
}

TEST(Manifest, CollectSnapshotsPhasesCountersAndRusage) {
  MetricsRegistry::instance().reset();
  PhaseTable::instance().reset();
  counter("test.manifest_counter").add(9);
  { Span root("unit"); }
  const auto m = collect_manifest({"unit"}, {"/nonexistent/input.dtrc"}, 3);
  EXPECT_EQ(m.exit_code, 3);
  EXPECT_GT(m.wall_ns, 0u);  // taken from the "unit" root span
  EXPECT_GT(m.peak_rss_kb, 0u);
  ASSERT_EQ(m.inputs.size(), 1u);
  EXPECT_FALSE(m.inputs[0].ok);
  bool found = false;
  for (const auto& c : m.counters)
    if (c.name == "test.manifest_counter" && c.value == 9) found = true;
  EXPECT_TRUE(found);
  // render() is exercised for crash-freedom; content is covered by the CLI
  // stats test.
  EXPECT_NE(m.render().find("phase coverage"), std::string::npos);
}

// --- self-trace --------------------------------------------------------------

TEST(SelfTraceTest, RecordsSpansAsDecodableArchive) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("difftrace_obs_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const auto path = (dir / "self.dtrc").string();

  PhaseTable::instance().reset();
  SelfTrace::instance().start();
  ASSERT_TRUE(SelfTrace::instance().active());
  {
    Span outer("phase_outer");
    for (int i = 0; i < 4; ++i) {
      Span inner("phase_inner");
    }
  }
  const auto store = SelfTrace::instance().stop();
  EXPECT_FALSE(SelfTrace::instance().active());
  store.save(path);

  // The archive is a genuine v2 store: loads strictly, decodes, and its NLR
  // contains the phase names with the repeated inner phase folded to a loop.
  const auto loaded = trace::TraceStore::load(path);
  ASSERT_EQ(loaded.size(), 1u);
  const auto key = loaded.keys().front();
  const auto events = loaded.decode(key);
  EXPECT_EQ(events.size(), 10u);  // 5 spans, call+return each

  core::TokenTable tokens;
  core::LoopTable loops;
  const auto filter = core::FilterSpec::everything().drop_returns(false);
  const auto program =
      core::build_nlr(tokens.intern_all(filter.apply(loaded, key)), loops, {});
  const auto text = core::program_to_string(program, tokens);
  EXPECT_NE(text.find("phase_outer"), std::string::npos);
  EXPECT_GE(loops.size(), 1u);  // the 4 inner spans folded into a loop

  std::filesystem::remove_all(dir);
}

TEST(SelfTraceTest, StartTwiceThrowsAndStopRequiresActive) {
  if (SelfTrace::instance().active()) (void)SelfTrace::instance().stop();
  EXPECT_THROW((void)SelfTrace::instance().stop(), std::logic_error);
  SelfTrace::instance().start();
  EXPECT_THROW(SelfTrace::instance().start(), std::logic_error);
  (void)SelfTrace::instance().stop();
}

}  // namespace
}  // namespace difftrace::obs
