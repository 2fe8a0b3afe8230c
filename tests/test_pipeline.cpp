#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>

#include "apps/oddeven.hpp"
#include "apps/runner.hpp"
#include "sched/cache.hpp"
#include "sched/pool.hpp"

namespace difftrace::core {
namespace {

simmpi::WorldConfig fast_world() {
  simmpi::WorldConfig config;
  config.watchdog_poll = std::chrono::milliseconds(5);
  config.wall_timeout = std::chrono::milliseconds(20'000);
  return config;
}

trace::TraceStore trace_odd_even(int nranks, apps::FaultSpec fault) {
  apps::OddEvenConfig config;
  config.nranks = nranks;
  config.elements_per_rank = 8;
  config.fault = fault;
  auto world = fast_world();
  world.nranks = nranks;
  auto run = apps::run_traced(world,
                              [config](simmpi::Comm& comm) { apps::odd_even_rank(comm, config); });
  return std::move(run.store);
}

/// Shared 16-rank normal/faulty trace pairs (collected once; §II-G setup).
class OddEvenPipeline : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    normal_ = new trace::TraceStore(trace_odd_even(16, {}));
    swap_ = new trace::TraceStore(trace_odd_even(16, {apps::FaultType::SwapBug, 5, -1, 7}));
    dl_ = new trace::TraceStore(trace_odd_even(16, {apps::FaultType::DlBug, 5, -1, 7}));
  }
  static void TearDownTestSuite() {
    delete normal_;
    delete swap_;
    delete dl_;
    normal_ = swap_ = dl_ = nullptr;
  }

  static trace::TraceStore* normal_;
  static trace::TraceStore* swap_;
  static trace::TraceStore* dl_;
};

trace::TraceStore* OddEvenPipeline::normal_ = nullptr;
trace::TraceStore* OddEvenPipeline::swap_ = nullptr;
trace::TraceStore* OddEvenPipeline::dl_ = nullptr;

TEST_F(OddEvenPipeline, TracesCollectedForAllRanks) {
  EXPECT_EQ(normal_->size(), 16u);
  EXPECT_EQ(swap_->size(), 16u);
  EXPECT_EQ(dl_->size(), 16u);
}

TEST_F(OddEvenPipeline, NormalTracesShowPaperTableTwoContent) {
  const auto tokens = FilterSpec::mpi_all().apply(*normal_, {1, 0});
  ASSERT_GE(tokens.size(), 5u);
  EXPECT_EQ(tokens[0], "MPI_Init");
  EXPECT_EQ(tokens[1], "MPI_Comm_rank");
  EXPECT_EQ(tokens[2], "MPI_Comm_size");
  EXPECT_EQ(tokens.back(), "MPI_Finalize");
  // Rank 1 exchanges in every phase: 16 × [Recv, Send].
  EXPECT_EQ(std::count(tokens.begin(), tokens.end(), "MPI_Recv"), 16);
  EXPECT_EQ(std::count(tokens.begin(), tokens.end(), "MPI_Send"), 16);
}

TEST_F(OddEvenPipeline, EdgeRanksDoHalfTheIterations) {
  const auto t0 = FilterSpec::mpi_all().apply(*normal_, {0, 0});
  const auto t1 = FilterSpec::mpi_all().apply(*normal_, {1, 0});
  EXPECT_EQ(std::count(t0.begin(), t0.end(), "MPI_Send") * 2,
            std::count(t1.begin(), t1.end(), "MPI_Send"));
}

TEST_F(OddEvenPipeline, SessionBuildsPaperTableThreeNlr) {
  const Session session(*normal_, *normal_, FilterSpec::mpi_all(), NlrConfig{});
  const auto& program = session.normal_nlr(session.index_of({2, 0}));
  // init, rank, size, L^16, finalize.
  ASSERT_EQ(program.size(), 5u);
  EXPECT_TRUE(program[3].is_loop());
  EXPECT_EQ(program[3].count, 16u);
  // Even and odd ranks use different loop bodies.
  const auto& odd_program = session.normal_nlr(session.index_of({3, 0}));
  ASSERT_EQ(odd_program.size(), 5u);
  EXPECT_NE(program[3].id, odd_program[3].id);
}

TEST_F(OddEvenPipeline, SwapBugSuspicionFlagsTraceFive) {
  const Session session(*normal_, *swap_, FilterSpec::mpi_all(), NlrConfig{});
  const auto eval = evaluate(session, {AttrKind::Single, FreqMode::NoFreq}, Linkage::Ward);
  const auto idx5 = session.index_of({5, 0});
  for (std::size_t i = 0; i < eval.scores.size(); ++i)
    if (i != idx5) {
      EXPECT_GE(eval.scores[idx5], eval.scores[i]) << "trace " << i;
    }
  EXPECT_GT(eval.scores[idx5], 0.0);
}

TEST_F(OddEvenPipeline, SwapBugDiffNlrShowsFigureFive) {
  const Session session(*normal_, *swap_, FilterSpec::mpi_all(), NlrConfig{});
  const auto d = session.diffnlr({5, 0});
  const auto text = d.render();
  EXPECT_NE(text.find("^16"), std::string::npos);  // normal-only L^16
  EXPECT_NE(text.find("^7"), std::string::npos);   // faulty L^7 ...
  EXPECT_NE(text.find("^9"), std::string::npos);   // ... then L^9
  EXPECT_NE(text.find("= MPI_Finalize"), std::string::npos);  // both terminate
}

TEST_F(OddEvenPipeline, DlBugDiffNlrShowsFigureSix) {
  const Session session(*normal_, *dl_, FilterSpec::mpi_all(), NlrConfig{});
  const auto d = session.diffnlr({5, 0});
  const auto text = d.render();
  EXPECT_NE(text.find("- MPI_Finalize"), std::string::npos);  // faulty never got there
  EXPECT_NE(text.find("+ MPI_Recv"), std::string::npos);      // stuck in the dead receive
}

TEST_F(OddEvenPipeline, DlBugRankingFlagsTheTruncationOutlier) {
  // The dead receive in rank 5 cascades: every rank's exchange loop
  // eventually starves and the watchdog truncates all traces — except the
  // last rank, which finishes its (half-length) loop and blocks inside
  // MPI_Finalize. Relative to the normal run that lone "terminated
  // normally"-looking trace is the most dissimilar one, exactly the
  // JSM_faulty observation of §II-A ("processes whose execution got
  // truncated will look highly dissimilar to those that terminated
  // normally").
  SweepConfig config;
  config.filters = {FilterSpec::mpi_all(), FilterSpec::mpi_send_recv()};
  const auto table = sweep(*normal_, *dl_, config);
  ASSERT_FALSE(table.rows.empty());
  EXPECT_EQ(table.consensus_thread(), "15.0");
  const auto tokens = FilterSpec::mpi_all().apply(*dl_, {15, 0});
  EXPECT_EQ(tokens.back(), "MPI_Finalize");
}

TEST_F(OddEvenPipeline, DlBugLeastProgressedTraceIsFive) {
  // The root cause is found through the paper's progress lens (§II-D): the
  // NLR-expanded faulty trace of rank 5 covers the smallest fraction of its
  // normal counterpart — it stopped first, everyone else starved later.
  const Session session(*normal_, *dl_, FilterSpec::mpi_all(), NlrConfig{});
  EXPECT_EQ(session.traces()[session.least_progressed()], (trace::TraceKey{5, 0}));
  EXPECT_LT(session.progress_ratio(session.least_progressed()), 0.6);
}

TEST_F(OddEvenPipeline, RankingRowsSortedByBscore) {
  SweepConfig config;
  config.filters = {FilterSpec::mpi_all()};
  const auto table = sweep(*normal_, *swap_, config);
  ASSERT_EQ(table.rows.size(), 6u);  // 1 filter × 6 attribute configs
  for (std::size_t i = 1; i < table.rows.size(); ++i)
    EXPECT_LE(table.rows[i - 1].bscore, table.rows[i].bscore);
}

TEST_F(OddEvenPipeline, RankingTableRenders) {
  SweepConfig config;
  config.filters = {FilterSpec::mpi_all()};
  const auto table = sweep(*normal_, *swap_, config);
  const auto text = table.render();
  EXPECT_NE(text.find("Filter"), std::string::npos);
  EXPECT_NE(text.find("B-score"), std::string::npos);
  EXPECT_NE(text.find("11.plt.mpiall.0K10"), std::string::npos);
  EXPECT_NE(text.find("sing.noFreq"), std::string::npos);
}

TEST_F(OddEvenPipeline, IdenticalRunsProduceNoSuspicion) {
  const Session session(*normal_, *normal_, FilterSpec::mpi_all(), NlrConfig{});
  const auto eval = evaluate(session, {AttrKind::Single, FreqMode::Actual}, Linkage::Ward);
  EXPECT_DOUBLE_EQ(eval.jsm_d.max_abs(), 0.0);
  EXPECT_DOUBLE_EQ(eval.bscore, 1.0);
  const auto top = select_suspicious(eval.scores, 6, 1.0);
  EXPECT_TRUE(top.empty());
}

TEST_F(OddEvenPipeline, FacadeTiesItTogether) {
  const DiffTrace dt(*normal_, *swap_);
  SweepConfig config;
  config.filters = {FilterSpec::mpi_all()};
  const auto table = dt.rank(config);
  EXPECT_EQ(table.consensus_thread(), "5.0");
  const auto session = dt.make_session(FilterSpec::mpi_all());
  EXPECT_FALSE(session.diffnlr({5, 0}).identical());
  EXPECT_TRUE(session.diffnlr({9, 0}).identical());
}

TEST_F(OddEvenPipeline, TracesAreDeterministicAcrossCollections) {
  // The whole methodology rests on the normal run being a reproducible
  // baseline: a second collection of the same configuration must produce
  // token-identical filtered traces.
  const auto again = trace_odd_even(16, {});
  for (const auto& key : normal_->keys()) {
    EXPECT_EQ(FilterSpec::mpi_all().apply(*normal_, key), FilterSpec::mpi_all().apply(again, key))
        << key.label();
  }
}

TEST_F(OddEvenPipeline, ParallelSweepMatchesSerial) {
  // The engine's core promise: the ranking table is byte-identical at any
  // job count (1 is today's exact serial path, 0 resolves to the hardware).
  SweepConfig config;
  config.filters = {FilterSpec::mpi_all(), FilterSpec::mpi_send_recv(),
                    FilterSpec::mpi_collectives(), FilterSpec::everything()};
  config.analysis_threads = 1;
  const auto baseline = sweep(*normal_, *swap_, config);
  ASSERT_EQ(baseline.rows.size(), 24u);
  for (const std::size_t jobs : {std::size_t{2}, std::size_t{4}, std::size_t{8}, std::size_t{0}}) {
    config.analysis_threads = jobs;
    EXPECT_EQ(baseline.render(), sweep(*normal_, *swap_, config).render()) << "jobs " << jobs;
  }
}

struct SweepCacheDir {
  std::filesystem::path path;
  SweepCacheDir() {
    path = std::filesystem::temp_directory_path() /
           ("difftrace-pipeline-cache-" + std::to_string(::getpid()) + "-" +
            std::to_string(reinterpret_cast<std::uintptr_t>(this)));
    std::filesystem::create_directories(path);
  }
  ~SweepCacheDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

TEST_F(OddEvenPipeline, ParallelCachedSessionMatchesSerial) {
  const auto filter = FilterSpec::mpi_all();
  const NlrConfig nlr;
  const Session serial(*normal_, *swap_, filter, nlr);

  SweepCacheDir dir;
  sched::Cache cache(dir.path);
  sched::Pool pool(4);
  SessionOptions options;
  options.pool = &pool;
  options.cache = &cache;
  // Cold (fills the cache) and warm (rehydrates from it) must both equal
  // the serial build down to table identity, not just program shape.
  for (const char* pass : {"cold", "warm"}) {
    const Session built(*normal_, *swap_, filter, nlr, options);
    ASSERT_EQ(built.traces(), serial.traces()) << pass;
    ASSERT_EQ(built.tokens().size(), serial.tokens().size()) << pass;
    for (TokenId t = 0; t < serial.tokens().size(); ++t)
      EXPECT_EQ(built.tokens().name(t), serial.tokens().name(t)) << pass << " token " << t;
    ASSERT_EQ(built.loops().size(), serial.loops().size()) << pass;
    for (std::uint32_t l = 0; l < serial.loops().size(); ++l) {
      EXPECT_EQ(built.loops().body(l), serial.loops().body(l)) << pass << " loop " << l;
      EXPECT_EQ(built.loops().shape_id(l), serial.loops().shape_id(l)) << pass << " loop " << l;
    }
    for (std::size_t i = 0; i < serial.traces().size(); ++i) {
      EXPECT_EQ(built.normal_nlr(i), serial.normal_nlr(i)) << pass << " trace " << i;
      EXPECT_EQ(built.faulty_nlr(i), serial.faulty_nlr(i)) << pass << " trace " << i;
    }
  }
  EXPECT_GT(cache.hits(), 0u);  // the warm pass actually used the artifacts
}

TEST_F(OddEvenPipeline, SweepColdAndWarmCacheAreByteIdentical) {
  SweepCacheDir dir;
  sched::Cache cache(dir.path);
  SweepConfig config;
  config.filters = {FilterSpec::mpi_all(), FilterSpec::mpi_send_recv()};
  config.analysis_threads = 2;
  config.cache = &cache;

  const auto cold = sweep(*normal_, *swap_, config);
  const auto cold_misses = cache.misses();
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_GT(cold_misses, 0u);

  const auto warm = sweep(*normal_, *swap_, config);
  EXPECT_EQ(cold.render(), warm.render());
  EXPECT_GT(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), cold_misses);  // warm run missed nothing

  // And a cacheless sweep agrees with both.
  config.cache = nullptr;
  EXPECT_EQ(cold.render(), sweep(*normal_, *swap_, config).render());
}

TEST_F(OddEvenPipeline, CorruptedCacheEntriesAreRecomputedCleanly) {
  SweepCacheDir dir;
  sched::Cache cache(dir.path);
  SweepConfig config;
  config.filters = {FilterSpec::mpi_all()};
  config.analysis_threads = 2;
  config.cache = &cache;
  const auto baseline = sweep(*normal_, *swap_, config);

  // Plant defects in every entry: truncate one, bit-flip the rest.
  std::vector<std::filesystem::path> entries;
  for (const auto& entry : std::filesystem::directory_iterator(dir.path))
    entries.push_back(entry.path());
  ASSERT_FALSE(entries.empty());
  std::filesystem::resize_file(entries.front(), 4);
  for (std::size_t i = 1; i < entries.size(); ++i) {
    std::fstream f(entries[i], std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(5);
    f.put('\x5a');
  }

  const auto hits_before = cache.hits();
  const auto misses_before = cache.misses();
  const auto recomputed = sweep(*normal_, *swap_, config);
  EXPECT_EQ(baseline.render(), recomputed.render());
  EXPECT_EQ(cache.hits(), hits_before);          // nothing defective was trusted
  EXPECT_GT(cache.misses(), misses_before);      // the defects were counted as misses

  // The recompute overwrote the planted defects with good frames.
  EXPECT_EQ(cache.verify().bad, 0u);
}

TEST_F(OddEvenPipeline, FoldKnownBodiesFallsBackToSerialButStaysCached) {
  // fold_known_bodies couples traces through the shared loop table, so the
  // per-trace NLR cache is disabled — but the sweep must still be
  // deterministic and the per-row evaluation cache still applies.
  SweepCacheDir dir;
  sched::Cache cache(dir.path);
  SweepConfig config;
  config.filters = {FilterSpec::mpi_all()};
  config.pipeline.nlr.fold_known_bodies = true;
  config.analysis_threads = 1;
  const auto serial = sweep(*normal_, *swap_, config);

  config.analysis_threads = 4;
  config.cache = &cache;
  const auto cold = sweep(*normal_, *swap_, config);
  const auto warm = sweep(*normal_, *swap_, config);
  EXPECT_EQ(serial.render(), cold.render());
  EXPECT_EQ(serial.render(), warm.render());
  EXPECT_GT(cache.hits(), 0u);  // evaluation artifacts hit on the warm run
}

TEST(RankingTable, ConsensusOfEmptyTableIsBenign) {
  RankingTable table;
  EXPECT_EQ(table.consensus_thread(), "");
  EXPECT_EQ(table.consensus_process(), -1);
  EXPECT_NE(table.render().find("Filter"), std::string::npos);
}

TEST(RankingTable, ConsensusWeighsFirstPlaceHighest) {
  RankingTable table;
  RankingRow a;
  a.top_threads = {"1.0", "2.0", "3.0"};
  a.top_processes = {1, 2};
  RankingRow b;
  b.top_threads = {"2.0", "1.0"};
  b.top_processes = {2};
  RankingRow c;
  c.top_threads = {"2.0"};
  c.top_processes = {2};
  table.rows = {a, b, c};
  // 2.0: 2+3+3 = 8 votes; 1.0: 3+2 = 5 votes.
  EXPECT_EQ(table.consensus_thread(), "2.0");
  EXPECT_EQ(table.consensus_process(), 2);
}

TEST(SelectSuspicious, ThresholdAndCap) {
  const std::vector<double> scores = {0.0, 5.0, 0.1, 4.9, 0.05};
  const auto top = select_suspicious(scores, 6, 1.0);
  ASSERT_GE(top.size(), 1u);
  EXPECT_EQ(top[0], 1u);
  const auto capped = select_suspicious(scores, 1, 0.0);
  EXPECT_EQ(capped.size(), 1u);
}

TEST(SelectSuspicious, AllZeroGivesEmpty) {
  EXPECT_TRUE(select_suspicious({0.0, 0.0, 0.0}, 6, 1.0).empty());
}

TEST(SelectSuspicious, SingleNonzeroAlwaysReported) {
  const auto top = select_suspicious({0.0, 0.0, 0.3}, 6, 1.0);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0], 2u);
}

}  // namespace
}  // namespace difftrace::core
