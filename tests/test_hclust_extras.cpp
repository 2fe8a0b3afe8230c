#include <gtest/gtest.h>

#include "core/hclust.hpp"
#include "core/pipeline.hpp"
#include "trace/writer.hpp"

namespace difftrace::core {
namespace {

util::Matrix two_pairs() {
  util::Matrix d = util::Matrix::square(4);
  const double rows[4][4] = {{0.0, 0.1, 5.0, 5.0},
                             {0.1, 0.0, 5.0, 5.0},
                             {5.0, 5.0, 0.0, 0.2},
                             {5.0, 5.0, 0.2, 0.0}};
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 4; ++j) d(i, j) = rows[i][j];
  return d;
}

TEST(Dendrogram, RendersMergesWithLabels) {
  const auto z = linkage(two_pairs(), Linkage::Average);
  const auto text = render_dendrogram(z, 4, {"a", "b", "c", "d"});
  EXPECT_NE(text.find("[a] + [b]  @ 0.100"), std::string::npos);
  EXPECT_NE(text.find("[c] + [d]  @ 0.200"), std::string::npos);
  EXPECT_NE(text.find("[a b] + [c d]"), std::string::npos);
}

TEST(Dendrogram, DefaultLabelsAreIndices) {
  const auto z = linkage(two_pairs(), Linkage::Single);
  const auto text = render_dendrogram(z, 4);
  EXPECT_NE(text.find("[0] + [1]"), std::string::npos);
}

TEST(Dendrogram, LabelCountMismatchThrows) {
  const auto z = linkage(two_pairs(), Linkage::Single);
  EXPECT_THROW((void)render_dendrogram(z, 4, {"only"}), std::invalid_argument);
}

// --- single-run outlier analysis ---------------------------------------------

/// Builds a store of synthetic traces; each entry is a list of call names.
trace::TraceStore make_store(const std::vector<std::vector<std::string>>& traces) {
  trace::TraceStore store;
  for (std::size_t p = 0; p < traces.size(); ++p) {
    trace::TraceWriter writer({static_cast<int>(p), 0});
    for (const auto& name : traces[p])
      writer.record(trace::EventKind::Call, store.registry().intern(name));
    store.absorb(writer);
  }
  return store;
}

TEST(SingleRun, TruncatedTraceIsTheOutlier) {
  // Three healthy traces reach "fini"; the truncated one does not — it must
  // get the highest outlier score (the §II-A observation).
  const std::vector<std::string> healthy = {"init", "work", "work", "fini"};
  const auto store = make_store({healthy, healthy, {"init", "work"}, healthy});
  const auto eval = evaluate_single_run(store, FilterSpec::everything(),
                                        {AttrKind::Single, FreqMode::NoFreq});
  ASSERT_EQ(eval.outlier_scores.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i)
    if (i != 2) {
      EXPECT_GT(eval.outlier_scores[2], eval.outlier_scores[i]);
    }
  EXPECT_EQ(eval.dendrogram.size(), 3u);
}

TEST(SingleRun, IdenticalTracesHaveZeroOutlierScores) {
  const std::vector<std::string> t = {"a", "b", "c"};
  const auto store = make_store({t, t, t});
  const auto eval = evaluate_single_run(store, FilterSpec::everything(),
                                        {AttrKind::Single, FreqMode::Actual});
  for (const auto s : eval.outlier_scores) EXPECT_DOUBLE_EQ(s, 0.0);
}

TEST(SingleRun, SingleTraceDegenerates) {
  const auto store = make_store({{"a"}});
  const auto eval = evaluate_single_run(store, FilterSpec::everything(),
                                        {AttrKind::Single, FreqMode::NoFreq});
  ASSERT_EQ(eval.outlier_scores.size(), 1u);
  EXPECT_DOUBLE_EQ(eval.outlier_scores[0], 0.0);
  EXPECT_TRUE(eval.dendrogram.empty());
}

TEST(SingleRun, MasterWorkerRolesClusterApart) {
  // One master-shaped trace among workers: the master is the outlier, and
  // the dendrogram separates roles — the paper's structural-clustering use.
  const std::vector<std::string> master = {"init", "bcast", "reduce", "fini"};
  const std::vector<std::string> worker = {"init", "exec", "exec", "fini"};
  const auto store = make_store({master, worker, worker, worker});
  const auto eval = evaluate_single_run(store, FilterSpec::everything(),
                                        {AttrKind::Single, FreqMode::NoFreq});
  for (std::size_t i = 1; i < 4; ++i) EXPECT_GT(eval.outlier_scores[0], eval.outlier_scores[i]);
  const auto labels = cut_to_k(eval.dendrogram, 4, 2);
  EXPECT_EQ(labels[1], labels[2]);
  EXPECT_EQ(labels[2], labels[3]);
  EXPECT_NE(labels[0], labels[1]);
}

}  // namespace
}  // namespace difftrace::core
