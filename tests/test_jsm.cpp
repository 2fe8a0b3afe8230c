#include "core/jsm.hpp"

#include <gtest/gtest.h>

#include "util/prng.hpp"

namespace difftrace::core {
namespace {

TEST(Jaccard, KnownValues) {
  EXPECT_DOUBLE_EQ(jaccard({"a", "b"}, {"a", "b"}), 1.0);
  EXPECT_DOUBLE_EQ(jaccard({"a", "b"}, {"c"}), 0.0);
  EXPECT_DOUBLE_EQ(jaccard({"a", "b", "c"}, {"b", "c", "d"}), 0.5);
  EXPECT_DOUBLE_EQ(jaccard({}, {}), 1.0);
  EXPECT_DOUBLE_EQ(jaccard({"a"}, {}), 0.0);
}

TEST(Jsm, PaperFigureFourShape) {
  // Table IV attribute sets: even traces {4 shared + L0}, odd {4 shared + L1}.
  const std::set<std::string> shared = {"MPI_Init", "MPI_Comm_size", "MPI_Comm_rank", "MPI_Finalize"};
  auto even = shared;
  even.insert("L0");
  auto odd = shared;
  odd.insert("L1");
  const auto m = jsm_from_attributes({even, odd, even, odd});
  EXPECT_DOUBLE_EQ(m(0, 2), 1.0);  // T0 ~ T2
  EXPECT_DOUBLE_EQ(m(1, 3), 1.0);  // T1 ~ T3
  EXPECT_DOUBLE_EQ(m(0, 1), 4.0 / 6.0);
  EXPECT_DOUBLE_EQ(m(0, 0), 1.0);
}

TEST(Jsm, SymmetricWithUnitDiagonal) {
  util::Xoshiro256 rng(3);
  std::vector<std::set<std::string>> attrs(6);
  for (auto& s : attrs)
    for (int i = 0; i < 10; ++i) s.insert("a" + std::to_string(rng.below(15)));
  const auto m = jsm_from_attributes(attrs);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_DOUBLE_EQ(m(i, i), 1.0);
    for (std::size_t j = 0; j < 6; ++j) {
      EXPECT_DOUBLE_EQ(m(i, j), m(j, i));
      EXPECT_GE(m(i, j), 0.0);
      EXPECT_LE(m(i, j), 1.0);
    }
  }
}

TEST(Jsm, LatticePathMatchesDirectPath) {
  // The concept lattice carries each object's intent, so the JSM computed
  // through it must equal the direct attribute-set JSM.
  const std::vector<std::set<std::string>> attrs = {
      {"a", "b", "c"}, {"a", "b"}, {"a", "c", "d"}, {"b"}, {"a", "b", "c"}};
  FormalContext ctx;
  for (std::size_t g = 0; g < attrs.size(); ++g) {
    ctx.add_object("T" + std::to_string(g));
    for (const auto& a : attrs[g]) ctx.set_incidence(g, a);
  }
  const auto lattice = incremental_lattice(ctx);
  const auto via_lattice = jsm_from_lattice(lattice, attrs.size());
  const auto direct = jsm_from_attributes(attrs);
  for (std::size_t i = 0; i < attrs.size(); ++i)
    for (std::size_t j = 0; j < attrs.size(); ++j)
      EXPECT_NEAR(via_lattice(i, j), direct(i, j), 1e-12) << i << "," << j;
}

TEST(JsmDiff, IdenticalRunsGiveZero) {
  const std::vector<std::set<std::string>> attrs = {{"a"}, {"a", "b"}, {"c"}};
  const auto m = jsm_from_attributes(attrs);
  const auto d = jsm_diff(m, m);
  EXPECT_DOUBLE_EQ(d.max_abs(), 0.0);
  for (const auto s : suspicion_scores(d)) EXPECT_DOUBLE_EQ(s, 0.0);
}

TEST(JsmDiff, PerturbedTraceHasHighestRowSum) {
  // "Sky subtraction": trace 1's attribute set changes between runs; its
  // JSM row must change the most.
  const std::vector<std::set<std::string>> normal = {
      {"a", "b", "x"}, {"a", "b", "y"}, {"a", "b", "x"}, {"a", "b", "y"}};
  std::vector<std::set<std::string>> faulty = normal;
  faulty[1] = {"a", "q", "z"};
  const auto d = jsm_diff(jsm_from_attributes(normal), jsm_from_attributes(faulty));
  const auto scores = suspicion_scores(d);
  for (std::size_t i = 0; i < scores.size(); ++i)
    if (i != 1) {
      EXPECT_GT(scores[1], scores[i]);
    }
}

TEST(JsmDiff, BaselineDissimilarityCancelsOut) {
  // Master/worker asymmetry exists in both runs; JSM_D must not flag it.
  const std::set<std::string> master = {"bcast", "reduce", "scan"};
  const std::set<std::string> worker = {"exec", "crit"};
  const std::vector<std::set<std::string>> run = {master, worker, worker, worker};
  const auto d = jsm_diff(jsm_from_attributes(run), jsm_from_attributes(run));
  EXPECT_DOUBLE_EQ(d.max_abs(), 0.0);
}

}  // namespace
}  // namespace difftrace::core
