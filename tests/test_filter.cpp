#include "core/filter.hpp"

#include <gtest/gtest.h>

namespace difftrace::core {
namespace {

using trace::EventKind;
using trace::Image;

// --- category predicates (Table I rows) -------------------------------------

struct CategoryCase {
  Category category;
  std::string name;
  bool expected;
};

// Without this, gtest prints the case as raw bytes (padding and a heap
// pointer), so the listed test names would change from run to run.
void PrintTo(const CategoryCase& c, std::ostream* os) {
  *os << category_short_name(c.category) << ':' << c.name << '=' << (c.expected ? "true" : "false");
}

class CategoryMatch : public ::testing::TestWithParam<CategoryCase> {};

TEST_P(CategoryMatch, MatchesPerTableOne) {
  const auto& param = GetParam();
  EXPECT_EQ(category_matches(param.category, param.name), param.expected)
      << category_short_name(param.category) << " vs " << param.name;
}

INSTANTIATE_TEST_SUITE_P(
    TableOne, CategoryMatch,
    ::testing::Values(
        CategoryCase{Category::MpiAll, "MPI_Send", true},
        CategoryCase{Category::MpiAll, "MPI_Allreduce", true},
        CategoryCase{Category::MpiAll, "GOMP_barrier", false},
        CategoryCase{Category::MpiAll, "MPID_Send", false},
        CategoryCase{Category::MpiCollectives, "MPI_Barrier", true},
        CategoryCase{Category::MpiCollectives, "MPI_Allreduce", true},
        CategoryCase{Category::MpiCollectives, "MPI_Bcast", true},
        CategoryCase{Category::MpiCollectives, "MPI_Send", false},
        CategoryCase{Category::MpiSendRecv, "MPI_Send", true},
        CategoryCase{Category::MpiSendRecv, "MPI_Isend", true},
        CategoryCase{Category::MpiSendRecv, "MPI_Recv", true},
        CategoryCase{Category::MpiSendRecv, "MPI_Irecv", true},
        CategoryCase{Category::MpiSendRecv, "MPI_Wait", true},
        CategoryCase{Category::MpiSendRecv, "MPI_Barrier", false},
        CategoryCase{Category::MpiInternal, "MPID_Send", true},
        CategoryCase{Category::MpiInternal, "MPIR_Barrier_intra", true},
        CategoryCase{Category::MpiInternal, "MPI_Send", false},
        CategoryCase{Category::OmpAll, "GOMP_parallel_start", true},
        CategoryCase{Category::OmpAll, "gomp_team_start", false},
        CategoryCase{Category::OmpCritical, "GOMP_critical_start", true},
        CategoryCase{Category::OmpCritical, "GOMP_critical_end", true},
        CategoryCase{Category::OmpCritical, "GOMP_barrier", false},
        CategoryCase{Category::OmpMutex, "gomp_mutex_lock", true},
        CategoryCase{Category::Memory, "memcpy", true},
        CategoryCase{Category::Memory, "malloc", true},
        CategoryCase{Category::Memory, "free", true},
        CategoryCase{Category::Memory, "strlen", false},
        CategoryCase{Category::Poll, "poll", true},
        CategoryCase{Category::Poll, "sched_yield", true},
        CategoryCase{Category::String, "strlen", true},
        CategoryCase{Category::String, "strcpy", true},
        CategoryCase{Category::String, "memcpy", false}));

// --- FilterSpec mechanics -------------------------------------------------------

/// Builds a decoded trace of (name, image, kind) triples.
struct EventSeq {
  trace::FunctionRegistry registry;
  std::vector<trace::TraceEvent> events;

  void add(const std::string& name, Image image, EventKind kind) {
    events.push_back({registry.intern(name, image), kind});
  }
  void call_ret(const std::string& name, Image image = Image::Main) {
    add(name, image, EventKind::Call);
    add(name, image, EventKind::Return);
  }
};

TEST(FilterSpec, EverythingKeepsAllCallsAndDropsReturnsByDefault) {
  EventSeq seq;
  seq.call_ret("main");
  seq.call_ret("MPI_Send", Image::MpiLib);
  const auto tokens = FilterSpec::everything().apply(seq.events, seq.registry);
  EXPECT_EQ(tokens, (std::vector<std::string>{"main", "MPI_Send"}));
}

TEST(FilterSpec, KeepingReturnsPrefixesThem) {
  EventSeq seq;
  seq.call_ret("main");
  const auto tokens = FilterSpec::everything().drop_returns(false).apply(seq.events, seq.registry);
  EXPECT_EQ(tokens, (std::vector<std::string>{"main", "ret:main"}));
}

TEST(FilterSpec, PltStubsDroppedByDefault) {
  EventSeq seq;
  seq.call_ret("MPI_Send@plt");
  seq.call_ret("MPI_Send", Image::MpiLib);
  const auto tokens = FilterSpec::mpi_all().apply(seq.events, seq.registry);
  EXPECT_EQ(tokens, (std::vector<std::string>{"MPI_Send"}));
}

TEST(FilterSpec, PltStubsKeptWhenRequested) {
  EventSeq seq;
  seq.call_ret("foo@plt");
  const auto tokens = FilterSpec::everything().drop_plt(false).apply(seq.events, seq.registry);
  EXPECT_EQ(tokens, (std::vector<std::string>{"foo@plt"}));
}

TEST(FilterSpec, CategoryUnionKeepsEither) {
  EventSeq seq;
  seq.call_ret("MPI_Send", Image::MpiLib);
  seq.call_ret("GOMP_critical_start", Image::OmpLib);
  seq.call_ret("computeStuff");
  FilterSpec filter;
  filter.keep(Category::MpiAll).keep(Category::OmpCritical);
  const auto tokens = filter.apply(seq.events, seq.registry);
  EXPECT_EQ(tokens, (std::vector<std::string>{"MPI_Send", "GOMP_critical_start"}));
}

TEST(FilterSpec, CustomRegexKeepsMatches) {
  EventSeq seq;
  seq.call_ret("CPU_Exec");
  seq.call_ret("CPU_Init");
  seq.call_ret("other");
  FilterSpec filter;
  filter.keep_custom("^CPU_");
  const auto tokens = filter.apply(seq.events, seq.registry);
  EXPECT_EQ(tokens, (std::vector<std::string>{"CPU_Exec", "CPU_Init"}));
}

TEST(FilterSpec, CustomRegexCombinesWithCategories) {
  EventSeq seq;
  seq.call_ret("MPI_Send", Image::MpiLib);
  seq.call_ret("CPU_Exec");
  seq.call_ret("other");
  FilterSpec filter = FilterSpec::mpi_all();
  filter.keep_custom("^CPU_Exec$");
  const auto tokens = filter.apply(seq.events, seq.registry);
  EXPECT_EQ(tokens, (std::vector<std::string>{"MPI_Send", "CPU_Exec"}));
}

TEST(FilterSpec, CanonicalNames) {
  EXPECT_EQ(FilterSpec::mpi_all().name(), "11.plt.mpiall");
  EXPECT_EQ(FilterSpec::everything().name(), "11.plt.all");
  FilterSpec f;
  f.drop_returns(false).drop_plt(false).keep(Category::Memory).keep_custom("x");
  EXPECT_EQ(f.name(), "00.mem.cust");
}

TEST(FilterSpec, KeptReturnsRespectKeepSet) {
  EventSeq seq;
  seq.call_ret("MPI_Send", Image::MpiLib);
  seq.call_ret("other");
  const auto tokens = FilterSpec::mpi_all().drop_returns(false).apply(seq.events, seq.registry);
  EXPECT_EQ(tokens, (std::vector<std::string>{"MPI_Send", "ret:MPI_Send"}));
}

}  // namespace
}  // namespace difftrace::core
