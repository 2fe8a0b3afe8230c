// Execution engine + artifact cache: digest stability and aliasing
// resistance, the artifact frame's defect -> miss contract, pool
// parallel_for semantics (coverage, exceptions, nesting), graph ordering
// and failure propagation, and the on-disk cache (hit/miss counters,
// corruption tolerance, stats/clear/verify maintenance surface).
#include <gtest/gtest.h>

#include <pthread.h>
#include <sched.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "sched/artifact.hpp"
#include "sched/cache.hpp"
#include "sched/digest.hpp"
#include "sched/graph.hpp"
#include "sched/pool.hpp"

namespace difftrace::sched {
namespace {

namespace fs = std::filesystem;

// --- digest ------------------------------------------------------------------

TEST(Digest, EmptyIsOffsetBasis) {
  EXPECT_EQ(DigestBuilder().value(), 0xcbf29ce484222325ull);
}

TEST(Digest, SameInputSameValue) {
  DigestBuilder a, b;
  a.add(std::string_view("filter")).add(std::uint64_t{10}).add(true);
  b.add(std::string_view("filter")).add(std::uint64_t{10}).add(true);
  EXPECT_EQ(a.value(), b.value());
}

TEST(Digest, LengthPrefixPreventsFieldAliasing) {
  // ("ab","c") vs ("a","bc"): same concatenated bytes, different fields.
  DigestBuilder a, b;
  a.add(std::string_view("ab")).add(std::string_view("c"));
  b.add(std::string_view("a")).add(std::string_view("bc"));
  EXPECT_NE(a.value(), b.value());
}

TEST(Digest, DistinguishesValues) {
  DigestBuilder a, b, c;
  a.add(std::uint64_t{1});
  b.add(std::uint64_t{2});
  c.add(true);  // bool mixes as u64 1 -> equal to a by design
  EXPECT_NE(a.value(), b.value());
  EXPECT_EQ(a.value(), c.value());
}

TEST(Digest, HexIsSixteenLowercaseDigits) {
  const auto hex = DigestBuilder().add(std::string_view("x")).hex();
  ASSERT_EQ(hex.size(), 16u);
  for (const char ch : hex) EXPECT_TRUE((ch >= '0' && ch <= '9') || (ch >= 'a' && ch <= 'f'));
}

// --- artifact codec ----------------------------------------------------------

TEST(Artifact, PayloadRoundTrip) {
  ArtifactWriter w;
  w.put_u64(0);
  w.put_u64(1234567890123ull);
  w.put_i64(-42);
  w.put_bool(true);
  w.put_str("hello artifact");
  w.put_str("");
  w.put_f64(-0.125);

  ArtifactReader r(w.bytes());
  EXPECT_EQ(r.get_u64(), 0u);
  EXPECT_EQ(r.get_u64(), 1234567890123ull);
  EXPECT_EQ(r.get_i64(), -42);
  EXPECT_TRUE(r.get_bool());
  EXPECT_EQ(r.get_str(), "hello artifact");
  EXPECT_EQ(r.get_str(), "");
  EXPECT_EQ(r.get_f64(), -0.125);
  EXPECT_TRUE(r.at_end());
}

TEST(Artifact, ReaderThrowsOnTruncation) {
  ArtifactWriter w;
  w.put_str("a longer string than the truncated buffer holds");
  auto bytes = w.take();
  bytes.resize(bytes.size() / 2);
  ArtifactReader r(bytes);
  EXPECT_THROW((void)r.get_str(), std::out_of_range);
}

TEST(Artifact, SealOpenRoundTrip) {
  const std::vector<std::uint8_t> payload = {1, 2, 3, 250, 251, 252};
  const auto frame = seal_artifact(7, payload);
  const auto opened = open_artifact(frame, 7);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, payload);
  EXPECT_EQ(probe_artifact(frame), std::uint64_t{7});
}

TEST(Artifact, OpenRejectsEveryDefect) {
  const std::vector<std::uint8_t> payload = {9, 8, 7, 6};
  const auto frame = seal_artifact(3, payload);

  // Wrong kind.
  EXPECT_FALSE(open_artifact(frame, 4).has_value());
  // Bad magic.
  auto bad_magic = frame;
  bad_magic[0] ^= 0xff;
  EXPECT_FALSE(open_artifact(bad_magic, 3).has_value());
  EXPECT_FALSE(probe_artifact(bad_magic).has_value());
  // Flipped payload bit (CRC mismatch).
  auto flipped = frame;
  flipped[frame.size() / 2] ^= 0x01;
  EXPECT_FALSE(open_artifact(flipped, 3).has_value());
  EXPECT_FALSE(probe_artifact(flipped).has_value());
  // Truncation, at every length.
  for (std::size_t n = 0; n < frame.size(); ++n) {
    const std::vector<std::uint8_t> prefix(frame.begin(), frame.begin() + static_cast<long>(n));
    EXPECT_FALSE(open_artifact(prefix, 3).has_value()) << "prefix length " << n;
  }
  // Trailing garbage.
  auto extended = frame;
  extended.push_back(0);
  EXPECT_FALSE(open_artifact(extended, 3).has_value());
}

// --- pool --------------------------------------------------------------------

TEST(Pool, ResolveJobsPrecedence) {
  EXPECT_GE(hardware_jobs(), 1u);
  ::setenv("DIFFTRACE_JOBS", "3", 1);
  EXPECT_EQ(resolve_jobs(5), 5u);  // explicit beats env
  EXPECT_EQ(resolve_jobs(0), 3u);  // env beats hardware
  ::setenv("DIFFTRACE_JOBS", "junk", 1);
  EXPECT_EQ(resolve_jobs(0), hardware_jobs());  // invalid env ignored
  ::setenv("DIFFTRACE_JOBS", "0", 1);
  EXPECT_EQ(resolve_jobs(0), hardware_jobs());
  ::unsetenv("DIFFTRACE_JOBS");
  EXPECT_EQ(resolve_jobs(0), hardware_jobs());
}

TEST(Pool, EnvJobsOutsideTheCapAreIgnored) {
  // Resolving only — no pool is sized from these values.
  const auto cap = max_jobs();
  EXPECT_EQ(cap, 4 * hardware_jobs());
  ::setenv("DIFFTRACE_JOBS", "1", 1);
  EXPECT_EQ(resolve_jobs(0), 1u);
  ::setenv("DIFFTRACE_JOBS", std::to_string(cap).c_str(), 1);
  EXPECT_EQ(resolve_jobs(0), cap);
  ::setenv("DIFFTRACE_JOBS", std::to_string(cap + 1).c_str(), 1);
  EXPECT_EQ(resolve_jobs(0), hardware_jobs());
  ::setenv("DIFFTRACE_JOBS", "-1", 1);  // a sign must not wrap to a huge count
  EXPECT_EQ(resolve_jobs(0), hardware_jobs());
  ::setenv("DIFFTRACE_JOBS", "", 1);
  EXPECT_EQ(resolve_jobs(0), hardware_jobs());
  ::unsetenv("DIFFTRACE_JOBS");
}

TEST(Pool, HardwareJobsCountsTheAffinityMask) {
  // Narrow only this thread's mask to one CPU it may already run on, then
  // restore it.
  cpu_set_t saved;
  CPU_ZERO(&saved);
  ASSERT_EQ(pthread_getaffinity_np(pthread_self(), sizeof saved, &saved), 0);
  int first = 0;
  while (first < CPU_SETSIZE && !CPU_ISSET(first, &saved)) ++first;
  ASSERT_LT(first, CPU_SETSIZE);
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  ASSERT_EQ(pthread_setaffinity_np(pthread_self(), sizeof one, &one), 0);
  const auto narrowed = hardware_jobs();
  const auto narrowed_cap = max_jobs();
  ASSERT_EQ(pthread_setaffinity_np(pthread_self(), sizeof saved, &saved), 0);
  EXPECT_EQ(narrowed, 1u);
  EXPECT_EQ(narrowed_cap, 4u);
  EXPECT_EQ(hardware_jobs(), static_cast<std::size_t>(CPU_COUNT(&saved)));
}

TEST(Pool, ParallelForCoversEveryIndexExactlyOnce) {
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    Pool pool(jobs);
    constexpr std::size_t kN = 100;
    std::vector<std::atomic<int>> seen(kN);
    pool.parallel_for(kN, [&](std::size_t i) { seen[i].fetch_add(1); });
    for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(seen[i].load(), 1) << "jobs " << jobs;
  }
}

TEST(Pool, ParallelForZeroAndOne) {
  Pool pool(4);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "body must not run for n == 0"; });
  std::atomic<int> runs{0};
  pool.parallel_for(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    runs.fetch_add(1);
  });
  EXPECT_EQ(runs.load(), 1);
}

TEST(Pool, ParallelForRethrowsBodyException) {
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    Pool pool(jobs);
    EXPECT_THROW(pool.parallel_for(32,
                                   [](std::size_t i) {
                                     if (i == 5) throw std::runtime_error("boom");
                                   }),
                 std::runtime_error)
        << "jobs " << jobs;
  }
}

TEST(Pool, NestedParallelForDoesNotDeadlock) {
  Pool pool(4);
  std::atomic<int> inner_runs{0};
  pool.parallel_for(8, [&](std::size_t) {
    pool.parallel_for(4, [&](std::size_t) { inner_runs.fetch_add(1); });
  });
  EXPECT_EQ(inner_runs.load(), 32);
}

// --- graph -------------------------------------------------------------------

TEST(Graph, SerialRunExecutesInIdOrder) {
  Pool pool(1);
  Graph graph;
  std::vector<int> order;
  const auto a = graph.add({}, [&] { order.push_back(0); });
  const auto b = graph.add({a}, [&] { order.push_back(1); });
  graph.add({a, b}, [&] { order.push_back(2); });
  graph.run(pool, "test");
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Graph, RejectsForwardDependencies) {
  Graph graph;
  EXPECT_THROW((void)graph.add({0}, [] {}), std::invalid_argument);
}

TEST(Graph, ParallelRunHonorsDependencies) {
  Pool pool(4);
  Graph graph;
  std::mutex mu;
  std::vector<int> order;
  const auto record = [&](int id) {
    const std::lock_guard<std::mutex> lock(mu);
    order.push_back(id);
  };
  const auto root = graph.add({}, [&] { record(0); });
  for (int i = 1; i <= 6; ++i) graph.add({root}, [&, i] { record(i); });
  graph.run(pool, "test");
  ASSERT_EQ(order.size(), 7u);
  EXPECT_EQ(order.front(), 0);  // the root strictly precedes its dependents
  EXPECT_EQ(std::set<int>(order.begin(), order.end()).size(), 7u);
}

TEST(Graph, FailureSkipsDependentsRunsRestAndRethrowsFirst) {
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    Pool pool(jobs);
    Graph graph;
    std::atomic<int> independent_runs{0};
    std::atomic<int> dependent_runs{0};
    const auto bad = graph.add({}, [] { throw std::runtime_error("task failed"); });
    graph.add({bad}, [&] { dependent_runs.fetch_add(1); });
    graph.add({}, [&] { independent_runs.fetch_add(1); });
    EXPECT_THROW(graph.run(pool, "test"), std::runtime_error) << "jobs " << jobs;
    EXPECT_EQ(dependent_runs.load(), 0) << "jobs " << jobs;
    EXPECT_EQ(independent_runs.load(), 1) << "jobs " << jobs;
  }
}

// --- cache -------------------------------------------------------------------

struct TempDir {
  fs::path path;
  TempDir() {
    path = fs::temp_directory_path() /
           ("difftrace-sched-test-" + std::to_string(::getpid()) + "-" +
            std::to_string(reinterpret_cast<std::uintptr_t>(this)));
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

TEST(Cache, MissThenHitRoundTrip) {
  TempDir dir;
  Cache cache(dir.path);
  const std::vector<std::uint8_t> payload = {10, 20, 30};
  EXPECT_FALSE(cache.lookup("00112233aabbccdd", 1).has_value());
  EXPECT_EQ(cache.misses(), 1u);
  cache.store("00112233aabbccdd", 1, payload);
  const auto found = cache.lookup("00112233aabbccdd", 1);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, payload);
  EXPECT_EQ(cache.hits(), 1u);
  // Same key, different kind: defect contract says miss.
  EXPECT_FALSE(cache.lookup("00112233aabbccdd", 2).has_value());
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(Cache, CorruptedEntriesAreMissesNeverErrors) {
  TempDir dir;
  Cache cache(dir.path);
  cache.store("1111111111111111", 1, std::vector<std::uint8_t>{1, 2, 3});
  cache.store("2222222222222222", 1, std::vector<std::uint8_t>{4, 5, 6});

  // Bit-flip one entry, truncate the other.
  {
    std::fstream f(dir.path / "1111111111111111.dta",
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(6);
    f.put('\xff');
  }
  fs::resize_file(dir.path / "2222222222222222.dta", 3);

  EXPECT_FALSE(cache.lookup("1111111111111111", 1).has_value());
  EXPECT_FALSE(cache.lookup("2222222222222222", 1).has_value());
  EXPECT_EQ(cache.misses(), 2u);

  const auto report = cache.verify();
  EXPECT_EQ(report.checked, 2u);
  EXPECT_EQ(report.bad, 2u);
  ASSERT_EQ(report.bad_entries.size(), 2u);
  EXPECT_EQ(report.bad_entries[0], "1111111111111111.dta");

  // Recompute-and-overwrite heals the entry.
  cache.store("1111111111111111", 1, std::vector<std::uint8_t>{1, 2, 3});
  EXPECT_TRUE(cache.lookup("1111111111111111", 1).has_value());
}

TEST(Cache, StatsClearVerify) {
  TempDir dir;
  Cache cache(dir.path);
  EXPECT_EQ(cache.stats().entries, 0u);
  cache.store("aaaaaaaaaaaaaaaa", 1, std::vector<std::uint8_t>(100, 7));
  cache.store("bbbbbbbbbbbbbbbb", 2, std::vector<std::uint8_t>(10, 8));
  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_GT(stats.bytes, 110u);  // payloads plus framing
  const auto report = cache.verify();
  EXPECT_EQ(report.checked, 2u);
  EXPECT_EQ(report.ok, 2u);
  EXPECT_EQ(cache.clear(), 2u);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(Cache, StoreIntoReadOnlyDirectoryDegradesToPassThrough) {
  if (::getuid() == 0) GTEST_SKIP() << "root ignores directory write bits";
  TempDir dir;
  Cache cache(dir.path);
  fs::permissions(dir.path, fs::perms::owner_read | fs::perms::owner_exec);
  cache.store("cccccccccccccccc", 1, std::vector<std::uint8_t>{1});  // must not throw
  fs::permissions(dir.path, fs::perms::owner_all);
  EXPECT_FALSE(cache.lookup("cccccccccccccccc", 1).has_value());
}

// Regression pins for the lock contracts the thread-safety annotations
// prove (PR 5 audit: no latent guarded-access bug found, so the proven
// behaviour is pinned instead).

// Contract: Pool::~Pool sets stop_ under the mutex and workers re-check the
// queue after waking, so every tick posted before destruction runs — stop
// drains, it does not discard; and no worker sleeps through the shutdown
// notify (the dtor would hang in join).
TEST(Pool, DestructorDrainsEveryPostedTick) {
  std::atomic<int> ran{0};
  {
    Pool pool(4);
    for (int i = 0; i < 200; ++i) {
      pool.post("drain", [&ran] { ran.fetch_add(1); });
    }
  }  // destructor joins here
  EXPECT_EQ(ran.load(), 200);
}

// Contract: shutdown with idle (sleeping) workers cannot lose the wakeup —
// stop_ is written under the same mutex the workers' wait predicate reads,
// so a worker is either awake and sees stop_, or asleep and gets the
// notify. Many iterations make a lost-wakeup hang all but certain to bite.
TEST(Pool, IdleShutdownNeverLosesTheStopWakeup) {
  for (int i = 0; i < 100; ++i) {
    Pool pool(4);  // workers go to sleep on the empty queue
  }                // dtor must always join promptly
  SUCCEED();
}

// Contract: every lookup() increments exactly one of hits_/misses_ on every
// path — absent entry, present entry, and defective entry (corruption is a
// counted miss, not an error).
TEST(Cache, EveryLookupOutcomeCountsExactlyOnce) {
  TempDir dir;
  Cache cache(dir.path);
  const std::string key = DigestBuilder().add(std::uint64_t{42}).hex();
  EXPECT_FALSE(cache.lookup(key, 1).has_value());  // absent -> miss
  cache.store(key, 1, std::vector<std::uint8_t>{1, 2, 3});
  EXPECT_TRUE(cache.lookup(key, 1).has_value());  // present -> hit
  {
    std::ofstream out(dir.path / (key + ".dta"), std::ios::trunc | std::ios::binary);
    out << "garbage";
  }
  EXPECT_FALSE(cache.lookup(key, 1).has_value());  // defective -> miss
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 2u);
}

// The opt-in hot layer (retain_hot) serves repeat lookups from memory: same
// bytes, same hit accounting, no disk dependence once pinned. Off by default.
TEST(Cache, RetainHotServesFromMemoryWithIdenticalBytes) {
  TempDir dir;
  Cache cache(dir.path);
  EXPECT_EQ(cache.hot_entries(), 0u);  // disabled until opted in

  cache.retain_hot(2);
  const std::vector<std::uint8_t> payload = {9, 8, 7};
  cache.store("aaaaaaaaaaaaaaaa", 1, payload);
  EXPECT_EQ(cache.hot_entries(), 1u);  // store() pins fresh payloads

  // Remove the backing file: a pinned entry must still hit, byte-identical.
  fs::remove(dir.path / "aaaaaaaaaaaaaaaa.dta");
  const auto found = cache.lookup("aaaaaaaaaaaaaaaa", 1);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, payload);
  EXPECT_EQ(cache.hits(), 1u);

  // Wrong kind never aliases through the memo: defect contract says miss.
  EXPECT_FALSE(cache.lookup("aaaaaaaaaaaaaaaa", 2).has_value());
  EXPECT_EQ(cache.misses(), 1u);

  // LRU eviction at capacity 2: inserting two more evicts "aaaa..." (its
  // backing file is already gone, so the eviction shows up as a miss).
  cache.store("bbbbbbbbbbbbbbbb", 1, payload);
  cache.store("cccccccccccccccc", 1, payload);
  EXPECT_EQ(cache.hot_entries(), 2u);
  fs::remove(dir.path / "cccccccccccccccc.dta");
  EXPECT_TRUE(cache.lookup("cccccccccccccccc", 1).has_value());  // still pinned
  EXPECT_FALSE(cache.lookup("aaaaaaaaaaaaaaaa", 1).has_value());  // evicted + gone

  // A disk hit re-pins: lookup through the file populates the memo.
  cache.store("dddddddddddddddd", 1, payload);
  cache.retain_hot(0);  // disable drops everything pinned
  EXPECT_EQ(cache.hot_entries(), 0u);
  cache.retain_hot(2);
  EXPECT_TRUE(cache.lookup("dddddddddddddddd", 1).has_value());  // from disk
  fs::remove(dir.path / "dddddddddddddddd.dta");
  EXPECT_TRUE(cache.lookup("dddddddddddddddd", 1).has_value());  // now pinned

  // clear() empties the hot layer too: nothing survives it.
  cache.clear();
  EXPECT_EQ(cache.hot_entries(), 0u);
  EXPECT_FALSE(cache.lookup("dddddddddddddddd", 1).has_value());

  EXPECT_EQ(cache.hits() + cache.misses(), 7u);  // invariant holds throughout
}

TEST(Cache, ConcurrentLookupStoreIsSafe) {
  TempDir dir;
  Cache cache(dir.path);
  Pool pool(8);
  pool.parallel_for(64, [&](std::size_t i) {
    const std::string key = DigestBuilder().add(static_cast<std::uint64_t>(i % 8)).hex();
    if (!cache.lookup(key, 1).has_value())
      cache.store(key, 1, std::vector<std::uint8_t>{static_cast<std::uint8_t>(i % 8)});
  });
  EXPECT_EQ(cache.stats().entries, 8u);
  EXPECT_EQ(cache.hits() + cache.misses(), 64u);
}

}  // namespace
}  // namespace difftrace::sched
