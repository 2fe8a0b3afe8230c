// Tests for the resident serve subsystem: protocol framing, the sharded
// on-disk run store (including the kill-recovery rebuild path), the hot
// cache, Service request handling, and full socket round trips through the
// real `serve`/`query` commands — where byte-parity with the cold CLI is
// pinned.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cli/commands.hpp"
#include "cli/load.hpp"
#include "sched/pool.hpp"
#include "serve/hot_cache.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "serve/shard_store.hpp"
#include "serve/socket.hpp"
#include "util/json.hpp"

namespace difftrace::serve {
namespace {

namespace fs = std::filesystem;

// --- protocol ---------------------------------------------------------------

TEST(ServeProtocol, RequestRoundTrip) {
  Request req;
  req.op = "rank";
  req.request_id = "q7";
  req.normal = "good";
  req.faulty = "bad";
  req.opts = {"--filters=mpiall,mpisr", "--top=3"};

  std::ostringstream framed;
  write_request(framed, req);
  const auto line = framed.str();
  ASSERT_FALSE(line.empty());
  EXPECT_EQ(line.back(), '\n');
  EXPECT_EQ(line.find('\n'), line.size() - 1) << "a request must be exactly one line";

  const auto back = parse_request(line);
  EXPECT_EQ(back.op, "rank");
  EXPECT_EQ(back.request_id, "q7");
  EXPECT_EQ(back.normal, "good");
  EXPECT_EQ(back.faulty, "bad");
  EXPECT_EQ(back.opts, req.opts);
  EXPECT_TRUE(back.path.empty());
}

TEST(ServeProtocol, MalformedRequestsAreUsageErrors) {
  const auto code_of = [](const std::string& line) {
    try {
      (void)parse_request(line);
    } catch (const OpError& e) {
      return e.exit_code();
    }
    return 0;
  };
  EXPECT_EQ(code_of("this is not json"), 2);
  EXPECT_EQ(code_of("[1,2,3]"), 2);
  EXPECT_EQ(code_of("{}"), 2);  // missing op
  EXPECT_EQ(code_of(R"({"op":"list","request_id":7})"), 2);
  EXPECT_EQ(code_of(R"({"op":"rank","opts":"--top=3"})"), 2);
  EXPECT_EQ(code_of(R"({"op":"rank","opts":[3]})"), 2);
}

TEST(ServeProtocol, ResponseRoundTripAndVersionGate) {
  Response resp;
  resp.request_id = "q1";
  resp.op = "check";
  resp.status = "error";
  resp.exit_code = 3;
  resp.tool_version = "1.0.0";
  resp.command = {"check", "bad", "--checkers=mpi"};
  resp.wall_ns = 12345;
  resp.cpu_ns = 6789;
  resp.peak_rss_kb = 1024;
  resp.output = "check bad\n";
  resp.chatter = "[salvage] recovered 3/4\n";
  resp.error = "2 violated";
  resp.extras.emplace_back("serve", R"({"runs":2})");

  std::ostringstream framed;
  write_response(framed, resp);
  const auto line = framed.str();
  EXPECT_EQ(line.find('\n'), line.size() - 1) << "a response must be exactly one line";

  const auto back = parse_response(line);
  EXPECT_EQ(back.request_id, "q1");
  EXPECT_EQ(back.op, "check");
  EXPECT_EQ(back.status, "error");
  EXPECT_EQ(back.exit_code, 3);
  EXPECT_EQ(back.command, resp.command);
  EXPECT_EQ(back.output, "check bad\n");
  EXPECT_EQ(back.chatter, "[salvage] recovered 3/4\n");
  EXPECT_EQ(back.error, "2 violated");

  // Extras ride as additional top-level keys.
  const auto doc = util::parse_json(line);
  EXPECT_EQ(doc.at("serve").at("runs").as_uint(), 2u);

  EXPECT_THROW((void)parse_response(R"({"serve_version":99,"request_id":"x"})"),
               std::runtime_error);
}

TEST(ServeProtocol, OkResponseOmitsErrorField) {
  Response resp;
  resp.request_id = "q1";
  resp.op = "list";
  std::ostringstream framed;
  write_response(framed, resp);
  EXPECT_EQ(framed.str().find("\"error\""), std::string::npos);
}

// --- fixtures: synthesized archives ----------------------------------------

class ServeFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           ("difftrace_serve_" + std::to_string(::getpid()) + "_" + info->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  int run(const std::vector<std::string>& argv) {
    out_.str("");
    err_.str("");
    return cli::run_command(argv, out_, err_);
  }

  /// Collects an oddeven archive (optionally faulty) under `name`.dtrc.
  std::string collect(const std::string& name, bool faulty) {
    const auto path = (dir_ / (name + ".dtrc")).string();
    std::vector<std::string> argv = {"collect", "--app",  "oddeven", "--nranks",
                                     "8",       "--size", "8",       "--out",
                                     path};
    if (faulty) {
      argv.insert(argv.end(),
                  {"--fault", "swapBug", "--fault-proc", "5", "--fault-iteration", "7"});
    }
    EXPECT_EQ(run(argv), 0) << err_.str();
    return path;
  }

  trace::TraceStore load(const std::string& path) {
    std::ostringstream sink;
    return std::move(cli::load_tolerant(path, sink).store);
  }

  fs::path dir_;
  std::ostringstream out_;
  std::ostringstream err_;
};

// --- shard store ------------------------------------------------------------

using ShardStoreTest = ServeFixture;

TEST_F(ShardStoreTest, IngestLookupListAndReopen) {
  const auto store_root = dir_ / "store";
  const auto normal = load(collect("normal", false));
  const auto faulty = load(collect("faulty", true));

  std::vector<RunInfo> before;
  {
    ShardStore shards(store_root);
    EXPECT_FALSE(shards.rebuilt_on_open()) << "fresh store is an empty index, not a defect";
    const auto a = shards.ingest("normal", normal, false);
    const auto b = shards.ingest("faulty", faulty, false);
    EXPECT_EQ(a.name, "normal");
    EXPECT_GT(a.bytes, 0u);
    EXPECT_EQ(a.traces, 8u);
    EXPECT_LT(a.shard, kShardCount);
    EXPECT_TRUE(fs::exists(shards.archive_path(a)));
    EXPECT_TRUE(fs::exists(shards.archive_path(b)));
    EXPECT_EQ(shards.size(), 2u);
    ASSERT_TRUE(shards.lookup("faulty").has_value());
    EXPECT_EQ(shards.lookup("faulty")->crc32, b.crc32);
    EXPECT_FALSE(shards.lookup("missing").has_value());
    before = shards.list();
  }

  // Reopen: the persisted index is intact, so no rebuild happens and the
  // listing is identical.
  ShardStore reopened(store_root);
  EXPECT_FALSE(reopened.rebuilt_on_open());
  const auto after = reopened.list();
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(after[i].name, before[i].name);
    EXPECT_EQ(after[i].crc32, before[i].crc32);
    EXPECT_EQ(after[i].shard, before[i].shard);
    EXPECT_EQ(after[i].bytes, before[i].bytes);
    EXPECT_EQ(after[i].events, before[i].events);
  }
}

TEST_F(ShardStoreTest, ReingestReplacesRun) {
  const auto store_root = dir_ / "store";
  const auto normal = load(collect("normal", false));
  const auto faulty = load(collect("faulty", true));

  ShardStore shards(store_root);
  const auto first = shards.ingest("run", normal, false);
  const auto second = shards.ingest("run", faulty, false);
  EXPECT_EQ(shards.size(), 1u);
  EXPECT_NE(first.crc32, second.crc32);
  EXPECT_TRUE(fs::exists(shards.archive_path(second)));
  if (first.shard != second.shard) {
    EXPECT_FALSE(fs::exists(shards.archive_path(first)))
        << "re-ingest must remove the stale archive across shards";
  }
}

TEST_F(ShardStoreTest, KilledMidIngestRecoversByRebuild) {
  const auto store_root = dir_ / "store";
  const auto normal = load(collect("normal", false));
  const auto faulty = load(collect("faulty", true));

  std::vector<RunInfo> before;
  {
    ShardStore shards(store_root);
    shards.ingest("normal", normal, false);
    shards.ingest("faulty", faulty, false);
    before = shards.list();
  }

  // Simulate a daemon killed mid-ingest: a torn staging file survives in
  // tmp/ and the index is a torn write (garbage bytes).
  std::ofstream(store_root / "tmp" / "victim.1234.part") << "half an archive";
  std::ofstream(store_root / "index.dta") << "definitely not a DTA1 frame";

  ShardStore recovered(store_root);
  EXPECT_TRUE(recovered.rebuilt_on_open());
  const auto after = recovered.list();
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(after[i].name, before[i].name);
    EXPECT_EQ(after[i].crc32, before[i].crc32) << "rebuild must recompute identical digests";
    EXPECT_EQ(after[i].events, before[i].events);
  }
  EXPECT_FALSE(fs::exists(store_root / "tmp" / "victim.1234.part"))
      << "rebuild clears torn staging files";

  // A deleted archive behind an intact index is also a rebuild, and the
  // vanished run drops out.
  fs::remove(recovered.archive_path(after[0]));
  ShardStore pruned(store_root);
  EXPECT_TRUE(pruned.rebuilt_on_open());
  EXPECT_EQ(pruned.size(), before.size() - 1);
}

TEST_F(ShardStoreTest, RejectsUnsafeRunNames) {
  EXPECT_TRUE(ShardStore::valid_run_name("run-1.normal_x"));
  EXPECT_FALSE(ShardStore::valid_run_name(""));
  EXPECT_FALSE(ShardStore::valid_run_name(".hidden"));
  EXPECT_FALSE(ShardStore::valid_run_name("../escape"));
  EXPECT_FALSE(ShardStore::valid_run_name("a/b"));
  EXPECT_FALSE(ShardStore::valid_run_name("sp ace"));
  EXPECT_FALSE(ShardStore::valid_run_name(std::string(201, 'a')));

  ShardStore shards(dir_ / "store");
  const trace::TraceStore empty;
  EXPECT_THROW((void)shards.ingest("../escape", empty, false), OpError);
}

// --- hot cache --------------------------------------------------------------

TEST(HotCacheTest, HitMissAndEviction) {
  HotCache hot(1);
  int builds = 0;
  const auto make = [&builds]() -> HotCache::StorePtr {
    ++builds;
    return std::make_shared<const trace::TraceStore>();
  };
  const auto a1 = hot.get_store("a", make);
  const auto a2 = hot.get_store("a", make);
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(a1.get(), a2.get()) << "a hit returns the pinned instance";
  (void)hot.get_store("b", make);  // capacity 1: evicts "a"
  (void)hot.get_store("a", make);
  EXPECT_EQ(builds, 3);
  const auto stats = hot.stats();
  EXPECT_EQ(stats.store_hits, 1u);
  EXPECT_EQ(stats.store_misses, 3u);
  EXPECT_EQ(stats.stores, 1u);
}

TEST(HotCacheTest, ZeroCapacityDisablesPinning) {
  HotCache hot(0);
  int builds = 0;
  const auto make = [&builds]() -> HotCache::StorePtr {
    ++builds;
    return std::make_shared<const trace::TraceStore>();
  };
  (void)hot.get_store("a", make);
  (void)hot.get_store("a", make);
  EXPECT_EQ(builds, 2);
  EXPECT_EQ(hot.stats().stores, 0u);
}

// --- service (no socket) ----------------------------------------------------

using ServiceTest = ServeFixture;

TEST_F(ServiceTest, ErrorEnvelopes) {
  QueryOps ops;  // no callbacks: error paths below never reach them
  std::ostringstream log;
  Service service({.store_root = dir_ / "store", .hot_capacity = 2}, std::move(ops), log);

  const auto garbage = service.handle_line("not json");
  EXPECT_EQ(garbage.status, "error");
  EXPECT_EQ(garbage.exit_code, 2);
  EXPECT_TRUE(garbage.op.empty());

  const auto unknown_op = service.handle_line(R"({"op":"teleport","request_id":"q1"})");
  EXPECT_EQ(unknown_op.status, "error");
  EXPECT_EQ(unknown_op.exit_code, 2);
  EXPECT_EQ(unknown_op.request_id, "q1") << "a parsed request always echoes its id";

  const auto unknown_run =
      service.handle_line(R"({"op":"rank","request_id":"q2","normal":"a","faulty":"b"})");
  EXPECT_EQ(unknown_run.status, "error");
  EXPECT_EQ(unknown_run.exit_code, 2);
  EXPECT_NE(unknown_run.error.find("unknown run"), std::string::npos);

  const auto shutdown = service.handle_line(R"({"op":"shutdown","request_id":"q3"})");
  EXPECT_EQ(shutdown.status, "ok");
  EXPECT_TRUE(service.shutdown_requested());
}

// --- socket end-to-end through the real commands ----------------------------

class ServeEndToEnd : public ServeFixture {
 protected:
  void TearDown() override {
    stop_daemon();
    ServeFixture::TearDown();
  }

  /// Socket paths must fit sun_path (~107 bytes): keep them short and unique.
  std::string socket_path(int n) {
    return "/tmp/dtserve-" + std::to_string(::getpid()) + "-" + std::to_string(n) + ".sock";
  }

  void start_daemon(const std::string& socket, const std::vector<std::string>& extra = {}) {
    socket_ = socket;
    std::vector<std::string> argv = {"serve", "--socket", socket, "--store",
                                     (dir_ / "store").string()};
    argv.insert(argv.end(), extra.begin(), extra.end());
    daemon_thread_ = std::thread([this, argv]() {
      daemon_exit_ = cli::run_command(argv, daemon_out_, daemon_err_);
    });
  }

  void stop_daemon() {
    if (!daemon_thread_.joinable()) return;
    std::ostringstream out, err;
    (void)cli::run_command({"query", "--socket", socket_, "shutdown", "--retries", "3"}, out,
                           err);
    daemon_thread_.join();
  }

  /// One query against the running daemon; returns its exit code, with the
  /// response body in out_/err_.
  int query(std::vector<std::string> argv) {
    argv.insert(argv.begin(), {"query", "--socket", socket_, "--retries", "10"});
    return run(argv);
  }

  std::string socket_;
  std::thread daemon_thread_;
  std::ostringstream daemon_out_;
  std::ostringstream daemon_err_;
  int daemon_exit_ = -1;
};

TEST_F(ServeEndToEnd, QueryWithoutDaemonFailsFast) {
  EXPECT_EQ(run({"query", "--socket", (dir_ / "no-daemon.sock").string(), "list", "--retries",
                 "2"}),
            1);
  EXPECT_NE(err_.str().find("query:"), std::string::npos);
}

TEST_F(ServeEndToEnd, WarmAnswersAreByteIdenticalToColdCli) {
  const auto normal = collect("normal", false);
  const auto faulty = collect("faulty", true);

  // Cold CLI truth (cache-less: `rank` only uses an artifact cache when
  // `--cache` is passed, so the daemon's resident cache is pure speedup).
  ASSERT_EQ(run({"rank", normal, faulty}), 0) << err_.str();
  const auto cold_rank = out_.str();
  const auto cold_check_code = run({"check", faulty});
  const auto cold_check = out_.str();
  ASSERT_EQ(run({"diffnlr", normal, faulty, "--trace", "5.0"}), 0) << err_.str();
  const auto cold_diff = out_.str();

  start_daemon(socket_path(1));
  ASSERT_EQ(query({"ingest", normal, "--name", "normal"}), 0) << err_.str();
  EXPECT_NE(out_.str().find("ingested normal: 8 trace(s)"), std::string::npos);
  ASSERT_EQ(query({"ingest", faulty, "--name", "faulty"}), 0) << err_.str();

  // First (cold-decode) and second (hot) answers must BOTH equal the CLI.
  ASSERT_EQ(query({"rank", "normal", "faulty"}), 0) << err_.str();
  EXPECT_EQ(out_.str(), cold_rank);
  ASSERT_EQ(query({"rank", "normal", "faulty"}), 0) << err_.str();
  EXPECT_EQ(out_.str(), cold_rank);

  // `check` heads its report with the label it was given — a path cold, the
  // run name warm — so parity is pinned on everything after that line.
  const auto after_label = [](const std::string& text) {
    return text.substr(text.find('\n') + 1);
  };
  EXPECT_EQ(query({"check", "faulty"}), cold_check_code);
  EXPECT_EQ(out_.str().substr(0, 12), "check faulty");
  EXPECT_EQ(after_label(out_.str()), after_label(cold_check));

  ASSERT_EQ(query({"diff", "normal", "faulty", "--trace", "5.0"}), 0) << err_.str();
  EXPECT_EQ(out_.str(), cold_diff);
  ASSERT_EQ(query({"diff", "normal", "faulty", "--trace", "3.0"}), 0) << err_.str();
  EXPECT_NE(out_.str(), cold_diff) << "a different trace reuses the session, not the answer";

  // stats reflects the pinned state; --raw must frame as a single JSON line.
  ASSERT_EQ(query({"stats", "--raw"}), 0) << err_.str();
  const auto doc = util::parse_json(out_.str());
  EXPECT_EQ(doc.at("serve_version").as_uint(), 1u);
  EXPECT_EQ(doc.at("serve").at("runs").as_uint(), 2u);
  EXPECT_GE(doc.at("serve").at("store_hits").as_uint(), 2u);
  EXPECT_GE(doc.at("serve").at("session_hits").as_uint(), 1u);

  stop_daemon();
  EXPECT_EQ(daemon_exit_, 0) << daemon_err_.str();
  EXPECT_NE(daemon_err_.str().find("shutdown complete"), std::string::npos);
}

TEST_F(ServeEndToEnd, UsageErrorsCrossTheWire) {
  const auto normal = collect("normal", false);
  start_daemon(socket_path(2));
  EXPECT_EQ(query({"rank", "nope", "alsono"}), 2);
  EXPECT_NE(err_.str().find("unknown run"), std::string::npos);
  EXPECT_EQ(query({"ingest", (dir_ / "missing.dtrc").string()}), 2);
  // An out-of-range request option is a usage error, rejected before any
  // pool is sized from it.
  ASSERT_EQ(query({"ingest", normal, "--name", "normal"}), 0) << err_.str();
  EXPECT_EQ(query({"rank", "normal", "normal", "--jobs=-1"}), 2);
  EXPECT_NE(err_.str().find("server error: option --jobs must be in [0, "), std::string::npos)
      << err_.str();
  stop_daemon();
  EXPECT_EQ(daemon_exit_, 0) << daemon_err_.str();
}

TEST_F(ServeEndToEnd, ConcurrentIngestMatchesSerial) {
  const auto normal = collect("normal", false);
  const auto faulty = collect("faulty", true);
  const std::vector<std::string> sources = {normal, faulty};
  constexpr int kClients = 6;

  // Serial reference daemon.
  std::string serial_list, serial_rank;
  {
    start_daemon(socket_path(3));
    for (int i = 0; i < kClients; ++i) {
      ASSERT_EQ(query({"ingest", sources[i % 2], "--name", "r" + std::to_string(i)}), 0)
          << err_.str();
    }
    ASSERT_EQ(query({"list"}), 0) << err_.str();
    serial_list = out_.str();
    ASSERT_EQ(query({"rank", "r0", "r1"}), 0) << err_.str();
    serial_rank = out_.str();
    stop_daemon();
    ASSERT_EQ(daemon_exit_, 0) << daemon_err_.str();
    fs::remove_all(dir_ / "store");
  }

  // Concurrent daemon: up to 8 workers (the jobs cap allows 4 even on one
  // CPU), every client ingests in its own thread.
  start_daemon(socket_path(4),
               {"--jobs", std::to_string(std::min<std::size_t>(8, sched::max_jobs()))});
  {
    std::vector<std::thread> clients;
    std::vector<int> codes(kClients, -1);
    for (int i = 0; i < kClients; ++i) {
      clients.emplace_back([this, &sources, &codes, i]() {
        std::ostringstream out, err;
        codes[i] = cli::run_command({"query", "--socket", socket_, "--retries", "10", "ingest",
                                     sources[i % 2], "--name", "r" + std::to_string(i)},
                                    out, err);
      });
    }
    for (auto& t : clients) t.join();
    for (int i = 0; i < kClients; ++i) EXPECT_EQ(codes[i], 0) << "client " << i;
  }
  ASSERT_EQ(query({"list"}), 0) << err_.str();
  EXPECT_EQ(out_.str(), serial_list)
      << "concurrent ingest must produce the same shard index as serial";
  ASSERT_EQ(query({"rank", "r0", "r1"}), 0) << err_.str();
  EXPECT_EQ(out_.str(), serial_rank);
  stop_daemon();
  EXPECT_EQ(daemon_exit_, 0) << daemon_err_.str();

  // The store the concurrent daemon left behind reopens without a rebuild.
  ShardStore reopened(dir_ / "store");
  EXPECT_FALSE(reopened.rebuilt_on_open());
  EXPECT_EQ(reopened.size(), static_cast<std::size_t>(kClients));
}

}  // namespace
}  // namespace difftrace::serve
