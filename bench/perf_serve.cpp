// Resident-service speedup: what `difftrace serve` buys over the cold CLI.
// A cold `rank` pays archive decode + the full sweep on every invocation;
// a warm daemon answers from pinned decoded stores and its resident
// artifact cache, paying only cache replay + render. The bench holds the
// two answers byte-identical and puts the speedup on the clock.
//
// Two modes, like perf_sweep / perf_check:
//   perf_serve [gbench flags]   google-benchmark timings (default)
//   perf_serve --json[=PATH]    one instrumented ingest, then kSamples
//                               paired cold/warm ranks emitted as a run
//                               manifest (phases serve_ingest / rank_cold /
//                               rank_warmup / rank_warm) — the generator
//                               for BENCH_serve.json. Exits nonzero when
//                               any warm answer differs from the cold
//                               CLI's or the median paired warm speedup
//                               falls under 5x: the bench doubles as the
//                               parity-and-payoff gate for the serve
//                               subsystem.
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "apps/oddeven.hpp"
#include "apps/runner.hpp"
#include "cli/args.hpp"
#include "cli/load.hpp"
#include "cli/ops.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/selftrace.hpp"
#include "obs/span.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"

using namespace difftrace;

namespace {

struct StorePair {
  trace::TraceStore normal;
  trace::TraceStore faulty;
};

StorePair make_pair() {
  const auto collect = [](apps::FaultSpec fault) {
    apps::OddEvenConfig config;
    config.nranks = 32;
    config.elements_per_rank = 2048;
    config.fault = fault;
    simmpi::WorldConfig world;
    world.nranks = 32;
    return apps::run_traced(world,
                            [config](simmpi::Comm& c) { apps::odd_even_rank(c, config); })
        .store;
  };
  return {collect({}), collect({apps::FaultType::SwapBug, 5, -1, 7})};
}

/// A wide sweep (every stock filter): the interactive shape serve exists
/// for, and enough per-cell work that cold cost is decode + real analysis.
/// Serial on both sides, so the cold/warm ratio measures the serve path and
/// not the cores the host leaves free.
const std::vector<std::string>& rank_opts() {
  static const std::vector<std::string> opts = {"--filters=mpiall,mpisr,mpicol,all,mem,omp",
                                                "--jobs=1"};
  return opts;
}

/// The same adapter wiring cli/serve_cmd.cpp installs: the daemon answers
/// with the cold CLI's own command bodies, so the bench exercises the real
/// parity contract, not a stand-in.
serve::QueryOps cli_ops() {
  serve::QueryOps ops;
  ops.load_archive = [](const std::string& path, std::ostream& chatter) {
    auto loaded = cli::load_tolerant(path, chatter);
    return serve::LoadedArchive{std::move(loaded.store), loaded.salvaged};
  };
  ops.rank = [](const trace::TraceStore& normal, const trace::TraceStore& faulty,
                const std::vector<std::string>& opts, sched::Cache* cache, std::ostream& out,
                std::ostream& chatter) {
    return cli::rank_stores(normal, faulty, cli::Args(opts), cache, out, chatter);
  };
  ops.check = [](const trace::TraceStore& store, const std::string& label,
                 const std::vector<std::string>& opts, const std::string& default_cache_dir,
                 std::ostream& out, std::ostream& chatter) {
    return cli::check_store(store, label, cli::Args(opts), default_cache_dir, out, chatter);
  };
  ops.make_session = [](const trace::TraceStore& normal, const trace::TraceStore& faulty,
                        const std::vector<std::string>& opts) {
    return cli::make_session(normal, faulty, cli::Args(opts));
  };
  ops.diff = [](const core::Session& session, const std::string& trace,
                const std::vector<std::string>& opts, std::ostream& out) {
    return cli::render_diffnlr(session, trace, cli::Args(opts), out);
  };
  return ops;
}

/// Scratch directory for archives + the daemon store.
struct BenchDir {
  std::filesystem::path path;
  BenchDir() {
    path = std::filesystem::temp_directory_path() /
           ("difftrace-perf-serve-" + std::to_string(::getpid()));
    std::filesystem::create_directories(path);
  }
  ~BenchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

serve::Request rank_request(const char* id) {
  serve::Request req;
  req.op = "rank";
  req.request_id = id;
  req.normal = "normal";
  req.faulty = "faulty";
  req.opts = rank_opts();
  return req;
}

// --- google-benchmark mode ---------------------------------------------------

void BM_ProtocolRoundTrip(benchmark::State& state) {
  serve::Response resp;
  resp.request_id = "q1";
  resp.op = "rank";
  resp.command = {"rank", "normal", "faulty", "--filters=mpiall,mpisr"};
  resp.output = std::string(4096, 'x');
  resp.chatter = "[degraded] trace 5.0: tail lost\n";
  for (auto _ : state) {
    std::ostringstream framed;
    serve::write_response(framed, resp);
    auto back = serve::parse_response(framed.str());
    benchmark::DoNotOptimize(back);
  }
}
BENCHMARK(BM_ProtocolRoundTrip);

void BM_WarmRank(benchmark::State& state) {
  BenchDir dir;
  const auto pair = make_pair();
  pair.normal.save((dir.path / "normal.dtrc").string());
  pair.faulty.save((dir.path / "faulty.dtrc").string());

  std::ostringstream log;
  serve::Service service({.store_root = dir.path / "store", .hot_capacity = 8}, cli_ops(), log);
  for (const char* name : {"normal", "faulty"}) {
    serve::Request ingest;
    ingest.op = "ingest";
    ingest.request_id = name;
    ingest.path = (dir.path / (std::string(name) + ".dtrc")).string();
    ingest.name = name;
    if (service.handle(ingest).status != "ok") {
      state.SkipWithError("ingest failed");
      return;
    }
  }
  (void)service.handle(rank_request("warmup"));
  for (auto _ : state) {
    auto resp = service.handle(rank_request("timed"));
    benchmark::DoNotOptimize(resp);
  }
}
BENCHMARK(BM_WarmRank)->Unit(benchmark::kMillisecond);

// --- manifest mode (--json) --------------------------------------------------

std::uint64_t elapsed_ns(const std::chrono::steady_clock::time_point start) {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now() - start)
                                        .count());
}

/// One instrumented cold-vs-warm run: ingest the pair into a fresh service
/// and warm it up, then take kSamples pairs of (cold CLI rank: tolerant load
/// + rank, no cache; warm served rank). Emits a run manifest; nonzero exit
/// on any answer mismatch or a median paired speedup under the gate.
int run_manifest_mode(const std::vector<std::string>& command, const std::string& json_path,
                      const std::string& selftrace_path) {
  constexpr double kMinSpeedup = 5.0;
  constexpr int kSamples = 5;
  obs::MetricsRegistry::instance().reset();
  obs::PhaseTable::instance().reset();
  if (!selftrace_path.empty()) obs::SelfTrace::instance().start();

  BenchDir dir;
  bool failed = false;
  std::vector<double> speedups;
  {
    obs::Span span_root("perf_serve");
    std::string normal_path;
    std::string faulty_path;
    {
      obs::Span span_make("synthesize");
      const auto pair = make_pair();
      normal_path = (dir.path / "normal.dtrc").string();
      faulty_path = (dir.path / "faulty.dtrc").string();
      pair.normal.save(normal_path);
      pair.faulty.save(faulty_path);
    }

    std::ostringstream log;
    serve::Service service({.store_root = dir.path / "store", .hot_capacity = 8}, cli_ops(),
                           log);
    {
      obs::Span span_ingest("serve_ingest");
      for (const auto& [name, path] :
           {std::pair<std::string, std::string>{"normal", normal_path}, {"faulty", faulty_path}}) {
        serve::Request ingest;
        ingest.op = "ingest";
        ingest.request_id = name;
        ingest.path = path;
        ingest.name = name;
        const auto resp = service.handle(ingest);
        if (resp.status != "ok") {
          std::cerr << "perf_serve: ingest " << name << " failed: " << resp.error << "\n";
          failed = true;
        }
      }
    }
    {
      obs::Span span_warmup("rank_warmup");
      const auto resp = service.handle(rank_request("warmup"));
      if (resp.status != "ok") {
        std::cerr << "perf_serve: warm-up rank failed: " << resp.error << "\n";
        failed = true;
      }
    }

    for (int sample = 0; sample < kSamples; ++sample) {
      // Cold truth: exactly what `difftrace rank normal.dtrc faulty.dtrc`
      // runs — tolerant load of both archives plus the sweep, no cache.
      std::string cold_output;
      std::uint64_t cold_ns = 0;
      {
        obs::Span span_cold("rank_cold");
        const auto start = std::chrono::steady_clock::now();
        std::ostringstream out, chatter;
        auto normal = cli::load_tolerant(normal_path, chatter);
        auto faulty = cli::load_tolerant(faulty_path, chatter);
        if (cli::rank_stores(normal.store, faulty.store, cli::Args(rank_opts()), nullptr, out,
                             chatter) != 0) {
          std::cerr << "perf_serve: cold rank failed\n";
          failed = true;
        }
        cold_ns = elapsed_ns(start);
        cold_output = out.str();
      }
      {
        obs::Span span_warm("rank_warm");
        const auto start = std::chrono::steady_clock::now();
        const auto resp = service.handle(rank_request("timed"));
        const auto warm_ns = elapsed_ns(start);
        if (resp.status != "ok") {
          std::cerr << "perf_serve: warm rank failed: " << resp.error << "\n";
          failed = true;
        } else if (resp.output != cold_output) {
          std::cerr << "perf_serve: warm answer " << sample << " differs from the cold CLI's\n";
          failed = true;
        }
        speedups.push_back(warm_ns == 0 ? 0.0
                                        : static_cast<double>(cold_ns) /
                                              static_cast<double>(warm_ns));
      }
    }
  }

  std::sort(speedups.begin(), speedups.end());
  const double speedup = speedups[speedups.size() / 2];
  std::cerr << "[perf_serve] median paired warm speedup " << speedup << "x (" << speedups.front()
            << "x .. " << speedups.back() << "x over " << speedups.size() << " samples)\n";
  if (!failed && speedup < kMinSpeedup) {
    std::cerr << "perf_serve: median warm speedup " << speedup << "x under the " << kMinSpeedup
              << "x gate\n";
    failed = true;
  }

  auto manifest = obs::collect_manifest(command, {}, failed ? 1 : 0);
  if (!selftrace_path.empty()) {
    const auto self_store = obs::SelfTrace::instance().stop();
    self_store.save(selftrace_path);
    std::cerr << "[self-trace] " << self_store.size() << " stream(s) written to "
              << selftrace_path << "\n";
    manifest.self_trace = selftrace_path;
  }
  if (json_path.empty()) {
    manifest.write_json(std::cout);
    std::cout << "\n";
  } else {
    std::ofstream file(json_path);
    if (!file) {
      std::cerr << "perf_serve: cannot write '" << json_path << "'\n";
      return 1;
    }
    manifest.write_json(file);
    file << "\n";
    std::cerr << "[stats] manifest written to " << json_path << "\n";
  }
  return failed ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool want_json = false;
  std::string json_path;
  std::string selftrace_path;
  std::vector<char*> bench_argv;
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--json") {
      want_json = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      want_json = true;
      json_path = arg.substr(7);
    } else if (arg == "--self-trace") {
      selftrace_path = "perf_serve.selftrace.dtrc";
    } else if (arg.rfind("--self-trace=", 0) == 0) {
      selftrace_path = arg.substr(13);
    } else {
      bench_argv.push_back(argv[i]);
    }
  }
  if (want_json)
    return run_manifest_mode({bench_argv.empty() ? "perf_serve" : bench_argv[0], "--json"},
                             json_path, selftrace_path);

  int bench_argc = static_cast<int>(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_argv.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
