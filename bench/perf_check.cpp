// Semantic-verifier throughput: `difftrace check` is an offline pass over
// whole archives, so its cost is measured in events/sec — context build
// (tolerant decode + stack walk + blocked classification) plus the three
// checkers over a synthetic job with realistic call nesting, matched p2p
// traffic, per-iteration collectives, and worker-thread lock activity.
//
// Two modes, like perf_sweep:
//   perf_check [gbench flags]   google-benchmark timings (default)
//   perf_check --json[=PATH]    one instrumented check of a long-iterative
//                               job (phases synthesize / check) emitted as
//                               a run manifest — the generator for
//                               BENCH_check.json.
#include <benchmark/benchmark.h>

#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "analyze/analyze.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/selftrace.hpp"
#include "obs/span.hpp"
#include "trace/store.hpp"
#include "trace/writer.hpp"

using namespace difftrace;

namespace {

/// One rank per proc exchanging ring traffic and joining one allreduce per
/// iteration, plus one worker thread per proc taking a critical section —
/// roughly the op mix an ilcs/lulesh archive carries.
trace::TraceStore make_job(int nranks, std::size_t iterations) {
  trace::TraceStore store;
  const auto main_fn = store.registry().intern("main");
  const auto step = store.registry().intern("step");
  const auto send = store.registry().intern("MPI_Send", trace::Image::MpiLib);
  const auto recv = store.registry().intern("MPI_Recv", trace::Image::MpiLib);
  const auto allreduce = store.registry().intern("MPI_Allreduce", trace::Image::MpiLib);
  const auto crit = store.registry().intern("GOMP_critical_start", trace::Image::OmpLib);

  for (int rank = 0; rank < nranks; ++rank) {
    trace::TraceWriter writer({rank, 0}, "parlot");
    const int right = (rank + 1) % nranks;
    const int left = (rank + nranks - 1) % nranks;
    writer.record(trace::EventKind::Call, main_fn);
    for (std::size_t i = 0; i < iterations; ++i) {
      writer.record(trace::EventKind::Call, step);
      writer.record(trace::EventKind::Call, send);
      writer.annotate({.code = trace::OpCode::SendPost, .peer = right, .tag = 7, .count = 64});
      writer.record(trace::EventKind::Return, send);
      writer.record(trace::EventKind::Call, recv);
      writer.annotate({.code = trace::OpCode::RecvPost, .peer = left, .tag = 7});
      writer.record(trace::EventKind::Return, recv);
      writer.record(trace::EventKind::Call, allreduce);
      writer.annotate({.code = trace::OpCode::CollEnter,
                       .peer = 0,
                       .count = 1,
                       .coll = 3,
                       .dtype = 1,
                       .redop = 1,
                       .detail = "MPI_Allreduce"});
      writer.record(trace::EventKind::Return, allreduce);
      writer.record(trace::EventKind::Return, step);
    }
    writer.record(trace::EventKind::Return, main_fn);
    store.absorb(writer);

    trace::TraceWriter worker({rank, 1}, "parlot");
    worker.record(trace::EventKind::Call, main_fn);
    for (std::size_t i = 0; i < iterations; ++i) {
      worker.record(trace::EventKind::Call, crit);
      worker.annotate({.code = trace::OpCode::LockAcquire, .detail = "champion"});
      worker.annotate({.code = trace::OpCode::LockRelease, .detail = "champion"});
      worker.record(trace::EventKind::Return, crit);
    }
    worker.record(trace::EventKind::Return, main_fn);
    store.absorb(worker);
  }
  return store;
}

std::int64_t total_events(const trace::TraceStore& store) {
  return static_cast<std::int64_t>(store.stats().total_events);
}

/// Full `difftrace check`: context build + all three checkers.
void BM_CheckAll(benchmark::State& state) {
  const auto store = make_job(8, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto report = analyze::run_checks(store);
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(state.iterations() * total_events(store));
}
BENCHMARK(BM_CheckAll)->Arg(1'000)->Arg(10'000);

/// Context build alone (decode + stack walk): the floor any checker pays.
void BM_CheckContextBuild(benchmark::State& state) {
  const auto store = make_job(8, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto ctx = analyze::CheckContext::build(store);
    benchmark::DoNotOptimize(ctx);
  }
  state.SetItemsProcessed(state.iterations() * total_events(store));
}
BENCHMARK(BM_CheckContextBuild)->Arg(1'000)->Arg(10'000);

/// Single-checker costs over a shared store (per-checker marginal price).
void BM_CheckOne(benchmark::State& state, const char* checker) {
  const auto store = make_job(8, 5'000);
  for (auto _ : state) {
    auto report = analyze::run_checks(store, {.checkers = {checker}});
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(state.iterations() * total_events(store));
}
BENCHMARK_CAPTURE(BM_CheckOne, stream, "stream");
BENCHMARK_CAPTURE(BM_CheckOne, mpi, "mpi");
BENCHMARK_CAPTURE(BM_CheckOne, locks, "locks");

/// Scaling in rank count at fixed per-rank work (wait-for graph growth).
void BM_CheckRankScaling(benchmark::State& state) {
  const auto store = make_job(static_cast<int>(state.range(0)), 2'000);
  for (auto _ : state) {
    auto report = analyze::run_checks(store);
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(state.iterations() * total_events(store));
}
BENCHMARK(BM_CheckRankScaling)->Arg(4)->Arg(16)->Arg(64);

// --- manifest mode (--json) --------------------------------------------------

/// One instrumented check of a long-iterative job, emitted as a run
/// manifest (the generator for BENCH_check.json).
int run_manifest_mode(const std::vector<std::string>& command, const std::string& json_path,
                      const std::string& selftrace_path) {
  obs::MetricsRegistry::instance().reset();
  obs::PhaseTable::instance().reset();
  if (!selftrace_path.empty()) obs::SelfTrace::instance().start();
  {
    obs::Span span_root("perf_check");
    trace::TraceStore store;
    {
      obs::Span span_make("synthesize");
      store = make_job(8, 20'000);
    }
    const auto report = analyze::run_checks(store);
    benchmark::DoNotOptimize(report);
  }

  auto manifest = obs::collect_manifest(command, {}, 0);
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
      std::cerr << "perf_check: cannot write '" << json_path << "'\n";
      return 1;
    }
    manifest.write_json(file);
    file << "\n";
    std::cerr << "[stats] manifest written to " << json_path << "\n";
  }
  return 0;
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
      selftrace_path = "perf_check.selftrace.dtrc";
    } else if (arg.rfind("--self-trace=", 0) == 0) {
      selftrace_path = arg.substr(13);
    } else {
      bench_argv.push_back(argv[i]);
    }
  }
  if (want_json)
    return run_manifest_mode({bench_argv.empty() ? "perf_check" : bench_argv[0], "--json"},
                             json_path, selftrace_path);

  int bench_argc = static_cast<int>(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_argv.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
