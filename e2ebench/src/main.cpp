// e2ebench: DiffTrace's end-to-end benchmark.
//
//   e2ebench --workload NAME --seed N --seconds S --trace 0|1 [--work DIR]
//
// Synthesizes the workload's archives from the seed (three times: set-up is
// timed, and the copies must be byte-identical), then spends the run on the
// one-shot CLI triage and on the resident daemon, alternating in slices. --trace 0 prints
// the end-to-end metrics, --trace 1 the per-layer metrics from spans. Every
// output is compared with a reference; the last stdout line is the result:
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
// The exit code is 0 when every output matched, 1 otherwise, 2 on usage
// errors and 3 when the build is not optimized.
#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <iterator>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "serve_phase.hpp"
#include "tracer.hpp"
#include "triage.hpp"
#include "util/json.hpp"

namespace e2ebench {
namespace {

#ifndef E2EBENCH_OPT_FLAGS
#define E2EBENCH_OPT_FLAGS "unknown"
#endif

constexpr int kSetups = 3;
constexpr double kSliceSeconds = 5.0;
constexpr std::size_t kMinTriages = 100;
// Largest median share of a traced rank/check/diffnlr left outside its
// layer spans.
constexpr double kMaxSelfShare = 0.1;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  fs::path work = ".bench_build/work";
};

Options parse_options(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value after " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      opt.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (arg == "--trace") {
      opt.trace = value == "1";
    } else if (arg == "--work") {
      opt.work = value;
    } else {
      throw std::invalid_argument("unknown option " + arg);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(opt.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  return opt;
}

/// Removes the run's scratch directory however the run ends.
struct WorkDir {
  fs::path path;
  explicit WorkDir(fs::path p) : path(std::move(p)) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~WorkDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;
};

/// Writes back the checkout filesystem's dirty pages, so earlier file
/// traffic does not land inside a timed window.
void flush_filesystem(const fs::path& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  (void)::syncfs(fd);
  ::close(fd);
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

bool same_archives(const Inputs& a, const Inputs& b) {
  const auto files = [](const Inputs& in) {
    std::vector<fs::path> out;
    for (const auto* set : {&in.resident, &in.fresh})
      for (const auto& pair : *set) {
        out.push_back(pair.normal);
        out.push_back(pair.faulty);
      }
    return out;
  };
  const auto fa = files(a);
  const auto fb = files(b);
  if (fa.size() != fb.size()) return false;
  for (std::size_t i = 0; i < fa.size(); ++i)
    if (read_file(fa[i]) != read_file(fb[i])) return false;
  return true;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void print_env(const Options& opt, const Env& env, const Inputs& in, bool identical) {
  const auto& triage = in.resident.front();
  difftrace::util::JsonWriter json(std::cout, /*indent=*/-1);
  json.begin_object();
  json.key("env");
  json.begin_object();
  json.field("workload", opt.workload);
  json.field("seed", opt.seed);
  json.field("seconds", opt.seconds);
  json.field("trace", opt.trace);
  json.field("nproc", static_cast<std::uint64_t>(env.nproc));
  json.field("triage_jobs", static_cast<std::uint64_t>(env.triage_jobs));
  json.field("clients", static_cast<std::uint64_t>(env.clients));
  json.field("server_jobs", static_cast<std::uint64_t>(env.server_jobs));
  json.field("query_jobs", static_cast<std::uint64_t>(env.query_jobs));
  json.field("compiler", __VERSION__);
  json.field("optimization", E2EBENCH_OPT_FLAGS);
  json.end_object();
  json.key("inputs");
  json.begin_object();
  json.field("triage_pair_events", triage.events);
  json.field("triage_pair_bytes", triage.bytes);
  json.field("resident_pairs", static_cast<std::uint64_t>(in.resident.size()));
  json.field("fresh_pairs", static_cast<std::uint64_t>(in.fresh.size()));
  json.field("traces", in.stats.traces);
  json.field("events", in.stats.events);
  json.field("compressed_bytes", in.stats.compressed_bytes);
  json.field("distinct_functions", in.stats.distinct_functions);
  json.field("compression_ratio", in.stats.compression_ratio());
  json.field("byte_identical_archives", identical);
  json.end_object();
  json.end_object();
  std::cout << "\n";
}

/// Percentiles with fewer than ten samples beyond them are flagged.
void print_samples(const TriageResult& tri, const ServeResult& srv) {
  difftrace::util::JsonWriter json(std::cout, /*indent=*/-1);
  json.begin_object();
  json.key("samples");
  json.begin_object();
  json.field("rank", static_cast<std::uint64_t>(tri.rank.size()));
  json.field("check", static_cast<std::uint64_t>(tri.check.size()));
  json.field("diffnlr", static_cast<std::uint64_t>(tri.diffnlr.size()));
  json.field("warm_query", static_cast<std::uint64_t>(srv.warm.size()));
  json.field("cold_rank", static_cast<std::uint64_t>(srv.cold_rank.size()));
  json.field("ingest", static_cast<std::uint64_t>(srv.ingest.size()));
  json.field("p90_supported", tri.rank.size() >= 100 && tri.check.size() >= 100 &&
                                  tri.diffnlr.size() >= 100);
  json.field("warm_p90_supported", srv.warm.size() >= 100);
  json.end_object();
  json.key("quantiles_ms");
  json.begin_object();
  for (const auto& [name, samples] : {std::pair<const char*, const Samples*>{"rank", &tri.rank},
                                      {"warm", &srv.warm},
                                      {"cold_rank", &srv.cold_rank}}) {
    json.key(name);
    json.begin_array();
    for (const double q : {0.25, 0.5, 0.75, 0.9, 0.95, 0.99}) json.value(samples->quantile(q));
    json.end_array();
  }
  json.end_object();
  json.key("warm_ms_by_op");
  json.begin_object();
  for (const auto& [op, samples] : srv.warm_by_op) {
    json.key(op);
    json.begin_object();
    json.field("n", static_cast<std::uint64_t>(samples.size()));
    json.field("p50", samples.quantile(0.5));
    json.field("p99", samples.quantile(0.99));
    json.end_object();
  }
  json.end_object();
  json.end_object();
  std::cout << "\n";
}

int run(const Options& opt) {
  const Workload* workload = nullptr;
  for (const auto& w : workloads())
    if (w.name == opt.workload) workload = &w;
  if (workload == nullptr) {
    std::cerr << "e2ebench: unknown workload '" << opt.workload << "'\n";
    return 2;
  }
  const auto env = detect_env();
  const WorkDir work(opt.work / (opt.workload + "-" + std::to_string(::getpid())));

  // Set-up, several times: synthesize + save every archive, start the
  // daemon, ingest and warm the resident pairs. Reported as the median.
  Samples setup;
  bool identical = true;
  std::vector<PairRefs> refs;
  std::unique_ptr<Inputs> in;
  for (int k = 0; k < kSetups; ++k) {
    flush_filesystem(work.path);
    auto cur = std::make_unique<Inputs>();
    cur->dir = work.path / ("s" + std::to_string(k));
    const auto t0 = now_ns();
    synthesize_inputs(*workload, opt.seed, *cur);
    const auto synth_ns = now_ns() - t0;
    // References are verification, not set-up: made once, untimed.
    if (refs.empty())
      for (const auto& pair : cur->resident) refs.push_back(make_refs(pair));
    cur->refs = refs;
    if (in) {
      identical = identical && same_archives(*in, *cur);
      in->daemon.reset();
      fs::remove_all(in->dir);
    }
    const auto t1 = now_ns();
    start_daemon(env, *cur);
    setup.add_ns(synth_ns + (now_ns() - t1));
    in = std::move(cur);
  }
  print_env(opt, env, *in, identical);
  flush_filesystem(work.path);

  Tally tally;
  tally.check(identical);
  Metrics metrics;
  const double triage_s = opt.seconds * workload->triage_share;
  const double serve_s = opt.seconds - triage_s;
  if (!opt.trace) {
    // The host's speed drifts over tens of seconds, so the two phases
    // alternate in short slices and every metric spans the whole run.
    const auto slices = std::max<std::size_t>(1, static_cast<std::size_t>(std::lround(opt.seconds / kSliceSeconds)));
    TriageResult tri;
    ServeResult srv;
    const auto fresh = in->fresh.size();
    for (std::size_t s = 0; s < slices; ++s) {
      run_triage(env, in->resident.front(), in->refs.front(), triage_s / static_cast<double>(slices), tri);
      run_serve(env, *in, serve_s / static_cast<double>(slices), stream_seed(opt.seed, 30, s),
                fresh * s / slices, fresh * (s + 1) / slices, srv, nullptr);
      // The slice's cache files would otherwise be written back during
      // the next triage slice, whose rank needs every core.
      flush_filesystem(work.path);
    }
    // A p90 needs ten samples beyond it; a slow host gets extra triages.
    while (tri.rank.size() < kMinTriages)
      run_triage(env, in->resident.front(), in->refs.front(), 0.0, tri);
    verify_cold(env, *in, srv);
    tally.merge(tri.tally);
    tally.merge(srv.tally);
    print_samples(tri, srv);
    const double triage_wall_s = (tri.rank.sum() + tri.check.sum() + tri.diffnlr.sum()) / 1e3;
    metrics["rank_ms_p50"] = {tri.rank.quantile(0.5), "ms"};
    metrics["check_ms_p50"] = {tri.check.quantile(0.5), "ms"};
    metrics["check_ms_p90"] = {tri.check.quantile(0.9), "ms"};
    metrics["diffnlr_ms_p50"] = {tri.diffnlr.quantile(0.5), "ms"};
    metrics["diffnlr_ms_p90"] = {tri.diffnlr.quantile(0.9), "ms"};
    metrics["triage_events_per_s"] = {static_cast<double>(tri.events) / triage_wall_s, "events/s"};
    metrics["warm_query_ms_p50"] = {srv.warm.quantile(0.5), "ms"};
    metrics["warm_query_ms_p90"] = {srv.warm.quantile(0.9), "ms"};
    metrics["cold_rank_ms_p50"] = {srv.cold_rank.quantile(0.5), "ms"};
    metrics["ingest_ms_p50"] = {srv.ingest.quantile(0.5), "ms"};
    metrics["queries_per_s"] = {srv.read_rate.median(), "req/s"};
    metrics["setup_s"] = {setup.median() / 1e3, "s"};
    metrics["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  } else {
    Tracer tracer;
    std::vector<Tracer> client_tracers(env.clients);
    run_triage_traced(env, in->resident.front(), in->refs.front(), triage_s, in->dir / "fill",
                      tracer, metrics, tally);
    run_serve_traced(env, *in, serve_s, opt.seed, client_tracers, tracer, metrics, tally);
    // Self time and tiling: children plus self must equal every parent.
    auto acc = tracer.account();
    for (auto& t : client_tracers) {
      const auto a = t.account();
      acc.spans += a.spans;
      acc.violations += a.violations;
      acc.max_residual_ns = std::max(acc.max_residual_ns, a.max_residual_ns);
    }
    // Each traced command is all layer calls: time outside its layer spans
    // means a call went untimed.
    double self_share = 0.0;
    for (const char* op : {"rank", "check", "diffnlr"})
      self_share = std::max(self_share, tracer.median_self_share(op));
    tally.check(acc.violations == 0 && acc.max_residual_ns == 0 && self_share <= kMaxSelfShare);
    const auto spans_dir = opt.work.parent_path() / "spans";
    fs::create_directories(spans_dir);
    const auto spans_path =
        spans_dir / (opt.workload + "-seed" + std::to_string(opt.seed) + ".jsonl");
    std::ofstream spans(spans_path);
    tracer.write_jsonl(spans, "main");
    for (std::size_t c = 0; c < client_tracers.size(); ++c)
      client_tracers[c].write_jsonl(spans, "client" + std::to_string(c));
    std::cout << "{\"spans\":{\"count\":" << acc.spans << ",\"violations\":" << acc.violations
              << ",\"max_residual_ns\":" << acc.max_residual_ns
              << ",\"self_share\":" << number(self_share) << ",\"file\":\""
              << spans_path.string() << "\"}}\n";
  }

  // Parent and change must print the same digest for the same seed.
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  for (const auto& r : in->refs)
    for (const auto* s : {&r.rank, &r.check_faulty, &r.diff}) digest = fnv1a(*s, digest);
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(digest));
  const double error_ratio =
      static_cast<double>(tally.failed) / static_cast<double>(std::max<std::uint64_t>(1, tally.attempted));
  std::cout << "{\"output_digest\":\"" << hex << "\",\"error_ratio\":" << number(error_ratio) << "}\n";

  bool finite = true;
  for (const auto& [name, m] : metrics) finite = finite && std::isfinite(m.value);
  const bool correct = tally.failed == 0 && finite;
  std::cout << "{\"correct\":" << (correct ? "true" : "false")
            << ",\"attempted\":" << tally.attempted << ",\"failed\":" << tally.failed
            << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    std::cout << (first ? "" : ",") << "\"" << name << "\":{\"value\":"
              << number(std::isfinite(m.value) ? m.value : 0.0) << ",\"unit\":\"" << m.unit
              << "\"}";
    first = false;
  }
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
#ifndef __OPTIMIZE__
  std::cerr << "e2ebench: refusing to report numbers from an unoptimized build\n";
  return 3;
#endif
  e2ebench::Options opt;
  try {
    opt = e2ebench::parse_options(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "e2ebench: " << e.what()
              << "\nusage: e2ebench --workload NAME --seed N --seconds S --trace 0|1 [--work DIR]\n";
    return 2;
  }
  try {
    return e2ebench::run(opt);
  } catch (const std::exception& e) {
    std::cerr << "e2ebench: " << e.what() << "\n";
    return 1;
  }
}
