// Workload table, host detection, archive synthesis on disk, reference
// answers, and the in-process daemon.
#include <sched.h>

#include <algorithm>
#include <stdexcept>

#include "bench.hpp"
#include "cli/args.hpp"
#include "cli/load.hpp"
#include "cli/ops.hpp"
#include "sched/pool.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "tracer.hpp"

namespace e2ebench {

namespace cli = difftrace::cli;
namespace serve = difftrace::serve;

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> table = [] {
    std::vector<Workload> w(2);
    // Long, loop-heavy traces of 8 ranks x (main + worker); one rank hangs.
    w[0].name = "triage-long";
    w[0].shape = {.ranks = 8, .threads = 2, .timesteps = 48, .phases = 3, .inner = 12,
                  .vocab = 24, .regularity = 0.97, .fault = FaultKind::Hang, .fault_ranks = 1};
    w[0].resident_pairs = 1;
    w[0].fresh_pairs = 32;
    w[0].triage_share = 0.55;
    // Small pairs, most of the run spent on the daemon.
    w[1].name = "serve-mixed";
    w[1].shape = {.ranks = 8, .threads = 2, .timesteps = 12, .phases = 3, .inner = 6,
                  .vocab = 32, .regularity = 0.9, .fault = FaultKind::Hang, .fault_ranks = 2};
    w[1].resident_pairs = 3;
    w[1].fresh_pairs = 40;
    w[1].triage_share = 0.2;
    return w;
  }();
  return table;
}

Env detect_env() {
  Env env;
  // CPUs this process may run on (as `nproc` reports), which a cpuset or
  // taskset can make fewer than the machine has.
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  env.nproc = sched_getaffinity(0, sizeof cpus, &cpus) == 0
                  ? static_cast<std::size_t>(std::max(1, CPU_COUNT(&cpus)))
                  : difftrace::sched::hardware_jobs();
  env.triage_jobs = env.nproc;
  // Closed-loop clients plus the daemon's busy workers never exceed nproc:
  // two clients, each served by one connection worker that runs its query
  // serially. Parallel served ranks made the serve metrics swing with the
  // cores a shared host happened to leave free. One core: one client,
  // daemon served inline.
  env.clients = env.nproc >= 2 ? 2 : 1;
  env.server_jobs = env.nproc >= 2 ? env.clients + 1 : 1;
  env.query_jobs = 1;
  return env;
}

double Samples::sum() const {
  double total = 0.0;
  for (const auto v : ms_) total += v;
  return total;
}

double Samples::quantile(double q) const {
  if (ms_.empty()) return 0.0;
  auto sorted = ms_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

std::uint64_t fnv1a(const std::string& s, std::uint64_t h) {
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

namespace {

/// Runs a cli body, turning a usage error into the protocol's typed error —
/// the same translation `difftrace serve` applies.
template <typename Fn>
auto guard_usage(Fn&& fn) -> decltype(fn()) {
  try {
    return fn();
  } catch (const cli::ArgError& e) {
    throw serve::OpError(2, e.what());
  }
}

/// The adapters `difftrace serve` installs: the daemon answers with the cold
/// CLI's own command bodies.
serve::QueryOps query_ops() {
  serve::QueryOps ops;
  ops.load_archive = [](const std::string& path, std::ostream& chatter) {
    return guard_usage([&] {
      auto loaded = cli::load_tolerant(path, chatter);
      return serve::LoadedArchive{std::move(loaded.store), loaded.salvaged};
    });
  };
  ops.rank = [](const trace::TraceStore& normal, const trace::TraceStore& faulty,
                const std::vector<std::string>& opts, difftrace::sched::Cache* cache,
                std::ostream& out, std::ostream& chatter) {
    return guard_usage(
        [&] { return cli::rank_stores(normal, faulty, cli::Args(opts), cache, out, chatter); });
  };
  ops.check = [](const trace::TraceStore& store, const std::string& label,
                 const std::vector<std::string>& opts, const std::string& default_cache_dir,
                 std::ostream& out, std::ostream& chatter) {
    return guard_usage([&] {
      return cli::check_store(store, label, cli::Args(opts), default_cache_dir, out, chatter);
    });
  };
  ops.make_session = [](const trace::TraceStore& normal, const trace::TraceStore& faulty,
                        const std::vector<std::string>& opts) {
    return guard_usage([&] { return cli::make_session(normal, faulty, cli::Args(opts)); });
  };
  ops.diff = [](const difftrace::core::Session& session, const std::string& trace_label,
                const std::vector<std::string>& opts, std::ostream& out) {
    return guard_usage(
        [&] { return cli::render_diffnlr(session, trace_label, cli::Args(opts), out); });
  };
  return ops;
}

PairFiles save_pair(const Shape& shape, std::uint64_t seed, const fs::path& dir,
                    const std::string& name, InputStats& stats) {
  const auto pair = synthesize(shape, seed);
  PairFiles files;
  files.name = name;
  files.normal = dir / (name + "-normal.dtr");
  files.faulty = dir / (name + "-faulty.dtr");
  pair.normal.save(files.normal);
  pair.faulty.save(files.faulty);
  stats.add(pair.normal);
  stats.add(pair.faulty);
  files.events = pair.normal.stats().total_events + pair.faulty.stats().total_events;
  files.bytes = fs::file_size(files.normal) + fs::file_size(files.faulty);
  return files;
}

std::string consensus_of(const std::string& rank_output) {
  static const std::string kMarker = "consensus suspicious trace:";
  const auto at = rank_output.find(kMarker);
  if (at == std::string::npos) return "0.0";
  auto begin = rank_output.find_first_not_of(' ', at + kMarker.size());
  const auto end = rank_output.find('\n', begin);
  auto label = rank_output.substr(begin, end - begin);
  return label.empty() ? "0.0" : label;
}

void expect_ok(const serve::Response& resp, const std::string& what) {
  if (resp.status != "ok")
    throw std::runtime_error("set-up " + what + " failed: " + resp.error);
}

}  // namespace

std::vector<std::string> served_rank_opts(const Env& env) {
  return {std::string("--filters=") + kFilters, "--jobs=" + std::to_string(env.query_jobs)};
}

void synthesize_inputs(const Workload& w, std::uint64_t seed, Inputs& in) {
  const auto dir = in.dir / "archives";
  fs::create_directories(dir);
  for (int k = 0; k < w.resident_pairs; ++k) {
    auto shape = w.shape;
    // Resident pairs alternate the fault kind so the daemon holds both.
    if (k % 2 == 1) shape.fault = shape.fault == FaultKind::Hang ? FaultKind::WrongOp : FaultKind::Hang;
    in.resident.push_back(save_pair(shape, stream_seed(seed, 10, static_cast<std::uint64_t>(k)), dir,
                                    "p" + std::to_string(k), in.stats));
  }
  for (int k = 0; k < w.fresh_pairs; ++k)
    in.fresh.push_back(save_pair(w.shape, stream_seed(seed, 11, static_cast<std::uint64_t>(k)), dir,
                                 "f" + std::to_string(k), in.stats));
}

std::string reference_rank(const PairFiles& pair, std::size_t jobs) {
  std::ostringstream out, chatter;
  const auto normal = cli::load_tolerant(pair.normal.string(), chatter).store;
  const auto faulty = cli::load_tolerant(pair.faulty.string(), chatter).store;
  cli::rank_stores(normal, faulty,
                   cli::Args({std::string("--filters=") + kFilters, "--jobs=" + std::to_string(jobs)}),
                   nullptr, out, chatter);
  return out.str();
}

PairRefs make_refs(const PairFiles& pair) {
  PairRefs refs;
  std::ostringstream chatter;
  const auto normal = cli::load_tolerant(pair.normal.string(), chatter).store;
  const auto faulty = cli::load_tolerant(pair.faulty.string(), chatter).store;
  refs.rank = reference_rank(pair, 1);
  refs.consensus = consensus_of(refs.rank);
  const cli::Args none(std::vector<std::string>{});
  {
    std::ostringstream out;
    cli::check_store(faulty, pair.name + "f", none, "", out, chatter);
    refs.check_faulty = out.str();
  }
  {
    std::ostringstream out;
    const auto session = cli::make_session(normal, faulty, none);
    cli::render_diffnlr(*session, refs.consensus, none, out);
    refs.diff = out.str();
  }
  return refs;
}

Daemon::Daemon(const fs::path& store_root, const std::string& socket_path, std::size_t server_jobs)
    : store_root_(store_root), socket_path_(socket_path) {
  service_ = std::make_unique<serve::Service>(
      serve::ServiceConfig{.store_root = store_root, .hot_capacity = 8}, query_ops(), log_);
  listener_ = std::make_unique<serve::Listener>(socket_path);
  serve::ServerConfig config;
  config.jobs = server_jobs;
  config.idle_timeout_ms = 0;
  thread_ = std::thread([this, config] {
    try {
      serve::run_server(*service_, *listener_, config, log_);
    } catch (const std::exception& e) {
      log_ << "[e2ebench] daemon stopped: " << e.what() << "\n";
    }
  });
}

Daemon::~Daemon() {
  service_->request_shutdown();
  if (thread_.joinable()) thread_.join();
}

std::uint64_t round_trip(serve::Socket& conn, const serve::Request& req, serve::Response& resp) {
  std::ostringstream framed;
  serve::write_request(framed, req);
  const auto line_out = framed.str();
  std::string line;
  const auto start = now_ns();
  conn.send_all(line_out);
  if (conn.recv_line(line) != serve::Socket::RecvStatus::Line)
    throw std::runtime_error("daemon gave no response to '" + req.op + "'");
  const auto elapsed = now_ns() - start;
  resp = serve::parse_response(line);
  return elapsed;
}

void start_daemon(const Env& env, Inputs& in) {
  // Relative to the working directory: a unix socket path must fit in 108
  // bytes, however deep the checkout is.
  const auto socket = fs::proximate(in.dir / "d.sock").string();
  in.daemon = std::make_unique<Daemon>(in.dir / "store", socket, env.server_jobs);
  auto conn = serve::connect_with_retry(in.daemon->socket_path(), 20, 10);
  conn.set_recv_timeout_ms(120'000);
  serve::Response resp;
  for (const auto& pair : in.resident) {
    for (const auto& [path, run] : {std::pair{pair.normal, pair.name + "n"},
                                    std::pair{pair.faulty, pair.name + "f"}}) {
      serve::Request ingest{.op = "ingest", .request_id = "setup", .path = path.string(), .name = run};
      (void)round_trip(conn, ingest, resp);
      expect_ok(resp, "ingest " + run);
    }
  }
  // Warm-up: one rank and one diff per resident pair fill the artifact
  // cache and pin the sessions the repeated queries then hit.
  for (std::size_t k = 0; k < in.resident.size(); ++k) {
    const auto& pair = in.resident[k];
    serve::Request rank{.op = "rank", .request_id = "setup", .normal = pair.name + "n",
                        .faulty = pair.name + "f", .opts = served_rank_opts(env)};
    (void)round_trip(conn, rank, resp);
    expect_ok(resp, "rank " + pair.name);
    serve::Request diff{.op = "diff", .request_id = "setup", .normal = pair.name + "n",
                        .faulty = pair.name + "f", .trace = in.refs.at(k).consensus};
    (void)round_trip(conn, diff, resp);
    expect_ok(resp, "diff " + pair.name);
  }
}

}  // namespace e2ebench
