// Shared types of the end-to-end benchmark: workloads, inputs on disk,
// reference outputs, latency samples, and the in-process serve daemon.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "serve/service.hpp"
#include "serve/socket.hpp"
#include "synth.hpp"

namespace e2ebench {

namespace fs = std::filesystem;

/// One named input family plus the share of the run each path gets. Every
/// run drives both user paths over the workload's own archives: the one-shot
/// CLI triage (rank, check, diffnlr) and the resident daemon over its socket.
struct Workload {
  std::string name;
  Shape shape;
  int resident_pairs = 1;  // ingested at set-up; pair 0 is also the triage pair
  int fresh_pairs = 20;    // ingested on the write schedule during the run
  double triage_share = 0.5;  // fraction of --seconds spent in the triage phase
};

[[nodiscard]] const std::vector<Workload>& workloads();

/// Host facts every result carries.
struct Env {
  std::size_t nproc = 1;
  std::size_t triage_jobs = 1;  // --jobs of the timed one-shot rank
  std::size_t clients = 1;      // closed-loop serve clients
  std::size_t server_jobs = 1;  // daemon connection workers + accept thread
  std::size_t query_jobs = 1;   // --jobs each served rank runs with
};

[[nodiscard]] Env detect_env();

/// The filter sweep every rank (CLI and served) runs.
inline constexpr const char* kFilters = "mpiall,mpisr,mpicol,all,mem,omp";

/// Archives of one normal/faulty pair on disk.
struct PairFiles {
  std::string name;  // run-name prefix: runs are "<name>n" / "<name>f"
  fs::path normal;
  fs::path faulty;
  std::uint64_t events = 0;  // both runs
  std::uint64_t bytes = 0;   // both archives on disk
};

/// Reference answers of one pair, made by the jobs=1, no-cache CLI bodies.
struct PairRefs {
  std::string rank;
  std::string check_faulty;  // labelled with the serve run name
  std::string consensus;     // trace diffnlr looks at
  std::string diff;
};

/// Wall-clock latency samples in milliseconds.
class Samples {
 public:
  void add_ns(std::uint64_t ns) { ms_.push_back(static_cast<double>(ns) / 1e6); }
  void add_ms(double ms) { ms_.push_back(ms); }
  void merge(const Samples& other) { ms_.insert(ms_.end(), other.ms_.begin(), other.ms_.end()); }
  [[nodiscard]] std::size_t size() const noexcept { return ms_.size(); }
  [[nodiscard]] double sum() const;
  /// Linear-interpolated quantile, q in [0, 1]; 0 when empty.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double median() const { return quantile(0.5); }

 private:
  std::vector<double> ms_;
};

/// Operations attempted and failed (errors, busy answers, wrong outputs).
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void merge(const Tally& other) {
    attempted += other.attempted;
    failed += other.failed;
  }
};

/// A metric as printed: value plus unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// The daemon, in this process, reached over its real unix socket: a
/// serve::Service behind serve::run_server on its own thread, with the same
/// cli-body adapters `difftrace serve` installs.
class Daemon {
 public:
  Daemon(const fs::path& store_root, const std::string& socket_path, std::size_t server_jobs);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] difftrace::serve::Service& service() { return *service_; }
  [[nodiscard]] const std::string& socket_path() const noexcept { return socket_path_; }
  [[nodiscard]] fs::path cache_dir() const { return store_root_ / "cache"; }

 private:
  fs::path store_root_;
  std::string socket_path_;
  std::ostringstream log_;
  std::unique_ptr<difftrace::serve::Service> service_;
  std::unique_ptr<difftrace::serve::Listener> listener_;
  std::thread thread_;  // declared last: joins before the members it uses die
};

/// One request/response exchange on an open connection. Returns the round
/// trip in ns (send to full response line) and fills `resp`.
std::uint64_t round_trip(difftrace::serve::Socket& conn, const difftrace::serve::Request& req,
                         difftrace::serve::Response& resp);

/// Options every served rank carries: the filter sweep and its job count.
[[nodiscard]] std::vector<std::string> served_rank_opts(const Env& env);

/// Everything set-up produced: archives, their references, and the daemon.
struct Inputs {
  fs::path dir;
  std::vector<PairFiles> resident;
  std::vector<PairFiles> fresh;
  std::vector<PairRefs> refs;  // parallel to `resident`
  InputStats stats;            // resident + fresh archives
  std::unique_ptr<Daemon> daemon;
};

/// Writes every archive of `w` under `dir`; fills `resident`, `fresh`, `stats`.
void synthesize_inputs(const Workload& w, std::uint64_t seed, Inputs& in);

/// Starts the daemon, ingests the resident pairs, and warms them up (one
/// rank and one diff each) over the socket. Needs the references.
void start_daemon(const Env& env, Inputs& in);

/// Reference answers of one pair (jobs=1, no cache).
[[nodiscard]] PairRefs make_refs(const PairFiles& pair);

/// Cold CLI rank output of a pair: no cache, at `jobs`.
[[nodiscard]] std::string reference_rank(const PairFiles& pair, std::size_t jobs);

/// FNV-1a over a string, continuing from `h`.
[[nodiscard]] std::uint64_t fnv1a(const std::string& s, std::uint64_t h = 0xcbf29ce484222325ULL);

}  // namespace e2ebench
