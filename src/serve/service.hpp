// The serve daemon's brain, independent of any socket: Service turns one
// Request into one Response. Transport (serve/server) and process wiring
// (cli serve command) sit on either side of this class, which makes the
// whole protocol testable in-process with no file descriptors.
//
// Layering rule: src/serve must not depend on src/cli (cli links serve to
// host the commands), yet answers must be byte-identical to the cold CLI.
// The resolution is QueryOps — a bundle of callbacks the CLI layer fills
// with its OWN command bodies (cli::rank_stores, cli::check_store, ...).
// Service contributes what is serve-specific: run-name resolution through
// the shard store, hot pinning of decoded stores and built sessions, the
// resident artifact cache, and the response envelope.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "sched/cache.hpp"
#include "serve/hot_cache.hpp"
#include "serve/protocol.hpp"
#include "serve/shard_store.hpp"
#include "trace/store.hpp"

namespace difftrace::serve {

/// An archive pulled off disk, salvage-tolerantly.
struct LoadedArchive {
  trace::TraceStore store;
  bool salvaged = false;
};

/// The analysis callbacks the hosting layer provides. Every `opts` vector
/// holds raw CLI option tokens ("--k=12", "--side-by-side"); implementations
/// parse them with the cold CLI's parsers and throw OpError on bad usage.
/// `check` reads and writes no cache; the service passes "" as its
/// `default_cache_dir`.
struct QueryOps {
  std::function<LoadedArchive(const std::string& path, std::ostream& chatter)> load_archive;
  std::function<int(const trace::TraceStore& normal, const trace::TraceStore& faulty,
                    const std::vector<std::string>& opts, sched::Cache* cache, std::ostream& out,
                    std::ostream& chatter)>
      rank;
  std::function<int(const trace::TraceStore& store, const std::string& label,
                    const std::vector<std::string>& opts, const std::string& default_cache_dir,
                    std::ostream& out, std::ostream& chatter)>
      check;
  std::function<std::shared_ptr<const core::Session>(const trace::TraceStore& normal,
                                                     const trace::TraceStore& faulty,
                                                     const std::vector<std::string>& opts)>
      make_session;
  std::function<int(const core::Session& session, const std::string& trace,
                    const std::vector<std::string>& opts, std::ostream& out)>
      diff;
};

struct ServiceConfig {
  std::filesystem::path store_root = ".difftrace-store";
  /// Decoded stores / built sessions pinned in memory (each an LRU).
  std::size_t hot_capacity = 8;
};

class Service {
 public:
  /// Opens (or creates) the shard store under `config.store_root` and the
  /// resident artifact cache at <store_root>/cache. `log` receives daemon
  /// chatter (index rebuilds); responses carry per-request chatter instead.
  Service(ServiceConfig config, QueryOps ops, std::ostream& log);

  /// Parses and answers one request line. Never throws: every failure is an
  /// error response (parse failures get exit code 2 and an empty op echo).
  [[nodiscard]] Response handle_line(const std::string& line);

  /// Answers one parsed request. Never throws.
  [[nodiscard]] Response handle(const Request& req);

  /// Set once a shutdown request has been answered; the accept loop polls it.
  [[nodiscard]] bool shutdown_requested() const noexcept {
    return shutdown_.load(std::memory_order_acquire);
  }

  /// Out-of-band shutdown (signal handling in the hosting process).
  void request_shutdown() noexcept { shutdown_.store(true, std::memory_order_release); }

  [[nodiscard]] const ShardStore& shards() const noexcept { return shards_; }

 private:
  using StorePtr = HotCache::StorePtr;

  /// Resolves an ingested run name to its pinned decoded store (loading and
  /// pinning on miss). Throws OpError(2) for unknown names.
  StorePtr resident_store(const std::string& name, std::ostream& chatter);

  void op_ingest(const Request& req, Response& resp, std::ostream& out, std::ostream& chatter);
  void op_list(Response& resp, std::ostream& out);
  void op_rank(const Request& req, Response& resp, std::ostream& out, std::ostream& chatter);
  void op_check(const Request& req, Response& resp, std::ostream& out, std::ostream& chatter);
  void op_diff(const Request& req, Response& resp, std::ostream& out, std::ostream& chatter);
  void op_stats(Response& resp, std::ostream& out);

  ServiceConfig config_;
  QueryOps ops_;
  ShardStore shards_;
  HotCache hot_;
  sched::Cache cache_;  // resident artifact cache shared across requests
  std::ostream& log_;
  std::atomic<bool> shutdown_{false};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> errors_{0};
};

}  // namespace difftrace::serve
