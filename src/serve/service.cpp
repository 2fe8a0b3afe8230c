#include "serve/service.hpp"

#include <sstream>
#include <utility>

#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/file.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/table.hpp"

namespace difftrace::serve {

namespace {

std::string run_json(const RunInfo& info) {
  std::ostringstream buf;
  util::JsonWriter json(buf, /*indent=*/-1);
  json.begin_object();
  json.field("name", info.name);
  json.field("crc32", util::hex32(info.crc32));
  json.field("shard", info.shard);
  json.field("bytes", info.bytes);
  json.field("traces", info.traces);
  json.field("events", info.events);
  json.field("salvaged", info.salvaged);
  json.end_object();
  return buf.str();
}

/// Hot-cache key of a run: name + content digest, so a re-ingested run can
/// never alias its predecessor's pinned state.
std::string store_key(const RunInfo& info) { return info.name + ":" + util::hex32(info.crc32); }

}  // namespace

Service::Service(ServiceConfig config, QueryOps ops, std::ostream& log)
    : config_(std::move(config)),
      ops_(std::move(ops)),
      shards_(config_.store_root),
      hot_(config_.hot_capacity),
      cache_((config_.store_root / "cache").string()),
      log_(log) {
  // What makes the daemon warm: beyond the disk-backed artifact cache, keep
  // recently served payloads resident so repeat rank/check answers skip the
  // read + frame-CRC + decode path entirely. Sized alongside the store/
  // session LRUs (a sweep touches ~dozens of eval cells per run pair).
  cache_.retain_hot(config_.hot_capacity * 128);
  if (shards_.rebuilt_on_open())
    util::status_line(log_, "[serve] store index rebuilt from shards (" +
                                std::to_string(shards_.size()) + " run(s))");
}

Response Service::handle_line(const std::string& line) {
  try {
    return handle(parse_request(line));
  } catch (const OpError& e) {
    // Unparseable request: we cannot echo op/request_id we never decoded.
    Response resp;
    resp.tool_version = std::string(obs::kToolVersion);
    resp.status = "error";
    resp.exit_code = e.exit_code();
    resp.error = e.what();
    resp.cpu_ns = obs::process_cpu_ns();
    resp.peak_rss_kb = obs::peak_rss_kb();
    errors_.fetch_add(1, std::memory_order_relaxed);
    obs::counter("serve.errors").add(1);
    return resp;
  }
}

Response Service::handle(const Request& req) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  obs::counter("serve.requests").add(1);

  Response resp;
  resp.request_id = req.request_id;
  resp.op = req.op;
  resp.tool_version = std::string(obs::kToolVersion);
  resp.status = "ok";
  const auto start = obs::wall_now_ns();
  std::ostringstream out;
  std::ostringstream chatter;
  try {
    // One span per request: a --self-trace'd daemon session records its
    // whole query history as analyzable phases ("serve/rank/sweep/...").
    obs::Span span_op(req.op);
    if (req.op == "ingest") {
      op_ingest(req, resp, out, chatter);
    } else if (req.op == "list") {
      resp.command = {"list"};
      op_list(resp, out);
    } else if (req.op == "rank") {
      op_rank(req, resp, out, chatter);
    } else if (req.op == "check") {
      op_check(req, resp, out, chatter);
    } else if (req.op == "diff") {
      op_diff(req, resp, out, chatter);
    } else if (req.op == "stats") {
      resp.command = {"stats"};
      op_stats(resp, out);
    } else if (req.op == "shutdown") {
      resp.command = {"shutdown"};
      out << "shutting down\n";
      shutdown_.store(true, std::memory_order_release);
    } else {
      throw OpError(2, "unknown op '" + req.op +
                           "' (ingest, list, rank, check, diff, stats, shutdown)");
    }
  } catch (const OpError& e) {
    resp.status = "error";
    resp.exit_code = e.exit_code();
    resp.error = e.what();
    errors_.fetch_add(1, std::memory_order_relaxed);
    obs::counter("serve.errors").add(1);
  } catch (const std::exception& e) {
    resp.status = "error";
    resp.exit_code = 1;
    resp.error = e.what();
    errors_.fetch_add(1, std::memory_order_relaxed);
    obs::counter("serve.errors").add(1);
  }
  resp.output = out.str();
  resp.chatter = chatter.str();
  resp.wall_ns = obs::wall_now_ns() - start;
  resp.cpu_ns = obs::process_cpu_ns();
  resp.peak_rss_kb = obs::peak_rss_kb();
  return resp;
}

Service::StorePtr Service::resident_store(const std::string& name, std::ostream& chatter) {
  const auto info = shards_.lookup(name);
  if (!info) throw OpError(2, "unknown run '" + name + "' (ingest it first; see 'list')");
  const auto path = shards_.archive_path(*info).string();
  return hot_.get_store(store_key(*info), [this, &path, &chatter]() -> StorePtr {
    return std::make_shared<const trace::TraceStore>(ops_.load_archive(path, chatter).store);
  });
}

void Service::op_ingest(const Request& req, Response& resp, std::ostream& out,
                        std::ostream& chatter) {
  if (req.path.empty()) throw OpError(2, "ingest requires 'path'");
  auto name = req.name;
  if (name.empty()) name = std::filesystem::path(req.path).stem().string();
  resp.command = {"ingest", req.path, "--name", name};

  auto loaded = ops_.load_archive(req.path, chatter);
  const auto info = shards_.ingest(name, loaded.store, loaded.salvaged);
  obs::counter("serve.ingests").add(1);
  // Pre-pin the decoded store: the archive we just wrote is the canonical
  // save of exactly this in-memory state, so pinning it now gives the first
  // query a warm hit without a decode.
  auto pinned = std::make_shared<const trace::TraceStore>(std::move(loaded.store));
  (void)hot_.get_store(store_key(info), [&pinned]() -> StorePtr { return pinned; });

  out << "ingested " << info.name << ": " << info.traces << " trace(s), " << info.events
      << " event(s), " << info.bytes << " bytes -> shard "
      << (info.shard < 10 ? "0" : "") << info.shard << (info.salvaged ? " (salvaged)" : "")
      << "\n";
  resp.extras.emplace_back("run", run_json(info));
}

void Service::op_list(Response& resp, std::ostream& out) {
  const auto runs = shards_.list();
  util::TextTable table({"Run", "CRC32", "Shard", "Traces", "Events", "Bytes", "Salvaged"});
  std::ostringstream buf;
  util::JsonWriter json(buf, /*indent=*/-1);
  json.begin_array();
  for (const auto& info : runs) {
    table.add_row({info.name, util::hex32(info.crc32), std::to_string(info.shard),
                   std::to_string(info.traces), std::to_string(info.events),
                   std::to_string(info.bytes), info.salvaged ? "yes" : "no"});
    json.raw_value(run_json(info));
  }
  json.end_array();
  out << table.render();
  resp.extras.emplace_back("runs", buf.str());
}

void Service::op_rank(const Request& req, Response& resp, std::ostream& out,
                      std::ostream& chatter) {
  if (req.normal.empty() || req.faulty.empty())
    throw OpError(2, "rank requires 'normal' and 'faulty' run names");
  resp.command = {"rank", req.normal, req.faulty};
  resp.command.insert(resp.command.end(), req.opts.begin(), req.opts.end());
  const auto normal = resident_store(req.normal, chatter);
  const auto faulty = resident_store(req.faulty, chatter);
  resp.exit_code = ops_.rank(*normal, *faulty, req.opts, &cache_, out, chatter);
}

void Service::op_check(const Request& req, Response& resp, std::ostream& out,
                       std::ostream& chatter) {
  if (req.run.empty()) throw OpError(2, "check requires 'run'");
  resp.command = {"check", req.run};
  resp.command.insert(resp.command.end(), req.opts.begin(), req.opts.end());
  const auto store = resident_store(req.run, chatter);
  resp.exit_code = ops_.check(*store, req.run, req.opts, /*default_cache_dir=*/"", out, chatter);
}

void Service::op_diff(const Request& req, Response& resp, std::ostream& out,
                      std::ostream& chatter) {
  if (req.normal.empty() || req.faulty.empty())
    throw OpError(2, "diff requires 'normal' and 'faulty' run names");
  if (req.trace.empty()) throw OpError(2, "diff requires 'trace' (P.T)");
  resp.command = {"diffnlr", req.normal, req.faulty, "--trace", req.trace};
  resp.command.insert(resp.command.end(), req.opts.begin(), req.opts.end());
  const auto normal_info = shards_.lookup(req.normal);
  const auto faulty_info = shards_.lookup(req.faulty);
  const auto normal = resident_store(req.normal, chatter);
  const auto faulty = resident_store(req.faulty, chatter);
  // Session key: both store identities plus the session-shaping options.
  // `trace` stays OUT of the key — diffing another trace of the same pair
  // reuses the pinned session, which is the common interactive pattern.
  std::string key = store_key(*normal_info) + "|" + store_key(*faulty_info);
  for (const auto& opt : req.opts) key += "\x1f" + opt;
  const auto session = hot_.get_session(key, [this, &normal, &faulty, &req]() {
    return ops_.make_session(*normal, *faulty, req.opts);
  });
  resp.exit_code = ops_.diff(*session, req.trace, req.opts, out);
}

void Service::op_stats(Response& resp, std::ostream& out) {
  const auto hot = hot_.stats();
  const auto runs = shards_.size();
  const auto requests = requests_.load(std::memory_order_relaxed);
  const auto errors = errors_.load(std::memory_order_relaxed);

  out << "runs:            " << runs << "\n";
  out << "requests:        " << requests << "\n";
  out << "errors:          " << errors << "\n";
  out << "hot stores:      " << hot.stores << " (" << hot.store_hits << " hit(s), "
      << hot.store_misses << " miss(es))\n";
  out << "hot sessions:    " << hot.sessions << " (" << hot.session_hits << " hit(s), "
      << hot.session_misses << " miss(es))\n";
  out << "artifact cache:  " << cache_.dir().string() << "\n";

  std::ostringstream buf;
  util::JsonWriter json(buf, /*indent=*/-1);
  json.begin_object();
  json.field("runs", static_cast<std::uint64_t>(runs));
  json.field("requests", requests);
  json.field("errors", errors);
  json.field("hot_stores", static_cast<std::uint64_t>(hot.stores));
  json.field("hot_sessions", static_cast<std::uint64_t>(hot.sessions));
  json.field("store_hits", hot.store_hits);
  json.field("store_misses", hot.store_misses);
  json.field("session_hits", hot.session_hits);
  json.field("session_misses", hot.session_misses);
  json.field("cache_dir", cache_.dir().string());
  json.end_object();
  resp.extras.emplace_back("serve", buf.str());
}

}  // namespace difftrace::serve
