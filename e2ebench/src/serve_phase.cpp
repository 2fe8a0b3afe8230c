#include "serve_phase.hpp"

#include <algorithm>
#include <iostream>
#include <map>

#include "obs/metrics.hpp"
#include "sched/cache.hpp"
#include "serve/protocol.hpp"
#include "util/json.hpp"

namespace e2ebench {

namespace {

namespace serve = difftrace::serve;

struct Client {
  std::map<std::string, Samples> warm_by_op;
  Samples cold_rank, ingest, transport;
  std::uint64_t reads_in_window = 0;  // reads answered before the deadline
  Tally tally;
  std::vector<ColdAnswer> cold;
};

serve::Request pair_request(const std::string& op, const PairFiles& pair) {
  return {.op = op, .request_id = "", .normal = pair.name + "n", .faulty = pair.name + "f"};
}

/// The i-th read of client c: the documented triage -- rank, check of the
/// faulty run, diff of the consensus trace -- on one resident pair, then
/// the same three on the next pair. Client c starts at pair c.
serve::Request read_request(const Env& env, const Inputs& in, std::size_t c, std::uint64_t i,
                            const std::string*& expected) {
  const auto k = (c + static_cast<std::size_t>(i / 3)) % in.resident.size();
  const auto& pair = in.resident[k];
  const auto& refs = in.refs[k];
  switch (i % 3) {
    case 0: {
      auto req = pair_request("rank", pair);
      req.opts = served_rank_opts(env);
      expected = &refs.rank;
      return req;
    }
    case 1:
      expected = &refs.check_faulty;
      return {.op = "check", .run = pair.name + "f"};
    default: {
      auto req = pair_request("diff", pair);
      req.trace = refs.consensus;
      expected = &refs.diff;
      return req;
    }
  }
}

/// A scheduled write: when it is due and which fresh pair it ingests.
struct Write {
  std::uint64_t due_ns = 0;
  std::size_t pair = 0;
};

void client_main(std::size_t c, const Env& env, const Inputs& in, std::uint64_t deadline,
                 const std::vector<Write>& writes, Client& st, Tracer* tr) {
  auto conn = serve::connect_with_retry(in.daemon->socket_path(), 20, 10);
  conn.set_recv_timeout_ms(120'000);
  std::uint64_t seq = 0;
  serve::Response resp;
  const auto exchange = [&](serve::Request req) {
    req.request_id = std::to_string(c) + "." + std::to_string(seq);
    if (tr == nullptr) return round_trip(conn, req, resp);
    tr->begin_request((static_cast<std::uint64_t>(c) << 32) | seq);
    Tracer::Scope span(*tr, "serve.request." + req.op);
    const auto ns = round_trip(conn, req, resp);
    // The daemon reports its own Service::handle time; the span is placed
    // at the end of the round trip, its duration is the daemon's figure.
    const auto handle = std::min<std::uint64_t>(ns, resp.wall_ns);
    const auto end = now_ns();
    tr->record("serve.handle", end - handle, end);
    st.transport.add_ns(ns - handle);
    return ns;
  };

  // Warm-up read after the switch from the triage phase: checked, not timed.
  auto warmup = pair_request("rank", in.resident[0]);
  warmup.opts = served_rank_opts(env);
  (void)round_trip(conn, warmup, resp);
  st.tally.check(resp.status == "ok" && resp.output == in.refs[0].rank);

  std::size_t next_write = 0;
  std::uint64_t reads = 0;
  // Client 0 finishes its scheduled writes even past the deadline, so every
  // run has the same number of cold samples.
  while (now_ns() < deadline || (c == 0 && next_write < writes.size())) {
    ++seq;
    if (c == 0 && next_write < writes.size() &&
        (now_ns() >= writes[next_write].due_ns || now_ns() >= deadline)) {
      const auto& pair = in.fresh[writes[next_write].pair];
      for (const auto& [path, run] : {std::pair{pair.normal, pair.name + "n"},
                                      std::pair{pair.faulty, pair.name + "f"}}) {
        const auto ns = exchange({.op = "ingest", .path = path.string(), .name = run});
        st.tally.check(resp.status == "ok" && resp.output.rfind("ingested " + run + ":", 0) == 0);
        st.ingest.add_ns(ns);
        ++seq;
      }
      auto rank = pair_request("rank", pair);
      rank.opts = served_rank_opts(env);
      st.cold_rank.add_ns(exchange(rank));
      st.cold.push_back({writes[next_write].pair, resp.status == "ok", resp.output});
      ++next_write;
      continue;
    }
    const std::string* expected = nullptr;
    const auto req = read_request(env, in, c, reads++, expected);
    st.warm_by_op[req.op].add_ns(exchange(req));
    st.tally.check(resp.status == "ok" && resp.output == *expected);
    if (now_ns() <= deadline) ++st.reads_in_window;
  }
}

}  // namespace

void run_serve(const Env& env, const Inputs& in, double seconds, std::uint64_t seed,
               std::size_t first_fresh, std::size_t end_fresh, ServeResult& result,
               std::vector<Tracer>* tracers) {
  const auto window_ns = static_cast<std::uint64_t>(seconds * 1e9);
  const auto start = now_ns();
  const auto deadline = start + window_ns;
  // Seeded write schedule: the first 60% of the window splits into one slot
  // per write, each write due at a seeded point of its slot. Writes then
  // finish while the other client still runs, so every first rank meets the
  // same concurrent read load.
  std::vector<Write> writes;
  Rng rng(stream_seed(seed, 21));
  const auto slots = static_cast<double>(end_fresh - first_fresh);
  for (std::size_t k = first_fresh; k < end_fresh; ++k) {
    const double slot = (static_cast<double>(k - first_fresh) + 0.2 + 0.6 * rng.unit()) / slots;
    writes.push_back({start + static_cast<std::uint64_t>(static_cast<double>(window_ns) * 0.6 * slot), k});
  }

  std::vector<Client> clients(env.clients);
  std::vector<std::string> errors(env.clients);
  {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < env.clients; ++c)
      threads.emplace_back([&, c] {
        try {
          client_main(c, env, in, deadline, writes, clients[c],
                      tracers != nullptr ? &(*tracers)[c] : nullptr);
        } catch (const std::exception& e) {
          errors[c] = e.what();
        }
      });
    for (auto& t : threads) t.join();
  }

  std::uint64_t reads_in_window = 0;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    auto& st = clients[c];
    if (!errors[c].empty()) {
      std::cerr << "e2ebench: serve client " << c << " stopped: " << errors[c] << "\n";
      st.tally.check(false);
    }
    for (const auto& [op, samples] : st.warm_by_op) {
      result.warm.merge(samples);
      result.warm_by_op[op].merge(samples);
    }
    result.cold_rank.merge(st.cold_rank);
    result.ingest.merge(st.ingest);
    result.transport.merge(st.transport);
    reads_in_window += st.reads_in_window;
    result.tally.merge(st.tally);
    for (auto& answer : st.cold) result.cold.push_back(std::move(answer));
  }
  // Reads answered inside the window, per second of the window: writes,
  // and anything answered past the deadline, are left out.
  result.read_rate.add_ms(static_cast<double>(reads_in_window) / seconds);
}

void verify_cold(const Env& env, const Inputs& in, ServeResult& result) {
  for (const auto& answer : result.cold)
    result.tally.check(answer.ok &&
                       answer.output == reference_rank(in.fresh[answer.pair], env.triage_jobs));
  result.cold.clear();
}

void run_serve_traced(const Env& env, Inputs& in, double seconds, std::uint64_t seed,
                      std::vector<Tracer>& client_tracers, Tracer& tracer, Metrics& out,
                      Tally& tally) {
  auto& hits = difftrace::obs::counter("sched.cache_hit");
  auto& misses = difftrace::obs::counter("sched.cache_miss");
  difftrace::sched::Cache cache_view(in.daemon->cache_dir());
  const auto before = cache_view.stats();
  const auto hits_before = hits.value();
  const auto misses_before = misses.value();

  ServeResult result;
  run_serve(env, in, seconds, seed, 0, in.fresh.size(), result, &client_tracers);
  verify_cold(env, in, result);
  tally.merge(result.tally);

  const auto after = cache_view.stats();
  out["sched.cache_hits"] = {static_cast<double>(hits.value() - hits_before), "count"};
  out["sched.cache_misses"] = {static_cast<double>(misses.value() - misses_before), "count"};
  out["sched.cache_entries_added"] = {static_cast<double>(after.entries - before.entries), "count"};
  out["sched.cache_bytes_added"] = {static_cast<double>(after.bytes - before.bytes), "bytes"};
  out["serve.transport_ms"] = {result.transport.median(), "ms"};

  // Hot-tier counters, as the daemon's stats op reports them.
  {
    auto conn = serve::connect_with_retry(in.daemon->socket_path(), 20, 10);
    conn.set_recv_timeout_ms(120'000);
    // serve::parse_response keeps only the envelope, so read the stats
    // payload from the raw response line.
    std::ostringstream framed;
    serve::write_request(framed, {.op = "stats", .request_id = "stats"});
    conn.send_all(framed.str());
    std::string line;
    const bool answered = conn.recv_line(line) == serve::Socket::RecvStatus::Line;
    const auto doc = difftrace::util::parse_json(answered ? line : "{}");
    const auto* stats = doc.find("serve");
    tally.check(stats != nullptr);
    const auto count = [&](const char* key) {
      return static_cast<double>(stats != nullptr ? stats->at(key).as_uint() : 0);
    };
    out["serve.hot_store_hits"] = {count("store_hits"), "count"};
    out["serve.hot_store_misses"] = {count("store_misses"), "count"};
    out["serve.hot_session_hits"] = {count("session_hits"), "count"};
    out["serve.hot_session_misses"] = {count("session_misses"), "count"};
  }

  // In-process Service::handle per op, on the warm resident pairs, plus
  // re-ingests of pair 0's archives under new run names.
  auto& service = in.daemon->service();
  std::map<std::string, Samples> handle;
  const auto probe = [&](const serve::Request& req, const std::string* expected) {
    const auto start = now_ns();
    serve::Response resp;
    {
      Tracer::Scope span(tracer, "serve.handle." + req.op);
      resp = service.handle(req);
    }
    handle[req.op].add_ns(now_ns() - start);
    tally.check(resp.status == "ok" && (expected == nullptr || resp.output == *expected));
  };
  constexpr int kReps = 8;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto k = static_cast<std::size_t>(rep) % in.resident.size();
    const auto& pair = in.resident[k];
    tracer.begin_request(0xffff0000ULL + static_cast<std::uint64_t>(rep));
    auto rank = pair_request("rank", pair);
    rank.opts = served_rank_opts(env);
    probe(rank, &in.refs[k].rank);
    probe({.op = "check", .run = pair.name + "f"}, &in.refs[k].check_faulty);
    auto diff = pair_request("diff", pair);
    diff.trace = in.refs[k].consensus;
    probe(diff, &in.refs[k].diff);
    probe({.op = "ingest", .path = in.resident[0].faulty.string(), .name = "re" + std::to_string(rep)},
          nullptr);
  }
  for (const char* op : {"rank", "check", "diff", "ingest"})
    out[std::string("serve.handle_ms.") + op] = {handle[op].median(), "ms"};
}

}  // namespace e2ebench
