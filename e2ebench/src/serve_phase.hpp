// The resident daemon under closed-loop clients over its unix socket.
//
// Each client keeps one connection and sends its next request only after
// the previous answer arrived. Reads repeat the documented triage on the
// resident pairs -- rank, check of the faulty run, diff of the consensus
// trace, 1:1:1 -- and on a seeded schedule client 0 also writes: it ingests
// a fresh pair and sends that pair's first rank.
#pragma once

#include <map>

#include "bench.hpp"
#include "tracer.hpp"

namespace e2ebench {

/// A fresh pair's first rank, checked against the cold CLI after the run.
struct ColdAnswer {
  std::size_t pair = 0;
  bool ok = false;
  std::string output;
};

struct ServeResult {
  Samples warm;       // repeated rank/check/diff round trips
  std::map<std::string, Samples> warm_by_op;
  Samples cold_rank;  // first rank of a just-ingested pair
  Samples ingest;     // ingest round trips
  Samples transport;  // round trip minus the daemon's own handle time
  Samples read_rate;  // reads answered inside the window per second, one per call
  Tally tally;
  std::vector<ColdAnswer> cold;
};

/// Runs the clients for `seconds`, client 0 writing fresh pairs
/// [first_fresh, end_fresh) on a schedule seeded by `seed`; every read is
/// compared with the cold CLI body's answer. Accumulates into `result`
/// and adds this window's read rate to `result.read_rate`.
/// With `tracers` (one per client) each request gets a span.
void run_serve(const Env& env, const Inputs& in, double seconds, std::uint64_t seed,
               std::size_t first_fresh, std::size_t end_fresh, ServeResult& result,
               std::vector<Tracer>* tracers);

/// Compares every first rank of a fresh pair with the cold CLI body's
/// (no cache, jobs = nproc: output is the same at any job count).
void verify_cold(const Env& env, const Inputs& in, ServeResult& result);

/// Traced serve run: run_serve with spans, then the per-layer metrics of
/// the sched cache and serve layers (cache deltas, hot-tier counters, an
/// in-process Service::handle probe per op, transport time).
void run_serve_traced(const Env& env, Inputs& in, double seconds, std::uint64_t seed,
                      std::vector<Tracer>& client_tracers, Tracer& tracer, Metrics& out,
                      Tally& tally);

}  // namespace e2ebench
