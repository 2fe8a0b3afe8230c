// The one-shot CLI triage a user runs against archives on disk: rank over
// the filter sweep, check of the faulty run, diffnlr of the consensus
// thread. No cache; rank runs at jobs = nproc.
#pragma once

#include "bench.hpp"
#include "tracer.hpp"

namespace e2ebench {

struct TriageResult {
  Samples rank, check, diffnlr;
  std::uint64_t triages = 0;
  std::uint64_t events = 0;  // input events of both runs, summed over triages
  Tally tally;
};

/// Untraced: repeats the triage until `seconds` have passed, comparing every
/// output with the jobs=1, no-cache reference. Accumulates into `result`.
void run_triage(const Env& env, const PairFiles& pair, const PairRefs& refs, double seconds,
                TriageResult& result);

/// Traced: rebuilds each triage at jobs=1 from the public calls core::sweep
/// and analyze::run_checks compose, with a span around each layer call, and
/// alternates it with the untraced bodies to price the tracing. Adds the
/// per-layer metrics of the trace, compress, core, analyze, sched and cli
/// layers to `out`.
/// `scratch` holds the throw-away caches of the cache-fill probe.
void run_triage_traced(const Env& env, const PairFiles& pair, const PairRefs& refs,
                       double seconds, const fs::path& scratch, Tracer& tracer, Metrics& out,
                       Tally& tally);

}  // namespace e2ebench
