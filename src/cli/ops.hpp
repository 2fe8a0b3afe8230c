// Store-level command bodies and option parsers, factored out of the
// individual cmd_* functions so the serve daemon can answer rank / check /
// diff queries through EXACTLY the code path the cold-start CLI uses —
// byte-identical output is guaranteed by sharing the implementation, not by
// keeping two renderings in sync.
//
// Everything here operates on already-loaded TraceStores; archive loading
// stays with cli/load.hpp (CLI) and the serve shard store (daemon).
#pragma once

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "cli/args.hpp"
#include "core/pipeline.hpp"
#include "trace/store.hpp"

namespace difftrace::sched {
class Cache;
}

namespace difftrace::cli {

inline constexpr const char* kDefaultCacheDir = ".difftrace-cache";

/// "P" / "P.T" trace label -> TraceKey; ArgError on anything else.
[[nodiscard]] trace::TraceKey parse_trace_key(const std::string& label);

/// "sing.noFreq"-style attribute spec, matching the ranking tables.
[[nodiscard]] core::AttrConfig parse_attr(const std::string& spec);

[[nodiscard]] core::Linkage parse_linkage(const std::string& name);

/// NLR knobs from --k (1..1000) / --min-reps (2..1000) / --fold-known.
[[nodiscard]] core::NlrConfig nlr_from(const Args& args);

/// Comma-separated --filters list (default "mpiall"), each term parsed with
/// parse_filter.
[[nodiscard]] std::vector<core::FilterSpec> filters_from(const Args& args);

/// Requested job count: --jobs wins, --threads is the pre-engine spelling
/// kept as an alias, 0 (default) defers to DIFFTRACE_JOBS / the hardware.
/// A value outside [0, sched::max_jobs()] is an ArgError.
[[nodiscard]] std::size_t jobs_request_from(const Args& args);

/// Cache directory selected by --cache[=DIR]; "" means caching is off.
/// (A bare `--cache` parses as a flag, i.e. an empty value — that selects
/// the default directory.)
[[nodiscard]] std::string cache_dir_from(const Args& args);

/// The body of `rank` after both stores are in memory: degraded-evidence
/// warnings to `err`, the filter × attribute sweep (with `cache` borrowed
/// for per-trace/per-row artifacts when non-null), the ranking table and
/// consensus lines to `out`. Returns the command exit code.
int rank_stores(const trace::TraceStore& normal, const trace::TraceStore& faulty, const Args& args,
                sched::Cache* cache, std::ostream& out, std::ostream& err);

/// The body of `check` after the store is in memory. `label` is the name
/// printed in the report header (the CLI passes the archive path; serve
/// passes the run name). `default_cache_dir` is unused: `check` reads and
/// writes no cache. The parameter stays so existing callers keep compiling.
int check_store(const trace::TraceStore& store, const std::string& label, const Args& args,
                const std::string& default_cache_dir, std::ostream& out, std::ostream& err);

/// Builds the filter-dependent Session `diffnlr` renders from. Shared so the
/// daemon can pin built sessions in its hot cache and answer later diff
/// queries without rebuilding NLR programs.
[[nodiscard]] std::shared_ptr<const core::Session> make_session(const trace::TraceStore& normal,
                                                                const trace::TraceStore& faulty,
                                                                const Args& args);

/// The body of `diffnlr` after the session exists: renders diffNLR(trace)
/// honoring --side-by-side / --color. Returns the command exit code.
int render_diffnlr(const core::Session& session, const std::string& trace_label, const Args& args,
                   std::ostream& out);

}  // namespace difftrace::cli
