// RunManifest: the machine-readable record of what one difftrace run did —
// tool version, command line, input archive digests, per-phase wall/CPU
// times from the span layer, peak RSS, and every nonzero pipeline counter
// and histogram. Written by the CLI's global `--stats[=path]` flag and by
// the perf benches; rendered as human tables by `difftrace stats`; validated
// in CI by tools/check_manifest.py.
//
// The JSON schema (version 1) is stable and documented in DESIGN.md
// ("Observability"). Summary of the top-level object:
//   manifest_version  int     schema version (1)
//   tool_version      string  difftrace version
//   command           [string]  argv of the run (difftrace itself omitted)
//   exit_code         int
//   wall_ns           int     wall time of the run's root phase
//   cpu_ns            int     process CPU time consumed so far
//   peak_rss_kb       int     ru_maxrss at manifest collection
//   jobs              int     resolved sched::Pool size (0 = not recorded)
//   cache_dir         string  artifact cache directory ("" = no cache)
//   cache_hits        int     sched.cache_hit total at collection
//   cache_misses      int     sched.cache_miss total at collection
//   self_trace        string  path of the run's --self-trace archive ("" = none)
//   inputs            [{path, bytes, crc32, ok}]  input archive digests
//   phases            [{path, name, depth, count, wall_ns, cpu_ns}]
//   counters          [{name, value}]             nonzero counters only
//   histograms        [{name, count, sum, buckets: [{le_log2, count}]}]
// The four execution-engine fields were added after the schema's first
// release; the version stays 1 because they are additive and the parser
// tolerates their absence.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace difftrace::util {
struct JsonValue;
}

namespace difftrace::obs {

inline constexpr int kManifestVersion = 1;
inline constexpr std::string_view kToolVersion = "1.0.0";

/// Identity digest of one input archive. `ok` is false when the file could
/// not be read (the manifest still records that it was named).
struct ManifestInput {
  std::string path;
  std::uint64_t bytes = 0;
  std::uint32_t crc32 = 0;
  bool ok = false;
};

struct RunManifest {
  int manifest_version = kManifestVersion;
  std::string tool_version{kToolVersion};
  std::vector<std::string> command;
  int exit_code = 0;
  std::uint64_t wall_ns = 0;
  std::uint64_t cpu_ns = 0;
  std::uint64_t peak_rss_kb = 0;
  /// Execution-engine telemetry: resolved job count (CLI-filled; 0 when the
  /// command has no sweep), cache directory ("" = no cache), and the
  /// process-wide cache hit/miss totals (auto-filled from the sched
  /// counters by collect_manifest).
  std::uint64_t jobs = 0;
  std::string cache_dir;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  /// Path of the self-trace archive the run wrote under `--self-trace[=path]`
  /// ("" when the run recorded none). `perf diff` follows these paths to
  /// localize *where* two runs' phase structures diverged via diffNLR.
  /// Additive like the engine fields above.
  std::string self_trace;
  std::vector<ManifestInput> inputs;
  std::vector<PhaseStats> phases;
  std::vector<CounterSample> counters;
  std::vector<HistogramSample> histograms;

  void write_json(std::ostream& out) const;
  [[nodiscard]] std::string to_json() const;

  /// Human-readable summary tables (`difftrace stats`).
  [[nodiscard]] std::string render() const;

  /// Fraction of the root phase's wall time covered by its direct
  /// children — the "no dark time" health indicator. 1.0 when there are no
  /// depth-1 phases to judge (trivial runs).
  [[nodiscard]] double phase_coverage() const;

  /// Inverse of write_json; throws std::runtime_error on malformed or
  /// schema-incompatible documents.
  [[nodiscard]] static RunManifest from_json(const util::JsonValue& doc);
  [[nodiscard]] static RunManifest from_json_text(std::string_view text);
};

/// Snapshots the process-wide telemetry (phase table, metrics registry,
/// rusage) into a manifest. `input_paths` are digested with CRC-32;
/// wall_ns is taken from the largest depth-0 phase (the command root span).
[[nodiscard]] RunManifest collect_manifest(std::vector<std::string> command,
                                           const std::vector<std::string>& input_paths,
                                           int exit_code);

[[nodiscard]] std::uint64_t peak_rss_kb();
[[nodiscard]] std::uint64_t process_cpu_ns();
[[nodiscard]] ManifestInput digest_file(const std::string& path);

}  // namespace difftrace::obs
