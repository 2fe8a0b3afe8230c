// The DiffTrace pipeline (Figure 1) and ranking tables (Tables VI-IX).
//
// For one front-end filter, a Session holds everything that depends only on
// the filter: the filtered token streams of both runs and their NLR
// programs over a shared TokenTable/LoopTable (so loop ids mean the same
// thing in the normal and the faulty run). For each attribute configuration
// an Evaluation derives JSM_normal / JSM_faulty / JSM_D, the per-trace
// suspicion scores, the two hierarchical clusterings, and their B-score.
//
// sweep() is the paper's outer iteration loop: every (filter × attribute)
// combination becomes one ranking-table row, sorted by ascending B-score —
// the combinations under which the clustering changed most float to the top,
// and their "Top Threads" column flags the suspicious traces.
#pragma once

#include <string>
#include <vector>

#include "analyze/analyze.hpp"
#include "core/attributes.hpp"
#include "core/bscore.hpp"
#include "core/diffnlr.hpp"
#include "core/filter.hpp"
#include "core/hclust.hpp"
#include "core/jsm.hpp"
#include "core/nlr.hpp"
#include "trace/store.hpp"

namespace difftrace::sched {
class Cache;
class Pool;
}  // namespace difftrace::sched

namespace difftrace::core {

struct PipelineConfig {
  NlrConfig nlr;
  Linkage linkage = Linkage::Ward;
  /// Cap on reported suspicious traces per row (the paper's tables show ≤6).
  std::size_t top_n = 6;
  /// Suspicion threshold: score >= mean + sigmas·stddev.
  double threshold_sigmas = 1.0;
};

/// Why (and how) a trace participates in the analysis at reduced fidelity.
/// Degraded-mode contract: the JSM/ranking/progress stages run on whatever
/// survives ingestion, but every trace that is missing, salvaged, or only
/// partially decodable is flagged here so suspicion scores are never
/// silently computed over a different population than the reader assumes.
struct TraceHealth {
  trace::TraceKey key;
  bool degraded = false;  // analyzable, but one side is salvaged/short
  std::string note;       // human-readable reason, empty when healthy
};

/// Execution knobs for building a Session (and, via SweepConfig, a sweep).
/// Both pointers are optional borrows; the referents must outlive the build.
struct SessionOptions {
  /// Worker pool for per-trace decode/filter/NLR. Null or 1-job pools build
  /// serially (today's exact code path).
  sched::Pool* pool = nullptr;
  /// Artifact cache for per-trace NLR programs. Null disables caching.
  /// Ignored when NlrConfig::fold_known_bodies is set — folding makes one
  /// trace's reduction depend on its siblings, which per-trace keys cannot
  /// express (the sweep's per-row Evaluation cache still applies).
  sched::Cache* cache = nullptr;
};

/// Filter-dependent state shared by all attribute configurations.
class Session {
 public:
  Session(const trace::TraceStore& normal, const trace::TraceStore& faulty, FilterSpec filter,
          NlrConfig nlr_config);
  /// Parallel/cached build. Byte-identical results to the serial
  /// constructor at any job count and any cache state: tokens and loop
  /// bodies are committed to the shared tables in canonical trace order
  /// (all normal traces, then all faulty), which reproduces the exact
  /// intern sequence of a from-scratch serial build.
  Session(const trace::TraceStore& normal, const trace::TraceStore& faulty, FilterSpec filter,
          NlrConfig nlr_config, const SessionOptions& options);

  [[nodiscard]] const FilterSpec& filter() const noexcept { return filter_; }
  [[nodiscard]] const NlrConfig& nlr_config() const noexcept { return nlr_config_; }
  /// Traces present in both runs, in TraceKey order — the JSM row order.
  [[nodiscard]] const std::vector<trace::TraceKey>& traces() const noexcept { return traces_; }
  /// Per-trace ingestion health, parallel to traces().
  [[nodiscard]] const std::vector<TraceHealth>& health() const noexcept { return health_; }
  [[nodiscard]] bool degraded(std::size_t i) const { return health_.at(i).degraded; }
  /// Traces present in only one run (dropped from the analysis) + reason.
  [[nodiscard]] const std::vector<TraceHealth>& dropped() const noexcept { return dropped_; }
  [[nodiscard]] bool any_degraded() const noexcept;
  [[nodiscard]] const TokenTable& tokens() const noexcept { return tokens_; }
  [[nodiscard]] const LoopTable& loops() const noexcept { return loops_; }
  [[nodiscard]] const NlrProgram& normal_nlr(std::size_t i) const { return normal_.at(i); }
  [[nodiscard]] const NlrProgram& faulty_nlr(std::size_t i) const { return faulty_.at(i); }

  [[nodiscard]] std::size_t index_of(trace::TraceKey key) const;

  /// diffNLR(x) — the paper's per-trace normal/faulty loop-structure diff
  /// (with the loop-body legend).
  [[nodiscard]] DiffNlr diffnlr(trace::TraceKey key) const;

  /// NLR as a per-thread measure of progress (§II-D: "revealing unfinished
  /// or broken loops"): expanded faulty trace length over expanded normal
  /// trace length. 1.0 = same amount of work observed; ≪ 1 = the trace was
  /// cut short (deadlock truncation). Defined as 1.0 when the normal trace
  /// is empty under this filter.
  [[nodiscard]] double progress_ratio(std::size_t i) const;
  [[nodiscard]] std::vector<double> progress_ratios() const;
  /// Index of the least-progressed trace — PRODOMETER's "least progressed
  /// task" notion, recovered from NLR (ties break to the lower TraceKey).
  [[nodiscard]] std::size_t least_progressed() const;

  /// "11.mpiall.cust.0K10"-style row label (filter name + NLR constant).
  [[nodiscard]] std::string label() const;

 private:
  void build(const trace::TraceStore& normal, const trace::TraceStore& faulty,
             const SessionOptions& options);
  void build_serial(const trace::TraceStore& normal, const trace::TraceStore& faulty);

  FilterSpec filter_;
  NlrConfig nlr_config_;
  std::vector<trace::TraceKey> traces_;
  std::vector<TraceHealth> health_;
  std::vector<TraceHealth> dropped_;
  TokenTable tokens_;
  LoopTable loops_;
  std::vector<NlrProgram> normal_;
  std::vector<NlrProgram> faulty_;
};

/// Cheap (no-decode) ingestion health check of a normal/faulty store pair:
/// flags keys missing from one run and blobs marked salvaged. Used by the
/// CLI to warn before a sweep; Session computes the decode-accurate version.
[[nodiscard]] std::vector<TraceHealth> store_health(const trace::TraceStore& normal,
                                                    const trace::TraceStore& faulty);

/// One (filter × attribute) analysis outcome.
struct Evaluation {
  AttrConfig attr;
  util::Matrix jsm_normal;
  util::Matrix jsm_faulty;
  util::Matrix jsm_d;
  std::vector<double> scores;  // suspicion per trace (session order)
  Dendrogram dend_normal;
  Dendrogram dend_faulty;
  double bscore = 1.0;
};

[[nodiscard]] Evaluation evaluate(const Session& session, const AttrConfig& attr, Linkage linkage);

/// §II-A single-run mode: "many types of faults may be apparent just by
/// analyzing JSM_faulty" — e.g. truncated processes look highly dissimilar
/// to those that terminated normally. Ranks the traces of ONE run by how
/// dissimilar each is from the rest (no baseline needed).
struct SingleRunEvaluation {
  std::vector<trace::TraceKey> traces;
  util::Matrix jsm;
  /// 1 − mean similarity to the other traces; high = outlier.
  std::vector<double> outlier_scores;
  Dendrogram dendrogram;
};

[[nodiscard]] SingleRunEvaluation evaluate_single_run(const trace::TraceStore& store,
                                                      const FilterSpec& filter,
                                                      const AttrConfig& attr,
                                                      const NlrConfig& nlr = {},
                                                      Linkage linkage = Linkage::Ward);

struct RankingRow {
  std::string filter_label;
  std::string attr_label;
  double bscore = 1.0;
  std::vector<int> top_processes;          // most-affected process ranks, descending
  std::vector<std::string> top_threads;    // "6.4"-style labels, descending
  /// Sweep-grid coordinates; break B-score ties deterministically so serial
  /// and parallel sweeps render identical tables.
  std::size_t filter_index = 0;
  std::size_t attr_index = 0;
};

struct RankingTable {
  std::vector<RankingRow> rows;  // ascending B-score

  [[nodiscard]] std::string render() const;
  /// The thread label that appears most often across rows' top positions —
  /// the overall verdict ("trace 6.4 was affected the most").
  [[nodiscard]] std::string consensus_thread() const;
  [[nodiscard]] int consensus_process() const;
};

struct SweepConfig {
  std::vector<FilterSpec> filters;
  std::vector<AttrConfig> attributes = all_attr_configs();
  PipelineConfig pipeline;
  /// Job count for the sweep's sched::Pool (`--jobs`) — the paper's
  /// future-work item (1), "exploit multi-core CPUs". 0 = resolve via the
  /// DIFFTRACE_JOBS environment variable, falling back to the hardware
  /// concurrency; 1 = serial (today's exact code path). Output is
  /// deterministic and byte-identical regardless of job count.
  std::size_t analysis_threads = 0;
  /// Content-addressed artifact cache (`--cache`); null disables caching.
  /// Borrowed — must outlive the sweep. A warm cache changes wall time,
  /// never output.
  sched::Cache* cache = nullptr;
};

[[nodiscard]] RankingTable sweep(const trace::TraceStore& normal, const trace::TraceStore& faulty,
                                 const SweepConfig& config);

/// Selects suspicious entries from aligned (label, score) pairs: descending
/// score, thresholded at mean + sigmas·stddev, capped at top_n, never empty
/// when any score is positive.
[[nodiscard]] std::vector<std::size_t> select_suspicious(const std::vector<double>& scores,
                                                         std::size_t top_n, double sigmas);

/// Facade tying the pieces together for application code.
class DiffTrace {
 public:
  DiffTrace(trace::TraceStore normal, trace::TraceStore faulty);

  [[nodiscard]] const trace::TraceStore& normal() const noexcept { return normal_; }
  [[nodiscard]] const trace::TraceStore& faulty() const noexcept { return faulty_; }

  [[nodiscard]] Session make_session(const FilterSpec& filter, const NlrConfig& nlr = {}) const;
  [[nodiscard]] RankingTable rank(const SweepConfig& config) const;

  /// Semantic verification (`difftrace check`) of either run. The normal
  /// run is the baseline sanity check (expected clean); the faulty run is
  /// where deadlocks / unmatched ops / lock inversions show up.
  [[nodiscard]] analyze::CheckReport check_normal(const analyze::CheckOptions& options = {}) const;
  [[nodiscard]] analyze::CheckReport check_faulty(const analyze::CheckOptions& options = {}) const;

 private:
  trace::TraceStore normal_;
  trace::TraceStore faulty_;
};

}  // namespace difftrace::core
