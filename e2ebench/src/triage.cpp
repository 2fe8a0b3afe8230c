#include "triage.hpp"

#include <time.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>

#include "analyze/analyze.hpp"
#include "cli/args.hpp"
#include "cli/load.hpp"
#include "cli/ops.hpp"
#include "core/pipeline.hpp"
#include "sched/cache.hpp"

namespace e2ebench {

namespace {

namespace analyze = difftrace::analyze;
namespace cli = difftrace::cli;
namespace core = difftrace::core;
namespace sched = difftrace::sched;

cli::Args rank_args(std::size_t jobs) {
  return cli::Args({std::string("--filters=") + kFilters, "--jobs=" + std::to_string(jobs)});
}

const cli::Args& no_args() {
  static const cli::Args none(std::vector<std::string>{});
  return none;
}

std::uint64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

struct Step {
  std::string out;
  std::uint64_t ns = 0;
};

// --- the untraced CLI bodies, exactly as the commands run them -------------

Step cli_rank(const PairFiles& pair, std::size_t jobs) {
  std::ostringstream out, chatter;
  const auto start = now_ns();
  const auto normal = cli::load_tolerant(pair.normal.string(), chatter);
  const auto faulty = cli::load_tolerant(pair.faulty.string(), chatter);
  cli::rank_stores(normal.store, faulty.store, rank_args(jobs), nullptr, out, chatter);
  const auto ns = now_ns() - start;
  return {out.str(), ns};
}

Step cli_check(const PairFiles& pair) {
  std::ostringstream out, chatter;
  const auto start = now_ns();
  const auto faulty = cli::load_tolerant(pair.faulty.string(), chatter);
  cli::check_store(faulty.store, pair.faulty.string(), no_args(), "", out, chatter);
  const auto ns = now_ns() - start;
  return {out.str(), ns};
}

Step cli_diffnlr(const PairFiles& pair, const std::string& trace_label) {
  std::ostringstream out, chatter;
  const auto start = now_ns();
  const auto normal = cli::load_tolerant(pair.normal.string(), chatter);
  const auto faulty = cli::load_tolerant(pair.faulty.string(), chatter);
  const auto session = cli::make_session(normal.store, faulty.store, no_args());
  cli::render_diffnlr(*session, trace_label, no_args(), out);
  const auto ns = now_ns() - start;
  return {out.str(), ns};
}

/// The CLI check reference: the serve reference relabelled with the path
/// `difftrace check` prints.
std::string cli_check_ref(const PairFiles& pair, const PairRefs& refs) {
  const auto body = refs.check_faulty.substr(refs.check_faulty.find('\n') + 1);
  return "check " + pair.faulty.string() + "\n" + body;
}

// --- the traced decomposition ------------------------------------------------

trace::TraceStore traced_load(Tracer& tr, const fs::path& path) {
  std::ostringstream chatter;
  Tracer::Scope span(tr, "trace.load");
  return cli::load_tolerant(path.string(), chatter).store;
}

/// core::evaluate, one span per stage.
core::Evaluation traced_evaluate(Tracer& tr, const core::Session& session,
                                 const core::AttrConfig& attr, core::Linkage method) {
  core::Evaluation out;
  out.attr = attr;
  const std::size_t n = session.traces().size();
  std::vector<std::set<std::string>> attrs_normal(n);
  std::vector<std::set<std::string>> attrs_faulty(n);
  {
    Tracer::Scope span(tr, "core.attributes");
    for (std::size_t i = 0; i < n; ++i) {
      attrs_normal[i] =
          core::mine_attributes(session.normal_nlr(i), session.tokens(), session.loops(), attr);
      attrs_faulty[i] =
          core::mine_attributes(session.faulty_nlr(i), session.tokens(), session.loops(), attr);
    }
  }
  {
    Tracer::Scope span(tr, "core.jsm");
    out.jsm_normal = core::jsm_from_attributes(attrs_normal);
    out.jsm_faulty = core::jsm_from_attributes(attrs_faulty);
    out.jsm_d = core::jsm_diff(out.jsm_normal, out.jsm_faulty);
    out.scores = core::suspicion_scores(out.jsm_d);
  }
  if (n >= 2) {
    Tracer::Scope span(tr, "core.hclust");
    out.dend_normal = core::linkage(core::similarity_to_distance(out.jsm_normal), method);
    out.dend_faulty = core::linkage(core::similarity_to_distance(out.jsm_faulty), method);
    out.bscore = core::bscore(out.dend_normal, out.dend_faulty, n);
  }
  return out;
}

/// One ranking-table row, as core::sweep builds it.
core::RankingRow make_row(const core::Evaluation& eval, const std::string& filter_label,
                          const core::PipelineConfig& pipeline,
                          const std::vector<trace::TraceKey>& traces, std::size_t f,
                          std::size_t a) {
  core::RankingRow row;
  row.filter_label = filter_label;
  row.attr_label = eval.attr.name();
  row.bscore = eval.bscore;
  row.filter_index = f;
  row.attr_index = a;
  for (const auto i : core::select_suspicious(eval.scores, pipeline.top_n, pipeline.threshold_sigmas))
    row.top_threads.push_back(traces[i].label());
  std::map<int, std::pair<double, int>> per_proc;
  for (std::size_t i = 0; i < traces.size(); ++i) {
    auto& [sum, count] = per_proc[traces[i].proc];
    sum += eval.scores[i];
    ++count;
  }
  std::vector<int> procs;
  std::vector<double> proc_scores;
  for (const auto& [proc, agg] : per_proc) {
    procs.push_back(proc);
    proc_scores.push_back(agg.first / agg.second);
  }
  for (const auto i : core::select_suspicious(proc_scores, pipeline.top_n, pipeline.threshold_sigmas))
    row.top_processes.push_back(procs[i]);
  return row;
}

/// `rank` at jobs=1 rebuilt from the calls core::sweep composes: one
/// Session per filter, one evaluate per row, then the table render.
std::string traced_rank(Tracer& tr, const PairFiles& pair) {
  Tracer::Scope rank_span(tr, "rank");
  const auto normal = traced_load(tr, pair.normal);
  const auto faulty = traced_load(tr, pair.faulty);
  const auto args = rank_args(1);
  const auto filters = cli::filters_from(args);
  const auto attrs = core::all_attr_configs();
  core::PipelineConfig pipeline;
  pipeline.nlr = cli::nlr_from(args);

  std::vector<core::RankingRow> rows;
  std::vector<core::Evaluation> evals;
  for (std::size_t f = 0; f < filters.size(); ++f) {
    std::optional<core::Session> session;
    {
      Tracer::Scope span(tr, "core.session");
      session.emplace(normal, faulty, filters[f], pipeline.nlr);
    }
    evals.clear();
    for (const auto& attr : attrs) {
      Tracer::Scope span(tr, "core.evaluate");
      evals.push_back(traced_evaluate(tr, *session, attr, pipeline.linkage));
    }
    Tracer::Scope span(tr, "cli.render");
    const auto label = filters[f].name() + ".0K" + std::to_string(pipeline.nlr.k);
    for (std::size_t a = 0; a < evals.size(); ++a)
      rows.push_back(make_row(evals[a], label, pipeline, session->traces(), f, a));
  }
  Tracer::Scope span(tr, "cli.render");
  core::RankingTable table;
  table.rows = std::move(rows);
  std::sort(table.rows.begin(), table.rows.end(),
            [](const core::RankingRow& a, const core::RankingRow& b) {
              if (a.bscore != b.bscore) return a.bscore < b.bscore;
              if (a.filter_index != b.filter_index) return a.filter_index < b.filter_index;
              return a.attr_index < b.attr_index;
            });
  std::ostringstream out;
  out << table.render();
  out << "consensus suspicious trace:   " << table.consensus_thread() << "\n";
  out << "consensus suspicious process: " << table.consensus_process() << "\n";
  return out.str();
}

/// `check` with the default (replay) engine rebuilt from its public parts:
/// context build, then every registered checker.
std::string traced_check(Tracer& tr, const PairFiles& pair) {
  Tracer::Scope check_span(tr, "check");
  const auto store = traced_load(tr, pair.faulty);
  std::optional<analyze::CheckContext> ctx;
  {
    Tracer::Scope span(tr, "analyze.context");
    ctx.emplace(analyze::CheckContext::build(store));
  }
  analyze::CheckReport report;
  {
    Tracer::Scope span(tr, "analyze.checkers");
    report.streams_checked = ctx->streams().size();
    for (const auto& s : ctx->streams()) {
      report.events_checked += s.events.size();
      if (s.degraded)
        report.notes.push_back("stream " + s.key.label() + " degraded: " +
                               (s.degradation.empty() ? "partial decode" : s.degradation) +
                               " — severities that rely on its evidence are capped at warning");
    }
    for (const auto& info : analyze::available_checkers()) {
      analyze::make_checker(info.name)->run(*ctx, report);
      ++report.checkers_run;
    }
    report.sort();
  }
  Tracer::Scope span(tr, "cli.render");
  return "check " + pair.faulty.string() + "\n" + report.render();
}

std::string traced_diffnlr(Tracer& tr, const PairFiles& pair, const std::string& trace_label) {
  Tracer::Scope diff_span(tr, "diffnlr");
  const auto normal = traced_load(tr, pair.normal);
  const auto faulty = traced_load(tr, pair.faulty);
  std::shared_ptr<const core::Session> session;
  {
    Tracer::Scope span(tr, "core.session");
    session = cli::make_session(normal, faulty, no_args());
  }
  const auto key = cli::parse_trace_key(trace_label);
  core::DiffNlr diff;
  {
    Tracer::Scope span(tr, "core.diffnlr");
    diff = session->diffnlr(key);
  }
  Tracer::Scope span(tr, "cli.render");
  return "diffNLR(" + key.label() + "):\n" + diff.render(false);
}

/// Per-root sums of the spans named `name`, for every root named `root`;
/// returns their median in ms.
double median_per_root(const Tracer& tr, const std::string& root, const std::string& name) {
  const auto totals = tr.per_root_totals(name);
  Samples per_root;
  const auto& recs = tr.records();
  for (std::size_t i = 0; i < recs.size(); ++i) {
    if (recs[i].parent != -1 || recs[i].name != root) continue;
    const auto it = totals.find(i);
    per_root.add_ns(it == totals.end() ? 0 : it->second);
  }
  return per_root.median();
}

/// Deterministic work counts of one triage, computed once outside the
/// timed loop.
struct WorkCounts {
  double tokens_in = 0, items_out = 0, rows = 0, ops = 0, diagnostics = 0, edit_distance = 0,
         events_decoded = 0;
};

WorkCounts count_work(const PairFiles& pair, const std::string& trace_label) {
  WorkCounts c;
  std::ostringstream chatter;
  const auto normal = cli::load_tolerant(pair.normal.string(), chatter).store;
  const auto faulty = cli::load_tolerant(pair.faulty.string(), chatter).store;
  const auto args = rank_args(1);
  const auto nlr = cli::nlr_from(args);
  for (const auto& filter : cli::filters_from(args)) {
    const core::Session session(normal, faulty, filter, nlr);
    for (std::size_t i = 0; i < session.traces().size(); ++i) {
      c.tokens_in += static_cast<double>(core::expand_nlr(session.normal_nlr(i), session.loops()).size() +
                                         core::expand_nlr(session.faulty_nlr(i), session.loops()).size());
      c.items_out += static_cast<double>(session.normal_nlr(i).size() + session.faulty_nlr(i).size());
    }
    c.rows += static_cast<double>(core::all_attr_configs().size());
  }
  const auto ctx = analyze::CheckContext::build(faulty);
  for (const auto& s : ctx.streams()) c.ops += static_cast<double>(s.ops.size());
  c.diagnostics = static_cast<double>(analyze::run_checks(faulty).diagnostics.size());
  const auto session = cli::make_session(normal, faulty, no_args());
  c.edit_distance = static_cast<double>(session->diffnlr(cli::parse_trace_key(trace_label)).distance());
  for (const auto* store : {&normal, &faulty})
    for (const auto& key : store->keys()) c.events_decoded += static_cast<double>(store->decode(key).size());
  return c;
}

}  // namespace

void run_triage(const Env& env, const PairFiles& pair, const PairRefs& refs, double seconds,
                TriageResult& result) {
  const auto check_ref = cli_check_ref(pair, refs);
  // Warm-up after the switch from daemon traffic: checked, not timed. A CLI
  // process never switches, so its first triage here is a harness artifact.
  result.tally.check(cli_rank(pair, env.triage_jobs).out == refs.rank &&
                     cli_check(pair).out == check_ref &&
                     cli_diffnlr(pair, refs.consensus).out == refs.diff);
  const auto deadline = now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  do {
    const auto rank = cli_rank(pair, env.triage_jobs);
    result.tally.check(rank.out == refs.rank);
    result.rank.add_ns(rank.ns);
    const auto check = cli_check(pair);
    result.tally.check(check.out == check_ref);
    result.check.add_ns(check.ns);
    const auto diff = cli_diffnlr(pair, refs.consensus);
    result.tally.check(diff.out == refs.diff);
    result.diffnlr.add_ns(diff.ns);
    ++result.triages;
    result.events += pair.events;
  } while (now_ns() < deadline);
}

void run_triage_traced(const Env& env, const PairFiles& pair, const PairRefs& refs,
                       double seconds, const fs::path& scratch, Tracer& tr, Metrics& out,
                       Tally& tally) {
  const auto check_ref = cli_check_ref(pair, refs);
  const auto counts = count_work(pair, refs.consensus);
  std::ostringstream chatter;
  const auto normal = cli::load_tolerant(pair.normal.string(), chatter).store;
  const auto faulty = cli::load_tolerant(pair.faulty.string(), chatter).store;

  Samples untraced_total, rank_j1, rank_jn, cpu_util;
  const auto untraced = [&] {
    const auto rank = cli_rank(pair, 1);
    const auto check = cli_check(pair);
    const auto diff = cli_diffnlr(pair, refs.consensus);
    tally.check(rank.out == refs.rank && check.out == check_ref && diff.out == refs.diff);
    untraced_total.add_ns(rank.ns + check.ns + diff.ns);
    rank_j1.add_ns(rank.ns);
    const auto cpu_before = process_cpu_ns();
    const auto wide = cli_rank(pair, env.triage_jobs);
    const auto cpu = process_cpu_ns() - cpu_before;
    tally.check(wide.out == refs.rank);
    rank_jn.add_ns(wide.ns);
    cpu_util.add_ms(static_cast<double>(cpu) /
                    (static_cast<double>(wide.ns) * static_cast<double>(env.triage_jobs)));
  };
  const auto traced = [&](std::uint64_t request) {
    tr.begin_request(request);
    {
      Tracer::Scope root(tr, "triage");
      tally.check(traced_rank(tr, pair) == refs.rank);
      tally.check(traced_check(tr, pair) == check_ref);
      tally.check(traced_diffnlr(tr, pair, refs.consensus) == refs.diff);
    }
    Tracer::Scope probe(tr, "decode");
    for (const auto* store : {&normal, &faulty}) {
      for (const auto& key : store->keys()) {
        Tracer::Scope span(tr, "trace.decode");
        (void)store->decode(key);
      }
    }
  };

  const auto deadline = now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  std::uint64_t request = 0;
  do {
    // Alternate the order so neither side always runs on a warmer cache.
    if (request % 2 == 0) {
      traced(request);
      untraced();
    } else {
      untraced();
      traced(request);
    }
    ++request;
  } while (now_ns() < deadline || request < 3);

  // Cache fill: the same rank with an empty artifact cache vs none.
  Samples fill_overhead;
  for (int rep = 0; rep < 3; ++rep) {
    std::ostringstream none_out, fill_out;
    const auto args = rank_args(env.query_jobs);
    auto start = now_ns();
    cli::rank_stores(normal, faulty, args, nullptr, none_out, chatter);
    const auto none_ns = now_ns() - start;
    sched::Cache cache(scratch / ("fill" + std::to_string(rep)));
    start = now_ns();
    cli::rank_stores(normal, faulty, args, &cache, fill_out, chatter);
    const auto fill_ns = now_ns() - start;
    tally.check(none_out.str() == refs.rank && fill_out.str() == refs.rank);
    fill_overhead.add_ms((static_cast<double>(fill_ns) - static_cast<double>(none_ns)) / 1e6);
    cache.clear();
  }

  // Load throughput per triage: bytes read by its five archive loads over
  // the time those loads took.
  Samples load_ms;
  for (const auto& rec : tr.records())
    if (rec.name == "trace.load") load_ms.add_ns(rec.duration());
  const double bytes_per_triage = 2.0 * static_cast<double>(pair.bytes) +
                                  static_cast<double>(fs::file_size(pair.faulty));
  const double load_per_triage = median_per_root(tr, "triage", "trace.load");

  out["trace.load_ms"] = {load_ms.median(), "ms"};
  out["trace.load_mb_per_s"] = {bytes_per_triage / 1e6 / (load_per_triage / 1e3), "MB/s"};
  out["trace.decode_ms"] = {median_per_root(tr, "decode", "trace.decode"), "ms"};
  out["trace.events_decoded"] = {counts.events_decoded, "count"};
  out["core.session_ms"] = {median_per_root(tr, "triage", "core.session"), "ms"};
  out["core.nlr_tokens_in"] = {counts.tokens_in, "count"};
  out["core.nlr_items_out"] = {counts.items_out, "count"};
  out["core.nlr_reduction"] = {counts.items_out == 0 ? 0.0 : counts.tokens_in / counts.items_out, "x"};
  out["core.evaluate_ms"] = {median_per_root(tr, "triage", "core.evaluate"), "ms"};
  out["core.rows"] = {counts.rows, "count"};
  out["core.attributes_ms"] = {median_per_root(tr, "triage", "core.attributes"), "ms"};
  out["core.jsm_ms"] = {median_per_root(tr, "triage", "core.jsm"), "ms"};
  out["core.hclust_ms"] = {median_per_root(tr, "triage", "core.hclust"), "ms"};
  out["core.diffnlr_ms"] = {median_per_root(tr, "triage", "core.diffnlr"), "ms"};
  out["core.diff_edit_distance"] = {counts.edit_distance, "count"};
  out["cli.render_ms"] = {median_per_root(tr, "triage", "cli.render"), "ms"};
  out["analyze.context_ms"] = {median_per_root(tr, "triage", "analyze.context"), "ms"};
  out["analyze.checkers_ms"] = {median_per_root(tr, "triage", "analyze.checkers"), "ms"};
  out["analyze.ops_checked"] = {counts.ops, "count"};
  out["analyze.diagnostics"] = {counts.diagnostics, "count"};
  out["sched.rank_speedup"] = {rank_j1.median() / rank_jn.median(), "x"};
  out["sched.cpu_util"] = {cpu_util.median(), "fraction"};
  out["sched.cache_fill_overhead_ms"] = {fill_overhead.median(), "ms"};
  const double traced_ms = median_per_root(tr, "triage", "triage");
  out["tracing_overhead_pct"] = {(traced_ms - untraced_total.median()) / untraced_total.median() * 100.0,
                                 "%"};
}

}  // namespace e2ebench
