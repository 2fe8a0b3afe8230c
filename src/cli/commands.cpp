#include "cli/commands.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>

#include "analyze/analyze.hpp"
#include "apps/catalog.hpp"
#include "apps/runner.hpp"
#include "cli/load.hpp"
#include "cli/ops.hpp"
#include "simfault/injector.hpp"
#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "core/triage.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/selftrace.hpp"
#include "obs/span.hpp"
#include "sched/cache.hpp"
#include "sched/pool.hpp"
#include "trace/chaos.hpp"
#include "trace/export.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/str.hpp"
#include "util/table.hpp"

namespace difftrace::cli {

namespace {

using core::FilterSpec;

apps::FaultSpec parse_fault(const Args& args) {
  apps::FaultSpec fault;
  const auto name = args.get_or("fault", "none");
  const std::map<std::string, apps::FaultType> kinds = {
      {"none", apps::FaultType::None},
      {"swapBug", apps::FaultType::SwapBug},
      {"dlBug", apps::FaultType::DlBug},
      {"ompNoCritical", apps::FaultType::OmpNoCritical},
      {"wrongCollectiveSize", apps::FaultType::WrongCollectiveSize},
      {"wrongCollectiveOp", apps::FaultType::WrongCollectiveOp},
      {"skipLagrangeLeapFrog", apps::FaultType::SkipLagrangeLeapFrog},
  };
  const auto it = kinds.find(name);
  if (it == kinds.end()) throw ArgError("unknown fault '" + name + "'");
  fault.type = it->second;
  fault.proc = static_cast<int>(args.int_or("fault-proc", -1));
  fault.thread = static_cast<int>(args.int_or("fault-thread", -1));
  fault.iteration = static_cast<int>(args.int_or("fault-iteration", -1));
  if (fault.type != apps::FaultType::None && fault.proc < 0)
    throw ArgError("--fault requires --fault-proc");
  return fault;
}

/// Fault selection for `collect`: --plan SPEC (the unified grammar) wins;
/// the legacy --fault/--fault-* flags are converted to an equivalent plan.
simfault::FaultPlan plan_from(const Args& args) {
  if (args.has("plan")) {
    if (args.get_or("fault", "none") != "none")
      throw ArgError("--plan and --fault are mutually exclusive");
    try {
      return simfault::parse_plan(args.required("plan"));
    } catch (const simfault::PlanError& e) {
      throw ArgError(std::string("bad --plan: ") + e.what());
    }
  }
  return apps::to_fault_plan(parse_fault(args));
}

}  // namespace

FilterSpec parse_filter(const std::string& spec) {
  FilterSpec filter;
  bool any_term = false;
  for (const auto& term : util::split(spec, '+')) {
    if (term.empty()) throw ArgError("empty term in filter spec '" + spec + "'");
    if (term == "rets") {
      filter.drop_returns(false);
      continue;
    }
    if (term == "plt") {
      filter.drop_plt(false);
      continue;
    }
    if (util::starts_with(term, "cust=")) {
      filter.keep_custom(term.substr(5));
      any_term = true;
      continue;
    }
    if (term == "all") {
      any_term = true;  // keep-set stays empty = Everything
      continue;
    }
    static const std::map<std::string, core::Category> kCategories = {
        {"mpiall", core::Category::MpiAll},   {"mpicol", core::Category::MpiCollectives},
        {"mpisr", core::Category::MpiSendRecv}, {"mpiint", core::Category::MpiInternal},
        {"omp", core::Category::OmpAll},      {"ompcrit", core::Category::OmpCritical},
        {"ompmutex", core::Category::OmpMutex}, {"mem", core::Category::Memory},
        {"net", core::Category::Network},     {"poll", core::Category::Poll},
        {"string", core::Category::String},
    };
    const auto it = kCategories.find(term);
    if (it == kCategories.end()) throw ArgError("unknown filter term '" + term + "'");
    filter.keep(it->second);
    any_term = true;
  }
  if (!any_term) throw ArgError("filter spec '" + spec + "' selects nothing (use 'all' to keep everything)");
  return filter;
}

std::string usage_text() {
  return R"(difftrace — whole-program trace analysis and diffing
usage: difftrace <command> [options]

commands:
  collect --app NAME --out FILE [--nranks N] [--size N] [--workers N]
          [--iterations N] [--seed N] [--plan SPEC | --fault NAME
          --fault-proc P [--fault-thread T] [--fault-iteration I]]
          [--level {main|all}] [--codec {parlot|lz78|null}]
      run a catalog miniapp (oddeven, ilcs, lulesh, stencil, mwq, pcpipe,
      ring, redtree) under the tracer and save the trace store. --plan takes
      a fault-plan spec, e.g. 'drop@rank=1' or 'delay@rank=2,op=6,ticks=24'
      (classes: drop, dup, reorder, misroute, corrupt, skip, delay, lockhold,
      plus the app-side paper bugs swapBug, dlBug, ompNoCritical,
      wrongCollectiveSize, wrongCollectiveOp, skipLagrangeLeapFrog); the
      --fault flags are the legacy spelling of the app-side classes.
  matrix --out FILE [--apps A,B,...] [--faults SPEC;SPEC;...] [--nranks N]
         [--jobs N] [--cell-timeout-ms N] [--keep-archives DIR] [--quiet]
      run the apps x fault-plans grid: collect a clean baseline and one
      faulty run per cell (deadlocks bounded by the per-cell watchdog),
      then ask whether `rank` puts the injected rank first and whether
      `check` emits the right diagnostic class. Prints the verdict wall
      and writes a machine-readable matrix report to FILE (validate with
      tools/check_matrix.py). Faults are ';'-separated plan specs
      (default: one representative plan per class).
  info STORE [--json]
      store statistics: traces, events, compression, distinct functions.
      --json emits the same data as a machine-readable document.
  decode STORE --trace P.T [--filter SPEC]
      print the (filtered) token stream of one trace.
  nlr STORE --trace P.T [--filter SPEC] [--k N]
      print the nested-loop representation of one trace.
  rank NORMAL FAULTY [--filters SPEC,SPEC,...] [--attrs a,b,...] [--k N]
       [--linkage NAME] [--top N] [--jobs N] [--cache[=DIR]]
      filter x attribute sweep; prints the ranking table and consensus.
      --top N (1..1000, default 6) caps the suspicious traces listed per
      row. --jobs N sizes the worker pool, 0..4x the CPUs the process may
      run on (0 = default: DIFFTRACE_JOBS env if in that range, then the
      CPU count; --jobs 1 forces serial; --threads is a legacy alias).
      --cache reuses per-trace NLR and per-row evaluation artifacts from
      DIR (default .difftrace-cache). Output is byte-identical at any job
      count and any cache state.
  diffnlr NORMAL FAULTY --trace P.T [--filter SPEC] [--k N] [--color]
          [--side-by-side]
      loop-structure diff of one trace between the two runs.
  progress NORMAL FAULTY [--filter SPEC]
      per-trace progress ratios; flags the least-progressed trace.
  outliers STORE [--filter SPEC] [--attr a] [--linkage NAME]
      single-run JSM outlier analysis (no baseline needed).
  export STORE [--format {csv|json}] [--out FILE]
      export decoded traces with logical timestamps (OTF-style).
  triage NORMAL FAULTY [--filter SPEC] [--k N]
      initial bug-class triage: hang / structural-change / frequency-change.
  report NORMAL FAULTY [--filters SPEC,...] [--detail-filter SPEC]
         [--diffs N] [--side-by-side] [--jobs N] [--cache[=DIR]]
      one-shot artifact: triage + ranking + progress + top diffNLRs.
  check STORE [--checkers NAME,NAME,...] [--list]
      semantic trace verifier: call/return well-formedness, MPI send/recv
      matching, collective agreement, deadlock cycles, and lock discipline.
      exits 0 when clean, 1 when any error-severity finding exists, 3 when
      only warnings/infos were found. --list prints the available checkers.
  fsck STORE [--rescue FILE]
      integrity-check an archive; prints a per-section salvage report and
      exits non-zero if anything is damaged. --rescue writes the recovered
      store (re-framed and re-checksummed) to FILE.
  chaos STORE --out FILE [--seed N] [--fault {truncate|bitflip|dropblob|
        freeze|random}]
      write a deterministically corrupted copy of an archive (testing aid).
  stats MANIFEST
      render a run manifest (the --stats=FILE output) as human tables.
  cache {stats|clear|verify} [--cache=DIR]
      inspect or maintain the content-addressed artifact cache written by
      rank/report --cache (default directory .difftrace-cache). verify
      frame-checks every entry and exits 1 if any is damaged.
  perf export INPUT [--format {chrome|csv}] [--out FILE]
      turn telemetry into external-tool artifacts. INPUT is a run manifest
      (--stats=FILE JSON) or a self-trace archive (--self-trace output),
      auto-detected. 'chrome' (default) emits Chrome Trace Event JSON for
      chrome://tracing / Perfetto — one lane per span-tree root, per-phase
      p50/p95/p99 and the counter snapshot in the span args; 'csv' a flat
      per-phase (manifest) or per-span (self-trace) table.
  perf diff BASE HEAD [--rel-threshold F] [--abs-floor-ms F] [--json]
       [--no-selftrace] [--out FILE]
      compare two run manifests phase by phase. A phase only counts as
      changed when its wall delta exceeds BOTH the relative threshold
      (default 0.25 of base) AND the absolute floor (default 1 ms); verdicts
      are improved/regressed/unchanged/added/removed. When both manifests
      record --self-trace archives, diffNLR runs over them to localize where
      the phase structure diverged (--no-selftrace skips this). --json emits
      the machine schema validated by tools/check_manifest.py --perfdiff.
      exits 0 when no phase regressed, 3 on any regression.
  serve --socket PATH [--store DIR] [--jobs N] [--idle-timeout-ms N]
      resident trace service: owns a sharded on-disk store of ingested
      archives (DIR defaults to .difftrace-store), keeps hot decoded stores
      and NLR sessions pinned in memory, and answers line-delimited JSON
      requests (ingest, list, rank, check, diff, stats, shutdown) on a local
      socket. Answers are byte-identical to the cold CLI commands; repeated
      queries skip load/decode/NLR work. Runs until a shutdown request (or
      SIGINT/SIGTERM). Daemon chatter goes to stderr; validate response
      framing with tools/check_manifest.py --serve.
  query --socket PATH OP [operands] [--timeout-ms N] [--id ID] [--raw]
      thin client for a running serve daemon. OP is one of:
        ingest FILE [--name NAME]   add an archive to the daemon's store
        list                        ingested runs (name, crc, shard, sizes)
        rank NORMAL FAULTY [...]    ranking table (same flags as 'rank')
        check RUN [...]             semantic checks (same flags as 'check')
        diff NORMAL FAULTY --trace P.T [...]   diffNLR (flags of 'diffnlr')
        stats                       daemon counters and cache occupancy
        shutdown                    ask the daemon to exit cleanly
      RUN operands name ingested runs, not filesystem paths. Exit code is
      the server-reported code for the operation; connection failures exit
      1 after a bounded retry. --raw prints the raw response JSON line.

global flags (any command; use the '=' forms):
  --stats[=FILE]      collect a run manifest: per-phase wall/CPU spans,
                      pipeline counters, input digests, peak RSS. Written as
                      JSON to FILE, or rendered to stderr without a FILE.
  --self-trace[=FILE] record difftrace's own pipeline phases as a v2 trace
                      archive (default difftrace-selftrace.dtrc) — analyzable
                      with 'difftrace nlr', 'diffnlr', and 'fsck'.

NLR options (nlr, rank, diffnlr, triage, report, ...): --k N is the
longest loop body examined (1..1000, default 10); --min-reps N is the
repetitions that form a loop (2..1000, default 2). A value out of range
exits 2.

filter SPEC: '+'-joined terms from {mpiall, mpicol, mpisr, mpiint, omp,
ompcrit, ompmutex, mem, net, poll, string, all, cust=REGEX}; prefix terms
'rets' / 'plt' KEEP returns / @plt stubs. Example: mem+ompcrit+cust=^CPU_
)";
}

int cmd_collect(const Args& args, std::ostream& out, std::ostream& err) {
  const auto app_name = args.required("app");
  const auto path = args.required("out");
  const auto level = args.get_or("level", "main") == "all" ? instrument::CaptureLevel::AllImages
                                                           : instrument::CaptureLevel::MainImage;
  const auto codec = args.get_or("codec", "parlot");

  const auto* app = apps::find_app(app_name);
  if (!app) {
    std::string names;
    for (const auto& entry : apps::app_catalog()) {
      if (!names.empty()) names += ", ";
      names += entry.name;
    }
    throw ArgError("unknown app '" + app_name + "' (" + names + ")");
  }

  apps::AppParams params;
  params.nranks = static_cast<int>(args.int_or("nranks", 0));
  params.threads = static_cast<int>(args.int_or("workers", 0));
  // --cycles is the historical lulesh spelling; --iterations is the uniform one.
  params.iterations = static_cast<int>(args.int_or("iterations", args.int_or("cycles", 0)));
  params.size = static_cast<int>(args.int_or("size", 0));
  params.seed = static_cast<std::uint64_t>(args.int_or("seed", 42));
  params.plan = plan_from(args);

  simmpi::RankFn fn;
  try {
    fn = apps::make_rank_fn(*app, params);
  } catch (const simfault::PlanError& e) {
    throw ArgError(std::string("bad fault plan: ") + e.what());
  }
  const auto resolved = apps::resolve_params(*app, params);

  simmpi::WorldConfig world;
  world.nranks = resolved.nranks;

  // Runtime classes arm the injector for the duration of the run; app-side
  // classes were already baked into the rank program by make_rank_fn.
  std::optional<simfault::InjectorSession> session;
  if (simfault::is_runtime_class(resolved.plan.cls))
    session.emplace(resolved.plan, app->shape(resolved));

  auto run = apps::run_traced(world, fn, level, codec);

  if (run.report.deadlock) util::status_line(err, "[watchdog] " + run.report.deadlock_info);
  if (session && !session->fired())
    util::status_line(err, "[simfault] armed plan '" + resolved.plan.to_spec() + "' never fired");
  run.store.save(path);
  const auto stats = run.store.stats();
  out << "saved " << stats.trace_count << " trace(s), " << stats.total_events << " events, "
      << stats.total_compressed_bytes << " compressed bytes to " << path << "\n";
  return 0;
}

int cmd_info(const Args& args, std::ostream& out, std::ostream& err) {
  const auto store = load_store_span(args.positional_at(1, "trace-store path"), err);
  obs::Span span_render("render");
  const auto stats = store.stats();
  if (args.flag("json")) {
    util::JsonWriter json(out);
    json.begin_object();
    json.field("traces", stats.trace_count);
    json.field("events", stats.total_events);
    json.field("compressed_bytes", stats.total_compressed_bytes);
    json.field("compression_ratio", stats.compression_ratio);
    json.field("functions", store.registry().size());
    // Execution-engine context: what a sweep run with these flags/env would
    // use, plus the process-wide cache counters (nonzero when the in-process
    // harness ran cached commands earlier).
    json.field("jobs", sched::resolve_jobs(jobs_request_from(args)));
    json.field("cache_dir", cache_dir_from(args));
    json.field("cache_hits", obs::counter("sched.cache_hit").value());
    json.field("cache_misses", obs::counter("sched.cache_miss").value());
    json.key("blobs");
    json.begin_array();
    for (const auto& key : store.keys()) {
      const auto& blob = store.blob(key);
      json.begin_object();
      json.field("proc", key.proc);
      json.field("thread", key.thread);
      json.field("events", blob.event_count);
      json.field("bytes", blob.bytes.size());
      json.field("codec", blob.codec_name);
      json.field("truncated", blob.truncated);
      json.field("salvaged", blob.salvaged);
      json.end_object();
    }
    json.end_array();
    json.end_object();
    out << "\n";
    return 0;
  }
  out << "traces:             " << stats.trace_count << "\n";
  out << "events:             " << stats.total_events << "\n";
  out << "compressed bytes:   " << stats.total_compressed_bytes << "\n";
  out << "compression ratio:  " << util::format_double(stats.compression_ratio, 1) << "x\n";
  out << "distinct functions: " << store.registry().size() << "\n\n";

  util::TextTable table({"Trace", "Events", "Bytes", "Codec", "Truncated"});
  for (const auto& key : store.keys()) {
    const auto& blob = store.blob(key);
    table.add_row({key.label(), std::to_string(blob.event_count), std::to_string(blob.bytes.size()),
                   blob.codec_name, blob.truncated ? "yes" : "no"});
  }
  out << table.render();
  return 0;
}

int cmd_decode(const Args& args, std::ostream& out, std::ostream& err) {
  const auto store = load_store_span(args.positional_at(1, "trace-store path"), err);
  const auto key = parse_trace_key(args.required("trace"));
  const auto filter = parse_filter(args.get_or("filter", "all"));
  obs::Span span_decode("decode");
  for (const auto& token : filter.apply(store, key)) out << token << "\n";
  return 0;
}

int cmd_nlr(const Args& args, std::ostream& out, std::ostream& err) {
  const auto store = load_store_span(args.positional_at(1, "trace-store path"), err);
  const auto key = parse_trace_key(args.required("trace"));
  const auto filter = parse_filter(args.get_or("filter", "all"));
  obs::Span span_nlr("nlr");
  core::TokenTable tokens;
  core::LoopTable loops;
  const auto program =
      core::build_nlr(tokens.intern_all(filter.apply(store, key)), loops, nlr_from(args));
  out << core::program_to_string(program, tokens);
  for (std::size_t l = 0; l < loops.size(); ++l) {
    out << "L" << l << " = [";
    const auto& body = loops.body(l);
    for (std::size_t i = 0; i < body.size(); ++i)
      out << (i ? " " : "") << core::item_label(body[i], tokens);
    out << "]\n";
  }
  return 0;
}

int cmd_rank(const Args& args, std::ostream& out, std::ostream& err) {
  // Phase accounting: "load" spans everything up to the sweep (store loads
  // and cache setup), core::sweep opens its own span inside rank_stores, and
  // "render" covers the rest — so the manifest's depth-1 phases tile the
  // command's wall time with no dark gaps.
  std::optional<trace::TraceStore> normal, faulty;
  std::optional<sched::Cache> cache;  // outlives the sweep that borrows it
  {
    obs::Span span_load("load");
    normal = load_store(args.positional_at(1, "normal trace store"), err);
    faulty = load_store(args.positional_at(2, "faulty trace store"), err);
    if (const auto dir = cache_dir_from(args); !dir.empty()) cache.emplace(dir);
  }
  return rank_stores(*normal, *faulty, args, cache ? &*cache : nullptr, out, err);
}

int cmd_diffnlr(const Args& args, std::ostream& out, std::ostream& err) {
  const auto normal = load_store_span(args.positional_at(1, "normal trace store"), err);
  const auto faulty = load_store_span(args.positional_at(2, "faulty trace store"), err);
  const auto session = make_session(normal, faulty, args);
  return render_diffnlr(*session, args.required("trace"), args, out);
}

int cmd_progress(const Args& args, std::ostream& out, std::ostream& err) {
  const auto normal = load_store_span(args.positional_at(1, "normal trace store"), err);
  const auto faulty = load_store_span(args.positional_at(2, "faulty trace store"), err);
  const core::Session session(normal, faulty, parse_filter(args.get_or("filter", "mpiall")),
                              nlr_from(args));
  obs::Span span_progress("progress");
  util::TextTable table({"Trace", "Progress ratio"});
  const auto ratios = session.progress_ratios();
  for (std::size_t i = 0; i < ratios.size(); ++i)
    table.add_row({session.traces()[i].label(), util::format_double(ratios[i], 3)});
  out << table.render();
  if (!session.traces().empty()) {
    const auto least = session.least_progressed();
    out << "least progressed: " << session.traces()[least].label() << " (ratio "
        << util::format_double(ratios[least], 3) << ")\n";
  }
  return 0;
}

int cmd_outliers(const Args& args, std::ostream& out, std::ostream& err) {
  const auto store = load_store_span(args.positional_at(1, "trace-store path"), err);
  const auto eval = core::evaluate_single_run(
      store, parse_filter(args.get_or("filter", "mpiall")),
      parse_attr(args.get_or("attr", "sing.actual")), nlr_from(args),
      parse_linkage(args.get_or("linkage", "ward")));
  obs::Span span_render("render");
  util::TextTable table({"Trace", "Outlier score"});
  for (std::size_t i = 0; i < eval.traces.size(); ++i)
    table.add_row({eval.traces[i].label(), util::format_double(eval.outlier_scores[i], 3)});
  out << table.render();
  std::vector<std::string> labels;
  for (const auto& key : eval.traces) labels.push_back(key.label());
  out << "dendrogram:\n" << core::render_dendrogram(eval.dendrogram, eval.traces.size(), labels);
  return 0;
}

int cmd_report(const Args& args, std::ostream& out, std::ostream& err) {
  const auto normal = load_store_span(args.positional_at(1, "normal trace store"), err);
  const auto faulty = load_store_span(args.positional_at(2, "faulty trace store"), err);
  core::ReportConfig config;
  config.sweep.filters = filters_from(args);
  config.sweep.pipeline.nlr = nlr_from(args);
  config.sweep.analysis_threads = jobs_request_from(args);
  std::optional<sched::Cache> cache;  // outlives build_report's sweep
  if (const auto dir = cache_dir_from(args); !dir.empty()) {
    cache.emplace(dir);
    config.sweep.cache = &*cache;
  }
  config.detail_filter = parse_filter(args.get_or("detail-filter", args.get_or("filters", "mpiall")));
  config.diffnlr_count = static_cast<std::size_t>(args.int_or("diffs", 2));
  config.side_by_side = args.flag("side-by-side");
  out << core::build_report(normal, faulty, config).text;
  return 0;
}

int cmd_triage(const Args& args, std::ostream& out, std::ostream& err) {
  const auto normal = load_store_span(args.positional_at(1, "normal trace store"), err);
  const auto faulty = load_store_span(args.positional_at(2, "faulty trace store"), err);
  const auto report = core::triage(normal, faulty, parse_filter(args.get_or("filter", "mpiall")),
                                   nlr_from(args));
  obs::Span span_render("render");
  out << report.render();
  return 0;
}

int cmd_export(const Args& args, std::ostream& out, std::ostream& err) {
  const auto store = load_store_span(args.positional_at(1, "trace-store path"), err);
  const auto format_name = args.get_or("format", "csv");
  trace::ExportFormat format;
  if (format_name == "csv")
    format = trace::ExportFormat::Csv;
  else if (format_name == "json")
    format = trace::ExportFormat::Json;
  else
    throw ArgError("unknown export format '" + format_name + "' (csv, json)");

  obs::Span span_export("export");
  if (const auto path = args.get("out")) {
    std::ofstream file(*path, std::ios::trunc);
    if (!file) throw ArgError("cannot open output file '" + *path + "'");
    trace::export_store(store, file, format);
    out << "exported to " << *path << "\n";
  } else {
    trace::export_store(store, out, format);
  }
  return 0;
}

int cmd_check(const Args& args, std::ostream& out, std::ostream& err) {
  if (args.flag("list")) {
    util::TextTable table({"Checker", "Description"});
    for (const auto& info : analyze::available_checkers())
      table.add_row({std::string(info.name), std::string(info.description)});
    out << table.render();
    return 0;
  }
  const auto path = args.positional_at(1, "trace-store path");
  const auto store = load_store_span(path, err);
  return check_store(store, path, args, /*default_cache_dir=*/"", out, err);
}

int cmd_fsck(const Args& args, std::ostream& out, std::ostream& /*err*/) {
  const auto path = args.positional_at(1, "trace-store path");
  trace::SalvageResult result;
  try {
    obs::Span span_salvage("salvage");
    result = trace::TraceStore::salvage(path);
  } catch (const std::exception& e) {
    // salvage only throws on I/O problems (missing/unreadable file).
    throw ArgError("cannot read '" + path + "': " + e.what());
  }
  {
    obs::Span span_render("render");
    out << "fsck " << path << "\n" << result.report.render();
  }
  if (const auto rescue = args.get("rescue")) {
    obs::Span span_rescue("rescue");
    result.store.save(*rescue);
    out << "rescued store written to " << *rescue << " (" << result.store.size() << " trace(s))\n";
  }
  return result.report.ok() ? 0 : 1;
}

int cmd_chaos(const Args& args, std::ostream& out, std::ostream& /*err*/) {
  const auto path = args.positional_at(1, "trace-store path");
  const auto out_path = args.required("out");
  const auto seed = static_cast<std::uint64_t>(args.int_or("seed", 1));
  const auto fault_name = args.get_or("fault", "random");

  std::vector<std::uint8_t> archive;
  try {
    obs::Span span_load("load");
    archive = trace::chaos_read_file(path);
  } catch (const std::exception& e) {
    throw ArgError("cannot read '" + path + "': " + e.what());
  }

  obs::Span span_inject("inject");
  trace::ChaosResult result;
  if (fault_name == "random")
    result = trace::chaos_random(archive, seed);
  else if (fault_name == "truncate")
    result = trace::chaos_inject(archive, trace::ChaosFault::Truncate, seed);
  else if (fault_name == "bitflip")
    result = trace::chaos_inject(archive, trace::ChaosFault::BitFlip, seed);
  else if (fault_name == "dropblob")
    result = trace::chaos_inject(archive, trace::ChaosFault::DropBlob, seed);
  else if (fault_name == "freeze")
    result = trace::chaos_inject(archive, trace::ChaosFault::FreezeMidFlush, seed);
  else
    throw ArgError("unknown fault '" + fault_name +
                   "' (truncate, bitflip, dropblob, freeze, random)");

  trace::chaos_write_file(out_path, result.bytes);
  out << "injected " << trace::chaos_fault_name(result.fault) << " (seed " << seed << "): "
      << result.description << "\n";
  out << archive.size() << " -> " << result.bytes.size() << " bytes written to " << out_path << "\n";
  return 0;
}

int cmd_stats(const Args& args, std::ostream& out, std::ostream& /*err*/) {
  const auto path = args.positional_at(1, "manifest path (from --stats=FILE)");
  obs::RunManifest manifest;
  {
    obs::Span span_load("load");
    std::ifstream file(path);
    if (!file) throw ArgError("cannot open manifest '" + path + "'");
    std::ostringstream text;
    text << file.rdbuf();
    try {
      manifest = obs::RunManifest::from_json_text(text.str());
    } catch (const std::exception& e) {
      throw ArgError("cannot parse manifest '" + path + "': " + e.what());
    }
  }
  obs::Span span_render("render");
  out << manifest.render();
  return 0;
}

int cmd_cache(const Args& args, std::ostream& out, std::ostream& /*err*/) {
  const auto action = args.positional_at(1, "cache action (stats, clear, verify)");
  auto dir = cache_dir_from(args);
  if (dir.empty()) dir = kDefaultCacheDir;
  // One action span per subcommand ("cache/verify", ...), so cache
  // maintenance runs produce structured manifests too.
  obs::Span span_action(action);
  sched::Cache cache(dir);
  if (action == "stats") {
    const auto stats = cache.stats();
    out << "cache directory: " << cache.dir().string() << "\n";
    out << "entries:         " << stats.entries << "\n";
    out << "bytes:           " << stats.bytes << "\n";
    return 0;
  }
  if (action == "clear") {
    out << "removed " << cache.clear() << " entrie(s) from " << cache.dir().string() << "\n";
    return 0;
  }
  if (action == "verify") {
    const auto report = cache.verify();
    out << "verified " << report.checked << " entrie(s): " << report.ok << " ok, " << report.bad
        << " bad\n";
    for (const auto& name : report.bad_entries) out << "  bad: " << name << "\n";
    return report.bad == 0 ? 0 : 1;
  }
  throw ArgError("unknown cache action '" + action + "' (stats, clear, verify)");
}

namespace {

int dispatch(const std::string& command, const Args& args, std::ostream& out, std::ostream& err) {
  if (command == "collect") return cmd_collect(args, out, err);
  if (command == "matrix") return cmd_matrix(args, out, err);
  if (command == "info") return cmd_info(args, out, err);
  if (command == "decode") return cmd_decode(args, out, err);
  if (command == "nlr") return cmd_nlr(args, out, err);
  if (command == "rank") return cmd_rank(args, out, err);
  if (command == "diffnlr") return cmd_diffnlr(args, out, err);
  if (command == "progress") return cmd_progress(args, out, err);
  if (command == "outliers") return cmd_outliers(args, out, err);
  if (command == "export") return cmd_export(args, out, err);
  if (command == "triage") return cmd_triage(args, out, err);
  if (command == "report") return cmd_report(args, out, err);
  if (command == "check") return cmd_check(args, out, err);
  if (command == "fsck") return cmd_fsck(args, out, err);
  if (command == "chaos") return cmd_chaos(args, out, err);
  if (command == "stats") return cmd_stats(args, out, err);
  if (command == "cache") return cmd_cache(args, out, err);
  if (command == "perf") return cmd_perf(args, out, err);
  if (command == "serve") return cmd_serve(args, out, err);
  if (command == "query") return cmd_query(args, out, err);
  throw ArgError("unknown command '" + command + "' (see 'difftrace help')");
}

}  // namespace

int run_command(const std::vector<std::string>& argv, std::ostream& out, std::ostream& err) {
  if (argv.empty() || argv[0] == "help" || argv[0] == "--help") {
    out << usage_text();
    return 0;
  }

  int code = 0;
  bool want_stats = false;
  bool want_selftrace = false;
  std::string stats_path;
  std::string selftrace_path;
  std::vector<std::string> input_paths;
  std::uint64_t manifest_jobs = 0;
  std::string manifest_cache_dir;
  try {
    const Args args(argv);
    const auto& command = argv[0];
    want_stats = args.has("stats");
    stats_path = args.get_or("stats", "");
    want_selftrace = args.has("self-trace");
    selftrace_path = args.get_or("self-trace", "");
    if (want_selftrace && selftrace_path.empty()) selftrace_path = "difftrace-selftrace.dtrc";
    // Execution-engine provenance for the manifest: only sweep commands
    // spin up a pool, so jobs stays 0 (unrecorded) elsewhere.
    if (command == "rank" || command == "report" || command == "matrix" || command == "serve")
      manifest_jobs = sched::resolve_jobs(jobs_request_from(args));
    manifest_cache_dir = cache_dir_from(args);

    // One telemetry window per run: the process may host several in-process
    // run_command calls (tests), so start each instrumented run from zero.
    if (want_stats || want_selftrace) {
      obs::MetricsRegistry::instance().reset();
      obs::PhaseTable::instance().reset();
    }
    if (want_selftrace) obs::SelfTrace::instance().start();

    // Input digests for the manifest: positional operands that name files.
    for (std::size_t i = 1; i < args.positional().size(); ++i) {
      std::error_code ec;
      if (std::filesystem::is_regular_file(args.positional()[i], ec))
        input_paths.push_back(args.positional()[i]);
    }

    {
      // The command root span: every per-stage span nests under it, and the
      // manifest's wall time / coverage accounting is rooted here.
      obs::Span span_command(command);
      code = dispatch(command, args, out, err);
    }
  } catch (const ArgError& e) {
    util::status_line(err, std::string("error: ") + e.what());
    code = 2;
  } catch (const std::exception& e) {
    util::status_line(err, std::string("error: ") + e.what());
    code = 1;
  }

  // Telemetry epilogue — outside the root span so its own cost (CRC-32 of
  // the inputs, archive save) never pollutes the phase table.
  try {
    if (want_selftrace && obs::SelfTrace::instance().active()) {
      const auto store = obs::SelfTrace::instance().stop();
      store.save(selftrace_path);
      util::status_line(err, "[self-trace] " + std::to_string(store.size()) +
                                 " stream(s) written to " + selftrace_path);
    }
    if (want_stats) {
      auto manifest = obs::collect_manifest(argv, input_paths, code);
      manifest.jobs = manifest_jobs;
      manifest.cache_dir = manifest_cache_dir;
      // Cross-reference the archive saved above so `perf diff` can follow
      // two manifests to their self-traces and localize divergence.
      if (want_selftrace) manifest.self_trace = selftrace_path;
      if (stats_path.empty()) {
        err << manifest.render();
      } else {
        std::ofstream file(stats_path, std::ios::trunc);
        if (!file) throw std::runtime_error("cannot open stats file '" + stats_path + "'");
        manifest.write_json(file);
        util::status_line(err, "[stats] manifest written to " + stats_path);
      }
    }
  } catch (const std::exception& e) {
    util::status_line(err, std::string("error: ") + e.what());
    if (code == 0) code = 1;
  }
  return code;
}

}  // namespace difftrace::cli
