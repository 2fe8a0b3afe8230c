// `difftrace matrix` — the apps x fault-plans accuracy wall.
//
// For every selected catalog app the command collects one clean baseline
// plus one faulty run per fault plan (collection is serial: the tracer is a
// process-global singleton; every run sits under a tight per-cell watchdog
// so injected deadlocks are bounded), then grades each cell on the
// sched::Pool: does `rank` put the injected rank first, and does `check`
// emit a diagnostic from the fault class's expected family?
//
// Verdict taxonomy (per cell):
//   clean           none-column run with a clean check report
//   false-positive  none-column run where check found something
//   hang            the run deadlocked / hit the watchdog (rank & check
//                   still run over the truncated archives — that is the
//                   paper's whole point — and their results are recorded)
//   detected        rank-first AND an expected diagnostic fired
//   rank-only       rank-first, but check stayed silent
//   check-only      expected diagnostic fired, but rank missed
//   silent          neither signal (the fault is below the tracer's horizon)
//   skipped         the plan does not apply to this app (structured
//                   PlanError, no silently-armed-nothing cells)
//   failed          the app or the analysis threw
//
// Cells on deterministic apps are marked `pinned`: their verdicts are
// reproducible run-to-run and tools/check_matrix.py --golden treats a
// pinned-cell change as a regression.
#include <cctype>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "analyze/analyze.hpp"
#include "apps/catalog.hpp"
#include "apps/runner.hpp"
#include "cli/commands.hpp"
#include "cli/ops.hpp"
#include "core/pipeline.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sched/pool.hpp"
#include "simfault/injector.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/str.hpp"
#include "util/table.hpp"

namespace difftrace::cli {

namespace {

using simfault::FaultClass;
using simfault::FaultPlan;

struct MatrixCell {
  const apps::AppInfo* app = nullptr;
  FaultPlan plan;
  std::string spec;  // column label (the plan spec as given; "none" for baseline)
  bool pinned = false;

  std::string run = "pending";  // completed | hang | failed | skipped
  std::string note;
  bool fired = false;

  int consensus = -1;       // rank's consensus process, -1 when not computed
  bool rank_first = false;  // consensus == injected rank
  int check_exit = -1;
  std::vector<std::string> check_rules;
  bool check_detected = false;  // an expected-family diagnostic fired
  bool check_ok = true;         // vacuously true for trace-silent classes
  std::string verdict = "pending";

  trace::TraceStore store;
};

/// One representative plan per fault class: the 8 runtime classes plus the 6
/// app-side paper bugs. Rank 1 exists in every catalog app at default shape
/// (and is never mwq's master), iteration 1 is inside every app's loop.
std::vector<std::string> default_fault_specs() {
  return {
      "none",
      "drop@rank=1",
      "dup@rank=1",
      "reorder@rank=1",
      "misroute@rank=1",
      "corrupt@rank=1",
      "skip@rank=1,iter=1",
      "delay@rank=1,op=6,ticks=24",
      "lockhold@rank=1,ticks=16",
      "swapBug@rank=1,iter=1",
      "dlBug@rank=1,iter=1",
      "ompNoCritical@rank=1,thread=1",
      "wrongCollectiveSize@rank=1",
      "wrongCollectiveOp@rank=1",
      "skipLagrangeLeapFrog@rank=1",
  };
}

/// The diagnostic family `check` is expected to raise for a fault class. An
/// empty set means the class is latent or below the tracer's horizon (the
/// trace records calls, not payload bytes or mailbox contents): check_ok is
/// then vacuous and detection rides on `rank` alone.
const std::set<std::string>& expected_rules(FaultClass cls) {
  // Starvation-shaped faults: the victim (or the whole job) blocks, so any
  // of the unmatched/deadlock/stall family counts as the right call.
  static const std::set<std::string> kStarve = {
      "mpi.deadlock-cycle", "mpi.unmatched-recv",    "mpi.unmatched-send",
      "mpi.collective-mismatch", "mpi.collective-stall", "stream.unclosed-call",
  };
  static const std::set<std::string> kWrongOp = {"mpi.collective-op-mismatch"};
  static const std::set<std::string> kNone;
  switch (cls) {
    case FaultClass::Drop:
    case FaultClass::Reorder:
    case FaultClass::Misroute:
    case FaultClass::SkipIter:
    case FaultClass::DlBug:
    case FaultClass::WrongCollectiveSize:
    case FaultClass::SkipLagrangeLeapFrog:
      return kStarve;
    case FaultClass::WrongCollectiveOp:
      return kWrongOp;
    default:
      return kNone;
  }
}

/// Structured inapplicability checks the catalog cannot express: these turn
/// would-be armed-but-inert cells into explicit skips.
std::optional<std::string> skip_reason(const apps::AppInfo& app, const FaultPlan& plan) {
  if (plan.cls == FaultClass::LockHold && !app.hybrid)
    return "lockhold needs simomp critical sections (non-hybrid app)";
  return std::nullopt;
}

void collect_cell(MatrixCell& cell, int nranks_override, int timeout_ms) {
  apps::AppParams params;
  params.nranks = nranks_override;
  params.plan = cell.plan;

  if (const auto reason = skip_reason(*cell.app, cell.plan)) {
    cell.run = cell.verdict = "skipped";
    cell.note = *reason;
    return;
  }

  simmpi::RankFn fn;
  try {
    fn = apps::make_rank_fn(*cell.app, params);
  } catch (const simfault::PlanError& e) {
    cell.run = cell.verdict = "skipped";
    cell.note = e.what();
    return;
  }
  const auto resolved = apps::resolve_params(*cell.app, params);

  simmpi::WorldConfig world;
  world.nranks = resolved.nranks;
  // The per-cell watchdog: poll fast, bound the wall clock, so DlBug-class
  // injections resolve to `hang` verdicts instead of stalling the grid.
  world.watchdog_poll = std::chrono::milliseconds(5);
  world.wall_timeout = std::chrono::milliseconds(timeout_ms);

  std::optional<simfault::InjectorSession> session;
  if (simfault::is_runtime_class(resolved.plan.cls))
    session.emplace(resolved.plan, cell.app->shape(resolved));

  try {
    auto run = apps::run_traced(world, fn);
    cell.store = std::move(run.store);
    if (run.report.deadlock) {
      cell.run = "hang";
      cell.note = run.report.deadlock_info;
      obs::counter("matrix.hangs").add();
    } else if (!run.report.all_completed()) {
      cell.run = "failed";
      for (const auto& r : run.report.ranks)
        if (!r.error.empty()) {
          cell.note = r.error;
          break;
        }
    } else {
      cell.run = "completed";
    }
  } catch (const std::exception& e) {
    cell.run = "failed";
    cell.note = e.what();
  }
  if (session) cell.fired = session->fired();
  if (cell.run == "failed") cell.verdict = "failed";
}

void grade_cell(MatrixCell& cell, const trace::TraceStore* baseline) {
  if (cell.run == "skipped" || cell.run == "failed") return;

  const auto report = analyze::run_checks(cell.store);
  cell.check_exit = report.exit_code();
  std::set<std::string> rules;
  for (const auto& diagnostic : report.diagnostics) rules.insert(diagnostic.rule);
  cell.check_rules.assign(rules.begin(), rules.end());

  if (cell.plan.cls == FaultClass::None) {
    cell.verdict = cell.check_exit == 0 ? "clean" : "false-positive";
    return;
  }

  const auto& expected = expected_rules(cell.plan.cls);
  for (const auto& rule : cell.check_rules)
    if (expected.count(rule)) cell.check_detected = true;
  cell.check_ok = expected.empty() || cell.check_detected;

  if (baseline != nullptr && baseline->size() > 0 && cell.store.size() > 0) {
    core::SweepConfig config;
    // The paper-default MPI view plus the catch-all view: delay/lock-hold
    // injections surface as non-MPI scopes the mpiall filter would drop.
    config.filters = {parse_filter("mpiall"), parse_filter("all")};
    config.analysis_threads = 1;  // the grid itself is the parallel axis
    const auto table = core::sweep(*baseline, cell.store, config);
    cell.consensus = table.consensus_process();
    cell.rank_first = cell.plan.rank >= 0 && cell.consensus == cell.plan.rank;
  }

  if (cell.run == "hang") {
    // Injected deadlocks always resolve to `hang`; rank/check results over
    // the truncated archives are recorded alongside, not folded in.
    cell.verdict = "hang";
    return;
  }
  if (cell.rank_first && cell.check_detected)
    cell.verdict = "detected";
  else if (cell.rank_first)
    cell.verdict = "rank-only";
  else if (cell.check_detected)
    cell.verdict = "check-only";
  else
    cell.verdict = "silent";
}

std::string verdict_glyph(const std::string& verdict) {
  if (verdict == "clean") return ".";
  if (verdict == "false-positive") return "F";
  if (verdict == "detected") return "D";
  if (verdict == "rank-only") return "R";
  if (verdict == "check-only") return "C";
  if (verdict == "hang") return "H";
  if (verdict == "silent") return "-";
  if (verdict == "skipped") return " ";
  return "!";  // failed / pending
}

std::string archive_name(const MatrixCell& cell) {
  std::string name = std::string(cell.app->name) + "-" + cell.spec;
  for (auto& c : name)
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '-') c = '_';
  return name + ".dtrc";
}

void write_report(std::ostream& os, const std::vector<const apps::AppInfo*>& selected,
                  const std::vector<std::string>& columns, const std::vector<MatrixCell>& cells,
                  std::size_t jobs, int timeout_ms) {
  util::JsonWriter json(os);
  json.begin_object();
  json.field("matrix_version", 1);
  json.field("generator", "difftrace matrix");
  json.field("jobs", static_cast<std::uint64_t>(jobs));
  json.field("cell_timeout_ms", timeout_ms);
  json.key("apps");
  json.begin_array();
  for (const auto* app : selected) json.value(app->name);
  json.end_array();
  json.key("faults");
  json.begin_array();
  for (const auto& spec : columns) json.value(spec);
  json.end_array();

  std::uint64_t hangs = 0, skipped = 0, failed = 0, detected = 0, rank_first = 0, check_ok = 0;
  json.key("cells");
  json.begin_array();
  for (const auto& cell : cells) {
    json.begin_object();
    json.field("app", cell.app->name);
    json.field("fault", simfault::fault_class_name(cell.plan.cls));
    json.field("spec", cell.spec);
    json.field("pinned", cell.pinned);
    json.field("run", cell.run);
    json.field("fired", cell.fired);
    json.field("injected_rank", cell.plan.rank);
    json.field("consensus", cell.consensus);
    json.field("rank_first", cell.rank_first);
    json.field("check_exit", cell.check_exit);
    json.key("check_rules");
    json.begin_array();
    for (const auto& rule : cell.check_rules) json.value(rule);
    json.end_array();
    json.field("check_ok", cell.check_ok);
    json.field("verdict", cell.verdict);
    if (!cell.note.empty()) json.field("note", cell.note);
    json.end_object();

    if (cell.run == "hang") ++hangs;
    if (cell.run == "skipped") ++skipped;
    if (cell.run == "failed") ++failed;
    if (cell.verdict == "detected") ++detected;
    if (cell.rank_first) ++rank_first;
    if (cell.run == "completed" || cell.run == "hang") {
      if (cell.check_ok) ++check_ok;
    }
  }
  json.end_array();

  json.key("summary");
  json.begin_object();
  json.field("cells", static_cast<std::uint64_t>(cells.size()));
  json.field("hangs", hangs);
  json.field("skipped", skipped);
  json.field("failed", failed);
  json.field("detected", detected);
  json.field("rank_first", rank_first);
  json.field("check_ok", check_ok);
  json.end_object();
  json.end_object();
  os << "\n";
}

}  // namespace

int cmd_matrix(const Args& args, std::ostream& out, std::ostream& err) {
  const auto out_path = args.required("out");
  const int timeout_ms = static_cast<int>(args.int_or("cell-timeout-ms", 10000));
  if (timeout_ms <= 0) throw ArgError("--cell-timeout-ms must be positive");
  const int nranks_override = static_cast<int>(args.int_or("nranks", 0));
  const auto jobs = sched::resolve_jobs(jobs_request_from(args));
  const auto keep_dir = args.get_or("keep-archives", "");
  const bool quiet = args.flag("quiet");

  std::vector<const apps::AppInfo*> selected;
  if (args.has("apps")) {
    for (const auto& name : util::split(args.required("apps"), ',')) {
      const auto* app = apps::find_app(name);
      if (!app) throw ArgError("unknown app '" + name + "' in --apps");
      selected.push_back(app);
    }
  } else {
    for (const auto& app : apps::app_catalog()) selected.push_back(&app);
  }
  if (selected.empty()) throw ArgError("--apps selects nothing");

  std::vector<std::string> columns;
  std::vector<FaultPlan> plans;
  const auto specs = args.has("faults") ? util::split(args.required("faults"), ';')
                                        : default_fault_specs();
  for (const auto& spec : specs) {
    if (spec.empty()) continue;
    FaultPlan plan;
    if (spec != "none") {
      try {
        plan = simfault::parse_plan(spec);
      } catch (const simfault::PlanError& e) {
        throw ArgError("bad fault spec '" + spec + "': " + e.what());
      }
    }
    columns.push_back(spec);
    plans.push_back(plan);
  }
  if (columns.empty()) throw ArgError("--faults selects nothing");

  std::vector<MatrixCell> cells;
  cells.reserve(selected.size() * columns.size());
  for (const auto* app : selected)
    for (std::size_t c = 0; c < columns.size(); ++c) {
      MatrixCell cell;
      cell.app = app;
      cell.plan = plans[c];
      cell.spec = columns[c];
      cell.pinned = app->deterministic;
      cells.push_back(std::move(cell));
    }
  obs::counter("matrix.cells").add(cells.size());

  // Collection is serial: the tracer is a process-global singleton, and
  // serial collection is what keeps archives byte-stable for pinning.
  {
    obs::Span span_collect("collect");
    for (auto& cell : cells) {
      obs::Span span_cell(std::string(cell.app->name) + ":" + cell.spec);
      collect_cell(cell, nranks_override, timeout_ms);
      if (!quiet)
        util::status_line(err, "[matrix] " + std::string(cell.app->name) + " x " + cell.spec +
                                   ": " + cell.run);
    }
  }

  // Each app's none-column store is the baseline its faulty cells diff
  // against.
  const auto ncols = columns.size();
  std::vector<const trace::TraceStore*> baselines(cells.size(), nullptr);
  for (std::size_t a = 0; a < selected.size(); ++a) {
    const trace::TraceStore* baseline = nullptr;
    for (std::size_t c = 0; c < ncols; ++c) {
      const auto& cell = cells[a * ncols + c];
      if (cell.plan.cls == FaultClass::None && cell.run == "completed") {
        baseline = &cell.store;
        break;
      }
    }
    for (std::size_t c = 0; c < ncols; ++c) baselines[a * ncols + c] = baseline;
  }

  // Grading (rank sweep + check per cell) fans out on the pool; each cell's
  // sweep runs serially so the grid is the one parallel axis.
  {
    obs::Span span_analyze("analyze");
    sched::Pool pool(jobs);
    pool.parallel_for(cells.size(), [&](std::size_t i) {
      try {
        grade_cell(cells[i], baselines[i]);
      } catch (const std::exception& e) {
        cells[i].run = cells[i].verdict = "failed";
        cells[i].note = e.what();
      }
    });
  }

  for (const auto& cell : cells) {
    if (cell.rank_first) obs::counter("matrix.rank_first").add();
    if (cell.run == "skipped") obs::counter("matrix.skipped").add();
    if ((cell.run == "completed" || cell.run == "hang") && cell.check_ok)
      obs::counter("matrix.check_ok").add();
  }

  obs::Span span_render("render");

  if (!keep_dir.empty()) {
    std::filesystem::create_directories(keep_dir);
    for (const auto& cell : cells)
      if (cell.store.size() > 0)
        cell.store.save((std::filesystem::path(keep_dir) / archive_name(cell)).string());
  }

  // The wall: faults down, apps across, one glyph per cell.
  std::vector<std::string> header{"fault \\ app"};
  for (const auto* app : selected) header.emplace_back(app->name);
  util::TextTable table(header);
  for (std::size_t c = 0; c < ncols; ++c) {
    std::vector<std::string> row{columns[c]};
    for (std::size_t a = 0; a < selected.size(); ++a)
      row.push_back(verdict_glyph(cells[a * ncols + c].verdict));
    table.add_row(std::move(row));
  }
  out << table.render();
  out << "\nD detected   R rank-only   C check-only   H hang   - silent\n"
      << ". clean      F false-positive   ! failed   (blank) not applicable\n\n";

  std::uint64_t detected = 0, hangs = 0, skipped = 0, failed = 0;
  for (const auto& cell : cells) {
    if (cell.verdict == "detected") ++detected;
    if (cell.run == "hang") ++hangs;
    if (cell.run == "skipped") ++skipped;
    if (cell.run == "failed") ++failed;
  }
  out << "matrix: " << cells.size() << " cells (" << selected.size() << " apps x " << ncols
      << " faults), " << detected << " detected, " << hangs << " hang, " << skipped
      << " skipped, " << failed << " failed\n";

  std::ofstream file(out_path, std::ios::trunc);
  if (!file) throw ArgError("cannot open matrix report '" + out_path + "'");
  write_report(file, selected, columns, cells, jobs, timeout_ms);
  out << "report written to " << out_path << "\n";
  return failed > 0 ? 1 : 0;
}

}  // namespace difftrace::cli
