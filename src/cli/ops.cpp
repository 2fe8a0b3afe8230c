#include "cli/ops.hpp"

#include <algorithm>
#include <map>

#include "analyze/analyze.hpp"
#include "cli/commands.hpp"
#include "obs/span.hpp"
#include "sched/cache.hpp"
#include "sched/pool.hpp"
#include "util/log.hpp"
#include "util/str.hpp"

namespace difftrace::cli {

namespace {

// Upper bounds of --k, --min-reps and --top (the ranges `--help` documents).
// The NLR window is the paper's K (10 or 50 there); the rest only need to
// stay far above any trace count the tool handles.
constexpr std::int64_t kMaxNlrK = 1000;
constexpr std::int64_t kMaxMinReps = 1000;
constexpr std::int64_t kMaxTop = 1000;

}  // namespace

trace::TraceKey parse_trace_key(const std::string& label) {
  const auto parts = util::split(label, '.');
  try {
    if (parts.size() == 1) return {std::stoi(parts[0]), 0};
    if (parts.size() == 2) return {std::stoi(parts[0]), std::stoi(parts[1])};
  } catch (const std::exception&) {
  }
  throw ArgError("bad trace id '" + label + "' (expected P or P.T, e.g. 6.4)");
}

core::AttrConfig parse_attr(const std::string& spec) {
  core::AttrConfig config;
  const auto parts = util::split(spec, '.');
  if (parts.size() != 2) throw ArgError("bad attribute spec '" + spec + "' (expected e.g. sing.noFreq)");
  if (parts[0] == "sing")
    config.kind = core::AttrKind::Single;
  else if (parts[0] == "doub")
    config.kind = core::AttrKind::Double;
  else
    throw ArgError("unknown attribute kind '" + parts[0] + "'");
  if (parts[1] == "actual")
    config.freq = core::FreqMode::Actual;
  else if (parts[1] == "log10")
    config.freq = core::FreqMode::Log10;
  else if (parts[1] == "noFreq")
    config.freq = core::FreqMode::NoFreq;
  else
    throw ArgError("unknown frequency mode '" + parts[1] + "'");
  return config;
}

core::Linkage parse_linkage(const std::string& name) {
  for (const auto method : core::all_linkages())
    if (name == core::linkage_name(method)) return method;
  throw ArgError("unknown linkage '" + name + "'");
}

core::NlrConfig nlr_from(const Args& args) {
  core::NlrConfig nlr;
  nlr.k = static_cast<std::size_t>(args.int_in("k", 10, 1, kMaxNlrK));
  nlr.min_reps = static_cast<std::size_t>(args.int_in("min-reps", 2, 2, kMaxMinReps));
  nlr.fold_known_bodies = args.flag("fold-known");
  return nlr;
}

std::vector<core::FilterSpec> filters_from(const Args& args) {
  std::vector<core::FilterSpec> filters;
  for (const auto& spec : util::split(args.get_or("filters", "mpiall"), ','))
    filters.push_back(parse_filter(spec));
  return filters;
}

std::size_t jobs_request_from(const Args& args) {
  const auto cap = static_cast<std::int64_t>(sched::max_jobs());
  if (args.has("jobs")) return static_cast<std::size_t>(args.int_in("jobs", 0, 0, cap));
  return static_cast<std::size_t>(args.int_in("threads", 0, 0, cap));
}

std::string cache_dir_from(const Args& args) {
  if (!args.has("cache")) return {};
  const auto dir = args.get_or("cache", "");
  return dir.empty() ? std::string(kDefaultCacheDir) : dir;
}

int rank_stores(const trace::TraceStore& normal, const trace::TraceStore& faulty, const Args& args,
                sched::Cache* cache, std::ostream& out, std::ostream& err) {
  // Phase accounting: the caller's "load" span ends before this function, so
  // the pre-sweep work (config parsing + the store-health audit) gets its
  // own depth-1 span — the manifest's phases must tile the command's wall
  // time with no dark gaps (CI gates coverage >= 0.95).
  core::SweepConfig sweep;
  {
    obs::Span span_setup("setup");
    sweep.filters = filters_from(args);
    if (const auto attrs = args.get("attrs")) {
      sweep.attributes.clear();
      for (const auto& spec : util::split(*attrs, ','))
        sweep.attributes.push_back(parse_attr(spec));
    }
    sweep.pipeline.nlr = nlr_from(args);
    sweep.pipeline.linkage = parse_linkage(args.get_or("linkage", "ward"));
    sweep.pipeline.top_n = static_cast<std::size_t>(args.int_in("top", 6, 1, kMaxTop));
    sweep.analysis_threads = jobs_request_from(args);
    sweep.cache = cache;
    for (const auto& health : core::store_health(normal, faulty))
      util::status_line(err, "[degraded] trace " + health.key.label() + ": " + health.note);
  }
  const auto table = core::sweep(normal, faulty, sweep);
  obs::Span span_render("render");
  out << table.render();
  out << "consensus suspicious trace:   " << table.consensus_thread() << "\n";
  out << "consensus suspicious process: " << table.consensus_process() << "\n";
  return 0;
}

int check_store(const trace::TraceStore& store, const std::string& label, const Args& args,
                const std::string& /*default_cache_dir*/, std::ostream& out, std::ostream& err) {
  analyze::CheckOptions options;
  if (const auto names = args.get("checkers")) {
    for (const auto& name : util::split(*names, ',')) {
      // An unknown checker is an analysis failure, not a usage error: name
      // the valid checkers and exit 1 before running anything.
      const auto known = analyze::available_checkers();
      if (std::none_of(known.begin(), known.end(),
                       [&name](const analyze::CheckerInfo& info) { return info.name == name; })) {
        std::string valid;
        for (const auto& info : known) {
          if (!valid.empty()) valid += ", ";
          valid += info.name;
        }
        err << "check: unknown checker '" << name << "' — valid checkers: " << valid << "\n";
        return 1;
      }
      options.checkers.push_back(name);
    }
  }
  const auto report = analyze::run_checks(store, options);
  out << "check " << label << "\n" << report.render();
  return report.exit_code();
}

std::shared_ptr<const core::Session> make_session(const trace::TraceStore& normal,
                                                  const trace::TraceStore& faulty,
                                                  const Args& args) {
  return std::make_shared<core::Session>(normal, faulty,
                                         parse_filter(args.get_or("filter", "mpiall")),
                                         nlr_from(args));
}

int render_diffnlr(const core::Session& session, const std::string& trace_label, const Args& args,
                   std::ostream& out) {
  const auto key = parse_trace_key(trace_label);
  obs::Span span_diff("diff");
  const auto diff = session.diffnlr(key);
  out << "diffNLR(" << key.label() << "):\n";
  if (args.flag("side-by-side"))
    out << diff.render_side_by_side();
  else
    out << diff.render(args.flag("color"));
  return 0;
}

}  // namespace difftrace::cli
