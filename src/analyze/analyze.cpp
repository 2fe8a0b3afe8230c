#include "analyze/analyze.hpp"

#include <memory>

#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace difftrace::analyze {

CheckReport run_checks(const trace::TraceStore& store, const CheckOptions& options) {
  obs::Span span_check("check");
  // Resolve the checker set first so an unknown name fails fast.
  std::vector<std::unique_ptr<Checker>> checkers;
  if (options.checkers.empty()) {
    for (const auto& info : available_checkers()) checkers.push_back(make_checker(info.name));
  } else {
    for (const auto& name : options.checkers) checkers.push_back(make_checker(name));
  }

  const auto ctx = CheckContext::build(store);
  CheckReport report;
  report.streams_checked = ctx.streams().size();
  for (const auto& s : ctx.streams()) {
    report.events_checked += s.events.size();
    if (s.degraded)
      report.notes.push_back("stream " + s.key.label() + " degraded: " +
                             (s.degradation.empty() ? "partial decode" : s.degradation) +
                             " — severities that rely on its evidence are capped at warning");
  }
  for (const auto& checker : checkers) {
    obs::Span span_checker(checker->name());
    checker->run(ctx, report);
    ++report.checkers_run;
  }
  report.sort();

  static auto& events = obs::counter("check.events_checked");
  static auto& diagnostics = obs::counter("check.diagnostics");
  events.add(report.events_checked);
  diagnostics.add(report.diagnostics.size());
  return report;
}

}  // namespace difftrace::analyze
