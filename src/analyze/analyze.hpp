// run_checks: the `difftrace check` entry point. Builds one CheckContext
// from a TraceStore (however it was loaded — strict, tolerant, or salvaged)
// and runs the selected checkers over it, returning a sorted CheckReport.
// Deterministic and offline: same archive in, same diagnostics out.
#pragma once

#include <string>
#include <vector>

#include "analyze/checker.hpp"
#include "analyze/context.hpp"
#include "analyze/diagnostic.hpp"
#include "trace/store.hpp"

namespace difftrace::analyze {

struct CheckOptions {
  /// Checker names to run (see available_checkers()); empty = all.
  /// Unknown names throw std::invalid_argument before anything runs.
  std::vector<std::string> checkers;
};

[[nodiscard]] CheckReport run_checks(const trace::TraceStore& store,
                                     const CheckOptions& options = {});

}  // namespace difftrace::analyze
