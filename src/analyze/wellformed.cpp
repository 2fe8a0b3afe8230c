// Stream well-formedness: every trace must be a balanced call/return
// sequence. Orphan returns (no open call) and mismatched returns (closing
// a different function than the open one) indicate a corrupted or
// mis-instrumented stream; unreturned frames at the end of a stream are
// expected in truncated/degraded traces (the watchdog froze the writer
// mid-call) but suspicious in a run that claims to have finished cleanly.
//
// Split per facts.hpp: fill_shape_facts (context.cpp's stack walk feeds it)
// extracts, diagnose_wellformed renders.
#include <string>

#include "analyze/checker.hpp"
#include "analyze/facts.hpp"

namespace difftrace::analyze {

void diagnose_wellformed(const FactsView& view, CheckReport& out) {
  for (const auto* f : view.streams()) {
    const auto& s = *f;
    // Structural damage is an Error in a verified stream; in a degraded
    // one the decoder already warned us the tail is unreliable.
    const auto structural = s.degraded ? Severity::Warning : Severity::Error;
    for (const auto& [index, fid] : s.orphan_returns) {
      out.add({.rule = "stream.orphan-return",
               .severity = structural,
               .where = s.key,
               .function = view.fn_name(fid),
               .event_index = index,
               .message = "return event with no matching call"});
    }
    for (const auto& [index, fid] : s.mismatched_returns) {
      out.add({.rule = "stream.mismatched-return",
               .severity = structural,
               .where = s.key,
               .function = view.fn_name(fid),
               .event_index = index,
               .message = "return does not close the innermost open call"});
    }
    if (s.open_frames.empty()) continue;
    if (s.truncated || s.degraded) {
      out.add({.rule = "stream.unclosed-call",
               .severity = Severity::Info,
               .where = s.key,
               .function = view.fn_name(s.open_frames.back().fid),
               .path = view.call_path(s),
               .event_index = s.open_frames.back().call_index,
               .message = "trace ends inside " + std::to_string(s.open_frames.size()) +
                          " unreturned frame(s) (" +
                          std::string(s.truncated ? "frozen by watchdog" : "degraded tail") +
                          ")"});
    } else {
      out.add({.rule = "stream.unclosed-call",
               .severity = Severity::Warning,
               .where = s.key,
               .function = view.fn_name(s.open_frames.back().fid),
               .path = view.call_path(s),
               .event_index = s.open_frames.back().call_index,
               .message = "stream from a cleanly finished run ends with " +
                          std::to_string(s.open_frames.size()) + " unreturned frame(s)"});
    }
  }
}

namespace {

class WellformedChecker final : public Checker {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "stream"; }
  [[nodiscard]] std::string_view description() const noexcept override {
    return "call/return stack balance, orphan and mismatched returns";
  }

  void run(const CheckContext& ctx, CheckReport& out) const override {
    std::vector<StreamFacts> facts(ctx.streams().size());
    std::vector<const StreamFacts*> ptrs;
    ptrs.reserve(facts.size());
    for (std::size_t i = 0; i < facts.size(); ++i) {
      fill_shape_facts(ctx.streams()[i], facts[i]);
      ptrs.push_back(&facts[i]);
    }
    diagnose_wellformed(FactsView(ctx.registry(), std::move(ptrs)), out);
  }
};

}  // namespace

std::unique_ptr<Checker> make_wellformed_checker() { return std::make_unique<WellformedChecker>(); }

}  // namespace difftrace::analyze
