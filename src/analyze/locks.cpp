// Lock-discipline checker over the simomp op records:
//
//  * order cycles — thread A takes lock x then y while thread B (same
//    process: criticals are per-process) takes y then x. Classic ABBA;
//    pending acquisitions count, so a frozen mid-deadlock trace shows the
//    inversion even though neither thread got both locks.
//  * held-across-barrier — entering a team barrier while holding a lock:
//    any teammate that needs the lock before its own barrier call can
//    never arrive, so the barrier (and the region) may never complete.
//  * re-acquire — taking a lock the thread already holds self-deadlocks a
//    non-recursive critical section.
//  * unreleased / unpaired release — balance violations, reported only for
//    streams that finished cleanly (a frozen trace legitimately ends with
//    locks held).
//
// Split per facts.hpp: fill_lock_facts walks one stream's ops and records
// findings/edges; diagnose_locks renders findings and hunts order cycles
// across streams.
#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analyze/checker.hpp"
#include "analyze/facts.hpp"

namespace difftrace::analyze {

namespace {

using trace::OpCode;
using trace::OpRecord;

}  // namespace

void fill_lock_facts(const StreamInfo& s, StreamFacts& f) {
  f.lock_findings.clear();
  f.lock_edges.clear();
  std::vector<const OpRecord*> held;  // acquisition order, completed acquires
  for (std::size_t i = 0; i < s.ops.size(); ++i) {
    const auto& op = s.ops[i];
    const bool pending = s.blocked && s.pending() == &op;
    if (op.code == OpCode::LockAcquire) {
      const bool already_held = std::any_of(
          held.begin(), held.end(), [&op](const OpRecord* h) { return h->detail == op.detail; });
      if (already_held)
        f.lock_findings.push_back(
            {LockFinding::Kind::Reacquire, op.event_index, op.detail});
      for (const auto* h : held) f.lock_edges.push_back({h->detail, op.detail, op.event_index});
      if (!pending) held.push_back(&op);  // a pending acquire was never granted
    } else if (op.code == OpCode::LockRelease) {
      const auto it = std::find_if(held.rbegin(), held.rend(),
                                   [&op](const OpRecord* h) { return h->detail == op.detail; });
      if (it == held.rend()) {
        f.lock_findings.push_back(
            {LockFinding::Kind::UnpairedRelease, op.event_index, op.detail});
      } else {
        held.erase(std::next(it).base());
      }
    } else if (op.code == OpCode::ThreadBarrier && !held.empty()) {
      std::string names;
      for (const auto* h : held) {
        if (!names.empty()) names += "', '";
        names += h->detail;
      }
      f.lock_findings.push_back(
          {LockFinding::Kind::HeldAtBarrier, op.event_index, std::move(names)});
    }
  }
  // Locks still held at the end of a stream that finished cleanly.
  if (!s.truncated && !s.degraded && !s.blocked)
    for (const auto* h : held)
      f.lock_findings.push_back({LockFinding::Kind::Unreleased, h->event_index, h->detail});
}

void diagnose_locks(const FactsView& view, CheckReport& out) {
  // Acquisition-order edges per process: held-lock -> next-lock, with the
  // stream and op that witnessed the pair (first witness wins).
  struct Witness {
    trace::TraceKey key;
    std::uint64_t event_index = 0;
  };
  std::map<int, std::map<std::pair<std::string, std::string>, Witness>> order;

  for (const auto* f : view.streams()) {
    for (const auto& finding : f->lock_findings) {
      switch (finding.kind) {
        case LockFinding::Kind::Reacquire:
          out.add({.rule = "lock.reacquire",
                   .severity = Severity::Error,
                   .where = f->key,
                   .function = "GOMP_critical_start",
                   .event_index = finding.event_index,
                   .message = "lock '" + finding.detail +
                              "' acquired while already held — self-deadlock on a "
                              "non-recursive critical section"});
          break;
        case LockFinding::Kind::UnpairedRelease:
          out.add({.rule = "lock.unpaired-release",
                   .severity = Severity::Warning,
                   .where = f->key,
                   .function = "GOMP_critical_end",
                   .event_index = finding.event_index,
                   .message =
                       "release of lock '" + finding.detail + "' that this thread does not hold"});
          break;
        case LockFinding::Kind::HeldAtBarrier:
          out.add({.rule = "lock.held-at-barrier",
                   .severity = Severity::Error,
                   .where = f->key,
                   .function = "GOMP_barrier",
                   .event_index = finding.event_index,
                   .message = "thread enters the team barrier holding lock(s) '" + finding.detail +
                              "' — teammates contending for them can never reach the barrier"});
          break;
        case LockFinding::Kind::Unreleased:
          out.add({.rule = "lock.unreleased",
                   .severity = Severity::Warning,
                   .where = f->key,
                   .function = "GOMP_critical_start",
                   .event_index = finding.event_index,
                   .message = "lock '" + finding.detail + "' is never released"});
          break;
      }
    }
    for (const auto& edge : f->lock_edges)
      order[f->key.proc].try_emplace({edge.first, edge.second},
                                     Witness{f->key, edge.event_index});
  }

  // Order inversions: x-before-y and y-before-x both witnessed in the
  // same process. Report each unordered pair once, from both witnesses.
  for (const auto& [proc, edges] : order) {
    std::set<std::pair<std::string, std::string>> reported;
    for (const auto& [pair, witness] : edges) {
      const auto reverse = std::make_pair(pair.second, pair.first);
      const auto it = edges.find(reverse);
      if (it == edges.end()) continue;
      auto canon = std::minmax(pair.first, pair.second);
      if (!reported.insert({canon.first, canon.second}).second) continue;
      out.add({.rule = "lock.order-cycle",
               .severity = Severity::Error,
               .where = witness.key,
               .function = "GOMP_critical_start",
               .event_index = witness.event_index,
               .message = "inconsistent lock order in process " + std::to_string(proc) +
                          ": '" + pair.first + "' taken before '" + pair.second + "' (thread " +
                          std::to_string(witness.key.thread) + ") but '" + pair.second +
                          "' before '" + pair.first + "' (thread " +
                          std::to_string(it->second.key.thread) + ") — ABBA deadlock risk"});
    }
  }
}

namespace {

class LockChecker final : public Checker {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "locks"; }
  [[nodiscard]] std::string_view description() const noexcept override {
    return "lock acquisition order and held-across-barrier discipline";
  }

  void run(const CheckContext& ctx, CheckReport& out) const override {
    std::vector<StreamFacts> facts(ctx.streams().size());
    std::vector<const StreamFacts*> ptrs;
    ptrs.reserve(facts.size());
    for (std::size_t i = 0; i < facts.size(); ++i) {
      fill_shape_facts(ctx.streams()[i], facts[i]);
      fill_lock_facts(ctx.streams()[i], facts[i]);
      ptrs.push_back(&facts[i]);
    }
    diagnose_locks(FactsView(ctx.registry(), std::move(ptrs)), out);
  }
};

}  // namespace

std::unique_ptr<Checker> make_lock_checker() { return std::make_unique<LockChecker>(); }

}  // namespace difftrace::analyze
