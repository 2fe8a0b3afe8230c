// The fact/diagnosis split of the checker rules.
//
// Every checker family is two stages: *fact extraction* distills one stream
// into a StreamFacts record (stack shape, lock-walk findings and order
// edges, per-channel send/recv counts, collective participation), and
// *shared diagnosis* turns the facts of all streams into diagnostics. Facts
// are extracted by walking the decoded op stream (fill_*_facts below); a
// StreamFacts record holds no decoded events, so diagnosis depends only on
// what the fills distilled.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analyze/context.hpp"
#include "analyze/diagnostic.hpp"
#include "trace/op.hpp"
#include "trace/registry.hpp"

namespace difftrace::analyze {

/// One lock-rule hit witnessed while walking a stream's ops, in walk order
/// (Unreleased entries trail).
struct LockFinding {
  enum class Kind : std::uint8_t {
    Reacquire = 0,
    UnpairedRelease = 1,
    HeldAtBarrier = 2,
    Unreleased = 3,
  };
  Kind kind = Kind::Reacquire;
  std::uint64_t event_index = 0;
  /// Lock name; for HeldAtBarrier the "', '"-joined held-lock list.
  std::string detail;
};

/// Acquisition-order edge: `second` acquired while `first` was held.
struct LockEdge {
  std::string first;
  std::string second;
  std::uint64_t event_index = 0;  // the acquire of `second`
};

/// Aggregated p2p traffic on one channel. `peer` is the destination for
/// sends and the source for recvs; the owning stream supplies the other end.
struct ChannelCount {
  int peer = -1;
  int tag = -1;
  std::uint64_t count = 0;
};

/// Everything diagnosis needs to know about one stream.
struct StreamFacts {
  trace::TraceKey key{};
  std::uint64_t event_count = 0;
  std::uint64_t op_count = 0;
  bool truncated = false;
  bool degraded = false;
  std::string degradation;

  // Stack shape (the `stream` family).
  std::vector<OpenFrame> open_frames;  // outermost first
  std::vector<std::pair<std::uint64_t, trace::FunctionId>> orphan_returns;
  std::vector<std::pair<std::uint64_t, trace::FunctionId>> mismatched_returns;

  // Blocked classification (consumed by locks and mpi).
  bool blocked = false;
  trace::FunctionId blocked_fid = 0;
  std::uint64_t blocked_call_index = 0;
  std::optional<trace::OpRecord> pending;  // op annotated inside the blocked frame

  // Lock family.
  std::vector<LockFinding> lock_findings;
  std::vector<LockEdge> lock_edges;  // discovery order; diagnosis keeps first witness

  // MPI family.
  std::vector<ChannelCount> sends;
  std::vector<ChannelCount> recvs;
  std::vector<trace::OpRecord> colls;  // CollEnter instances in op order
};

/// Fact extraction from a decoded stream. Shape must be filled first — the
/// lock and mpi fills read the blocked classification.
void fill_shape_facts(const StreamInfo& s, StreamFacts& f);
void fill_lock_facts(const StreamInfo& s, StreamFacts& f);
void fill_mpi_facts(const StreamInfo& s, StreamFacts& f);

/// The whole-archive fact view the diagnosis stage runs over — the same
/// lookups CheckContext offers, minus anything that requires decoded events.
class FactsView {
 public:
  /// `streams` must be sorted by key and outlive the view.
  FactsView(const trace::FunctionRegistry* registry, std::vector<const StreamFacts*> streams);

  [[nodiscard]] const std::vector<const StreamFacts*>& streams() const noexcept {
    return streams_;
  }
  [[nodiscard]] const StreamFacts* find(trace::TraceKey key) const noexcept;
  /// Rank-level streams (thread 0), ordered by proc.
  [[nodiscard]] std::vector<const StreamFacts*> rank_streams() const;

  [[nodiscard]] std::string fn_name(trace::FunctionId fid) const;
  [[nodiscard]] std::string call_path(const StreamFacts& f) const;

  [[nodiscard]] bool any_degraded() const noexcept { return any_degraded_; }
  [[nodiscard]] bool any_ops() const noexcept { return any_ops_; }

 private:
  const trace::FunctionRegistry* registry_ = nullptr;
  std::vector<const StreamFacts*> streams_;
  bool any_degraded_ = false;
  bool any_ops_ = false;
};

/// Diagnosis: facts in, diagnostics out. CheckReport::sort() is stable, so
/// the emission order here is part of the rendered-output contract.
void diagnose_wellformed(const FactsView& view, CheckReport& out);
void diagnose_locks(const FactsView& view, CheckReport& out);
void diagnose_mpi(const FactsView& view, CheckReport& out);

}  // namespace difftrace::analyze
