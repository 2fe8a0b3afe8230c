// CheckContext: the decoded, pre-digested view of one TraceStore that all
// checkers share. Building it does the common heavy lifting exactly once —
// tolerant decode of every stream, a call/return stack walk (open frames,
// orphan and mismatched returns), and blocked-stream classification: a
// stream whose tail leaves an MPI/OMP API frame open was inside a blocking
// runtime call when the trace ended, and the last op record annotated
// inside that frame names the operation it was waiting on.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace/op.hpp"
#include "trace/registry.hpp"
#include "trace/store.hpp"

namespace difftrace::analyze {

/// A call event whose return never arrived (still on the stack at stream end).
struct OpenFrame {
  trace::FunctionId fid = 0;
  std::uint64_t call_index = 0;
};

struct StreamInfo {
  trace::TraceKey key;
  std::vector<trace::TraceEvent> events;
  std::vector<trace::OpRecord> ops;
  bool truncated = false;  // writer frozen by the watchdog (deadlock/abort)
  bool degraded = false;   // salvaged blob or incomplete decode: evidence partial
  std::string degradation;  // why, when degraded

  // Stack-walk results.
  std::vector<OpenFrame> open_frames;              // outermost first
  std::vector<std::uint64_t> orphan_returns;       // return with empty stack
  std::vector<std::uint64_t> mismatched_returns;   // return fid != open call fid

  /// Stream ends inside a blocking runtime API (an open MpiLib/OmpLib
  /// frame, ignoring library internals nested below it).
  bool blocked = false;
  trace::FunctionId blocked_fid = 0;       // the open API function
  std::uint64_t blocked_call_index = 0;    // its call event index
  std::ptrdiff_t pending_op = -1;          // index into `ops` of the op inside it, -1 = none

  [[nodiscard]] const trace::OpRecord* pending() const noexcept {
    return pending_op >= 0 ? &ops[static_cast<std::size_t>(pending_op)] : nullptr;
  }
};

class CheckContext {
 public:
  [[nodiscard]] static CheckContext build(const trace::TraceStore& store);

  [[nodiscard]] const std::vector<StreamInfo>& streams() const noexcept { return streams_; }
  [[nodiscard]] const StreamInfo* find(trace::TraceKey key) const noexcept;
  /// Rank-level streams (thread 0), ordered by proc — where MPI traffic
  /// lives under the FUNNELED threading model.
  [[nodiscard]] std::vector<const StreamInfo*> rank_streams() const;

  /// Registry lookups that survive damaged archives: unknown ids render as
  /// "?fn<id>" / Image::Main instead of throwing.
  [[nodiscard]] std::string fn_name(trace::FunctionId fid) const;
  [[nodiscard]] trace::Image fn_image(trace::FunctionId fid) const;

  /// "main > exchange > MPI_Recv@plt > MPI_Recv"-style rendering of a
  /// stream's open frames (application path into the blocking call).
  [[nodiscard]] std::string call_path(const StreamInfo& stream) const;

  /// Any stream salvaged or incompletely decoded: match/graph evidence is
  /// partial, so checkers cap their severities at Warning.
  [[nodiscard]] bool any_degraded() const noexcept { return any_degraded_; }
  /// False when the archive predates the op side-channel entirely.
  [[nodiscard]] bool any_ops() const noexcept { return any_ops_; }

  [[nodiscard]] const trace::FunctionRegistry* registry() const noexcept {
    return registry_.get();
  }

 private:
  std::shared_ptr<const trace::FunctionRegistry> registry_;
  std::vector<StreamInfo> streams_;  // sorted by key
  bool any_degraded_ = false;
  bool any_ops_ = false;
};

}  // namespace difftrace::analyze
