#include "analyze/context.hpp"

#include <algorithm>

namespace difftrace::analyze {

namespace {

/// Walks one stream's call/return sequence, filling the stack-shape fields.
void walk_stack(StreamInfo& s) {
  std::vector<OpenFrame> stack;
  for (std::size_t i = 0; i < s.events.size(); ++i) {
    const auto& e = s.events[i];
    if (e.kind == trace::EventKind::Call) {
      stack.push_back({e.fid, i});
    } else if (stack.empty()) {
      s.orphan_returns.push_back(i);
    } else {
      if (stack.back().fid != e.fid) s.mismatched_returns.push_back(i);
      stack.pop_back();
    }
  }
  s.open_frames = std::move(stack);
}

std::string registry_fn_name(const trace::FunctionRegistry* registry, trace::FunctionId fid) {
  if (registry != nullptr && fid < registry->size()) return registry->name(fid);
  return "?fn" + std::to_string(fid);
}

trace::Image registry_fn_image(const trace::FunctionRegistry* registry, trace::FunctionId fid) {
  if (registry != nullptr && fid < registry->size()) return registry->info(fid).image;
  return trace::Image::Main;
}

StreamInfo build_stream_info(const trace::TraceStore& store, trace::TraceKey key) {
  StreamInfo s;
  s.key = key;
  const auto& blob = store.blob(key);
  s.ops = blob.ops;
  s.truncated = blob.truncated;
  auto decoded = store.decode_tolerant(key);
  s.events = std::move(decoded.events);
  if (!decoded.complete) {
    s.degraded = true;
    s.degradation = decoded.note;
    // Ops past the decodable prefix describe events we cannot see; drop
    // them so pending-op attribution stays inside the decoded stream.
    std::erase_if(s.ops, [&](const trace::OpRecord& op) { return op.event_index > s.events.size(); });
  }
  walk_stack(s);
  return s;
}

void classify_blocked(StreamInfo& s, const trace::FunctionRegistry* registry) {
  // Blocked classification: innermost open frame that is a runtime API
  // entry (MpiLib/OmpLib), skipping the library internals nested below it.
  for (auto it = s.open_frames.rbegin(); it != s.open_frames.rend(); ++it) {
    const auto image = registry_fn_image(registry, it->fid);
    if (image == trace::Image::Internal || image == trace::Image::SystemLib) continue;
    if (image == trace::Image::MpiLib || image == trace::Image::OmpLib) {
      s.blocked = true;
      s.blocked_fid = it->fid;
      s.blocked_call_index = it->call_index;
      // The newest op, if annotated inside the blocked frame, names the
      // pending operation (runtimes annotate just before blocking, so in
      // a multi-op call like MPI_Waitall the last one is the blocker).
      if (!s.ops.empty() && s.ops.back().event_index > s.blocked_call_index)
        s.pending_op = static_cast<std::ptrdiff_t>(s.ops.size()) - 1;
    }
    break;  // an open Main-image frame below the top means not runtime-blocked
  }
}

}  // namespace

CheckContext CheckContext::build(const trace::TraceStore& store) {
  CheckContext ctx;
  ctx.registry_ = store.registry_ptr();
  for (const auto& key : store.keys()) ctx.streams_.push_back(build_stream_info(store, key));
  std::sort(ctx.streams_.begin(), ctx.streams_.end(),
            [](const StreamInfo& a, const StreamInfo& b) { return a.key < b.key; });

  for (auto& s : ctx.streams_) {
    ctx.any_degraded_ = ctx.any_degraded_ || s.degraded;
    ctx.any_ops_ = ctx.any_ops_ || !s.ops.empty();
    classify_blocked(s, ctx.registry_.get());
  }
  return ctx;
}

const StreamInfo* CheckContext::find(trace::TraceKey key) const noexcept {
  const auto it = std::lower_bound(
      streams_.begin(), streams_.end(), key,
      [](const StreamInfo& s, const trace::TraceKey& k) { return s.key < k; });
  return it != streams_.end() && it->key == key ? &*it : nullptr;
}

std::vector<const StreamInfo*> CheckContext::rank_streams() const {
  std::vector<const StreamInfo*> out;
  for (const auto& s : streams_)
    if (s.key.thread == 0) out.push_back(&s);
  return out;
}

std::string CheckContext::fn_name(trace::FunctionId fid) const {
  return registry_fn_name(registry_.get(), fid);
}

trace::Image CheckContext::fn_image(trace::FunctionId fid) const {
  return registry_fn_image(registry_.get(), fid);
}

std::string CheckContext::call_path(const StreamInfo& stream) const {
  std::string out;
  for (const auto& frame : stream.open_frames) {
    if (!out.empty()) out += " > ";
    out += fn_name(frame.fid);
  }
  return out;
}

}  // namespace difftrace::analyze
