// MPI semantics checker, run over the op side-channel (trace/op.hpp):
//
//  * p2p matching — every posted receive needs a matching send (counted by
//    (src, dst, tag)); a *blocked* rank whose pending receive has no send
//    is direct deadlock evidence, anchored at the exact rank and function.
//  * collectives — simmpi (like MPI) matches collectives by call order per
//    rank, so instance i is simply each rank's i-th collective op. Ranks
//    disagreeing structurally (type/count/dtype/root) at the same instance
//    hang the job; disagreeing only on the reduction op completes with
//    divergent results (the paper's silent wrong-op fault) — a Warning.
//    A rank blocked alone in an instance other ranks never reach is a
//    straggler stall (the skipped-phase faults).
//  * wait-for graph — blocked ranks point at the ranks that could unblock
//    them; a cycle is a deadlock, reported by walking it rank by rank.
//
// All severities are capped at Warning when the archive is degraded
// (salvaged or truncated-undecodable blobs): missing op records make the
// counts above one-sided, so absence-of-match is no longer proof.
//
// Split per facts.hpp: fill_mpi_facts aggregates one stream's channel
// counts and collective participation; diagnose_mpi does the cross-rank
// matching.
#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>

#include "analyze/checker.hpp"
#include "analyze/facts.hpp"

namespace difftrace::analyze {

namespace {

using trace::OpCode;
using trace::OpRecord;

[[nodiscard]] bool is_send_post(OpCode c) noexcept {
  return c == OpCode::SendPost || c == OpCode::IsendPost;
}
[[nodiscard]] bool is_recv_post(OpCode c) noexcept {
  return c == OpCode::RecvPost || c == OpCode::IrecvPost;
}
[[nodiscard]] bool is_recv_wait(OpCode c) noexcept {
  return c == OpCode::RecvPost || c == OpCode::WaitRecv;
}

/// Structural agreement for collective matching — mirrors simmpi's
/// CollParams::structurally_equal (reduction op deliberately excluded).
[[nodiscard]] bool coll_equal(const OpRecord& a, const OpRecord& b) noexcept {
  return a.coll == b.coll && a.dtype == b.dtype && a.count == b.count && a.peer == b.peer;
}

/// Full payload agreement (anchor excluded) — the repeat-instance test of
/// the clean fast path below.
[[nodiscard]] bool coll_payload_equal(const OpRecord& a, const OpRecord& b) noexcept {
  return coll_equal(a, b) && a.redop == b.redop && a.detail == b.detail;
}

[[nodiscard]] std::string coll_desc(const OpRecord& op) {
  std::string out = op.detail.empty() ? "collective" : op.detail;
  out += "(count=" + std::to_string(op.count) + ")";
  return out;
}

struct Channel {  // (src, dst, tag)
  int src = 0;
  int dst = 0;
  int tag = 0;
  [[nodiscard]] auto operator<=>(const Channel&) const = default;
};

template <typename Cap>
void check_p2p(const FactsView& view, const std::vector<const StreamFacts*>& ranks, Cap cap,
               CheckReport& out) {
  std::map<Channel, std::uint64_t> sends;
  std::map<Channel, std::uint64_t> recvs;
  for (const auto* f : ranks) {
    for (const auto& c : f->sends) sends[{f->key.proc, c.peer, c.tag}] += c.count;
    for (const auto& c : f->recvs) recvs[{c.peer, f->key.proc, c.tag}] += c.count;
  }

  // Blocked ranks first: a pending receive with no send to consume is the
  // sharpest diagnostic the checker can make — rank, function, peer, tag.
  std::set<Channel> reported;
  for (const auto* f : ranks) {
    const auto* pending = f->blocked && f->pending ? &*f->pending : nullptr;
    if (pending == nullptr || !is_recv_wait(pending->code)) continue;
    const Channel ch{pending->peer, f->key.proc, pending->tag};
    const auto sent = sends.count(ch) != 0 ? sends.at(ch) : 0;
    if (recvs[ch] <= sent) continue;  // a send exists; the waitgraph explains the block
    reported.insert(ch);
    out.add({.rule = "mpi.unmatched-recv",
             .severity = cap(Severity::Error),
             .where = f->key,
             .function = view.fn_name(f->blocked_fid),
             .path = view.call_path(*f),
             .event_index = pending->event_index,
             .message = "rank " + std::to_string(f->key.proc) +
                        " is blocked waiting for a message from rank " +
                        std::to_string(pending->peer) + " tag " + std::to_string(pending->tag) +
                        ", but no matching send was ever posted"});
  }

  // Remaining surpluses, both directions, reported once per channel.
  for (const auto& [ch, nrecv] : recvs) {
    const auto nsent = sends.count(ch) != 0 ? sends.at(ch) : 0;
    if (nrecv > nsent && reported.count(ch) == 0)
      out.add({.rule = "mpi.unmatched-recv",
               .severity = cap(Severity::Warning),
               .where = {ch.dst, 0},
               .message = std::to_string(nrecv - nsent) + " receive(s) from rank " +
                          std::to_string(ch.src) + " tag " + std::to_string(ch.tag) +
                          " with no matching send"});
  }
  for (const auto& [ch, nsent] : sends) {
    const auto nrecv = recvs.count(ch) != 0 ? recvs.at(ch) : 0;
    if (nsent > nrecv)
      out.add({.rule = "mpi.unmatched-send",
               .severity = cap(Severity::Warning),
               .where = {ch.src, 0},
               .message = std::to_string(nsent - nrecv) + " send(s) to rank " +
                          std::to_string(ch.dst) + " tag " + std::to_string(ch.tag) +
                          " never received"});
  }
}

/// Each rank's ordered collective ops; `pending` marks a last entry the
/// rank is still blocked in (joined but not completed).
struct CollSeq {
  const StreamFacts* f = nullptr;
  std::vector<const OpRecord*> entered;
  bool last_pending = false;
};

[[nodiscard]] std::vector<CollSeq> coll_sequences(const std::vector<const StreamFacts*>& ranks) {
  std::vector<CollSeq> seqs;
  for (const auto* f : ranks) {
    CollSeq seq;
    seq.f = f;
    seq.entered.reserve(f->colls.size());
    for (const auto& op : f->colls) seq.entered.push_back(&op);
    seq.last_pending = f->blocked && f->pending && f->pending->code == OpCode::CollEnter &&
                       !seq.entered.empty();
    seqs.push_back(std::move(seq));
  }
  return seqs;
}

/// The modal structural param set among the ranks present at instance i.
[[nodiscard]] const OpRecord* majority(const std::vector<const CollSeq*>& at, std::size_t i) {
  const OpRecord* best = at.front()->entered[i];
  std::size_t best_votes = 0;
  for (const auto* candidate_seq : at) {
    const auto* candidate = candidate_seq->entered[i];
    std::size_t votes = 0;
    for (const auto* seq : at)
      if (coll_equal(*seq->entered[i], *candidate)) ++votes;
    if (votes > best_votes) {
      best_votes = votes;
      best = candidate;
    }
  }
  return best;
}

/// True when instance i has the same participants and per-rank payloads as
/// instance i-1 — iterative codes repeat one collective schedule, so this
/// is the common case by far.
[[nodiscard]] bool repeats_previous_instance(const std::vector<CollSeq>& seqs, std::size_t i) {
  for (const auto& seq : seqs) {
    const bool now = seq.entered.size() > i;
    const bool before = seq.entered.size() > i - 1;
    if (now != before) return false;
    if (now && !coll_payload_equal(*seq.entered[i], *seq.entered[i - 1])) return false;
  }
  return true;
}

template <typename Cap>
void check_collectives(const FactsView& view, const std::vector<const StreamFacts*>& ranks,
                       Cap cap, CheckReport& out) {
  const auto seqs = coll_sequences(ranks);
  std::size_t max_len = 0;
  for (const auto& seq : seqs) max_len = std::max(max_len, seq.entered.size());

  bool prev_clean = false;
  for (std::size_t i = 0; i < max_len; ++i) {
    // Fast path: an instance whose participation and payloads repeat a
    // clean predecessor emits exactly what the predecessor did — nothing.
    if (prev_clean && i > 0 && repeats_previous_instance(seqs, i)) continue;
    const auto before = out.diagnostics.size();
    [&] {
      // Majority params at instance i define the expectation; structural
      // dissenters are the bug (wrong count / wrong collective / wrong root).
      std::vector<const CollSeq*> at;
      for (const auto& seq : seqs)
        if (seq.entered.size() > i) at.push_back(&seq);
      if (at.size() < 2) return;
      const auto* reference = majority(at, i);
      bool structural_mismatch = false;
      for (const auto* seq : at) {
        const auto& op = *seq->entered[i];
        if (coll_equal(op, *reference)) continue;
        structural_mismatch = true;
        out.add({.rule = "mpi.collective-mismatch",
                 .severity = cap(Severity::Error),
                 .where = seq->f->key,
                 .function = op.detail,
                 .event_index = op.event_index,
                 .message = "rank " + std::to_string(seq->f->key.proc) + " entered " +
                            coll_desc(op) + " at collective #" + std::to_string(i) + " while " +
                            std::to_string(at.size() - 1) + " other rank(s) entered " +
                            coll_desc(*reference) + " — structural disagreement hangs the job"});
      }
      if (structural_mismatch) return;  // op comparison is meaningless across different colls
      // The reduction op takes its own majority vote: the structural
      // reference is merely whichever rank sorts first, and when rank 0 is
      // the one with the wrong op, every *correct* rank would differ from it.
      std::map<std::uint8_t, std::size_t> redop_votes;
      for (const auto* seq : at) ++redop_votes[seq->entered[i]->redop];
      const auto modal_redop =
          std::max_element(redop_votes.begin(), redop_votes.end(),
                           [](const auto& a, const auto& b) { return a.second < b.second; })
              ->first;
      for (const auto* seq : at) {
        const auto& op = *seq->entered[i];
        if (op.redop != modal_redop)
          out.add({.rule = "mpi.collective-op-mismatch",
                   .severity = Severity::Warning,
                   .where = seq->f->key,
                   .function = op.detail,
                   .event_index = op.event_index,
                   .message = "rank " + std::to_string(seq->f->key.proc) +
                              " joined collective #" + std::to_string(i) + " (" + op.detail +
                              ") with reduction op " + std::to_string(op.redop) +
                              " while others used " + std::to_string(modal_redop) +
                              " — completes, but results silently diverge"});
      }
    }();
    prev_clean = out.diagnostics.size() == before;
  }

  // Straggler stall: a rank blocked in an instance that at least one
  // other rank never reached (and is not about to: it is blocked
  // elsewhere or its trace finished).
  std::set<std::size_t> stalled_instances;
  for (const auto& seq : seqs) {
    if (!seq.last_pending) continue;
    const auto i = seq.entered.size() - 1;
    if (stalled_instances.count(i) != 0) continue;
    std::vector<std::string> missing;
    for (const auto& other : seqs) {
      if (other.f == seq.f || other.entered.size() > i) continue;
      std::string where = "rank " + std::to_string(other.f->key.proc);
      where += other.f->blocked ? " (blocked in " + view.fn_name(other.f->blocked_fid) + ")"
                                : " (never blocked)";
      missing.push_back(std::move(where));
    }
    if (missing.empty()) continue;
    stalled_instances.insert(i);
    std::string joined_list;
    for (const auto& m : missing) {
      if (!joined_list.empty()) joined_list += ", ";
      joined_list += m;
    }
    const auto& op = *seq.entered[i];
    out.add({.rule = "mpi.collective-stall",
             .severity = cap(Severity::Error),
             .where = seq.f->key,
             .function = view.fn_name(seq.f->blocked_fid),
             .path = view.call_path(*seq.f),
             .event_index = op.event_index,
             .message = "rank " + std::to_string(seq.f->key.proc) + " is blocked in " +
                        coll_desc(op) + " (collective #" + std::to_string(i) + ") that " +
                        std::to_string(missing.size()) + " rank(s) never reached: " +
                        joined_list});
  }
}

/// First cycle reachable from `start` (DFS), as the ordered list of procs
/// on the cycle; empty when none.
[[nodiscard]] std::vector<int> find_cycle(const std::map<int, std::map<int, std::string>>& edges,
                                          int start) {
  std::vector<int> path;
  std::set<int> on_path;
  std::set<int> done;

  struct DfsFrame {
    int node;
    std::map<int, std::string>::const_iterator next;
  };
  const auto children = [&edges](int node) -> const std::map<int, std::string>* {
    const auto it = edges.find(node);
    return it != edges.end() ? &it->second : nullptr;
  };

  std::vector<DfsFrame> stack;
  const auto* kids = children(start);
  if (kids == nullptr) return {};
  stack.push_back({start, kids->begin()});
  path.push_back(start);
  on_path.insert(start);
  while (!stack.empty()) {
    auto& frame = stack.back();
    const auto* frame_kids = children(frame.node);
    if (frame_kids == nullptr || frame.next == frame_kids->end()) {
      done.insert(frame.node);
      on_path.erase(frame.node);
      path.pop_back();
      stack.pop_back();
      continue;
    }
    const int child = frame.next->first;
    ++frame.next;
    if (on_path.count(child) != 0) {
      // Found: the cycle is the path suffix starting at `child`.
      const auto at = std::find(path.begin(), path.end(), child);
      return {at, path.end()};
    }
    if (done.count(child) != 0) continue;
    const auto* child_kids = children(child);
    if (child_kids == nullptr) {
      done.insert(child);
      continue;
    }
    stack.push_back({child, child_kids->begin()});
    path.push_back(child);
    on_path.insert(child);
  }
  return {};
}

template <typename Cap>
void check_waitgraph(const FactsView& view, const std::vector<const StreamFacts*>& ranks, Cap cap,
                     CheckReport& out) {
  const auto seqs = coll_sequences(ranks);
  const auto seq_of = [&seqs](int proc) -> const CollSeq* {
    for (const auto& seq : seqs)
      if (seq.f->key.proc == proc) return &seq;
    return nullptr;
  };

  // proc -> procs it waits on (with a description of why, for rendering).
  std::map<int, std::map<int, std::string>> edges;
  for (const auto* f : ranks) {
    const auto* pending = f->blocked && f->pending ? &*f->pending : nullptr;
    if (pending == nullptr) continue;
    const int p = f->key.proc;
    switch (pending->code) {
      case OpCode::RecvPost:
      case OpCode::WaitRecv:
        edges[p][pending->peer] = "a message (tag " + std::to_string(pending->tag) + ")";
        break;
      case OpCode::SendPost:
      case OpCode::WaitSend:
        edges[p][pending->peer] = "a rendezvous receive (tag " + std::to_string(pending->tag) + ")";
        break;
      case OpCode::CollEnter: {
        const auto* mine = seq_of(p);
        if (mine == nullptr || mine->entered.empty()) break;
        const auto i = mine->entered.size() - 1;
        for (const auto& other : seqs) {
          if (other.f->key.proc == p) continue;
          const bool satisfied =
              other.entered.size() > i && coll_equal(*other.entered[i], *pending);
          if (!satisfied) edges[p][other.f->key.proc] = "joining " + coll_desc(*pending);
        }
        break;
      }
      default:
        break;
    }
  }

  // Cycle hunt: DFS from every blocked proc, first cycle per start, then
  // canonicalize so each deadlock is reported once.
  std::set<std::vector<int>> seen;
  for (const auto& [start, _] : edges) {
    auto cycle = find_cycle(edges, start);
    if (cycle.empty()) continue;
    auto canon = cycle;
    std::rotate(canon.begin(), std::min_element(canon.begin(), canon.end()), canon.end());
    if (!seen.insert(canon).second) continue;
    std::ostringstream walk;
    for (std::size_t i = 0; i < canon.size(); ++i) {
      const int p = canon[i];
      const int q = canon[(i + 1) % canon.size()];
      const auto* f = view.find({p, 0});
      walk << "rank " << p << " blocked in "
           << (f != nullptr && f->blocked ? view.fn_name(f->blocked_fid) : "?")
           << " waiting on rank " << q << " for " << edges.at(p).at(q);
      if (i + 1 < canon.size()) walk << " -> ";
    }
    const auto* anchor = view.find({canon.front(), 0});
    out.add({.rule = "mpi.deadlock-cycle",
             .severity = cap(Severity::Error),
             .where = {canon.front(), 0},
             .function = anchor != nullptr && anchor->blocked ? view.fn_name(anchor->blocked_fid)
                                                              : "",
             .path = anchor != nullptr ? view.call_path(*anchor) : "",
             .message = "wait-for cycle among " + std::to_string(canon.size()) +
                        " rank(s): " + walk.str()});
  }
}

}  // namespace

void fill_mpi_facts(const StreamInfo& s, StreamFacts& f) {
  f.sends.clear();
  f.recvs.clear();
  f.colls.clear();
  std::map<std::pair<int, int>, std::uint64_t> sends;  // (peer, tag)
  std::map<std::pair<int, int>, std::uint64_t> recvs;
  for (const auto& op : s.ops) {
    if (is_send_post(op.code)) ++sends[{op.peer, op.tag}];
    if (is_recv_post(op.code)) ++recvs[{op.peer, op.tag}];
    if (op.code == OpCode::CollEnter) f.colls.push_back(op);
  }
  for (const auto& [ch, n] : sends) f.sends.push_back({ch.first, ch.second, n});
  for (const auto& [ch, n] : recvs) f.recvs.push_back({ch.first, ch.second, n});
}

void diagnose_mpi(const FactsView& view, CheckReport& out) {
  if (!view.any_ops()) {
    out.notes.push_back(
        "mpi: archive carries no op records (written before the op side-channel); skipped");
    return;
  }
  const auto ranks = view.rank_streams();
  for (const auto* f : ranks)
    if (f->op_count == 0 && f->event_count > 0)
      out.notes.push_back("mpi: rank " + std::to_string(f->key.proc) +
                          " has no op records (dropped in salvage); its traffic is invisible");

  // `cap` downgrades proof-by-absence severities on degraded archives.
  const auto cap = [&view](Severity s) {
    return view.any_degraded() && s > Severity::Warning ? Severity::Warning : s;
  };

  check_p2p(view, ranks, cap, out);
  check_collectives(view, ranks, cap, out);
  check_waitgraph(view, ranks, cap, out);
}

namespace {

class MpiChecker final : public Checker {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "mpi"; }
  [[nodiscard]] std::string_view description() const noexcept override {
    return "send/recv matching, collective agreement, wait-for-graph deadlock detection";
  }

  void run(const CheckContext& ctx, CheckReport& out) const override {
    std::vector<StreamFacts> facts(ctx.streams().size());
    std::vector<const StreamFacts*> ptrs;
    ptrs.reserve(facts.size());
    for (std::size_t i = 0; i < facts.size(); ++i) {
      fill_shape_facts(ctx.streams()[i], facts[i]);
      fill_mpi_facts(ctx.streams()[i], facts[i]);
      ptrs.push_back(&facts[i]);
    }
    diagnose_mpi(FactsView(ctx.registry(), std::move(ptrs)), out);
  }
};

}  // namespace

std::unique_ptr<Checker> make_mpi_checker() { return std::make_unique<MpiChecker>(); }

}  // namespace difftrace::analyze
