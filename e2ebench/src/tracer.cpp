#include "tracer.hpp"

#include <algorithm>
#include <chrono>
#include <ostream>

#include "util/json.hpp"

namespace e2ebench {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

Tracer::Scope::Scope(Tracer& tracer, std::string name) : tracer_(tracer) {
  index_ = tracer.records_.size();
  SpanRecord rec;
  rec.name = std::move(name);
  rec.parent = tracer.open_.empty() ? -1 : static_cast<std::int64_t>(tracer.open_.back());
  rec.request = tracer.request_;
  tracer.records_.push_back(std::move(rec));
  tracer.open_.push_back(index_);
  // Read the clock last, so the bookkeeping above is charged to the parent.
  tracer.records_[index_].start_ns = now_ns();
}

Tracer::Scope::~Scope() {
  tracer_.records_[index_].end_ns = now_ns();
  tracer_.open_.pop_back();
}

void Tracer::record(std::string name, std::uint64_t start_ns, std::uint64_t end_ns) {
  SpanRecord rec;
  rec.name = std::move(name);
  rec.start_ns = start_ns;
  rec.end_ns = end_ns;
  rec.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  rec.request = request_;
  records_.push_back(std::move(rec));
}

Tracer::Accounting Tracer::account() {
  Accounting acc;
  acc.spans = records_.size();
  std::vector<std::vector<std::size_t>> children(records_.size());
  for (std::size_t i = 0; i < records_.size(); ++i)
    if (records_[i].parent >= 0) children[static_cast<std::size_t>(records_[i].parent)].push_back(i);
  for (std::size_t i = 0; i < records_.size(); ++i) {
    auto& rec = records_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end(), [this](std::size_t a, std::size_t b) {
      return records_[a].start_ns < records_[b].start_ns;
    });
    // Covered = union of the children's intervals clipped to the parent.
    std::uint64_t covered = 0;
    std::uint64_t sum_children = 0;
    std::uint64_t cursor = rec.start_ns;
    for (const auto k : kids) {
      const auto& child = records_[k];
      sum_children += child.duration();
      if (child.start_ns < rec.start_ns || child.end_ns > rec.end_ns || child.start_ns < cursor)
        ++acc.violations;
      const auto lo = std::max(child.start_ns, cursor);
      const auto hi = std::min(child.end_ns, rec.end_ns);
      if (hi > lo) covered += hi - lo;
      cursor = std::max(cursor, child.end_ns);
    }
    rec.self_ns = rec.duration() - covered;
    const auto tiled = rec.self_ns + sum_children;
    const auto residual = tiled > rec.duration() ? tiled - rec.duration() : rec.duration() - tiled;
    acc.max_residual_ns = std::max(acc.max_residual_ns, residual);
  }
  return acc;
}

double Tracer::median_self_share(const std::string& name) const {
  std::vector<double> shares;
  for (const auto& rec : records_)
    if (rec.name == name && rec.duration() > 0)
      shares.push_back(static_cast<double>(rec.self_ns) / static_cast<double>(rec.duration()));
  if (shares.empty()) return 0.0;
  const auto mid = shares.begin() + static_cast<std::ptrdiff_t>(shares.size() / 2);
  std::nth_element(shares.begin(), mid, shares.end());
  return *mid;
}

std::size_t Tracer::root_of(std::size_t index) const {
  while (records_[index].parent >= 0) index = static_cast<std::size_t>(records_[index].parent);
  return index;
}

std::map<std::size_t, std::uint64_t> Tracer::per_root_totals(const std::string& name) const {
  std::map<std::size_t, std::uint64_t> totals;
  for (std::size_t i = 0; i < records_.size(); ++i)
    if (records_[i].name == name) totals[root_of(i)] += records_[i].duration();
  return totals;
}

void Tracer::write_jsonl(std::ostream& out, const std::string& thread) const {
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const auto& rec = records_[i];
    difftrace::util::JsonWriter json(out, /*indent=*/-1);
    json.begin_object();
    json.field("thread", thread);
    json.field("id", static_cast<std::uint64_t>(i));
    json.field("name", rec.name);
    json.field("start_ns", rec.start_ns);
    json.field("end_ns", rec.end_ns);
    json.field("parent", rec.parent);
    json.field("request", rec.request);
    json.field("self_ns", rec.self_ns);
    json.end_object();
    out << "\n";
  }
}

}  // namespace e2ebench
