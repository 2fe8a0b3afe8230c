// In-memory span recorder for the traced run.
//
// Spans are opened and closed around calls into each layer's public
// functions from the benchmark's own code, never inside the program (the
// program's obs::PhaseTable is not read). Each span keeps its name, start,
// end, parent and request id; one Tracer belongs to one thread, so nesting
// is a plain stack. Spans are written out as JSON lines when the run ends.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace e2ebench {

[[nodiscard]] std::uint64_t now_ns();

struct SpanRecord {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;  // index into the tracer's records, -1 = root
  std::uint64_t request = 0;
  std::uint64_t self_ns = 0;  // filled by Tracer::account()

  [[nodiscard]] std::uint64_t duration() const { return end_ns - start_ns; }
};

class Tracer {
 public:
  /// RAII span; closes on destruction.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::size_t index_;
  };

  /// Starts a new request: spans opened until the next call share its id.
  void begin_request(std::uint64_t id) { request_ = id; }

  /// Records an already-measured span (e.g. a duration reported by the
  /// daemon) as a child of the innermost open span.
  void record(std::string name, std::uint64_t start_ns, std::uint64_t end_ns);

  [[nodiscard]] const std::vector<SpanRecord>& records() const noexcept { return records_; }

  /// Result of the self-time accounting over every closed span.
  struct Accounting {
    std::size_t spans = 0;
    std::size_t violations = 0;      // child outside its parent, or siblings overlapping
    std::uint64_t max_residual_ns = 0;  // max |parent - (self + sum(children))|
  };
  /// Computes every span's self time (its duration minus the part its
  /// children cover) and checks the children tile inside their parent.
  Accounting account();

  /// Median self share (self time over duration) of the spans named
  /// `name`, after account(). A span whose work is all layer calls keeps a
  /// small share; a large one means a call was left without a span.
  [[nodiscard]] double median_self_share(const std::string& name) const;

  /// Sum of inclusive durations (ns) of spans named `name` that descend
  /// from root span `root`, keyed by root index.
  [[nodiscard]] std::map<std::size_t, std::uint64_t> per_root_totals(const std::string& name) const;

  /// Appends this tracer's spans as JSON lines (one object per span).
  void write_jsonl(std::ostream& out, const std::string& thread) const;

 private:
  [[nodiscard]] std::size_t root_of(std::size_t index) const;

  std::vector<SpanRecord> records_;
  std::vector<std::size_t> open_;
  std::uint64_t request_ = 0;
};

}  // namespace e2ebench
