#include "obs/manifest.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/file.hpp"
#include "util/json.hpp"
#include "util/str.hpp"
#include "util/table.hpp"

namespace difftrace::obs {

std::uint64_t peak_rss_kb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<std::uint64_t>(usage.ru_maxrss);  // KiB on Linux
}

std::uint64_t process_cpu_ns() {
  timespec ts{};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

ManifestInput digest_file(const std::string& path) {
  ManifestInput input;
  input.path = path;
  try {
    const auto digest = util::digest_file_bytes(path);
    input.bytes = digest.bytes;
    input.crc32 = digest.crc32;
    input.ok = true;
  } catch (const std::exception&) {
    // Unreadable inputs are still recorded by name, just not vouched for.
  }
  return input;
}

RunManifest collect_manifest(std::vector<std::string> command,
                             const std::vector<std::string>& input_paths, int exit_code) {
  RunManifest m;
  m.command = std::move(command);
  m.exit_code = exit_code;
  m.phases = PhaseTable::instance().snapshot();
  for (const auto& phase : m.phases)
    if (phase.depth == 0) m.wall_ns = std::max(m.wall_ns, phase.wall_ns);
  m.cpu_ns = process_cpu_ns();
  m.peak_rss_kb = peak_rss_kb();
  const auto& registry = MetricsRegistry::instance();
  m.counters = registry.counters(/*nonzero_only=*/true);
  m.histograms = registry.histograms(/*nonzero_only=*/true);
  for (const auto& counter : m.counters) {
    if (counter.name == "sched.cache_hit") m.cache_hits = counter.value;
    if (counter.name == "sched.cache_miss") m.cache_misses = counter.value;
  }
  for (const auto& path : input_paths) m.inputs.push_back(digest_file(path));
  return m;
}

// --- JSON --------------------------------------------------------------------

namespace {

std::string crc_hex(std::uint32_t crc) { return util::hex32(crc); }

}  // namespace

void RunManifest::write_json(std::ostream& out) const {
  util::JsonWriter w(out);
  w.begin_object();
  w.field("manifest_version", manifest_version);
  w.field("tool_version", tool_version);
  w.key("command");
  w.begin_array();
  for (const auto& arg : command) w.value(arg);
  w.end_array();
  w.field("exit_code", exit_code);
  w.field("wall_ns", wall_ns);
  w.field("cpu_ns", cpu_ns);
  w.field("peak_rss_kb", peak_rss_kb);
  w.field("jobs", jobs);
  w.field("cache_dir", cache_dir);
  w.field("cache_hits", cache_hits);
  w.field("cache_misses", cache_misses);
  w.field("self_trace", self_trace);

  w.key("inputs");
  w.begin_array();
  for (const auto& input : inputs) {
    w.begin_object();
    w.field("path", input.path);
    w.field("bytes", input.bytes);
    w.field("crc32", crc_hex(input.crc32));
    w.field("ok", input.ok);
    w.end_object();
  }
  w.end_array();

  w.key("phases");
  w.begin_array();
  for (const auto& phase : phases) {
    w.begin_object();
    w.field("path", phase.path);
    w.field("name", phase.name);
    w.field("depth", phase.depth);
    w.field("count", phase.count);
    w.field("wall_ns", phase.wall_ns);
    w.field("cpu_ns", phase.cpu_ns);
    w.end_object();
  }
  w.end_array();

  w.key("counters");
  w.begin_array();
  for (const auto& counter : counters) {
    w.begin_object();
    w.field("name", counter.name);
    w.field("value", counter.value);
    w.end_object();
  }
  w.end_array();

  w.key("histograms");
  w.begin_array();
  for (const auto& histogram : histograms) {
    w.begin_object();
    w.field("name", histogram.name);
    w.field("count", histogram.data.count);
    w.field("sum", histogram.data.sum);
    w.key("buckets");
    w.begin_array();
    for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
      if (histogram.data.buckets[i] == 0) continue;
      w.begin_object();
      w.field("le_log2", i);
      w.field("count", histogram.data.buckets[i]);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  out << '\n';
}

std::string RunManifest::to_json() const {
  std::ostringstream out;
  write_json(out);
  return out.str();
}

RunManifest RunManifest::from_json(const util::JsonValue& doc) {
  if (!doc.is_object()) throw std::runtime_error("manifest: document is not an object");
  RunManifest m;
  m.manifest_version = static_cast<int>(doc.at("manifest_version").as_int());
  if (m.manifest_version != kManifestVersion)
    throw std::runtime_error("manifest: unsupported manifest_version " +
                             std::to_string(m.manifest_version));
  m.tool_version = doc.at("tool_version").as_string();
  m.command.clear();
  for (const auto& arg : doc.at("command").array) m.command.push_back(arg.as_string());
  m.exit_code = static_cast<int>(doc.at("exit_code").as_int());
  m.wall_ns = doc.at("wall_ns").as_uint();
  m.cpu_ns = doc.at("cpu_ns").as_uint();
  m.peak_rss_kb = doc.at("peak_rss_kb").as_uint();
  // Additive post-release fields: absent in manifests written before the
  // execution engine existed, so parse them tolerantly.
  if (const auto* jobs_field = doc.find("jobs")) m.jobs = jobs_field->as_uint();
  if (const auto* dir_field = doc.find("cache_dir")) m.cache_dir = dir_field->as_string();
  if (const auto* hits_field = doc.find("cache_hits")) m.cache_hits = hits_field->as_uint();
  if (const auto* misses_field = doc.find("cache_misses")) m.cache_misses = misses_field->as_uint();
  if (const auto* selftrace_field = doc.find("self_trace"))
    m.self_trace = selftrace_field->as_string();

  for (const auto& entry : doc.at("inputs").array) {
    ManifestInput input;
    input.path = entry.at("path").as_string();
    input.bytes = entry.at("bytes").as_uint();
    input.crc32 = static_cast<std::uint32_t>(std::stoul(entry.at("crc32").as_string(), nullptr, 16));
    input.ok = entry.at("ok").as_bool();
    m.inputs.push_back(std::move(input));
  }
  for (const auto& entry : doc.at("phases").array) {
    PhaseStats phase;
    phase.path = entry.at("path").as_string();
    phase.name = entry.at("name").as_string();
    phase.depth = static_cast<std::size_t>(entry.at("depth").as_uint());
    phase.count = entry.at("count").as_uint();
    phase.wall_ns = entry.at("wall_ns").as_uint();
    phase.cpu_ns = entry.at("cpu_ns").as_uint();
    m.phases.push_back(std::move(phase));
  }
  for (const auto& entry : doc.at("counters").array)
    m.counters.push_back({entry.at("name").as_string(), entry.at("value").as_uint()});
  for (const auto& entry : doc.at("histograms").array) {
    HistogramSample histogram;
    histogram.name = entry.at("name").as_string();
    histogram.data.count = entry.at("count").as_uint();
    histogram.data.sum = entry.at("sum").as_uint();
    for (const auto& bucket : entry.at("buckets").array) {
      const auto index = static_cast<std::size_t>(bucket.at("le_log2").as_uint());
      if (index >= Histogram::kBuckets) throw std::runtime_error("manifest: bucket index out of range");
      histogram.data.buckets[index] = bucket.at("count").as_uint();
    }
    m.histograms.push_back(std::move(histogram));
  }
  return m;
}

RunManifest RunManifest::from_json_text(std::string_view text) {
  return from_json(util::parse_json(text));
}

// --- rendering ---------------------------------------------------------------

double RunManifest::phase_coverage() const {
  // Root = the largest depth-0 phase (the command span; worker-thread span
  // trees are smaller by construction, since the root encloses the join).
  const PhaseStats* root = nullptr;
  for (const auto& phase : phases)
    if (phase.depth == 0 && (root == nullptr || phase.wall_ns > root->wall_ns)) root = &phase;
  if (root == nullptr || root->wall_ns == 0) return 1.0;
  std::uint64_t covered = 0;
  bool any_children = false;
  for (const auto& phase : phases) {
    if (phase.depth != 1) continue;
    if (!util::starts_with(phase.path, root->path + "/")) continue;
    covered += phase.wall_ns;
    any_children = true;
  }
  if (!any_children) return 1.0;
  return static_cast<double>(covered) / static_cast<double>(root->wall_ns);
}

namespace {

std::string format_ms(std::uint64_t ns) {
  return util::format_double(static_cast<double>(ns) / 1e6, 3);
}

}  // namespace

std::string RunManifest::render() const {
  std::ostringstream out;
  out << "difftrace run manifest (schema v" << manifest_version << ", tool " << tool_version << ")\n";
  out << "command:        " << util::join(command, " ") << "\n";
  out << "exit code:      " << exit_code << "\n";
  out << "wall time:      " << format_ms(wall_ns) << " ms\n";
  out << "cpu time:       " << format_ms(cpu_ns) << " ms\n";
  out << "peak rss:       " << peak_rss_kb << " KiB\n";
  if (jobs != 0) out << "jobs:           " << jobs << "\n";
  // Surface cache telemetry whenever there is anything to say: a recorded
  // directory, or nonzero traffic (older manifests carry the counters
  // without the directory).
  if (!cache_dir.empty() || cache_hits + cache_misses != 0) {
    if (!cache_dir.empty()) out << "cache dir:      " << cache_dir << "\n";
    out << "cache hits:     " << cache_hits << "\n";
    out << "cache misses:   " << cache_misses << "\n";
  }
  if (!self_trace.empty()) out << "self trace:     " << self_trace << "\n";
  out << "phase coverage: " << util::format_double(phase_coverage() * 100.0, 1) << "% of root wall\n";

  if (!inputs.empty()) {
    util::TextTable table({"Input", "Bytes", "CRC-32", "Readable"});
    for (const auto& input : inputs)
      table.add_row({input.path, std::to_string(input.bytes), crc_hex(input.crc32),
                     input.ok ? "yes" : "no"});
    out << "\n" << table.render();
  }

  if (!phases.empty()) {
    util::TextTable table({"Phase", "Count", "Wall ms", "CPU ms", "% of run"});
    for (const auto& phase : phases) {
      std::string label(phase.depth * 2, ' ');
      label += phase.name;
      const double share = wall_ns == 0 ? 0.0
                                        : 100.0 * static_cast<double>(phase.wall_ns) /
                                              static_cast<double>(wall_ns);
      table.add_row({label, std::to_string(phase.count), format_ms(phase.wall_ns),
                     format_ms(phase.cpu_ns), util::format_double(share, 1)});
    }
    out << "\n" << table.render();
  }

  if (!counters.empty()) {
    util::TextTable table({"Counter", "Value"});
    for (const auto& counter : counters) table.add_row({counter.name, std::to_string(counter.value)});
    out << "\n" << table.render();
  }

  if (!histograms.empty()) {
    // Percentiles (interpolated within the winning log2 bucket) instead of
    // raw bucket dumps: the bucket layout is an implementation detail, the
    // distribution shape is what a reader wants.
    util::TextTable table({"Histogram", "Count", "Mean", "p50", "p95", "p99"});
    for (const auto& histogram : histograms) {
      const double mean = histogram.data.count == 0
                              ? 0.0
                              : static_cast<double>(histogram.data.sum) /
                                    static_cast<double>(histogram.data.count);
      table.add_row({histogram.name, std::to_string(histogram.data.count),
                     util::format_double(mean, 1),
                     util::format_double(histogram_percentile(histogram.data, 0.50), 1),
                     util::format_double(histogram_percentile(histogram.data, 0.95), 1),
                     util::format_double(histogram_percentile(histogram.data, 0.99), 1)});
    }
    out << "\n" << table.render();
  }
  return std::move(out).str();
}

}  // namespace difftrace::obs
