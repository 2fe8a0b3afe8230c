// Byte-level codec for cached stage artifacts.
//
// An artifact is an opaque payload (encoded by the owning layer — see
// core/sweep_cache) wrapped in a self-checking frame:
//
//   "DTA1" | schema varint | kind varint | payload_len varint | payload | crc32 LE
//
// The CRC covers everything before it (magic through payload). open_artifact
// returns nullopt on ANY defect — short file, bad magic, wrong schema, wrong
// kind, truncated payload, CRC mismatch — because a defective cache entry is
// by contract a miss, never an error. The schema version is also folded into
// the cache key digest, so a version bump both changes the key (old entries
// are simply not found) and fails the frame check (stale files hit by key
// collision are rejected).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace difftrace::sched {

/// Bump when any artifact payload encoding changes shape.
inline constexpr std::uint64_t kArtifactSchemaVersion = 1;

// Artifact-kind registry. Kinds are defined in the layer that owns the
// payload encoding; they are listed here so a new kind cannot silently
// collide with an existing one:
//   1  core::kArtifactNlr            per-trace NLR program   (core/sweep_cache.hpp)
//   2  core::kArtifactEval           per-row sweep evaluation (core/sweep_cache.hpp)
//   3  retired: per-stream check summaries of the removed abstract check
//      engine. Never reuse it — old cache directories may still hold such
//      entries, and a new payload under kind 3 would be decoded from them.
//   4  serve::kArtifactServeIndex    sharded trace-store index (serve/shard_store.hpp)

/// Little-endian varint/string/f64 payload writer.
class ArtifactWriter {
 public:
  void put_u64(std::uint64_t v);
  void put_u32(std::uint32_t v) { put_u64(v); }
  void put_bool(bool v) { put_u64(v ? 1 : 0); }
  void put_i64(std::int64_t v);  // zigzag
  void put_str(std::string_view s);
  /// Fixed 8-byte LE bit pattern — doubles round-trip bit-exactly.
  void put_f64(double v);

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const noexcept { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Mirror reader. Throws std::out_of_range on truncation; callers that open
/// cache entries go through open_artifact + a catch in the typed decoder, so
/// a short payload surfaces as a miss.
class ArtifactReader {
 public:
  explicit ArtifactReader(std::span<const std::uint8_t> bytes) : data_(bytes) {}

  std::uint64_t get_u64();
  std::uint32_t get_u32();
  bool get_bool() { return get_u64() != 0; }
  std::int64_t get_i64();
  std::string get_str();
  double get_f64();

  [[nodiscard]] bool at_end() const noexcept { return pos_ >= data_.size(); }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// Wraps a payload in the framed, CRC-protected on-disk form.
std::vector<std::uint8_t> seal_artifact(std::uint64_t kind,
                                        std::span<const std::uint8_t> payload);

/// Unwraps a frame; nullopt on any defect or kind mismatch.
std::optional<std::vector<std::uint8_t>> open_artifact(
    std::span<const std::uint8_t> frame, std::uint64_t expected_kind);

/// Validates a frame without caring about the kind; returns the kind when
/// the frame is intact (magic, schema, length, CRC all good). Used by
/// `difftrace cache verify`.
std::optional<std::uint64_t> probe_artifact(std::span<const std::uint8_t> frame);

}  // namespace difftrace::sched
