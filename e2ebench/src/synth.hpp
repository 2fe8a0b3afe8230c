// Seeded normal/faulty archive synthesizer.
//
// Every archive is written in one thread with trace::TraceWriter plus
// OpRecord annotations, shaped like an iterative MPI+OpenMP application: a
// timestep loop around phase loops around compute kernels and MPI calls on
// each rank's main thread, and a critical-section loop on its worker
// thread. The same (shape, seed) always yields byte-identical archives.
//
// The knobs are the input properties the analysis cost depends on: trace
// count (ranks x threads), events per trace (timesteps x phases x inner),
// loop regularity (how far NLR can fold a trace), distinct function count
// (the kernel vocabulary), and the fault kind and position (how much of the
// faulty run diverges, so how long diffNLR's edit script is).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/store.hpp"

namespace e2ebench {

namespace trace = difftrace::trace;

enum class FaultKind : std::uint8_t {
  // One rank posts a blocking send nobody receives and hangs; its right
  // neighbour blocks waiting on it, every other rank blocks in the next
  // collective. All traces of the faulty run end truncated.
  Hang,
  // A few ranks pass the wrong reduction operator to one collective and
  // call a different kernel before it; every trace runs to completion.
  WrongOp,
};

/// splitmix64: tiny, seedable, and identical on every platform (unlike the
/// standard distributions, whose output is implementation-defined).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  int below(int n) { return n <= 1 ? 0 : static_cast<int>(next() % static_cast<std::uint64_t>(n)); }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// A 64-bit seed for one named stream of a seeded generator.
[[nodiscard]] std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0);

struct Shape {
  int ranks = 8;
  int threads = 2;         // 1 = main thread only, 2 = main + worker
  int timesteps = 32;
  int phases = 3;
  int inner = 8;           // iterations per phase loop
  int vocab = 16;          // distinct compute kernels
  double regularity = 0.95;  // chance an iteration calls its phase's usual kernel
  FaultKind fault = FaultKind::Hang;
  int fault_ranks = 1;     // ranks the fault hits (WrongOp)
};

struct ArchivePair {
  trace::TraceStore normal;
  trace::TraceStore faulty;
};

/// Synthesizes the normal and faulty run of one application execution.
[[nodiscard]] ArchivePair synthesize(const Shape& shape, std::uint64_t seed);

/// Input statistics of a set of archives (both runs of every pair).
struct InputStats {
  std::uint64_t traces = 0;
  std::uint64_t events = 0;
  std::uint64_t compressed_bytes = 0;
  std::uint64_t distinct_functions = 0;  // largest registry among the archives

  void add(const trace::TraceStore& store);
  [[nodiscard]] double compression_ratio() const;
};

}  // namespace e2ebench
