#include "synth.hpp"

#include <algorithm>
#include <stdexcept>

#include "trace/writer.hpp"

namespace e2ebench {

namespace {

using trace::EventKind;
using trace::FunctionId;
using trace::Image;
using trace::OpCode;

constexpr std::int32_t kHaloTag = 7;
constexpr std::int32_t kStrayTag = 99;
constexpr std::uint8_t kCollAllreduce = 3;
constexpr std::uint8_t kCollBcast = 1;
constexpr std::uint8_t kDtypeDouble = 1;
constexpr std::uint8_t kRedopSum = 1;
constexpr std::uint8_t kRedopMax = 2;

/// Where (and whether) the fault stops or bends one rank's execution.
struct FaultPlan {
  FaultKind kind = FaultKind::Hang;
  int hang_rank = -1;
  int timestep = 0;   // hang: timestep the job stops in; wrong-op: the bad collective
  int iteration = 0;  // hang: phase-0 iteration the hung rank stops at
  std::vector<int> wrong_ranks;
};

FaultPlan plan_fault(const Shape& shape, std::uint64_t seed) {
  Rng rng(stream_seed(seed, 0xfa17));
  FaultPlan plan;
  plan.kind = shape.fault;
  if (shape.fault == FaultKind::Hang) {
    plan.hang_rank = rng.below(shape.ranks);
    // A narrow window keeps the faulty run's size, and so the analysis
    // cost, nearly seed-independent.
    plan.timestep = shape.timesteps * 3 / 5 + rng.below(std::max(1, shape.timesteps / 16));
    plan.iteration = rng.below(shape.inner);
  } else {
    plan.timestep = shape.timesteps / 2 + rng.below(std::max(1, shape.timesteps / 8));
    while (static_cast<int>(plan.wrong_ranks.size()) < std::min(shape.fault_ranks, shape.ranks)) {
      const int r = rng.below(shape.ranks);
      if (std::find(plan.wrong_ranks.begin(), plan.wrong_ranks.end(), r) == plan.wrong_ranks.end())
        plan.wrong_ranks.push_back(r);
    }
  }
  return plan;
}

/// Interned function ids of one run's registry, interned in a fixed order
/// so archives are byte-stable.
struct Functions {
  FunctionId main, mpi_init, mpi_finalize, timestep, residual, wrong_residual;
  FunctionId malloc_fn, free_fn, memcpy_fn;
  FunctionId isend, irecv, wait, send, allreduce, bcast;
  FunctionId worker_main, worker_step, crit_start, crit_end, omp_barrier;
  std::vector<FunctionId> phases;
  std::vector<FunctionId> kernels;

  Functions(trace::FunctionRegistry& reg, const Shape& shape, bool faulty) {
    main = reg.intern("main");
    mpi_init = reg.intern("MPI_Init", Image::MpiLib);
    mpi_finalize = reg.intern("MPI_Finalize", Image::MpiLib);
    timestep = reg.intern("timestep");
    residual = reg.intern("compute_residual");
    malloc_fn = reg.intern("malloc", Image::SystemLib);
    free_fn = reg.intern("free", Image::SystemLib);
    memcpy_fn = reg.intern("memcpy", Image::SystemLib);
    isend = reg.intern("MPI_Isend", Image::MpiLib);
    irecv = reg.intern("MPI_Irecv", Image::MpiLib);
    wait = reg.intern("MPI_Wait", Image::MpiLib);
    send = reg.intern("MPI_Send", Image::MpiLib);
    allreduce = reg.intern("MPI_Allreduce", Image::MpiLib);
    bcast = reg.intern("MPI_Bcast", Image::MpiLib);
    worker_main = reg.intern("worker_main");
    worker_step = reg.intern("worker_step");
    crit_start = reg.intern("GOMP_critical_start", Image::OmpLib);
    crit_end = reg.intern("GOMP_critical_end", Image::OmpLib);
    omp_barrier = reg.intern("GOMP_barrier", Image::OmpLib);
    for (int p = 0; p < shape.phases; ++p) phases.push_back(reg.intern("phase_" + std::to_string(p)));
    for (int k = 0; k < shape.vocab; ++k) kernels.push_back(reg.intern("kernel_" + std::to_string(k)));
    wrong_residual = faulty && shape.fault == FaultKind::WrongOp
                         ? reg.intern("compute_max_residual")
                         : residual;
  }
};

/// Emits one thread's events; once frozen (the thread hung) every further
/// record is dropped by the writer itself.
class Emitter {
 public:
  explicit Emitter(trace::TraceWriter& writer) : w_(writer) {}

  void call(FunctionId f) { w_.record(EventKind::Call, f); }
  void ret(FunctionId f) { w_.record(EventKind::Return, f); }
  void leaf(FunctionId f) {
    call(f);
    ret(f);
  }
  void op(FunctionId f, trace::OpRecord record) {
    call(f);
    w_.annotate(std::move(record));
    ret(f);
  }
  /// The thread blocks inside `f` for good.
  void hang(FunctionId f, trace::OpRecord record) {
    call(f);
    w_.annotate(std::move(record));
    w_.freeze();
  }
  [[nodiscard]] bool stopped() const { return w_.frozen(); }

 private:
  trace::TraceWriter& w_;
};

/// Kernel choice shared by both runs: the seed, not the run, decides it.
FunctionId pick_kernel(Rng& rng, const Shape& shape, const Functions& fn, int usual) {
  if (rng.unit() < shape.regularity) return fn.kernels[static_cast<std::size_t>(usual)];
  return fn.kernels[static_cast<std::size_t>(rng.below(shape.vocab))];
}

void emit_kernel(Emitter& e, const Functions& fn, FunctionId kernel) {
  e.call(kernel);
  // Every fourth kernel copies a buffer, which the mem filter sees.
  if ((kernel - fn.kernels.front()) % 4 == 0) e.leaf(fn.memcpy_fn);
  e.ret(kernel);
}

void emit_main_thread(trace::TraceStore& store, const Functions& fn, const Shape& shape,
                      std::uint64_t seed, const FaultPlan& plan, bool faulty, int rank) {
  trace::TraceWriter writer({rank, 0}, "parlot");
  Emitter e(writer);
  Rng rng(stream_seed(seed, 1, static_cast<std::uint64_t>(rank)));
  std::vector<int> usual(static_cast<std::size_t>(shape.phases));
  for (auto& k : usual) k = rng.below(shape.vocab);
  const int right = (rank + 1) % shape.ranks;
  const int left = (rank + shape.ranks - 1) % shape.ranks;
  const bool hung = faulty && plan.kind == FaultKind::Hang && rank == plan.hang_rank;
  const bool waits_on_hung =
      faulty && plan.kind == FaultKind::Hang && left == plan.hang_rank && rank != plan.hang_rank;
  const bool wrong = faulty && plan.kind == FaultKind::WrongOp &&
                     std::find(plan.wrong_ranks.begin(), plan.wrong_ranks.end(), rank) !=
                         plan.wrong_ranks.end();

  e.call(fn.main);
  e.leaf(fn.mpi_init);
  for (int t = 0; t < shape.timesteps && !e.stopped(); ++t) {
    e.call(fn.timestep);
    e.leaf(fn.malloc_fn);
    const bool stop_step = faulty && plan.kind == FaultKind::Hang && t == plan.timestep;
    for (int p = 0; p < shape.phases && !e.stopped(); ++p) {
      e.call(fn.phases[static_cast<std::size_t>(p)]);
      for (int i = 0; i < shape.inner && !e.stopped(); ++i) {
        emit_kernel(e, fn, pick_kernel(rng, shape, fn, usual[static_cast<std::size_t>(p)]));
        if (p != 0) continue;
        // Phase 0 is the halo exchange with both ring neighbours.
        if (stop_step && hung && i == plan.iteration) {
          e.hang(fn.send, {.code = OpCode::SendPost, .peer = right, .tag = kStrayTag, .count = 8});
          break;
        }
        e.op(fn.isend, {.code = OpCode::IsendPost, .peer = right, .tag = kHaloTag, .count = 64});
        e.op(fn.irecv, {.code = OpCode::IrecvPost, .peer = left, .tag = kHaloTag});
        e.op(fn.wait, {.code = OpCode::WaitSend, .peer = right, .tag = kHaloTag});
        if (stop_step && waits_on_hung && i == plan.iteration) {
          e.hang(fn.wait, {.code = OpCode::WaitRecv, .peer = left, .tag = kHaloTag});
          break;
        }
        e.op(fn.wait, {.code = OpCode::WaitRecv, .peer = left, .tag = kHaloTag});
      }
      e.ret(fn.phases[static_cast<std::size_t>(p)]);
    }
    const bool bad_step = wrong && t == plan.timestep;
    e.leaf(bad_step ? fn.wrong_residual : fn.residual);
    trace::OpRecord reduce{.code = OpCode::CollEnter,
                           .peer = 0,
                           .count = 1,
                           .coll = kCollAllreduce,
                           .dtype = kDtypeDouble,
                           .redop = bad_step ? kRedopMax : kRedopSum,
                           .detail = "MPI_Allreduce"};
    if (stop_step) {
      e.hang(fn.allreduce, reduce);
      break;
    }
    e.op(fn.allreduce, reduce);
    // Shared decision (same on every rank and in both runs): some
    // timesteps broadcast fresh parameters from rank 0.
    Rng shared(stream_seed(seed, 2, static_cast<std::uint64_t>(t)));
    if (shared.unit() < 0.25)
      e.op(fn.bcast, {.code = OpCode::CollEnter,
                      .peer = 0,
                      .count = 4,
                      .coll = kCollBcast,
                      .dtype = kDtypeDouble,
                      .detail = "MPI_Bcast"});
    e.leaf(fn.free_fn);
    e.ret(fn.timestep);
  }
  e.leaf(fn.mpi_finalize);
  e.ret(fn.main);
  store.absorb(writer);
}

void emit_worker_thread(trace::TraceStore& store, const Functions& fn, const Shape& shape,
                        std::uint64_t seed, const FaultPlan& plan, bool faulty, int rank) {
  trace::TraceWriter writer({rank, 1}, "parlot");
  Emitter e(writer);
  Rng rng(stream_seed(seed, 3, static_cast<std::uint64_t>(rank)));
  std::vector<int> usual(static_cast<std::size_t>(shape.phases));
  for (auto& k : usual) k = rng.below(shape.vocab);

  e.call(fn.worker_main);
  for (int t = 0; t < shape.timesteps && !e.stopped(); ++t) {
    e.call(fn.worker_step);
    for (int p = 0; p < shape.phases; ++p) {
      const std::string lock = "lock_" + std::to_string(p);
      for (int i = 0; i < shape.inner; ++i) {
        e.op(fn.crit_start, {.code = OpCode::LockAcquire, .detail = lock});
        emit_kernel(e, fn, pick_kernel(rng, shape, fn, usual[static_cast<std::size_t>(p)]));
        e.op(fn.crit_end, {.code = OpCode::LockRelease, .detail = lock});
      }
    }
    // The team barrier waits for the master thread; when the job hangs in
    // this timestep the worker never leaves it.
    if (faulty && plan.kind == FaultKind::Hang && t == plan.timestep) {
      e.hang(fn.omp_barrier, {.code = OpCode::ThreadBarrier});
      break;
    }
    e.op(fn.omp_barrier, {.code = OpCode::ThreadBarrier});
    e.ret(fn.worker_step);
  }
  e.ret(fn.worker_main);
  store.absorb(writer);
}

trace::TraceStore synthesize_run(const Shape& shape, std::uint64_t seed, const FaultPlan& plan,
                                 bool faulty) {
  trace::TraceStore store;
  const Functions fn(store.registry(), shape, faulty);
  for (int rank = 0; rank < shape.ranks; ++rank) {
    emit_main_thread(store, fn, shape, seed, plan, faulty, rank);
    if (shape.threads > 1) emit_worker_thread(store, fn, shape, seed, plan, faulty, rank);
  }
  return store;
}

}  // namespace

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  Rng rng(seed ^ (a * 0xd1b54a32d192ed03ULL) ^ (b * 0x8cb92ba72f3d8dd7ULL));
  return rng.next();
}

ArchivePair synthesize(const Shape& shape, std::uint64_t seed) {
  if (shape.ranks < 3 || shape.threads < 1 || shape.threads > 2 || shape.timesteps < 2 ||
      shape.phases < 1 || shape.inner < 1 || shape.vocab < 1)
    throw std::invalid_argument("synthesize: shape out of range");
  const auto plan = plan_fault(shape, seed);
  return {synthesize_run(shape, seed, plan, false), synthesize_run(shape, seed, plan, true)};
}

void InputStats::add(const trace::TraceStore& store) {
  const auto s = store.stats();
  traces += s.trace_count;
  events += s.total_events;
  compressed_bytes += s.total_compressed_bytes;
  distinct_functions = std::max<std::uint64_t>(distinct_functions, store.registry().size());
}

double InputStats::compression_ratio() const {
  return compressed_bytes == 0 ? 0.0
                               : 4.0 * static_cast<double>(events) /
                                     static_cast<double>(compressed_bytes);
}

}  // namespace e2ebench
