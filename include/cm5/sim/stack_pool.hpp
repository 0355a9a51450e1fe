#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

/// \file stack_pool.hpp
/// Process-wide pool of guard-paged fiber stacks.
///
/// Before the pool, every Kernel::run() paid three syscalls per node
/// (mmap + mprotect + munmap) to build and tear down its fiber stacks —
/// at N = 8192 that is ~25k syscalls per run, and bench sweeps run
/// hundreds of simulations. The pool keeps released stacks mapped and
/// hands them back verbatim on the next acquire, so a steady-state run
/// allocates nothing. Reuse also keeps the pages' physical frames warm:
/// a recycled stack does not re-fault its working set.
///
/// Every stack has one PROT_NONE guard page below its usable range, so
/// an overflow faults instead of silently corrupting a neighbouring
/// allocation. Stacks are cached per exact size, which the requested
/// size sets (a process-stable knob, see fiber_stack_bytes()); a request
/// for a size with no cached entry maps a fresh stack.
///
/// Stacks are cache-colored. Every mapping's top is page-aligned, so
/// without coloring the ~2 KiB of frames each parked fiber resumes
/// through would sit at the same page offset in every stack and compete
/// for the same L1/L2 sets; at N = 1024 a barrier round then misses L2.
/// Each newly mapped stack therefore gets a `color`, a multiple of
/// kColorStep below kColorSpan that steps through the span in mapping
/// order, and its fiber's boot frame starts `color` bytes below the top
/// (fiber_context.cpp). The color belongs to the stack, so a reused
/// stack keeps it and its warm pages. The mapping carries one extra page
/// so the usable size below the colored top still meets the request.
/// The span is 2 KiB and not wider: a 4 KiB span pushes the hot frames
/// of many stacks one page deeper, which costs resident memory at large
/// N (docs/PERF.md "Barrier-stepped kernel path").

namespace cm5::sim {

class FiberStackPool {
 public:
  /// Granularity and span of stack colors (see the file comment).
  static constexpr std::size_t kColorStep = 64;
  static constexpr std::size_t kColorSpan = 2048;

  /// One guard-paged stack. `base`/`size` delimit the mapped range above
  /// the guard page, which sits immediately below `base`; a fiber uses
  /// [base, base + size - color), at least the requested bytes.
  /// `map`/`map_size` are the whole mapping (guard included) and belong
  /// to the pool.
  struct Stack {
    std::byte* base = nullptr;
    std::size_t size = 0;
    std::byte* map = nullptr;
    std::size_t map_size = 0;
    std::size_t color = 0;  ///< bytes left unused below the top
  };

  /// Pool telemetry (monotonic except `cached`/`outstanding`).
  struct Stats {
    std::int64_t mapped = 0;       ///< stacks created with mmap
    std::int64_t reused = 0;       ///< acquires served from the cache
    std::int64_t unmapped = 0;     ///< stacks returned to the OS
    std::int64_t outstanding = 0;  ///< acquired and not yet released
    std::int64_t cached = 0;       ///< released stacks held for reuse
  };

  /// The process-wide pool. Thread-safe: bench sweeps run simulations
  /// on several worker threads, each acquiring and releasing stacks.
  static FiberStackPool& instance();

  /// Returns a stack with at least `usable_bytes` of usable space below
  /// its colored top (`size` is whole pages), reusing a cached stack of
  /// the same rounded size when one exists. Throws util::CheckError when
  /// the address space is exhausted (mmap failure).
  Stack acquire(std::size_t usable_bytes);

  /// Returns `s` to the cache (or unmaps it when the cache is full).
  /// `s` must have come from acquire() on this pool.
  void release(const Stack& s) noexcept;

  /// Unmaps every cached stack. Outstanding stacks are unaffected.
  void trim() noexcept;

  /// Caps the number of cached stacks; 0 disables caching entirely
  /// (every release unmaps). Default: 16384, enough for one giant-N
  /// partition to recycle fully.
  void set_max_cached(std::int64_t n) noexcept;

  Stats stats() const;

  FiberStackPool(const FiberStackPool&) = delete;
  FiberStackPool& operator=(const FiberStackPool&) = delete;

 private:
  FiberStackPool() = default;
  ~FiberStackPool();  ///< never runs: the instance leaks deliberately

  void unmap(const Stack& s) noexcept;

  mutable std::mutex mu_;
  /// Cached stacks, keyed by `size`. LIFO per size: the most
  /// recently released stack has the warmest pages.
  std::map<std::size_t, std::vector<Stack>> free_;
  std::int64_t max_cached_ = 16384;
  Stats stats_;
};

}  // namespace cm5::sim
