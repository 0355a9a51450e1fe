#include "cm5/sim/stack_pool.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include "cm5/util/check.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define CM5_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CM5_ASAN 1
#endif
#endif
#ifndef CM5_ASAN
#define CM5_ASAN 0
#endif

#if CM5_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace cm5::sim {

FiberStackPool& FiberStackPool::instance() {
  // Leaked on purpose: fibers parked inside a simulation that threw may
  // still reference their stacks at static-destruction time, so the
  // pool (and its mappings) must outlive every other static.
  static FiberStackPool* pool = new FiberStackPool();
  return *pool;
}

FiberStackPool::~FiberStackPool() { trim(); }

FiberStackPool::Stack FiberStackPool::acquire(std::size_t usable_bytes) {
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  // A colored top leaves up to kColorSpan unused, so the stack carries
  // the span, in whole pages, on top of the request's whole pages (the
  // bucket is still set by the request's page count).
  const std::size_t size = (usable_bytes + page - 1) / page * page +
                           (kColorSpan + page - 1) / page * page;
  {
    std::lock_guard<std::mutex> g(mu_);
    auto it = free_.find(size);
    if (it != free_.end() && !it->second.empty()) {
      Stack s = it->second.back();
      it->second.pop_back();
      ++stats_.reused;
      ++stats_.outstanding;
      --stats_.cached;
      return s;
    }
  }
  Stack s;
  s.map_size = size + page;  // one guard page below the stack
  void* mem = ::mmap(nullptr, s.map_size, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  CM5_CHECK_MSG(mem != MAP_FAILED,
                "fiber stack pool exhausted: mmap failed (address space)");
  CM5_CHECK_MSG(::mprotect(mem, page, PROT_NONE) == 0,
                "fiber guard page mprotect failed");
  s.map = static_cast<std::byte*>(mem);
  s.base = s.map + page;
  s.size = size;
  std::lock_guard<std::mutex> g(mu_);
  s.color = static_cast<std::size_t>(stats_.mapped) %
            (kColorSpan / kColorStep) * kColorStep;
  ++stats_.mapped;
  ++stats_.outstanding;
  return s;
}

void FiberStackPool::release(const Stack& s) noexcept {
  if (s.map == nullptr) return;
#if CM5_ASAN
  // A fiber abandoned mid-run (simulation error path) leaves poisoned
  // frames in shadow memory; scrub them so the next owner of these
  // bytes starts clean.
  __asan_unpoison_memory_region(s.base, s.size);
#endif
  {
    std::lock_guard<std::mutex> g(mu_);
    --stats_.outstanding;
    if (stats_.cached < max_cached_) {
      free_[s.size].push_back(s);
      ++stats_.cached;
      return;
    }
    ++stats_.unmapped;
  }
  unmap(s);
}

void FiberStackPool::trim() noexcept {
  std::map<std::size_t, std::vector<Stack>> drop;
  {
    std::lock_guard<std::mutex> g(mu_);
    drop.swap(free_);
    for (const auto& [size, stacks] : drop) {
      (void)size;
      stats_.cached -= static_cast<std::int64_t>(stacks.size());
      stats_.unmapped += static_cast<std::int64_t>(stacks.size());
    }
  }
  for (const auto& [size, stacks] : drop) {
    (void)size;
    for (const Stack& s : stacks) unmap(s);
  }
}

void FiberStackPool::set_max_cached(std::int64_t n) noexcept {
  std::vector<Stack> drop;
  {
    std::lock_guard<std::mutex> g(mu_);
    max_cached_ = n < 0 ? 0 : n;
    while (stats_.cached > max_cached_) {
      auto it = free_.begin();
      while (it != free_.end() && it->second.empty()) ++it;
      if (it == free_.end()) break;
      drop.push_back(it->second.back());
      it->second.pop_back();
      --stats_.cached;
      ++stats_.unmapped;
    }
  }
  for (const Stack& s : drop) unmap(s);
}

FiberStackPool::Stats FiberStackPool::stats() const {
  std::lock_guard<std::mutex> g(mu_);
  return stats_;
}

void FiberStackPool::unmap(const Stack& s) noexcept {
  ::munmap(s.map, s.map_size);
}

}  // namespace cm5::sim
