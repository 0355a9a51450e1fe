#include "fiber_context.hpp"

#include <cstring>

#include "cm5/util/check.hpp"

#if CM5_ASAN
#include <pthread.h>
#include <sanitizer/common_interface_defs.h>
#endif
#if CM5_TSAN
#include <pthread.h>
#include <sanitizer/tsan_interface.h>
#endif

extern "C" {
#if CM5_FIBER_ASM
void cm5_fiber_switch_x86_64(void** save_sp, void* load_sp);
void cm5_fiber_boot_x86_64();
#endif
/// Entry trampoline target; referenced from the boot stack image (asm)
/// or makecontext (ucontext fallback).
void cm5_fiber_entry(void* ctx);
}

extern "C" void cm5_fiber_entry(void* ctx) {
  auto* c = static_cast<cm5::sim::fiber::FiberContext*>(ctx);
#if CM5_ASAN
  // First code on a fresh stack: complete the annotation handshake
  // opened by the context that switched to us.
  __sanitizer_finish_switch_fiber(nullptr, nullptr, nullptr);
#endif
  c->entry(c);
  CM5_CHECK_MSG(false, "fiber entry returned instead of dying");
}

namespace cm5::sim::fiber {

namespace {

#if !CM5_FIBER_ASM
void ucontext_boot(unsigned lo, unsigned hi) {
  // makecontext passes ints; the pointer arrives split in two halves.
  const std::uintptr_t p = static_cast<std::uintptr_t>(lo) |
                           (static_cast<std::uintptr_t>(hi) << 32);
  cm5_fiber_entry(reinterpret_cast<void*>(p));
}
#endif

}  // namespace

void create_fiber(FiberContext& c, std::size_t stack_bytes) {
  c.stack = FiberStackPool::instance().acquire(stack_bytes);
  c.finished = false;
#if CM5_TSAN
  c.tsan_fiber = __tsan_create_fiber(0);
#endif
#if CM5_FIBER_ASM
  // Build the exact register image fiber_context_x86_64.S restores; the
  // first switch into this fiber "returns" into the boot trampoline
  // with the context pointer in r12. The boot frame sits at the stack's
  // color below its top (stack_pool.hpp), so the hot frames of parked
  // fibers spread over cache sets. The parked sp must be 16-byte aligned
  // (see the .S frame-layout comment).
  std::byte* top = c.stack.base + c.stack.size - c.stack.color;
  top -= reinterpret_cast<std::uintptr_t>(top) & 15u;
  std::byte* sp = top - 80;
  std::memset(sp, 0, 80);
  std::uint32_t mxcsr;
  std::uint16_t fcw;
  __asm__ volatile("stmxcsr %0" : "=m"(mxcsr));
  __asm__ volatile("fnstcw %0" : "=m"(fcw));
  std::memcpy(sp + 0, &mxcsr, 4);
  std::memcpy(sp + 4, &fcw, 2);
  const auto put = [sp](std::size_t off, std::uint64_t v) {
    std::memcpy(sp + off, &v, 8);
  };
  put(32, reinterpret_cast<std::uint64_t>(&c));  // r12 -> context
  put(56, reinterpret_cast<std::uint64_t>(&cm5_fiber_boot_x86_64));
  c.sp = sp;
#else
  CM5_CHECK_MSG(getcontext(&c.uc) == 0, "getcontext failed");
  c.uc.uc_stack.ss_sp = c.stack.base;
  c.uc.uc_stack.ss_size = c.stack.size - c.stack.color;
  c.uc.uc_link = nullptr;  // fibers never fall off their entry
  const auto p = reinterpret_cast<std::uintptr_t>(&c);
  makecontext(&c.uc, reinterpret_cast<void (*)()>(&ucontext_boot), 2,
              static_cast<unsigned>(p & 0xffffffffu),
              static_cast<unsigned>(p >> 32));
#endif
}

void destroy_fiber(FiberContext& c) {
  if (c.stack.map != nullptr) {
    FiberStackPool::instance().release(c.stack);
    c.stack = {};
  }
#if CM5_TSAN
  if (c.tsan_fiber != nullptr) {
    __tsan_destroy_fiber(c.tsan_fiber);
    c.tsan_fiber = nullptr;
  }
#endif
}

void adopt_host_context(FiberContext& c) {
  c.id = -1;
#if CM5_ASAN
  // ASAN wants real bounds for every stack it switches to, including
  // a driver thread's own.
  pthread_attr_t attr;
  if (pthread_getattr_np(pthread_self(), &attr) == 0) {
    void* base = nullptr;
    std::size_t size = 0;
    if (pthread_attr_getstack(&attr, &base, &size) == 0) {
      c.stack.base = static_cast<std::byte*>(base);
      c.stack.size = size;
    }
    pthread_attr_destroy(&attr);
  }
#endif
#if CM5_TSAN
  c.tsan_fiber = __tsan_get_current_fiber();
#endif
}

void switch_fiber(FiberContext& from, FiberContext& to, bool dying) {
#if CM5_TSAN
  __tsan_switch_to_fiber(to.tsan_fiber, 0);
#endif
#if CM5_ASAN
  void* fake = nullptr;
  __sanitizer_start_switch_fiber(dying ? nullptr : &fake, to.stack.base,
                                 to.stack.size);
#else
  (void)dying;
#endif
#if CM5_FIBER_ASM
  cm5_fiber_switch_x86_64(&from.sp, to.sp);
#else
  swapcontext(&from.uc, &to.uc);
#endif
#if CM5_ASAN
  __sanitizer_finish_switch_fiber(fake, nullptr, nullptr);
#endif
}

}  // namespace cm5::sim::fiber
