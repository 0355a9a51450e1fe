#include "cm5/sim/stack_pool.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <set>
#include <unistd.h>
#include <vector>

#include "cm5/util/check.hpp"

/// \file stack_pool_test.cpp
/// Behavioural tests for the process-wide fiber-stack pool: reuse
/// identity (the perf claim — a released stack comes back verbatim),
/// LIFO ordering (warmest pages first), the cache-size knobs, cache
/// colors, the guard page, and address-space exhaustion.
///
/// The pool is a process-wide singleton whose stats are monotonic, so
/// every test measures *deltas* — other tests (and fiber-backend runs in
/// this binary, if any) legitimately move the absolute counters.

namespace cm5::sim {
namespace {

std::size_t page_size() {
  return static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
}

/// Unusual sizes so this binary's buckets never collide with the fiber
/// backend's default stack size.
constexpr std::size_t kSizeA = 96 * 1024;
constexpr std::size_t kSizeB = 160 * 1024;

TEST(StackPoolTest, AcquireReleaseReturnsTheSameStack) {
  FiberStackPool& pool = FiberStackPool::instance();
  const auto before = pool.stats();

  FiberStackPool::Stack s = pool.acquire(kSizeA);
  ASSERT_NE(s.base, nullptr);
  ASSERT_GE(s.size, kSizeA);
  // The stack is writable over its whole usable range.
  s.base[0] = std::byte{0x5a};
  s.base[s.size - 1] = std::byte{0xa5};
  std::byte* const first_base = s.base;
  pool.release(s);

  FiberStackPool::Stack again = pool.acquire(kSizeA);
  EXPECT_EQ(again.base, first_base)
      << "a released stack must be handed back verbatim";
  // Reuse means no fresh mapping: contents survive (the pool does not
  // scrub — fiber prologues overwrite what they need).
  EXPECT_EQ(again.base[0], std::byte{0x5a});
  pool.release(again);

  const auto after = pool.stats();
  EXPECT_EQ(after.reused - before.reused, 1);
  EXPECT_EQ(after.outstanding, before.outstanding);
}

TEST(StackPoolTest, ReuseIsLifoWithinASizeBucket) {
  FiberStackPool& pool = FiberStackPool::instance();
  FiberStackPool::Stack a = pool.acquire(kSizeA);
  FiberStackPool::Stack b = pool.acquire(kSizeA);
  ASSERT_NE(a.base, b.base);
  std::byte* const a_base = a.base;
  std::byte* const b_base = b.base;

  pool.release(a);
  pool.release(b);
  // b was released last: its pages are warmest, it must come back first.
  FiberStackPool::Stack first = pool.acquire(kSizeA);
  FiberStackPool::Stack second = pool.acquire(kSizeA);
  EXPECT_EQ(first.base, b_base);
  EXPECT_EQ(second.base, a_base);
  pool.release(first);
  pool.release(second);
}

TEST(StackPoolTest, SizeBucketsDoNotMix) {
  FiberStackPool& pool = FiberStackPool::instance();
  FiberStackPool::Stack a = pool.acquire(kSizeA);
  std::byte* const a_base = a.base;
  pool.release(a);

  // A different size must not be served from A's bucket...
  FiberStackPool::Stack b = pool.acquire(kSizeB);
  EXPECT_NE(b.base, a_base);
  EXPECT_GE(b.size, kSizeB);
  pool.release(b);

  // ...and A's stack is still there for its own size.
  FiberStackPool::Stack a2 = pool.acquire(kSizeA);
  EXPECT_EQ(a2.base, a_base);
  pool.release(a2);
}

TEST(StackPoolTest, RoundsUpToWholePages) {
  FiberStackPool& pool = FiberStackPool::instance();
  FiberStackPool::Stack s = pool.acquire(1);
  EXPECT_GE(s.size, std::size_t{1});
  EXPECT_EQ(s.size % page_size(), 0u);
  std::byte* const base = s.base;
  pool.release(s);
  // Any request within the same rounded size reuses the same stack.
  FiberStackPool::Stack t = pool.acquire(page_size());
  EXPECT_EQ(t.base, base);
  pool.release(t);
}

TEST(StackPoolTest, OutstandingCountTracksAcquires) {
  FiberStackPool& pool = FiberStackPool::instance();
  const auto before = pool.stats();
  FiberStackPool::Stack a = pool.acquire(kSizeA);
  FiberStackPool::Stack b = pool.acquire(kSizeB);
  EXPECT_EQ(pool.stats().outstanding - before.outstanding, 2);
  pool.release(a);
  EXPECT_EQ(pool.stats().outstanding - before.outstanding, 1);
  pool.release(b);
  EXPECT_EQ(pool.stats().outstanding, before.outstanding);
}

TEST(StackPoolTest, MaxCachedZeroDisablesReuse) {
  FiberStackPool& pool = FiberStackPool::instance();
  pool.set_max_cached(0);
  // Setting the cap to 0 flushes nothing retroactively; trim() does.
  pool.trim();
  const auto before = pool.stats();
  EXPECT_EQ(before.cached, 0);

  FiberStackPool::Stack s = pool.acquire(kSizeA);
  pool.release(s);
  const auto after = pool.stats();
  EXPECT_EQ(after.unmapped - before.unmapped, 1)
      << "with caching disabled every release must unmap";
  EXPECT_EQ(after.cached, 0);

  // The next acquire maps fresh instead of reusing.
  FiberStackPool::Stack t = pool.acquire(kSizeA);
  EXPECT_EQ(pool.stats().mapped - after.mapped, 1);
  EXPECT_EQ(pool.stats().reused, after.reused);
  pool.release(t);

  pool.set_max_cached(16384);  // restore the default for later tests
}

TEST(StackPoolTest, TrimUnmapsEveryCachedStack) {
  FiberStackPool& pool = FiberStackPool::instance();
  FiberStackPool::Stack a = pool.acquire(kSizeA);
  FiberStackPool::Stack b = pool.acquire(kSizeB);
  pool.release(a);
  pool.release(b);
  const auto before = pool.stats();
  ASSERT_GE(before.cached, 2);

  pool.trim();
  const auto after = pool.stats();
  EXPECT_EQ(after.cached, 0);
  EXPECT_EQ(after.unmapped - before.unmapped, before.cached);
  EXPECT_EQ(after.outstanding, before.outstanding);
}

TEST(StackPoolTest, ColorsAreLineMultiplesAndStable) {
  // A bucket no other test touches, so every acquire below maps fresh.
  constexpr std::size_t kSizeC = 112 * 1024;
  constexpr std::size_t kColors =
      FiberStackPool::kColorSpan / FiberStackPool::kColorStep;
  FiberStackPool& pool = FiberStackPool::instance();
  std::vector<FiberStackPool::Stack> stacks;
  std::set<std::size_t> colors;
  for (std::size_t i = 0; i < kColors; ++i) {
    const FiberStackPool::Stack s = pool.acquire(kSizeC);
    EXPECT_EQ(s.color % FiberStackPool::kColorStep, 0u);
    EXPECT_LT(s.color, FiberStackPool::kColorSpan);
    EXPECT_GE(s.size - s.color, kSizeC) << "usable size below the request";
    EXPECT_EQ(s.size % page_size(), 0u);
    if (!stacks.empty()) {
      EXPECT_NE(s.color, stacks.back().color);
    }
    colors.insert(s.color);
    stacks.push_back(s);
  }
  EXPECT_EQ(colors.size(), kColors) << "consecutive maps step the span";

  // A released stack comes back with its color.
  const FiberStackPool::Stack last = stacks.back();
  stacks.pop_back();
  pool.release(last);
  const FiberStackPool::Stack again = pool.acquire(kSizeC);
  EXPECT_EQ(again.base, last.base);
  EXPECT_EQ(again.color, last.color);
  pool.release(again);
  for (const FiberStackPool::Stack& s : stacks) pool.release(s);
}

TEST(StackPoolTest, GuardPageFaultsOnOverflow) {
  // The page below base is PROT_NONE: a stack overflow must fault
  // instead of corrupting the neighbouring mapping.
  EXPECT_DEATH_IF_SUPPORTED(
      {
        FiberStackPool::Stack s = FiberStackPool::instance().acquire(kSizeA);
        s.base[-1] = std::byte{0xff};
      },
      ".*");
}

TEST(StackPoolTest, AddressSpaceExhaustionThrowsCheckError) {
  // An absurd request (an exabyte of usable stack) cannot be mapped;
  // the pool must fail loudly, not return a bogus stack.
  EXPECT_THROW(FiberStackPool::instance().acquire(std::size_t{1} << 60),
               util::CheckError);
}

}  // namespace
}  // namespace cm5::sim
