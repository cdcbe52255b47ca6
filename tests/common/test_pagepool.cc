/**
 * @file
 * Schedule storage that a thread frees goes back to malloc: nothing in
 * the tree keeps freed blocks per thread. A schedule built and dropped
 * on a worker thread must leave malloc's in-use byte count where it
 * was, while that thread is still alive.
 *
 * The binary keeps its historical ctest name, test_pagepool, from the
 * thread-local recycling pool whose absence it now checks.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <thread>

#include "common/rng.h"
#include "sched/crhcs.h"
#include "sparse/generators.h"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

// ASan defines __SANITIZE_ADDRESS__ under GCC; clang exposes it via
// __has_feature. Sanitizer runtimes replace malloc, so mallinfo2 does
// not describe their heap.
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define CHASON_TEST_SANITIZED 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define CHASON_TEST_SANITIZED 1
#endif

namespace chason {
namespace {

#if defined(__GLIBC__) && !defined(CHASON_TEST_SANITIZED)
/** Bytes malloc has handed out and not had back, over all arenas. */
std::size_t
mallocInUseBytes()
{
    const struct mallinfo2 info = mallinfo2();
    return info.uordblks + info.hblkhd;
}
#endif

TEST(ScheduleStorage, FreedOnAWorkerThreadReturnsToMalloc)
{
#if !defined(__GLIBC__) || defined(CHASON_TEST_SANITIZED)
    GTEST_SKIP() << "needs glibc's mallinfo2 and no sanitizer runtime";
#else
    Rng rng(11);
    const sparse::CsrMatrix a = sparse::rmat(14, std::size_t{1} << 17, rng);
    const sched::CrhcsScheduler scheduler(sched::SchedConfig{});

    std::size_t before = 0;
    std::size_t built = 0;
    std::size_t after = 0;
    std::thread worker([&] {
        before = mallocInUseBytes();
        {
            const sched::Schedule schedule = scheduler.schedule(a);
            built = mallocInUseBytes();
        }
        after = mallocInUseBytes();
    });
    worker.join();

    constexpr std::size_t kMiB = std::size_t{1} << 20;
    // The schedule is large enough for retention to show ...
    ASSERT_GT(built, before + 4 * kMiB);
    // ... and the worker, still alive when it measured, kept none of it.
    EXPECT_LT(after, before + kMiB)
        << "in use: " << before << " B before the build, " << built
        << " B with the schedule, " << after << " B after dropping it";
#endif
}

} // namespace
} // namespace chason
