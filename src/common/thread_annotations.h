/**
 * @file
 * Clang thread-safety-analysis annotations and annotated lock types.
 *
 * The locking discipline that keeps CrHCS schedules bit-identical
 * across job counts is a compile-time contract here, not a runtime
 * hope: every concurrent subsystem (core::ThreadPool,
 * core::ScheduleCache, core::BatchEngine, trace::TraceSink, the
 * buildinfo revision cache) declares which
 * capability guards which member, and a Clang build with
 * -DCHASON_THREAD_SAFETY=ON (-Wthread-safety
 * -Werror=thread-safety-analysis) refuses to compile an access that
 * drops a lock. GCC does not implement the analysis; the macros
 * expand to nothing there and the annotated types behave exactly like
 * std::mutex / std::lock_guard / std::condition_variable.
 *
 * Conventions (see docs/STATIC_ANALYSIS.md):
 *  - guarded members carry GUARDED_BY(mutex_) on the declaration;
 *  - private *Locked() helpers carry REQUIRES(mutex_);
 *  - public entry points that take the lock carry EXCLUDES(mutex_);
 *  - condition waits are explicit `while (pred) cv.wait(mutex_)` loops
 *    in the locking function itself — a predicate lambda is analyzed
 *    as a separate function and would not see the held capability.
 */

#ifndef CHASON_COMMON_THREAD_ANNOTATIONS_H_
#define CHASON_COMMON_THREAD_ANNOTATIONS_H_

#include <condition_variable>
#include <mutex>

#if defined(__clang__)
#define CHASON_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define CHASON_THREAD_ANNOTATION(x) // no-op: GCC lacks the analysis
#endif

/** Marks a type as a lockable capability ("mutex", "role", ...). */
#define CAPABILITY(x) CHASON_THREAD_ANNOTATION(capability(x))

/** Marks an RAII type whose lifetime holds a capability. */
#define SCOPED_CAPABILITY CHASON_THREAD_ANNOTATION(scoped_lockable)

/** Data member readable/writable only with the capability held. */
#define GUARDED_BY(x) CHASON_THREAD_ANNOTATION(guarded_by(x))

/** Pointer member whose *pointee* is guarded by the capability. */
#define PT_GUARDED_BY(x) CHASON_THREAD_ANNOTATION(pt_guarded_by(x))

/** Lock-ordering edges, declared on the capability member itself. */
#define ACQUIRED_BEFORE(...) \
    CHASON_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) \
    CHASON_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

/** Callee runs with the capabilities already held by the caller. */
#define REQUIRES(...) \
    CHASON_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/** Function acquires the capabilities and holds them on return. */
#define ACQUIRE(...) \
    CHASON_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/** Function releases capabilities the caller held. */
#define RELEASE(...) \
    CHASON_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/** Acquires the capabilities only when returning @p success. */
#define TRY_ACQUIRE(success, ...) \
    CHASON_THREAD_ANNOTATION(try_acquire_capability(success, __VA_ARGS__))

/** Caller must NOT hold the capabilities (non-reentrant entry point). */
#define EXCLUDES(...) CHASON_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/** Function returns a reference to the named capability. */
#define RETURN_CAPABILITY(x) CHASON_THREAD_ANNOTATION(lock_returned(x))

/** Escape hatch; every use needs a comment saying why it is sound. */
#define NO_THREAD_SAFETY_ANALYSIS \
    CHASON_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace chason {
namespace common {

/**
 * std::mutex as an annotated capability. libstdc++'s own mutex carries
 * no attributes, so the analysis cannot track it; this wrapper is the
 * lockable type every annotated subsystem declares.
 */
class CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;
    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void lock() ACQUIRE() { m_.lock(); }
    void unlock() RELEASE() { m_.unlock(); }
    bool try_lock() TRY_ACQUIRE(true) { return m_.try_lock(); }

    /** The wrapped std::mutex, for CondVar's adopt-lock dance. */
    std::mutex &native() { return m_; }

  private:
    std::mutex m_;
};

/**
 * Scoped lock of a Mutex — the annotated std::lock_guard. The analysis
 * treats the guarded capability as held for exactly this object's
 * lifetime.
 */
class SCOPED_CAPABILITY MutexLock
{
  public:
    explicit MutexLock(Mutex &mutex) ACQUIRE(mutex) : mutex_(mutex)
    {
        mutex_.lock();
    }

    ~MutexLock() RELEASE() { mutex_.unlock(); }

    MutexLock(const MutexLock &) = delete;
    MutexLock &operator=(const MutexLock &) = delete;

  private:
    Mutex &mutex_;
};

/**
 * Condition variable bound to Mutex. wait() REQUIRES the mutex, so a
 * caller that forgot the lock is a compile error; the wait itself
 * adopts the already-held native mutex, releases it inside
 * std::condition_variable, and re-owns it before returning — the
 * capability is continuously held from the analysis' point of view,
 * which models exactly the guarantee wait() gives the predicate loop
 * around it.
 */
class CondVar
{
  public:
    CondVar() = default;
    CondVar(const CondVar &) = delete;
    CondVar &operator=(const CondVar &) = delete;

    void wait(Mutex &mutex) REQUIRES(mutex)
    {
        std::unique_lock<std::mutex> lock(mutex.native(),
                                          std::adopt_lock);
        cv_.wait(lock);
        lock.release(); // ownership returns to the caller's MutexLock
    }

    void notify_one() { cv_.notify_one(); }
    void notify_all() { cv_.notify_all(); }

  private:
    std::condition_variable cv_;
};

} // namespace common
} // namespace chason

#endif // CHASON_COMMON_THREAD_ANNOTATIONS_H_
