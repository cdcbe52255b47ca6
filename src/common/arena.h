/**
 * @file
 * Bump (arena) allocator for scheduling scratch data.
 *
 * The offline schedulers build millions of tiny, identically-shaped
 * records per matrix (row runs, donor entries, per-lane tables). Giving
 * each record its own heap vector made allocation — and, worse,
 * deallocation — the dominant scheduling cost on large matrices. An
 * Arena hands out raw storage by bumping a cursor through large chunks
 * and frees everything at once when destroyed, so per-record cost drops
 * to a pointer increment and teardown is O(chunks).
 *
 * Only trivially-destructible element types are supported (the arena
 * never runs destructors); this is enforced at compile time. Alignment
 * is per-allocation. Arenas are movable but not copyable, and are NOT
 * thread-safe — each scheduling job owns its own arena.
 */

#ifndef CHASON_COMMON_ARENA_H_
#define CHASON_COMMON_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

namespace chason {
namespace common {

/**
 * Non-owning contiguous view, the shape arena allocations are handed
 * out as. Deliberately minimal: pointer + length with container-style
 * accessors, so consumers can range-for and index without caring that
 * the storage lives in an arena.
 */
template <typename T>
struct Span
{
    T *ptr = nullptr;
    std::size_t count = 0;

    T *begin() const { return ptr; }
    T *end() const { return ptr + count; }
    T &operator[](std::size_t i) const { return ptr[i]; }
    std::size_t size() const { return count; }
    bool empty() const { return count == 0; }
    T &front() const { return ptr[0]; }
    T &back() const { return ptr[count - 1]; }

    /** Implicit const view (Span<T> -> Span<const T>). */
    operator Span<const T>() const { return {ptr, count}; }
};

/** Chunked bump allocator; frees all storage at once on destruction. */
class Arena
{
  public:
    /** @param chunk_bytes granularity of the backing allocations. */
    explicit Arena(std::size_t chunk_bytes = kDefaultChunkBytes);

    Arena(Arena &&) = default;
    Arena &operator=(Arena &&) = default;
    Arena(const Arena &) = delete;
    Arena &operator=(const Arena &) = delete;

    /**
     * Allocate an uninitialized array of @p n elements of T. Returns a
     * valid (dangling-safe, unique) pointer even for n == 0.
     */
    template <typename T>
    T *
    allocate(std::size_t n)
    {
        static_assert(std::is_trivially_destructible_v<T>,
                      "arena storage is freed without running destructors");
        return static_cast<T *>(allocateRaw(n * sizeof(T), alignof(T)));
    }

    /** Allocate and value-initialize a Span of @p n elements of T. */
    template <typename T>
    Span<T>
    allocateSpan(std::size_t n)
    {
        T *p = allocate<T>(n);
        for (std::size_t i = 0; i < n; ++i)
            new (p + i) T();
        return {p, n};
    }

    /** Bytes handed out so far (excludes chunk slack). */
    std::size_t allocatedBytes() const { return allocated_; }

    /** Backing chunks currently held. */
    std::size_t chunks() const { return chunks_.size(); }

    /**
     * Drop the bump cursors but keep the first chunk for reuse, so a
     * per-job arena can be recycled across phases without returning to
     * the system allocator. Previously handed-out pointers become
     * invalid.
     */
    void reset();

    static constexpr std::size_t kDefaultChunkBytes = 1u << 20;

  private:
    void *allocateRaw(std::size_t bytes, std::size_t align);

    struct Chunk
    {
        std::unique_ptr<std::byte[]> data;
        std::size_t size = 0;
        std::size_t used = 0;
    };

    std::size_t chunkBytes_;
    std::size_t allocated_ = 0;
    std::vector<Chunk> chunks_;
};

} // namespace common
} // namespace chason

#endif // CHASON_COMMON_ARENA_H_
