/**
 * @file
 * Arena implementation.
 */

#include "common/arena.h"

#include "common/logging.h"

namespace chason {
namespace common {

Arena::Arena(std::size_t chunk_bytes) : chunkBytes_(chunk_bytes)
{
    chason_assert(chunk_bytes > 0, "arena chunk size must be positive");
}

void
Arena::reset()
{
    if (chunks_.size() > 1)
        chunks_.resize(1);
    if (!chunks_.empty())
        chunks_.front().used = 0;
    allocated_ = 0;
}

void *
Arena::allocateRaw(std::size_t bytes, std::size_t align)
{
    chason_assert(align > 0 && (align & (align - 1)) == 0,
                  "alignment %zu is not a power of two", align);
    if (chunks_.empty() ||
        chunks_.back().used + bytes + align > chunks_.back().size) {
        Chunk chunk;
        chunk.size = std::max(chunkBytes_, bytes + align);
        // Uninitialized: arena clients value-init what they need, and
        // make_unique would zero the whole chunk.
        chunk.data = std::make_unique_for_overwrite<std::byte[]>(chunk.size);
        chunks_.push_back(std::move(chunk));
    }
    Chunk &chunk = chunks_.back();
    const auto base = reinterpret_cast<std::uintptr_t>(chunk.data.get());
    std::uintptr_t cursor = base + chunk.used;
    cursor = (cursor + align - 1) & ~static_cast<std::uintptr_t>(align - 1);
    chunk.used = (cursor - base) + bytes;
    allocated_ += bytes;
    return reinterpret_cast<void *>(cursor);
}

} // namespace common
} // namespace chason
