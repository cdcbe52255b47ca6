/**
 * @file
 * Schedule data structures: what an offline scheduler produces and the
 * architecture simulator consumes.
 *
 * A schedule is organized as (pass, window) phases. Within a phase every
 * matrix channel holds a list of 512-bit beats; a beat carries one slot
 * per PE of the channel's PEG. Invalid slots are the explicit zeros /
 * stalls of Section 2.2. Phases execute sequentially (the x window is
 * reloaded in between); inside a phase all channels stream in lockstep
 * for `alignedBeats` beats (channel lists are resized to the longest one,
 * Section 3.1).
 */

#ifndef CHASON_SCHED_SCHEDULE_H_
#define CHASON_SCHED_SCHEDULE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <new>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/pagepool.h"
#include "sched/config.h"
#include "sched/element.h"
#include "sparse/formats.h"

namespace chason {
namespace sched {

/** One PE-slot of a beat. */
struct Slot
{
    float value = 0.0f;
    std::uint32_t row = 0;  ///< global row index
    std::uint32_t col = 0;  ///< global column index
    bool valid = false;     ///< false = stall / explicit zero
    bool pvt = true;        ///< belongs to the channel it is streamed on
    std::uint8_t peSrc = 0; ///< originating PE (meaningful when !pvt)
    std::uint8_t chSrc = 0; ///< originating channel (== own channel if pvt)
};

/** One 512-bit beat: a slot for each PE of the PEG. */
struct Beat
{
    std::array<Slot, kMaxPesPerGroup> slots;

    /** Number of valid (non-stall) slots among the first @p pes. */
    unsigned validCount(unsigned pes) const;

    /** True if none of the first @p pes slots is valid. */
    bool allStall(unsigned pes) const { return validCount(pes) == 0; }
};

// The CHSA artifact format (sched/artifact.h) stores Beat arrays as raw
// bytes and the zero-copy loader aliases them straight out of the file
// mapping, so the in-memory layout IS the on-disk layout. These pins
// turn a layout drift into a compile error instead of a silently
// incompatible artifact.
static_assert(sizeof(Slot) == 16, "Slot layout is pinned by CHSA v1");
static_assert(sizeof(Beat) == 16 * kMaxPesPerGroup,
              "Beat layout is pinned by CHSA v1");
static_assert(std::is_trivially_copyable_v<Beat>,
              "beats are serialized as raw bytes");

namespace detail {

/**
 * std::allocator, except no-argument (default-)insertion constructs
 * nothing at all: BeatList grows its tail uninitialized and fills it
 * with one streaming copy (BeatList::append), instead of having the
 * vector pre-write the beats — which would drag every cache line
 * through read-for-ownership right before the copy overwrites it.
 * Restricted to the trivially copyable Beat, whose bytes carry no
 * invariants; every argumented insertion (copy, fill, assign)
 * constructs normally.
 *
 * Storage comes from common::PagePool: beat buffers are the bulk of a
 * schedule's footprint and dominate the process's page-fault bill, so
 * recycling them across phases and schedule() calls keeps the
 * placement write path on warm pages.
 */
template <class T>
struct NoInitAlloc
{
    using value_type = T;

    NoInitAlloc() = default;
    template <class U>
    NoInitAlloc(const NoInitAlloc<U> &) noexcept
    {
    }

    T *allocate(std::size_t n)
    {
        return static_cast<T *>(common::pagePoolAlloc(n * sizeof(T)));
    }
    void deallocate(T *p, std::size_t n)
    {
        common::pagePoolFree(p, n * sizeof(T));
    }

    template <class U>
    void construct(U *) noexcept
    {
    }
    template <class U, class... Args>
    void construct(U *p, Args &&...args)
    {
        ::new (static_cast<void *>(p)) U(std::forward<Args>(args)...);
    }

    template <class U>
    bool operator==(const NoInitAlloc<U> &) const noexcept
    {
        return true;
    }
    template <class U>
    bool operator!=(const NoInitAlloc<U> &) const noexcept
    {
        return false;
    }
};

} // namespace detail

/**
 * Beat storage that either owns a vector or aliases immutable external
 * memory (a CHSA artifact mapping). The vector-like API keeps every
 * scheduler/mutator call site unchanged: const accessors serve the
 * aliased view directly (the simulator and verifier never copy), while
 * any mutating call first detaches — copies the view into owned
 * storage — so a loaded schedule degrades gracefully to a private copy
 * the moment something writes to it (e.g. corruption injection in
 * tests). An aliasing list shares ownership of its backing mapping, so
 * it can never dangle even if copied out of its Schedule.
 */
class BeatList
{
  public:
    BeatList() = default;

    /** A list aliasing @p count beats at @p data, kept alive by
     *  @p backing (the artifact mapping). */
    static BeatList
    aliasing(const Beat *data, std::size_t count,
             std::shared_ptr<const void> backing)
    {
        BeatList list;
        list.view_ = data;
        list.viewCount_ = count;
        list.backing_ = std::move(backing);
        return list;
    }

    std::size_t size() const { return view_ ? viewCount_ : owned_.size(); }
    bool empty() const { return size() == 0; }

    /** Beats the storage can hold; for a view, its mapped extent. */
    std::size_t capacity() const
    {
        return view_ ? viewCount_ : owned_.capacity();
    }

    /** True while the beats alias external (artifact) memory. */
    bool aliased() const { return view_ != nullptr; }

    const Beat *data() const { return view_ ? view_ : owned_.data(); }
    const Beat *begin() const { return data(); }
    const Beat *end() const { return data() + size(); }
    const Beat &operator[](std::size_t i) const { return data()[i]; }
    const Beat &back() const { return data()[size() - 1]; }

    Beat *begin() { detach(); return owned_.data(); }
    Beat *end() { detach(); return owned_.data() + owned_.size(); }
    Beat &operator[](std::size_t i) { detach(); return owned_[i]; }
    Beat &back() { detach(); return owned_.back(); }

    void reserve(std::size_t n) { detach(); owned_.reserve(n); }

    /** Resize; beats appended by growth are zero-stall (Beat{}). */
    void resize(std::size_t n) { detach(); owned_.resize(n, Beat{}); }

    /**
     * Append @p n copies of @p beat. A fill-insert of the trivially
     * copyable Beat vectorizes to near-memcpy stores, an order of
     * magnitude faster than resize()'s per-slot value-init loop —
     * placement bulk-appends stall templates through this.
     */
    void append(std::size_t n, const Beat &beat)
    {
        detach();
        owned_.insert(owned_.end(), n, beat);
    }

    /**
     * Append @p n beats from @p src with non-temporal stores. The tail
     * is grown uninitialized (NoInitAlloc) and the copy streams past
     * the cache, so the cold storage takes pure write traffic — no
     * read-for-ownership and no eviction of the scratch the block was
     * composed in. The capacity must already cover the growth (one
     * exact reserve() up front); a reallocation here would re-copy
     * everything appended so far.
     */
    void append(const Beat *src, std::size_t n)
    {
        detach();
        const std::size_t old = owned_.size();
        owned_.resize(old + n); // default-insert: leaves beats raw
        streamCopy(owned_.data() + old, src, n);
    }

    Beat &emplace_back()
    {
        detach();
        owned_.push_back(Beat{});
        return owned_.back();
    }
    void push_back(const Beat &beat) { detach(); owned_.push_back(beat); }
    void pop_back() { detach(); owned_.pop_back(); }

    void clear()
    {
        owned_.clear();
        view_ = nullptr;
        viewCount_ = 0;
        backing_.reset();
    }

  private:
    /** Copy an aliased view into owned storage before mutation. */
    void detach()
    {
        if (view_ == nullptr)
            return;
        owned_.assign(view_, view_ + viewCount_);
        view_ = nullptr;
        viewCount_ = 0;
        backing_.reset();
    }

    /** memcpy via non-temporal stores (plain memcpy off x86-64). */
    static void streamCopy(Beat *dst, const Beat *src, std::size_t n);

    std::vector<Beat, detail::NoInitAlloc<Beat>> owned_;
    const Beat *view_ = nullptr;
    std::size_t viewCount_ = 0;
    std::shared_ptr<const void> backing_;
};

/**
 * Free-slot bitmap of one phase: masks[ch][t] has bit p set iff slot p
 * of channel ch's beat t is a stall (invalid slot). Placement emits it
 * as a byproduct so that migration can walk the holes directly instead
 * of rescanning every beat's slots.
 */
using FreeSlotMasks = std::vector<std::vector<std::uint8_t>>;

/** The beat list one channel streams during one phase. */
struct ChannelWindowSchedule
{
    BeatList beats;

    std::size_t length() const { return beats.size(); }

    /** Valid slots over the channel's own list. */
    std::size_t validSlots(unsigned pes) const;

    /** Drop trailing beats that carry no valid slot. */
    void trimTrailingStalls(unsigned pes);
};

/** One (pass, window) phase across all matrix channels. */
struct WindowSchedule
{
    std::uint32_t pass = 0;   ///< row pass index
    std::uint32_t window = 0; ///< column window index
    std::vector<ChannelWindowSchedule> channels;

    /**
     * Beats every channel streams this phase (channels shorter than this
     * are padded with stall beats on the wire).
     */
    std::size_t alignedBeats = 0;

    /** Recompute alignedBeats from the current channel lengths. */
    void realign();
};

/** A complete schedule for one matrix. */
struct Schedule
{
    SchedConfig config;
    std::string scheduler;   ///< producing algorithm, for reports
    std::uint32_t rows = 0;
    std::uint32_t cols = 0;
    std::size_t nnz = 0;
    std::vector<WindowSchedule> phases;

    /** Sum of alignedBeats over all phases. */
    std::size_t totalAlignedBeats() const;

    /**
     * Approximate resident size in bytes (struct overhead + beat
     * storage). Used by core::ScheduleCache to enforce its byte
     * budget; distinct from scheduleArtifactBytes(), which sizes the
     * *wire* artifact DMA'd to the device.
     */
    std::size_t memoryBytes() const;

    /** Column windows per pass. */
    std::uint32_t windowsPerPass() const;

    /** Number of row passes. */
    std::uint32_t passes() const;
};

/**
 * Total artifact size in bytes (what the host must DMA to HBM for the
 * matrix streams — the "data list" footprint the paper's transfer
 * numbers count).
 */
std::uint64_t scheduleArtifactBytes(const Schedule &schedule);

/**
 * Serialize one channel's beats of one phase into the 64-bit stream the
 * hardware would read from HBM (8 words per beat, stall slots as zero
 * words). Local row/col indices are derived with the schedule's LaneMap
 * and window geometry. Only valid for migrationDepth <= 1 (the 1-bit pvt
 * flag cannot name a farther source).
 */
std::vector<EncodedElement>
encodeChannelStream(const Schedule &schedule, std::size_t phase,
                    unsigned channel);

/**
 * Inverse of encodeChannelStream: rebuild slots from the wire encoding.
 * Global row/col are reconstructed from (channel, pe, pass, window); used
 * by the simulator's encoded-input mode and by round-trip tests.
 */
ChannelWindowSchedule
decodeChannelStream(const SchedConfig &config,
                    const std::vector<EncodedElement> &words,
                    std::uint32_t pass, std::uint32_t window,
                    unsigned channel);

/**
 * One row's non-zeros inside one (pass, window, lane) bucket. The run is
 * a contiguous slice of the owning PhaseWork's cols/vals arrays: (row,
 * offset, length). Resolve elements through PhaseWork::col / ::val.
 */
struct RowRun
{
    std::uint32_t row = 0; ///< global row
    std::uint32_t len = 0; ///< non-zeros in this run
    std::size_t offset = 0; ///< first element in the phase's cols/vals
};

/**
 * Work for one (pass, window): per-lane row runs plus the phase's
 * element data, re-packed contiguously in (lane, run) order. The copy
 * pays one streaming pass up front so that placement — which visits
 * runs round-robin — reads values and columns sequentially instead of
 * gathering from phase-strided slices of the whole matrix (a measured
 * ~40% of placement time on the large R-MAT tier). Views into the
 * owning PhaseWorkList's arena.
 */
struct PhaseWork
{
    std::uint32_t pass = 0;
    std::uint32_t window = 0;
    common::Span<const common::Span<const RowRun>> lanes; ///< [lane] -> runs
    std::size_t nnz = 0;
    const std::uint32_t *cols = nullptr; ///< phase column indices
    const float *vals = nullptr;         ///< phase values

    /** Global column of element @p i of @p run. */
    std::uint32_t col(const RowRun &run, std::uint32_t i) const
    {
        return cols[run.offset + i];
    }

    /** Value of element @p i of @p run. */
    float val(const RowRun &run, std::uint32_t i) const
    {
        return vals[run.offset + i];
    }
};

/**
 * The phase-work decomposition of one matrix: phase descriptors plus the
 * arena that owns every RowRun table they point into. Move-only;
 * iterable like the vector it replaces.
 */
class PhaseWorkList
{
  public:
    PhaseWorkList() = default;
    PhaseWorkList(PhaseWorkList &&) = default;
    PhaseWorkList &operator=(PhaseWorkList &&) = default;

    std::size_t size() const { return phases_.size(); }
    bool empty() const { return phases_.empty(); }
    const PhaseWork &operator[](std::size_t i) const { return phases_[i]; }
    std::vector<PhaseWork>::const_iterator begin() const
    {
        return phases_.begin();
    }
    std::vector<PhaseWork>::const_iterator end() const
    {
        return phases_.end();
    }

  private:
    friend PhaseWorkList buildPhaseWork(const sparse::CsrMatrix &,
                                        const SchedConfig &);

    std::vector<PhaseWork> phases_;
    common::Arena arena_;
};

/**
 * Split a matrix into per-phase, per-lane work according to the config's
 * lane map, window size and pass height. Phases are ordered pass-major;
 * phases with no non-zeros are omitted (an empty window costs neither an
 * x reload nor stream beats).
 *
 * Two cache-friendly sequential passes over the CSR arrays: a counting
 * pass sizes every (phase, lane) run table exactly, then a fill pass
 * writes the RowRun slices and the re-packed element data into arena
 * blocks — no per-row or per-nz heap allocation. The result owns copies
 * of the element data it references and is independent of @p matrix's
 * lifetime.
 */
PhaseWorkList buildPhaseWork(const sparse::CsrMatrix &matrix,
                             const SchedConfig &config);

} // namespace sched
} // namespace chason

#endif // CHASON_SCHED_SCHEDULE_H_
