/**
 * @file
 * Schedule container implementation: phase-work bucketing and the wire
 * encoding round trip.
 */

#include "sched/schedule.h"

#include <algorithm>
#include <bit>
#include <cstring>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "common/logging.h"

namespace chason {
namespace sched {

void
BeatList::streamCopy(Beat *dst, const Beat *src, std::size_t n)
{
#if defined(__SSE2__)
    // Heap Beat arrays are 16-byte aligned in practice (operator new
    // aligns to max_align_t and a Beat is 8 x 16 bytes), but the copy
    // must not rely on it — fall through to memcpy when not.
    if (((reinterpret_cast<std::uintptr_t>(dst) |
          reinterpret_cast<std::uintptr_t>(src)) & 15u) == 0) {
        const auto *s = reinterpret_cast<const __m128i *>(src);
        auto *d = reinterpret_cast<__m128i *>(dst);
        const std::size_t words = n * (sizeof(Beat) / 16);
        for (std::size_t i = 0; i < words; ++i)
            _mm_stream_si128(d + i, _mm_load_si128(s + i));
        // Order the streamed beats before anything reads them back.
        _mm_sfence();
        return;
    }
#endif
    std::memcpy(dst, src, n * sizeof(Beat));
}

unsigned
Beat::validCount(unsigned pes) const
{
    chason_assert(pes <= kMaxPesPerGroup, "pes out of range");
    unsigned count = 0;
    for (unsigned p = 0; p < pes; ++p) {
        if (slots[p].valid)
            ++count;
    }
    return count;
}

std::size_t
ChannelWindowSchedule::validSlots(unsigned pes) const
{
    std::size_t count = 0;
    for (const Beat &beat : beats)
        count += beat.validCount(pes);
    return count;
}

void
ChannelWindowSchedule::trimTrailingStalls(unsigned pes)
{
    while (!beats.empty() && beats.back().allStall(pes))
        beats.pop_back();
}

void
WindowSchedule::realign()
{
    alignedBeats = 0;
    for (const ChannelWindowSchedule &ch : channels)
        alignedBeats = std::max(alignedBeats, ch.length());
}

std::size_t
Schedule::totalAlignedBeats() const
{
    std::size_t total = 0;
    for (const WindowSchedule &phase : phases)
        total += phase.alignedBeats;
    return total;
}

std::size_t
Schedule::memoryBytes() const
{
    std::size_t bytes = sizeof(Schedule);
    for (const WindowSchedule &phase : phases) {
        bytes += sizeof(WindowSchedule);
        for (const ChannelWindowSchedule &ch : phase.channels)
            bytes += sizeof(ChannelWindowSchedule) +
                ch.beats.capacity() * sizeof(Beat);
    }
    return bytes;
}

std::uint64_t
scheduleArtifactBytes(const Schedule &schedule)
{
    // The HBM-resident payload: every channel stores alignedBeats beats
    // of 64 bytes per phase (stall words included — this is exactly the
    // "data list" whose padding Serpens pays for and CrHCS trims).
    return static_cast<std::uint64_t>(schedule.totalAlignedBeats()) *
        schedule.config.channels * 64;
}

std::uint32_t
Schedule::windowsPerPass() const
{
    return (cols + config.windowCols - 1) / config.windowCols;
}

std::uint32_t
Schedule::passes() const
{
    return (rows + config.rowsPerPass() - 1) / config.rowsPerPass();
}

PhaseWorkList
buildPhaseWork(const sparse::CsrMatrix &matrix, const SchedConfig &config)
{
    config.validate();
    const LaneMap map(config);
    const std::uint32_t windows =
        (matrix.cols() + config.windowCols - 1) / config.windowCols;
    const std::uint32_t passes =
        (matrix.rows() + config.rowsPerPass() - 1) / config.rowsPerPass();
    chason_assert(windows >= 1 || matrix.nnz() == 0,
                  "matrix with nnz needs at least one window");

    const std::size_t lanes = map.lanes();
    // cell index = (pass * windows + window) * lanes + lane
    const std::size_t phase_count =
        static_cast<std::size_t>(passes) * windows;
    const std::size_t cells = phase_count * lanes;

    const auto &row_ptr = matrix.rowPtr();
    const auto &col_idx = matrix.colIdx();
    const auto &values = matrix.values();
    const std::uint32_t wc = config.windowCols;
    const std::uint32_t rows_per_pass = config.rowsPerPass();
    // Power-of-two window widths (the common case) resolve the
    // per-segment window index with a shift; the hardware divide
    // otherwise costs ~20 cycles on each of the millions of segments
    // the two passes visit.
    const int wshift =
        (wc & (wc - 1)) == 0 ? std::countr_zero(wc) : -1;
    const auto window_of = [wc, wshift](std::uint32_t col) {
        return wshift >= 0 ? col >> wshift : col / wc;
    };

    // Counting pass: exact run / nnz totals per cell and per phase.
    // Column indices are sorted within a row, so each row splits into
    // consecutive window segments; a segment is delimited by one upper
    // column bound instead of a per-element division.
    std::vector<std::uint32_t> run_count(cells, 0);
    std::vector<std::size_t> cell_nnz(cells, 0);
    std::vector<std::size_t> phase_nnz(phase_count, 0);
    // Rows are visited in order, so the lane cycles and the pass steps
    // at fixed row boundaries; running counters replace the per-row
    // modulo / divide of laneOf() and rowsPerPass().
    unsigned lane = 0;
    std::uint32_t pass = 0, pass_row = 0;
    for (std::uint32_t r = 0; r < matrix.rows(); ++r) {
        const std::size_t row_cell_base =
            (static_cast<std::size_t>(pass) * windows) * lanes + lane;
        std::size_t i = row_ptr[r];
        const std::size_t end = row_ptr[r + 1];
        while (i < end) {
            const std::uint32_t w = window_of(col_idx[i]);
            const std::uint64_t bound =
                (static_cast<std::uint64_t>(w) + 1) * wc;
            std::size_t j = i + 1;
            while (j < end && col_idx[j] < bound)
                ++j;
            const std::size_t c =
                row_cell_base + static_cast<std::size_t>(w) * lanes;
            ++run_count[c];
            cell_nnz[c] += j - i;
            phase_nnz[static_cast<std::size_t>(pass) * windows + w] += j - i;
            i = j;
        }
        if (++lane == lanes)
            lane = 0;
        if (++pass_row == rows_per_pass) {
            pass_row = 0;
            ++pass;
        }
    }

    // One arena block holds every run; cells own contiguous sub-ranges.
    // Element data is re-packed per phase in the same (lane, run) order,
    // so each cell also gets a data cursor into its phase's arrays.
    std::size_t total_runs = 0;
    std::vector<std::size_t> cursor(cells);
    for (std::size_t c = 0; c < cells; ++c) {
        cursor[c] = total_runs;
        total_runs += run_count[c];
    }

    PhaseWorkList list;
    RowRun *runs = list.arena_.allocate<RowRun>(total_runs);
    std::vector<float *> phase_vals(phase_count, nullptr);
    std::vector<std::uint32_t *> phase_cols(phase_count, nullptr);
    std::vector<std::size_t> data_cursor(cells, 0);

    // Phase descriptors (empty phases omitted), per-lane span tables and
    // per-phase element buffers.
    for (std::size_t p = 0; p < phase_count; ++p) {
        if (phase_nnz[p] == 0)
            continue;
        PhaseWork pw;
        pw.pass = static_cast<std::uint32_t>(p / windows);
        pw.window = static_cast<std::uint32_t>(p % windows);
        pw.nnz = phase_nnz[p];
        phase_vals[p] = list.arena_.allocate<float>(phase_nnz[p]);
        phase_cols[p] = list.arena_.allocate<std::uint32_t>(phase_nnz[p]);
        pw.vals = phase_vals[p];
        pw.cols = phase_cols[p];
        auto *table =
            list.arena_.allocate<common::Span<const RowRun>>(lanes);
        std::size_t data_off = 0;
        for (std::size_t lane = 0; lane < lanes; ++lane) {
            const std::size_t c = p * lanes + lane;
            table[lane] = {runs + cursor[c], run_count[c]};
            data_cursor[c] = data_off;
            data_off += cell_nnz[c];
        }
        pw.lanes = {table, lanes};
        list.phases_.push_back(pw);
    }

    // Fill pass: same segmentation, writing each run slice and copying
    // its elements into the phase's contiguous buffers.
    lane = 0;
    pass = 0;
    pass_row = 0;
    for (std::uint32_t r = 0; r < matrix.rows(); ++r) {
        const std::size_t row_cell_base =
            (static_cast<std::size_t>(pass) * windows) * lanes + lane;
        std::size_t i = row_ptr[r];
        const std::size_t end = row_ptr[r + 1];
        while (i < end) {
            const std::uint32_t w = window_of(col_idx[i]);
            const std::uint64_t bound =
                (static_cast<std::uint64_t>(w) + 1) * wc;
            std::size_t j = i + 1;
            while (j < end && col_idx[j] < bound)
                ++j;
            const std::size_t c =
                row_cell_base + static_cast<std::size_t>(w) * lanes;
            const std::size_t p =
                static_cast<std::size_t>(pass) * windows + w;
            RowRun &run = runs[cursor[c]++];
            run.row = r;
            run.len = static_cast<std::uint32_t>(j - i);
            run.offset = data_cursor[c];
            // Runs average a handful of elements, so plain loops beat
            // the library copy's memmove dispatch here.
            float *dv = phase_vals[p] + data_cursor[c];
            std::uint32_t *dc = phase_cols[p] + data_cursor[c];
            for (std::size_t k = i; k < j; ++k) {
                *dv++ = values[k];
                *dc++ = col_idx[k];
            }
            data_cursor[c] += j - i;
            i = j;
        }
        if (++lane == lanes)
            lane = 0;
        if (++pass_row == rows_per_pass) {
            pass_row = 0;
            ++pass;
        }
    }
    return list;
}

std::vector<EncodedElement>
encodeChannelStream(const Schedule &schedule, std::size_t phase,
                    unsigned channel)
{
    chason_assert(phase < schedule.phases.size(), "phase out of range");
    chason_assert(schedule.config.migrationDepth <= 1,
                  "wire encoding only names the immediate next channel");
    const WindowSchedule &ws = schedule.phases[phase];
    chason_assert(channel < ws.channels.size(), "channel out of range");

    const LaneMap map(schedule.config);
    const unsigned pes = schedule.config.pesPerGroup();
    const std::uint32_t pass_base =
        ws.pass * schedule.config.rowsPerPass();
    const std::uint32_t col_base =
        ws.window * schedule.config.windowCols;

    std::vector<EncodedElement> words;
    const ChannelWindowSchedule &ch = ws.channels[channel];
    words.reserve(ch.beats.size() * pes);
    for (const Beat &beat : ch.beats) {
        for (unsigned p = 0; p < pes; ++p) {
            const Slot &slot = beat.slots[p];
            if (!slot.valid) {
                words.emplace_back(); // explicit zero / stall word
                continue;
            }
            DecodedElement e;
            e.value = slot.value;
            chason_assert(slot.row >= pass_base, "row below pass base");
            e.localRow = map.localRowOf(slot.row) -
                map.localRowOf(pass_base);
            chason_assert(slot.col >= col_base, "col below window base");
            e.localCol = slot.col - col_base;
            e.pvt = slot.pvt;
            e.peSrc = slot.peSrc;
            words.push_back(EncodedElement::pack(e));
        }
    }
    return words;
}

ChannelWindowSchedule
decodeChannelStream(const SchedConfig &config,
                    const std::vector<EncodedElement> &words,
                    std::uint32_t pass, std::uint32_t window,
                    unsigned channel)
{
    const LaneMap map(config);
    const unsigned pes = config.pesPerGroup();
    chason_assert(words.size() % pes == 0,
                  "stream length %zu is not a whole number of beats",
                  words.size());
    const std::uint32_t pass_base_local =
        map.localRowOf(pass * config.rowsPerPass());
    const std::uint32_t col_base = window * config.windowCols;

    ChannelWindowSchedule ch;
    ch.beats.resize(words.size() / pes);
    for (std::size_t i = 0; i < words.size(); ++i) {
        const unsigned p = static_cast<unsigned>(i % pes);
        Slot &slot = ch.beats[i / pes].slots[p];
        if (words[i].isStall()) {
            slot = Slot();
            continue;
        }
        const DecodedElement e = words[i].unpack();
        slot.valid = true;
        slot.value = e.value;
        slot.pvt = e.pvt;
        slot.peSrc = static_cast<std::uint8_t>(e.peSrc);
        // A migrated element came from the immediate next channel.
        const unsigned src_ch =
            e.pvt ? channel : (channel + 1) % config.channels;
        slot.chSrc = static_cast<std::uint8_t>(src_ch);
        const unsigned src_pe = e.pvt ? p : e.peSrc;
        slot.row = map.globalRowOf(src_ch, src_pe,
                                   e.localRow + pass_base_local);
        slot.col = e.localCol + col_base;
    }
    return ch;
}

} // namespace sched
} // namespace chason
