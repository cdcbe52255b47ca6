/**
 * @file
 * Static schedule verifier implementation.
 *
 * The scan mirrors the streaming order of the hardware: phases in
 * sequence, channels in lockstep, beats in order, PEs within a beat —
 * so every diagnostic's location names the exact slot a simulator
 * would have mis-executed.
 */

#include "verify/verifier.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <unordered_map>
#include <unordered_set>

#include "common/logging.h"
#include "sched/analyzer.h"
#include "sched/element.h"
#include "verify/rules.h"

namespace chason {
namespace verify {

namespace {

using sched::Beat;
using sched::ChannelWindowSchedule;
using sched::ElementLayout;
using sched::LaneMap;
using sched::Schedule;
using sched::SchedConfig;
using sched::Slot;
using sched::WindowSchedule;

std::string
format(const char *fmt, ...)
{
    char buf[256];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, args);
    va_end(args);
    return buf;
}

std::uint64_t
elementKey(std::uint32_t row, std::uint32_t col)
{
    return (static_cast<std::uint64_t>(row) << 32) | col;
}

/**
 * Pre-flight: the geometry invariants SchedConfig::validate() panics
 * on, reported as CHV014 instead. Returns false when the config is too
 * broken to scan the schedule safely (e.g. zero lanes).
 */
bool
checkConfig(const Schedule &schedule, DiagnosticEngine &engine)
{
    const SchedConfig &cfg = schedule.config;
    bool scannable = true;
    if (cfg.channels < 1) {
        engine.report(rule::kMetadata, Severity::kError, {},
                      "config has zero channels");
        scannable = false;
    }
    if (cfg.pesPerGroup() < 1 ||
        cfg.pesPerGroup() > sched::kMaxPesPerGroup) {
        engine.report(rule::kMetadata, Severity::kError, {},
                      format("config pesPerGroup %u out of [1,%u]",
                             cfg.pesPerGroup(), sched::kMaxPesPerGroup));
        scannable = false;
    }
    if (cfg.rawDistance < 1) {
        engine.report(rule::kMetadata, Severity::kError, {},
                      "config rawDistance must be >= 1");
    }
    if (cfg.windowCols < 1 || cfg.rowsPerLanePerPass < 1) {
        engine.report(rule::kMetadata, Severity::kError, {},
                      "config window/pass geometry must be >= 1");
        scannable = false;
    }
    if (cfg.channels >= 1 && cfg.migrationDepth >= cfg.channels) {
        engine.report(rule::kMetadata, Severity::kError, {},
                      format("config migrationDepth %u must be < "
                             "channels %u",
                             cfg.migrationDepth, cfg.channels));
    }
    return scannable;
}

/** Wire-format feasibility of the configured geometry (CHV010). */
void
checkEncoding(const Schedule &schedule, DiagnosticEngine &engine)
{
    const SchedConfig &cfg = schedule.config;
    if (cfg.windowCols > ElementLayout::maxLocalCol() + 1) {
        engine.report(rule::kEncodingOverflow, Severity::kWarning, {},
                      format("windowCols %u exceeds the %u-bit local "
                             "column field; the artifact is not "
                             "wire-encodable",
                             cfg.windowCols, ElementLayout::kColBits));
    }
    if (cfg.rowsPerLanePerPass > ElementLayout::maxLocalRow() + 1) {
        engine.report(rule::kEncodingOverflow, Severity::kWarning, {},
                      format("rowsPerLanePerPass %u exceeds the %u-bit "
                             "local row field; the artifact is not "
                             "wire-encodable",
                             cfg.rowsPerLanePerPass,
                             ElementLayout::kRowBits));
    }
    if (cfg.migrationDepth > 1) {
        engine.report(rule::kEncodingOverflow, Severity::kNote, {},
                      format("migrationDepth %u cannot be named by the "
                             "1-bit pvt flag; the 64-bit wire encoding "
                             "cannot carry this schedule (simulation "
                             "and CHSA storage are unaffected)",
                             cfg.migrationDepth));
    }
}

} // namespace

const Diagnostic *
VerifyResult::firstError() const
{
    for (const Diagnostic &d : diagnostics) {
        if (d.severity == Severity::kError)
            return &d;
    }
    return nullptr;
}

std::string
VerifyResult::summary() const
{
    char buf[160];
    if (clean()) {
        std::snprintf(buf, sizeof(buf),
                      "clean: %zu slots checked, %zu warnings, %zu notes",
                      checkedSlots, warnings, notes);
    } else {
        std::snprintf(buf, sizeof(buf),
                      "%zu errors, %zu warnings, %zu notes over %zu "
                      "slots (%zu findings suppressed)",
                      errors, warnings, notes, checkedSlots, suppressed);
    }
    return buf;
}

VerifyResult
verifySchedule(const Schedule &schedule, const VerifyOptions &options)
{
    DiagnosticEngine engine(options.maxDiagnosticsPerRule);
    VerifyResult result;

    const bool scannable = checkConfig(schedule, engine);
    if (scannable)
        checkEncoding(schedule, engine);

    const SchedConfig &cfg = schedule.config;
    std::size_t valid_slots = 0;

    if (scannable) {
        const LaneMap map(cfg);
        const unsigned pes = cfg.pesPerGroup();
        const unsigned channels = cfg.channels;

        // Ground truth for the completeness rules.
        std::unordered_map<std::uint64_t, float> expected;
        std::unordered_set<std::uint64_t> seen;
        const sparse::CsrMatrix *matrix = options.matrix;
        if (matrix != nullptr) {
            expected.reserve(matrix->nnz());
            seen.reserve(matrix->nnz());
            for (std::uint32_t r = 0; r < matrix->rows(); ++r) {
                for (std::size_t i = matrix->rowPtr()[r];
                     i < matrix->rowPtr()[r + 1]; ++i) {
                    expected[elementKey(r, matrix->colIdx()[i])] =
                        matrix->values()[i];
                }
            }
            if (schedule.rows != matrix->rows() ||
                schedule.cols != matrix->cols()) {
                engine.report(
                    rule::kMetadata, Severity::kError, {},
                    format("schedule header %ux%u does not match the "
                           "matrix %ux%u",
                           schedule.rows, schedule.cols, matrix->rows(),
                           matrix->cols()));
            }
        }

        if (options.capacityRowsPerLane != 0 &&
            cfg.rowsPerLanePerPass > options.capacityRowsPerLane) {
            engine.report(
                rule::kScugCapacity, Severity::kWarning, {},
                format("config allows %u rows per lane per pass but the "
                       "physical ScUG holds %u",
                       cfg.rowsPerLanePerPass,
                       options.capacityRowsPerLane));
        }

        // Phase ordering state.
        std::unordered_set<std::uint64_t> phase_keys;
        std::uint64_t prev_key = 0;
        bool have_prev = false;

        for (std::size_t ph = 0; ph < schedule.phases.size(); ++ph) {
            const WindowSchedule &phase = schedule.phases[ph];
            Location ploc;
            ploc.phase = static_cast<std::int64_t>(ph);
            ploc.pass = phase.pass;
            ploc.window = phase.window;

            const std::uint64_t key =
                (static_cast<std::uint64_t>(phase.pass) << 32) |
                phase.window;
            if (!phase_keys.insert(key).second) {
                engine.report(rule::kPhaseOrder, Severity::kError, ploc,
                              format("duplicate phase (pass %u, window "
                                     "%u)",
                                     phase.pass, phase.window));
            } else if (have_prev && key < prev_key) {
                engine.report(rule::kPhaseOrder, Severity::kWarning,
                              ploc,
                              format("phase (pass %u, window %u) is out "
                                     "of pass-major order",
                                     phase.pass, phase.window));
            }
            prev_key = key;
            have_prev = true;

            if (phase.channels.size() != channels) {
                engine.report(rule::kPhaseShape, Severity::kError, ploc,
                              format("phase has %zu channel lists, "
                                     "config says %u",
                                     phase.channels.size(), channels));
                continue; // shape too broken to scan slot-wise
            }

            std::size_t longest = 0;
            for (const ChannelWindowSchedule &ch : phase.channels)
                longest = std::max(longest, ch.length());
            if (phase.alignedBeats > longest) {
                engine.report(
                    rule::kPhaseShape, Severity::kWarning, ploc,
                    format("alignedBeats %zu exceeds the longest "
                           "channel list %zu (dead padding beats)",
                           phase.alignedBeats, longest));
            }

            const std::uint32_t col_lo = phase.window * cfg.windowCols;
            const std::uint32_t row_lo = phase.pass * cfg.rowsPerPass();
            const std::uint32_t pass_local_base =
                phase.pass * cfg.rowsPerLanePerPass;

            // bank -> last write beat within this phase. The bank is
            // physical: (streaming channel, PE slot, row) — pvt writes
            // go to the lane's own URAM, migrated writes to the shared
            // bank in the destination PEG (Section 4.5).
            std::unordered_map<std::uint64_t, std::size_t> last_write;

            for (unsigned ch = 0; ch < channels; ++ch) {
                const ChannelWindowSchedule &cws = phase.channels[ch];
                Location cloc = ploc;
                cloc.channel = ch;
                if (cws.length() > phase.alignedBeats) {
                    engine.report(
                        rule::kPhaseShape, Severity::kError, cloc,
                        format("channel list of %zu beats is longer "
                               "than the aligned length %zu",
                               cws.length(), phase.alignedBeats));
                }
                for (std::size_t t = 0; t < cws.length(); ++t) {
                    const Beat &beat = cws.beats[t];
                    for (unsigned p = pes; p < sched::kMaxPesPerGroup;
                         ++p) {
                        if (beat.slots[p].valid) {
                            Location sloc = cloc;
                            sloc.beat = static_cast<std::int64_t>(t);
                            sloc.pe = p;
                            engine.report(
                                rule::kPhaseShape, Severity::kError,
                                sloc,
                                format("valid slot in PE column %u "
                                       "beyond the %u active PEs",
                                       p, pes));
                        }
                    }
                    for (unsigned p = 0; p < pes; ++p) {
                        const Slot &slot = beat.slots[p];
                        if (!slot.valid)
                            continue;
                        ++valid_slots;
                        Location sloc = cloc;
                        sloc.beat = static_cast<std::int64_t>(t);
                        sloc.pe = p;

                        // Source mapping (Eq. 1-2).
                        if (map.channelOf(slot.row) != slot.chSrc ||
                            map.peOf(slot.row) != slot.peSrc) {
                            engine.report(
                                rule::kLaneMapping, Severity::kError,
                                sloc,
                                format("slot source (%u,%u) does not "
                                       "match row %u's lane (%u,%u)",
                                       slot.chSrc, slot.peSrc, slot.row,
                                       map.channelOf(slot.row),
                                       map.peOf(slot.row)));
                        } else if (slot.pvt) {
                            if (slot.chSrc != ch || slot.peSrc != p) {
                                engine.report(
                                    rule::kPvtFlag, Severity::kError,
                                    sloc,
                                    format("pvt slot for row %u "
                                           "streamed on (%u,%u)",
                                           slot.row, ch, p));
                            }
                        } else {
                            const unsigned dist =
                                (slot.chSrc + channels - ch) % channels;
                            if (dist < 1 ||
                                dist > cfg.migrationDepth) {
                                engine.report(
                                    rule::kMigrationDepth,
                                    Severity::kError, sloc,
                                    format("migrated slot from channel "
                                           "%u on channel %u exceeds "
                                           "depth %u",
                                           slot.chSrc, ch,
                                           cfg.migrationDepth));
                            }
                        }

                        // Window / pass residency.
                        const bool col_ok = slot.col >= col_lo &&
                            slot.col - col_lo < cfg.windowCols;
                        if (!col_ok) {
                            engine.report(
                                rule::kWindowBounds, Severity::kError,
                                sloc,
                                format("col %u outside window %u "
                                       "[%u,%u)",
                                       slot.col, phase.window, col_lo,
                                       col_lo + cfg.windowCols));
                        }
                        const bool row_ok = slot.row >= row_lo &&
                            slot.row - row_lo < cfg.rowsPerPass();
                        if (!row_ok) {
                            engine.report(
                                rule::kPassBounds, Severity::kError,
                                sloc,
                                format("row %u outside pass %u", slot.row,
                                       phase.pass));
                        } else if (options.capacityRowsPerLane != 0) {
                            const std::uint32_t local =
                                map.localRowOf(slot.row) -
                                pass_local_base;
                            if (local >= options.capacityRowsPerLane) {
                                engine.report(
                                    rule::kScugCapacity,
                                    Severity::kError, sloc,
                                    format("lane-local row %u exceeds "
                                           "the ScUG capacity of %u "
                                           "rows per pass",
                                           local,
                                           options.capacityRowsPerLane));
                            }
                        }

                        // RAW distance on the physical bank.
                        const std::uint64_t bank =
                            ((static_cast<std::uint64_t>(ch) * pes + p)
                             << 32) |
                            slot.row;
                        auto it = last_write.find(bank);
                        if (it != last_write.end() &&
                            it->second + cfg.rawDistance > t) {
                            engine.report(
                                rule::kRawHazard, Severity::kError,
                                sloc,
                                format("RAW violation: row %u written "
                                       "at beats %zu and %zu on "
                                       "(%u,%u), distance %u required",
                                       slot.row, it->second, t, ch, p,
                                       cfg.rawDistance));
                        }
                        last_write[bank] = t;

                        // Element accounting.
                        if (matrix != nullptr) {
                            const std::uint64_t ekey =
                                elementKey(slot.row, slot.col);
                            auto found = expected.find(ekey);
                            if (found == expected.end()) {
                                engine.report(
                                    rule::kDuplicateElement,
                                    Severity::kError, sloc,
                                    format("unexpected or duplicated "
                                           "element (%u,%u): not in "
                                           "the matrix",
                                           slot.row, slot.col));
                            } else if (!seen.insert(ekey).second) {
                                engine.report(
                                    rule::kDuplicateElement,
                                    Severity::kError, sloc,
                                    format("unexpected or duplicated "
                                           "element (%u,%u): scheduled "
                                           "more than once",
                                           slot.row, slot.col));
                            } else if (found->second != slot.value) {
                                engine.report(
                                    rule::kValueMismatch,
                                    Severity::kError, sloc,
                                    format("value mismatch at (%u,%u): "
                                           "schedule has %g, matrix "
                                           "has %g",
                                           slot.row, slot.col,
                                           slot.value, found->second));
                            }
                        }
                    }
                }
            }
        }

        // Completeness: everything expected must have been seen.
        if (matrix != nullptr && seen.size() != expected.size()) {
            for (const auto &[ekey, value] : expected) {
                if (seen.count(ekey) != 0)
                    continue;
                (void)value;
                engine.report(
                    rule::kMissingElement, Severity::kError, {},
                    format("element (%u,%u) missing: schedule covers "
                           "%zu of %zu non-zeros",
                           static_cast<std::uint32_t>(ekey >> 32),
                           static_cast<std::uint32_t>(ekey),
                           seen.size(), expected.size()));
            }
        }
    }

    // Metadata consistency (after the scan so CHV001 sorts first).
    if (scannable && schedule.nnz != valid_slots) {
        engine.report(rule::kMetadata, Severity::kError, {},
                      format("schedule header claims %zu non-zeros but "
                             "%zu valid slots are present",
                             schedule.nnz, valid_slots));
    }

    result.diagnostics = engine.diagnostics();
    result.errors = engine.errorCount();
    result.warnings = engine.warningCount();
    result.notes = engine.noteCount();
    result.suppressed = engine.suppressedCount();
    result.checkedSlots = valid_slots;
    return result;
}

} // namespace verify

namespace sched {

void
validateSchedule(const Schedule &schedule, const sparse::CsrMatrix &matrix)
{
    verify::VerifyOptions options;
    options.matrix = &matrix;
    options.maxDiagnosticsPerRule = 1;
    const verify::VerifyResult result =
        verify::verifySchedule(schedule, options);
    if (!result.clean()) {
        chason_panic("schedule verification failed: %s",
                     verify::toString(*result.firstError()).c_str());
    }
}

} // namespace sched
} // namespace chason
