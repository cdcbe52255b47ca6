/**
 * @file
 * Slot-by-slot schedule equality for tests.
 *
 * Compares the geometry, the phase records and every valid slot field
 * by field. Stall slots compare by their valid flag only: BeatList
 * grows its storage uninitialized, so the other bytes of a stall slot
 * carry no meaning and raw byte comparisons of two schedules are not
 * a sound equality.
 */

#ifndef CHASON_TESTS_SUPPORT_SCHEDULE_EQUAL_H_
#define CHASON_TESTS_SUPPORT_SCHEDULE_EQUAL_H_

#include <gtest/gtest.h>

#include "sched/schedule.h"

namespace chason {
namespace testing_support {

inline void
expectEqualSchedules(const sched::Schedule &a, const sched::Schedule &b)
{
    EXPECT_EQ(a.scheduler, b.scheduler);
    EXPECT_EQ(a.rows, b.rows);
    EXPECT_EQ(a.cols, b.cols);
    EXPECT_EQ(a.nnz, b.nnz);
    EXPECT_EQ(a.config.channels, b.config.channels);
    EXPECT_EQ(a.config.pesPerGroup(), b.config.pesPerGroup());
    EXPECT_EQ(a.config.rawDistance, b.config.rawDistance);
    EXPECT_EQ(a.config.windowCols, b.config.windowCols);
    EXPECT_EQ(a.config.rowsPerLanePerPass, b.config.rowsPerLanePerPass);
    EXPECT_EQ(a.config.migrationDepth, b.config.migrationDepth);
    ASSERT_EQ(a.phases.size(), b.phases.size());
    for (std::size_t ph = 0; ph < a.phases.size(); ++ph) {
        const sched::WindowSchedule &pa = a.phases[ph];
        const sched::WindowSchedule &pb = b.phases[ph];
        EXPECT_EQ(pa.pass, pb.pass);
        EXPECT_EQ(pa.window, pb.window);
        EXPECT_EQ(pa.alignedBeats, pb.alignedBeats);
        ASSERT_EQ(pa.channels.size(), pb.channels.size());
        for (std::size_t ch = 0; ch < pa.channels.size(); ++ch) {
            ASSERT_EQ(pa.channels[ch].length(), pb.channels[ch].length());
            for (std::size_t t = 0; t < pa.channels[ch].length(); ++t) {
                for (unsigned p = 0; p < a.config.pesPerGroup(); ++p) {
                    const sched::Slot &sa =
                        pa.channels[ch].beats[t].slots[p];
                    const sched::Slot &sb =
                        pb.channels[ch].beats[t].slots[p];
                    ASSERT_EQ(sa.valid, sb.valid);
                    if (!sa.valid)
                        continue;
                    EXPECT_EQ(sa.row, sb.row);
                    EXPECT_EQ(sa.col, sb.col);
                    EXPECT_EQ(sa.value, sb.value);
                    EXPECT_EQ(sa.pvt, sb.pvt);
                    EXPECT_EQ(sa.peSrc, sb.peSrc);
                    EXPECT_EQ(sa.chSrc, sb.chSrc);
                }
            }
        }
    }
}

} // namespace testing_support
} // namespace chason

#endif // CHASON_TESTS_SUPPORT_SCHEDULE_EQUAL_H_
