/**
 * @file
 * Preprocessing cost analysis (not a paper table).
 *
 * CrHCS is offline scheduling; the paper amortizes it entirely. This
 * bench measures the actual host wall-clock cost of scheduling on this
 * machine and computes the break-even iteration count: after how many
 * SpMV invocations does CrHCS's extra scheduling time pay for itself
 * against simply running the PE-aware schedule?
 */

#include <chrono>
#include <cstdio>

#include "arch/chason_accel.h"
#include "arch/serpens_accel.h"
#include "common/table.h"
#include "sched/crhcs.h"
#include "sched/pe_aware.h"
#include "support.h"

namespace {

using Clock = std::chrono::steady_clock;

double
wallMs(const std::function<void()> &fn)
{
    const auto begin = Clock::now();
    fn();
    return std::chrono::duration<double, std::milli>(Clock::now() - begin)
        .count();
}

} // namespace

int
main()
{
    using namespace chason;
    bench::printHeader("Preprocessing cost & break-even analysis",
                       "methodology extension (offline scheduling cost)");

    TextTable t;
    t.setHeader({"ID", "pe-aware sched (ms)", "crhcs sched (ms)",
                 "kernel gain/iter (us)", "break-even iters"});

    for (const char *tag : {"DY", "MY", "WI", "SC", "TR"}) {
        const sparse::CsrMatrix a = sparse::table2ByTag(tag).generate();

        sched::SchedConfig pe_cfg;
        pe_cfg.migrationDepth = 0;
        sched::Schedule pe_schedule, cr_schedule;
        const double pe_ms = wallMs([&] {
            pe_schedule = sched::PeAwareScheduler(pe_cfg).schedule(a);
        });
        const double cr_ms = wallMs([&] {
            cr_schedule =
                sched::CrhcsScheduler(sched::SchedConfig{}).schedule(a);
        });

        const arch::ArchConfig cfg;
        const double serpens_us = arch::SerpensAccelerator(cfg)
                                      .timeline(pe_schedule, nullptr)
                                      .latencyUs;
        const double chason_us = arch::ChasonAccelerator(cfg)
                                     .timeline(cr_schedule, nullptr)
                                     .latencyUs;
        const double gain_us = serpens_us - chason_us;
        const double extra_ms = cr_ms - pe_ms;
        const double break_even =
            gain_us > 0.0 ? extra_ms * 1e3 / gain_us : -1.0;

        char be[32];
        if (break_even < 0) {
            std::snprintf(be, sizeof(be), "never");
        } else {
            std::snprintf(be, sizeof(be), "%.0f", break_even);
        }
        t.addRow({tag, TextTable::num(pe_ms, 2),
                  TextTable::num(cr_ms, 2), TextTable::num(gain_us, 1),
                  be});
    }
    t.print();

    std::printf("\nthe paper's workloads run thousands of iterations "
                "per matrix (iterative solvers, PageRank), far past "
                "every break-even point above\n");
    return 0;
}
