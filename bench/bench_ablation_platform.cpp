/**
 * @file
 * Ablation — HBM platform: Alveo U55c (460 GB/s) vs Alveo U280
 * (273 GB/s, Serpens' original board).
 *
 * Both designs stream one beat per cycle per channel; on the U280 the
 * lower per-channel bandwidth (8.53 GB/s) caps the effective beat rate
 * harder, so the same schedules take proportionally longer. The
 * CrHCS-vs-PE-aware ratio is bandwidth-independent — the speedup comes
 * from beats, not bytes per second.
 */

#include <cstdio>

#include "arch/chason_accel.h"
#include "arch/serpens_accel.h"
#include "common/table.h"
#include "sched/crhcs.h"
#include "sched/pe_aware.h"
#include "support.h"

int
main()
{
    using namespace chason;
    bench::printHeader("Ablation — HBM platform (U55c vs U280)",
                       "Section 5.1 platform discussion");

    const char *tags[] = {"DY", "MY", "WI"};
    TextTable t;
    t.setHeader({"ID", "platform", "chason us", "serpens us", "speedup",
                 "mem stall factor (chason)"});

    for (const char *tag : tags) {
        const sparse::CsrMatrix a = sparse::table2ByTag(tag).generate();
        for (const bool u280 : {false, true}) {
            arch::ArchConfig cfg;
            cfg.hbm = u280 ? hbm::HbmConfig::alveoU280()
                           : hbm::HbmConfig::alveoU55c();

            sched::SchedConfig pe_cfg = cfg.sched;
            pe_cfg.migrationDepth = 0;
            const sched::Schedule pe =
                sched::PeAwareScheduler(pe_cfg).schedule(a);
            const sched::Schedule cr =
                sched::CrhcsScheduler(cfg.sched).schedule(a);

            const arch::Timeline chason =
                arch::ChasonAccelerator(cfg).timeline(cr, nullptr);
            const double serpens_us = arch::SerpensAccelerator(cfg)
                                          .timeline(pe, nullptr)
                                          .latencyUs;

            t.addRow({tag, u280 ? "U280" : "U55c",
                      TextTable::num(chason.latencyUs, 1),
                      TextTable::num(serpens_us, 1),
                      TextTable::speedup(serpens_us / chason.latencyUs, 2),
                      TextTable::num(chason.memStallFactor, 2)});
        }
    }
    t.print();

    std::printf("\nexpectation: absolute latencies grow on the U280's "
                "narrower channels, while the Chasoň-over-Serpens "
                "speedup stays nearly unchanged\n");
    return 0;
}
