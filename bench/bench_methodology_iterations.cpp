/**
 * @file
 * Section 5.2 — measurement methodology: why the FPGA numbers use 1000
 * iterations. Models the host side (PCIe DMA, dispatch, one-time
 * artifact upload, optional bitstream configuration) and shows the
 * amortized per-iteration latency converging to the kernel latency.
 */

#include <cstdio>

#include "arch/chason_accel.h"
#include "common/table.h"
#include "runtime/host.h"
#include "sched/crhcs.h"
#include "support.h"

int
main()
{
    using namespace chason;
    bench::printHeader("Section 5.2 — iteration-count methodology",
                       "Section 5.2 (1000-iteration amortization)");

    const sparse::CsrMatrix a = sparse::table2ByTag("MY").generate();
    const sched::Schedule sch =
        sched::CrhcsScheduler(sched::SchedConfig{}).schedule(a);
    const arch::ChasonAccelerator chason{arch::ArchConfig{}};
    const runtime::HostSession session(chason);

    TextTable t;
    t.setHeader({"iterations", "amortized us/iter (cold board)",
                 "amortized us/iter (configured)", "kernel share",
                 "kernel us"});
    for (unsigned iters : {1u, 10u, 100u, 1000u, 10000u}) {
        const runtime::EndToEndReport cold =
            session.measure(sch, iters, /*include_bitstream=*/true);
        const runtime::EndToEndReport warm = session.measure(sch, iters);
        t.addRow({std::to_string(iters),
                  TextTable::num(cold.amortizedPerIterationUs(), 1),
                  TextTable::num(warm.amortizedPerIterationUs(), 1),
                  TextTable::pct(100.0 * warm.kernelShare(), 1),
                  TextTable::num(warm.kernelUs, 1)});
    }
    t.print();

    const runtime::EndToEndReport paper = session.measure(sch, 1000);
    std::printf("\nat the paper's 1000 iterations the per-iteration "
                "number is within %.0f%% of steady state; one-time "
                "artifact DMA is %.2f ms for this matrix\n",
                100.0 * (paper.amortizedPerIterationUs() /
                             paper.steadyStatePerIterationUs() -
                         1.0),
                paper.artifactDmaMs);
    std::printf("per-iteration breakdown: x up %.1f us, y down %.1f us, "
                "dispatch %.1f us, kernel %.1f us\n",
                paper.xUploadUs, paper.yDownloadUs, paper.dispatchUs,
                paper.kernelUs);
    return 0;
}
