/**
 * @file
 * Host-side execution model implementation.
 */

#include "runtime/host.h"

#include "common/logging.h"

namespace chason {
namespace runtime {

double
HostPlatform::dmaUs(std::uint64_t bytes) const
{
    chason_assert(pcieBandwidthGBps > 0.0, "PCIe bandwidth must be set");
    return dmaLatencyUs +
        static_cast<double>(bytes) / (pcieBandwidthGBps * 1e3);
}

double
EndToEndReport::totalMs() const
{
    return bitstreamMs + artifactDmaMs +
        static_cast<double>(iterations) * steadyStatePerIterationUs() /
        1e3;
}

double
EndToEndReport::amortizedPerIterationUs() const
{
    chason_assert(iterations > 0, "no iterations to amortize over");
    return totalMs() * 1e3 / static_cast<double>(iterations);
}

double
EndToEndReport::kernelShare() const
{
    const double per_iter = amortizedPerIterationUs();
    return per_iter <= 0.0 ? 0.0 : kernelUs / per_iter;
}

HostSession::HostSession(const arch::Accelerator &accelerator,
                         HostPlatform platform)
    : accelerator_(accelerator), platform_(platform)
{
}

EndToEndReport
HostSession::measure(const sched::Schedule &schedule,
                     unsigned iterations, bool include_bitstream) const
{
    chason_assert(iterations >= 1, "need at least one iteration");

    EndToEndReport report;
    report.iterations = iterations;
    report.bitstreamMs = include_bitstream ? platform_.bitstreamLoadMs
                                           : 0.0;

    // One-time: DMA the scheduling artifact (the padded channel data
    // lists) into HBM. This is where Serpens pays for its zeros twice:
    // once over PCIe and once per iteration out of HBM.
    report.artifactDmaMs =
        platform_.dmaUs(sched::scheduleArtifactBytes(schedule)) / 1e3;

    // Per iteration: x up, y down, dispatch, kernel.
    report.xUploadUs = platform_.dmaUs(
        static_cast<std::uint64_t>(schedule.cols) * sizeof(float));
    report.yDownloadUs = platform_.dmaUs(
        static_cast<std::uint64_t>(schedule.rows) * sizeof(float));
    report.dispatchUs = platform_.dispatchUs;
    report.kernelUs = accelerator_.timeline(schedule, nullptr).latencyUs;
    return report;
}

} // namespace runtime
} // namespace chason
