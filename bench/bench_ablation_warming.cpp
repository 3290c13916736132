/**
 * @file
 * Ablation: warm vs cold sampling (DESIGN.md decision 4).  The
 * pipeline's estimates assume functionally-warmed caches (statistics
 * gated over a full run).  This bench re-simulates each binary's
 * chosen VLI simulation points with explicitly cold caches at each
 * point's start, in one walk per binary, and compares the resulting
 * CPI estimates, quantifying how much cold-start bias the
 * warm-sampling choice avoids.
 */

#include <algorithm>
#include <vector>

#include "bench_common.hh"

using namespace xbsp;

int
main(int argc, char** argv)
{
    Options options = bench::makeOptions(
        "bench_ablation_warming: warm vs cold simulation-point "
        "replay for the mappable (VLI) scheme");
    if (!options.parse(argc, argv))
        return 0;
    harness::ExperimentConfig config = bench::makeConfig(options);
    if (config.workloads.empty())
        config.workloads = {"swim", "mcf", "gzip", "eon"};
    harness::ExperimentSuite suite(config);

    Table table("Ablation: warm vs cold sampling (per binary, VLI "
                "simulation points)",
                {"benchmark", "binary", "true CPI", "warm est",
                 "warm err", "cold est", "cold err"});
    for (const std::string& name : suite.workloads()) {
        const sim::CrossBinaryStudy& s = suite.study(name);
        for (std::size_t b = 0; b < s.binaries().size(); ++b) {
            const sim::BinaryStudy& bs = s.perBinary()[b];
            // Rebuild the estimate from one cold walk over all of
            // the binary's points, through the same request a full
            // detailed run uses.
            sim::DetailedRunRequest request =
                sim::makeRunRequest(config.study);
            request.mappable = &s.mappable();
            request.binaryIdx = b;
            request.partition = &s.partition();
            std::vector<std::size_t> points;
            for (const auto& phase : bs.vliEstimate.phases)
                points.push_back(phase.representative);
            std::ranges::sort(points);
            const std::vector<sim::IntervalStats> cold =
                sim::runColdPoints(s.binaries()[b], request, points);
            double coldCpi = 0.0;
            for (const auto& phase : bs.vliEstimate.phases) {
                const auto at = std::ranges::lower_bound(
                    points, std::size_t{phase.representative});
                coldCpi += phase.weight * cold[at - points.begin()].cpi();
            }
            table.startRow();
            table.addCell(name);
            table.addCell(bin::targetName(bs.target));
            table.addNumber(bs.vliEstimate.trueCpi, 3);
            table.addNumber(bs.vliEstimate.estCpi, 3);
            table.addPercent(bs.vliEstimate.cpiError, 2);
            table.addNumber(coldCpi, 3);
            table.addPercent(relativeError(bs.vliEstimate.trueCpi,
                                           coldCpi), 2);
        }
    }
    bench::emit(table, options);
    return 0;
}
