/**
 * @file
 * Ablation: warm vs cold sampling (DESIGN.md decision 4).  The
 * pipeline's estimates assume functionally-warmed caches (statistics
 * gated over a full run).  This bench re-simulates each binary's
 * chosen VLI simulation points with explicitly cold caches at each
 * point's start, in one walk per binary, and compares the resulting
 * CPI estimates, quantifying how much cold-start bias the
 * warm-sampling choice avoids.  The cold walks of all binaries run
 * side by side on the --jobs pool.
 */

#include <algorithm>
#include <vector>

#include "bench_common.hh"
#include "util/threadpool.hh"

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

    // One cold walk per (workload, binary), all on the pool once the
    // studies are built; the rows are rendered afterwards in workload
    // and binary order.
    struct ColdWalk
    {
        const std::string* name;
        const sim::CrossBinaryStudy* study;
        std::size_t binary;
        double coldCpi = 0.0;
    };
    suite.precompute();
    std::vector<ColdWalk> walks;
    for (const std::string& name : suite.workloads()) {
        const sim::CrossBinaryStudy& s = suite.study(name);
        for (std::size_t b = 0; b < s.binaries().size(); ++b)
            walks.push_back({&name, &s, b});
    }
    parallelFor(globalPool(), walks.size(), [&](std::size_t w) {
        ColdWalk& walk = walks[w];
        const sim::CrossBinaryStudy& s = *walk.study;
        const sim::BinaryStudy& bs = s.perBinary()[walk.binary];
        // Rebuild the estimate from one cold walk over all of the
        // binary's points, through the same request a full detailed
        // run uses.
        sim::DetailedRunRequest request = sim::makeRunRequest(config.study);
        request.mappable = &s.mappable();
        request.binaryIdx = walk.binary;
        request.partition = &s.partition();
        std::vector<std::size_t> points;
        for (const auto& phase : bs.vliEstimate.phases)
            points.push_back(phase.representative);
        std::ranges::sort(points);
        const std::vector<sim::IntervalStats> cold =
            sim::runColdPoints(s.binaries()[walk.binary], request, points);
        for (const auto& phase : bs.vliEstimate.phases) {
            const auto at = std::ranges::lower_bound(
                points, std::size_t{phase.representative});
            walk.coldCpi +=
                phase.weight * cold[at - points.begin()].cpi();
        }
    });

    Table table("Ablation: warm vs cold sampling (per binary, VLI "
                "simulation points)",
                {"benchmark", "binary", "true CPI", "warm est",
                 "warm err", "cold est", "cold err"});
    for (const ColdWalk& walk : walks) {
        const sim::BinaryStudy& bs = walk.study->perBinary()[walk.binary];
        table.startRow();
        table.addCell(*walk.name);
        table.addCell(bin::targetName(bs.target));
        table.addNumber(bs.vliEstimate.trueCpi, 3);
        table.addNumber(bs.vliEstimate.estCpi, 3);
        table.addPercent(bs.vliEstimate.cpiError, 2);
        table.addNumber(walk.coldCpi, 3);
        table.addPercent(relativeError(bs.vliEstimate.trueCpi,
                                       walk.coldCpi), 2);
    }
    bench::emit(table, options);
    return 0;
}
