/**
 * @file
 * Regenerates the paper's Figure 3 (see DESIGN.md for the
 * experiment index).  Runs the cross-binary SimPoint pipeline on the
 * selected workloads and prints the figure's series as a table.
 */

#include "bench_common.hh"
#include "obs/setup.hh"

using namespace xbsp;

int
main(int argc, char** argv)
{
    Options options = bench::makeOptions(
        "bench_fig3: reproduce paper Figure 3");
    if (!options.parse(argc, argv))
        return 0;
    // Env-only observability (XBSP_STATS / XBSP_METRICS / ...): CI
    // scrapes this bench continuously and diffs its output against
    // an unscraped run.
    obs::ObsSession obsSession;
    harness::ExperimentSuite suite(bench::makeConfig(options));
    bench::emit(suite.figure3(), options);
    return 0;
}
