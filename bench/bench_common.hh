/**
 * @file
 * Shared scaffolding for the ablation, analysis and Table 1 bench
 * binaries: common command-line options and table emission (text +
 * optional CSV).  The paper's figures render through
 * `xbsp submit --local <figure...>`.
 */

#ifndef XBSP_BENCHCOMMON_HH
#define XBSP_BENCHCOMMON_HH

#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cpu/core.hh"
#include "harness/experiments.hh"
#include "util/format.hh"
#include "util/logging.hh"
#include "util/options.hh"
#include "util/stats.hh"

namespace xbsp::bench
{

/** Options every experiment bench accepts. */
inline Options
makeOptions(const std::string& description)
{
    Options options(description);
    options.addString("workloads",
                      "comma-separated workload subset (empty = all)",
                      "");
    options.addDouble("scale", "work scale factor", 1.0);
    options.addUint("interval", "interval target in instructions",
                    250000);
    options.addUint("maxk", "SimPoint cluster cap", 10);
    options.addUint("seed", "SimPoint seed", 42);
    options.addBool("csv", "also emit CSV after the table", false);
    options.addBool("verbose", "per-study progress on stderr", true);
    options.addString("core",
                      "timing core: inorder|decoupled (a model knob — "
                      "changes results and store keys)", "inorder");
    options.addJobs();
    return options;
}

/** Split a comma-separated list. */
inline std::vector<std::string>
splitList(const std::string& text)
{
    std::vector<std::string> out;
    std::stringstream ss(text);
    std::string item;
    while (std::getline(ss, item, ',')) {
        if (!item.empty())
            out.push_back(item);
    }
    return out;
}

/** Build the experiment configuration from parsed options. */
inline harness::ExperimentConfig
makeConfig(const Options& options)
{
    harness::ExperimentConfig config;
    options.applyJobs();
    const std::string core = options.getString("core");
    const std::optional<cpu::CoreKind> kind = cpu::parseCoreKind(core);
    if (!kind)
        fatal("unknown --core '{}' (want inorder|decoupled)", core);
    config.workloads = splitList(options.getString("workloads"));
    config.workScale = options.getDouble("scale");
    config.study = harness::defaultStudyConfig();
    config.study.core = cpu::coreConfigFor(*kind);
    config.study.intervalTarget = options.getUint("interval");
    config.study.simpoint.maxK = harness::maxKOption(options);
    config.study.simpoint.seed = options.getUint("seed");
    config.verbose = options.getBool("verbose");
    return config;
}

/** Print the table (and CSV when asked). */
inline void
emit(const Table& table, const Options& options)
{
    table.print(std::cout);
    if (options.getBool("csv")) {
        std::cout << "\n";
        table.printCsv(std::cout);
    }
    std::cout << "\n";
}

} // namespace xbsp::bench

#endif // XBSP_BENCHCOMMON_HH
