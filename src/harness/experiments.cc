#include "harness/experiments.hh"

#include <algorithm>
#include <limits>
#include <unordered_set>
#include <utility>

#include "obs/stats.hh"
#include "sim/stages.hh"
#include "store/store.hh"
#include "util/format.hh"
#include "util/logging.hh"
#include "util/serial.hh"
#include "util/stats.hh"
#include "util/threadpool.hh"
#include "workloads/workloads.hh"

namespace xbsp::harness
{

sim::StudyConfig
defaultStudyConfig()
{
    sim::StudyConfig config;
    config.intervalTarget = 250'000;  // the paper's 100M, scaled
    config.simpoint.maxK = 10;        // the paper's cluster cap
    config.simpoint.projectedDims = 15;
    config.simpoint.seedsPerK = 5;
    config.simpoint.bicThreshold = 0.9;
    config.primaryIdx = 0;            // 32-bit unoptimized
    return config;
}

u32
maxKOption(const Options& options)
{
    const u64 maxK = options.getUint("maxk");
    if (maxK == 0 || maxK > std::numeric_limits<u32>::max())
        fatal("--maxk must be between 1 and {}, got {}",
              std::numeric_limits<u32>::max(), maxK);
    return static_cast<u32>(maxK);
}

ExperimentSuite::ExperimentSuite(ExperimentConfig config)
    : cfg(std::move(config))
{
    names = cfg.workloads.empty() ? workloads::workloadNames()
                                  : cfg.workloads;
    for (const std::string& name : names) {
        if (!workloads::findWorkload(name))
            fatal("unknown workload '{}'", name);
    }
}

const sim::CrossBinaryStudy&
ExperimentSuite::study(const std::string& workload)
{
    // The cache holds the committed finish node of every graph run so
    // far: a workload precompute() already scheduled is returned
    // as-is, never re-wired into a new graph.
    auto it = cache.find(workload);
    if (it != cache.end())
        return it->second;
    runStudies({workload});
    return cache.at(workload);
}

void
ExperimentSuite::precompute()
{
    runStudies(names);
}

SuiteGraph::SuiteGraph() = default;
SuiteGraph::~SuiteGraph() = default;

void
buildSuiteGraph(SuiteGraph& out, const ExperimentConfig& config,
                const std::vector<std::string>& workloads)
{
    const bool remote = config.remote && config.remoteSpec;
    if (remote)
        out.graph.setRemoteBackend(config.remote);
    serial::Hasher digest;
    for (const std::string& name : workloads) {
        if (!workloads::findWorkload(name))
            fatal("unknown workload '{}'", name);
        out.workloads.push_back(name);
        out.builds.push_back(std::make_unique<sim::StudyBuild>(
            workloads::makeWorkload(name, config.workScale),
            config.study));
        const sim::StudyNodes nodes =
            sim::appendStudyGraphNodes(out.graph, *out.builds.back());
        out.finishNodes.push_back(nodes.finish);
        if (remote) {
            // Every memoized stage is remote-eligible; match and
            // finish stay local (cheap, and match has no store key).
            // The non-detailed binary stage always runs an engine
            // pass locally (see StudyBuild::binaryCached), so only
            // detailed timing ships.
            auto setSpec = [&](pipeline::NodeId id,
                               const std::string& stage,
                               std::size_t index) {
                pipeline::RemoteSpec spec =
                    config.remoteSpec(name, stage, index);
                out.graph.setRemote(
                    id, [spec = std::move(spec)] { return spec; });
            };
            setSpec(nodes.compile, "compile", 0);
            for (std::size_t b = 0; b < nodes.profiles.size(); ++b)
                setSpec(nodes.profiles[b], "profile", b);
            setSpec(nodes.vli, "vli", 0);
            if (config.study.detailed) {
                for (std::size_t b = 0; b < nodes.binaries.size();
                     ++b)
                    setSpec(nodes.binaries[b], "binary", b);
            }
        }
        digest.str(sim::studyConfigDigest(name, config.study));
    }
    out.graph.setManifestInfo(format("suite[{}]", workloads.size()),
                              digest.finish().hex());
}

void
ExperimentSuite::runStudies(const std::vector<std::string>& workloads)
{
    std::vector<std::string> pending;
    std::unordered_set<std::string> queued;
    for (const std::string& name : workloads) {
        if (!cache.contains(name) && queued.insert(name).second)
            pending.push_back(name);
    }
    if (pending.empty())
        return;

    // One task graph across every pending workload: studies are fully
    // independent of each other (each builds its own binaries,
    // engines and seeds from the shared config), so their stages
    // interleave freely on the fixed-size pool — the serial
    // match/cluster stage of one workload no longer idles workers
    // that could profile another.  Results are committed to the cache
    // — and their progress lines printed — in list order by the
    // graph's commit phase, so output and cache state never depend on
    // thread scheduling.
    obs::StatRegistry::global().counter("harness.studies")
        .add(pending.size());
    SuiteGraph suite;
    buildSuiteGraph(suite, cfg, pending);
    for (std::size_t i = 0; i < pending.size(); ++i) {
        sim::StudyBuild& build = *suite.builds[i];
        const std::string name = pending[i];
        suite.graph.setCommit(
            suite.finishNodes[i], [this, &build, name] {
                if (cfg.verbose)
                    inform("study {} done in {} ms", name,
                           build.elapsedMs());
                cache.emplace(name, build.takeStudy());
            });
    }
    suite.graph.run(globalPool());
    if (cfg.verbose && store::ArtifactStore::global().enabled()) {
        auto& reg = obs::StatRegistry::global();
        inform("artifact store: {} hits, {} misses ({})",
               reg.counterValue("store.hits"),
               reg.counterValue("store.misses"),
               store::ArtifactStore::global().directory());
    }
}

Table
ExperimentSuite::table1(const cache::HierarchyConfig& config)
{
    Table table("Table 1: Memory System Configuration",
                {"Cache Level", "Capacity", "Associativity",
                 "Line Size", "Hit Latency", "Type"});
    auto addLevel = [&table](const cache::LevelConfig& level) {
        table.startRow();
        table.addCell(level.name);
        table.addCell(format("{}KB", level.capacityBytes / 1024));
        table.addCell(format("{}-way", level.associativity));
        table.addCell(format("{} bytes", level.lineSize));
        table.addCell(format("{} cycles", level.hitLatency));
        table.addCell("WriteBack");
    };
    addLevel(config.l1);
    addLevel(config.l2);
    addLevel(config.l3);
    table.startRow();
    table.addCell("DRAM");
    table.addCell("-");
    table.addCell("-");
    table.addCell("-");
    table.addCell(format("{} cycles", config.dramLatency));
    table.addCell("-");
    return table;
}

Table
ExperimentSuite::figure1()
{
    precompute();
    Table table("Figure 1: Number of SimPoints (avg across the four "
                "binaries)",
                {"benchmark", "FLI", "VLI"});
    std::vector<double> fli, vli;
    for (const std::string& name : names) {
        const sim::CrossBinaryStudy& s = study(name);
        const double f = s.avgSimPointCount(sim::Method::PerBinaryFli);
        const double v = s.avgSimPointCount(sim::Method::MappableVli);
        fli.push_back(f);
        vli.push_back(v);
        table.startRow();
        table.addCell(name);
        table.addNumber(f, 2);
        table.addNumber(v, 2);
    }
    table.startRow();
    table.addCell("Avg");
    table.addNumber(mean(fli), 2);
    table.addNumber(mean(vli), 2);
    return table;
}

Table
ExperimentSuite::figure2()
{
    precompute();
    Table table("Figure 2: Average Interval Size for mappable "
                "SimPoint (VLI), millions of instructions (avg "
                "across the four binaries)",
                {"benchmark", "VLI interval (M)", "target (M)"});
    const double target =
        static_cast<double>(cfg.study.intervalTarget) / 1e6;
    std::vector<double> sizes;
    for (const std::string& name : names) {
        const sim::CrossBinaryStudy& s = study(name);
        const double size =
            s.avgIntervalSize(sim::Method::MappableVli) / 1e6;
        sizes.push_back(size);
        table.startRow();
        table.addCell(name);
        table.addNumber(size, 3);
        table.addNumber(target, 3);
    }
    table.startRow();
    table.addCell("Avg");
    table.addNumber(mean(sizes), 3);
    table.addNumber(target, 3);
    return table;
}

Table
ExperimentSuite::figure3()
{
    precompute();
    Table table("Figure 3: CPI Error vs full simulation (avg across "
                "the four binaries)",
                {"benchmark", "FLI", "VLI"});
    std::vector<double> fli, vli;
    for (const std::string& name : names) {
        const sim::CrossBinaryStudy& s = study(name);
        const double f = s.avgCpiError(sim::Method::PerBinaryFli);
        const double v = s.avgCpiError(sim::Method::MappableVli);
        fli.push_back(f);
        vli.push_back(v);
        table.startRow();
        table.addCell(name);
        table.addPercent(f, 2);
        table.addPercent(v, 2);
    }
    table.startRow();
    table.addCell("Avg");
    table.addPercent(mean(fli), 2);
    table.addPercent(mean(vli), 2);
    return table;
}

namespace
{

Table
speedupTable(const std::string& caption,
             const std::vector<sim::SpeedupPair>& pairs,
             const std::vector<std::string>& names,
             ExperimentSuite& suite)
{
    std::vector<std::string> columns{"benchmark"};
    for (const auto& pair : pairs) {
        columns.push_back("fli_" + pair.label);
        columns.push_back("vli_" + pair.label);
    }
    Table table(caption, columns);
    std::vector<std::vector<double>> sums(pairs.size() * 2);
    for (const std::string& name : names) {
        const sim::CrossBinaryStudy& s = suite.study(name);
        table.startRow();
        table.addCell(name);
        for (std::size_t p = 0; p < pairs.size(); ++p) {
            const double f = s.speedupError(sim::Method::PerBinaryFli,
                                            pairs[p].a, pairs[p].b);
            const double v = s.speedupError(sim::Method::MappableVli,
                                            pairs[p].a, pairs[p].b);
            sums[2 * p].push_back(f);
            sums[2 * p + 1].push_back(v);
            table.addPercent(f, 2);
            table.addPercent(v, 2);
        }
    }
    table.startRow();
    table.addCell("Avg");
    for (std::size_t c = 0; c < sums.size(); ++c)
        table.addPercent(mean(sums[c]), 2);
    return table;
}

} // namespace

Table
ExperimentSuite::figure4()
{
    precompute();
    return speedupTable(
        "Figure 4: Speedup error, same platform (FLI = per-binary "
        "SimPoint, VLI = mappable SimPoint)",
        sim::samePlatformPairs(), names, *this);
}

Table
ExperimentSuite::figure5()
{
    precompute();
    return speedupTable(
        "Figure 5: Speedup error, cross platform (FLI = per-binary "
        "SimPoint, VLI = mappable SimPoint)",
        sim::crossPlatformPairs(), names, *this);
}

CrossCoreReport
crossCoreComparison(const ExperimentConfig& config)
{
    static constexpr cpu::CoreKind kinds[] = {
        cpu::CoreKind::InOrder, cpu::CoreKind::Decoupled};

    // One suite per backend over the same workloads and binaries;
    // only study.core.kind differs, so the studies share every
    // timing-independent artifact (compiles, profiles, clusterings)
    // through the store.
    std::vector<std::unique_ptr<ExperimentSuite>> suites;
    for (const cpu::CoreKind kind : kinds) {
        ExperimentConfig c = config;
        c.study.core.kind = kind;
        suites.push_back(std::make_unique<ExperimentSuite>(c));
        suites.back()->precompute();
    }

    Table cpi("Cross-microarchitecture CPI error (same binaries, "
              "both timing cores)",
              {"benchmark", "binary", "core", "true CPI", "FLI",
               "VLI"});
    Table speedup("Cross-microarchitecture speedup error (FLI = "
                  "per-binary SimPoint, VLI = mappable SimPoint)",
                  {"benchmark", "pair", "core", "true spd", "FLI",
                   "VLI"});

    std::vector<sim::SpeedupPair> pairs = sim::samePlatformPairs();
    for (sim::SpeedupPair& pair : sim::crossPlatformPairs())
        pairs.push_back(std::move(pair));

    for (const std::string& name : suites[0]->workloads()) {
        for (std::size_t k = 0; k < suites.size(); ++k) {
            const sim::CrossBinaryStudy& s = suites[k]->study(name);
            const std::string core{cpu::coreKindName(kinds[k])};
            for (const sim::BinaryStudy& bs : s.perBinary()) {
                cpi.startRow();
                cpi.addCell(name);
                cpi.addCell(bin::targetName(bs.target));
                cpi.addCell(core);
                cpi.addNumber(bs.vliEstimate.trueCpi, 3);
                cpi.addPercent(bs.fliEstimate.cpiError, 2);
                cpi.addPercent(bs.vliEstimate.cpiError, 2);
            }
            for (const sim::SpeedupPair& pair : pairs) {
                speedup.startRow();
                speedup.addCell(name);
                speedup.addCell(pair.label);
                speedup.addCell(core);
                speedup.addNumber(s.trueSpeedup(pair.a, pair.b), 3);
                speedup.addPercent(
                    s.speedupError(sim::Method::PerBinaryFli, pair.a,
                                   pair.b), 2);
                speedup.addPercent(
                    s.speedupError(sim::Method::MappableVli, pair.a,
                                   pair.b), 2);
            }
        }
    }
    return CrossCoreReport{std::move(cpi), std::move(speedup)};
}

Table
ExperimentSuite::phaseBiasTable(const std::string& caption,
                                const std::string& workload,
                                std::size_t a, std::size_t b)
{
    const sim::CrossBinaryStudy& s = study(workload);
    if (a >= s.perBinary().size() || b >= s.perBinary().size())
        fatal("phase-bias table: binary indices {}/{} out of range "
              "(study '{}' has {} binaries)", a, b, workload,
              s.perBinary().size());
    const auto& binA = s.perBinary()[a];
    const auto& binB = s.perBinary()[b];
    const std::string nameA = bin::targetName(binA.target);
    const std::string nameB = bin::targetName(binB.target);

    Table table(caption,
                {"Method", "Phase",
                 nameA + " Weight", nameA + " True CPI",
                 nameA + " SP CPI", nameA + " CPI Err",
                 nameB + " Weight", nameB + " True CPI",
                 nameB + " SP CPI", nameB + " CPI Err"});

    auto addRows = [&table](const std::string& method,
                            const sim::BinaryEstimate& estA,
                            const sim::BinaryEstimate& estB) {
        const auto phasesA = estA.phasesByWeight();
        const auto phasesB = estB.phasesByWeight();
        const std::size_t rows =
            std::min<std::size_t>(3, std::min(phasesA.size(),
                                              phasesB.size()));
        for (std::size_t i = 0; i < rows; ++i) {
            table.startRow();
            table.addCell(method);
            table.addInteger(static_cast<long long>(i + 1));
            table.addNumber(phasesA[i].weight, 2);
            table.addNumber(phasesA[i].trueCpi, 2);
            table.addNumber(phasesA[i].spCpi, 2);
            table.addPercent(phasesA[i].bias, 1);
            table.addNumber(phasesB[i].weight, 2);
            table.addNumber(phasesB[i].trueCpi, 2);
            table.addNumber(phasesB[i].spCpi, 2);
            table.addPercent(phasesB[i].bias, 1);
        }
    };
    addRows("VLI", binA.vliEstimate, binB.vliEstimate);
    addRows("FLI", binA.fliEstimate, binB.fliEstimate);
    return table;
}

Table
ExperimentSuite::table2()
{
    return phaseBiasTable(
        "Table 2: Phase comparison across 32-bit unoptimized and "
        "64-bit unoptimized gcc binaries",
        "gcc", 0, 2);
}

Table
ExperimentSuite::table3()
{
    return phaseBiasTable(
        "Table 3: Phase comparison across 32-bit optimized and "
        "64-bit optimized apsi binaries",
        "apsi", 1, 3);
}

Table
ExperimentSuite::mappabilityReport()
{
    precompute();
    Table table("Mappable-point statistics (diagnostic)",
                {"benchmark", "mappable", "rejected:missing",
                 "rejected:count", "rejected:unused"});
    for (const std::string& name : names) {
        const sim::CrossBinaryStudy& s = study(name);
        u64 missing = 0, countMismatch = 0, unused = 0;
        for (const auto& rej : s.mappable().rejected) {
            switch (rej.reason) {
              case core::RejectReason::MissingInSomeBinary:
                ++missing;
                break;
              case core::RejectReason::CountMismatch:
                ++countMismatch;
                break;
              case core::RejectReason::NeverExecuted:
                ++unused;
                break;
            }
        }
        table.startRow();
        table.addCell(name);
        table.addInteger(
            static_cast<long long>(s.mappable().points.size()));
        table.addInteger(static_cast<long long>(missing));
        table.addInteger(static_cast<long long>(countMismatch));
        table.addInteger(static_cast<long long>(unused));
    }
    return table;
}

} // namespace xbsp::harness
