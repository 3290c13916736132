#include "sim/stages.hh"

#include <utility>

#include "binary/serial.hh"
#include "core/serial.hh"
#include "cpu/serial.hh"
#include "obs/progress.hh"
#include "obs/stats.hh"
#include "profile/serial.hh"
#include "simpoint/serial.hh"
#include "sim/serial.hh"
#include "store/store.hh"
#include "util/format.hh"
#include "util/logging.hh"

namespace xbsp::sim
{

StudyBuild::StudyBuild(ir::Program program, StudyConfig config)
    : prog(std::move(program)),
      targets(compile::standardTargets().size())
{
    study.cfg = std::move(config);
    study.name = prog.name;
}

void
StudyBuild::compile()
{
    obs::StatRegistry::global().counter("study.runs").add();
    started = std::chrono::steady_clock::now();
    study.bins = compile::compileAllTargets(prog,
                                            study.cfg.compileOptions);
    if (study.cfg.primaryIdx >= study.bins.size())
        fatal("primary binary index {} out of range",
              study.cfg.primaryIdx);

    // Step layout for --progress: compile, one profile pass per
    // binary, the VLI build+cluster, one per-binary study step.
    obs::Progress& progress = obs::Progress::global();
    progress.addSteps(2 + 2 * study.bins.size());
    progress.completeStep(format("study.{}.compile", prog.name));

    passes.resize(study.bins.size());
    study.studies.resize(study.bins.size());
}

void
StudyBuild::profile(std::size_t b)
{
    // Every binary owns its own engine and per-block address-
    // generator seeds (derived from config.engineSeed and block ids
    // only), so the four passes are independent and their results do
    // not depend on execution order.
    passes[b] = prof::runProfilePass(study.bins[b],
                                     study.cfg.intervalTarget,
                                     study.cfg.engineSeed);
    obs::Progress::global().completeStep(
        format("study.{}.profile.{}", prog.name,
               study.bins[b].displayName()));
}

void
StudyBuild::match()
{
    std::vector<const bin::Binary*> binPtrs;
    std::vector<const prof::MarkerProfile*> profPtrs;
    for (std::size_t b = 0; b < study.bins.size(); ++b) {
        binPtrs.push_back(&study.bins[b]);
        profPtrs.push_back(&passes[b].markers);
    }
    study.mappableSet = core::findMappablePoints(binPtrs, profPtrs);
    if (study.mappableSet.points.empty())
        fatal("program '{}': no mappable points found across the "
              "binaries; cross-binary SimPoint cannot proceed",
              prog.name);
}

void
StudyBuild::vliCluster()
{
    core::VliBuild vliBuild = core::buildVliPartition(
        study.bins[study.cfg.primaryIdx], study.mappableSet,
        study.cfg.primaryIdx, study.cfg.intervalTarget,
        study.cfg.engineSeed);
    // The build is dead once split: move its parts out.
    study.vliPartition = std::move(vliBuild.partition);
    study.vliCluster = sp::pickSimulationPoints(
        std::move(vliBuild.intervals), study.cfg.simpoint);
    obs::Progress::global().completeStep(
        format("study.{}.cluster", prog.name));
}

void
StudyBuild::binary(std::size_t b)
{
    // Reads shared state (bins, mappableSet, vliPartition,
    // vliCluster) const-only and writes only its own BinaryStudy
    // slot, so the four binaries proceed independently.  The step is
    // only counted complete on success: a throwing stage leaves the
    // progress meter short and surfaces as a failed node instead.
    const StudyConfig& config = study.cfg;
    BinaryStudy& bs = study.studies[b];
    bs.target = study.bins[b].target;
    bs.totalInstrs = passes[b].totalInstructions;
    bs.fliIntervalCount = passes[b].fliIntervals.size();
    bs.fliClustering = sp::pickSimulationPoints(
        std::move(passes[b].fliIntervals), config.simpoint);
    // The profile pass is dead from here on: steal its buffers
    // rather than deep-copying them.
    bs.markers = std::move(passes[b].markers);
    bs.fliBoundaries = std::move(passes[b].fliBoundaries);

    const std::string stepLabel = format(
        "study.{}.binary.{}", prog.name, study.bins[b].displayName());

    bs.avgVliIntervalSize =
        static_cast<double>(bs.totalInstrs) /
        static_cast<double>(study.vliPartition.intervalCount());

    if (!config.detailed) {
        // No timing, but the cross-binary mapping is still checked:
        // a cheap (no-cache) run must cross every mappable boundary
        // of the partition, in order, in this binary too.
        exec::Engine engine(study.bins[b], config.engineSeed);
        core::BoundaryTracker tracker(study.mappableSet, b,
                                      study.vliPartition,
                                      [](std::size_t) {});
        engine.addObserver(&tracker, {false, false, true});
        engine.run();
        if (!tracker.finished())
            panic("binary {}: VLI boundaries not all crossed",
                  study.bins[b].displayName());
        obs::Progress::global().completeStep(stepLabel);
        return;
    }

    bs.detailedRun =
        runDetailed(study.bins[b], detailedRequest(b, bs.fliBoundaries));

    bs.fliEstimate = estimateSampled(bs.fliClustering,
                                     bs.detailedRun.fliIntervals);
    bs.vliEstimate = estimateSampled(study.vliCluster,
                                     bs.detailedRun.vliIntervals);
    obs::Progress::global().completeStep(stepLabel);
}

void
StudyBuild::finish()
{
    elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                  std::chrono::steady_clock::now() - started)
                  .count();
    finished = true;
}

DetailedRunRequest
StudyBuild::detailedRequest(
    std::size_t b, const std::vector<InstrCount>& fliBoundaries) const
{
    DetailedRunRequest req = makeRunRequest(study.cfg);
    req.fliBoundaries = fliBoundaries;
    req.mappable = &study.mappableSet;
    req.binaryIdx = b;
    req.partition = &study.vliPartition;
    return req;
}

CrossBinaryStudy
StudyBuild::takeStudy()
{
    if (!finished)
        panic("StudyBuild::takeStudy before finish()");
    return std::move(study);
}

bool
StudyBuild::compileCached() const
{
    const store::ArtifactStore& store = store::ArtifactStore::global();
    for (const bin::Target& target : compile::standardTargets()) {
        if (!store.contains(
                compile::compileKey(prog, target,
                                    study.cfg.compileOptions),
                bin::BinaryCodec::tag, bin::BinaryCodec::version))
            return false;
    }
    return true;
}

bool
StudyBuild::profileCached(std::size_t b) const
{
    const store::ArtifactStore& store = store::ArtifactStore::global();
    if (b >= study.bins.size() || !store.enabled())
        return false;  // no binary yet, or nothing to probe
    return store.contains(
        prof::profilePassKey(study.bins[b], study.cfg.intervalTarget,
                             study.cfg.engineSeed),
        prof::ProfilePassCodec::tag, prof::ProfilePassCodec::version);
}

bool
StudyBuild::binaryCached(std::size_t b) const
{
    // The no-detailed branch always runs a (cheap, unmemoized)
    // engine pass, so only the detailed path can cache-resolve.
    if (!study.cfg.detailed)
        return false;
    if (b >= study.bins.size() || b >= passes.size())
        return false;
    const store::ArtifactStore& store = store::ArtifactStore::global();
    if (!store.contains(
            sp::simPointKey(passes[b].fliIntervals,
                            study.cfg.simpoint),
            sp::SimPointCodec::tag, sp::SimPointCodec::version))
        return false;
    return store.contains(
        detailedRunKey(study.bins[b],
                       detailedRequest(b, passes[b].fliBoundaries)),
        DetailedRunCodec::tag, DetailedRunCodec::version);
}

std::string
StudyBuild::compileKeyHex() const
{
    // One digest covering all four targets' compile keys, so the
    // manifest entry pins the complete binary set, not just one.
    serial::Hasher h;
    for (const bin::Target& target : compile::standardTargets())
        h.str(compile::compileKey(prog, target,
                                  study.cfg.compileOptions)
                  .hex());
    return h.finish().hex();
}

std::string
StudyBuild::profileKeyHex(std::size_t b) const
{
    if (b >= study.bins.size())
        return {};
    return prof::profilePassKey(study.bins[b],
                                study.cfg.intervalTarget,
                                study.cfg.engineSeed)
        .hex();
}

std::string
StudyBuild::vliKeyHex() const
{
    if (study.cfg.primaryIdx >= study.bins.size())
        return {};
    return core::vliBuildKey(study.bins[study.cfg.primaryIdx],
                             study.mappableSet, study.cfg.primaryIdx,
                             study.cfg.intervalTarget,
                             study.cfg.engineSeed)
        .hex();
}

std::string
StudyBuild::binaryKeyHex(std::size_t b) const
{
    // Only the detailed path is memoized (see binaryCached); the
    // boundaries were moved into the BinaryStudy slot by binary(),
    // so the key must be rebuilt from there, not from the pass.
    if (!study.cfg.detailed || b >= study.bins.size() ||
        b >= study.studies.size())
        return {};
    return detailedRunKey(study.bins[b],
                          detailedRequest(b,
                                          study.studies[b].fliBoundaries))
        .hex();
}

std::string
studyConfigDigest(std::string_view workload, const StudyConfig& config)
{
    serial::Hasher h;
    h.str(workload);
    h.u64v(config.intervalTarget);
    sp::hashSimPointOptions(h, config.simpoint);
    h.u64v(config.primaryIdx);
    hashHierarchy(h, config.memory);
    cpu::hashCoreConfig(h, config.core);
    h.boolean(config.compileOptions.enableInlining);
    h.boolean(config.compileOptions.enableUnrolling);
    h.boolean(config.compileOptions.enableLoopSplitting);
    h.u32v(config.compileOptions.unrollFactor);
    h.u64v(config.compileOptions.jitterSeed);
    h.u64v(config.engineSeed);
    h.boolean(config.detailed);
    return h.finish().hex();
}

StudyNodes
appendStudyGraphNodes(pipeline::TaskGraph& graph, StudyBuild& build)
{
    const std::string& name = build.workload();
    const std::vector<bin::Target> targets = compile::standardTargets();
    StudyNodes nodes;

    nodes.compile = graph.add(
        format("study.{}.compile", name), "compile", {},
        [&build] { build.compile(); });
    graph.setProbe(nodes.compile,
                   [&build] { return build.compileCached(); });
    graph.setProvenance(nodes.compile,
                        [&build] { return build.compileKeyHex(); });

    for (std::size_t b = 0; b < build.binaryCount(); ++b) {
        const pipeline::NodeId id = graph.add(
            format("study.{}.profile.{}", name,
                   bin::targetName(targets[b])),
            "profile", {nodes.compile},
            [&build, b] { build.profile(b); });
        graph.setProbe(id,
                       [&build, b] { return build.profileCached(b); });
        graph.setProvenance(
            id, [&build, b] { return build.profileKeyHex(b); });
        nodes.profiles.push_back(id);
    }

    nodes.match = graph.add(
        format("study.{}.match", name), "match", nodes.profiles,
        [&build] { build.match(); });

    nodes.vli = graph.add(
        format("study.{}.cluster", name), "vli",
        {nodes.compile, nodes.match}, [&build] { build.vliCluster(); });
    graph.setProvenance(nodes.vli,
                        [&build] { return build.vliKeyHex(); });

    for (std::size_t b = 0; b < build.binaryCount(); ++b) {
        const pipeline::NodeId id = graph.add(
            format("study.{}.binary.{}", name,
                   bin::targetName(targets[b])),
            "binary", {nodes.profiles[b], nodes.match, nodes.vli},
            [&build, b] { build.binary(b); });
        graph.setProbe(id,
                       [&build, b] { return build.binaryCached(b); });
        graph.setProvenance(
            id, [&build, b] { return build.binaryKeyHex(b); });
        nodes.binaries.push_back(id);
    }

    nodes.finish = graph.add(format("study.{}.finish", name),
                             "finish", nodes.binaries,
                             [&build] { build.finish(); });
    return nodes;
}

pipeline::NodeId
appendStudyGraph(pipeline::TaskGraph& graph, StudyBuild& build)
{
    return appendStudyGraphNodes(graph, build).finish;
}

} // namespace xbsp::sim
