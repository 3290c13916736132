#include "sim/stages.hh"

#include <optional>
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

namespace
{

/**
 * The artifact stored under `sourceKey` (a profile pass or a VLI
 * build), with the clustering of its vectors — stored under
 * sp::simPointKey(sourceKey, options) — in `clustering`.  The
 * clustering is looked up first; when it is stored, the source is
 * read with SkimCodec, which skips the vectors.  Anything missing is
 * computed (`compute` runs the keyed, memoized source stage) and
 * counted a miss, as on a cold run; a missed clustering is computed
 * and stored without a second read.  With the store off both lookups
 * find nothing, so this is also the uncached path.
 */
template <typename SkimCodec, typename Compute>
typename SkimCodec::Value
readOrCluster(const serial::Hash128& sourceKey, const char* stage,
              sp::FrequencyVectorSet SkimCodec::Value::*vectors,
              const sp::SimPointOptions& options,
              sp::SimPointResult& clustering, Compute&& compute)
{
    store::ArtifactStore& store = store::ArtifactStore::global();
    const serial::Hash128 clusteringKey =
        sp::simPointKey(sourceKey, options);
    std::optional<sp::SimPointResult> stored =
        store.lookup<sp::SimPointCodec>(clusteringKey, "simpoint");
    std::optional<typename SkimCodec::Value> skimmed;
    if (stored)
        skimmed = store.lookup<SkimCodec>(sourceKey, stage);
    typename SkimCodec::Value value =
        skimmed ? std::move(*skimmed) : compute();
    clustering =
        stored ? std::move(*stored)
               : store.computeAndStore<sp::SimPointCodec>(
                     clusteringKey, "simpoint", [&] {
                         return sp::clusterVectors(
                             std::move(value.*vectors), options);
                     });
    return value;
}

} // namespace

StudyBuild::StudyBuild(ir::Program program, StudyConfig config)
    : prog(std::move(program))
{
    study.cfg = std::move(config);
    study.name = prog.name;
    for (const bin::Target& target : compile::standardTargets())
        keys.compile.push_back(compile::compileKey(
            prog, target, study.cfg.compileOptions));
}

void
StudyBuild::compile()
{
    obs::StatRegistry::global().counter("study.runs").add();
    started = std::chrono::steady_clock::now();
    const std::vector<bin::Target> targets = compile::standardTargets();
    for (std::size_t t = 0; t < targets.size(); ++t)
        study.bins.push_back(compile::compileProgram(
            prog, targets[t], study.cfg.compileOptions, keys.compile[t]));
    if (study.cfg.primaryIdx >= study.bins.size())
        fatal("primary binary index {} out of range",
              study.cfg.primaryIdx);
    for (const bin::Binary& binary : study.bins)
        keys.profile.push_back(prof::profilePassKey(
            binary, study.cfg.intervalTarget, study.cfg.engineSeed));

    // Step layout for --progress: compile, one profile pass per
    // binary, the VLI build+cluster, one per-binary study step.
    obs::Progress& progress = obs::Progress::global();
    progress.addSteps(2 + 2 * study.bins.size());
    progress.completeStep(format("study.{}.compile", prog.name));

    study.studies.resize(study.bins.size());
}

void
StudyBuild::profile(std::size_t b)
{
    // Every binary owns its own engine and per-block address-
    // generator seeds (derived from config.engineSeed and block ids
    // only), so the four passes are independent and their results do
    // not depend on execution order.  The pass's FLI vectors are
    // clustered here and die with the pass: no vector set outlives
    // the node that made it.  Only markers, the interval count, the
    // clustering and — for a detailed run, their only reader — the
    // boundaries travel on, in this binary's BinaryStudy slot.
    const bin::Binary& binary = study.bins[b];
    const StudyConfig& config = study.cfg;
    const serial::Hash128& passKey = keys.profile[b];
    BinaryStudy& bs = study.studies[b];
    prof::ProfilePass pass = readOrCluster<prof::ProfilePassSkimCodec>(
        passKey, "profile", &prof::ProfilePass::fliIntervals,
        config.simpoint, bs.fliClustering, [&] {
            return prof::runProfilePass(binary, config.intervalTarget,
                                        config.engineSeed, passKey);
        });
    bs.target = binary.target;
    bs.totalInstrs = pass.totalInstructions;
    bs.fliIntervalCount = pass.fliBoundaries.size();
    bs.markers = std::move(pass.markers);
    if (config.detailed)
        bs.fliBoundaries = std::move(pass.fliBoundaries);
    obs::Progress::global().completeStep(
        format("study.{}.profile.{}", prog.name, binary.displayName()));
}

void
StudyBuild::match()
{
    std::vector<const bin::Binary*> binPtrs;
    std::vector<const prof::MarkerProfile*> profPtrs;
    for (std::size_t b = 0; b < study.bins.size(); ++b) {
        binPtrs.push_back(&study.bins[b]);
        profPtrs.push_back(&study.studies[b].markers);
    }
    study.mappableSet = core::findMappablePoints(binPtrs, profPtrs);
    if (study.mappableSet.points.empty())
        fatal("program '{}': no mappable points found across the "
              "binaries; cross-binary SimPoint cannot proceed",
              prog.name);
    const StudyConfig& config = study.cfg;
    keys.vli = core::vliBuildKey(study.bins[config.primaryIdx],
                                 study.mappableSet, config.primaryIdx,
                                 config.intervalTarget,
                                 config.engineSeed);
}

void
StudyBuild::vliCluster()
{
    const StudyConfig& config = study.cfg;
    const serial::Hash128& buildKey = *keys.vli;
    core::VliBuild build = readOrCluster<core::VliBuildSkimCodec>(
        buildKey, "vli", &core::VliBuild::intervals, config.simpoint,
        study.vliCluster, [&] {
            return core::buildVliPartition(
                study.bins[config.primaryIdx], study.mappableSet,
                config.primaryIdx, config.intervalTarget,
                config.engineSeed, buildKey);
        });
    study.vliPartition = std::move(build.partition);
    // The partition was the detailed runs' last input.
    if (config.detailed) {
        for (std::size_t b = 0; b < study.bins.size(); ++b)
            keys.detailed.push_back(
                detailedRunKey(study.bins[b], detailedRequest(b)));
    }
    obs::Progress::global().completeStep(
        format("study.{}.cluster", prog.name));
}

void
StudyBuild::binary(std::size_t b)
{
    // Reads shared state (bins, mappableSet, vliPartition,
    // vliCluster) const-only and writes only its own BinaryStudy
    // slot, which profile(b) filled, so the four binaries proceed
    // independently.  The step is only counted complete on success:
    // a throwing stage leaves the progress meter short and surfaces
    // as a failed node instead.
    const StudyConfig& config = study.cfg;
    BinaryStudy& bs = study.studies[b];

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
        engine.runWith(tracker);
        if (!tracker.finished())
            panic("binary {}: VLI boundaries not all crossed",
                  study.bins[b].displayName());
        obs::Progress::global().completeStep(stepLabel);
        return;
    }

    bs.detailedRun =
        runDetailed(study.bins[b], detailedRequest(b), keys.detailed[b]);

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
StudyBuild::detailedRequest(std::size_t b) const
{
    DetailedRunRequest req = makeRunRequest(study.cfg);
    req.fliBoundaries = study.studies[b].fliBoundaries;
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
    for (const serial::Hash128& key : keys.compile) {
        if (!store.contains(key, bin::BinaryCodec::tag,
                            bin::BinaryCodec::version))
            return false;
    }
    return true;
}

bool
StudyBuild::profileCached(std::size_t b) const
{
    // Both artifacts profile(b) produces must be on disk: a warm pass
    // with a cold clustering (a new --maxk, say) would otherwise
    // cluster inline on the scheduling thread.
    if (b >= keys.profile.size())
        return false;  // no binary yet
    const store::ArtifactStore& store = store::ArtifactStore::global();
    return store.contains(keys.profile[b], prof::ProfilePassCodec::tag,
                          prof::ProfilePassCodec::version) &&
           store.contains(
               sp::simPointKey(keys.profile[b], study.cfg.simpoint),
               sp::SimPointCodec::tag, sp::SimPointCodec::version);
}

bool
StudyBuild::binaryCached(std::size_t b) const
{
    // The no-detailed branch always runs a (cheap, unmemoized)
    // engine pass, so only the detailed path can cache-resolve.
    return b < keys.detailed.size() &&
           store::ArtifactStore::global().contains(
               keys.detailed[b], DetailedRunCodec::tag,
               DetailedRunCodec::version);
}

std::string
StudyBuild::compileKeyHex() const
{
    // One digest covering all four targets' compile keys, so the
    // manifest entry pins the complete binary set, not just one.
    serial::Hasher h;
    for (const serial::Hash128& key : keys.compile)
        h.str(key.hex());
    return h.finish().hex();
}

std::string
StudyBuild::profileKeyHex(std::size_t b) const
{
    return b < keys.profile.size() ? keys.profile[b].hex() : "";
}

std::string
StudyBuild::vliKeyHex() const
{
    return keys.vli ? keys.vli->hex() : "";
}

std::string
StudyBuild::binaryKeyHex(std::size_t b) const
{
    // Only the detailed path is memoized (see binaryCached).
    return b < keys.detailed.size() ? keys.detailed[b].hex() : "";
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
