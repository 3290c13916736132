#include "sim/study.hh"

#include <utility>

#include "pipeline/taskgraph.hh"
#include "sim/stages.hh"
#include "util/format.hh"
#include "util/logging.hh"
#include "util/stats.hh"
#include "util/threadpool.hh"

namespace xbsp::sim
{

std::string
methodName(Method method)
{
    return method == Method::PerBinaryFli ? "fli" : "vli";
}

CrossBinaryStudy
CrossBinaryStudy::run(const ir::Program& program,
                      const StudyConfig& config)
{
    // Every stage (see sim/stages.hh) is memoized through
    // store::ArtifactStore::global(), keyed by the exact hash of its
    // inputs.  A warm run therefore reads every artifact from disk
    // and reassembles this struct bit-identically — the study itself
    // needs no cache logic of its own, and cached stages resolve
    // their graph nodes without occupying a worker slot.
    StudyBuild build(program, config);
    pipeline::TaskGraph graph;
    appendStudyGraph(graph, build);
    graph.setManifestInfo(format("study.{}", program.name),
                          studyConfigDigest(program.name, config));
    graph.run(globalPool());
    return build.takeStudy();
}

double
CrossBinaryStudy::avgSimPointCount(Method method) const
{
    std::vector<double> counts;
    for (const BinaryStudy& bs : studies) {
        if (method == Method::PerBinaryFli)
            counts.push_back(
                static_cast<double>(bs.fliClustering.phases.size()));
        else
            counts.push_back(
                static_cast<double>(vliCluster.phases.size()));
    }
    return mean(counts);
}

double
CrossBinaryStudy::avgIntervalSize(Method method) const
{
    std::vector<double> sizes;
    for (const BinaryStudy& bs : studies) {
        if (method == Method::PerBinaryFli) {
            sizes.push_back(static_cast<double>(bs.totalInstrs) /
                            static_cast<double>(bs.fliIntervalCount));
        } else {
            sizes.push_back(bs.avgVliIntervalSize);
        }
    }
    return mean(sizes);
}

double
CrossBinaryStudy::avgCpiError(Method method) const
{
    std::vector<double> errors;
    for (const BinaryStudy& bs : studies) {
        const BinaryEstimate& est = method == Method::PerBinaryFli
                                        ? bs.fliEstimate
                                        : bs.vliEstimate;
        errors.push_back(est.cpiError);
    }
    return mean(errors);
}

const BinaryEstimate&
CrossBinaryStudy::estimateOf(Method method, std::size_t idx) const
{
    if (idx >= studies.size())
        fatal("study '{}': binary index {} out of range (study has "
              "{} binaries)", name, idx, studies.size());
    return method == Method::PerBinaryFli ? studies[idx].fliEstimate
                                          : studies[idx].vliEstimate;
}

double
CrossBinaryStudy::trueSpeedup(std::size_t a, std::size_t b) const
{
    return speedup(estimateOf(Method::PerBinaryFli, a).trueCycles,
                   estimateOf(Method::PerBinaryFli, b).trueCycles);
}

double
CrossBinaryStudy::estimatedSpeedup(Method method, std::size_t a,
                                   std::size_t b) const
{
    return speedup(estimateOf(method, a).estCycles,
                   estimateOf(method, b).estCycles);
}

double
CrossBinaryStudy::speedupError(Method method, std::size_t a,
                               std::size_t b) const
{
    const BinaryEstimate& estA = estimateOf(method, a);
    const BinaryEstimate& estB = estimateOf(method, b);
    return sim::speedupError(estA.trueCycles, estB.trueCycles,
                             estA.estCycles, estB.estCycles);
}

namespace
{

void
checkPairTargets(std::size_t binaryCount)
{
    if (binaryCount < 4)
        fatal("speedup pairs index the four standard binaries "
              "(0=32u, 1=32o, 2=64u, 3=64o) but only {} are "
              "available", binaryCount);
}

} // namespace

std::vector<SpeedupPair>
samePlatformPairs(std::size_t binaryCount)
{
    checkPairTargets(binaryCount);
    return {{0, 1, "32u32o"}, {2, 3, "64u64o"}};
}

std::vector<SpeedupPair>
crossPlatformPairs(std::size_t binaryCount)
{
    checkPairTargets(binaryCount);
    return {{0, 2, "32u64u"}, {1, 3, "32o64o"}};
}

DetailedRunRequest
makeRunRequest(const StudyConfig& config)
{
    DetailedRunRequest request;
    request.memory = config.memory;
    request.core = config.core;
    request.seed = config.engineSeed;
    return request;
}

} // namespace xbsp::sim
