/**
 * @file
 * The cross-binary study pipeline, decomposed into named stages with
 * explicit inputs and outputs, plus the wiring that lays them out as
 * nodes of a pipeline::TaskGraph:
 *
 *   compile ──> profile[b] (×4) ──> match ──> vliCluster
 *      │             │                │           │
 *      └───────┬─────┴──────┬─────────┴───────────┘
 *              v            v
 *          binary[b] (×4) ──────> finish
 *
 * A StudyBuild owns all intermediate state (program, config, profile
 * passes) and the CrossBinaryStudy being assembled; each stage method
 * reads only outputs of its declared predecessors and writes only its
 * own slots, so stages of *different* builds interleave freely on one
 * pool.  CrossBinaryStudy::run() wires a single build into a private
 * graph; harness::buildSuiteGraph() wires many builds into one global
 * graph so the serial match/vliCluster stages of one workload overlap
 * with the profile/binary stages of others.
 *
 * Stages that are memoized through store::ArtifactStore carry cache
 * probes (the *Cached() methods): when every artifact a stage would
 * compute is already on disk, the scheduler resolves the node inline
 * instead of occupying a worker slot (see taskgraph.hh).
 */

#ifndef XBSP_SIM_STAGES_HH
#define XBSP_SIM_STAGES_HH

#include <chrono>
#include <cstddef>

#include "pipeline/taskgraph.hh"
#include "sim/study.hh"

namespace xbsp::sim
{

/** One study mid-assembly; see the file comment. */
class StudyBuild
{
  public:
    StudyBuild(ir::Program program, StudyConfig config);

    StudyBuild(const StudyBuild&) = delete;
    StudyBuild& operator=(const StudyBuild&) = delete;

    /** Workload name (stable from construction). */
    const std::string& workload() const { return prog.name; }

    /** Number of per-binary stages (the four standard targets). */
    std::size_t binaryCount() const { return targets; }

    /**
     * Stage bodies, in dependency order.  Callers must respect the
     * graph in the file comment; appendStudyGraph() encodes it.
     */
    void compile();
    void profile(std::size_t b);
    void match();
    void vliCluster();
    void binary(std::size_t b);
    void finish();

    /**
     * Cache probes: true when the stage's entire output is already
     * in the artifact store (read-only; see TaskGraph::setProbe).
     */
    bool compileCached() const;
    bool profileCached(std::size_t b) const;
    bool binaryCached(std::size_t b) const;

    /**
     * Provenance keys for the run manifest (hex; "" when the stage
     * has no store key).  Only valid after the corresponding stage
     * completed — TaskGraph::setProvenance guarantees exactly that
     * by evaluating lazily, for finished nodes only.
     */
    std::string compileKeyHex() const;
    std::string profileKeyHex(std::size_t b) const;
    std::string vliKeyHex() const;
    std::string binaryKeyHex(std::size_t b) const;

    /** Wall-clock from compile() start to finish(), milliseconds. */
    long long elapsedMs() const { return elapsed; }

    /** Move the assembled study out (after finish()). */
    CrossBinaryStudy takeStudy();

  private:
    /**
     * Binary `b`'s detailed-run request over `fliBoundaries`.  The
     * stage, its cache probe and its manifest key all build it here,
     * so the probe and the key name the run the stage does.
     */
    DetailedRunRequest
    detailedRequest(std::size_t b,
                    const std::vector<InstrCount>& fliBoundaries) const;

    ir::Program prog;
    std::size_t targets;
    std::vector<prof::ProfilePass> passes;
    CrossBinaryStudy study;
    std::chrono::steady_clock::time_point started;
    long long elapsed = 0;
    bool finished = false;
};

/** Node ids of one study's stages within a graph. */
struct StudyNodes
{
    pipeline::NodeId compile{};
    std::vector<pipeline::NodeId> profiles;  ///< one per binary
    pipeline::NodeId match{};
    pipeline::NodeId vli{};
    std::vector<pipeline::NodeId> binaries;  ///< one per binary
    pipeline::NodeId finish{};
};

/**
 * Append one study's stage nodes to `graph`, with dependencies and
 * cache probes wired; returns every node id so callers can attach
 * extra per-node policy (the harness wires remote-dispatch specs onto
 * the memoized stages; see harness::buildSuiteGraph).  Attach a
 * commit hook to `finish` to consume the study in deterministic
 * order.  `build` must outlive the graph run.
 */
StudyNodes appendStudyGraphNodes(pipeline::TaskGraph& graph,
                                 StudyBuild& build);

/** Convenience wrapper returning only the finish node. */
pipeline::NodeId appendStudyGraph(pipeline::TaskGraph& graph,
                                  StudyBuild& build);

/**
 * Content digest over everything that parameterizes one study —
 * workload name, interval target, SimPoint knobs, memory hierarchy,
 * compile options, seeds, detailed flag — stamped into the run
 * manifest so a recorded result names the exact configuration that
 * produced it.
 */
std::string studyConfigDigest(std::string_view workload,
                              const StudyConfig& config);

} // namespace xbsp::sim

#endif // XBSP_SIM_STAGES_HH
