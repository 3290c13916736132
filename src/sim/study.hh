/**
 * @file
 * CrossBinaryStudy: the end-to-end pipeline of the paper for one
 * program.
 *
 *   1. compile the program for the four standard targets;
 *   2. profile each binary (marker counts + FLI basic-block vectors);
 *   3. match mappable points across all binaries (§3.2.1–3.2.2);
 *   4. build variable-length intervals on the primary binary
 *      (§3.2.3) and cluster them with SimPoint (§3.2.4–3.2.5);
 *   5. cluster each binary's own FLI vectors (the per-binary
 *      baseline, §2);
 *   6. run one detailed simulation per binary, collecting full-run
 *      truth plus per-interval statistics under both partitions;
 *   7. form sampled estimates with per-binary recalculated weights
 *      (§3.2.6) and expose the paper's error metrics.
 *
 * This is the primary public entry point of the library.
 */

#ifndef XBSP_SIM_STUDY_HH
#define XBSP_SIM_STUDY_HH

#include <string>
#include <vector>

#include "compile/compiler.hh"
#include "core/mappable.hh"
#include "core/vli.hh"
#include "ir/program.hh"
#include "profile/profile.hh"
#include "sim/detailed.hh"
#include "sim/estimate.hh"
#include "simpoint/simpoint.hh"

namespace xbsp::sim
{

/** Which sampling scheme an estimate came from. */
enum class Method
{
    PerBinaryFli,  ///< classic SimPoint run separately per binary
    MappableVli    ///< the paper's cross-binary simulation points
};

/** Short display name: "fli" / "vli". */
std::string methodName(Method method);

/** Everything configurable about a study. */
struct StudyConfig
{
    /** Desired interval size in (machine) instructions. */
    InstrCount intervalTarget = 500'000;

    /** SimPoint configuration, shared by both methods (§5.1). */
    sp::SimPointOptions simpoint;

    /** Which of the four binaries is the VLI primary (§3.2.4). */
    std::size_t primaryIdx = 0;

    /** Memory system (paper Table 1 by default). */
    cache::HierarchyConfig memory;

    /**
     * Timing backend (in-order by default).  A model knob like
     * `memory`: it parameterizes every detailed run, flows into the
     * detailed-run store key and the study config digest, and ships
     * inside StageTask over the dist wire.
     */
    cpu::CoreConfig core;

    /** Model-compiler pass toggles. */
    compile::CompileOptions compileOptions;

    /** Seed for the execution engines' address generators. */
    u64 engineSeed = 0x5EEDull;

    /** Run detailed (timing) simulation; figures 1–2 don't need it. */
    bool detailed = true;
};

/** Per-binary artifacts and results of a study. */
struct BinaryStudy
{
    bin::Target target;
    InstrCount totalInstrs = 0;

    /** Profile-pass outputs. */
    prof::MarkerProfile markers;
    std::vector<InstrCount> fliBoundaries;
    std::size_t fliIntervalCount = 0;

    /** Per-binary SimPoint clustering (on this binary's FLI BBVs). */
    sp::SimPointResult fliClustering;

    /** Detailed results (only when config.detailed). */
    DetailedRunResult detailedRun;
    BinaryEstimate fliEstimate;
    BinaryEstimate vliEstimate;

    /** Mean mapped-VLI interval size in this binary (instructions). */
    double avgVliIntervalSize = 0.0;
};

/** The full study result. */
class CrossBinaryStudy
{
  public:
    /**
     * Run the complete pipeline for one program, scheduled as a
     * pipeline::TaskGraph of stages on the global pool (see
     * sim/stages.hh).  Bit-identical at any --jobs count.
     */
    static CrossBinaryStudy run(const ir::Program& program,
                                const StudyConfig& config);

    const StudyConfig& config() const { return cfg; }
    const std::vector<bin::Binary>& binaries() const { return bins; }
    const core::MappableSet& mappable() const { return mappableSet; }
    const core::VliPartition& partition() const { return vliPartition; }
    const sp::SimPointResult& vliClustering() const { return vliCluster; }
    const std::vector<BinaryStudy>& perBinary() const { return studies; }
    const std::string& programName() const { return name; }

    /** Number of simulation points, averaged over binaries (Fig 1). */
    double avgSimPointCount(Method method) const;

    /** Mean interval size averaged over binaries (Fig 2). */
    double avgIntervalSize(Method method) const;

    /** Mean CPI error over the four binaries (Fig 3). */
    double avgCpiError(Method method) const;

    /** True speedup cyclesA / cyclesB from the full runs. */
    double trueSpeedup(std::size_t a, std::size_t b) const;

    /** Estimated speedup from sampled estimates of the method. */
    double estimatedSpeedup(Method method, std::size_t a,
                            std::size_t b) const;

    /** |(true - est) / true| speedup error (Figs 4, 5). */
    double speedupError(Method method, std::size_t a,
                        std::size_t b) const;

  private:
    friend class StudyBuild;  // assembles the fields stage by stage

    StudyConfig cfg;
    std::string name;
    std::vector<bin::Binary> bins;
    std::vector<BinaryStudy> studies;
    core::MappableSet mappableSet;
    core::VliPartition vliPartition;
    sp::SimPointResult vliCluster;

    const BinaryEstimate& estimateOf(Method method,
                                     std::size_t idx) const;
};

/**
 * The four speedup pair configurations of Figures 4 and 5, as
 * (indexA, indexB, label): 32u/32o and 64u/64o (same platform,
 * Fig 4), 32u/64u and 32o/64o (cross platform, Fig 5).  Indices
 * follow compileAllTargets order: 0=32u, 1=32o, 2=64u, 3=64o.
 */
struct SpeedupPair
{
    std::size_t a = 0;
    std::size_t b = 0;
    std::string label;
};

/**
 * The pairs assume the canonical four-binary layout; pass the actual
 * binary count of the study (or studies) the pairs will index into —
 * a count below four is a clear `fatal` here instead of an
 * out-of-range access later.
 */
std::vector<SpeedupPair> samePlatformPairs(std::size_t binaryCount = 4);
std::vector<SpeedupPair> crossPlatformPairs(std::size_t binaryCount = 4);

/**
 * The one place a DetailedRunRequest is derived from a StudyConfig:
 * memory, core and seed are copied here and nowhere else, so the
 * FLI, VLI and region-replay call sites cannot silently diverge.
 * Scheme fields (fliBoundaries / mappable / partition) start empty;
 * callers fill in the ones they need.
 */
DetailedRunRequest makeRunRequest(const StudyConfig& config);

} // namespace xbsp::sim

#endif // XBSP_SIM_STUDY_HH
