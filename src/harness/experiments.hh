/**
 * @file
 * Experiment harness: regenerates every table and figure of the
 * paper's evaluation from CrossBinaryStudy runs, with per-workload
 * result caching so one process can emit several tables without
 * re-simulating.
 *
 * Figure/table inventory (see DESIGN.md):
 *   Table 1  — memory-system configuration
 *   Figure 1 — number of simulation points, FLI vs VLI
 *   Figure 2 — average VLI interval size
 *   Figure 3 — CPI error vs full simulation, FLI vs VLI
 *   Figure 4 — speedup error, same platform (32u32o, 64u64o)
 *   Figure 5 — speedup error, cross platform (32u64u, 32o64o)
 *   Table 2  — gcc per-phase bias, 32u vs 64u
 *   Table 3  — apsi per-phase bias, 32o vs 64o
 */

#ifndef XBSP_HARNESS_EXPERIMENTS_HH
#define XBSP_HARNESS_EXPERIMENTS_HH

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "pipeline/taskgraph.hh"
#include "sim/study.hh"
#include "util/table.hh"

namespace xbsp::sim
{
class StudyBuild;
}

namespace xbsp::harness
{

/** Suite-wide configuration. */
struct ExperimentConfig
{
    /** Workloads to run; empty means the full 21-program suite. */
    std::vector<std::string> workloads;

    /** Work scale passed to workload factories. */
    double workScale = 1.0;

    /** Study configuration shared by all workloads. */
    sim::StudyConfig study;

    /** Print progress as studies run. */
    bool verbose = true;

    /**
     * Remote dispatch backend for probe-missed stage nodes (null =
     * run everything on the local pool).  Purely an accelerator:
     * results are bit-identical either way, and a failed remote stage
     * falls back to the pool (see pipeline::TaskGraph).
     */
    pipeline::RemoteBackend* remote = nullptr;

    /**
     * Spec factory for remote-eligible stages, set alongside
     * `remote` (see dist::enableRemote — the harness itself never
     * depends on the dist subsystem).  Called while the suite graph
     * is wired, once per eligible (workload, stage, index) node.
     */
    std::function<pipeline::RemoteSpec(const std::string& workload,
                                       const std::string& stage,
                                       std::size_t index)>
        remoteSpec;
};

/** Runs and caches studies; renders paper tables/figures. */
class ExperimentSuite
{
  public:
    explicit ExperimentSuite(ExperimentConfig config);

    /** The configured workload list (resolved). */
    const std::vector<std::string>& workloads() const { return names; }

    /** Run (or fetch) the study for one workload. */
    const sim::CrossBinaryStudy& study(const std::string& workload);

    /**
     * Run every not-yet-cached workload study as one task graph on
     * the process-wide pool: all stages of all workloads are nodes of
     * a single DAG, so studies' serial stages overlap (see
     * SuiteGraph).  The cache contents and all table row orders are
     * identical to running the studies one by one: each study is
     * fully independent, and results are committed to the cache in
     * workload-list order after the whole graph settles.  Called
     * automatically by the whole-suite table builders.
     */
    void precompute();

    /** Paper Table 1: the memory-system configuration. */
    static Table table1(const cache::HierarchyConfig& config);

    /** Paper Figure 1: number of simulation points per benchmark. */
    Table figure1();

    /** Paper Figure 2: average VLI interval size per benchmark. */
    Table figure2();

    /** Paper Figure 3: CPI error per benchmark, FLI vs VLI. */
    Table figure3();

    /** Paper Figure 4: same-platform speedup error. */
    Table figure4();

    /** Paper Figure 5: cross-platform speedup error. */
    Table figure5();

    /** Paper Table 2: gcc phase comparison (32u vs 64u). */
    Table table2();

    /** Paper Table 3: apsi phase comparison (32o vs 64o). */
    Table table3();

    /**
     * Extra diagnostic (not in the paper): mappable-point statistics
     * per workload — accepted/rejected keys and rejection reasons.
     */
    Table mappabilityReport();

  private:
    ExperimentConfig cfg;
    std::vector<std::string> names;
    std::map<std::string, sim::CrossBinaryStudy> cache;

    void runStudies(const std::vector<std::string>& workloads);

    Table phaseBiasTable(const std::string& caption,
                         const std::string& workload, std::size_t a,
                         std::size_t b);
};

/**
 * One task graph spanning several workload studies: every stage of
 * every workload is a node of a single graph, so the serial
 * match/cluster stages of one workload overlap with the profile and
 * per-binary stages of others instead of hitting per-study barriers.
 * The builds own all intermediate state and must stay put while the
 * graph runs (hence unique_ptr slots and no copies).
 */
struct SuiteGraph
{
    SuiteGraph();
    ~SuiteGraph();

    SuiteGraph(const SuiteGraph&) = delete;
    SuiteGraph& operator=(const SuiteGraph&) = delete;

    std::vector<std::string> workloads;
    std::vector<std::unique_ptr<sim::StudyBuild>> builds;
    std::vector<pipeline::NodeId> finishNodes;  ///< one per workload
    pipeline::TaskGraph graph;
};

/**
 * Wire one study graph per workload (fatal on unknown names) into
 * `out`, without running it.  Used by ExperimentSuite::runStudies and
 * the `xbsp graph` command.
 */
void buildSuiteGraph(SuiteGraph& out, const ExperimentConfig& config,
                     const std::vector<std::string>& workloads);

/**
 * The paper's study configuration, with the in-order core; callers
 * that take `--core` set `core` on the result.
 */
sim::StudyConfig defaultStudyConfig();

/**
 * The cross-*microarchitecture* experiment: the same binaries studied
 * under every timing backend (in-order and decoupled), extending the
 * paper's cross-ISA/opt-level axis with the machine-model axis its
 * method claims to survive.
 */
struct CrossCoreReport
{
    /** Per (workload, binary, core): true CPI + FLI/VLI CPI error. */
    Table cpi;

    /** Per (workload, pair, core): FLI/VLI speedup error over the
        same-platform and cross-platform pairs of Figures 4–5. */
    Table speedup;
};

/**
 * Run (or fetch from the artifact store) one study per workload per
 * core kind — config.study.core supplies the non-kind knobs — and
 * render both tables.  Row order is deterministic: workloads in
 * config order, cores in CoreKind order.
 */
CrossCoreReport crossCoreComparison(const ExperimentConfig& config);

} // namespace xbsp::harness

#endif // XBSP_HARNESS_EXPERIMENTS_HH
