/**
 * @file
 * Shared core of the clustering microbench: time the full SimPoint
 * BIC sweep (k = 1..maxK x seedsPerK restarts) over real workload
 * profile vectors with the naive engine and with the accelerated one
 * (duplicate-interval dedup + Hamerly-bounded k-means + parallel
 * (k, seed) sweep), cross-check that both pick identical phases, and
 * emit the numbers as a table / JSON.  Also times the dedup digest
 * build on duplicate-heavy sparse input.  Used by
 * bench_micro_clustering (standalone, writes BENCH_clustering.json)
 * and by bench_all (folds the numbers into BENCH_pipeline.json).
 */

#ifndef XBSP_BENCH_CLUSTERING_COMMON_HH
#define XBSP_BENCH_CLUSTERING_COMMON_HH

#include <chrono>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include "compile/compiler.hh"
#include "obs/stats.hh"
#include "profile/profile.hh"
#include "simpoint/simpoint.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/table.hh"
#include "workloads/workloads.hh"

namespace xbsp::bench
{

/** One clustering measurement: a workload at an interval target. */
struct ClusteringCase
{
    std::string workload;
    double scale = 2.0;
    InstrCount interval = 10000;
};

/** Cases the default runs measure: thousands of intervals each. */
inline std::vector<ClusteringCase>
defaultClusteringCases()
{
    return {{"gcc", 2.0, 10000},
            {"gzip", 2.0, 5000},
            {"swim", 2.0, 5000}};
}

/** Timing + shape of one naive-vs-accelerated sweep comparison. */
struct ClusteringBenchResult
{
    std::string workload;
    std::size_t intervals = 0;       ///< points fed to clustering
    std::size_t dedupClasses = 0;    ///< unique vectors after dedup
    u32 chosenK = 0;
    double naiveSeconds = 0.0;       ///< best-of-reps, full BIC sweep
    double accelSeconds = 0.0;
    double speedup = 0.0;
    bool identical = false;          ///< accelerated == naive result
    // Per-sweep work counts from the stats registry (exact event
    // counts per single sweep; identical at any --jobs).
    u64 naiveDistances = 0;          ///< naive E-step sqDist calls
    u64 accelDistances = 0;          ///< accelerated E-step sqDist
    u64 hamerlySkips = 0;            ///< classes proven by the bound
    u64 hamerlyFallbacks = 0;        ///< classes fully re-scanned
};

/** Exact equality of the fields the paper's pipeline consumes. */
inline bool
identicalResults(const sp::SimPointResult& a,
                 const sp::SimPointResult& b)
{
    if (a.k != b.k || a.labels != b.labels || a.bicByK != b.bicByK)
        return false;
    if (a.phases.size() != b.phases.size())
        return false;
    for (std::size_t p = 0; p < a.phases.size(); ++p) {
        if (a.phases[p].representative != b.phases[p].representative ||
            a.phases[p].weight != b.phases[p].weight ||
            a.phases[p].members != b.phases[p].members)
            return false;
    }
    return true;
}

/**
 * Profile one case and time the naive and accelerated sweeps,
 * `reps` times each (best-of to suppress scheduler noise).
 */
inline ClusteringBenchResult
benchClusteringSweep(const ClusteringCase& bc,
                     const sp::SimPointOptions& base, int reps)
{
    const ir::Program program =
        workloads::makeWorkload(bc.workload, bc.scale);
    const bin::Binary binary =
        compile::compileProgram(program, bin::target32o);
    const prof::ProfilePass pass =
        prof::runProfilePass(binary, bc.interval);

    sp::FrequencyVectorSet normalized = pass.fliIntervals;
    normalized.normalize();

    sp::SimPointOptions naiveOpts = base;
    naiveOpts.accelerate = false;
    sp::SimPointOptions accelOpts = base;
    accelOpts.accelerate = true;

    using clock = std::chrono::steady_clock;
    obs::StatRegistry& reg = obs::StatRegistry::global();
    // Per-sweep work counts = counter delta across the rep loop over
    // reps.  Every rep performs identical (deterministic) work, so
    // the division is exact.
    auto timeSweep = [&](const sp::SimPointOptions& options,
                         sp::SimPointResult& out, u64& distances) {
        double best = std::numeric_limits<double>::max();
        const u64 before = reg.counterValue("kmeans.estep.distances");
        for (int rep = 0; rep < reps; ++rep) {
            const auto start = clock::now();
            out = sp::pickSimulationPoints(pass.fliIntervals, options);
            best = std::min(
                best, std::chrono::duration<double>(clock::now() -
                                                    start)
                          .count());
        }
        distances = (reg.counterValue("kmeans.estep.distances") -
                     before) /
                    static_cast<u64>(reps);
        return best;
    };

    ClusteringBenchResult result;
    result.workload = bc.workload;
    result.intervals = pass.fliIntervals.size();
    result.dedupClasses = normalized.dedup().classes();
    sp::SimPointResult naive, accel;
    const u64 skipsBefore = reg.counterValue("kmeans.hamerly.skips");
    const u64 fallsBefore =
        reg.counterValue("kmeans.hamerly.fallbacks");
    result.naiveSeconds =
        timeSweep(naiveOpts, naive, result.naiveDistances);
    result.accelSeconds =
        timeSweep(accelOpts, accel, result.accelDistances);
    result.hamerlySkips =
        (reg.counterValue("kmeans.hamerly.skips") - skipsBefore) /
        static_cast<u64>(reps);
    result.hamerlyFallbacks =
        (reg.counterValue("kmeans.hamerly.fallbacks") - fallsBefore) /
        static_cast<u64>(reps);
    result.speedup = result.naiveSeconds / result.accelSeconds;
    result.chosenK = accel.k;
    result.identical = identicalResults(naive, accel);
    if (!result.identical)
        warn("clustering bench: accelerated result diverged from "
             "naive on '{}'", bc.workload);
    return result;
}

/** Render the measurements as a standard bench table. */
inline Table
clusteringTable(const std::vector<ClusteringBenchResult>& results)
{
    Table table("Clustering BIC sweep: naive vs accelerated "
                "(Hamerly bounds + dedup + parallel sweep)",
                {"workload", "intervals", "classes", "k",
                 "naive_s", "accel_s", "speedup", "identical"});
    for (const ClusteringBenchResult& r : results) {
        table.startRow();
        table.addCell(r.workload);
        table.addInteger(static_cast<long long>(r.intervals));
        table.addInteger(static_cast<long long>(r.dedupClasses));
        table.addInteger(r.chosenK);
        table.addNumber(r.naiveSeconds, 4);
        table.addNumber(r.accelSeconds, 4);
        table.addNumber(r.speedup, 2);
        table.addCell(r.identical ? "yes" : "NO");
    }
    return table;
}

/**
 * Emit the measurements as a JSON array value on `w` (the caller has
 * already placed the key) — shared between the standalone
 * BENCH_clustering.json and the bench_all summary.  The per-case
 * work counts (distance evaluations, Hamerly skip/fallback tallies)
 * come from the stats registry and quantify *why* the accelerated
 * sweep is faster, not just by how much.
 */
inline void
writeClusteringCases(JsonWriter& w,
                     const std::vector<ClusteringBenchResult>& results)
{
    w.beginArray();
    for (const ClusteringBenchResult& r : results) {
        w.beginObject();
        w.member("workload", r.workload);
        w.member("intervals", r.intervals);
        w.member("dedup_classes", r.dedupClasses);
        w.member("chosen_k", r.chosenK);
        w.member("naive_seconds", r.naiveSeconds, 4);
        w.member("accel_seconds", r.accelSeconds, 4);
        w.member("speedup", r.speedup, 2);
        w.member("identical", r.identical);
        w.key("stats").beginObject();
        w.member("naive_distances", r.naiveDistances);
        w.member("accel_distances", r.accelDistances);
        w.member("hamerly_skips", r.hamerlySkips);
        w.member("hamerly_fallbacks", r.hamerlyFallbacks);
        const u64 decisions = r.hamerlySkips + r.hamerlyFallbacks;
        w.member("hamerly_skip_rate",
                 decisions ? static_cast<double>(r.hamerlySkips) /
                                 static_cast<double>(decisions)
                           : 0.0,
                 4);
        w.endObject();
        w.endObject();
    }
    w.endArray();
}

/** Timing of the dedup digest build (hash-bound). */
struct DedupBenchResult
{
    std::size_t intervals = 0;
    std::size_t classes = 0;
    double buildSeconds = 0.0;   ///< best-of-reps wall clock
    double nsPerInterval = 0.0;
};

/**
 * Time the dedup digest build on a duplicate-heavy synthetic set
 * shaped like real phase behaviour: `phases` distinct vectors
 * emitted in runs of `runLen` (a loop-dominated phase produces the
 * same interval vector for a long stretch before the program moves
 * on), cycling until `intervals` rows exist.  This is the shape the
 * accelerated sweep is bound by.  Best of `reps` after one warmup.
 */
inline DedupBenchResult
benchDedupBuild(int reps, std::size_t intervals = 20000,
                std::size_t phases = 12, std::size_t nnz = 24,
                std::size_t runLen = 50)
{
    sp::FrequencyVectorSet fvs;
    fvs.dimension = static_cast<u32>(phases * nnz * 2);
    Rng rng(0xdedb);
    std::vector<sp::SparseVec> prototypes(phases);
    for (std::size_t p = 0; p < phases; ++p) {
        for (std::size_t e = 0; e < nnz; ++e)
            prototypes[p].emplace_back(
                static_cast<u32>(p * nnz * 2 + e * 2),
                rng.nextDouble(0.1, 10.0));
    }
    for (std::size_t i = 0; i < intervals; ++i)
        fvs.addInterval(prototypes[(i / runLen) % phases], 1000);
    fvs.normalize();

    using clock = std::chrono::steady_clock;
    DedupBenchResult result;
    result.intervals = intervals;
    sp::DedupMap map = fvs.dedup();
    double best = std::numeric_limits<double>::max();
    for (int rep = 0; rep < reps; ++rep) {
        const auto start = clock::now();
        map = fvs.dedup();
        best = std::min(
            best, std::chrono::duration<double>(clock::now() - start)
                      .count());
    }
    result.buildSeconds = best;
    result.classes = map.classes();
    result.nsPerInterval = result.buildSeconds * 1e9 /
                           static_cast<double>(intervals);
    return result;
}

/** Emit the dedup measurement as a JSON object value on `w`. */
inline void
writeDedupJson(JsonWriter& w, const DedupBenchResult& dedup)
{
    w.beginObject();
    w.member("intervals", dedup.intervals);
    w.member("classes", dedup.classes);
    w.member("build_seconds", dedup.buildSeconds, 6);
    w.member("ns_per_interval", dedup.nsPerInterval, 1);
    w.endObject();
}

} // namespace xbsp::bench

#endif // XBSP_BENCH_CLUSTERING_COMMON_HH
