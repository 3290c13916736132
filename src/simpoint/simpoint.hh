/**
 * @file
 * The SimPoint 3.0 driver: given per-interval frequency vectors,
 * normalize, project, cluster for k = 1..maxK (multiple seeds per k),
 * score with BIC, pick the smallest k whose normalized BIC clears the
 * threshold, and select one simulation point (interval closest to the
 * centroid) plus an instruction weight per phase.
 */

#ifndef XBSP_SIMPOINT_SIMPOINT_HH
#define XBSP_SIMPOINT_SIMPOINT_HH

#include <vector>

#include "simpoint/bic.hh"
#include "simpoint/fvec.hh"
#include "simpoint/kmeans.hh"
#include "util/serial.hh"

namespace xbsp::sp
{

/** Configuration mirroring SimPoint 3.0's main knobs. */
struct SimPointOptions
{
    u32 maxK = 10;           ///< the paper's cluster cap
    u32 projectedDims = 15;  ///< SimPoint default
    u32 seedsPerK = 5;       ///< k-means restarts per k
    double bicThreshold = 0.9;
    u64 seed = 42;
    InitMethod init = InitMethod::KMeansPlusPlus;
    u32 maxIterations = 100;

    /**
     * Early simulation points (Perelman et al., PACT 2003 — the
     * paper's reference [13]): prefer the *earliest* acceptable
     * interval of each phase instead of the most central one, so
     * fast-forwarding to the simulation points is cheap.  An interval
     * is acceptable when its distance to the centroid is within
     * earlyTolerance x the cluster's mean distance of the best.
     */
    bool earlyPoints = false;
    double earlyTolerance = 0.3;

    /**
     * Exact acceleration of the whole BIC sweep (see DESIGN.md,
     * "Clustering acceleration"): duplicate-interval coalescing
     * feeding projection and the E-step, Hamerly-bounded k-means,
     * and the (k, seed) restart sweep fanned out on the global
     * thread pool.  The result is bit-identical to the naive path
     * at any thread count; disable only to measure the naive
     * baseline (bench_micro_clustering) or to cross-check it
     * (tests/test_clustering_equiv.cc).
     */
    bool accelerate = true;

    /**
     * Duplicate-merge tolerance: 0 (default) merges only intervals
     * whose normalized vectors are bitwise equal, which keeps the
     * acceleration exact.  A positive value also merges vectors
     * equal after rounding values to multiples of the quantum —
     * faster on noisy data, but approximate (each merged interval
     * is clustered as its class representative).
     */
    double dedupQuantum = 0.0;
};

/** One phase: its members, representative and execution weight. */
struct Phase
{
    u32 id = 0;
    u32 representative = 0;      ///< interval index (simulation point)
    double weight = 0.0;         ///< fraction of executed instructions
    std::vector<u32> members;    ///< interval indices, ascending
};

/** Full output of a SimPoint analysis over one interval set. */
struct SimPointResult
{
    u32 k = 0;                   ///< chosen number of phases
    std::vector<u32> labels;     ///< phase id per interval
    std::vector<Phase> phases;   ///< non-empty phases, by id
    double chosenBic = 0.0;
    std::vector<double> bicByK;  ///< raw BIC for k = 1..maxK
};

/**
 * Run the full pipeline.  The input vectors are copied and
 * normalized internally; `fvs.lengths` provides the VLI weights (use
 * equal lengths for FLI).
 */
SimPointResult pickSimulationPoints(const FrequencyVectorSet& fvs,
                                    const SimPointOptions& options);

/**
 * Consuming overload: takes ownership of `fvs` (left empty), so no
 * deep copy is made and its entries are freed as soon as projection
 * has read them.  Use when the caller is done with the vector set.
 */
SimPointResult pickSimulationPoints(FrequencyVectorSet&& fvs,
                                    const SimPointOptions& options);

/**
 * Artifact-store key of one clustering run — the exact key
 * pickSimulationPoints memoizes under (artifact type SimPointCodec).
 * Hashed over the *raw* (pre-normalization) vectors, which is what
 * both overloads receive.  Exposed so the pipeline scheduler can
 * probe whether a clustering stage is already cached.
 */
serial::Hash128 simPointKey(const FrequencyVectorSet& fvs,
                            const SimPointOptions& options);

} // namespace xbsp::sp

#endif // XBSP_SIMPOINT_SIMPOINT_HH
