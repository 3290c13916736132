/**
 * @file
 * Frequency-vector containers: the interface between profiling and
 * clustering.  Each interval of execution is represented by a sparse
 * basic-block vector (entry = block id, value = executions weighted
 * by block size) plus the interval's dynamic instruction length —
 * SimPoint 3.0's variable-length-interval input format.
 *
 * A set stores all of its intervals in one flat CSR block (see
 * DESIGN.md, "Frequency-vector layout"): row i's entries are
 * index[offsets[i] .. offsets[i + 1]) with the matching values, so a
 * profile of a million intervals is four allocations, not a million.
 */

#ifndef XBSP_SIMPOINT_FVEC_HH
#define XBSP_SIMPOINT_FVEC_HH

#include <span>
#include <utility>
#include <vector>

#include "util/types.hh"

namespace xbsp::sp
{

/**
 * Sparse vector as an owned list of (dimension index, value) pairs,
 * indices strictly rising: the input type of
 * FrequencyVectorSet::addInterval.
 */
using SparseVec = std::vector<std::pair<u32, double>>;

/**
 * Read-only view of one interval's sparse vector inside a
 * FrequencyVectorSet: parallel index and value spans, indices
 * strictly rising.  Valid until the set is next modified.
 */
struct SparseRow
{
    std::span<const u32> index;
    std::span<const double> value;

    std::size_t size() const { return index.size(); }
    bool empty() const { return index.empty(); }
};

/** Sum of all values in a sparse row, in entry order. */
double sparseSum(SparseRow row);

/**
 * Duplicate-interval classes over a frequency-vector set.
 *
 * Intervals whose sparse vectors are bitwise equal form one class.  The
 * class representative is the *lowest* original interval index, so a
 * representative's projected row is bit-identical to every member's
 * and any computation that depends only on the vector (distances,
 * nearest-centroid labels) can be done once per class and broadcast
 * to the members without changing a single bit of the result.
 */
struct DedupMap
{
    /** Class id per original interval. */
    std::vector<u32> classOf;

    /** Lowest original interval index per class. */
    std::vector<u32> firstOf;

    /** Number of duplicate classes (= unique vectors). */
    std::size_t classes() const { return firstOf.size(); }
};

/** A set of per-interval frequency vectors for one binary. */
struct FrequencyVectorSet
{
    /** Number of static dimensions (basic blocks in the binary). */
    u32 dimension = 0;

    /**
     * Row starts into `index`/`value`: empty while the set has no
     * rows, otherwise size() + 1 entries from 0 to index.size().
     */
    std::vector<u32> offsets;

    /** Dimension index of every entry, row after row. */
    std::vector<u32> index;

    /** Value of every entry, parallel to `index`. */
    std::vector<double> value;

    /** Dynamic instructions per interval (VLI weights). */
    std::vector<InstrCount> lengths;

    /** Number of intervals (survives releaseEntries()). */
    std::size_t size() const { return lengths.size(); }

    /** Number of sparse entries over all rows. */
    std::size_t entries() const { return index.size(); }

    /** Interval `i`'s sparse vector, in execution order. */
    SparseRow
    row(std::size_t i) const
    {
        const u32 begin = offsets[i];
        const u32 count = offsets[i + 1] - begin;
        return {{index.data() + begin, count},
                {value.data() + begin, count}};
    }

    /** Append one interval. */
    void addInterval(const SparseVec& vec, InstrCount length);

    /**
     * Append one entry to the open row; closeInterval() ends the row.
     * Collectors fill the block this way, with no per-interval
     * allocation.
     */
    void
    pushEntry(u32 idx, double val)
    {
        index.push_back(idx);
        value.push_back(val);
    }

    /**
     * End the open row as one interval of `length` instructions.
     * Panics unless the row's indices are strictly rising and below
     * `dimension` (the same checks addInterval makes).
     */
    void closeInterval(InstrCount length);

    /**
     * Done appending: drop spare capacity and add the set's rows and
     * entries to the `fvs.rows` / `fvs.entries` counters.  Collectors
     * and decoders call this once per set they build.
     */
    void seal();

    /**
     * Free the entries (`offsets`, `index`, `value`) once nothing
     * will read a row again; `dimension` and `lengths` stay, so
     * size() and totalInstructions() still answer.
     */
    void releaseEntries();

    /** Normalize every vector to sum 1 (SimPoint step 1). */
    void normalize();

    /** Total instructions across all intervals. */
    InstrCount totalInstructions() const;

    /**
     * Group intervals with bitwise-equal vectors into duplicate
     * classes, which keeps every computation over them exact.  Class
     * ids are assigned in order of first appearance, so `firstOf` is
     * strictly ascending.
     */
    DedupMap dedup() const;

    /** Same dimension, entries and lengths (values compared with ==). */
    bool operator==(const FrequencyVectorSet&) const = default;
};

} // namespace xbsp::sp

#endif // XBSP_SIMPOINT_FVEC_HH
