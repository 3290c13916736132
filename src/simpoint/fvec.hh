/**
 * @file
 * Frequency-vector containers: the interface between profiling and
 * clustering.  Each interval of execution is represented by a sparse
 * basic-block vector (entry = block id, value = executions weighted
 * by block size) plus the interval's dynamic instruction length —
 * SimPoint 3.0's variable-length-interval input format.
 *
 * A set stores each distinct row once, in one flat CSR block (see
 * DESIGN.md, "Frequency-vector layout"), and maps every interval to
 * its stored row: a profile of a million intervals that repeats a few
 * thousand vectors holds a few thousand rows.
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
 * A set of per-interval frequency vectors for one binary.
 *
 * Rows are interned as they are closed: an interval whose vector is
 * bitwise equal to one already stored records that row's id in
 * `rowOf` and stores nothing else.  Interval i's vector is
 * storedRow(rowOf[i]); stored rows are numbered in order of first
 * appearance.  So `rowOf` is the set's duplicate-class map: two
 * intervals share a stored row exactly when their vectors are
 * bitwise equal, and storedRows() counts the classes.
 */
struct FrequencyVectorSet
{
    /** Number of static dimensions (basic blocks in the binary). */
    u32 dimension = 0;

    /** Stored row of every interval. */
    std::vector<u32> rowOf;

    /**
     * Stored-row starts into `index`/`value`: empty while the set has
     * no rows, otherwise storedRows() + 1 entries from 0 up.
     */
    std::vector<u32> offsets;

    /**
     * Dimension index of every stored entry, row after row, then the
     * open row's entries (pushEntry()).
     */
    std::vector<u32> index;

    /** Value of every entry, parallel to `index`. */
    std::vector<double> value;

    /** Dynamic instructions per interval (VLI weights). */
    std::vector<InstrCount> lengths;

    /** Number of intervals (survives releaseEntries()). */
    std::size_t size() const { return lengths.size(); }

    /** Number of distinct rows stored. */
    std::size_t
    storedRows() const
    {
        return offsets.empty() ? 0 : offsets.size() - 1;
    }

    /** Number of sparse entries over the stored rows. */
    std::size_t
    storedEntries() const
    {
        return offsets.empty() ? 0 : offsets.back();
    }

    /** Number of sparse entries over all intervals' rows. */
    std::size_t entries() const;

    /** Stored row `r`. */
    SparseRow
    storedRow(std::size_t r) const
    {
        const u32 begin = offsets[r];
        const u32 count = offsets[r + 1] - begin;
        return {{index.data() + begin, count},
                {value.data() + begin, count}};
    }

    /** Interval `i`'s sparse vector, in execution order. */
    SparseRow row(std::size_t i) const { return storedRow(rowOf[i]); }

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
     * End the open row as one interval of `length` instructions:
     * closeRow(), then record the length.
     */
    void closeInterval(InstrCount length);

    /**
     * End the open row as the next interval's vector, without its
     * length (a decoder that reads lengths after every row appends
     * them to `lengths` itself).  Panics unless the row's indices are
     * strictly rising and below `dimension` (the checks addInterval
     * makes).  A row bitwise equal to the previous interval's, or to
     * any stored row, is dropped and that row's id recorded.
     */
    void closeRow();

    /**
     * Done appending: drop spare capacity and the intern index, and
     * add the set to the `fvs.rows` / `fvs.entries` counters (every
     * interval) and `fvs.rows.stored` / `fvs.entries.stored` (the
     * distinct rows).  Collectors and decoders call this once per set
     * they build.
     */
    void seal();

    /**
     * Free the rows (`rowOf`, `offsets`, `index`, `value`) once
     * nothing will read one again; `dimension` and `lengths` stay, so
     * size() and totalInstructions() still answer.
     */
    void releaseEntries();

    /**
     * Normalize every vector to sum 1 (SimPoint step 1): each stored
     * row is divided by its sum once (a zero-sum row stays as it is),
     * then interned again, so a row that divided to the bits of an
     * earlier stored row (proportional counts) folds into it.  The
     * surviving rows keep their first-appearance order.
     */
    void normalize();

    /** Total instructions across all intervals. */
    InstrCount totalInstructions() const;

    /**
     * Same dimension, lengths and interval vectors (values compared
     * with ==), however the rows are stored.
     */
    bool operator==(const FrequencyVectorSet& other) const;

  private:
    /**
     * Open-addressed index of the stored rows while rows are
     * appended: `slots` (a power of two, at most half full) holds
     * stored-row ids by row hash, `hashes` each stored row's hash.
     * A hash match is only a candidate; closeRow() compares the rows.
     * Rebuilt when it does not cover every stored row (after seal()
     * or normalize()).
     */
    struct InternIndex
    {
        std::vector<u32> slots;
        std::vector<u64> hashes;
    };
    InternIndex intern;

    /** The stored row bitwise equal to `open` (hash `h`), or none. */
    u32 findStored(SparseRow open, u64 h) const;

    /** Add the last stored row, whose hash is `h`, to the index. */
    void indexStored(u64 h);
};

} // namespace xbsp::sp

#endif // XBSP_SIMPOINT_FVEC_HH
