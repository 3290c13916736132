/**
 * @file
 * Variable-length-interval construction over mappable points (paper
 * §3.2.3) and cross-binary boundary tracking (§3.2.5).
 *
 * Execution of the *primary* binary is split into intervals of at
 * least the target size: once the target is reached, the interval
 * closes at the next mappable-point firing, recorded as a
 * (point index, cumulative firing count) pair.  Because mappable
 * points fire the same number of times in the same semantic order in
 * every binary, the same boundary list identifies the same partition
 * of execution in all of them — that is the whole trick.
 */

#ifndef XBSP_CORE_VLI_HH
#define XBSP_CORE_VLI_HH

#include <functional>
#include <vector>

#include "core/mappable.hh"
#include "exec/engine.hh"
#include "simpoint/fvec.hh"
#include "util/serial.hh"

namespace xbsp::core
{

/** One interval boundary: the fireCount-th firing of a point. */
struct Boundary
{
    u32 pointIdx = invalidId;
    u64 fireCount = 0;  ///< cumulative, 1-based

    bool operator==(const Boundary&) const = default;
};

/** An ordered list of interior boundaries (n-1 for n intervals). */
struct VliPartition
{
    std::vector<Boundary> boundaries;

    std::size_t
    intervalCount() const
    {
        return boundaries.size() + 1;
    }
};

/**
 * Observer that builds the VLI partition and per-interval BBVs while
 * the primary binary runs (subscribe: blocks + markers).
 */
class VliBbvCollector : public exec::Observer
{
  public:
    VliBbvCollector(const exec::Engine& engine,
                    const MappableSet& mappable, std::size_t binaryIdx,
                    InstrCount targetSize);

    exec::ObserverHooks
    hooks() const override
    {
        return {true, false, true};
    }

    void onBlock(u32 blockId, u32 instrs) override;
    void onMarker(u32 markerId) override;
    void onRunEnd() override;

    /**
     * Every trip without a mappable marker of this binary; otherwise
     * the trips that end before the open interval reaches the target.
     */
    u64 quietTrips(const exec::Summary& trip, u64 maxTrips,
                   const exec::ObserverHooks& streams) const override;
    void onBulk(const exec::Summary& trip, u64 trips,
                const exec::ObserverHooks& streams) override;

    /**
     * Move the per-interval BBVs (with true VLI lengths) out, sealed
     * (see FrequencyVectorSet::seal).
     */
    sp::FrequencyVectorSet takeIntervals();

    /** The boundary list, mappable to every other binary. */
    const VliPartition& partition() const { return part; }

  private:
    const exec::Engine& engine;
    const MappableSet& mappable;
    const std::size_t binaryIdx;
    const InstrCount target;
    std::vector<u64> fireCounts;  ///< per mappable point
    prof::BbvAccumulator accum;
    sp::FrequencyVectorSet fvs;
    VliPartition part;
    InstrCount intervalStart = 0;

    void closeInterval(InstrCount now);
};

/** Result of building VLIs on the primary binary. */
struct VliBuild
{
    VliPartition partition;
    sp::FrequencyVectorSet intervals;
    InstrCount totalInstructions = 0;
};

/** Run the primary binary once and build its VLI partition + BBVs. */
VliBuild buildVliPartition(const bin::Binary& primary,
                           const MappableSet& mappable,
                           std::size_t primaryIdx,
                           InstrCount targetSize,
                           u64 seed = 0x5EEDull);

/**
 * buildVliPartition memoized under `key`, which must be
 * vliBuildKey(primary, mappable, primaryIdx, targetSize, seed), for a
 * caller that built the key already.  The overload above builds the
 * key and forwards here.
 */
VliBuild buildVliPartition(const bin::Binary& primary,
                           const MappableSet& mappable,
                           std::size_t primaryIdx, InstrCount targetSize,
                           u64 seed, const serial::Hash128& key);

/**
 * Artifact-store key of one VLI build — the exact key
 * buildVliPartition memoizes under (artifact type VliBuildCodec).
 * Exposed so the pipeline scheduler can probe whether a VLI stage is
 * already cached.
 */
serial::Hash128 vliBuildKey(const bin::Binary& primary,
                            const MappableSet& mappable,
                            std::size_t primaryIdx,
                            InstrCount targetSize,
                            u64 seed = 0x5EEDull);

/**
 * Observer that replays a boundary list in *any* binary of the set
 * (subscribe: markers).  It fires `onBoundary(i)` exactly when the
 * i-th boundary's (point, count) event occurs, and panics if the
 * semantic-order invariant is violated (a point fires past its
 * expected count) — which would mean the binaries do not actually
 * execute the mappable points in the same order.
 */
class BoundaryTracker : public exec::Observer
{
  public:
    using Callback = std::function<void(std::size_t boundaryIdx)>;

    BoundaryTracker(const MappableSet& mappable, std::size_t binaryIdx,
                    const VliPartition& partition, Callback onBoundary);

    exec::ObserverHooks
    hooks() const override
    {
        return {false, false, true};
    }

    void onMarker(u32 markerId) override;

    /**
     * Every trip once finished or when the trip never fires the next
     * boundary's point; otherwise the trips that leave that point
     * short of the boundary's firing.
     */
    u64 quietTrips(const exec::Summary& trip, u64 maxTrips,
                   const exec::ObserverHooks& streams) const override;
    void onBulk(const exec::Summary& trip, u64 trips,
                const exec::ObserverHooks& streams) override;

    /** True when every boundary has been crossed. */
    bool finished() const { return next == part.boundaries.size(); }

    /** Boundaries crossed so far. */
    std::size_t crossed() const { return next; }

  private:
    const MappableSet& mappable;
    const std::size_t binaryIdx;
    const VliPartition& part;
    Callback callback;
    std::vector<u64> fireCounts;
    std::size_t next = 0;
};

} // namespace xbsp::core

#endif // XBSP_CORE_VLI_HH
