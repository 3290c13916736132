/**
 * @file
 * Pin-tool-style profilers: execution counts for every marker
 * (procedure entries, loop entries, loop branches — the paper's call
 * and branch profile, §3.2.1) and fixed-length-interval basic-block
 * vectors (the classic per-binary SimPoint input, §2).
 */

#ifndef XBSP_PROFILE_PROFILE_HH
#define XBSP_PROFILE_PROFILE_HH

#include <vector>

#include "binary/binary.hh"
#include "exec/engine.hh"
#include "simpoint/fvec.hh"
#include "util/serial.hh"

namespace xbsp::prof
{

/** Per-marker dynamic execution counts for one binary/input. */
struct MarkerProfile
{
    std::vector<u64> counts;  ///< indexed by marker id
    InstrCount totalInstructions = 0;
};

/** Observer that fills a MarkerProfile (subscribe: markers). */
class MarkerProfiler final : public exec::Observer
{
  public:
    explicit MarkerProfiler(const bin::Binary& binary);

    exec::ObserverHooks
    hooks() const override
    {
        return {false, false, true};
    }

    void onMarker(u32 markerId) override { ++profile.counts[markerId]; }

    /** Counting is all it does: every trip is quiet. */
    u64
    quietTrips(const exec::Summary&, u64 maxTrips,
               const exec::ObserverHooks&) const override
    {
        return maxTrips;
    }

    void onBulk(const exec::Summary& trip, u64 trips,
                const exec::ObserverHooks& streams) override;

    /** Record the final instruction count at run end. */
    void finish(InstrCount totalInstrs);

    const MarkerProfile& result() const { return profile; }

  private:
    MarkerProfile profile;
};

/**
 * Incremental sparse BBV accumulator: dense scratch plus a touched
 * list so flushing an interval is O(distinct blocks).
 */
class BbvAccumulator
{
  public:
    explicit BbvAccumulator(u32 dimension);

    /** Credit `value` (instructions executed) to dimension `block`. */
    void add(u32 block, double value);

    /**
     * Credit the instructions of `trips` repetitions of `trip`, one
     * add per block.  Exact: every sum is an integer below 2^53.
     */
    void addTrips(const bin::Binary& binary, const exec::Summary& trip,
                  u64 trips);

    /**
     * Append the accumulated vector to `fvs` as one interval of
     * `length` instructions, entries in block order, and reset.
     */
    void flushInto(sp::FrequencyVectorSet& fvs, InstrCount length);

    /** True when nothing has been accumulated since the last flush. */
    bool empty() const { return touched.empty(); }

  private:
    std::vector<double> dense;
    std::vector<u32> touched;
};

/**
 * Fixed-length-interval BBV collector (subscribe: blocks).  Intervals
 * close at the first block boundary at or after each multiple of the
 * target size, using the engine's canonical instruction counter, so
 * every collector and snapshot gate in any run of the same binary
 * agrees on the boundaries.  The trailing partial interval is kept
 * (with its true, shorter length).
 */
class FliBbvCollector final : public exec::Observer
{
  public:
    FliBbvCollector(const exec::Engine& engine, InstrCount targetSize);

    exec::ObserverHooks
    hooks() const override
    {
        return {true, false, false};
    }

    void onBlock(u32 blockId, u32 instrs) override;
    void onRunEnd() override;

    /** Trips that end before the open interval reaches the target. */
    u64 quietTrips(const exec::Summary& trip, u64 maxTrips,
                   const exec::ObserverHooks& streams) const override;
    void onBulk(const exec::Summary& trip, u64 trips,
                const exec::ObserverHooks& streams) override;

    /**
     * Move the per-interval BBVs (with instruction lengths) out,
     * sealed (see FrequencyVectorSet::seal).
     */
    sp::FrequencyVectorSet takeIntervals();

    /**
     * Cumulative instruction count at the end of each interval
     * (the FLI boundary positions used by the snapshot gates).
     */
    const std::vector<InstrCount>& boundaries() const { return ends; }

  private:
    const exec::Engine& engine;
    const InstrCount target;
    BbvAccumulator accum;
    sp::FrequencyVectorSet fvs;
    std::vector<InstrCount> ends;
    InstrCount intervalStart = 0;
};

/**
 * Run one profiling pass (no timing model) over a binary, collecting
 * the marker profile and FLI BBVs together.
 */
struct ProfilePass
{
    MarkerProfile markers;
    sp::FrequencyVectorSet fliIntervals;
    std::vector<InstrCount> fliBoundaries;
    InstrCount totalInstructions = 0;
};

ProfilePass runProfilePass(const bin::Binary& binary,
                           InstrCount fliTarget,
                           u64 seed = 0x5EEDull);

/**
 * runProfilePass memoized under `key`, which must be
 * profilePassKey(binary, fliTarget, seed): a caller that needs the
 * key anyway passes it, so the binary is hashed once.  The overload
 * above builds the key and forwards here.
 */
ProfilePass runProfilePass(const bin::Binary& binary,
                           InstrCount fliTarget, u64 seed,
                           const serial::Hash128& key);

/**
 * Artifact-store key of one profile pass — the exact key
 * runProfilePass memoizes under (artifact type ProfilePassCodec).
 * Exposed so the pipeline scheduler can probe whether a profile
 * stage is already cached.
 */
serial::Hash128 profilePassKey(const bin::Binary& binary,
                               InstrCount fliTarget,
                               u64 seed = 0x5EEDull);

} // namespace xbsp::prof

#endif // XBSP_PROFILE_PROFILE_HH
