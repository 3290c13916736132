/**
 * @file
 * Decoupled-frontend pipeline core (scarab-style): a branch-predictor
 * driven fetch unit runs ahead of the backend through a fetch-target
 * queue (FTQ), with the blocking memory stalls the detailed walk
 * reports behind the backend.
 *
 * Mapping onto the engine's event stream (there is no architectural
 * PC here, so blocks and markers *are* the control flow):
 *
 *  - **Next-block predictor (BTB + history).**  Each block event is a
 *    control transfer from the previous block.  The predictor is a
 *    direct-mapped table indexed by hash(previous block, global
 *    history) whose entry is the predicted successor block.  The
 *    global history register is updated by marker events (procedure
 *    entries, loop entries, loop back-branches) — the engine's
 *    control-flow edges — so a loop's steady-state iterations alias
 *    to one entry (predicted correctly after the first trip) while
 *    the exit path naturally mispredicts once, exactly the classic
 *    loop-exit mispredict.
 *  - **Mispredict.**  A wrong (or cold) prediction redirects the
 *    frontend: the FTQ is discarded (a flush, when it held anything),
 *    `mispredictPenalty` cycles are charged, and the entry is
 *    retrained to the observed successor.
 *  - **FTQ occupancy.**  The frontend delivers `fetchWidth`
 *    instructions per cycle into a queue of `ftqDepth` fetch groups;
 *    the backend consumes its block's instructions from the queue and
 *    stalls (fetch bubbles, at the fetch-width refill rate) when it
 *    runs dry — which is exactly the post-flush state.  Backend
 *    cycles (retire + memory stalls) credit the frontend with
 *    run-ahead fetch time.  The credit saturates additively at the
 *    queue's capacity, so crediting a block's stalls per reference,
 *    per batch or as one sum ends in the same state.
 *
 * Timing is a pure function of the event stream — deterministic at
 * any --jobs count — and all counters are monotonic, so the snapshot collectors gate it exactly
 * like the in-order model.
 */

#ifndef XBSP_CPU_DECOUPLED_HH
#define XBSP_CPU_DECOUPLED_HH

#include <vector>

#include "cpu/core.hh"

namespace xbsp::cpu
{

/** Staged pipeline with a decoupled branch-predictor front end. */
class DecoupledCore final : public Core
{
  public:
    /** Marker events train the global history register. */
    static constexpr bool usesMarkers = true;

    /** Fatal on out-of-range knobs. */
    explicit DecoupledCore(const CoreConfig& config);

    void
    onBlock(u32 blockId, u32 instrs)
    {
        stats.instructions += instrs;
        predict(blockId);

        // Backend consumption: the block's instructions must be in
        // the FTQ; a dry queue stalls retire at the fetch-width
        // refill rate (the flush/startup bubble).
        if (ftqInstrs < instrs) {
            const u64 missing = instrs - ftqInstrs;
            const u64 bubbles =
                (missing + cfg.fetchWidth - 1) / cfg.fetchWidth;
            stats.cycles += bubbles;
            stats.fetchBubbles += bubbles;
            ftqInstrs = 0;
        } else {
            ftqInstrs -= instrs;
        }

        // Retire at one instruction per cycle; the frontend fetches
        // ahead during those cycles.
        stats.cycles += instrs;
        credit(static_cast<u64>(instrs) * cfg.fetchWidth);
    }

    /**
     * `refs` references were serviced in `stall` cycles: blocking
     * memory, identical to the in-order model, during which the
     * frontend runs ahead.
     */
    void
    onStall(Cycles stall, u64 refs)
    {
        stats.cycles += stall;
        stats.memRefs += refs;
        credit(stall * cfg.fetchWidth);
    }

    void
    onMarker(u32 markerId)
    {
        history = (history << 3) ^
                  (static_cast<u64>(markerId) * 0x9E3779B97F4A7C15ull);
    }

  private:
    CoreConfig cfg;
    std::vector<u32> btb;  ///< predicted successor per indexed entry
    u32 indexMask = 0;     ///< (1 << predictorBits) - 1
    u64 ftqCap = 0;        ///< ftqDepth fetch groups, in instructions
    u64 ftqInstrs = 0;     ///< instructions buffered in the FTQ
    u64 history = 0;       ///< global marker history register
    u32 prevBlock = 0;
    bool havePrev = false;

    /** No successor recorded yet (cold entries always mispredict). */
    static constexpr u32 kNoTarget = 0xFFFFFFFFu;

    /** Check the prediction for the edge prevBlock -> blockId. */
    void
    predict(u32 blockId)
    {
        if (havePrev) {
            ++stats.branches;
            const u32 idx =
                (static_cast<u32>(prevBlock * 0x9E3779B9u) ^
                 static_cast<u32>(history)) &
                indexMask;
            if (btb[idx] != blockId) {
                ++stats.mispredicts;
                btb[idx] = blockId;
                if (ftqInstrs > 0)
                    ++stats.flushes;
                ftqInstrs = 0;
                stats.cycles += cfg.mispredictPenalty;
            }
        }
        prevBlock = blockId;
        havePrev = true;
    }

    /** Frontend run-ahead: `instrs` fetched into the bounded FTQ. */
    void
    credit(u64 instrs)
    {
        ftqInstrs = ftqInstrs + instrs < ftqCap ? ftqInstrs + instrs
                                                : ftqCap;
    }
};

} // namespace xbsp::cpu

#endif // XBSP_CPU_DECOUPLED_HH
