/**
 * @file
 * In-order core timing model in the CMP$im style: one cycle per
 * instruction plus the full latency of every data reference (a
 * blocking, non-overlapping memory model).  The seed backend of the
 * pluggable core layer, and the default everywhere — its timing math
 * is frozen so existing reports stay byte-identical.
 */

#ifndef XBSP_CPU_INORDER_HH
#define XBSP_CPU_INORDER_HH

#include "cpu/core.hh"

namespace xbsp::cpu
{

/** The blocking-memory timing model; blocks and stalls only. */
class InOrderCore final : public Core
{
  public:
    /** Marker events carry no information for this model. */
    static constexpr bool usesMarkers = false;

    void
    onBlock(u32 blockId, u32 instrs)
    {
        (void)blockId;
        stats.instructions += instrs;
        stats.cycles += instrs;
    }

    /** `refs` references were serviced in `stall` cycles. */
    void
    onStall(Cycles stall, u64 refs)
    {
        stats.cycles += stall;
        stats.memRefs += refs;
    }
};

} // namespace xbsp::cpu

#endif // XBSP_CPU_INORDER_HH
