/**
 * @file
 * In-order core timing model in the CMP$im style: one cycle per
 * instruction plus the full memory-hierarchy latency of every data
 * reference (a blocking, non-overlapping memory model).  The seed
 * backend of the pluggable core layer, and the default everywhere —
 * its timing math is frozen so existing reports stay byte-identical.
 */

#ifndef XBSP_CPU_INORDER_HH
#define XBSP_CPU_INORDER_HH

#include "cpu/core.hh"

namespace xbsp::cpu
{

/** The blocking-memory timing model; blocks + memRefs hooks only. */
class InOrderCore final : public Core
{
  public:
    /** Marker events carry no information for this model. */
    static constexpr bool usesMarkers = false;

    /** The hierarchy is shared and not owned. */
    explicit InOrderCore(cache::Hierarchy& hierarchy);

    exec::ObserverHooks
    hooks() const override
    {
        return {true, true, false};
    }

    void
    onBlock(u32 blockId, u32 instrs) override
    {
        (void)blockId;
        stats.instructions += instrs;
        stats.cycles += instrs;
    }

    void
    onMemRef(Addr addr, bool isWrite) override
    {
        const cache::HitLevel level = hier.access(addr, isWrite);
        stats.cycles += hier.latency(level);
        ++stats.memRefs;
    }

    void
    onMemRefs(std::span<const mem::MemRef> refs) override
    {
        stats.cycles += hier.accessBatch(refs);
        stats.memRefs += refs.size();
    }

    /** A block's stack spills as one run (exec::StackRunSink). */
    void
    onStackRun(Addr base, u32 cursor, u32 n)
    {
        stats.cycles += hier.accessStackRun(base, cursor, n);
        stats.memRefs += n;
    }
};

} // namespace xbsp::cpu

#endif // XBSP_CPU_INORDER_HH
