/**
 * @file
 * Deterministic per-block memory address stream generators.
 *
 * Each machine basic block owns one AddressGenerator seeded from the
 * block id and the engine seed, so every run of the same binary
 * produces bit-identical address streams — a prerequisite for
 * comparing sampled statistics against full-run statistics.
 */

#ifndef XBSP_MEM_PATTERN_HH
#define XBSP_MEM_PATTERN_HH

#include "ir/program.hh"
#include "util/rng.hh"
#include "util/types.hh"

namespace xbsp::mem
{

/** Cache-line granularity used by all non-strided patterns. */
inline constexpr u64 lineBytes = 64;

/** Base address of a logical data region (4 GiB apart). */
Addr regionBase(u32 regionId);

/** Base address of a procedure's stack frame window. */
inline Addr
stackBase(u32 procId)
{
    // High half of the address space, one 4 GiB window per procedure.
    return (1ull << 63) | (static_cast<Addr>(procId) << 32);
}

/** One memory reference: address plus load/store direction. */
struct MemRef
{
    Addr addr = 0;
    bool isWrite = false;
};

/**
 * The stack-spill window of a procedure: 64 slots of 8 bytes from
 * stackBase(procId).  Each block keeps a running spill count, its
 * cursor; spill reference number `cursor` goes to slot
 * `cursor & 63`, and odd slots are stores, even slots loads.  The
 * engine's materialized batches and the hierarchy's stack runs both
 * read the window through stackRef().
 */
inline constexpr u32 stackSlots = 64;
inline constexpr u32 stackSlotBytes = 8;

/** The spill reference at running count `cursor` of a window. */
inline MemRef
stackRef(Addr base, u32 cursor)
{
    return {base + static_cast<Addr>(cursor & (stackSlots - 1)) *
                       stackSlotBytes,
            (cursor & 1u) != 0};
}

/**
 * Stateful generator producing the reference stream of one block
 * according to its ir::MemPattern (with the footprint already scaled
 * by the compiler).
 */
class AddressGenerator
{
  public:
    /** Construct for a pattern; `seed` decorrelates block streams. */
    AddressGenerator(const ir::MemPattern& pattern, u64 seed);

    /**
     * Mark the start of one execution of the owning block.  Advances
     * the semantic execution counter that drives behaviour drift
     * (see ir::MemPattern::driftPeriod).
     */
    void beginBlock();

    /** Produce the next reference. */
    MemRef next();

    /**
     * Produce the next `n` references into `out`, bit-identical to
     * `n` successive next() calls (same RNG draws, same write-
     * fraction accumulation, in the same order) but with the pattern
     * switch hoisted out of the loop — the engine fills a block's
     * whole reference stream in one call.
     */
    void nextBatch(u32 n, MemRef* out);

    /** Number of distinct cache lines this generator can touch. */
    u64 footprintLines() const;

  private:
    ir::MemPatternKind kind;
    Addr base = 0;
    u64 stride = lineBytes;
    u64 slots = 1;       ///< stride positions or lines in the set
    u64 hotSlots = 1;    ///< Gather: size of the hot subset
    u64 chaseMask = 0;   ///< PointerChase: slots - 1 (power of two)
    u64 cursor = 0;
    double writeFraction = 0.0;
    double hotFraction = 1.0;
    double writeAccum = 0.0;
    Rng rng;

    // Drift state (see ir::MemPattern): effective sizes recomputed
    // once per driftPeriod block executions.
    u32 driftPeriod = 0;
    double driftAmp = 0.0;
    u64 execIndex = 0;
    u64 effSlots = 1;
    u64 effHotSlots = 1;
    u64 effChaseMask = 0;
    double effHotFraction = 1.0;
    // Prepared draws against the effective bounds (bit-identical to
    // rng.nextBelow but divider-free); rebuilt only when drift
    // changes the bounds, so the per-reference loops never divide.
    BoundedBelow slotDraw{1};
    BoundedBelow hotDraw{1};

    bool drawWrite();
    void applyDriftLevel();
    void rebuildDraws();
};

/** Round up to the next power of two (minimum 1). */
u64 ceilPow2(u64 v);

} // namespace xbsp::mem

#endif // XBSP_MEM_PATTERN_HH
