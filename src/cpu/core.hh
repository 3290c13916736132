/**
 * @file
 * The pluggable CPU-backend layer: a timing core that turns the
 * events of a run into cycles.
 *
 * A core sees the control flow (block and, when its model uses them,
 * marker events) and the stall cycles of each block's memory
 * references; it never sees an address.  The detailed walk
 * (sim/walk.hh) owns the cache::Hierarchy, services every reference
 * there and hands the core one onStall(cycles, refs) per serviced
 * batch or stack run.  The contract every backend must obey:
 *
 *  - **Counters are monotonic.**  cycles() and instructions() only
 *    ever grow during a run; snapshot collectors read them at
 *    interval boundaries (block/marker events) and difference them,
 *    so a backend may never retro-charge cycles to an earlier
 *    interval.
 *  - **Timing is a pure function of the event stream.**  The engine
 *    delivers the identical stream at any --jobs count, so a
 *    conforming core is bit-identical across worker counts by
 *    construction.  No wall-clock, no
 *    unseeded randomness, no iteration over unordered containers.
 *  - **Stalls compose.**  A core must end in the same state whether
 *    a block's stalls arrive per reference, per batch or as one sum,
 *    so the walk may group references as it likes.
 *  - **The configuration is part of the result's identity.**  Every
 *    CoreConfig field is hashed into detailedRunKey and the study
 *    config digest (see sim/serial): a core is a *model* knob that
 *    changes results.
 *
 * Backends:
 *  - InOrderCore (cpu/inorder.hh): one cycle per instruction plus
 *    every stall cycle in full — the CMP$im-style seed model.
 *  - DecoupledCore (cpu/decoupled.hh): a staged pipeline with a
 *    decoupled branch-predictor front end (BTB + history predictor,
 *    fetch-target queue, mispredict flush penalty) whose fetch runs
 *    ahead during stalls.
 */

#ifndef XBSP_CPU_CORE_HH
#define XBSP_CPU_CORE_HH

#include <optional>
#include <string_view>

#include "util/types.hh"

namespace xbsp::cpu
{

/** Aggregate performance counters of one (partial) execution. */
struct CoreStats
{
    InstrCount instructions = 0;
    Cycles cycles = 0;
    u64 memRefs = 0;

    /** Frontend counters; the in-order model leaves them zero. */
    u64 branches = 0;      ///< block transitions seen by the predictor
    u64 mispredicts = 0;   ///< wrong next-block predictions
    u64 flushes = 0;       ///< mispredicts that discarded FTQ contents
    u64 fetchBubbles = 0;  ///< cycles the backend starved for fetch

    bool operator==(const CoreStats&) const = default;

    /** Cycles per instruction; 0 when nothing executed. */
    double
    cpi() const
    {
        return instructions ? static_cast<double>(cycles) /
                                  static_cast<double>(instructions)
                            : 0.0;
    }
};

/** Which timing backend models the machine. */
enum class CoreKind : u32
{
    InOrder = 0,
    Decoupled = 1
};

/**
 * Full parameterization of a core.  Every field is hashed into store
 * keys and travels bit-exactly over the dist wire; the default value
 * (an in-order core) keeps all pre-existing reports byte-identical.
 * The frontend knobs only apply to CoreKind::Decoupled.
 */
struct CoreConfig
{
    CoreKind kind = CoreKind::InOrder;

    /** Instructions the frontend can fetch per cycle. */
    u32 fetchWidth = 4;

    /** Fetch-target-queue depth, in fetch groups (of fetchWidth). */
    u32 ftqDepth = 16;

    /** log2 of the BTB/direction-predictor table size. */
    u32 predictorBits = 12;

    /** Cycles lost redirecting the frontend on a mispredict. */
    u32 mispredictPenalty = 12;

    bool operator==(const CoreConfig&) const = default;
};

/**
 * Timing core base: the performance counters.  Backends add the
 * event handlers onBlock(blockId, instrs) and onStall(stall, refs)
 * (and onMarker when they set usesMarkers); the walk calls them on
 * the concrete type, and snapshot collectors read the counters
 * through this base without dispatch.
 */
class Core
{
  public:
    /** Running counters (monotonic over the whole run). */
    Cycles cycles() const { return stats.cycles; }
    InstrCount instructions() const { return stats.instructions; }
    const CoreStats& totals() const { return stats; }

    /**
     * Fold this run's counters into the cpu.* registry series (one
     * atomic add per stat, the Engine::flushStats pattern), so live
     * exposition and `xbsp top` see fetch bubbles, mispredicts and
     * flushes.  Call once, after the run.
     */
    void flushStats() const;

  protected:
    CoreStats stats;
};

/** Display name: "inorder" / "decoupled". */
std::string_view coreKindName(CoreKind kind);

/** Parse a kind name; nullopt (not fatal) on unknown input. */
std::optional<CoreKind> parseCoreKind(std::string_view name);

/**
 * True when `name` parses as a core kind, with a warning otherwise.
 * Stateless: it selects nothing.  Kept only because the benchmark
 * harness still pins `selectCore("inorder")`; the CLI and the bench
 * binaries carry the core in StudyConfig::core instead.
 */
bool selectCore(std::string_view name);

/** A CoreConfig with default knobs and the given kind. */
CoreConfig coreConfigFor(CoreKind kind);

} // namespace xbsp::cpu

#endif // XBSP_CPU_CORE_HH
