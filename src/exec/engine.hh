/**
 * @file
 * Deterministic execution engine with a Pin-like event interface.
 *
 * The engine executes a bin::Binary: procedure entries, loop entries
 * and loop back-branches fire marker events; basic blocks fire block
 * events and generate their memory reference streams.  Every run
 * drives one *Sink*: the profilers, the VLI builder, the boundary
 * replay and the timed walk are all sinks, and the run loop, which
 * walks the statement tree with an explicit frame stack (see
 * DESIGN.md, "Engine run loop"), is a template over the sink's type,
 * so each run's hot path compiles into one devirtualized loop:
 *
 *     struct MySink {
 *         bool wantsBlocks() const;
 *         bool wantsMems() const;
 *         bool wantsMarkers() const;
 *         void onBlock(u32 blockId, u32 instrs);
 *         void onMemRefs(std::span<const mem::MemRef> refs);
 *         void onMarker(u32 markerId);
 *         void onRunEnd();
 *         // Optional, detected with `requires` (see SkippingSink):
 *         u64 quietTrips(const Summary& trip, u64 maxTrips);
 *         void onBulk(const Summary& trip, u64 trips);
 *         // Optional, detected with `requires` (see StackRunSink):
 *         void onStackRun(Addr base, u32 cursor, u32 n);
 *     };
 *
 * The engine dispatches only the event kinds the sink wants.  A run
 * with several consumers (the profile pass's marker profiler and BBV
 * collector, the timed walk's core and snapshot collectors) has one
 * sink that forwards to each in a fixed order.  SinkBase supplies
 * no-op handlers for the events a sink ignores.
 *
 * Stack runs: a block's references are its pattern references and
 * then its stack spills, a closed-form walk over the procedure's
 * stack window (mem::stackRef).  A sink with onStackRun gets the
 * pattern references as one onMemRefs() batch and then the spills
 * as one run, (window base, first cursor, count), never
 * materialized; every other sink gets both as one batch.
 *
 * Skip-ahead: a sink that wants no memory references and has the two
 * optional members is asked, at the start of every loop trip and at
 * every call, how many whole trips are *quiet* — trips in which no
 * event can make it do anything beyond counting it.  The engine then
 * applies those trips in one step from the trip's static Summary
 * (counters first, then onBulk) instead of walking them.  A quiet
 * trip never contains an event that changes what the sink does next,
 * so it ends up in exactly the state the per-event walk leaves
 * (DESIGN.md, "Engine run loop").
 *
 * Event ordering contract (relied upon by the snapshot collectors):
 *  - the engine's instruction counter is updated *before* the block
 *    event is dispatched, so the sink sees the post-block count;
 *  - a block's memory-reference events are dispatched before its
 *    block event, so the timing core is fully up to date when
 *    boundary collectors cut an interval at a block event;
 *  - memory references are delivered as one onMemRefs() batch per
 *    block execution, in issue order (for a StackRunSink: the
 *    pattern batch, then one stack run), and never interleave with
 *    block or marker events;
 *  - a procedure's entry marker fires before its body, a loop's entry
 *    marker before its first iteration, and the back-branch marker
 *    after each iteration's body and control block.
 */

#ifndef XBSP_EXEC_ENGINE_HH
#define XBSP_EXEC_ENGINE_HH

#include <algorithm>
#include <concepts>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "binary/binary.hh"
#include "mem/pattern.hh"
#include "obs/trace.hh"
#include "util/logging.hh"
#include "util/types.hh"

namespace xbsp::exec
{

/**
 * The event kinds of an Engine::addObserver registration (the
 * xbspbench shim); a sink states its own with wants*().
 */
struct ObserverHooks
{
    bool blocks = false;
    bool memRefs = false;
    bool markers = false;
};

/** One (block or marker id, dynamic count) entry of a Summary. */
struct IdCount
{
    u32 id = 0;
    u64 count = 0;
};

/**
 * The events of one loop trip (body, branch block, branch marker) or
 * one procedure call (entry marker, body).  Control flow is static,
 * so every trip of a loop and every call of a procedure executes
 * exactly these events; only their order is dropped.
 */
struct Summary
{
    InstrCount instrs = 0;              ///< instructions executed
    u64 blocks = 0;                     ///< block executions
    u64 markers = 0;                    ///< marker firings
    std::vector<IdCount> blockCounts;   ///< sorted by block id
    std::vector<IdCount> markerCounts;  ///< sorted by marker id
};

/**
 * No-op handlers for the events a sink does not take.  Non-virtual:
 * a sink derives from it and declares the handlers it needs, which
 * hide these.
 */
struct SinkBase
{
    void onBlock(u32, u32) {}
    void onMemRefs(std::span<const mem::MemRef>) {}
    void onMarker(u32) {}
    void onRunEnd() {}
};

/** A sink with the optional skip-ahead members. */
template <typename Sink>
concept SkippingSink = requires(Sink& sink, const Summary& trip, u64 n) {
    { sink.quietTrips(trip, n) } -> std::convertible_to<u64>;
    sink.onBulk(trip, n);
};

/** A sink that takes a block's stack spills as one run. */
template <typename Sink>
concept StackRunSink =
    requires(Sink& sink, Addr base, u32 cursor, u32 n) {
        sink.onStackRun(base, cursor, n);
    };

/** Executes one binary once; construct a fresh engine per run. */
class Engine
{
  public:
    /** `seed` feeds the per-block address generators. */
    explicit Engine(const bin::Binary& binary, u64 seed = 0x5EEDull);

    /**
     * Execute the program to completion into `sink` (see the Sink
     * concept in the file comment).  May be called once.
     */
    template <typename Sink>
    void
    runWith(Sink& sink)
    {
        if (ran)
            panic("Engine::run called twice; construct a fresh Engine");
        ran = true;
        {
            obs::TraceSpan span("engine.run", "exec");
            runT(sink);
        }
        sink.onRunEnd();
        flushStats();
    }

    /**
     * Shim kept for perfbench's xbspbench, its only caller, and
     * deleted with the benchmark's next revision like
     * selectEngineMode: store one sink for run() to drive through
     * runWith.  The sink's own wants*() pick its events; the hooks
     * argument is ignored.
     */
    template <typename Sink>
    void
    addObserver(Sink* sink, const ObserverHooks&)
    {
        if (ran || stored)
            panic("Engine::addObserver after run() or a first "
                  "addObserver: one sink per engine");
        stored = [sink](Engine& engine) { engine.runWith(*sink); };
    }

    /** Run the sink addObserver stored (the xbspbench shim). */
    void run();

    /** Instructions executed so far (valid during and after the run). */
    InstrCount instructionsExecuted() const { return instrCount; }

    /** The binary being executed. */
    const bin::Binary& binary() const { return bin; }

  private:
    struct BlockState
    {
        std::unique_ptr<mem::AddressGenerator> gen;
        u32 stackCursor = 0;
    };

    /**
     * The Summary of one loop trip or procedure call, plus the nodes
     * of its body's loops and calls (null for block statements), so
     * the walk finds a child's summary by statement index.
     */
    struct SummaryNode
    {
        Summary trip;
        std::vector<const SummaryNode*> kids;  ///< per body statement
    };

    /** One level of the iterative statement walk (proc or loop body). */
    struct Frame
    {
        const std::vector<bin::MachineStmt>* stmts = nullptr;
        std::size_t next = 0;                     ///< next stmt index
        const bin::MachineLoop* loop = nullptr;   ///< loop-body frame
        u64 iter = 0;                             ///< completed trips
        const SummaryNode* node = nullptr;        ///< when skipping
    };

    const bin::Binary& bin;
    std::vector<BlockState> states;
    std::unique_ptr<mem::MemRef[]> refBuf;  ///< per-block scratch
    std::vector<Frame> frames;              ///< statement walk stack
    /// Summary nodes, built on the first skipping run: one per
    /// reachable procedure and one per loop (a deque keeps the
    /// kids' pointers valid as it grows).
    std::deque<SummaryNode> summaries;
    std::vector<const SummaryNode*> procSummaries;  ///< by proc id
    InstrCount instrCount = 0;
    // Event tallies kept as plain integers in the hot path and
    // flushed to the stats registry once per run (one atomic add
    // per stat, so merged totals are exact at any worker count).
    u64 blocksExecuted = 0;
    u64 refsIssued = 0;
    u64 markersFired = 0;
    u64 bulkInstrs = 0;  ///< instructions applied by onBulk steps
    u64 bulkTrips = 0;   ///< trips and calls applied by onBulk steps
    bool ran = false;
    std::function<void(Engine&)> stored;  ///< the shim's run

    /**
     * Execute one basic block into `sink`: bump the instruction
     * counter, generate the pattern references
     * (AddressGenerator::nextBatch) and the stack spills (the next
     * stackOps slots of the procedure's window, mem::stackRef),
     * dispatch them (see "Stack runs" in the file comment), then the
     * block event.
     */
    template <typename Sink>
    void
    execBlockT(Sink& sink, u32 blockId)
    {
        const bin::MachineBlock& blk = bin.blocks[blockId];
        instrCount += blk.instrs;
        ++blocksExecuted;

        if (sink.wantsMems()) {
            BlockState& st = states[blockId];
            if (blk.memOps > 0) {
                st.gen->beginBlock();
                st.gen->nextBatch(blk.memOps, refBuf.get());
            }
            const u32 cursor = st.stackCursor;
            const Addr base = mem::stackBase(blk.procId);
            st.stackCursor += blk.stackOps;
            refsIssued += blk.memOps + blk.stackOps;
            if constexpr (StackRunSink<Sink>) {
                if (blk.memOps > 0) {
                    sink.onMemRefs(std::span<const mem::MemRef>(
                        refBuf.get(), blk.memOps));
                }
                if (blk.stackOps > 0)
                    sink.onStackRun(base, cursor, blk.stackOps);
            } else {
                const u32 total = blk.memOps + blk.stackOps;
                for (u32 i = 0; i < blk.stackOps; ++i)
                    refBuf[blk.memOps + i] = mem::stackRef(base, cursor + i);
                if (total > 0) {
                    sink.onMemRefs(std::span<const mem::MemRef>(
                        refBuf.get(), total));
                }
            }
        }

        if (sink.wantsBlocks())
            sink.onBlock(blockId, blk.instrs);
    }

    template <typename Sink>
    void
    fireMarkerT(Sink& sink, u32 markerId)
    {
        if (!sink.wantsMarkers())
            return;
        ++markersFired;
        sink.onMarker(markerId);
    }

    /**
     * Apply as many of the next `maxTrips` (>= 1) repetitions of
     * `trip` as the sink calls quiet, in one step; returns how many.
     */
    template <typename Sink>
    u64
    bulkT(Sink& sink, const Summary& trip, u64 maxTrips)
    {
        if constexpr (SkippingSink<Sink>) {
            const u64 n = std::min(maxTrips, sink.quietTrips(trip, maxTrips));
            if (n == 0)
                return 0;
            instrCount += n * trip.instrs;
            blocksExecuted += n * trip.blocks;
            if (sink.wantsMarkers())
                markersFired += n * trip.markers;
            bulkInstrs += n * trip.instrs;
            bulkTrips += n;
            sink.onBulk(trip, n);
            return n;
        } else {
            (void)sink;
            (void)trip;
            (void)maxTrips;
            return 0;
        }
    }

    /**
     * The run loop: iterative statement walk with an explicit frame
     * stack.  Event order: a procedure's entry marker
     * fires before its body, a loop's entry marker before its first
     * iteration, and each iteration runs body, branch block, branch
     * marker.  With a skipping sink (no memory stream), the start of
     * every loop trip and every call first offers the sink a bulk
     * step over whole trips.
     */
    template <typename Sink>
    void
    runT(Sink& sink)
    {
        bool skip = false;
        if constexpr (SkippingSink<Sink>)
            skip = !sink.wantsMems();
        const bin::MachineProc& entry = bin.procs[bin.entryProcId];
        const SummaryNode* root =
            skip ? &procNode(bin.entryProcId) : nullptr;
        frames.clear();
        if (!skip || bulkT(sink, root->trip, 1) == 0) {
            fireMarkerT(sink, entry.entryMarkerId);
            frames.push_back({&entry.body, 0, nullptr, 0, root});
        }

        while (!frames.empty()) {
            Frame& frame = frames.back();
            if (frame.next == frame.stmts->size()) {
                if (frame.loop != nullptr) {
                    // One trip of the loop body finished: branch
                    // block, branch marker, then loop or fall through.
                    execBlockT(sink, frame.loop->branchBlockId);
                    fireMarkerT(sink, frame.loop->branchMarkerId);
                    const u64 trips = frame.loop->tripCount;
                    if (++frame.iter < trips) {
                        if (skip) {
                            frame.iter += bulkT(sink, frame.node->trip,
                                                trips - frame.iter);
                        }
                        if (frame.iter < trips) {
                            frame.next = 0;
                            continue;
                        }
                    }
                }
                frames.pop_back();
                continue;
            }

            const std::size_t idx = frame.next++;
            const bin::MachineStmt& stmt = (*frame.stmts)[idx];
            if (const auto* ref = std::get_if<bin::BlockRef>(&stmt)) {
                execBlockT(sink, ref->blockId);
            } else if (const auto* loop =
                           std::get_if<bin::MachineLoop>(&stmt)) {
                fireMarkerT(sink, loop->entryMarkerId);
                if (loop->tripCount == 0)
                    continue;
                const SummaryNode* node =
                    skip ? frame.node->kids[idx] : nullptr;
                const u64 done =
                    skip ? bulkT(sink, node->trip, loop->tripCount) : 0;
                if (done < loop->tripCount)
                    frames.push_back({&loop->body, 0, loop, done, node});
            } else if (const auto* call =
                           std::get_if<bin::MachineCall>(&stmt)) {
                const SummaryNode* node =
                    skip ? frame.node->kids[idx] : nullptr;
                if (skip && bulkT(sink, node->trip, 1) == 1)
                    continue;
                const bin::MachineProc& proc = bin.procs[call->procId];
                fireMarkerT(sink, proc.entryMarkerId);
                frames.push_back({&proc.body, 0, nullptr, 0, node});
            }
        }
    }

    /**
     * The call summary of `procId`, building it on first use;
     * `depth` counts the calls above it, to stop on call cycles.
     */
    const SummaryNode& procNode(u32 procId, u32 depth = 0);

    /** Add the events of `stmts` to `node` and set its kids. */
    void summarize(const std::vector<bin::MachineStmt>& stmts,
                   SummaryNode& node, u32 depth);

    void flushStats();
};

/**
 * Stateless name check kept for perfbench's xbspbench, its only
 * caller: true for "compiled" and "interp" (there is one run loop, so
 * both names mean the same thing); warns and returns false on
 * anything else.
 */
bool selectEngineMode(std::string_view mode);

} // namespace xbsp::exec

#endif // XBSP_EXEC_ENGINE_HH
