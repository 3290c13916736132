/**
 * @file
 * Deterministic execution engine with a Pin-like observer interface.
 *
 * The engine executes a bin::Binary: procedure entries, loop entries
 * and loop back-branches fire marker events; basic blocks fire block
 * events and generate their memory reference streams.  Observers
 * subscribe to the event kinds they need; profilers, the timing model
 * and the sampling gates are all observers.
 *
 * The run loop walks the statement tree with an explicit frame
 * stack (see DESIGN.md, "Engine run loop").  It is a template over a
 * *Sink*, the compile-time analogue of the observer vectors:
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
 * Stack runs: a block's references are its pattern references and
 * then its stack spills, a closed-form walk over the procedure's
 * stack window (mem::stackRef).  A sink with onStackRun gets the
 * pattern references as one onMemRefs() batch and then the spills
 * as one run, (window base, first cursor, count), never
 * materialized; every other sink gets both as one batch.
 *
 * Skip-ahead: a sink that wants no memory references and has the two
 * optional members is asked, at the start of every loop trip and at
 * every call, how many whole trips are *quiet* — trips in which none
 * of its observers can react to an event beyond counting it.  The
 * engine then applies those trips in one step from the trip's static
 * Summary (counters first, then onBulk) instead of walking them.  A
 * quiet trip never contains an event that changes what an observer
 * does next, so the observers end up in exactly the state the
 * per-event walk leaves (DESIGN.md, "Engine run loop").
 *
 * Engine::run() drives a sink that fans out to the registered
 * observers; Engine::runWith(sink) lets the dominant configurations (the BBV
 * profile pass, the timed walk) supply a concrete sink so the
 * whole hot path devirtualizes into one translation unit.
 *
 * Event ordering contract (relied upon by the snapshot collectors):
 *  - the engine's instruction counter is updated *before* the block
 *    event is dispatched, so observers see the post-block count;
 *  - a block's memory-reference events are dispatched before its
 *    block event, so the timing core is fully up to date when
 *    boundary collectors cut an interval at a block event;
 *  - memory references are delivered as one onMemRefs() batch per
 *    block execution and observer, in issue order (for a
 *    StackRunSink: the pattern batch, then one stack run); each
 *    observer sees its whole batch before the next observer
 *    (references never interleave with block or marker events);
 *  - observers are notified in registration order;
 *  - a procedure's entry marker fires before its body, a loop's entry
 *    marker before its first iteration, and the back-branch marker
 *    after each iteration's body and control block.
 */

#ifndef XBSP_EXEC_ENGINE_HH
#define XBSP_EXEC_ENGINE_HH

#include <algorithm>
#include <concepts>
#include <deque>
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

/** Which event streams an observer wants to receive. */
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

/** Base class for execution observers; override what you need. */
class Observer
{
  public:
    virtual ~Observer() = default;

    /**
     * The event kinds this observer needs.  The default subscribes
     * to everything — correct but wasteful; observers that only
     * consume a subset override this so a caller registering them
     * with addObserver(obs, obs->hooks()) doesn't force the engine
     * to materialize streams nobody reads.
     */
    virtual ObserverHooks hooks() const { return {true, true, true}; }

    /** A basic block finished executing `instrs` instructions. */
    virtual void onBlock(u32 blockId, u32 instrs)
    {
        (void)blockId;
        (void)instrs;
    }

    /**
     * All memory references of one basic-block execution, in issue
     * order: one call per block execution.
     */
    virtual void
    onMemRefs(std::span<const mem::MemRef> refs)
    {
        (void)refs;
    }

    /** A marker (proc entry / loop entry / loop branch) fired. */
    virtual void onMarker(u32 markerId) { (void)markerId; }

    /** The program finished. */
    virtual void onRunEnd() {}

    /**
     * How many of the next `maxTrips` repetitions of `trip` are
     * quiet for this observer: no event in them may make it do
     * anything but count.  `streams` are the event kinds it is
     * subscribed to.  The default 0 keeps the observer on the
     * per-event path; the engine skips only when every observer
     * agrees.
     */
    virtual u64
    quietTrips(const Summary& trip, u64 maxTrips,
               const ObserverHooks& streams) const
    {
        (void)trip;
        (void)maxTrips;
        (void)streams;
        return 0;
    }

    /**
     * `trips` quiet repetitions of `trip` ran: apply their events of
     * `streams` at once.  The engine's counters already include them.
     */
    virtual void
    onBulk(const Summary& trip, u64 trips, const ObserverHooks& streams)
    {
        (void)trip;
        (void)trips;
        (void)streams;
    }
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

    /** Subscribe an observer (not owned) to selected event kinds. */
    void addObserver(Observer* observer, const ObserverHooks& hooks);

    /** Execute the program to completion.  May be called once. */
    void run();

    /**
     * Execute the program to completion into `sink` (see the Sink
     * concept in the file comment) instead of the observer vectors.
     * May be called once; panics after addObserver(), whose
     * observers it would never call.
     */
    template <typename Sink>
    void
    runWith(Sink& sink)
    {
        if (!allObservers.empty())
            panic("Engine::runWith with {} registered observers, "
                  "which it would never call", allObservers.size());
        runInto(sink);
    }

    /** Instructions executed so far (valid during and after run()). */
    InstrCount instructionsExecuted() const { return instrCount; }

    /** The binary being executed. */
    const bin::Binary& binary() const { return bin; }

  private:
    /** The one run of the engine, into `sink` (run() or runWith()). */
    template <typename Sink>
    void
    runInto(Sink& sink)
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

    /** Sink fanning out to the registered observer vectors. */
    struct VirtualSink;

    const bin::Binary& bin;
    std::vector<BlockState> states;
    std::vector<Observer*> blockObservers;
    std::vector<Observer*> memObservers;
    std::vector<Observer*> markerObservers;
    std::vector<Observer*> allObservers;
    std::vector<ObserverHooks> allHooks;    ///< parallel to allObservers
    std::unique_ptr<mem::MemRef[]> refBuf;  ///< per-block scratch
    std::vector<Frame> frames;              ///< statement walk stack
    /// Summary nodes, built on the first skipping run: one per
    /// reachable procedure and one per loop (a deque keeps the
    /// kids' pointers valid as it grows).
    std::deque<SummaryNode> summaries;
    std::vector<const SummaryNode*> procSummaries;  ///< by proc id
    InstrCount instrCount = 0;
    // Event tallies kept as plain integers in the hot path and
    // flushed to the stats registry once per run() (one atomic add
    // per stat, so merged totals are exact at any worker count).
    u64 blocksExecuted = 0;
    u64 refsIssued = 0;
    u64 markersFired = 0;
    u64 bulkInstrs = 0;  ///< instructions applied by onBulk steps
    u64 bulkTrips = 0;   ///< trips and calls applied by onBulk steps
    bool ran = false;

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
