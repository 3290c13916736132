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
 *     };
 *
 * Engine::run() drives a sink that fans out to the registered
 * observers; Engine::runWith(sink) lets the dominant configurations (the BBV
 * profile pass, the detailed core) supply a concrete sink so the
 * whole hot path devirtualizes into one translation unit.
 *
 * Event ordering contract (relied upon by the snapshot collectors):
 *  - the engine's instruction counter is updated *before* the block
 *    event is dispatched, so observers see the post-block count;
 *  - a block's memory-reference events are dispatched before its
 *    block event, so timing observers are fully up to date when
 *    boundary collectors cut an interval at a block event;
 *  - memory references are delivered as one onMemRefs() batch per
 *    block execution and observer, in issue order; each observer
 *    sees its whole batch before the next observer (references never
 *    interleave with block or marker events);
 *  - observers are notified in registration order;
 *  - a procedure's entry marker fires before its body, a loop's entry
 *    marker before its first iteration, and the back-branch marker
 *    after each iteration's body and control block.
 */

#ifndef XBSP_EXEC_ENGINE_HH
#define XBSP_EXEC_ENGINE_HH

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

/** Base class for execution observers; override what you need. */
class Observer
{
  public:
    virtual ~Observer() = default;

    /**
     * The event kinds this observer needs.  The default subscribes
     * to everything — correct but wasteful; observers that only
     * consume a subset override this so convenience drivers
     * (runOnce) don't force the engine to materialize streams
     * nobody reads.
     */
    virtual ObserverHooks hooks() const { return {true, true, true}; }

    /** A basic block finished executing `instrs` instructions. */
    virtual void onBlock(u32 blockId, u32 instrs)
    {
        (void)blockId;
        (void)instrs;
    }

    /** One memory reference was issued. */
    virtual void onMemRef(Addr addr, bool isWrite)
    {
        (void)addr;
        (void)isWrite;
    }

    /**
     * All memory references of one basic-block execution, in issue
     * order.  The engine dispatches this instead of per-reference
     * onMemRef() calls; the default implementation fans back out to
     * onMemRef(), so existing observers keep working unchanged.
     * Batch-aware observers (the timing core) override this to
     * amortize the virtual dispatch over the whole block.
     */
    virtual void
    onMemRefs(std::span<const mem::MemRef> refs)
    {
        for (const mem::MemRef& ref : refs)
            onMemRef(ref.addr, ref.isWrite);
    }

    /** A marker (proc entry / loop entry / loop branch) fired. */
    virtual void onMarker(u32 markerId) { (void)markerId; }

    /** The program finished. */
    virtual void onRunEnd() {}
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
     * May be called once, and not combined with addObserver().
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

    /** Instructions executed so far (valid during and after run()). */
    InstrCount instructionsExecuted() const { return instrCount; }

    /** The binary being executed. */
    const bin::Binary& binary() const { return bin; }

  private:
    struct BlockState
    {
        std::unique_ptr<mem::AddressGenerator> gen;
        u32 stackCursor = 0;
    };

    /** One level of the iterative statement walk (proc or loop body). */
    struct Frame
    {
        const std::vector<bin::MachineStmt>* stmts = nullptr;
        std::size_t next = 0;                     ///< next stmt index
        const bin::MachineLoop* loop = nullptr;   ///< loop-body frame
        u64 iter = 0;                             ///< completed trips
    };

    /** Sink fanning out to the registered observer vectors. */
    struct VirtualSink;

    const bin::Binary& bin;
    std::vector<BlockState> states;
    std::vector<Observer*> blockObservers;
    std::vector<Observer*> memObservers;
    std::vector<Observer*> markerObservers;
    std::vector<Observer*> allObservers;
    std::unique_ptr<mem::MemRef[]> refBuf;  ///< per-block scratch
    std::vector<Frame> frames;              ///< statement walk stack
    InstrCount instrCount = 0;
    // Event tallies kept as plain integers in the hot path and
    // flushed to the stats registry once per run() (one atomic add
    // per stat, so merged totals are exact at any worker count).
    u64 blocksExecuted = 0;
    u64 refsIssued = 0;
    u64 markersFired = 0;
    bool ran = false;

    /**
     * Execute one basic block into `sink`: bump the instruction
     * counter, materialize the reference batch (pattern refs via
     * AddressGenerator::nextBatch, then spill traffic cycling through
     * a 64-slot per-procedure stack window, alternating load/store),
     * dispatch it, then the block event.
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
            u32 cursor = st.stackCursor;
            const u32 total = blk.memOps + blk.stackOps;
            if (blk.stackOps > 0) {
                const Addr base = mem::stackBase(blk.procId);
                for (u32 i = blk.memOps; i < total; ++i) {
                    refBuf[i] = {base + ((cursor & 63u) << 3),
                                 (cursor & 1u) != 0};
                    ++cursor;
                }
                st.stackCursor = cursor;
            }
            refsIssued += total;
            if (total > 0) {
                sink.onMemRefs(
                    std::span<const mem::MemRef>(refBuf.get(), total));
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
     * The run loop: iterative statement walk with an explicit frame
     * stack.  Event order: a procedure's entry marker
     * fires before its body, a loop's entry marker before its first
     * iteration, and each iteration runs body, branch block, branch
     * marker.
     */
    template <typename Sink>
    void
    runT(Sink& sink)
    {
        const bin::MachineProc& entry = bin.procs[bin.entryProcId];
        fireMarkerT(sink, entry.entryMarkerId);
        frames.clear();
        frames.push_back({&entry.body, 0, nullptr, 0});

        while (!frames.empty()) {
            Frame& frame = frames.back();
            if (frame.next == frame.stmts->size()) {
                if (frame.loop != nullptr) {
                    // One trip of the loop body finished: branch
                    // block, branch marker, then loop or fall through.
                    execBlockT(sink, frame.loop->branchBlockId);
                    fireMarkerT(sink, frame.loop->branchMarkerId);
                    if (++frame.iter < frame.loop->tripCount) {
                        frame.next = 0;
                        continue;
                    }
                }
                frames.pop_back();
                continue;
            }

            const bin::MachineStmt& stmt = (*frame.stmts)[frame.next];
            ++frame.next;
            if (const auto* ref = std::get_if<bin::BlockRef>(&stmt)) {
                execBlockT(sink, ref->blockId);
            } else if (const auto* loop =
                           std::get_if<bin::MachineLoop>(&stmt)) {
                fireMarkerT(sink, loop->entryMarkerId);
                if (loop->tripCount > 0)
                    frames.push_back({&loop->body, 0, loop, 0});
            } else if (const auto* call =
                           std::get_if<bin::MachineCall>(&stmt)) {
                const bin::MachineProc& proc = bin.procs[call->procId];
                fireMarkerT(sink, proc.entryMarkerId);
                frames.push_back({&proc.body, 0, nullptr, 0});
            }
        }
    }

    void flushStats();
};

/**
 * Convenience: run `binary` once with the given observers, each
 * subscribed per its own hooks(), and return instructions executed.
 */
InstrCount runOnce(const bin::Binary& binary,
                   const std::vector<Observer*>& observers,
                   u64 seed = 0x5EEDull);

/**
 * Stateless name check kept for perfbench's xbspbench, its only
 * caller: true for "compiled" and "interp" (there is one run loop, so
 * both names mean the same thing); warns and returns false on
 * anything else.
 */
bool selectEngineMode(std::string_view mode);

} // namespace xbsp::exec

#endif // XBSP_EXEC_ENGINE_HH
