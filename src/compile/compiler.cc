#include "compile/compiler.hh"

#include <algorithm>
#include <cmath>
#include <map>

#include "binary/serial.hh"
#include "ir/serial.hh"
#include "store/store.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace xbsp::compile
{

namespace
{

using bin::Binary;
using bin::BlockRef;
using bin::MachineBlock;
using bin::MachineCall;
using bin::MachineLoop;
using bin::MachineProc;
using bin::MachineStmt;
using bin::Marker;
using bin::MarkerKind;

/** One lowering run: program x target -> Binary. */
class Lowering
{
  public:
    Lowering(const ir::Program& prog, const bin::Target& target,
             const CompileOptions& opts)
        : program(prog), traits(TargetTraits::forTarget(target)),
          options(opts), optimized(target.opt ==
                                   bin::OptLevel::Optimized)
    {
        out.programName = prog.name;
        out.target = target;
        targetFingerprint =
            hashMix((static_cast<u64>(target.arch == bin::Arch::X64)
                     << 1) |
                    static_cast<u64>(optimized)) ^
            opts.jitterSeed;
    }

    Binary
    run()
    {
        out.entryProcId = emitProc(program.entry);
        bin::checkBinary(out);
        return std::move(out);
    }

  private:
    const ir::Program& program;
    const TargetTraits traits;
    const CompileOptions options;
    const bool optimized;
    u64 targetFingerprint = 0;
    Binary out;
    std::map<std::string, u32> emittedProcs;
    std::map<std::string, u32> inlineSiteCounter;

    /** Deterministic per-(line, salt, target) scaling jitter. */
    double
    jitter(u32 line, u32 salt) const
    {
        const u64 h = hashMix(targetFingerprint ^
                              (static_cast<u64>(line) << 20) ^ salt);
        const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
        return 1.0 + traits.jitterAmp * (2.0 * u - 1.0);
    }

    u32
    newMarker(MarkerKind kind, std::string symbol, u32 line, u32 procId)
    {
        Marker m;
        m.kind = kind;
        m.symbol = std::move(symbol);
        m.line = line;
        m.procId = procId;
        out.markers.push_back(std::move(m));
        return static_cast<u32>(out.markers.size() - 1);
    }

    /** Lower one source block into a fresh machine block. */
    u32
    lowerBlock(const ir::Block& blk, u32 procId)
    {
        MachineBlock mb;
        mb.sourceLine = blk.line;
        mb.procId = procId;
        mb.instrs = static_cast<u32>(std::max<long>(
            1, std::lround(blk.instrs * traits.instrScale *
                           jitter(blk.line, 0x11))));
        if (blk.pattern.kind != ir::MemPatternKind::None) {
            long mm = std::lround(blk.memOps * traits.memOpScale *
                                  jitter(blk.line, 0x22));
            mb.memOps = static_cast<u32>(
                std::clamp<long>(mm, blk.memOps ? 1 : 0, mb.instrs));
            mb.pattern = blk.pattern;
            mb.pattern.workingSet = static_cast<u64>(
                static_cast<double>(blk.pattern.workingSet) *
                traits.footprintScale(blk.pattern.pointerScale));
        }
        mb.stackOps = static_cast<u32>(
            std::lround(mb.instrs * traits.spillFactor));
        out.blocks.push_back(std::move(mb));
        return static_cast<u32>(out.blocks.size() - 1);
    }

    /** Synthesize a compiler-generated overhead block. */
    u32
    overheadBlock(u32 instrs, u32 stackOps, u32 line, u32 procId)
    {
        MachineBlock mb;
        mb.instrs = std::max<u32>(1, instrs);
        mb.memOps = 0;
        mb.stackOps = stackOps;
        mb.sourceLine = line;
        mb.procId = procId;
        out.blocks.push_back(std::move(mb));
        return static_cast<u32>(out.blocks.size() - 1);
    }

    bool
    shouldInline(const ir::Procedure& callee)
    {
        if (!optimized || !options.enableInlining)
            return false;
        switch (callee.inlineHint) {
          case ir::InlineHint::Never:
            return false;
          case ir::InlineHint::Always:
            return true;
          case ir::InlineHint::Partial:
            return (inlineSiteCounter[callee.name]++ % 2) == 0;
        }
        return false;
    }

    /** True when every statement is a plain block (innermost loop). */
    static bool
    allBlocks(const std::vector<MachineStmt>& stmts)
    {
        for (const auto& stmt : stmts) {
            if (!std::holds_alternative<BlockRef>(stmt))
                return false;
        }
        return true;
    }

    /** Scale unrolled body blocks in place (factor-U fusion). */
    void
    applyUnroll(std::vector<MachineStmt>& body, u32 factor)
    {
        for (auto& stmt : body) {
            auto& ref = std::get<BlockRef>(stmt);
            MachineBlock& blk = out.blocks[ref.blockId];
            blk.instrs = static_cast<u32>(std::max<long>(
                1, std::lround(blk.instrs * factor * 0.93)));
            blk.memOps = std::min(
                blk.instrs, blk.memOps * factor);
            blk.stackOps = static_cast<u32>(
                std::lround(blk.stackOps * factor * 0.7));
        }
    }

    MachineLoop
    makeLoop(u32 line, u64 trips, std::vector<MachineStmt> body,
             u32 procId)
    {
        MachineLoop loop;
        loop.tripCount = trips;
        loop.entryMarkerId =
            newMarker(MarkerKind::LoopEntry, "", line, procId);
        loop.branchMarkerId =
            newMarker(MarkerKind::LoopBranch, "", line, procId);
        loop.branchBlockId =
            overheadBlock(traits.loopOverhead, 0, line, procId);
        loop.body = std::move(body);
        return loop;
    }

    void
    lowerLoop(const ir::Loop& loop, u32 procId,
              std::vector<MachineStmt>& outStmts)
    {
        std::vector<MachineStmt> body;
        lowerStmts(loop.body, procId, body);

        const bool canSplit = optimized && options.enableLoopSplitting &&
                              loop.splittable && body.size() >= 2;
        if (canSplit) {
            // Split the body into two loops over the same iteration
            // space.  Both keep the source line (real compilers emit
            // the same line for both fission products), so the
            // matcher sees doubled per-line counts and must reject
            // the loop — the paper's applu case.
            const std::size_t half = body.size() / 2;
            std::vector<MachineStmt> first(
                std::make_move_iterator(body.begin()),
                std::make_move_iterator(body.begin() +
                                        static_cast<long>(half)));
            std::vector<MachineStmt> second(
                std::make_move_iterator(body.begin() +
                                        static_cast<long>(half)),
                std::make_move_iterator(body.end()));
            outStmts.emplace_back(makeLoop(loop.line, loop.tripCount,
                                           std::move(first), procId));
            outStmts.emplace_back(makeLoop(loop.line, loop.tripCount,
                                           std::move(second), procId));
            return;
        }

        u64 trips = loop.tripCount;
        const u32 factor = options.unrollFactor;
        const bool canUnroll = optimized && options.enableUnrolling &&
                               loop.unrollable && factor > 1 &&
                               trips % factor == 0 &&
                               trips >= 2ull * factor &&
                               allBlocks(body);
        if (canUnroll) {
            applyUnroll(body, factor);
            trips /= factor;
        }
        outStmts.emplace_back(makeLoop(loop.line, trips,
                                       std::move(body), procId));
    }

    void
    lowerCall(const ir::Call& call, u32 procId,
              std::vector<MachineStmt>& outStmts)
    {
        const ir::Procedure* callee =
            program.findProcedure(call.callee);
        if (!callee)
            panic("compile: call to unknown procedure '{}'",
                  call.callee);
        if (shouldInline(*callee)) {
            // Splice the callee body into the caller; no call
            // overhead, no entry marker — the symbol disappears for
            // this site, exactly like real inlining.
            lowerStmts(callee->body, procId, outStmts);
            return;
        }
        outStmts.emplace_back(BlockRef{overheadBlock(
            traits.callOverhead, traits.callStackOps, call.line,
            procId)});
        outStmts.emplace_back(MachineCall{emitProc(call.callee)});
    }

    void
    lowerStmts(const std::vector<ir::Stmt>& stmts, u32 procId,
               std::vector<MachineStmt>& outStmts)
    {
        for (const auto& stmt : stmts) {
            if (const auto* blk = std::get_if<ir::Block>(&stmt)) {
                outStmts.emplace_back(
                    BlockRef{lowerBlock(*blk, procId)});
            } else if (const auto* loop =
                           std::get_if<ir::Loop>(&stmt)) {
                lowerLoop(*loop, procId, outStmts);
            } else if (const auto* call =
                           std::get_if<ir::Call>(&stmt)) {
                lowerCall(*call, procId, outStmts);
            }
        }
    }

    u32
    emitProc(const std::string& name)
    {
        if (auto it = emittedProcs.find(name); it != emittedProcs.end())
            return it->second;
        const ir::Procedure* proc = program.findProcedure(name);
        if (!proc)
            panic("compile: unknown procedure '{}'", name);

        const u32 procId = static_cast<u32>(out.procs.size());
        out.procs.emplace_back();
        emittedProcs[name] = procId;
        out.procs[procId].name = name;
        out.procs[procId].entryMarkerId =
            newMarker(MarkerKind::ProcEntry, name, 0, procId);

        std::vector<MachineStmt> body;
        lowerStmts(proc->body, procId, body);
        out.procs[procId].body = std::move(body);
        return procId;
    }
};

} // namespace

serial::Hash128
compileKey(const ir::Program& program, const bin::Target& target,
           const CompileOptions& options)
{
    serial::Hasher h;
    h.str("compile");
    ir::hashProgram(h, program);
    bin::hashTarget(h, target);
    h.boolean(options.enableInlining);
    h.boolean(options.enableUnrolling);
    h.boolean(options.enableLoopSplitting);
    h.u32v(options.unrollFactor);
    h.u64v(options.jitterSeed);
    return h.finish();
}

bin::Binary
compileProgram(const ir::Program& program, const bin::Target& target,
               const CompileOptions& options)
{
    return compileProgram(program, target, options,
                          compileKey(program, target, options));
}

bin::Binary
compileProgram(const ir::Program& program, const bin::Target& target,
               const CompileOptions& options, const serial::Hash128& key)
{
    ir::validate(program);
    return store::ArtifactStore::global()
        .getOrCompute<bin::BinaryCodec>(key, "compile", [&] {
            Lowering lowering(program, target, options);
            return lowering.run();
        });
}

std::vector<bin::Target>
standardTargets()
{
    return {bin::target32u, bin::target32o, bin::target64u,
            bin::target64o};
}

std::vector<bin::Binary>
compileAllTargets(const ir::Program& program,
                  const CompileOptions& options)
{
    std::vector<bin::Binary> binaries;
    for (const auto& target : standardTargets())
        binaries.push_back(compileProgram(program, target, options));
    return binaries;
}

} // namespace xbsp::compile
