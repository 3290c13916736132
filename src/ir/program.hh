/**
 * @file
 * Source-level program IR.
 *
 * Workloads are written against this IR: a program is a set of
 * procedures; a procedure body is a sequence of statements; statements
 * are straight-line blocks (with an instruction mix and a memory
 * access pattern), counted loops, or calls.  Loop trip counts and call
 * structure are *semantic*: every binary compiled from the same
 * program executes loops and procedures the same number of times,
 * which is the ground truth the cross-binary marker matcher relies on.
 *
 * Line numbers model source debug info.  The builder assigns each
 * statement a unique line; the compiler propagates lines into machine
 * markers exactly the way `-g` debug info survives real compilation.
 */

#ifndef XBSP_IR_PROGRAM_HH
#define XBSP_IR_PROGRAM_HH

#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "util/types.hh"

namespace xbsp::ir
{

/** How a block's memory references walk their data region. */
enum class MemPatternKind
{
    None,         ///< no memory references
    Stride,       ///< sequential walk with a fixed byte stride
    RandomInSet,  ///< uniform random references within the working set
    PointerChase, ///< dependent chain through a pseudo-random cycle
    Gather        ///< hot/cold mix: mostly-hot references with a
                  ///< random cold tail (models indexed gathers)
};

/**
 * Memory behaviour of one block.  `workingSet` is the footprint in
 * bytes at 32-bit compilation; `pointerScale` in [0,1] says how much
 * of the footprint is pointer-sized data, so 64-bit compilation grows
 * the footprint by up to 2x (matching larger pointers on Intel64).
 */
struct MemPattern
{
    MemPatternKind kind = MemPatternKind::None;
    u32 regionId = 0;        ///< logical data region identifier
    u64 workingSet = 0;      ///< bytes touched (32-bit footprint)
    u64 stride = 8;          ///< byte stride for Stride patterns
    double writeFraction = 0.0;  ///< fraction of refs that store
    double pointerScale = 0.0;   ///< footprint growth on 64-bit
    double hotFraction = 0.9;    ///< Gather: fraction of refs to the
                                 ///< hot subset (1/8 of workingSet)

    /**
     * Within-phase behaviour drift: every `driftPeriod` executions of
     * the owning block, the effective working set (and, for gathers,
     * the hot fraction) shifts through a fixed cycle of levels with
     * amplitude `driftAmp`.  Drift is keyed to the block's *semantic*
     * execution count, so all binaries see (approximately) the same
     * data behaviour at the same point of execution — the "same code,
     * different behaviour over time" effect that makes a single
     * simulation point per phase an imperfect (biased) estimator,
     * which the paper's consistency argument is all about.
     */
    u32 driftPeriod = 0;     ///< block executions per level step
    double driftAmp = 0.0;   ///< relative working-set swing (0..1)
};

/** Attach drift to a pattern (builder convenience). */
MemPattern withDrift(MemPattern pattern, u32 period, double amp);

/** Straight-line code: `instrs` work units, `memOps` of them memory. */
struct Block
{
    u32 line = 0;        ///< source line (assigned by the builder)
    u32 instrs = 0;      ///< source-level instruction count
    u32 memOps = 0;      ///< memory references among those
    MemPattern pattern;  ///< where the references go
};

struct Loop;
struct Call;

/** A statement is a block, a loop, or a call. */
using Stmt = std::variant<Block, Loop, Call>;

/**
 * Counted loop.  The trip count is the number of body executions per
 * loop entry and is identical across all compilations.  The hint
 * flags let the model optimizer transform this loop the way a real
 * optimizer would, which is what makes markers unmappable.
 */
struct Loop
{
    u32 line = 0;         ///< line of the loop branch / entry
    u64 tripCount = 1;    ///< body executions per entry
    bool unrollable = false;  ///< optimizer may unroll (factor 4)
    bool splittable = false;  ///< optimizer may split into two loops
    std::vector<Stmt> body;
};

/** Call to another procedure in the same program. */
struct Call
{
    u32 line = 0;
    std::string callee;
};

/** How eagerly the optimizer may inline a procedure. */
enum class InlineHint
{
    Never,   ///< never inlined
    Always,  ///< inlined at every call site under -O2
    Partial  ///< inlined at alternating call sites under -O2
             ///< (entry counts then differ across binaries)
};

/** A named procedure. */
struct Procedure
{
    std::string name;
    InlineHint inlineHint = InlineHint::Never;
    std::vector<Stmt> body;
};

/** A whole program: procedures plus the entry procedure's name. */
struct Program
{
    std::string name;
    std::string entry = "main";
    std::vector<Procedure> procedures;

    /** Find a procedure by name; nullptr when absent. */
    const Procedure* findProcedure(const std::string& n) const;
};

/**
 * Deepest loop nesting a program or binary may have.  For a program
 * it counts the loops enclosing a statement along the whole call
 * chain, which bounds any binary's nesting, inlining included.
 * validate(), bin::binaryDefect() and the binary decoder share it, so
 * every binary that compiles also decodes.
 */
constexpr u32 maxLoopNesting = 256;

/**
 * Validate structural invariants: entry exists, all calls resolve,
 * the call graph is acyclic, line numbers are unique and non-zero,
 * trip counts are non-zero, block instruction counts are sane, and
 * loops nest at most maxLoopNesting deep along any call chain.
 * Calls fatal() with a diagnostic on violation.
 */
void validate(const Program& program);

/** Total source-level instructions for one full execution. */
InstrCount sourceInstructionCount(const Program& program);

} // namespace xbsp::ir

#endif // XBSP_IR_PROGRAM_HH
