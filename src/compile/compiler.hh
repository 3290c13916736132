/**
 * @file
 * The model compiler: lowers an ir::Program to a bin::Binary for one
 * target.
 *
 * Lowering walks the call graph from the entry procedure.  For each
 * target it applies:
 *
 *  - per-block instruction/memory-op scaling with deterministic
 *    per-(block, target) jitter, so the four binaries weight the same
 *    source code differently (like real codegen does);
 *  - spill (stack) traffic and call/loop control overhead blocks;
 *  - under -O2: full inlining of InlineHint::Always procedures,
 *    alternating-site inlining of InlineHint::Partial procedures
 *    (making their entry counts diverge across binaries), unrolling
 *    of `unrollable` innermost loops (dividing back-branch counts),
 *    and splitting of `splittable` loops into two same-line loops
 *    (duplicating loop markers, the paper's applu failure mode);
 *  - debug info: procedure symbols for emitted procedures, source
 *    lines on loop markers — exactly the inputs the cross-binary
 *    matcher is allowed to use.
 */

#ifndef XBSP_COMPILE_COMPILER_HH
#define XBSP_COMPILE_COMPILER_HH

#include <vector>

#include "binary/binary.hh"
#include "compile/target.hh"
#include "ir/program.hh"
#include "util/serial.hh"

namespace xbsp::compile
{

/** Pass toggles; defaults model the paper's `-O2` behaviour. */
struct CompileOptions
{
    bool enableInlining = true;
    bool enableUnrolling = true;
    bool enableLoopSplitting = true;
    u32 unrollFactor = 4;
    /** Seed for the per-block codegen jitter (per-target mixed in). */
    u64 jitterSeed = 0xC0FFEEull;
};

/** Compile one program for one target. */
bin::Binary compileProgram(const ir::Program& program,
                           const bin::Target& target,
                           const CompileOptions& options = {});

/**
 * compileProgram memoized under `key`, which must be
 * compileKey(program, target, options), for a caller that built the
 * key already.  The overload above builds the key and forwards here.
 */
bin::Binary compileProgram(const ir::Program& program,
                           const bin::Target& target,
                           const CompileOptions& options,
                           const serial::Hash128& key);

/**
 * Artifact-store key of one (program, target, options) compilation —
 * the exact key compileProgram memoizes under (artifact type
 * bin::BinaryCodec).  Exposed so the pipeline scheduler can probe
 * whether a compile stage is already cached.
 */
serial::Hash128 compileKey(const ir::Program& program,
                           const bin::Target& target,
                           const CompileOptions& options = {});

/**
 * Compile the paper's four standard binaries, in the canonical order
 * 32u, 32o, 64u, 64o (index 0 is the default primary binary).
 */
std::vector<bin::Binary> compileAllTargets(
    const ir::Program& program, const CompileOptions& options = {});

/** The canonical four targets in the same order as compileAllTargets. */
std::vector<bin::Target> standardTargets();

} // namespace xbsp::compile

#endif // XBSP_COMPILE_COMPILER_HH
