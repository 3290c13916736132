/**
 * @file
 * Machine-level program model: the output of the model compiler and
 * the input to the execution engine.
 *
 * A Binary is a set of machine procedures whose bodies reference
 * machine basic blocks (instruction/memory-op counts plus a memory
 * access pattern with the footprint already scaled for the target).
 * Markers model the instrumentation anchors the paper cares about:
 * procedure entry points, loop entry points and loop back-branches,
 * each carrying debug info (symbol name or source line).  Compiler
 * transformations clone or drop markers exactly the way real
 * optimizations do, which is what the cross-binary matcher has to
 * cope with.
 */

#ifndef XBSP_BINARY_BINARY_HH
#define XBSP_BINARY_BINARY_HH

#include <string>
#include <variant>
#include <vector>

#include "ir/program.hh"
#include "util/types.hh"

namespace xbsp::bin
{

/** Instruction-set width of a compilation target. */
enum class Arch { X32, X64 };

/** Optimization level of a compilation target. */
enum class OptLevel { Unoptimized, Optimized };

/** A compilation target: ISA width x optimization level. */
struct Target
{
    Arch arch = Arch::X32;
    OptLevel opt = OptLevel::Unoptimized;

    bool operator==(const Target&) const = default;
};

/** The four binaries per program used throughout the paper. */
inline constexpr Target target32u{Arch::X32, OptLevel::Unoptimized};
inline constexpr Target target32o{Arch::X32, OptLevel::Optimized};
inline constexpr Target target64u{Arch::X64, OptLevel::Unoptimized};
inline constexpr Target target64o{Arch::X64, OptLevel::Optimized};

/** Short name, e.g. "32u", "64o"; used in every table. */
std::string targetName(const Target& target);

/** Kind of instrumentation anchor. */
enum class MarkerKind { ProcEntry, LoopEntry, LoopBranch };

/** Human-readable kind name. */
std::string markerKindName(MarkerKind kind);

/**
 * A static instrumentation anchor in the binary.  ProcEntry markers
 * carry the symbol name (from the symbol table); loop markers carry
 * the source line (from `-g` debug info).  line == 0 means the code
 * is compiler-generated and has no usable debug info — such markers
 * can never be mapped across binaries.
 */
struct Marker
{
    MarkerKind kind = MarkerKind::ProcEntry;
    std::string symbol;  ///< procedure name (ProcEntry only)
    u32 line = 0;        ///< source line (loops; 0 = synthetic)
    u32 procId = invalidId;  ///< owning machine procedure
};

/**
 * A machine basic block: straight-line code with `instrs`
 * instructions of which `memOps` reference memory according to
 * `pattern` (footprint already scaled for the target) and
 * `stackOps` reference the owning procedure's stack frame (spill
 * traffic, mostly L1 hits).
 */
struct MachineBlock
{
    u32 instrs = 0;
    u32 memOps = 0;
    u32 stackOps = 0;
    ir::MemPattern pattern;
    u32 sourceLine = 0;      ///< 0 when compiler-generated
    u32 procId = invalidId;  ///< owning machine procedure
};

struct MachineLoop;
struct MachineCall;

/** Reference to a machine basic block by id. */
struct BlockRef
{
    u32 blockId = invalidId;
};

/** Call to another machine procedure by id. */
struct MachineCall
{
    u32 procId = invalidId;
};

/** A statement in a machine procedure body. */
using MachineStmt = std::variant<BlockRef, MachineLoop, MachineCall>;

/**
 * A counted machine loop.  Per entry the loop fires its entry marker
 * once, then per iteration executes the body, the control block
 * (`branchBlockId`, the compare/increment/branch overhead) and the
 * back-branch marker.
 */
struct MachineLoop
{
    u32 entryMarkerId = invalidId;
    u32 branchMarkerId = invalidId;
    u32 branchBlockId = invalidId;
    u64 tripCount = 1;
    std::vector<MachineStmt> body;
};

/** A machine procedure (only emitted when it still has a symbol). */
struct MachineProc
{
    std::string name;
    u32 entryMarkerId = invalidId;
    std::vector<MachineStmt> body;
};

/** A compiled program for one target. */
struct Binary
{
    std::string programName;
    Target target;
    std::vector<MachineProc> procs;
    std::vector<MachineBlock> blocks;
    std::vector<Marker> markers;
    u32 entryProcId = invalidId;

    /** Number of static basic blocks (the BBV dimension). */
    u32 blockCount() const { return static_cast<u32>(blocks.size()); }

    /** Number of static markers. */
    u32 markerCount() const { return static_cast<u32>(markers.size()); }

    /** Find a procedure id by symbol name; invalidId when absent. */
    u32 findProc(const std::string& name) const;

    /** Full display name, e.g. "gcc/64o". */
    std::string displayName() const;
};

/**
 * Structural sanity checks on a compiled binary: ids in range, entry
 * exists, loop control blocks present, marker back-references
 * consistent.  panic()s on violation (compiler bugs, not user error).
 */
void checkBinary(const Binary& binary);

/** Statically computed dynamic instruction count of one execution. */
InstrCount staticDynamicInstrCount(const Binary& binary);

/** Human-readable listing (for debugging and the docs). */
std::string describe(const Binary& binary);

} // namespace xbsp::bin

#endif // XBSP_BINARY_BINARY_HH
