#include "binary/binary.hh"

#include <algorithm>
#include <sstream>

#include "util/format.hh"
#include "util/logging.hh"

namespace xbsp::bin
{

std::string
targetName(const Target& target)
{
    std::string name = target.arch == Arch::X32 ? "32" : "64";
    name += target.opt == OptLevel::Unoptimized ? "u" : "o";
    return name;
}

std::string
markerKindName(MarkerKind kind)
{
    switch (kind) {
      case MarkerKind::ProcEntry:
        return "proc-entry";
      case MarkerKind::LoopEntry:
        return "loop-entry";
      case MarkerKind::LoopBranch:
        return "loop-branch";
    }
    panic("unknown MarkerKind {}", static_cast<int>(kind));
}

u32
Binary::findProc(const std::string& name) const
{
    for (u32 i = 0; i < procs.size(); ++i) {
        if (procs[i].name == name)
            return i;
    }
    return invalidId;
}

std::string
Binary::displayName() const
{
    return programName + "/" + targetName(target);
}

namespace
{

/** Dynamic instruction totals saturate here; see binaryDefect(). */
constexpr InstrCount instrLimit = InstrCount{1} << 53;

InstrCount
addSat(InstrCount a, InstrCount b)
{
    return std::min(a + b, instrLimit);  // a, b <= instrLimit
}

InstrCount
mulSat(InstrCount a, u64 b)
{
    if (a != 0 && b > instrLimit / a)
        return instrLimit;
    return std::min(a * b, instrLimit);
}

/** The first defect found, thrown inside the checker only. */
struct Defect
{
    std::string what;
};

struct Checker
{
    const Binary& binary;

    template <typename... Args>
    [[noreturn]] void
    fail(std::string_view fmt, const Args&... args) const
    {
        throw Defect{"binary " + binary.displayName() + ": " +
                     xbsp::format(fmt, args...)};
    }

    void
    checkBlockId(u32 id, u32 procId) const
    {
        if (id >= binary.blocks.size())
            fail("block id {} out of range", id);
        if (binary.blocks[id].procId != procId)
            fail("block {} owned by proc {}, referenced from proc {}",
                 id, binary.blocks[id].procId, procId);
    }

    void
    checkMarkerId(u32 id, MarkerKind kind, u32 procId) const
    {
        if (id >= binary.markers.size())
            fail("marker id {} out of range", id);
        const Marker& m = binary.markers[id];
        if (m.kind != kind)
            fail("marker {} has kind {}, expected {}", id,
                 markerKindName(m.kind), markerKindName(kind));
        if (m.procId != procId)
            fail("marker {} owned by proc {}, referenced from proc {}",
                 id, m.procId, procId);
    }

    /**
     * Check `stmts` of proc `procId`, enclosed by `depth` loops;
     * collect its callees.
     */
    void
    checkStmts(const std::vector<MachineStmt>& stmts, u32 procId,
               u32 depth, std::vector<u32>& callees) const
    {
        if (depth > ir::maxLoopNesting)
            fail("loops nested deeper than {}", ir::maxLoopNesting);
        for (const auto& stmt : stmts) {
            if (const auto* ref = std::get_if<BlockRef>(&stmt)) {
                checkBlockId(ref->blockId, procId);
            } else if (const auto* loop =
                           std::get_if<MachineLoop>(&stmt)) {
                checkMarkerId(loop->entryMarkerId, MarkerKind::LoopEntry,
                              procId);
                checkMarkerId(loop->branchMarkerId,
                              MarkerKind::LoopBranch, procId);
                checkBlockId(loop->branchBlockId, procId);
                if (loop->tripCount == 0)
                    fail("loop with trip count 0");
                checkStmts(loop->body, procId, depth + 1, callees);
            } else if (const auto* call =
                           std::get_if<MachineCall>(&stmt)) {
                if (call->procId >= binary.procs.size())
                    fail("call to proc id {} out of range",
                         call->procId);
                callees.push_back(call->procId);
            }
        }
    }

    /**
     * Procedures in callee-first order (an iterative depth-first
     * postorder of the call graph); fails on a call cycle.
     */
    std::vector<u32>
    calleeFirstOrder(const std::vector<std::vector<u32>>& callees) const
    {
        enum : u8 { Unseen, Open, Done };
        std::vector<u8> state(binary.procs.size(), Unseen);
        std::vector<u32> order;
        std::vector<std::pair<u32, std::size_t>> stack;
        for (u32 root = 0; root < binary.procs.size(); ++root) {
            if (state[root] != Unseen)
                continue;
            state[root] = Open;
            stack.push_back({root, 0});
            while (!stack.empty()) {
                auto& [proc, next] = stack.back();
                if (next == callees[proc].size()) {
                    state[proc] = Done;
                    order.push_back(proc);
                    stack.pop_back();
                    continue;
                }
                const u32 callee = callees[proc][next++];
                if (state[callee] == Open)
                    fail("call cycle through proc {}",
                         binary.procs[callee].name);
                if (state[callee] == Unseen) {
                    state[callee] = Open;
                    stack.push_back({callee, 0});
                }
            }
        }
        return order;
    }
};

/** Saturating dynamic instructions of `stmts`, given callee totals. */
InstrCount
stmtInstrs(const Binary& binary, const std::vector<MachineStmt>& stmts,
           const std::vector<InstrCount>& procTotals)
{
    InstrCount total = 0;
    for (const auto& stmt : stmts) {
        if (const auto* ref = std::get_if<BlockRef>(&stmt)) {
            total = addSat(total, binary.blocks[ref->blockId].instrs);
        } else if (const auto* loop = std::get_if<MachineLoop>(&stmt)) {
            const InstrCount trip = addSat(
                stmtInstrs(binary, loop->body, procTotals),
                binary.blocks[loop->branchBlockId].instrs);
            total = addSat(total, mulSat(trip, loop->tripCount));
        } else if (const auto* call = std::get_if<MachineCall>(&stmt)) {
            total = addSat(total, procTotals[call->procId]);
        }
    }
    return total;
}

/**
 * Check everything and return the dynamic instructions of one
 * execution (saturated at instrLimit); throws Defect.
 */
InstrCount
checkAndCount(const Binary& binary)
{
    const Checker checker{binary};
    if (binary.entryProcId >= binary.procs.size())
        checker.fail("entry proc id {} out of range", binary.entryProcId);
    for (u32 b = 0; b < binary.blocks.size(); ++b) {
        if (binary.blocks[b].instrs == 0)
            checker.fail("block {} has no instructions", b);
        if (binary.blocks[b].procId >= binary.procs.size())
            checker.fail("block {} owner out of range", b);
    }
    for (u32 m = 0; m < binary.markers.size(); ++m) {
        const Marker& marker = binary.markers[m];
        if (marker.procId >= binary.procs.size())
            checker.fail("marker {} owner out of range", m);
        if (marker.kind == MarkerKind::ProcEntry && marker.symbol.empty())
            checker.fail("proc-entry marker {} has no symbol", m);
    }
    std::vector<std::vector<u32>> callees(binary.procs.size());
    for (u32 p = 0; p < binary.procs.size(); ++p) {
        const MachineProc& proc = binary.procs[p];
        checker.checkMarkerId(proc.entryMarkerId, MarkerKind::ProcEntry,
                              p);
        checker.checkStmts(proc.body, p, 0, callees[p]);
    }
    std::vector<InstrCount> procTotals(binary.procs.size(), 0);
    for (u32 p : checker.calleeFirstOrder(callees))
        procTotals[p] = stmtInstrs(binary, binary.procs[p].body, procTotals);
    const InstrCount total = procTotals[binary.entryProcId];
    if (total >= instrLimit)
        checker.fail("executes 2^53 or more instructions");
    return total;
}

void
describeStmts(const Binary& binary,
              const std::vector<MachineStmt>& stmts, int depth,
              std::ostringstream& os)
{
    const std::string indent(static_cast<std::size_t>(depth) * 2, ' ');
    for (const auto& stmt : stmts) {
        if (const auto* ref = std::get_if<BlockRef>(&stmt)) {
            const MachineBlock& blk = binary.blocks[ref->blockId];
            os << indent
               << xbsp::format("block b{} instrs={} mem={} stack={} "
                              "line={}\n", ref->blockId, blk.instrs,
                              blk.memOps, blk.stackOps, blk.sourceLine);
        } else if (const auto* loop = std::get_if<MachineLoop>(&stmt)) {
            const Marker& entry = binary.markers[loop->entryMarkerId];
            os << indent
               << xbsp::format("loop trips={} line={} entryMk=m{} "
                              "branchMk=m{}\n", loop->tripCount,
                              entry.line, loop->entryMarkerId,
                              loop->branchMarkerId);
            describeStmts(binary, loop->body, depth + 1, os);
        } else if (const auto* call = std::get_if<MachineCall>(&stmt)) {
            os << indent
               << xbsp::format("call {}\n",
                              binary.procs[call->procId].name);
        }
    }
}

} // namespace

std::string
binaryDefect(const Binary& binary)
{
    try {
        (void)checkAndCount(binary);
    } catch (const Defect& defect) {
        return defect.what;
    }
    return {};
}

void
checkBinary(const Binary& binary)
{
    if (const std::string defect = binaryDefect(binary); !defect.empty())
        panic("{}", defect);
}

InstrCount
staticDynamicInstrCount(const Binary& binary)
{
    try {
        return checkAndCount(binary);
    } catch (const Defect& defect) {
        panic("{}", defect.what);
    }
}

std::string
describe(const Binary& binary)
{
    std::ostringstream os;
    os << "binary " << binary.displayName() << ": "
       << binary.procs.size() << " procs, " << binary.blocks.size()
       << " blocks, " << binary.markers.size() << " markers\n";
    for (u32 p = 0; p < binary.procs.size(); ++p) {
        const MachineProc& proc = binary.procs[p];
        os << xbsp::format("proc {} (id {}, entryMk=m{})\n", proc.name,
                          p, proc.entryMarkerId);
        describeStmts(binary, proc.body, 1, os);
    }
    return os.str();
}

} // namespace xbsp::bin
