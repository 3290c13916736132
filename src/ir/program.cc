#include "ir/program.hh"

#include <algorithm>
#include <map>
#include <set>

#include "util/logging.hh"

namespace xbsp::ir
{

MemPattern
withDrift(MemPattern pattern, u32 period, double amp)
{
    pattern.driftPeriod = period;
    pattern.driftAmp = amp;
    return pattern;
}

const Procedure*
Program::findProcedure(const std::string& n) const
{
    for (const auto& proc : procedures) {
        if (proc.name == n)
            return &proc;
    }
    return nullptr;
}

namespace
{

/** DFS colour for cycle detection. */
enum class Colour { White, Grey, Black };

struct Validator
{
    const Program& program;
    std::set<u32> lines;
    std::map<std::string, Colour> colour;
    /** Loop nesting of each validated procedure, callees included. */
    std::map<std::string, u64> nesting;

    explicit Validator(const Program& p) : program(p) {}

    void
    checkLine(u32 line, const std::string& what)
    {
        if (line == 0)
            fatal("program '{}': {} has line 0 (reserved for "
                  "compiler-generated code)", program.name, what);
        if (!lines.insert(line).second)
            fatal("program '{}': duplicate source line {}",
                  program.name, line);
    }

    /** Check `stmts`; return their loop nesting, callees included. */
    u64
    visitStmts(const std::vector<Stmt>& stmts)
    {
        u64 deepest = 0;
        for (const auto& stmt : stmts) {
            if (const auto* blk = std::get_if<Block>(&stmt)) {
                checkLine(blk->line, "block");
                if (blk->instrs == 0)
                    fatal("program '{}': block at line {} has 0 "
                          "instructions", program.name, blk->line);
                if (blk->memOps > blk->instrs)
                    fatal("program '{}': block at line {} has more "
                          "memOps ({}) than instrs ({})", program.name,
                          blk->line, blk->memOps, blk->instrs);
                if (blk->memOps > 0 &&
                    blk->pattern.kind == MemPatternKind::None) {
                    fatal("program '{}': block at line {} has memOps "
                          "but no memory pattern", program.name,
                          blk->line);
                }
                if (blk->pattern.kind != MemPatternKind::None &&
                    blk->pattern.workingSet == 0) {
                    fatal("program '{}': block at line {} has an "
                          "empty working set", program.name, blk->line);
                }
            } else if (const auto* loop = std::get_if<Loop>(&stmt)) {
                checkLine(loop->line, "loop");
                if (loop->tripCount == 0)
                    fatal("program '{}': loop at line {} has trip "
                          "count 0", program.name, loop->line);
                deepest = std::max(deepest, 1 + visitStmts(loop->body));
            } else if (const auto* call = std::get_if<Call>(&stmt)) {
                checkLine(call->line, "call");
                deepest = std::max(deepest, visitProc(call->callee));
            }
        }
        return deepest;
    }

    u64
    visitProc(const std::string& name)
    {
        const Procedure* proc = program.findProcedure(name);
        if (!proc)
            fatal("program '{}': call to undefined procedure '{}'",
                  program.name, name);
        auto it = colour.find(name);
        if (it != colour.end()) {
            if (it->second == Colour::Grey)
                fatal("program '{}': recursive call cycle through "
                      "'{}'", program.name, name);
            return nesting[name]; // already validated
        }
        colour[name] = Colour::Grey;
        nesting[name] = visitStmts(proc->body);
        colour[name] = Colour::Black;
        return nesting[name];
    }
};

InstrCount
countStmts(const Program& program, const std::vector<Stmt>& stmts);

InstrCount
countProc(const Program& program, const std::string& name)
{
    const Procedure* proc = program.findProcedure(name);
    if (!proc)
        fatal("program '{}': call to undefined procedure '{}'",
              program.name, name);
    return countStmts(program, proc->body);
}

InstrCount
countStmts(const Program& program, const std::vector<Stmt>& stmts)
{
    InstrCount total = 0;
    for (const auto& stmt : stmts) {
        if (const auto* blk = std::get_if<Block>(&stmt)) {
            total += blk->instrs;
        } else if (const auto* loop = std::get_if<Loop>(&stmt)) {
            total += loop->tripCount * countStmts(program, loop->body);
        } else if (const auto* call = std::get_if<Call>(&stmt)) {
            total += countProc(program, call->callee);
        }
    }
    return total;
}

} // namespace

void
validate(const Program& program)
{
    if (program.procedures.empty())
        fatal("program '{}' has no procedures", program.name);
    if (!program.findProcedure(program.entry))
        fatal("program '{}' has no entry procedure '{}'",
              program.name, program.entry);
    std::set<std::string> names;
    for (const auto& proc : program.procedures) {
        if (!names.insert(proc.name).second)
            fatal("program '{}': duplicate procedure '{}'",
                  program.name, proc.name);
    }
    Validator v(program);
    const u64 nesting = v.visitProc(program.entry);
    if (nesting > maxLoopNesting)
        fatal("program '{}': loops nest {} deep along a call chain "
              "(limit {})", program.name, nesting, maxLoopNesting);
}

InstrCount
sourceInstructionCount(const Program& program)
{
    return countProc(program, program.entry);
}

} // namespace xbsp::ir
