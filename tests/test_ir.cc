/**
 * @file
 * Unit tests for the program IR, the builder DSL and validation.
 */

#include <functional>
#include <set>

#include <gtest/gtest.h>

#include "ir/builder.hh"
#include "test_support.hh"

using namespace xbsp;
using namespace xbsp::ir;

TEST(IrBuilder, LinesUniqueAndIncreasing)
{
    const Program p = test::tinyProgram();
    std::vector<u32> lines;
    std::function<void(const std::vector<Stmt>&)> walk =
        [&](const std::vector<Stmt>& stmts) {
            for (const auto& stmt : stmts) {
                if (const auto* blk = std::get_if<Block>(&stmt)) {
                    lines.push_back(blk->line);
                } else if (const auto* loop = std::get_if<Loop>(&stmt)) {
                    lines.push_back(loop->line);
                    walk(loop->body);
                } else if (const auto* call = std::get_if<Call>(&stmt)) {
                    lines.push_back(call->line);
                }
            }
        };
    for (const auto& proc : p.procedures)
        walk(proc.body);
    std::set<u32> unique(lines.begin(), lines.end());
    EXPECT_EQ(unique.size(), lines.size());
    for (u32 line : lines)
        EXPECT_GT(line, 0u);
}

TEST(IrBuilder, SourceInstructionCount)
{
    const Program p = test::tinyProgram();
    // setup: 50*20; per outer iter: work 100*30 + tail 8; outer 10x.
    EXPECT_EQ(sourceInstructionCount(p),
              50u * 20 + 10u * (100 * 30 + 8));
}

TEST(IrBuilder, FindProcedure)
{
    const Program p = test::tinyProgram();
    EXPECT_NE(p.findProcedure("work"), nullptr);
    EXPECT_EQ(p.findProcedure("nope"), nullptr);
}

TEST(IrBuilder, PatternHelpers)
{
    const MemPattern s = stridePattern(3, 1_MiB, 16, 0.4, 0.7);
    EXPECT_EQ(s.kind, MemPatternKind::Stride);
    EXPECT_EQ(s.regionId, 3u);
    EXPECT_EQ(s.workingSet, 1u << 20);
    EXPECT_EQ(s.stride, 16u);
    EXPECT_DOUBLE_EQ(s.writeFraction, 0.4);
    EXPECT_DOUBLE_EQ(s.pointerScale, 0.7);

    const MemPattern r = randomPattern(1, 4_KiB);
    EXPECT_EQ(r.kind, MemPatternKind::RandomInSet);
    const MemPattern c = chasePattern(1, 4_KiB);
    EXPECT_EQ(c.kind, MemPatternKind::PointerChase);
    const MemPattern g = gatherPattern(1, 4_KiB, 0.8);
    EXPECT_EQ(g.kind, MemPatternKind::Gather);
    EXPECT_DOUBLE_EQ(g.hotFraction, 0.8);
}

TEST(IrBuilder, WithDrift)
{
    const MemPattern p =
        withDrift(stridePattern(1, 4_KiB), 500, 0.25);
    EXPECT_EQ(p.driftPeriod, 500u);
    EXPECT_DOUBLE_EQ(p.driftAmp, 0.25);
}

TEST(IrValidate, MissingEntryFatal)
{
    Program p;
    p.name = "bad";
    p.entry = "main";
    Procedure proc;
    proc.name = "notmain";
    p.procedures.push_back(proc);
    EXPECT_EXIT(validate(p), ::testing::ExitedWithCode(1),
                "no entry procedure");
}

TEST(IrValidate, UnresolvedCallFatal)
{
    ProgramBuilder b("bad");
    b.procedure("main").call("ghost");
    EXPECT_EXIT((void)b.build(), ::testing::ExitedWithCode(1),
                "undefined procedure");
}

TEST(IrValidate, RecursionFatal)
{
    ProgramBuilder b("bad");
    b.procedure("main").call("a");
    b.procedure("a").call("b");
    b.procedure("b").call("a");
    EXPECT_EXIT((void)b.build(), ::testing::ExitedWithCode(1),
                "recursive");
}

TEST(IrValidate, ZeroTripLoopFatal)
{
    ProgramBuilder b("bad");
    b.procedure("main").loop(0, [](StmtSeq& s) { s.compute(1); });
    EXPECT_EXIT((void)b.build(), ::testing::ExitedWithCode(1),
                "trip");
}

TEST(IrValidate, MemOpsWithoutPatternFatal)
{
    ProgramBuilder b("bad");
    b.procedure("main").block(10, 5);
    EXPECT_EXIT((void)b.build(), ::testing::ExitedWithCode(1),
                "no memory pattern");
}

TEST(IrValidate, MemOpsExceedInstrsFatal)
{
    ProgramBuilder b("bad");
    b.procedure("main").block(4, 5, stridePattern(1, 4_KiB));
    EXPECT_EXIT((void)b.build(), ::testing::ExitedWithCode(1),
                "more");
}

TEST(IrValidate, DuplicateProcedureFatal)
{
    ProgramBuilder b("bad");
    b.procedure("main").compute(1);
    EXPECT_EXIT(b.procedure("main"), ::testing::ExitedWithCode(1),
                "declared twice");
}

TEST(IrValidate, LoopNestingLimitCountsCallChains)
{
    // Loops inside a callee add to the loops around its call site.
    const Program atLimit = test::deepProgram(200, maxLoopNesting - 200);
    EXPECT_EQ(sourceInstructionCount(atLimit), 3u);
    EXPECT_EXIT((void)test::deepProgram(200, maxLoopNesting - 199),
                ::testing::ExitedWithCode(1), "nest 257 deep");
    EXPECT_EXIT((void)test::deepProgram(maxLoopNesting + 1, 0),
                ::testing::ExitedWithCode(1), "nest 257 deep");
}

TEST(IrValidate, TinyAndTrickyValidate)
{
    // Building already validates; reaching here means success.
    (void)test::tinyProgram();
    (void)test::trickyProgram();
    SUCCEED();
}
