/**
 * @file
 * Exact pins of both timing cores: the full CoreStats, the full
 * MemoryStats and the summed FLI and VLI interval cycles of
 * sim::runDetailed, for gzip and mcf at scale 0.3 on all four
 * binaries, in-order and decoupled.  Every value is an integer
 * computed from the engine's event stream, so the pins hold on any
 * compiler and host; a change to either core, the hierarchy or the
 * way the detailed walk reaches them moves some value here.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "compile/compiler.hh"
#include "core/mappable.hh"
#include "core/vli.hh"
#include "profile/profile.hh"
#include "sim/detailed.hh"
#include "workloads/workloads.hh"

using namespace xbsp;

namespace
{

/** One detailed run's counters, flattened. */
struct Pin
{
    const char* workload;
    std::size_t binary;
    cpu::CoreKind kind;
    // cpu::CoreStats
    u64 instructions, cycles, memRefs, branches, mispredicts, flushes,
        fetchBubbles;
    // sim::MemoryStats
    u64 refs, l1Hits, l2Hits, l3Hits, dramAccesses, dramWritebacks;
    // Summed interval cycles.
    u64 fliCycles, vliCycles;

    bool operator==(const Pin& other) const
    {
        return std::string(workload) == other.workload &&
               binary == other.binary && kind == other.kind &&
               instructions == other.instructions &&
               cycles == other.cycles && memRefs == other.memRefs &&
               branches == other.branches &&
               mispredicts == other.mispredicts &&
               flushes == other.flushes &&
               fetchBubbles == other.fetchBubbles &&
               refs == other.refs && l1Hits == other.l1Hits &&
               l2Hits == other.l2Hits && l3Hits == other.l3Hits &&
               dramAccesses == other.dramAccesses &&
               dramWritebacks == other.dramWritebacks &&
               fliCycles == other.fliCycles &&
               vliCycles == other.vliCycles;
    }
};

/** The row in this file's table syntax, for a failure message. */
std::string
row(const Pin& p)
{
    std::string out = "{\"" + std::string(p.workload) + "\", " +
                      std::to_string(p.binary) + ", " +
                      (p.kind == cpu::CoreKind::InOrder ? "kInOrder"
                                                        : "kDecoupled");
    for (const u64 v :
         {p.instructions, p.cycles, p.memRefs, p.branches,
          p.mispredicts, p.flushes, p.fetchBubbles, p.refs, p.l1Hits,
          p.l2Hits, p.l3Hits, p.dramAccesses, p.dramWritebacks,
          p.fliCycles, p.vliCycles})
        out += ", " + std::to_string(v) + "u";
    return out + "},";
}

constexpr cpu::CoreKind kInOrder = cpu::CoreKind::InOrder;
constexpr cpu::CoreKind kDecoupled = cpu::CoreKind::Decoupled;

// clang-format off
// Each row: workload, binary, core;
//   CoreStats (instructions, cycles, memRefs, branches, mispredicts,
//              flushes, fetchBubbles);
//   MemoryStats (refs, l1Hits, l2Hits, l3Hits, dramAccesses,
//                dramWritebacks);
//   summed FLI and VLI interval cycles.
const Pin kPins[] = {
    {"gzip", 0, kInOrder,
     2103744u, 11422445u, 1227600u, 0u, 0u, 0u, 0u,
     1227600u, 1072853u, 115533u, 24748u, 14466u, 65u,
     11422445u, 11422445u},
    {"gzip", 0, kDecoupled,
     2103744u, 11539194u, 1227600u, 119720u, 8021u, 8021u, 20497u,
     1227600u, 1072853u, 115533u, 24748u, 14466u, 65u,
     11539194u, 11539194u},
    {"gzip", 1, kInOrder,
     831489u, 6151207u, 241947u, 0u, 0u, 0u, 0u,
     241947u, 160549u, 48684u, 18707u, 14007u, 16u,
     6151207u, 6151207u},
    {"gzip", 1, kDecoupled,
     831489u, 6152713u, 241947u, 72191u, 98u, 98u, 330u,
     241947u, 160549u, 48684u, 18707u, 14007u, 16u,
     6152713u, 6152713u},
    {"gzip", 2, kInOrder,
     1926372u, 10131684u, 896364u, 0u, 0u, 0u, 0u,
     896364u, 750267u, 107744u, 23917u, 14436u, 43u,
     10131684u, 10131684u},
    {"gzip", 2, kDecoupled,
     1926372u, 10244391u, 896364u, 119720u, 8021u, 8021u, 16455u,
     896364u, 750267u, 107744u, 23917u, 14436u, 43u,
     10244391u, 10244391u},
    {"gzip", 3, kInOrder,
     770442u, 6038401u, 187929u, 0u, 0u, 0u, 0u,
     187929u, 98362u, 55972u, 19579u, 14016u, 17u,
     6038401u, 6038401u},
    {"gzip", 3, kDecoupled,
     770442u, 6039881u, 187929u, 72191u, 98u, 98u, 304u,
     187929u, 98362u, 55972u, 19579u, 14016u, 17u,
     6039881u, 6039881u},
    {"mcf", 0, kInOrder,
     1932756u, 59331889u, 1250660u, 0u, 0u, 0u, 0u,
     1250660u, 962950u, 61657u, 13331u, 212722u, 25571u,
     59331889u, 59331889u},
    {"mcf", 0, kDecoupled,
     1932756u, 59346571u, 1250660u, 67828u, 93u, 93u, 13566u,
     1250660u, 962950u, 61657u, 13331u, 212722u, 25571u,
     59346571u, 59346571u},
    {"mcf", 1, kInOrder,
     861998u, 30244663u, 292620u, 0u, 0u, 0u, 0u,
     292620u, 141555u, 19305u, 19778u, 111982u, 10820u,
     30244663u, 30244663u},
    {"mcf", 1, kDecoupled,
     861998u, 30246146u, 292620u, 67828u, 93u, 93u, 367u,
     292620u, 141555u, 19305u, 19778u, 111982u, 10820u,
     30246146u, 30246146u},
    {"mcf", 2, kInOrder,
     1729696u, 63198208u, 935860u, 0u, 0u, 0u, 0u,
     935860u, 653880u, 38583u, 8756u, 234641u, 31970u,
     63198208u, 63198208u},
    {"mcf", 2, kDecoupled,
     1729696u, 63203118u, 935860u, 67828u, 93u, 93u, 3794u,
     935860u, 653880u, 38583u, 8756u, 234641u, 31970u,
     63203118u, 63203118u},
    {"mcf", 3, kInOrder,
     789038u, 38599403u, 253220u, 0u, 0u, 0u, 0u,
     253220u, 76078u, 17174u, 12327u, 147641u, 17660u,
     38599403u, 38599403u},
    {"mcf", 3, kDecoupled,
     789038u, 38600842u, 253220u, 67828u, 93u, 93u, 323u,
     253220u, 76078u, 17174u, 12327u, 147641u, 17660u,
     38600842u, 38600842u},
};
// clang-format on

constexpr InstrCount kInterval = 100000;

u64
sumCycles(const std::vector<sim::IntervalStats>& intervals)
{
    u64 total = 0;
    for (const sim::IntervalStats& interval : intervals)
        total += interval.cycles;
    return total;
}

} // namespace

TEST(CorePins, BothCoresMatchTheirRecordedCounters)
{
    std::size_t checked = 0;
    for (const char* name : {"gzip", "mcf"}) {
        const ir::Program program = workloads::makeWorkload(name, 0.3);
        std::vector<bin::Binary> binaries;
        std::vector<prof::ProfilePass> passes;
        for (const bin::Target target :
             {bin::target32u, bin::target32o, bin::target64u,
              bin::target64o}) {
            binaries.push_back(compile::compileProgram(program, target));
            passes.push_back(
                prof::runProfilePass(binaries.back(), kInterval));
        }
        std::vector<const bin::Binary*> bins;
        std::vector<const prof::MarkerProfile*> profs;
        for (std::size_t i = 0; i < binaries.size(); ++i) {
            bins.push_back(&binaries[i]);
            profs.push_back(&passes[i].markers);
        }
        const core::MappableSet mappable =
            core::findMappablePoints(bins, profs);
        const core::VliBuild vli =
            core::buildVliPartition(binaries[0], mappable, 0, kInterval);

        for (std::size_t b = 0; b < binaries.size(); ++b) {
            for (const cpu::CoreKind kind : {kInOrder, kDecoupled}) {
                sim::DetailedRunRequest request;
                request.fliBoundaries = passes[b].fliBoundaries;
                request.mappable = &mappable;
                request.binaryIdx = b;
                request.partition = &vli.partition;
                request.core = cpu::coreConfigFor(kind);
                const sim::DetailedRunResult run =
                    sim::runDetailed(binaries[b], request);

                const cpu::CoreStats& c = run.totals;
                const sim::MemoryStats& m = run.memory;
                const Pin actual{
                    name, b, kind, c.instructions, c.cycles, c.memRefs,
                    c.branches, c.mispredicts, c.flushes,
                    c.fetchBubbles, m.refs, m.l1Hits, m.l2Hits,
                    m.l3Hits, m.dramAccesses, m.dramWritebacks,
                    sumCycles(run.fliIntervals),
                    sumCycles(run.vliIntervals)};
                const Pin* expected = nullptr;
                for (const Pin& pin : kPins) {
                    if (std::string(pin.workload) == name &&
                        pin.binary == b && pin.kind == kind)
                        expected = &pin;
                }
                ++checked;
                if (expected == nullptr) {
                    ADD_FAILURE() << "no pin for\n" << row(actual);
                    continue;
                }
                EXPECT_EQ(*expected, actual) << "pinned\n"
                                             << row(*expected)
                                             << "\nmeasured\n"
                                             << row(actual);
                EXPECT_EQ(actual.fliCycles, c.cycles);
                EXPECT_EQ(actual.vliCycles, c.cycles);
            }
        }
    }
    EXPECT_EQ(checked, std::size(kPins));
}
