/**
 * @file
 * Component micro-benchmarks (google-benchmark): throughput of the
 * building blocks the studies spend their time in — cache hierarchy
 * accesses, address generation, execution-engine interpretation,
 * random projection and k-means.
 */

#include <benchmark/benchmark.h>

#include "cache/hierarchy.hh"
#include "compile/compiler.hh"
#include "exec/engine.hh"
#include "mem/pattern.hh"
#include "sim/detailed.hh"
#include "simpoint/simpoint.hh"
#include "workloads/workloads.hh"

using namespace xbsp;

namespace
{

void
BM_CacheHierarchyAccess(benchmark::State& state)
{
    cache::Hierarchy hierarchy;
    Rng rng(1);
    const u64 lines = static_cast<u64>(state.range(0)) * 1024 / 64;
    u64 count = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            hierarchy.access(rng.nextBelow(lines) * 64, false));
        ++count;
    }
    state.SetItemsProcessed(static_cast<i64>(count));
}
BENCHMARK(BM_CacheHierarchyAccess)->Arg(16)->Arg(256)->Arg(4096);

void
BM_AddressGenerator(benchmark::State& state)
{
    ir::MemPattern pattern;
    pattern.kind = static_cast<ir::MemPatternKind>(state.range(0));
    pattern.regionId = 1;
    pattern.workingSet = 1 << 20;
    pattern.writeFraction = 0.3;
    mem::AddressGenerator gen(pattern, 7);
    u64 count = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(gen.next());
        ++count;
    }
    state.SetItemsProcessed(static_cast<i64>(count));
}
BENCHMARK(BM_AddressGenerator)
    ->Arg(static_cast<int>(ir::MemPatternKind::Stride))
    ->Arg(static_cast<int>(ir::MemPatternKind::RandomInSet))
    ->Arg(static_cast<int>(ir::MemPatternKind::PointerChase))
    ->Arg(static_cast<int>(ir::MemPatternKind::Gather));

void
BM_EngineProfileRun(benchmark::State& state)
{
    const ir::Program program = workloads::makeWorkload("gzip", 0.1);
    const bin::Binary binary =
        compile::compileProgram(program, bin::target32o);
    InstrCount instrs = 0;
    for (auto _ : state) {
        exec::Engine engine(binary);
        engine.run();
        instrs += engine.instructionsExecuted();
    }
    state.SetItemsProcessed(static_cast<i64>(instrs));
}
BENCHMARK(BM_EngineProfileRun)->Unit(benchmark::kMillisecond);

void
BM_EngineDetailedRun(benchmark::State& state)
{
    const ir::Program program = workloads::makeWorkload("gzip", 0.1);
    const bin::Binary binary =
        compile::compileProgram(program, bin::target32o);
    InstrCount instrs = 0;
    for (auto _ : state)
        instrs += sim::runDetailed(binary, {}).totals.instructions;
    state.SetItemsProcessed(static_cast<i64>(instrs));
}
BENCHMARK(BM_EngineDetailedRun)->Unit(benchmark::kMillisecond);

sp::FrequencyVectorSet
syntheticIntervals(std::size_t count, u32 dimension)
{
    Rng rng(99);
    sp::FrequencyVectorSet fvs;
    fvs.dimension = dimension;
    for (std::size_t i = 0; i < count; ++i) {
        sp::SparseVec vec;
        for (u32 d = 0; d < dimension; d += 7)
            vec.emplace_back(d, rng.nextDouble(0.0, 100.0));
        fvs.addInterval(std::move(vec), 250000);
    }
    return fvs;
}

void
BM_SimPointPick(benchmark::State& state)
{
    const sp::FrequencyVectorSet fvs = syntheticIntervals(
        static_cast<std::size_t>(state.range(0)), 300);
    sp::SimPointOptions options;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            sp::pickSimulationPoints(fvs, options));
    }
}
BENCHMARK(BM_SimPointPick)->Arg(50)->Arg(200)->Arg(800)
    ->Unit(benchmark::kMillisecond);

void
BM_Projection(benchmark::State& state)
{
    const sp::FrequencyVectorSet fvs = syntheticIntervals(
        static_cast<std::size_t>(state.range(0)), 300);
    for (auto _ : state)
        benchmark::DoNotOptimize(sp::project(fvs, 15, 42));
}
BENCHMARK(BM_Projection)->Arg(100)->Arg(1000);

void
BM_CompileAllTargets(benchmark::State& state)
{
    const ir::Program program = workloads::makeWorkload("gcc", 1.0);
    for (auto _ : state)
        benchmark::DoNotOptimize(compile::compileAllTargets(program));
}
BENCHMARK(BM_CompileAllTargets)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
