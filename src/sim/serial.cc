#include "sim/serial.hh"

#include "cpu/serial.hh"

namespace xbsp::sim
{

namespace
{

void
encodeIntervals(serial::Encoder& e,
                const std::vector<IntervalStats>& intervals)
{
    e.varint(intervals.size());
    for (const IntervalStats& stats : intervals) {
        e.varint(stats.instrs);
        e.varint(stats.cycles);
    }
}

std::vector<IntervalStats>
decodeIntervals(serial::Decoder& d)
{
    const u64 n = d.arrayCount(2);
    std::vector<IntervalStats> intervals;
    intervals.reserve(static_cast<std::size_t>(n));
    for (u64 i = 0; i < n; ++i) {
        IntervalStats stats;
        stats.instrs = d.varint();
        stats.cycles = d.varint();
        intervals.push_back(stats);
    }
    return intervals;
}

void
hashLevel(serial::Hasher& h, const cache::LevelConfig& level)
{
    h.str(level.name);
    h.u64v(level.capacityBytes);
    h.u32v(level.associativity);
    h.u32v(level.lineSize);
    h.u64v(level.hitLatency);
}

} // namespace

void
encodeDetailedRun(serial::Encoder& e, const DetailedRunResult& r)
{
    cpu::encodeCoreStats(e, r.totals);
    e.varint(r.memory.refs);
    e.varint(r.memory.l1Hits);
    e.varint(r.memory.l2Hits);
    e.varint(r.memory.l3Hits);
    e.varint(r.memory.dramAccesses);
    e.varint(r.memory.dramWritebacks);
    encodeIntervals(e, r.fliIntervals);
    encodeIntervals(e, r.vliIntervals);
}

DetailedRunResult
decodeDetailedRun(serial::Decoder& d)
{
    DetailedRunResult r;
    r.totals = cpu::decodeCoreStats(d);
    r.memory.refs = d.varint();
    r.memory.l1Hits = d.varint();
    r.memory.l2Hits = d.varint();
    r.memory.l3Hits = d.varint();
    r.memory.dramAccesses = d.varint();
    r.memory.dramWritebacks = d.varint();
    r.fliIntervals = decodeIntervals(d);
    r.vliIntervals = decodeIntervals(d);
    return r;
}

void
hashHierarchy(serial::Hasher& h, const cache::HierarchyConfig& config)
{
    hashLevel(h, config.l1);
    hashLevel(h, config.l2);
    hashLevel(h, config.l3);
    h.u64v(config.dramLatency);
}

namespace
{

void
encodeLevel(serial::Encoder& e, const cache::LevelConfig& level)
{
    e.str(level.name);
    e.varint(level.capacityBytes);
    e.varint(level.associativity);
    e.varint(level.lineSize);
    e.varint(level.hitLatency);
}

cache::LevelConfig
decodeLevel(serial::Decoder& d)
{
    cache::LevelConfig level;
    level.name = d.str();
    level.capacityBytes = d.varint();
    level.associativity = static_cast<u32>(d.varint());
    level.lineSize = static_cast<u32>(d.varint());
    level.hitLatency = d.varint();
    return level;
}

} // namespace

void
encodeStudyConfig(serial::Encoder& e, const StudyConfig& c)
{
    e.varint(c.intervalTarget);
    e.varint(c.simpoint.maxK);
    e.varint(c.simpoint.projectedDims);
    e.varint(c.simpoint.seedsPerK);
    e.f64(c.simpoint.bicThreshold);
    e.varint(c.simpoint.seed);
    e.varint(static_cast<u64>(c.simpoint.init));
    e.varint(c.simpoint.maxIterations);
    e.boolean(c.simpoint.earlyPoints);
    e.f64(c.simpoint.earlyTolerance);
    e.varint(c.primaryIdx);
    encodeLevel(e, c.memory.l1);
    encodeLevel(e, c.memory.l2);
    encodeLevel(e, c.memory.l3);
    e.varint(c.memory.dramLatency);
    e.boolean(c.compileOptions.enableInlining);
    e.boolean(c.compileOptions.enableUnrolling);
    e.boolean(c.compileOptions.enableLoopSplitting);
    e.varint(c.compileOptions.unrollFactor);
    e.varint(c.compileOptions.jitterSeed);
    e.varint(c.engineSeed);
    e.boolean(c.detailed);
    cpu::encodeCoreConfig(e, c.core);
}

StudyConfig
decodeStudyConfig(serial::Decoder& d)
{
    StudyConfig c;
    c.intervalTarget = d.varint();
    c.simpoint.maxK = static_cast<u32>(d.varint());
    c.simpoint.projectedDims = static_cast<u32>(d.varint());
    c.simpoint.seedsPerK = static_cast<u32>(d.varint());
    c.simpoint.bicThreshold = d.f64();
    c.simpoint.seed = d.varint();
    const u64 init = d.varint();
    if (init > static_cast<u64>(sp::InitMethod::RandomPartition))
        throw serial::DecodeError("bad InitMethod");
    c.simpoint.init = static_cast<sp::InitMethod>(init);
    c.simpoint.maxIterations = static_cast<u32>(d.varint());
    c.simpoint.earlyPoints = d.boolean();
    c.simpoint.earlyTolerance = d.f64();
    c.primaryIdx = static_cast<std::size_t>(d.varint());
    c.memory.l1 = decodeLevel(d);
    c.memory.l2 = decodeLevel(d);
    c.memory.l3 = decodeLevel(d);
    c.memory.dramLatency = d.varint();
    c.compileOptions.enableInlining = d.boolean();
    c.compileOptions.enableUnrolling = d.boolean();
    c.compileOptions.enableLoopSplitting = d.boolean();
    c.compileOptions.unrollFactor = static_cast<u32>(d.varint());
    c.compileOptions.jitterSeed = d.varint();
    c.engineSeed = d.varint();
    c.detailed = d.boolean();
    c.core = cpu::decodeCoreConfig(d);
    return c;
}

} // namespace xbsp::sim
