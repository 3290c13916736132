/**
 * @file
 * Skip-ahead equivalence: the engine's bulk steps over quiet loop
 * trips and calls must leave every skipping sink — the marker
 * profiler, the FLI and VLI BBV collectors and the boundary tracker —
 * in exactly the state the per-event walk leaves, and must keep every
 * misordering panic.  The reference run wraps each sink in
 * test::PerEvent, which has no bulk members, so the engine walks
 * every event for it.
 */

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/mappable.hh"
#include "core/vli.hh"
#include "exec/engine.hh"
#include "obs/stats.hh"
#include "profile/profile.hh"
#include "test_support.hh"
#include "workloads/workloads.hh"

using namespace xbsp;

namespace
{

/** The engine's exact counters, as deltas over one run. */
struct EngineTally
{
    u64 blocks = 0;
    u64 instrs = 0;
    u64 markers = 0;
    u64 bulkInstrs = 0;
    u64 bulkTrips = 0;

    bool
    sameWalk(const EngineTally& other) const
    {
        return blocks == other.blocks && instrs == other.instrs &&
               markers == other.markers;
    }
};

EngineTally
readTally()
{
    const obs::StatRegistry& reg = obs::StatRegistry::global();
    return {reg.counterValue("engine.blocks"),
            reg.counterValue("engine.instrs"),
            reg.counterValue("engine.markers"),
            reg.counterValue("engine.instrs.bulk"),
            reg.counterValue("engine.trips.bulk")};
}

/** Run `fn` and return the engine counters it added. */
template <typename Fn>
EngineTally
tallyOf(Fn&& fn)
{
    const EngineTally before = readTally();
    fn();
    const EngineTally after = readTally();
    return {after.blocks - before.blocks, after.instrs - before.instrs,
            after.markers - before.markers,
            after.bulkInstrs - before.bulkInstrs,
            after.bulkTrips - before.bulkTrips};
}

/** runProfilePass's collectors, walked event by event. */
prof::ProfilePass
profilePerEvent(const bin::Binary& binary, InstrCount target)
{
    exec::Engine engine(binary);
    prof::MarkerProfiler markers(binary);
    prof::FliBbvCollector bbv(engine, target);
    test::PerEvent m(markers);
    test::PerEvent b(bbv);
    test::FanOut both(m, b);
    engine.runWith(both);
    markers.finish(engine.instructionsExecuted());
    return {markers.result(), bbv.takeIntervals(), bbv.boundaries(),
            engine.instructionsExecuted()};
}

/** buildVliPartition, walked event by event. */
core::VliBuild
vliPerEvent(const bin::Binary& binary, const core::MappableSet& set,
            std::size_t idx, InstrCount target)
{
    exec::Engine engine(binary);
    core::VliBbvCollector collector(engine, set, idx, target);
    test::PerEvent wrapped(collector);
    engine.runWith(wrapped);
    return {collector.partition(), collector.takeIntervals(),
            engine.instructionsExecuted()};
}

/** Where each boundary was crossed, and whether all were. */
struct Crossings
{
    std::vector<std::pair<std::size_t, InstrCount>> at;
    bool finished = false;

    bool operator==(const Crossings&) const = default;
};

/** Replay `partition` in `binary`, with or without bulk steps. */
Crossings
replay(const bin::Binary& binary, const core::MappableSet& set,
       std::size_t idx, const core::VliPartition& partition,
       bool perEvent)
{
    exec::Engine engine(binary);
    Crossings out;
    core::BoundaryTracker tracker(set, idx, partition,
                                  [&](std::size_t i) {
                                      out.at.emplace_back(
                                          i, engine.instructionsExecuted());
                                  });
    if (perEvent) {
        test::PerEvent wrapped(tracker);
        engine.runWith(wrapped);
    } else {
        engine.runWith(tracker);
    }
    out.finished = tracker.finished();
    return out;
}

void
expectSameProfile(const prof::ProfilePass& skip,
                  const prof::ProfilePass& ref, const std::string& what)
{
    EXPECT_EQ(skip.markers.counts, ref.markers.counts) << what;
    EXPECT_EQ(skip.markers.totalInstructions,
              ref.markers.totalInstructions) << what;
    EXPECT_TRUE(skip.fliIntervals == ref.fliIntervals) << what;
    EXPECT_EQ(skip.fliBoundaries, ref.fliBoundaries) << what;
    EXPECT_EQ(skip.totalInstructions, ref.totalInstructions) << what;
}

void
expectSameVli(const core::VliBuild& skip, const core::VliBuild& ref,
              const std::string& what)
{
    EXPECT_EQ(skip.partition.boundaries, ref.partition.boundaries) << what;
    EXPECT_TRUE(skip.intervals == ref.intervals) << what;
    EXPECT_EQ(skip.totalInstructions, ref.totalInstructions) << what;
}

/**
 * The profile pass, VLI build and boundary replays of the four
 * binaries of `program` at `target`, each against its per-event
 * reference, engine counters included.  Returns the instructions
 * the skipping runs applied in bulk.
 */
u64
checkProgram(const ir::Program& program, InstrCount target)
{
    const std::vector<bin::Binary> bins = test::compileFour(program);
    u64 bulk = 0;
    std::vector<prof::ProfilePass> passes;
    for (const bin::Binary& binary : bins) {
        const std::string what =
            binary.displayName() + " @" + std::to_string(target);
        prof::ProfilePass skip;
        const EngineTally fast = tallyOf(
            [&] { skip = prof::runProfilePass(binary, target); });
        prof::ProfilePass ref;
        const EngineTally slow =
            tallyOf([&] { ref = profilePerEvent(binary, target); });
        expectSameProfile(skip, ref, what + " profile");
        EXPECT_TRUE(fast.sameWalk(slow)) << what << " profile";
        EXPECT_EQ(slow.bulkInstrs, 0u) << what;
        bulk += fast.bulkInstrs;
        passes.push_back(std::move(skip));
    }

    std::vector<const bin::Binary*> binPtrs;
    std::vector<const prof::MarkerProfile*> profPtrs;
    for (std::size_t b = 0; b < bins.size(); ++b) {
        binPtrs.push_back(&bins[b]);
        profPtrs.push_back(&passes[b].markers);
    }
    const core::MappableSet set =
        core::findMappablePoints(binPtrs, profPtrs);
    const std::string name =
        program.name + " @" + std::to_string(target);

    core::VliBuild vli;
    const EngineTally fast = tallyOf(
        [&] { vli = core::buildVliPartition(bins[0], set, 0, target); });
    core::VliBuild ref;
    const EngineTally slow =
        tallyOf([&] { ref = vliPerEvent(bins[0], set, 0, target); });
    expectSameVli(vli, ref, name + " vli");
    EXPECT_TRUE(fast.sameWalk(slow)) << name << " vli";
    bulk += fast.bulkInstrs;

    for (std::size_t b = 0; b < bins.size(); ++b) {
        Crossings skip;
        const EngineTally fastB = tallyOf([&] {
            skip = replay(bins[b], set, b, vli.partition, false);
        });
        Crossings perEvent;
        const EngineTally slowB = tallyOf([&] {
            perEvent = replay(bins[b], set, b, vli.partition, true);
        });
        EXPECT_TRUE(perEvent.finished) << bins[b].displayName();
        EXPECT_EQ(skip, perEvent) << bins[b].displayName() << " replay";
        EXPECT_TRUE(fastB.sameWalk(slowB)) << bins[b].displayName();
        bulk += fastB.bulkInstrs;
    }
    return bulk;
}

/**
 * Builds a binary by hand, so trip lengths can land exactly on
 * interval targets.  Proc 0 is main; statements belong to it unless
 * given another proc.
 */
class HandBinary
{
  public:
    HandBinary()
    {
        binary.programName = "hand";
        binary.entryProcId = proc("main");
    }

    u32
    proc(const std::string& name)
    {
        const u32 id = static_cast<u32>(binary.procs.size());
        binary.procs.push_back({name, marker(bin::MarkerKind::ProcEntry,
                                             name, 0, id),
                                {}});
        return id;
    }

    u32
    marker(bin::MarkerKind kind, const std::string& symbol, u32 line,
           u32 procId)
    {
        binary.markers.push_back({kind, symbol, line, procId});
        return static_cast<u32>(binary.markers.size() - 1);
    }

    u32
    block(u32 instrs, u32 procId)
    {
        bin::MachineBlock blk;
        blk.instrs = instrs;
        blk.procId = procId;
        binary.blocks.push_back(blk);
        return static_cast<u32>(binary.blocks.size() - 1);
    }

    bin::MachineStmt
    blockStmt(u32 instrs, u32 procId = 0)
    {
        return bin::BlockRef{block(instrs, procId)};
    }

    /** A loop of `trips` over `body`, with a 1-instruction branch. */
    bin::MachineStmt
    loop(u64 trips, std::vector<bin::MachineStmt> body, u32 line,
         u32 procId = 0)
    {
        bin::MachineLoop l;
        l.entryMarkerId =
            marker(bin::MarkerKind::LoopEntry, "", line, procId);
        l.branchMarkerId =
            marker(bin::MarkerKind::LoopBranch, "", line, procId);
        l.branchBlockId = block(1, procId);
        l.tripCount = trips;
        l.body = std::move(body);
        return l;
    }

    bin::Binary
    build(std::vector<bin::MachineStmt> mainBody)
    {
        binary.procs[0].body = std::move(mainBody);
        bin::checkBinary(binary);
        return binary;
    }

    bin::Binary binary;
};

/**
 * A mappable set over one binary in which every marker is its own
 * point, except that the markers in `merged` share one point.
 */
core::MappableSet
mapEveryMarker(const bin::Binary& binary, const std::vector<u32>& merged)
{
    const prof::MarkerProfile profile = test::profileMarkers(binary);
    core::MappableSet set;
    set.binaryCount = 1;
    set.markerToPoint.assign(1, std::vector<u32>(binary.markerCount(),
                                                 invalidId));
    for (u32 m = 0; m < binary.markerCount(); ++m) {
        const bool shared =
            std::find(merged.begin(), merged.end(), m) != merged.end();
        if (shared && m != merged.front()) {
            const u32 p = set.markerToPoint[0][merged.front()];
            set.points[p].markerIds[0].push_back(m);
            set.points[p].execCount += profile.counts[m];
            set.markerToPoint[0][m] = p;
            continue;
        }
        core::MappablePoint point;
        point.key = {binary.markers[m].kind, binary.markers[m].symbol,
                     m + 1};
        point.execCount = profile.counts[m];
        point.markerIds = {{m}};
        set.markerToPoint[0][m] = static_cast<u32>(set.points.size());
        set.points.push_back(point);
    }
    return set;
}

/** Profile, VLI build and replay of a one-binary hand-built set. */
void
checkHandBuilt(const bin::Binary& binary, const core::MappableSet& set,
               InstrCount target)
{
    const std::string what = "target " + std::to_string(target);
    expectSameProfile(prof::runProfilePass(binary, target),
                      profilePerEvent(binary, target), what);
    const core::VliBuild vli =
        core::buildVliPartition(binary, set, 0, target);
    expectSameVli(vli, vliPerEvent(binary, set, 0, target), what);
    const Crossings skip = replay(binary, set, 0, vli.partition, false);
    EXPECT_TRUE(skip.finished) << what;
    EXPECT_EQ(skip, replay(binary, set, 0, vli.partition, true)) << what;
}

/**
 * main: loop 7x { loop 5x { block 9 } ; call leaf ; block 3 }
 * leaf: loop 4x { block 2 }
 */
bin::Binary
nestedWithCall()
{
    HandBinary b;
    const u32 leaf = b.proc("leaf");
    b.binary.procs[leaf].body = {
        b.loop(4, {b.blockStmt(2, leaf)}, 30, leaf)};
    std::vector<bin::MachineStmt> outer;
    outer.push_back(b.loop(5, {b.blockStmt(9)}, 11));
    outer.push_back(bin::MachineCall{leaf});
    outer.push_back(b.blockStmt(3));
    return b.build({b.loop(7, std::move(outer), 10)});
}

} // namespace

TEST(SkipAhead, SuiteMatchesPerEventWalk)
{
    // Every workload x binary at three interval targets: 2 000 (the
    // fine_phases grain), 250 000 (the paper's) and 777 (shorter
    // than many trips, so bulk steps and per-event trips interleave).
    u64 bulk = 0;
    for (const workloads::WorkloadInfo& info : workloads::suite()) {
        const ir::Program program = info.factory(0.25);
        for (const InstrCount target : {2000u, 250000u, 777u})
            bulk += checkProgram(program, target);
    }
    EXPECT_GT(bulk, 0u);
}

TEST(SkipAhead, NestedLoopsAndCallInsideLoop)
{
    const bin::Binary binary = nestedWithCall();
    const core::MappableSet set = mapEveryMarker(binary, {});
    for (InstrCount target = 1; target <= 200; ++target)
        checkHandBuilt(binary, set, target);
}

TEST(SkipAhead, TripEndingExactlyAtTargetOrOneShort)
{
    // One trip is 9 + 1 = 10 instructions, so with target 30 the
    // third trip ends exactly at the target, and with target 31 one
    // short of it.
    HandBinary b;
    const bin::Binary binary = b.build({b.loop(20, {b.blockStmt(9)}, 5)});
    const core::MappableSet set = mapEveryMarker(binary, {});

    const prof::ProfilePass at = prof::runProfilePass(binary, 30);
    EXPECT_EQ(at.fliBoundaries,
              (std::vector<InstrCount>{30, 60, 90, 120, 150, 180, 200}));
    const prof::ProfilePass shortOf = prof::runProfilePass(binary, 31);
    EXPECT_EQ(shortOf.fliBoundaries,
              (std::vector<InstrCount>{39, 70, 109, 140, 179, 200}));
    for (const InstrCount target : {29u, 30u, 31u, 39u, 40u, 41u}) {
        checkHandBuilt(binary, set, target);
    }
}

TEST(SkipAhead, TwoMarkersMappingToOnePoint)
{
    // Two clone loops whose branch markers form one point: each
    // trip's firings of the point add up across both.
    HandBinary b;
    std::vector<bin::MachineStmt> body;
    body.push_back(b.loop(3, {b.blockStmt(4)}, 21));
    body.push_back(b.loop(2, {b.blockStmt(6)}, 21));
    const bin::Binary binary = b.build({b.loop(9, std::move(body), 20)});
    const u32 first = std::get<bin::MachineLoop>(
        std::get<bin::MachineLoop>(binary.procs[0].body[0]).body[0])
        .branchMarkerId;
    const u32 second = std::get<bin::MachineLoop>(
        std::get<bin::MachineLoop>(binary.procs[0].body[0]).body[1])
        .branchMarkerId;
    const core::MappableSet set = mapEveryMarker(binary, {first, second});
    ASSERT_EQ(set.pointFor(0, first), set.pointFor(0, second));
    for (InstrCount target = 1; target <= 120; ++target)
        checkHandBuilt(binary, set, target);
}

TEST(SkipAhead, CallToEmptyProcedure)
{
    // A call to a procedure with no body is a zero-instruction trip
    // that still fires the procedure's entry marker: once the open
    // VLI interval has reached its target, that firing closes it.
    // main: block 5 ; block 7 ; call empty ; loop 3x { block 4 ;
    //       call empty } ; block 2
    HandBinary b;
    const u32 empty = b.proc("empty");
    std::vector<bin::MachineStmt> body;
    body.push_back(b.blockStmt(4));
    body.push_back(bin::MachineCall{empty});
    std::vector<bin::MachineStmt> mainBody;
    mainBody.push_back(b.blockStmt(5));
    mainBody.push_back(b.blockStmt(7));
    mainBody.push_back(bin::MachineCall{empty});
    mainBody.push_back(b.loop(3, std::move(body), 40));
    mainBody.push_back(b.blockStmt(2));
    const bin::Binary binary = b.build(std::move(mainBody));
    const core::MappableSet set = mapEveryMarker(binary, {});
    // Targets up to 12 close an interval at the first call's firing;
    // larger ones reach it with the interval still short.
    for (InstrCount target = 1; target <= 40; ++target)
        checkHandBuilt(binary, set, target);
    const core::VliBuild vli = core::buildVliPartition(binary, set, 0, 12);
    ASSERT_FALSE(vli.partition.boundaries.empty());
    EXPECT_EQ(vli.partition.boundaries.front().pointIdx,
              set.pointFor(0, binary.procs[empty].entryMarkerId));
}

TEST(SkipAhead, QuietSinkWalksTheWholeRunInOneStep)
{
    const bin::Binary binary = nestedWithCall();
    prof::MarkerProfiler markers(binary);
    const EngineTally tally = tallyOf([&] {
        exec::Engine engine(binary);
        engine.runWith(markers);
    });
    EXPECT_EQ(tally.bulkTrips, 1u);
    EXPECT_EQ(tally.bulkInstrs, tally.instrs);
    EXPECT_EQ(markers.result().counts,
              test::profileMarkers(binary).counts);
}

TEST(SkipAhead, SinkWithoutBulkKeepsEveryEvent)
{
    // One fanned-out sink without bulk members is enough to keep the
    // walk per event for every sink.
    const bin::Binary binary = nestedWithCall();
    prof::MarkerProfiler markers(binary);
    test::PerEvent declines(markers);
    prof::MarkerProfiler other(binary);
    const EngineTally tally = tallyOf([&] {
        exec::Engine engine(binary);
        test::FanOut both(other, declines);
        engine.runWith(both);
    });
    EXPECT_EQ(tally.bulkTrips, 0u);
    EXPECT_EQ(other.result().counts, markers.result().counts);
}

namespace
{

/**
 * main: loop 10x { loop 10x { block 3 } }, every marker its own
 * point, with the two loops' branch points.
 */
struct NestedReplay
{
    bin::Binary binary;
    core::MappableSet set;
    u32 inner = 0;
    u32 outer = 0;

    NestedReplay()
    {
        HandBinary b;
        binary = b.build(
            {b.loop(10, {b.loop(10, {b.blockStmt(3)}, 2)}, 1)});
        set = mapEveryMarker(binary, {});
        const auto& outerLoop =
            std::get<bin::MachineLoop>(binary.procs[0].body[0]);
        outer = set.pointFor(0, outerLoop.branchMarkerId);
        inner = set.pointFor(
            0, std::get<bin::MachineLoop>(outerLoop.body[0])
                   .branchMarkerId);
    }

    void
    run(const core::VliPartition& partition, bool perEvent) const
    {
        (void)replay(binary, set, 0, partition, perEvent);
    }
};

} // namespace

TEST(SkipAheadDeathTest, SwappedBoundariesPanic)
{
    const NestedReplay r;
    // Swapped: (inner, 20) is expected first, crossed, and then the
    // inner point's 21st firing overshoots (inner, 10).
    core::VliPartition swapped;
    swapped.boundaries = {{r.inner, 20}, {r.inner, 10}, {r.inner, 30}};
    const char* message =
        "boundary 1 .* firing 10\\) was missed: point is now at firing 21 ";
    EXPECT_DEATH(r.run(swapped, true), message);
    EXPECT_DEATH(r.run(swapped, false), message);
}

TEST(SkipAheadDeathTest, RepeatedBoundaryPanics)
{
    const NestedReplay r;
    // The second (inner, 20) becomes the next boundary with its point
    // already at firing 20, so the very next firing overshoots it.
    core::VliPartition repeated;
    repeated.boundaries = {{r.inner, 20}, {r.inner, 20}};
    const char* message =
        "boundary 1 .* firing 20\\) was missed: point is now at firing 21 ";
    EXPECT_DEATH(r.run(repeated, true), message);
    EXPECT_DEATH(r.run(repeated, false), message);
}

TEST(SkipAheadDeathTest, FireCountMovedPastItsFiringPanics)
{
    const NestedReplay r;
    // (inner, 25) precedes (outer, 3); moving it to (inner, 35) puts
    // it after the outer point's third firing, so (outer, 3) is
    // overshot at that point's next firing.
    core::VliPartition moved;
    moved.boundaries = {{r.inner, 35}, {r.outer, 3}};
    const char* message =
        "boundary 1 .* firing 3\\) was missed: point is now at firing 4 ";
    EXPECT_DEATH(r.run(moved, true), message);
    EXPECT_DEATH(r.run(moved, false), message);
}

namespace
{

/** Counts point firings and finds the one the tracker dies at. */
class FiringWatch : public exec::SinkBase
{
  public:
    FiringWatch(const core::MappableSet& set, core::Boundary after,
                u32 watched)
        : mappable(set), reached(after), point(watched),
          counts(set.points.size(), 0)
    {
    }

    bool wantsBlocks() const { return false; }
    bool wantsMems() const { return false; }
    bool wantsMarkers() const { return true; }

    void
    onMarker(u32 markerId)
    {
        const u32 p = mappable.pointFor(1, markerId);
        if (p == invalidId)
            return;
        const u64 count = ++counts[p];
        if (p == point && passed && found == 0)
            found = count;
        if (p == reached.pointIdx && count == reached.fireCount)
            passed = true;
    }

    /** `point`'s first firing after `reached`; 0 when none. */
    u64 found = 0;

  private:
    const core::MappableSet& mappable;
    const core::Boundary reached;
    const u32 point;
    std::vector<u64> counts;
    bool passed = false;
};

} // namespace

TEST(SkipAheadDeathTest, SwappedWorkloadBoundariesPanicAlike)
{
    // A real partition with two neighbouring boundaries of different
    // points swapped: skip and per-event runs die with one message.
    const ir::Program program = workloads::makeWorkload("gcc", 0.05);
    const std::vector<bin::Binary> bins = test::compileFour(program);
    std::vector<prof::MarkerProfile> profiles;
    std::vector<const bin::Binary*> binPtrs;
    std::vector<const prof::MarkerProfile*> profPtrs;
    for (const bin::Binary& binary : bins)
        profiles.push_back(test::profileMarkers(binary));
    for (std::size_t b = 0; b < bins.size(); ++b) {
        binPtrs.push_back(&bins[b]);
        profPtrs.push_back(&profiles[b]);
    }
    const core::MappableSet set =
        core::findMappablePoints(binPtrs, profPtrs);
    const core::VliPartition partition =
        core::buildVliPartition(bins[0], set, 0, 2000).partition;
    const std::vector<core::Boundary>& bs = partition.boundaries;

    // Swapping (p, a) with the later (q, b) makes the tracker wait
    // for (q, b) first; it then dies at p's next firing, if any.
    u64 dieAt = 0;
    std::size_t i = 0;
    for (; i + 1 < bs.size() && dieAt == 0; ++i) {
        if (bs[i].pointIdx == bs[i + 1].pointIdx)
            continue;
        FiringWatch watch(set, bs[i + 1], bs[i].pointIdx);
        exec::Engine engine(bins[1]);
        engine.runWith(watch);
        dieAt = watch.found;
    }
    ASSERT_NE(dieAt, 0u);
    --i;
    core::VliPartition swapped = partition;
    std::swap(swapped.boundaries[i], swapped.boundaries[i + 1]);
    const std::string message =
        "boundary " + std::to_string(i + 1) + " .* firing " +
        std::to_string(bs[i].fireCount) +
        "\\) was missed: point is now at firing " +
        std::to_string(dieAt) + " ";
    EXPECT_DEATH((void)replay(bins[1], set, 1, swapped, true), message);
    EXPECT_DEATH((void)replay(bins[1], set, 1, swapped, false), message);
}
