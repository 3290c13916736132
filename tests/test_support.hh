/**
 * @file
 * Shared fixtures/helpers for the test suite: small deterministic
 * programs with known counts, shortcuts for compiling/profiling
 * them, engine sinks that fan events out or walk them one by one, a
 * shell runner for tests that drive the CLI, and the member lists of
 * a clustering's phases.
 */

#ifndef XBSP_TESTS_TEST_SUPPORT_HH
#define XBSP_TESTS_TEST_SUPPORT_HH

#include <algorithm>
#include <cstdio>
#include <functional>
#include <span>
#include <string>
#include <tuple>
#include <utility>

#include "compile/compiler.hh"
#include "exec/engine.hh"
#include "ir/builder.hh"
#include "profile/profile.hh"
#include "simpoint/simpoint.hh"

namespace xbsp::test
{

/**
 * A minimal two-phase program with completely known structure:
 *
 *   main:
 *     call setup                  (1x; loop 50x block)
 *     loop 10x:                   ("outer")
 *       call work                 (10x; loop 100x block)
 *       call tail                 (10x; single block)
 *
 * Source instruction count: 50*20 + 10*(100*30 + 8) = 1000 + 30080.
 */
inline ir::Program
tinyProgram()
{
    using namespace ir;
    ProgramBuilder b("tiny");
    b.procedure("setup").loop(50, [&](StmtSeq& s) {
        s.block(20, 5, stridePattern(1, 16_KiB, 8, 0.2, 0.0));
    });
    b.procedure("work").loop(100, [&](StmtSeq& s) {
        s.block(30, 10, stridePattern(2, 64_KiB, 8, 0.3, 0.0));
    });
    b.procedure("tail").block(8, 2,
                              randomPattern(3, 8_KiB, 0.5, 0.0));
    StmtSeq main = b.procedure("main");
    main.call("setup");
    main.loop(10, [&](StmtSeq& outer) {
        outer.call("work");
        outer.call("tail");
    });
    return b.build();
}

/**
 * A program exercising every optimizer transform: an Always-inline
 * helper (called from two sites), a Partial-inline helper, an
 * unrollable loop (trips 16) and a splittable loop.
 */
inline ir::Program
trickyProgram()
{
    using namespace ir;
    ProgramBuilder b("tricky");
    b.procedure("helper", InlineHint::Always).loop(8, [&](StmtSeq& s) {
        s.compute(5);
    });
    b.procedure("sometimes", InlineHint::Partial).block(10, 0);
    b.procedure("unrolled").loop(
        40,
        [&](StmtSeq& outer) {
            outer.loop(16, [&](StmtSeq& s) { s.compute(4); },
                       LoopOpts{.unrollable = true});
        });
    b.procedure("split").loop(
        60,
        [&](StmtSeq& s) {
            s.compute(6);
            s.compute(7);
        },
        LoopOpts{.splittable = true});
    StmtSeq main = b.procedure("main");
    main.loop(5, [&](StmtSeq& outer) {
        outer.call("helper");
        outer.call("sometimes");
        outer.call("unrolled");
        outer.call("split");
        outer.call("helper");
        outer.call("sometimes");
    });
    return b.build();
}

/**
 * A program whose loops nest `outer + inner` deep along one call
 * chain: main wraps a call to the always-inlined `leaf` in `outer`
 * one-trip loops, and leaf wraps one block in `inner` more.
 */
inline ir::Program
deepProgram(u32 outer, u32 inner)
{
    using namespace ir;
    ProgramBuilder b("deep");
    std::function<void(StmtSeq&, u32, const std::function<void(StmtSeq&)>&)>
        nest = [&](StmtSeq& s, u32 depth,
                   const std::function<void(StmtSeq&)>& innermost) {
            if (depth == 0) {
                innermost(s);
                return;
            }
            s.loop(1, [&](StmtSeq& body) {
                nest(body, depth - 1, innermost);
            });
        };
    StmtSeq leaf = b.procedure("leaf", InlineHint::Always);
    nest(leaf, inner, [](StmtSeq& s) { s.compute(3); });
    StmtSeq main = b.procedure("main");
    nest(main, outer, [](StmtSeq& s) { s.call("leaf"); });
    return b.build();
}

/**
 * Engine sink that forwards each event to `sinks`, in order, each
 * getting only the kinds it wants.  It skips ahead only when every
 * sink can: a trip is quiet when it is quiet for all of them.
 */
template <typename... Sinks>
class FanOut
{
  public:
    explicit FanOut(Sinks&... each) : sinks(each...) {}

    bool
    wantsBlocks() const
    {
        return std::apply([](auto&... s) { return (s.wantsBlocks() || ...); },
                          sinks);
    }
    bool
    wantsMems() const
    {
        return std::apply([](auto&... s) { return (s.wantsMems() || ...); },
                          sinks);
    }
    bool
    wantsMarkers() const
    {
        return std::apply(
            [](auto&... s) { return (s.wantsMarkers() || ...); }, sinks);
    }

    void
    onBlock(u32 blockId, u32 instrs)
    {
        forEach([&](auto& s) {
            if (s.wantsBlocks())
                s.onBlock(blockId, instrs);
        });
    }
    void
    onMemRefs(std::span<const mem::MemRef> refs)
    {
        forEach([&](auto& s) {
            if (s.wantsMems())
                s.onMemRefs(refs);
        });
    }
    void
    onMarker(u32 markerId)
    {
        forEach([&](auto& s) {
            if (s.wantsMarkers())
                s.onMarker(markerId);
        });
    }
    void onRunEnd() { forEach([](auto& s) { s.onRunEnd(); }); }

    u64
    quietTrips(const exec::Summary& trip, u64 maxTrips) const
        requires(exec::SkippingSink<Sinks> && ...)
    {
        u64 quiet = maxTrips;
        forEach([&](auto& s) {
            quiet = std::min(quiet, s.quietTrips(trip, quiet));
        });
        return quiet;
    }
    void
    onBulk(const exec::Summary& trip, u64 trips)
        requires(exec::SkippingSink<Sinks> && ...)
    {
        forEach([&](auto& s) { s.onBulk(trip, trips); });
    }

  private:
    std::tuple<Sinks&...> sinks;

    template <typename Fn>
    void
    forEach(Fn&& fn) const
    {
        std::apply([&](auto&... s) { (fn(s), ...); }, sinks);
    }
};

/**
 * Engine sink that forwards every event to `inner` and has no
 * quietTrips/onBulk, so the engine walks event by event for it.
 */
template <typename Inner>
class PerEvent
{
  public:
    explicit PerEvent(Inner& sink) : inner(sink) {}

    bool wantsBlocks() const { return inner.wantsBlocks(); }
    bool wantsMems() const { return inner.wantsMems(); }
    bool wantsMarkers() const { return inner.wantsMarkers(); }
    void onBlock(u32 blockId, u32 instrs) { inner.onBlock(blockId, instrs); }
    void
    onMemRefs(std::span<const mem::MemRef> refs)
    {
        inner.onMemRefs(refs);
    }
    void onMarker(u32 markerId) { inner.onMarker(markerId); }
    void onRunEnd() { inner.onRunEnd(); }

  private:
    Inner& inner;
};

/**
 * Run `command` through the shell: its stdout and pclose() status
 * (0 when it exited 0), or status -1 when it could not start.
 */
inline std::pair<std::string, int>
runShell(const std::string& command)
{
    FILE* pipe = ::popen(command.c_str(), "r");
    if (!pipe)
        return {{}, -1};
    std::string out;
    char buf[4096];
    while (const std::size_t n = std::fread(buf, 1, sizeof(buf), pipe))
        out.append(buf, n);
    return {out, ::pclose(pipe)};
}

/** Compile the standard four binaries of a program. */
inline std::vector<bin::Binary>
compileFour(const ir::Program& program)
{
    return compile::compileAllTargets(program);
}

/** Marker profile of one binary (cheap, no timing). */
inline prof::MarkerProfile
profileMarkers(const bin::Binary& binary)
{
    return prof::runProfilePass(binary, 1u << 20).markers;
}

/**
 * Each phase's member intervals, ascending, read off the labels:
 * element p lists the intervals labelled result.phases[p].id.
 */
inline std::vector<std::vector<u32>>
phaseMembers(const sp::SimPointResult& result)
{
    std::vector<std::vector<u32>> members(result.phases.size());
    for (std::size_t p = 0; p < result.phases.size(); ++p) {
        for (std::size_t i = 0; i < result.labels.size(); ++i) {
            if (result.labels[i] == result.phases[p].id)
                members[p].push_back(static_cast<u32>(i));
        }
    }
    return members;
}

/** Dynamic count of a (kind, symbol-or-line) marker group. */
inline u64
markerGroupCount(const bin::Binary& binary,
                 const prof::MarkerProfile& profile,
                 bin::MarkerKind kind, const std::string& symbol,
                 u32 line)
{
    u64 total = 0;
    for (u32 m = 0; m < binary.markerCount(); ++m) {
        const bin::Marker& marker = binary.markers[m];
        if (marker.kind != kind)
            continue;
        if (kind == bin::MarkerKind::ProcEntry) {
            if (marker.symbol == symbol)
                total += profile.counts[m];
        } else if (marker.line == line) {
            total += profile.counts[m];
        }
    }
    return total;
}

} // namespace xbsp::test

#endif // XBSP_TESTS_TEST_SUPPORT_HH
