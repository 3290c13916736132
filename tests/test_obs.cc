/**
 * @file
 * Tests for the observability subsystem: registry determinism across
 * worker counts (the bit-identity contract --stats-out relies on),
 * histogram bucket math, timer accumulation/nesting, JSON shape and
 * escaping, and the trace writer (valid JSON, correctly nested spans,
 * worker-id tids).
 */

#include <gtest/gtest.h>

#include <cctype>
#include <functional>
#include <sstream>

#include "obs/progress.hh"
#include "obs/stats.hh"
#include "obs/trace.hh"
#include "simpoint/projection.hh"
#include "util/json.hh"
#include "util/threadpool.hh"

using namespace xbsp;
using namespace xbsp::obs;

namespace
{

/**
 * Minimal JSON syntax checker for the subset the writers emit
 * (objects, arrays, strings with escapes, numbers, true/false/null).
 * Returns true when `text` is exactly one well-formed value.
 */
bool
validJson(const std::string& text)
{
    std::size_t pos = 0;
    auto skipWs = [&]() {
        while (pos < text.size() &&
               std::isspace(static_cast<unsigned char>(text[pos])))
            ++pos;
    };
    std::function<bool()> value = [&]() -> bool {
        skipWs();
        if (pos >= text.size())
            return false;
        const char c = text[pos];
        if (c == '{' || c == '[') {
            const char close = c == '{' ? '}' : ']';
            ++pos;
            skipWs();
            if (pos < text.size() && text[pos] == close) {
                ++pos;
                return true;
            }
            for (;;) {
                if (c == '{') {
                    skipWs();
                    if (pos >= text.size() || text[pos] != '"' ||
                        !value())
                        return false;
                    skipWs();
                    if (pos >= text.size() || text[pos] != ':')
                        return false;
                    ++pos;
                }
                if (!value())
                    return false;
                skipWs();
                if (pos < text.size() && text[pos] == ',') {
                    ++pos;
                    continue;
                }
                if (pos < text.size() && text[pos] == close) {
                    ++pos;
                    return true;
                }
                return false;
            }
        }
        if (c == '"') {
            ++pos;
            while (pos < text.size() && text[pos] != '"') {
                if (text[pos] == '\\')
                    ++pos;
                ++pos;
            }
            if (pos >= text.size())
                return false;
            ++pos;
            return true;
        }
        if (text.compare(pos, 4, "true") == 0) {
            pos += 4;
            return true;
        }
        if (text.compare(pos, 5, "false") == 0) {
            pos += 5;
            return true;
        }
        if (text.compare(pos, 4, "null") == 0) {
            pos += 4;
            return true;
        }
        // Number: accept the usual characters and let strtod-ish
        // shape rules slide; the writers only emit printf output.
        const std::size_t start = pos;
        while (pos < text.size() &&
               (std::isdigit(static_cast<unsigned char>(text[pos])) ||
                text[pos] == '-' || text[pos] == '+' ||
                text[pos] == '.' || text[pos] == 'e' ||
                text[pos] == 'E'))
            ++pos;
        return pos > start;
    };
    if (!value())
        return false;
    skipWs();
    return pos == text.size();
}

/** Deterministic instrumented workload driven over the global pool. */
void
runInstrumentedWork(std::size_t n)
{
    StatRegistry& reg = StatRegistry::global();
    Counter events = reg.counter("test.work.events");
    Distribution sizes = reg.distribution("test.work.sizes");
    Timer timer = reg.timer("test.work.time");
    parallelChunks(globalPool(), n,
                   [&](std::size_t begin, std::size_t end,
                       std::size_t) {
                       ScopedTimer scope(timer);
                       ShardCounter shard(events);
                       for (std::size_t i = begin; i < end; ++i) {
                           shard.add(i + 1);
                           sizes.sample(i);
                       }
                   });
}

} // namespace

TEST(StatRegistry, CountersMergeExactlyAtAnyWorkerCount)
{
    StatRegistry& reg = StatRegistry::global();

    setGlobalJobs(1);
    reg.reset();
    runInstrumentedWork(1000);
    const std::string serial = reg.jsonString(false);
    const u64 serialEvents = reg.counterValue("test.work.events");

    setGlobalJobs(4);
    reg.reset();
    runInstrumentedWork(1000);
    const std::string parallel = reg.jsonString(false);
    setGlobalJobs(0);

    // 1 + 2 + ... + 1000
    EXPECT_EQ(serialEvents, 1000u * 1001u / 2u);
    // The whole dump — counters and distributions, key order
    // included — must be byte-identical across worker counts.
    EXPECT_EQ(serial, parallel);
    EXPECT_TRUE(validJson(serial));
}

TEST(StatRegistry, ProjectionDotOpsEqualAcrossWorkerCounts)
{
    // The projection counter symmetric to kmeans.estep.distances:
    // one count per (sparse entry x output dim) multiply-add, which
    // is a function of the input only — never of layout, padding,
    // kernel arch or worker count.  Projection runs once per
    // duplicate class: the 200 intervals below repeat 40 vectors, so
    // 40 rows are projected and 160 copied.
    sp::FrequencyVectorSet fvs;
    fvs.dimension = 64;
    const std::size_t intervals = 200;
    const std::size_t nnz = 3;
    for (std::size_t i = 0; i < intervals; ++i) {
        sp::SparseVec vec;
        const u32 base = static_cast<u32>(i % 40);
        vec.emplace_back(base, 1.0);
        vec.emplace_back(base + 5, 2.0);
        vec.emplace_back(base + 9, 0.5);
        fvs.addInterval(std::move(vec), 1000);
    }
    const u32 dims = 15;

    StatRegistry& reg = StatRegistry::global();
    setGlobalJobs(1);
    reg.reset();
    sp::project(fvs, dims, 99);
    const u64 serialOps = reg.counterValue("projection.dotOps");
    EXPECT_EQ(reg.counterValue("projection.rows.projected"), 40u);
    EXPECT_EQ(reg.counterValue("projection.rows.copied"), 160u);

    setGlobalJobs(4);
    reg.reset();
    sp::project(fvs, dims, 99);
    const u64 parallelOps = reg.counterValue("projection.dotOps");
    setGlobalJobs(0);

    const std::size_t classes = 40;
    EXPECT_EQ(serialOps, classes * nnz * dims);
    EXPECT_EQ(serialOps, parallelOps);
}

TEST(StatRegistry, DistributionBucketMath)
{
    // Bucket 0 holds {0}; bucket i >= 1 holds [2^(i-1), 2^i).
    EXPECT_EQ(distBucketOf(0), 0u);
    EXPECT_EQ(distBucketOf(1), 1u);
    EXPECT_EQ(distBucketOf(2), 2u);
    EXPECT_EQ(distBucketOf(3), 2u);
    EXPECT_EQ(distBucketOf(4), 3u);
    EXPECT_EQ(distBucketOf(7), 3u);
    EXPECT_EQ(distBucketOf(8), 4u);
    EXPECT_EQ(distBucketOf(1023), 10u);
    EXPECT_EQ(distBucketOf(1024), 11u);
    EXPECT_EQ(distBucketOf(~0ull), 64u);

    StatRegistry& reg = StatRegistry::global();
    reg.reset();
    Distribution dist = reg.distribution("test.bucket.dist");
    for (const u64 v : {0ull, 1ull, 3ull, 3ull, 8ull, 1024ull})
        dist.sample(v);

    const DistributionSnapshot snap =
        reg.distributionSnapshot("test.bucket.dist");
    EXPECT_EQ(snap.count, 6u);
    EXPECT_EQ(snap.sum, 0u + 1u + 3u + 3u + 8u + 1024u);
    EXPECT_EQ(snap.min, 0u);
    EXPECT_EQ(snap.max, 1024u);
    EXPECT_EQ(snap.buckets[0], 1u);  // 0
    EXPECT_EQ(snap.buckets[1], 1u);  // 1
    EXPECT_EQ(snap.buckets[2], 2u);  // 3, 3
    EXPECT_EQ(snap.buckets[4], 1u);  // 8
    EXPECT_EQ(snap.buckets[11], 1u); // 1024
    EXPECT_EQ(snap.buckets[3], 0u);
}

TEST(StatRegistry, UnregisteredLookupsReturnZeros)
{
    StatRegistry& reg = StatRegistry::global();
    EXPECT_EQ(reg.counterValue("test.never.registered"), 0u);
    EXPECT_EQ(reg.timerNanos("test.never.registered"), 0u);
    EXPECT_EQ(reg.distributionSnapshot("test.never.registered"),
              DistributionSnapshot{});
}

TEST(StatRegistry, HandlesStaySameAcrossRepeatLookup)
{
    StatRegistry& reg = StatRegistry::global();
    reg.reset();
    Counter first = reg.counter("test.same.counter");
    first.add(3);
    // The second lookup must land on the same cell, not a fresh one.
    Counter second = reg.counter("test.same.counter");
    second.add(4);
    EXPECT_EQ(reg.counterValue("test.same.counter"), 7u);
    EXPECT_EQ(first.value(), 7u);
}

TEST(StatRegistry, TimersAccumulateAndNest)
{
    StatRegistry& reg = StatRegistry::global();
    reg.reset();
    Timer outer = reg.timer("test.timer.outer");
    Timer inner = reg.timer("test.timer.inner");
    {
        ScopedTimer outerScope(outer);
        for (int i = 0; i < 3; ++i)
            ScopedTimer innerScope(inner);
    }
    EXPECT_EQ(outer.count(), 1u);
    EXPECT_EQ(inner.count(), 3u);
    // The outer scope strictly contains the inner activations.
    EXPECT_GE(outer.totalNanos(), inner.totalNanos());
    EXPECT_EQ(reg.timerNanos("test.timer.outer"), outer.totalNanos());

    // Timers appear in the dump only when asked for: the default
    // (deterministic) dump must not contain wall-clock values.
    const std::string bare = reg.jsonString(false);
    const std::string timed = reg.jsonString(true);
    EXPECT_EQ(bare.find("timers"), std::string::npos);
    EXPECT_NE(timed.find("timers"), std::string::npos);
    EXPECT_NE(timed.find("test.timer.outer"), std::string::npos);
    EXPECT_TRUE(validJson(timed));
}

TEST(JsonWriter, EscapesAndStableShape)
{
    std::ostringstream os;
    {
        JsonWriter w(os);
        w.beginObject();
        w.member("plain", "text");
        w.member("quote\"back\\slash", "tab\there\nline");
        w.member("int", -42);
        w.member("uint", ~0ull);
        w.member("float", 1.5, 2);
        w.member("flag", true);
        w.key("nested").beginArray();
        w.value(1).value("two").null();
        w.beginObject().endObject();
        w.endArray();
        w.endObject();
    }
    const std::string text = os.str();
    EXPECT_TRUE(validJson(text)) << text;
    EXPECT_NE(text.find("\"quote\\\"back\\\\slash\""),
              std::string::npos);
    EXPECT_NE(text.find("\"tab\\there\\nline\""), std::string::npos);
    EXPECT_NE(text.find("18446744073709551615"), std::string::npos);
    EXPECT_NE(text.find("1.50"), std::string::npos);
}

TEST(Trace, SpansAreValidJsonAndNestCorrectly)
{
    TraceSession session;
    session.enable();
    {
        TraceSpan outer(session, "outer", "test");
        {
            TraceSpan inner(session, "inner", "test");
        }
        TraceSpan sibling(session, "sibling", "test");
    }
    session.disable();

    const std::vector<TraceEvent> events = session.events();
    ASSERT_EQ(events.size(), 3u);
    // Spans close in LIFO order: inner, sibling, outer.
    EXPECT_EQ(events[0].name, "inner");
    EXPECT_EQ(events[1].name, "sibling");
    EXPECT_EQ(events[2].name, "outer");

    // Same-thread spans must be properly nested: each pair is either
    // disjoint or one contains the other.
    for (std::size_t a = 0; a < events.size(); ++a) {
        for (std::size_t b = a + 1; b < events.size(); ++b) {
            if (events[a].tid != events[b].tid)
                continue;
            const u64 aStart = events[a].startMicros;
            const u64 aEnd = aStart + events[a].durMicros;
            const u64 bStart = events[b].startMicros;
            const u64 bEnd = bStart + events[b].durMicros;
            const bool disjoint = aEnd <= bStart || bEnd <= aStart;
            const bool aInB = bStart <= aStart && aEnd <= bEnd;
            const bool bInA = aStart <= bStart && bEnd <= aEnd;
            EXPECT_TRUE(disjoint || aInB || bInA)
                << events[a].name << " vs " << events[b].name;
        }
    }
    // "outer" contains "inner".
    EXPECT_LE(events[2].startMicros, events[0].startMicros);
    EXPECT_GE(events[2].startMicros + events[2].durMicros,
              events[0].startMicros + events[0].durMicros);

    std::ostringstream os;
    session.writeJson(os);
    const std::string text = os.str();
    EXPECT_TRUE(validJson(text)) << text;
    EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(text.find("\"ph\": \"X\""), std::string::npos);
}

TEST(Trace, SpansRecordPoolWorkerIds)
{
    TraceSession session;
    session.enable();
    setGlobalJobs(4);
    parallelChunks(globalPool(), 8,
                   [&](std::size_t, std::size_t, std::size_t chunk) {
                       TraceSpan span(session,
                                      "chunk" + std::to_string(chunk),
                                      "test");
                   });
    setGlobalJobs(0);
    session.disable();

    const std::vector<TraceEvent> events = session.events();
    ASSERT_EQ(events.size(), 8u);
    for (const TraceEvent& ev : events) {
        // Chunks run on pool workers (the main thread is not one),
        // so every span carries a 1-based worker id within the pool.
        EXPECT_GE(ev.tid, 1u);
        EXPECT_LE(ev.tid, 4u);
    }
}

TEST(Trace, DisabledSessionRecordsNothing)
{
    TraceSession session;
    {
        TraceSpan span(session, "dropped", "test");
    }
    EXPECT_TRUE(session.events().empty());
    session.enable();
    {
        TraceSpan span(session, "kept", "test");
    }
    session.disable();
    EXPECT_EQ(session.events().size(), 1u);
}

TEST(Progress, CountsSteps)
{
    Progress& progress = Progress::global();
    progress.reset();
    progress.addSteps(3);
    EXPECT_EQ(progress.announced(), 3u);
    EXPECT_EQ(progress.completed(), 0u);
    progress.completeStep("a");
    progress.completeStep("b");
    EXPECT_EQ(progress.completed(), 2u);
}
