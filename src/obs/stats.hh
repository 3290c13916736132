/**
 * @file
 * Hierarchical, thread-aware metrics registry in the gem5 stats
 * tradition.  Stats are named by dotted path
 * ("study.gcc.cluster.kmeans.iters") and come in three kinds:
 *
 *  - **Counter** — a u64 scalar.  Increments are relaxed atomic adds,
 *    so the merged total is exact and independent of how work was
 *    spread over pool workers: a 1-worker run and an N-worker run of
 *    the same pipeline report bit-identical counts.
 *  - **Distribution** — a gem5-style histogram of u64 samples:
 *    count/sum/min/max plus power-of-two buckets (bucket 0 holds the
 *    value 0, bucket i >= 1 holds values in [2^(i-1), 2^i)).  All
 *    fields are integers, so merges are exact and order-independent.
 *  - **Timer** — accumulated wall-clock nanoseconds plus an
 *    activation count, fed by ScopedTimer.  Timer *values* are
 *    wall-clock and therefore never deterministic across runs; the
 *    JSON dump keeps them in a separate "timers" section so the
 *    "counters"/"distributions" sections can be diffed bit-for-bit
 *    between runs at different --jobs counts.
 *
 * Hot loops should not pay an atomic per event: accumulate locally
 * (a plain u64, or a ShardCounter for RAII flushing) and fold the
 * shard into the registry once at scope exit — one commutative
 * atomic add per worker-scope, which keeps the merged totals exact
 * at any worker count.
 *
 * Handles (Counter/Distribution/Timer) are cheap copyable references
 * into the owning registry and must not outlive it; handles onto the
 * process-wide global() registry are safe everywhere.
 */

#ifndef XBSP_OBS_STATS_HH
#define XBSP_OBS_STATS_HH

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <deque>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "util/types.hh"

namespace xbsp
{
class JsonWriter;
}

namespace xbsp::obs
{

namespace detail
{

struct CounterData
{
    std::atomic<u64> value{0};
};

/** Number of histogram buckets: {0} plus one per power of two. */
inline constexpr std::size_t distBuckets = 65;

struct DistData
{
    std::atomic<u64> count{0};
    std::atomic<u64> sum{0};
    std::atomic<u64> min{~0ull};
    std::atomic<u64> max{0};
    std::array<std::atomic<u64>, distBuckets> buckets{};
};

struct TimerData
{
    std::atomic<u64> nanos{0};
    std::atomic<u64> count{0};
};

} // namespace detail

/** Bucket index a sample lands in (0 for 0, else bit width). */
std::size_t distBucketOf(u64 value);

/** Handle to a registered scalar counter. */
class Counter
{
  public:
    Counter() = default;

    /** Fold `n` into the counter (relaxed atomic; exact merge). */
    void
    add(u64 n = 1) const
    {
        if (cell && n)
            cell->value.fetch_add(n, std::memory_order_relaxed);
    }

    u64
    value() const
    {
        return cell ? cell->value.load(std::memory_order_relaxed) : 0;
    }

  private:
    friend class StatRegistry;
    explicit Counter(detail::CounterData* data) : cell(data) {}
    detail::CounterData* cell = nullptr;
};

/** Handle to a registered histogram. */
class Distribution
{
  public:
    Distribution() = default;

    /** Record one sample. */
    void sample(u64 value) const;

  private:
    friend class StatRegistry;
    explicit Distribution(detail::DistData* d) : data(d) {}
    detail::DistData* data = nullptr;
};

/** Handle to a registered wall-clock accumulator. */
class Timer
{
  public:
    Timer() = default;

    /** Fold one timed activation of `ns` nanoseconds. */
    void
    addNanos(u64 ns) const
    {
        if (!data)
            return;
        data->nanos.fetch_add(ns, std::memory_order_relaxed);
        data->count.fetch_add(1, std::memory_order_relaxed);
    }

    u64
    totalNanos() const
    {
        return data ? data->nanos.load(std::memory_order_relaxed) : 0;
    }

    u64
    count() const
    {
        return data ? data->count.load(std::memory_order_relaxed) : 0;
    }

  private:
    friend class StatRegistry;
    explicit Timer(detail::TimerData* d) : data(d) {}
    detail::TimerData* data = nullptr;
};

/** RAII wall-clock measurement folded into a Timer at scope exit. */
class ScopedTimer
{
  public:
    explicit ScopedTimer(Timer t)
        : timer(t), start(std::chrono::steady_clock::now())
    {
    }

    ~ScopedTimer()
    {
        timer.addNanos(static_cast<u64>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - start)
                .count()));
    }

    ScopedTimer(const ScopedTimer&) = delete;
    ScopedTimer& operator=(const ScopedTimer&) = delete;

  private:
    Timer timer;
    std::chrono::steady_clock::time_point start;
};

/**
 * Per-worker counter shard: plain-integer accumulation in a hot loop,
 * one atomic merge into the target counter at scope exit.  The merge
 * is a commutative add, so totals stay exact at any worker count.
 */
class ShardCounter
{
  public:
    explicit ShardCounter(Counter c) : target(c) {}

    ~ShardCounter() { flush(); }

    ShardCounter(const ShardCounter&) = delete;
    ShardCounter& operator=(const ShardCounter&) = delete;

    void add(u64 n = 1) { local += n; }

    /** Merge the pending delta now (also called by the destructor). */
    void
    flush()
    {
        if (local) {
            target.add(local);
            local = 0;
        }
    }

  private:
    Counter target;
    u64 local = 0;
};

/** Kind discriminator for live-read stats (see liveStats()). */
enum class StatKind { Counter, Distribution, Timer };

/**
 * One stat's merged state at a reading instant, as a metrics scrape
 * renders it (obs/live): `value` holds the counter value, the
 * distribution sum or the timer nanoseconds; `count` holds the
 * sample/activation count (0 for counters).
 */
struct LiveStat
{
    std::string path;
    StatKind kind = StatKind::Counter;
    u64 value = 0;
    u64 count = 0;
};

/** Read-only copy of a distribution's merged state (for tests). */
struct DistributionSnapshot
{
    u64 count = 0;
    u64 sum = 0;
    u64 min = 0;
    u64 max = 0;
    std::array<u64, detail::distBuckets> buckets{};

    bool operator==(const DistributionSnapshot&) const = default;
};

/**
 * The registry: create-or-get stats by dotted path.  Registration
 * takes a mutex (cold path); handle operations are lock-free.  Paths
 * are kind-stable: asking for a counter at a path previously
 * registered as a distribution panics.
 */
class StatRegistry
{
  public:
    StatRegistry() = default;

    StatRegistry(const StatRegistry&) = delete;
    StatRegistry& operator=(const StatRegistry&) = delete;

    /** The process-wide registry the pipeline reports into. */
    static StatRegistry& global();

    Counter counter(const std::string& path);
    Distribution distribution(const std::string& path);
    Timer timer(const std::string& path);

    /** Merged counter value at `path`; 0 when never registered. */
    u64 counterValue(const std::string& path) const;

    /** Merged timer nanoseconds at `path`; 0 when never registered. */
    u64 timerNanos(const std::string& path) const;

    /** Snapshot at `path`; zeros when never registered. */
    DistributionSnapshot distributionSnapshot(
        const std::string& path) const;

    /**
     * One relaxed-atomic read of every registered stat, in sorted
     * path order.  This is what a metrics scrape renders: a pure
     * read that registers nothing, takes only the registration mutex
     * (to walk the entry map) and never blocks handle operations —
     * stats written concurrently are simply picked up by the next
     * scrape.
     */
    std::vector<LiveStat> liveStats() const;

    /**
     * Zero every stat (paths stay registered, handles stay valid).
     * Must not be called while instrumented work is in flight.
     */
    void reset();

    /**
     * Emit {"counters": {...}, "distributions": {...}} — plus
     * "timers" when `includeTimers` — as one JSON object value,
     * paths sorted so the deterministic sections diff bit-for-bit
     * across runs at any worker count.
     */
    void writeJson(JsonWriter& w, bool includeTimers) const;

    /** Whole-document convenience wrappers around writeJson(). */
    void writeJsonFile(std::ostream& os, bool includeTimers) const;
    std::string jsonString(bool includeTimers) const;

  private:
    enum class Kind { Counter, Distribution, Timer };

    struct Entry
    {
        Kind kind;
        std::size_t index;
    };

    mutable std::mutex mutex;
    std::map<std::string, Entry> entries;  ///< sorted by path
    // Deques: growth never moves existing elements, so handles stay
    // valid across registration of new stats.
    std::deque<detail::CounterData> counters;
    std::deque<detail::DistData> dists;
    std::deque<detail::TimerData> timers;

    const Entry* find(const std::string& path, Kind kind) const;
    Entry& getOrCreate(const std::string& path, Kind kind);
};

} // namespace xbsp::obs

#endif // XBSP_OBS_STATS_HH
