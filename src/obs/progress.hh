/**
 * @file
 * Coarse progress/ETA reporting for long study runs (--progress).
 * Pipeline stages declare how many steps they will contribute with
 * addSteps() and report each completion with completeStep(); the
 * meter prints one "[done/total] label (elapsed Xs, eta Ys)" line per
 * completion through the serialized log sink.  The ETA is a simple
 * linear extrapolation — steps are heterogeneous, so it is a hint,
 * not a promise.  Disabled (the default) the meter only counts.
 *
 * Steps completed inside a ZeroCostScope (the pipeline scheduler
 * opens one around cache-probe-resolved nodes, which only decode
 * already-stored artifacts) are counted as **zero-cost**: they still
 * advance [done/total], but the ETA extrapolates from the average
 * cost of the *costly* steps only.  Without this, a warm run's
 * near-instant cache hits would be averaged as if they were real
 * work — wildly overestimating the remaining time whenever cold and
 * warm stages mix.
 */

#ifndef XBSP_OBS_PROGRESS_HH
#define XBSP_OBS_PROGRESS_HH

#include <atomic>
#include <chrono>
#include <mutex>
#include <string_view>

#include "util/types.hh"

namespace xbsp::obs
{

/** Process-wide step counter with optional ETA lines. */
class Progress
{
  public:
    Progress() = default;

    Progress(const Progress&) = delete;
    Progress& operator=(const Progress&) = delete;

    /** The meter the pipeline reports into. */
    static Progress& global();

    /** Turn printing on/off (counting always happens). */
    void enable();
    void disable();

    bool
    enabled() const
    {
        return active.load(std::memory_order_relaxed);
    }

    /** Announce `n` upcoming steps (callable from any stage). */
    void addSteps(u64 n);

    /** Report one finished step; prints an ETA line when enabled. */
    void completeStep(std::string_view label);

    /** Zero counts and restart the clock (tests, repeated runs). */
    void reset();

    u64
    completed() const
    {
        return done.load(std::memory_order_relaxed);
    }

    u64
    announced() const
    {
        return total.load(std::memory_order_relaxed);
    }

    /** Steps completed under a ZeroCostScope (cache-resolved). */
    u64
    zeroCostCompleted() const
    {
        return cheap.load(std::memory_order_relaxed);
    }

    /**
     * Wall-clock seconds since the first addSteps() or the last
     * reset() (0 before either).
     */
    double elapsedSeconds() const;

    /**
     * Linear-extrapolation ETA in seconds over the costly steps
     * only; negative when no estimate is possible yet (nothing
     * announced, nothing costly done, or already finished).
     */
    double etaSeconds() const;

    /**
     * RAII marker: completeStep() calls made by the current *thread*
     * while a scope is open count as zero-cost.  Nests.
     */
    class ZeroCostScope
    {
      public:
        ZeroCostScope();
        ~ZeroCostScope();

        ZeroCostScope(const ZeroCostScope&) = delete;
        ZeroCostScope& operator=(const ZeroCostScope&) = delete;
    };

  private:
    std::atomic<bool> active{false};
    std::atomic<u64> total{0};
    std::atomic<u64> done{0};
    std::atomic<u64> cheap{0};
    mutable std::mutex mutex;
    std::chrono::steady_clock::time_point start;
    bool started = false;
};

} // namespace xbsp::obs

#endif // XBSP_OBS_PROGRESS_HH
