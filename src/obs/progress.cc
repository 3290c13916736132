#include "obs/progress.hh"

#include "util/logging.hh"

namespace xbsp::obs
{

namespace
{

/** Nesting depth of ZeroCostScopes open on the calling thread. */
thread_local unsigned zeroCostDepth = 0;

} // namespace

Progress::ZeroCostScope::ZeroCostScope()
{
    ++zeroCostDepth;
}

Progress::ZeroCostScope::~ZeroCostScope()
{
    --zeroCostDepth;
}

Progress&
Progress::global()
{
    static Progress instance;
    return instance;
}

void
Progress::enable()
{
    active.store(true, std::memory_order_relaxed);
}

void
Progress::disable()
{
    active.store(false, std::memory_order_relaxed);
}

void
Progress::addSteps(u64 n)
{
    {
        // The clock runs whether or not the meter prints: a scrape
        // of a run without --progress reads elapsed time and the ETA.
        std::lock_guard<std::mutex> lock(mutex);
        if (!started) {
            start = std::chrono::steady_clock::now();
            started = true;
        }
    }
    total.fetch_add(n, std::memory_order_relaxed);
}

double
Progress::elapsedSeconds() const
{
    std::lock_guard<std::mutex> lock(mutex);
    if (!started)
        return 0.0;
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

double
Progress::etaSeconds() const
{
    const u64 finished = done.load(std::memory_order_relaxed);
    const u64 announced = total.load(std::memory_order_relaxed);
    const u64 zeroCost = cheap.load(std::memory_order_relaxed);
    // Cache-resolved steps are free: extrapolating from them would
    // project the near-zero warm-step cost (or dilute the real cost)
    // onto the remaining — possibly cold — steps.
    const u64 costly = finished > zeroCost ? finished - zeroCost : 0;
    if (announced <= finished || costly == 0)
        return -1.0;
    return elapsedSeconds() / static_cast<double>(costly) *
           static_cast<double>(announced - finished);
}

void
Progress::completeStep(std::string_view label)
{
    const u64 finished = done.fetch_add(1, std::memory_order_relaxed) + 1;
    if (zeroCostDepth > 0)
        cheap.fetch_add(1, std::memory_order_relaxed);
    if (!enabled())
        return;

    const double elapsed = elapsedSeconds();
    const u64 announced = total.load(std::memory_order_relaxed);
    const double eta = etaSeconds();
    if (announced > finished && eta >= 0.0) {
        inform("[{}/{}] {} (elapsed {:.1f}s, eta {:.1f}s)", finished,
               announced, label, elapsed, eta);
    } else {
        inform("[{}/{}] {} (elapsed {:.1f}s)", finished,
               announced > finished ? announced : finished, label,
               elapsed);
    }
}

void
Progress::reset()
{
    std::lock_guard<std::mutex> lock(mutex);
    total.store(0, std::memory_order_relaxed);
    done.store(0, std::memory_order_relaxed);
    cheap.store(0, std::memory_order_relaxed);
    start = std::chrono::steady_clock::now();
    started = true;
}

} // namespace xbsp::obs
