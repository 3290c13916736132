/**
 * @file
 * Persistent content-addressed artifact store with stage memoization.
 *
 * Every expensive pipeline stage (compile, profile, clustering, VLI
 * build, detailed simulation) is a pure function of its inputs.  The
 * store exploits that: the caller hashes the exact inputs into a
 * 128-bit key (serial::Hasher) and wraps the stage in
 * getOrCompute<Codec>(key, stage, fn).  On a hit the artifact is
 * decoded from disk; on a miss (or any corruption) the stage runs and
 * its result is written back.  Because the codecs round-trip every
 * field bit-exactly (doubles travel as IEEE-754 patterns), a warm run
 * produces byte-identical reports to a cold run — the repo's
 * determinism guarantee extends across process boundaries.
 *
 * On-disk layout (see DESIGN.md, "Artifact store"):
 *
 *   <dir>/<2-hex-shard>/<32-hex-key>.art
 *
 * Each entry is a self-describing file: magic + store format version
 * + artifact type tag/version + payload size + payload + payload
 * checksum.  Writes go to a unique temp file and are renamed into
 * place, so concurrent --jobs workers and concurrent *processes*
 * sharing one cache directory only ever observe complete entries.
 * Reads verify everything; any mismatch (truncation, bit flips,
 * version skew) logs, evicts the entry and recomputes — corruption
 * can degrade hit rate, never correctness.
 *
 * Garbage collection is LRU by file mtime under a byte budget (reads
 * bump the mtime).  Failure to write — read-only directory, full
 * disk — is warned about once and otherwise ignored: the store is an
 * accelerator, never a dependency.
 */

#ifndef XBSP_STORE_STORE_HH
#define XBSP_STORE_STORE_HH

#include <atomic>
#include <chrono>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "obs/trace.hh"
#include "util/serial.hh"

namespace xbsp::store
{

/** Store configuration; an empty dir means the store is off. */
struct StoreConfig
{
    /** Cache directory (created on demand). */
    std::string dir;

    /** Serve/populate the cache in getOrCompute (--no-cache = false). */
    bool enabled = false;
};

/** Result of scanning the cache directory. */
struct CacheScan
{
    u64 entries = 0;
    u64 bytes = 0;
    u64 tempFiles = 0;  ///< leftover .tmp files (crashed writers)
};

/** Result of one LRU garbage collection. */
struct GcResult
{
    u64 keptEntries = 0;
    u64 keptBytes = 0;
    u64 removedEntries = 0;
    u64 removedBytes = 0;
};

/**
 * The artifact store.  All methods are safe to call concurrently from
 * any number of pool workers; distinct processes may share one
 * directory.  See the file comment for the on-disk contract.
 */
class ArtifactStore
{
  public:
    ArtifactStore() = default;
    explicit ArtifactStore(StoreConfig config);

    /**
     * The process-wide store the pipeline stages consult.  First use
     * without prior configureGlobal() reads XBSP_CACHE_DIR from the
     * environment (empty/unset = disabled), so benches and wrapped
     * invocations opt in without touching argv.
     */
    static ArtifactStore& global();

    /** Reconfigure the global store (CLI --cache-dir / --no-cache). */
    static void configureGlobal(StoreConfig config);

    /** Reconfigure this store; not while getOrCompute is in flight. */
    void configure(StoreConfig config);

    /** True when getOrCompute consults the disk cache. */
    bool enabled() const { return on.load(std::memory_order_acquire); }

    /** The configured directory ("" when unset). */
    std::string directory() const;

    /**
     * Memoize `compute` under `key`.  Codec supplies the artifact
     * type: `Value`, a u32 `tag` (fourcc) and `version`, and
     * encode(Encoder&, const Value&) / decode(Decoder&) -> Value.
     * `stage` labels the per-stage hit/miss counters
     * (store.stage.<stage>.hits/.misses).
     */
    template <typename Codec, typename Fn>
    typename Codec::Value
    getOrCompute(const serial::Hash128& key, const char* stage,
                 Fn&& compute)
    {
        if (!enabled())
            return compute();
        obs::TraceSpan span(std::string("store ") + stage, "store");
        if (std::optional<typename Codec::Value> value =
                read<Codec>(key, stage))
            return std::move(*value);
        return computeAndStore<Codec>(key, stage,
                                      std::forward<Fn>(compute));
    }

    /**
     * The write half of getOrCompute: count a miss for `stage`, run
     * `compute` and persist its value under `key`, without reading
     * the entry first.  For a caller whose lookup() already missed.
     * Just `compute` when the store is disabled.
     */
    template <typename Codec, typename Fn>
    typename Codec::Value
    computeAndStore(const serial::Hash128& key, const char* stage,
                    Fn&& compute)
    {
        if (!enabled())
            return compute();
        countMiss(stage);
        typename Codec::Value value = compute();
        serial::Encoder encoder;
        Codec::encode(encoder, value);
        writeEntry(key, Codec::tag, Codec::version, encoder.view());
        return value;
    }

    /**
     * The read half of getOrCompute: the decoded entry under `key`
     * (a hit for `stage`), or nullopt when it is absent or corrupt
     * (corrupt entries are evicted).  Counts no miss, computes and
     * writes nothing, so a caller can try a cheaper read first and
     * fall back to getOrCompute, or to computeAndStore, which counts
     * the miss.  Codec needs only `Value`, `tag`, `version` and
     * decode(): a decode-only codec may read the entry another codec
     * wrote, in part.
     * Always nullopt when the store is disabled.
     */
    template <typename Codec>
    std::optional<typename Codec::Value>
    lookup(const serial::Hash128& key, const char* stage)
    {
        if (!enabled())
            return std::nullopt;
        obs::TraceSpan span(std::string("store ") + stage, "store");
        return read<Codec>(key, stage);
    }

    /**
     * Cheap existence probe: true when an entry for `key` is on disk
     * with a valid header of the given type tag/version.  Reads only
     * the fixed header — no payload decode, no checksum, no hit/miss
     * counters, no mtime bump — so the pipeline scheduler can ask
     * "would this stage be served from the cache?" without perturbing
     * the store's statistics or LRU state.  Always false when the
     * store is disabled.  Counts store.probes (enabled calls only).
     */
    bool contains(const serial::Hash128& key, u32 typeTag,
                  u32 typeVersion) const;

    /**
     * Read and verify one entry's payload; nullopt on miss.  Corrupt,
     * truncated or version-skewed entries are evicted on the way.
     * (Public for tests; getOrCompute is the normal interface.)
     */
    std::optional<std::string> readEntry(const serial::Hash128& key,
                                         u32 typeTag, u32 typeVersion);

    /** Atomically write one entry (temp file + rename); best effort. */
    void writeEntry(const serial::Hash128& key, u32 typeTag,
                    u32 typeVersion, std::string_view payload);

    /** Remove one entry, counting it as an eviction (logged). */
    void evictEntry(const serial::Hash128& key,
                    const std::string& why);

    /** Absolute path an entry lives at (whether or not it exists). */
    std::string entryPath(const serial::Hash128& key) const;

    /** Walk the directory: entry count, total bytes, stray temps. */
    CacheScan scan() const;

    /**
     * LRU garbage collection: delete stray temp files, then delete
     * the least-recently-used entries until the total is within
     * `byteBudget` bytes.
     *
     * Entries probed via contains() within the last
     * `probeGraceSeconds` are exempt: a probe promises the scheduler
     * "this stage will be served from the cache", and an eviction
     * between that probe and the stage's readEntry would turn the
     * promise into a recompute mid-run (probes deliberately don't
     * bump mtimes, so plain LRU sees probed entries as cold).  Pass 0
     * to force unconditional collection (tests, `cache clear`-like
     * maintenance).
     */
    GcResult gc(u64 byteBudget, u64 probeGraceSeconds = 300);

    /** Delete every entry and temp file; returns files removed. */
    u64 clear();

  private:
    mutable std::mutex mutex;          ///< guards cfg
    StoreConfig cfg;
    std::atomic<bool> on{false};
    std::atomic<bool> writeWarned{false};
    std::atomic<u64> tempSeq{0};

    /** Paths positively probed, by probe time (guards gc eviction). */
    mutable std::mutex probeMutex;
    mutable std::unordered_map<std::string,
                               std::chrono::steady_clock::time_point>
        recentProbes;

    template <typename Codec>
    std::optional<typename Codec::Value>
    read(const serial::Hash128& key, const char* stage)
    {
        if (std::optional<std::string> payload =
                readEntry(key, Codec::tag, Codec::version)) {
            try {
                serial::Decoder decoder(*payload);
                typename Codec::Value value = Codec::decode(decoder);
                decoder.expectEnd();
                countHit(stage);
                return value;
            } catch (const serial::DecodeError& e) {
                evictEntry(key, e.what());
            }
        }
        return std::nullopt;
    }

    void countHit(const char* stage) const;
    void countMiss(const char* stage) const;
    void warnWriteOnce(const std::string& what);
};

} // namespace xbsp::store

#endif // XBSP_STORE_STORE_HH
