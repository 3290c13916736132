#include "simpoint/fvec.hh"

#include <cstring>
#include <limits>
#include <unordered_map>

#include "obs/stats.hh"
#include "util/logging.hh"
#include "util/serial.hh"
#include "util/threadpool.hh"

namespace xbsp::sp
{

namespace
{

/** Bit pattern of a double (for hashing/comparing without epsilons). */
u64
bits(double value)
{
    u64 out;
    std::memcpy(&out, &value, sizeof(out));
    return out;
}

/**
 * Pinned 128-bit digest of a sparse row's indices and value bits (the
 * frozen util/serial hash, aligned-word fast path).  Probes compare digests
 * first, and only a full-digest match falls through to the verifying
 * element comparison.
 */
serial::Hash128
vectorDigest(SparseRow row)
{
    serial::Hasher h;
    h.u64w(row.size());
    for (std::size_t e = 0; e < row.size(); ++e) {
        h.u64w(row.index[e]);
        h.u64w(bits(row.value[e]));
    }
    return h.finish();
}

/** Bitwise equality of two sparse rows. */
bool
vectorsEqual(SparseRow a, SparseRow b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t e = 0; e < a.size(); ++e) {
        if (a.index[e] != b.index[e])
            return false;
        if (bits(a.value[e]) != bits(b.value[e]))
            return false;
    }
    return true;
}

} // namespace

double
sparseSum(SparseRow row)
{
    double sum = 0.0;
    for (double val : row.value)
        sum += val;
    return sum;
}

void
FrequencyVectorSet::addInterval(const SparseVec& vec, InstrCount length)
{
    for (const auto& [idx, val] : vec)
        pushEntry(idx, val);
    closeInterval(length);
}

void
FrequencyVectorSet::closeInterval(InstrCount length)
{
    if (offsets.empty())
        offsets.push_back(0);
    const std::size_t begin = offsets.back();
    const std::size_t end = index.size();
    if (end > std::numeric_limits<u32>::max())
        panic("frequency-vector set exceeds {} entries",
              std::numeric_limits<u32>::max());
    for (std::size_t e = begin; e < end; ++e) {
        if (index[e] >= dimension)
            panic("frequency vector index {} exceeds dimension {}",
                  index[e], dimension);
        if (e > begin && index[e] <= index[e - 1])
            panic("frequency vector indices must be strictly rising");
    }
    offsets.push_back(static_cast<u32>(end));
    lengths.push_back(length);
}

void
FrequencyVectorSet::seal()
{
    offsets.shrink_to_fit();
    index.shrink_to_fit();
    value.shrink_to_fit();
    lengths.shrink_to_fit();
    auto& reg = obs::StatRegistry::global();
    reg.counter("fvs.rows").add(size());
    reg.counter("fvs.entries").add(entries());
}

void
FrequencyVectorSet::releaseEntries()
{
    std::vector<u32>().swap(offsets);
    std::vector<u32>().swap(index);
    std::vector<double>().swap(value);
}

void
FrequencyVectorSet::normalize()
{
    for (std::size_t i = 0; i < size(); ++i) {
        const u32 begin = offsets[i];
        const u32 end = offsets[i + 1];
        const double sum = sparseSum(row(i));
        if (sum == 0.0)
            continue;
        for (u32 e = begin; e < end; ++e)
            value[e] /= sum;
    }
}

DedupMap
FrequencyVectorSet::dedup() const
{
    auto& reg = obs::StatRegistry::global();
    obs::ScopedTimer buildTimer(reg.timer("dedup.build"));

    DedupMap map;
    map.classOf.resize(size());

    // Phase 1, parallel: compare each row to its predecessor and
    // digest the rows that start a run.  Phase-structured profiles
    // emit long runs of identical vectors (a loop-dominated phase
    // produces the same interval thousands of times), so most rows
    // resolve on the predecessor comparison — which fails fast on
    // the first differing entry — and never pay the digest.  Rows
    // are independent (row i reads only rows i and i-1, both
    // read-only) and land in preallocated slots, so the result is
    // identical at any --jobs.
    std::vector<serial::Hash128> digests(size());
    std::vector<unsigned char> sameAsPrev(size(), 0);
    parallelFor(globalPool(), size(), [&](std::size_t i) {
        if (i > 0 &&
            vectorsEqual(row(i), row(i - 1))) {
            sameAsPrev[i] = 1;
            return;
        }
        digests[i] = vectorDigest(row(i));
    });

    // Phase 2, serial in row order (class ids must be assigned in
    // first-appearance order): run members copy the predecessor's
    // class; run heads probe a flat pre-reserved map keyed on the
    // low digest word.  A candidate matches only on the full 128-bit
    // digest AND the verifying element comparison, so two intervals
    // share a class only when their vectors really are equal bit for
    // bit — even across digest collisions.  (A run member
    // can never be a class representative, so every firstOf row has
    // a computed digest.)
    std::unordered_map<u64, std::vector<u32>> buckets;
    buckets.reserve(size());
    for (std::size_t i = 0; i < size(); ++i) {
        u32 cls;
        if (sameAsPrev[i]) {
            cls = map.classOf[i - 1];
        } else {
            std::vector<u32>& bucket = buckets[digests[i].lo];
            const u32 fresh = static_cast<u32>(map.classes());
            cls = fresh;
            for (u32 candidate : bucket) {
                const u32 rep = map.firstOf[candidate];
                if (digests[rep] == digests[i] &&
                    vectorsEqual(row(i), row(rep))) {
                    cls = candidate;
                    break;
                }
            }
            if (cls == fresh) {
                bucket.push_back(cls);
                map.firstOf.push_back(static_cast<u32>(i));
            }
        }
        map.classOf[i] = cls;
    }

    reg.counter("dedup.calls").add();
    reg.counter("dedup.intervals").add(size());
    reg.counter("dedup.classes").add(map.classes());
    // One sample per class so the histogram shows how much arithmetic
    // the per-class clustering path can share.
    std::vector<u64> classSize(map.classes(), 0);
    for (u32 cls : map.classOf)
        ++classSize[cls];
    obs::Distribution sizes = reg.distribution("dedup.classSize");
    for (u64 size : classSize)
        sizes.sample(size);
    return map;
}

InstrCount
FrequencyVectorSet::totalInstructions() const
{
    InstrCount total = 0;
    for (InstrCount len : lengths)
        total += len;
    return total;
}

} // namespace xbsp::sp
