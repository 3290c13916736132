#include "simpoint/fvec.hh"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>

#include "obs/stats.hh"
#include "util/logging.hh"
#include "util/rng.hh"

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
 * Cheap 64-bit hash of a sparse row's indices and value bits for the
 * intern index.  A match is only a candidate (closeRow() compares the
 * rows), so a collision costs a comparison, never a wrong row.
 */
u64
rowHash(SparseRow row)
{
    // Four independent lanes, so the multiplies overlap.
    auto step = [&](u64 lane, std::size_t e) {
        const u64 entry =
            bits(row.value[e]) + u64{row.index[e]} * 0x9e3779b97f4a7c15ull;
        return (std::rotl(lane, 23) ^ entry) * 0xff51afd7ed558ccdull;
    };
    u64 lane[4] = {row.size(), 1, 2, 3};
    std::size_t e = 0;
    for (; e + 4 <= row.size(); e += 4) {
        for (std::size_t l = 0; l < 4; ++l)
            lane[l] = step(lane[l], e + l);
    }
    for (; e < row.size(); ++e)
        lane[0] = step(lane[0], e);
    return hashMix(lane[0] ^ std::rotl(lane[1], 16) ^
                   std::rotl(lane[2], 32) ^ std::rotl(lane[3], 48));
}

constexpr u32 noRow = std::numeric_limits<u32>::max();

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
    closeRow();
    lengths.push_back(length);
}

void
FrequencyVectorSet::closeRow()
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
    const SparseRow open{{index.data() + begin, end - begin},
                         {value.data() + begin, end - begin}};
    // Phases repeat one vector interval after interval, so most rows
    // match their predecessor's and never reach the index.
    u32 id = noRow;
    if (!rowOf.empty() && vectorsEqual(open, storedRow(rowOf.back()))) {
        id = rowOf.back();
    } else {
        if (intern.hashes.size() != storedRows()) {
            intern = {};
            for (std::size_t r = 0; r < storedRows(); ++r)
                indexStored(rowHash(storedRow(r)));
        }
        const u64 h = rowHash(open);
        id = findStored(open, h);
        if (id == noRow) {
            rowOf.push_back(static_cast<u32>(storedRows()));
            offsets.push_back(static_cast<u32>(end));
            indexStored(h);
            return;
        }
    }
    index.resize(begin);
    value.resize(begin);
    rowOf.push_back(id);
}

u32
FrequencyVectorSet::findStored(SparseRow open, u64 h) const
{
    if (intern.slots.empty())
        return noRow;
    const std::size_t mask = intern.slots.size() - 1;
    for (std::size_t s = h & mask;; s = (s + 1) & mask) {
        const u32 r = intern.slots[s];
        if (r == noRow)
            return noRow;
        if (intern.hashes[r] == h && vectorsEqual(open, storedRow(r)))
            return r;
    }
}

void
FrequencyVectorSet::indexStored(u64 h)
{
    intern.hashes.push_back(h);
    auto place = [&](u32 r) {
        const std::size_t mask = intern.slots.size() - 1;
        std::size_t s = intern.hashes[r] & mask;
        while (intern.slots[s] != noRow)
            s = (s + 1) & mask;
        intern.slots[s] = r;
    };
    if (intern.slots.size() >= 2 * intern.hashes.size()) {
        place(static_cast<u32>(intern.hashes.size() - 1));
        return;
    }
    intern.slots.assign(std::bit_ceil(4 * intern.hashes.size()), noRow);
    for (u32 r = 0; r < intern.hashes.size(); ++r)
        place(r);
}

std::size_t
FrequencyVectorSet::entries() const
{
    std::size_t total = 0;
    for (u32 r : rowOf)
        total += offsets[r + 1] - offsets[r];
    return total;
}

void
FrequencyVectorSet::seal()
{
    rowOf.shrink_to_fit();
    offsets.shrink_to_fit();
    index.shrink_to_fit();
    value.shrink_to_fit();
    lengths.shrink_to_fit();
    intern = {};
    auto& reg = obs::StatRegistry::global();
    reg.counter("fvs.rows").add(size());
    reg.counter("fvs.entries").add(entries());
    reg.counter("fvs.rows.stored").add(storedRows());
    reg.counter("fvs.entries.stored").add(storedEntries());
}

void
FrequencyVectorSet::releaseEntries()
{
    std::vector<u32>().swap(rowOf);
    std::vector<u32>().swap(offsets);
    std::vector<u32>().swap(index);
    std::vector<double>().swap(value);
    intern = {};
}

void
FrequencyVectorSet::normalize()
{
    // Each stored row is divided once: every interval sharing it gets
    // the bits it would have got alone.  Rows with proportional counts
    // can divide to equal bits, so the rows are interned again as
    // they are divided, compacted in place.  A row keeps its place in
    // first-appearance order unless it folds into an earlier one, so
    // `rowOf` stays numbered in that order.
    const std::size_t stored = storedRows();
    std::vector<u32> keptAs(stored);
    intern = {};
    u32 kept = 0;
    u32 begin = 0;  // of row r's entries
    u32 end = 0;    // of the kept rows' entries
    for (std::size_t r = 0; r < stored; ++r) {
        const u32 rowEnd = offsets[r + 1];
        const SparseRow row{{index.data() + begin, rowEnd - begin},
                            {value.data() + begin, rowEnd - begin}};
        const double sum = sparseSum(row);
        if (sum != 0.0) {
            for (u32 e = begin; e < rowEnd; ++e)
                value[e] /= sum;
        }
        const u64 h = rowHash(row);
        keptAs[r] = findStored(row, h);
        if (keptAs[r] == noRow) {
            if (end != begin) {
                std::copy(index.begin() + begin, index.begin() + rowEnd,
                          index.begin() + end);
                std::copy(value.begin() + begin, value.begin() + rowEnd,
                          value.begin() + end);
            }
            end += rowEnd - begin;
            offsets[kept + 1] = end;
            keptAs[r] = kept++;
            indexStored(h);
        }
        begin = rowEnd;
    }
    intern = {};
    if (kept == stored)
        return;
    index.erase(index.begin() + end, index.begin() + begin);
    value.erase(value.begin() + end, value.begin() + begin);
    offsets.resize(kept + 1);
    for (u32& r : rowOf)
        r = keptAs[r];
}

bool
FrequencyVectorSet::operator==(const FrequencyVectorSet& other) const
{
    if (dimension != other.dimension || lengths != other.lengths ||
        rowOf.size() != other.rowOf.size())
        return false;
    for (std::size_t i = 0; i < rowOf.size(); ++i) {
        const SparseRow a = row(i);
        const SparseRow b = other.row(i);
        if (!std::ranges::equal(a.index, b.index) ||
            !std::ranges::equal(a.value, b.value))
            return false;
    }
    return true;
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
