#include "simpoint/serial.hh"

#include <limits>

namespace xbsp::sp
{

void
encodeFvs(serial::Encoder& e, const FrequencyVectorSet& fvs)
{
    e.varint(fvs.dimension);
    e.varint(fvs.size());
    for (std::size_t i = 0; i < fvs.size(); ++i) {
        const SparseRow row = fvs.row(i);
        e.varint(row.size());
        for (std::size_t j = 0; j < row.size(); ++j) {
            e.varint(row.index[j]);
            e.f64(row.value[j]);
        }
    }
    e.varint(fvs.lengths.size());
    for (InstrCount length : fvs.lengths)
        e.varint(length);
}

namespace
{

/**
 * Walk one encoded frequency-vector set, checking as DecodeErrors the
 * invariants addInterval enforces: a row index at or past
 * `dimension` would read past the end of the projection matrix, and
 * a lengths count other than the row count past the end of
 * `lengths`.  `visit` sees every decoded field in encoding order
 * through dimension(u32), rows(u64), entry(u32 index, double value),
 * rowEnd(u64 entries so far), lengths(u64) and length(u64).
 */
template <typename Visitor>
void
walkFvs(serial::Decoder& d, Visitor& visit)
{
    const u32 dimension = d.varint32();
    visit.dimension(dimension);
    const u64 rows = d.arrayCount();
    visit.rows(rows);
    u64 total = 0;
    for (u64 i = 0; i < rows; ++i) {
        const u64 entries = d.arrayCount(9);
        if (entries > std::numeric_limits<u32>::max() - total)
            throw serial::DecodeError(
                "frequency-vector set exceeds 2^32 - 1 entries");
        u32 last = 0;
        for (u64 j = 0; j < entries; ++j) {
            const u32 dim = d.varint32();
            if (dim >= dimension)
                throw serial::DecodeError(
                    "frequency vector index exceeds dimension");
            if (j > 0 && dim <= last)
                throw serial::DecodeError(
                    "frequency vector indices not strictly rising");
            last = dim;
            visit.entry(dim, d.f64());
        }
        total += entries;
        visit.rowEnd(total);
    }
    const u64 lengths = d.arrayCount();
    if (lengths != rows)
        throw serial::DecodeError(
            "frequency-vector lengths count differs from row count");
    visit.lengths(lengths);
    for (u64 i = 0; i < lengths; ++i)
        visit.length(d.varint());
}

/** Builds the set, interning its rows as they end. */
struct FvsBuilder
{
    FrequencyVectorSet fvs;

    void dimension(u32 n) { fvs.dimension = n; }

    void rows(u64 n) { fvs.rowOf.reserve(static_cast<std::size_t>(n)); }
    void entry(u32 index, double value) { fvs.pushEntry(index, value); }
    void rowEnd(u64) { fvs.closeRow(); }
    void lengths(u64 n) { fvs.lengths.reserve(static_cast<std::size_t>(n)); }
    void length(u64 length) { fvs.lengths.push_back(length); }
};

/** Counts the rows. */
struct FvsSkipper
{
    u64 count = 0;

    void dimension(u32) {}
    void rows(u64 n) { count = n; }
    void entry(u32, double) {}
    void rowEnd(u64) {}
    void lengths(u64) {}
    void length(u64) {}
};

} // namespace

FrequencyVectorSet
decodeFvs(serial::Decoder& d)
{
    FvsBuilder builder;
    walkFvs(d, builder);
    builder.fvs.seal();
    return std::move(builder.fvs);
}

u64
skipFvs(serial::Decoder& d)
{
    FvsSkipper skipper;
    walkFvs(d, skipper);
    return skipper.count;
}

void
encodeSimPointResult(serial::Encoder& e, const SimPointResult& r)
{
    e.varint(r.k);
    e.varint(r.labels.size());
    for (u32 label : r.labels)
        e.varint(label);
    e.varint(r.phases.size());
    for (const Phase& phase : r.phases) {
        e.varint(phase.id);
        e.varint(phase.representative);
        e.f64(phase.weight);
    }
    e.f64(r.chosenBic);
    e.varint(r.bicByK.size());
    for (double bic : r.bicByK)
        e.f64(bic);
}

SimPointResult
decodeSimPointResult(serial::Decoder& d)
{
    // A store artifact is outside input: every label must be below
    // k, and every representative an existing interval that carries
    // its phase's label, which also proves each phase non-empty and
    // its id below k.  Phase ids rise strictly, so no phase is
    // counted twice.  estimateSampled indexes per-phase sums with the
    // ids and interval stats with the labels' positions and the
    // representatives.
    SimPointResult r;
    r.k = d.varint32();
    const u64 labels = d.arrayCount();
    r.labels.reserve(static_cast<std::size_t>(labels));
    for (u64 i = 0; i < labels; ++i) {
        const u32 label = d.varint32();
        if (label >= r.k)
            throw serial::DecodeError("phase label out of range");
        r.labels.push_back(label);
    }
    const u64 phases = d.arrayCount(10);
    r.phases.reserve(static_cast<std::size_t>(phases));
    for (u64 i = 0; i < phases; ++i) {
        Phase phase;
        phase.id = d.varint32();
        if (i > 0 && phase.id <= r.phases.back().id)
            throw serial::DecodeError("phase ids not strictly rising");
        phase.representative = d.varint32();
        if (phase.representative >= r.labels.size() ||
            r.labels[phase.representative] != phase.id)
            throw serial::DecodeError(
                "phase representative does not carry the phase's "
                "label");
        phase.weight = d.f64();
        r.phases.push_back(phase);
    }
    r.chosenBic = d.f64();
    const u64 bics = d.arrayCount(8);
    r.bicByK.reserve(static_cast<std::size_t>(bics));
    for (u64 i = 0; i < bics; ++i)
        r.bicByK.push_back(d.f64());
    return r;
}

void
hashFvs(serial::Hasher& h, const FrequencyVectorSet& fvs)
{
    h.u32v(fvs.dimension);
    h.u64v(fvs.size());
    for (std::size_t i = 0; i < fvs.size(); ++i) {
        const SparseRow row = fvs.row(i);
        h.u64v(row.size());
        for (std::size_t j = 0; j < row.size(); ++j) {
            h.u32v(row.index[j]);
            h.f64(row.value[j]);
        }
    }
    h.u64v(fvs.lengths.size());
    for (InstrCount length : fvs.lengths)
        h.u64v(length);
}

void
hashSimPointOptions(serial::Hasher& h, const SimPointOptions& options)
{
    h.u32v(options.maxK);
    h.u32v(options.projectedDims);
    h.u32v(options.seedsPerK);
    h.f64(options.bicThreshold);
    h.u64v(options.seed);
    h.u64v(static_cast<u64>(options.init));
    h.u32v(options.maxIterations);
    h.boolean(options.earlyPoints);
    h.f64(options.earlyTolerance);
    // The retired duplicate-merge quantum was always 0 here; keep
    // folding it so every existing store key stays valid.
    h.f64(0.0);
}

} // namespace xbsp::sp
