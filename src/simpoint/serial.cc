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

FrequencyVectorSet
decodeFvs(serial::Decoder& d)
{
    // The same invariants addInterval enforces, as DecodeErrors: a
    // row index at or past `dimension` would read past the end of the
    // projection matrix, and a lengths count other than the row count
    // past the end of `lengths`.
    FrequencyVectorSet fvs;
    fvs.dimension = d.varint32();
    const u64 rows = d.arrayCount();
    if (rows > 0) {
        fvs.offsets.reserve(static_cast<std::size_t>(rows) + 1);
        fvs.offsets.push_back(0);
    }
    for (u64 i = 0; i < rows; ++i) {
        const u64 entries = d.arrayCount(9);
        if (entries > std::numeric_limits<u32>::max() - fvs.entries())
            throw serial::DecodeError(
                "frequency-vector set exceeds 2^32 - 1 entries");
        for (u64 j = 0; j < entries; ++j) {
            const u32 dim = d.varint32();
            if (dim >= fvs.dimension)
                throw serial::DecodeError(
                    "frequency vector index exceeds dimension");
            if (j > 0 && dim <= fvs.index.back())
                throw serial::DecodeError(
                    "frequency vector indices not strictly rising");
            fvs.pushEntry(dim, d.f64());
        }
        fvs.offsets.push_back(static_cast<u32>(fvs.entries()));
    }
    const u64 lengths = d.arrayCount();
    if (lengths != rows)
        throw serial::DecodeError(
            "frequency-vector lengths count differs from row count");
    fvs.lengths.reserve(static_cast<std::size_t>(lengths));
    for (u64 i = 0; i < lengths; ++i)
        fvs.lengths.push_back(d.varint());
    fvs.seal();
    return fvs;
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
        e.varint(phase.members.size());
        for (u32 member : phase.members)
            e.varint(member);
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
    // k, and every phase non-empty, its members and representative
    // existing intervals that carry its label.  estimateSampled
    // indexes interval stats with all of them.
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
    auto carries = [&r](u32 interval, u32 phaseId) {
        return interval < r.labels.size() &&
               r.labels[interval] == phaseId;
    };
    const u64 phases = d.arrayCount(11);
    r.phases.reserve(static_cast<std::size_t>(phases));
    for (u64 i = 0; i < phases; ++i) {
        Phase phase;
        phase.id = d.varint32();
        phase.representative = d.varint32();
        if (!carries(phase.representative, phase.id))
            throw serial::DecodeError(
                "phase representative does not carry the phase's "
                "label");
        phase.weight = d.f64();
        const u64 members = d.arrayCount();
        if (members == 0)
            throw serial::DecodeError("phase has no members");
        phase.members.reserve(static_cast<std::size_t>(members));
        for (u64 j = 0; j < members; ++j) {
            const u32 member = d.varint32();
            if (!carries(member, phase.id))
                throw serial::DecodeError(
                    "phase member does not carry the phase's label");
            phase.members.push_back(member);
        }
        r.phases.push_back(std::move(phase));
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
