#include "core/mappable.hh"

#include "util/format.hh"
#include <map>

#include "util/logging.hh"

namespace xbsp::core
{

std::string
MappableKey::describe() const
{
    if (kind == bin::MarkerKind::ProcEntry)
        return xbsp::format("proc-entry {}", symbol);
    return xbsp::format("{} @{}", bin::markerKindName(kind), line);
}

namespace
{

struct KeyEntry
{
    u64 count = 0;
    std::vector<u32> markers;
};

using KeyMap = std::map<MappableKey, KeyEntry>;

/**
 * Collect candidate keys for one binary: proc entries keyed by
 * symbol, loop markers keyed by (kind, line).  Markers without debug
 * info (line 0 loops) are skipped — they can never be matched.
 */
KeyMap
collectKeys(const bin::Binary& binary, const prof::MarkerProfile& prof)
{
    KeyMap keys;
    for (u32 m = 0; m < binary.markerCount(); ++m) {
        const bin::Marker& marker = binary.markers[m];
        MappableKey key;
        key.kind = marker.kind;
        if (marker.kind == bin::MarkerKind::ProcEntry) {
            key.symbol = marker.symbol;
        } else {
            if (marker.line == 0)
                continue; // compiler-generated, no debug info
            key.line = marker.line;
        }
        KeyEntry& entry = keys[key];
        entry.count += prof.counts[m];
        entry.markers.push_back(m);
    }
    return keys;
}

} // namespace

MappableSet
findMappablePoints(const std::vector<const bin::Binary*>& binaries,
                   const std::vector<const prof::MarkerProfile*>& profiles)
{
    if (binaries.empty())
        fatal("findMappablePoints requires at least one binary");
    if (binaries.size() != profiles.size())
        fatal("findMappablePoints: {} binaries but {} profiles",
              binaries.size(), profiles.size());
    for (std::size_t b = 0; b < binaries.size(); ++b) {
        if (profiles[b]->counts.size() != binaries[b]->markerCount())
            fatal("profile {} has {} counts but binary has {} markers",
                  b, profiles[b]->counts.size(),
                  binaries[b]->markerCount());
    }

    std::vector<KeyMap> perBinary;
    perBinary.reserve(binaries.size());
    for (std::size_t b = 0; b < binaries.size(); ++b)
        perBinary.push_back(collectKeys(*binaries[b], *profiles[b]));

    // The union of keys over all binaries, so rejections can be
    // reported even for keys missing from the first binary.
    std::map<MappableKey, bool> allKeys;
    for (const auto& keys : perBinary) {
        for (const auto& [key, entry] : keys)
            allKeys.emplace(key, true);
    }

    MappableSet set;
    set.binaryCount = binaries.size();
    set.markerToPoint.resize(binaries.size());
    for (std::size_t b = 0; b < binaries.size(); ++b) {
        set.markerToPoint[b].assign(binaries[b]->markerCount(),
                                    invalidId);
    }

    for (const auto& [key, unused] : allKeys) {
        std::vector<u64> counts(binaries.size(), 0);
        bool presentEverywhere = true;
        for (std::size_t b = 0; b < binaries.size(); ++b) {
            auto it = perBinary[b].find(key);
            if (it == perBinary[b].end()) {
                presentEverywhere = false;
            } else {
                counts[b] = it->second.count;
            }
        }
        bool countsEqual = true;
        for (std::size_t b = 1; b < counts.size(); ++b)
            countsEqual &= counts[b] == counts[0];

        if (!presentEverywhere || !countsEqual ||
            (countsEqual && counts[0] == 0)) {
            RejectedKey rej;
            rej.key = key;
            rej.countsPerBinary = counts;
            if (!presentEverywhere)
                rej.reason = RejectReason::MissingInSomeBinary;
            else if (!countsEqual)
                rej.reason = RejectReason::CountMismatch;
            else
                rej.reason = RejectReason::NeverExecuted;
            set.rejected.push_back(std::move(rej));
            continue;
        }

        MappablePoint point;
        point.key = key;
        point.execCount = counts[0];
        point.markerIds.resize(binaries.size());
        const u32 pointIdx = static_cast<u32>(set.points.size());
        for (std::size_t b = 0; b < binaries.size(); ++b) {
            const KeyEntry& entry = perBinary[b].find(key)->second;
            point.markerIds[b] = entry.markers;
            for (u32 m : entry.markers)
                set.markerToPoint[b][m] = pointIdx;
        }
        set.points.push_back(std::move(point));
    }
    return set;
}

} // namespace xbsp::core
