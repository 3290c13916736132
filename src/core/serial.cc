#include "core/serial.hh"

namespace xbsp::core
{

void
encodeVliBuild(serial::Encoder& e, const VliBuild& build)
{
    e.varint(build.partition.boundaries.size());
    for (const Boundary& b : build.partition.boundaries) {
        e.varint(b.pointIdx);
        e.varint(b.fireCount);
    }
    sp::encodeFvs(e, build.intervals);
    e.varint(build.totalInstructions);
}

namespace
{

VliPartition
decodePartition(serial::Decoder& d)
{
    VliPartition partition;
    const u64 boundaries = d.arrayCount(2);
    partition.boundaries.reserve(static_cast<std::size_t>(boundaries));
    for (u64 i = 0; i < boundaries; ++i) {
        Boundary b;
        b.pointIdx = static_cast<u32>(d.varint());
        b.fireCount = d.varint();
        partition.boundaries.push_back(b);
    }
    return partition;
}

} // namespace

VliBuild
decodeVliBuild(serial::Decoder& d)
{
    VliBuild build;
    build.partition = decodePartition(d);
    build.intervals = sp::decodeFvs(d);
    build.totalInstructions = d.varint();
    return build;
}

VliBuild
decodeVliBuildSkim(serial::Decoder& d)
{
    VliBuild build;
    build.partition = decodePartition(d);
    sp::skipFvs(d);
    build.totalInstructions = d.varint();
    return build;
}

void
hashPartition(serial::Hasher& h, const VliPartition& partition)
{
    h.u64v(partition.boundaries.size());
    for (const Boundary& b : partition.boundaries) {
        h.u32v(b.pointIdx);
        h.u64v(b.fireCount);
    }
}

void
hashMappable(serial::Hasher& h, const MappableSet& mappable)
{
    h.u64v(mappable.binaryCount);
    h.u64v(mappable.points.size());
    for (const MappablePoint& point : mappable.points) {
        h.u64v(static_cast<u64>(point.key.kind));
        h.str(point.key.symbol);
        h.u32v(point.key.line);
        h.u64v(point.execCount);
        h.u64v(point.markerIds.size());
        for (const std::vector<u32>& group : point.markerIds) {
            h.u64v(group.size());
            for (u32 markerId : group)
                h.u32v(markerId);
        }
    }
    h.u64v(mappable.markerToPoint.size());
    for (const std::vector<u32>& table : mappable.markerToPoint) {
        h.u64v(table.size());
        for (u32 pointIdx : table)
            h.u32v(pointIdx);
    }
}

} // namespace xbsp::core
