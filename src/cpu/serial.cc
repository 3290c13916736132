#include "cpu/serial.hh"

namespace xbsp::cpu
{

void
encodeCoreConfig(serial::Encoder& e, const CoreConfig& c)
{
    e.varint(static_cast<u64>(c.kind));
    e.varint(c.fetchWidth);
    e.varint(c.ftqDepth);
    e.varint(c.predictorBits);
    e.varint(c.mispredictPenalty);
}

CoreConfig
decodeCoreConfig(serial::Decoder& d)
{
    CoreConfig c;
    const u64 kind = d.varint();
    if (kind > static_cast<u64>(CoreKind::Decoupled))
        throw serial::DecodeError("bad CoreKind");
    c.kind = static_cast<CoreKind>(kind);
    c.fetchWidth = static_cast<u32>(d.varint());
    c.ftqDepth = static_cast<u32>(d.varint());
    c.predictorBits = static_cast<u32>(d.varint());
    c.mispredictPenalty = static_cast<u32>(d.varint());
    return c;
}

void
hashCoreConfig(serial::Hasher& h, const CoreConfig& c)
{
    h.u64v(static_cast<u64>(c.kind));
    h.u32v(c.fetchWidth);
    h.u32v(c.ftqDepth);
    h.u32v(c.predictorBits);
    h.u32v(c.mispredictPenalty);
}

void
encodeCoreStats(serial::Encoder& e, const CoreStats& s)
{
    e.varint(s.instructions);
    e.varint(s.cycles);
    e.varint(s.memRefs);
    e.varint(s.branches);
    e.varint(s.mispredicts);
    e.varint(s.flushes);
    e.varint(s.fetchBubbles);
}

CoreStats
decodeCoreStats(serial::Decoder& d)
{
    CoreStats s;
    s.instructions = d.varint();
    s.cycles = d.varint();
    s.memRefs = d.varint();
    s.branches = d.varint();
    s.mispredicts = d.varint();
    s.flushes = d.varint();
    s.fetchBubbles = d.varint();
    return s;
}

} // namespace xbsp::cpu
