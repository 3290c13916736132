#include "mem/pattern.hh"

#include "util/logging.hh"

namespace xbsp::mem
{

Addr
regionBase(u32 regionId)
{
    // Regions are 4 GiB apart; region ids are user-chosen small ints.
    return (static_cast<Addr>(regionId) + 1) << 32;
}

u64
ceilPow2(u64 v)
{
    u64 p = 1;
    while (p < v)
        p <<= 1;
    return p;
}

AddressGenerator::AddressGenerator(const ir::MemPattern& pattern,
                                   u64 seed)
    : kind(pattern.kind), base(regionBase(pattern.regionId)),
      writeFraction(pattern.writeFraction),
      hotFraction(pattern.hotFraction), rng(hashMix(seed)),
      driftPeriod(pattern.driftPeriod), driftAmp(pattern.driftAmp)
{
    switch (kind) {
      case ir::MemPatternKind::None:
        break;
      case ir::MemPatternKind::Stride:
        stride = std::max<u64>(1, pattern.stride);
        slots = std::max<u64>(1, pattern.workingSet / stride);
        break;
      case ir::MemPatternKind::RandomInSet:
      case ir::MemPatternKind::Gather:
        slots = std::max<u64>(1, pattern.workingSet / lineBytes);
        hotSlots = std::max<u64>(1, slots / 8);
        break;
      case ir::MemPatternKind::PointerChase:
        slots = ceilPow2(
            std::max<u64>(2, pattern.workingSet / lineBytes));
        chaseMask = slots - 1;
        cursor = rng.next() & chaseMask;
        break;
    }
    effSlots = slots;
    effHotSlots = hotSlots;
    effChaseMask = chaseMask;
    effHotFraction = hotFraction;
    rebuildDraws();
}

void
AddressGenerator::rebuildDraws()
{
    slotDraw = BoundedBelow(effSlots);
    hotDraw = BoundedBelow(effHotSlots);
}

void
AddressGenerator::applyDriftLevel()
{
    // A fixed four-level cycle: nominal, grown, shrunk, mildly grown.
    // Keyed to the semantic execution index so every binary sees the
    // same data behaviour at the same point of execution.
    static constexpr double levelScale[4] = {0.0, 1.0, -0.6, 0.4};
    const u64 level = (execIndex / driftPeriod) % 4;
    const double factor = 1.0 + driftAmp * levelScale[level];

    effSlots = std::max<u64>(
        1, static_cast<u64>(static_cast<double>(slots) * factor));
    effHotSlots = std::max<u64>(
        1, static_cast<u64>(static_cast<double>(hotSlots) * factor));
    // Gathers also spill more references to the cold set when the
    // footprint grows.
    effHotFraction = hotFraction - 0.12 * driftAmp * levelScale[level];
    effHotFraction = std::min(1.0, std::max(0.4, effHotFraction));
    // Pointer chases halve their cycle in the shrunk level.
    effChaseMask = factor < 1.0 ? (chaseMask >> 1) : chaseMask;
    if (effChaseMask == 0)
        effChaseMask = chaseMask;
    rebuildDraws();
}

void
AddressGenerator::beginBlock()
{
    if (driftPeriod == 0)
        return;
    if (execIndex % driftPeriod == 0)
        applyDriftLevel();
    ++execIndex;
    if (kind == ir::MemPatternKind::Stride && cursor >= effSlots)
        cursor = 0;
}

bool
AddressGenerator::drawWrite()
{
    // Deterministic fraction without per-ref RNG: accumulate and emit
    // a write each time the accumulator crosses 1.
    writeAccum += writeFraction;
    if (writeAccum >= 1.0) {
        writeAccum -= 1.0;
        return true;
    }
    return false;
}

MemRef
AddressGenerator::next()
{
    MemRef ref;
    ref.isWrite = drawWrite();
    switch (kind) {
      case ir::MemPatternKind::None:
        panic("AddressGenerator::next on a block without memory ops");
      case ir::MemPatternKind::Stride:
        ref.addr = base + cursor * stride;
        cursor = cursor + 1 >= effSlots ? 0 : cursor + 1;
        break;
      case ir::MemPatternKind::RandomInSet:
        ref.addr = base + slotDraw.draw(rng) * lineBytes;
        break;
      case ir::MemPatternKind::PointerChase:
        // Full-period LCG walk over a power-of-two line set: the
        // dependent-chain analogue (a != 1 mod 4 would shorten the
        // period; these constants give the full 2^k cycle).
        cursor = (cursor * 1664525 + 1013904223) & effChaseMask;
        ref.addr = base + cursor * lineBytes;
        break;
      case ir::MemPatternKind::Gather:
        if (rng.nextDouble() < effHotFraction)
            ref.addr = base + hotDraw.draw(rng) * lineBytes;
        else
            ref.addr = base + slotDraw.draw(rng) * lineBytes;
        break;
    }
    return ref;
}

void
AddressGenerator::nextBatch(u32 n, MemRef* out)
{
    // Each case replicates next()'s per-reference body exactly (the
    // write-fraction accumulator update, then the pattern draws, in
    // the same order), so the emitted stream is bit-identical to n
    // successive next() calls; only the kind dispatch is hoisted.
    switch (kind) {
      case ir::MemPatternKind::None:
        if (n > 0)
            panic("AddressGenerator::nextBatch on a block without "
                  "memory ops");
        return;
      case ir::MemPatternKind::Stride: {
        u64 c = cursor;
        const u64 wrap = effSlots;
        for (u32 i = 0; i < n; ++i) {
            out[i].isWrite = drawWrite();
            out[i].addr = base + c * stride;
            c = c + 1 >= wrap ? 0 : c + 1;
        }
        cursor = c;
        break;
      }
      case ir::MemPatternKind::RandomInSet:
        for (u32 i = 0; i < n; ++i) {
            out[i].isWrite = drawWrite();
            out[i].addr = base + slotDraw.draw(rng) * lineBytes;
        }
        break;
      case ir::MemPatternKind::PointerChase: {
        u64 c = cursor;
        const u64 mask = effChaseMask;
        for (u32 i = 0; i < n; ++i) {
            out[i].isWrite = drawWrite();
            c = (c * 1664525 + 1013904223) & mask;
            out[i].addr = base + c * lineBytes;
        }
        cursor = c;
        break;
      }
      case ir::MemPatternKind::Gather:
        for (u32 i = 0; i < n; ++i) {
            out[i].isWrite = drawWrite();
            if (rng.nextDouble() < effHotFraction) {
                out[i].addr = base + hotDraw.draw(rng) * lineBytes;
            } else {
                out[i].addr = base + slotDraw.draw(rng) * lineBytes;
            }
        }
        break;
    }
}

u64
AddressGenerator::footprintLines() const
{
    switch (kind) {
      case ir::MemPatternKind::None:
        return 0;
      case ir::MemPatternKind::Stride:
        return std::max<u64>(1, slots * stride / lineBytes);
      default:
        return slots;
    }
}

} // namespace xbsp::mem
