/**
 * @file
 * Artifact-store codec for VLI builds plus content hashing of the
 * mappable-point set (which keys VLI construction and detailed runs:
 * the boundary lists only make sense relative to one exact matching).
 */

#ifndef XBSP_CORE_SERIAL_HH
#define XBSP_CORE_SERIAL_HH

#include "core/mappable.hh"
#include "core/vli.hh"
#include "simpoint/serial.hh"
#include "util/serial.hh"

namespace xbsp::core
{

void encodeVliBuild(serial::Encoder& e, const VliBuild& build);
VliBuild decodeVliBuild(serial::Decoder& d);

/** Fold a VLI partition (the boundary list) into `h`. */
void hashPartition(serial::Hasher& h, const VliPartition& partition);

/**
 * Fold the full mappable-point set into `h` (keys, counts, per-binary
 * marker groups and the marker->point tables; rejected keys don't
 * affect downstream stages and are skipped).
 */
void hashMappable(serial::Hasher& h, const MappableSet& mappable);

/** Artifact-store codec for buildVliPartition results. */
struct VliBuildCodec
{
    using Value = VliBuild;
    static constexpr u32 tag = serial::fourcc("VLIB");
    static constexpr u32 version = 1;

    static void
    encode(serial::Encoder& e, const VliBuild& build)
    {
        encodeVliBuild(e, build);
    }

    static VliBuild
    decode(serial::Decoder& d)
    {
        return decodeVliBuild(d);
    }
};

/**
 * decodeVliBuild without materializing the interval vectors: they
 * are skipped under the same checks and `intervals` stays empty.
 */
VliBuild decodeVliBuildSkim(serial::Decoder& d);

/**
 * Decode-only codec for ArtifactStore::lookup: reads the entry
 * VliBuildCodec wrote, skipping its vectors (decodeVliBuildSkim),
 * for a reader that needs only the partition because the vectors'
 * clustering is stored too.
 */
struct VliBuildSkimCodec
{
    using Value = VliBuild;
    static constexpr u32 tag = VliBuildCodec::tag;
    static constexpr u32 version = VliBuildCodec::version;

    static VliBuild
    decode(serial::Decoder& d)
    {
        return decodeVliBuildSkim(d);
    }
};

} // namespace xbsp::core

#endif // XBSP_CORE_SERIAL_HH
