/**
 * @file
 * Artifact-store codec for profiling passes: marker counts, FLI BBVs
 * and boundaries round-trip bit-exactly, so a cached pass is
 * indistinguishable from re-running the functional engine.
 */

#ifndef XBSP_PROFILE_SERIAL_HH
#define XBSP_PROFILE_SERIAL_HH

#include "profile/profile.hh"
#include "simpoint/serial.hh"
#include "util/serial.hh"

namespace xbsp::prof
{

void encodeProfilePass(serial::Encoder& e, const ProfilePass& pass);
ProfilePass decodeProfilePass(serial::Decoder& d);

/**
 * decodeProfilePass without materializing the FLI vectors: they are
 * skipped under the same checks, `fliIntervals` stays empty and
 * `fliBoundaries.size()` is the interval count.
 */
ProfilePass decodeProfilePassSkim(serial::Decoder& d);

/** Artifact-store codec for runProfilePass results. */
struct ProfilePassCodec
{
    using Value = ProfilePass;
    static constexpr u32 tag = serial::fourcc("PROF");
    static constexpr u32 version = 1;

    static void
    encode(serial::Encoder& e, const ProfilePass& pass)
    {
        encodeProfilePass(e, pass);
    }

    static ProfilePass
    decode(serial::Decoder& d)
    {
        return decodeProfilePass(d);
    }
};

/**
 * Decode-only codec for ArtifactStore::lookup: reads the entry
 * ProfilePassCodec wrote, skipping its FLI vectors
 * (decodeProfilePassSkim), for a reader that needs only the markers
 * and boundaries because the vectors' clustering is stored too.
 */
struct ProfilePassSkimCodec
{
    using Value = ProfilePass;
    static constexpr u32 tag = ProfilePassCodec::tag;
    static constexpr u32 version = ProfilePassCodec::version;

    static ProfilePass
    decode(serial::Decoder& d)
    {
        return decodeProfilePassSkim(d);
    }
};

} // namespace xbsp::prof

#endif // XBSP_PROFILE_SERIAL_HH
