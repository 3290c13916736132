#include "profile/serial.hh"

namespace xbsp::prof
{

void
encodeProfilePass(serial::Encoder& e, const ProfilePass& pass)
{
    e.varint(pass.markers.counts.size());
    for (u64 count : pass.markers.counts)
        e.varint(count);
    e.varint(pass.markers.totalInstructions);
    sp::encodeFvs(e, pass.fliIntervals);
    e.varint(pass.fliBoundaries.size());
    for (InstrCount boundary : pass.fliBoundaries)
        e.varint(boundary);
    e.varint(pass.totalInstructions);
}

namespace
{

/**
 * The pass encoded at `d`; with `vectors` false its FLI vectors are
 * skipped under the same checks and `fliIntervals` stays empty.
 * Either way there must be one boundary per interval, as the
 * collector writes them.
 */
ProfilePass
decodePass(serial::Decoder& d, bool vectors)
{
    ProfilePass pass;
    const u64 counts = d.arrayCount();
    pass.markers.counts.reserve(static_cast<std::size_t>(counts));
    for (u64 i = 0; i < counts; ++i)
        pass.markers.counts.push_back(d.varint());
    pass.markers.totalInstructions = d.varint();
    u64 intervals = 0;
    if (vectors) {
        pass.fliIntervals = sp::decodeFvs(d);
        intervals = pass.fliIntervals.size();
    } else {
        intervals = sp::skipFvs(d);
    }
    const u64 boundaries = d.arrayCount();
    if (boundaries != intervals)
        throw serial::DecodeError(
            "FLI boundary count differs from interval count");
    pass.fliBoundaries.reserve(static_cast<std::size_t>(boundaries));
    for (u64 i = 0; i < boundaries; ++i)
        pass.fliBoundaries.push_back(d.varint());
    pass.totalInstructions = d.varint();
    return pass;
}

} // namespace

ProfilePass
decodeProfilePass(serial::Decoder& d)
{
    return decodePass(d, true);
}

ProfilePass
decodeProfilePassSkim(serial::Decoder& d)
{
    return decodePass(d, false);
}

} // namespace xbsp::prof
