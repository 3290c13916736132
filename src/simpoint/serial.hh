/**
 * @file
 * Codecs and content hashing for the clustering layer: frequency-
 * vector sets (the profiling <-> clustering interface) and SimPoint
 * results round-trip bit-exactly through the artifact store; option
 * structs hash field-by-field so any knob change misses the cache.
 */

#ifndef XBSP_SIMPOINT_SERIAL_HH
#define XBSP_SIMPOINT_SERIAL_HH

#include "simpoint/simpoint.hh"
#include "util/serial.hh"

namespace xbsp::sp
{

void encodeFvs(serial::Encoder& e, const FrequencyVectorSet& fvs);
FrequencyVectorSet decodeFvs(serial::Decoder& d);

/**
 * Read past one encoded frequency-vector set without building it,
 * under decodeFvs's checks and DecodeErrors; returns its row count.
 */
u64 skipFvs(serial::Decoder& d);

void encodeSimPointResult(serial::Encoder& e, const SimPointResult& r);
SimPointResult decodeSimPointResult(serial::Decoder& d);

/** Fold a frequency-vector set's full content into `h`. */
void hashFvs(serial::Hasher& h, const FrequencyVectorSet& fvs);

/** Fold every clustering knob into `h`. */
void hashSimPointOptions(serial::Hasher& h,
                         const SimPointOptions& options);

/**
 * Artifact-store codec for clustering results.  Version 2 writes no
 * per-phase member lists: the labels are the only record of them.
 */
struct SimPointCodec
{
    using Value = SimPointResult;
    static constexpr u32 tag = serial::fourcc("SPRS");
    static constexpr u32 version = 2;

    static void
    encode(serial::Encoder& e, const SimPointResult& r)
    {
        encodeSimPointResult(e, r);
    }

    static SimPointResult
    decode(serial::Decoder& d)
    {
        return decodeSimPointResult(d);
    }
};

} // namespace xbsp::sp

#endif // XBSP_SIMPOINT_SERIAL_HH
