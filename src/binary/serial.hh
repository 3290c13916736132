/**
 * @file
 * Binary codec for the artifact store: encode/decode a compiled
 * bin::Binary bit-exactly, plus content hashing of binaries and
 * targets for downstream stage keys (profiling, VLI construction,
 * detailed simulation are all keyed by the binary they run).
 */

#ifndef XBSP_BINARY_SERIAL_HH
#define XBSP_BINARY_SERIAL_HH

#include "binary/binary.hh"
#include "util/serial.hh"

namespace xbsp::bin
{

/** Append a full binary to `e` (see BinaryCodec for the inverse). */
void encodeBinary(serial::Encoder& e, const Binary& binary);

/**
 * Decode one binary; throws serial::DecodeError on malformed input,
 * including any binary binaryDefect() rejects.
 */
Binary decodeBinary(serial::Decoder& d);

/** Fold a target's identity (arch x opt level) into `h`. */
void hashTarget(serial::Hasher& h, const Target& target);

/**
 * Fold a binary's full content into `h` by folding its canonical
 * encoding, so the hash and the codec can never disagree about what
 * constitutes the binary's identity.
 */
void hashBinary(serial::Hasher& h, const Binary& binary);

/** Artifact-store codec for compile outputs. */
struct BinaryCodec
{
    using Value = Binary;
    static constexpr u32 tag = serial::fourcc("BINV");
    static constexpr u32 version = 1;

    static void
    encode(serial::Encoder& e, const Binary& binary)
    {
        encodeBinary(e, binary);
    }

    static Binary
    decode(serial::Decoder& d)
    {
        return decodeBinary(d);
    }
};

} // namespace xbsp::bin

#endif // XBSP_BINARY_SERIAL_HH
