/**
 * @file
 * Compact binary serialization and stable content hashing — the
 * substrate of the persistent artifact store.
 *
 *  - **Encoder/Decoder**: LEB128 varints, fixed-width little-endian
 *    words, bit-exact doubles (the IEEE-754 pattern is moved, never
 *    reformatted) and length-prefixed strings.  The byte stream is
 *    platform-independent by construction: every multi-byte quantity
 *    is assembled from explicit byte shifts, never memcpy'd through
 *    native endianness.
 *  - **Hasher**: a streaming 128-bit content hash (two SplitMix64-
 *    style lanes over 64-bit words).  Not cryptographic — it keys a
 *    local cache, where 128 bits make accidental collisions
 *    practically impossible.  The function is frozen: changing it
 *    silently invalidates every on-disk artifact, so treat any edit
 *    as a store-format bump (tests pin known digests).
 *  - **DecodeError**: thrown on truncated or malformed input.  The
 *    store catches it and degrades to recomputation, so a corrupt
 *    artifact can never take down a run.
 */

#ifndef XBSP_UTIL_SERIAL_HH
#define XBSP_UTIL_SERIAL_HH

#include <stdexcept>
#include <string>
#include <string_view>

#include "util/types.hh"

namespace xbsp::serial
{

/** Malformed/truncated input; callers recompute instead of crashing. */
class DecodeError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** A 128-bit content hash (cache key). */
struct Hash128
{
    u64 lo = 0;
    u64 hi = 0;

    bool operator==(const Hash128&) const = default;

    /** 32 lowercase hex chars, hi word first. */
    std::string hex() const;
};

/** Four-character artifact type tag, e.g. fourcc("FVEC"). */
constexpr u32
fourcc(const char (&tag)[5])
{
    return static_cast<u32>(static_cast<unsigned char>(tag[0])) |
           static_cast<u32>(static_cast<unsigned char>(tag[1])) << 8 |
           static_cast<u32>(static_cast<unsigned char>(tag[2])) << 16 |
           static_cast<u32>(static_cast<unsigned char>(tag[3])) << 24;
}

/**
 * Streaming 128-bit hasher.  Feed typed values (each method commits
 * to a fixed byte encoding) and finish() for the digest.  The same
 * value sequence always produces the same digest on every platform.
 */
class Hasher
{
  public:
    /** Fold `n` raw bytes. */
    Hasher& bytes(const void* data, std::size_t n);

    /** Fold a u64 as 8 little-endian bytes. */
    Hasher& u64v(u64 v);

    /**
     * Fold a u64 as one word, skipping the byte-assembly machinery.
     * Digest-identical to u64v: the fast path applies only when the
     * byte stream is 8-aligned (it falls back to u64v otherwise), and
     * an aligned u64v folds exactly word(v).
     */
    Hasher& u64w(u64 v);

    /** Fold a u32 (widened; one canonical integer encoding). */
    Hasher& u32v(u32 v) { return u64v(v); }

    /** Fold a double's IEEE-754 bit pattern. */
    Hasher& f64(double v);

    /** Fold a bool as one canonical word. */
    Hasher& boolean(bool b) { return u64v(b ? 1 : 0); }

    /** Fold a string: length then bytes (unambiguous framing). */
    Hasher& str(std::string_view s);

    /** The digest of everything folded so far (non-destructive). */
    Hash128 finish() const;

  private:
    void word(u64 w);

    // Lane seeds: first 128 fractional bits of pi.
    u64 s0 = 0x243f6a8885a308d3ull;
    u64 s1 = 0x13198a2e03707344ull;
    u64 length = 0;
    unsigned char pending[8] = {};
    std::size_t pendingLen = 0;
};

/** 64-bit convenience hash of a byte range (payload checksums). */
u64 hash64(std::string_view data);

/** Append-only binary writer over an owned byte buffer. */
class Encoder
{
  public:
    /** LEB128 unsigned varint (1–10 bytes). */
    void varint(u64 v);

    /** 8 little-endian bytes. */
    void fixed64(u64 v);

    /** 4 little-endian bytes. */
    void fixed32(u32 v);

    /** IEEE-754 bit pattern as fixed64 (bit-exact round trip). */
    void f64(double v);

    void boolean(bool b) { varint(b ? 1 : 0); }

    /** Length-prefixed string: varint size + raw bytes. */
    void str(std::string_view s);

    /** Raw bytes, no framing. */
    void bytes(const void* data, std::size_t n);

    std::string_view view() const { return buf; }
    std::string take() { return std::move(buf); }
    std::size_t size() const { return buf.size(); }

  private:
    std::string buf;
};

/**
 * Bounds-checked reader over a byte range; every underrun or malformed
 * varint throws DecodeError.  The view must outlive the decoder.
 */
class Decoder
{
  public:
    explicit Decoder(std::string_view bytes) : data(bytes) {}

    u64 varint();
    /** A varint that must fit 32 bits (an id or a count field). */
    u32 varint32();
    u64 fixed64();
    u32 fixed32();
    double f64();
    bool boolean();
    std::string str();

    /**
     * Read an element count for a container whose elements occupy at
     * least `minBytesPerElem` bytes each; counts that could not fit in
     * the remaining input throw instead of driving a huge allocation.
     */
    u64 arrayCount(std::size_t minBytesPerElem = 1);

    std::size_t remaining() const { return data.size() - pos; }

    /** Throws when trailing bytes remain (framing mismatch). */
    void expectEnd() const;

  private:
    std::string_view data;
    std::size_t pos = 0;

    void need(std::size_t n) const;
};

} // namespace xbsp::serial

#endif // XBSP_UTIL_SERIAL_HH
