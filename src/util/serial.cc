#include "util/serial.hh"

#include <cstring>
#include <limits>

namespace xbsp::serial
{

namespace
{

/** SplitMix64 finalizer: the lane mixing function (frozen). */
constexpr u64
mix(u64 x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x;
}

constexpr u64
rotl(u64 x, unsigned r)
{
    return (x << r) | (x >> (64 - r));
}

/** Assemble up to 8 bytes little-endian (zero-padded). */
u64
assemble(const unsigned char* bytes, std::size_t n)
{
    u64 w = 0;
    for (std::size_t i = 0; i < n; ++i)
        w |= static_cast<u64>(bytes[i]) << (8 * i);
    return w;
}

} // namespace

std::string
Hash128::hex() const
{
    static const char digits[] = "0123456789abcdef";
    std::string out(32, '0');
    for (int i = 0; i < 16; ++i)
        out[15 - i] = digits[(hi >> (4 * i)) & 0xf];
    for (int i = 0; i < 16; ++i)
        out[31 - i] = digits[(lo >> (4 * i)) & 0xf];
    return out;
}

void
Hasher::word(u64 w)
{
    s0 = mix(s0 ^ w);
    s1 = mix(s1 + rotl(w, 23) + 0x9e3779b97f4a7c15ull);
}

Hasher&
Hasher::bytes(const void* data, std::size_t n)
{
    const unsigned char* p = static_cast<const unsigned char*>(data);
    length += n;
    // Top up the partial word first.
    while (pendingLen != 0 && pendingLen < 8 && n != 0) {
        pending[pendingLen++] = *p++;
        --n;
    }
    if (pendingLen == 8) {
        word(assemble(pending, 8));
        pendingLen = 0;
    }
    while (n >= 8) {
        word(assemble(p, 8));
        p += 8;
        n -= 8;
    }
    while (n != 0) {
        pending[pendingLen++] = *p++;
        --n;
    }
    return *this;
}

Hasher&
Hasher::u64v(u64 v)
{
    unsigned char b[8];
    for (int i = 0; i < 8; ++i)
        b[i] = static_cast<unsigned char>(v >> (8 * i));
    return bytes(b, 8);
}

Hasher&
Hasher::u64w(u64 v)
{
    if (pendingLen != 0)
        return u64v(v);
    length += 8;
    word(v);
    return *this;
}

Hasher&
Hasher::f64(double v)
{
    u64 pattern;
    static_assert(sizeof(pattern) == sizeof(v));
    std::memcpy(&pattern, &v, sizeof(pattern));
    return u64v(pattern);
}

Hasher&
Hasher::str(std::string_view s)
{
    u64v(s.size());
    return bytes(s.data(), s.size());
}

Hash128
Hasher::finish() const
{
    u64 a = s0;
    u64 b = s1;
    if (pendingLen != 0) {
        const u64 w = assemble(pending, pendingLen);
        a = mix(a ^ w);
        b = mix(b + rotl(w, 23) + 0x9e3779b97f4a7c15ull);
    }
    a = mix(a ^ rotl(length, 11));
    b = mix(b + length);
    Hash128 h;
    h.lo = mix(a + rotl(b, 32));
    h.hi = mix(b ^ rotl(a, 17));
    return h;
}

u64
hash64(std::string_view data)
{
    Hasher h;
    h.bytes(data.data(), data.size());
    return h.finish().lo;
}

void
Encoder::varint(u64 v)
{
    while (v >= 0x80) {
        buf.push_back(static_cast<char>((v & 0x7f) | 0x80));
        v >>= 7;
    }
    buf.push_back(static_cast<char>(v));
}

void
Encoder::fixed64(u64 v)
{
    for (int i = 0; i < 8; ++i)
        buf.push_back(static_cast<char>(v >> (8 * i)));
}

void
Encoder::fixed32(u32 v)
{
    for (int i = 0; i < 4; ++i)
        buf.push_back(static_cast<char>(v >> (8 * i)));
}

void
Encoder::f64(double v)
{
    u64 pattern;
    std::memcpy(&pattern, &v, sizeof(pattern));
    fixed64(pattern);
}

void
Encoder::str(std::string_view s)
{
    varint(s.size());
    buf.append(s.data(), s.size());
}

void
Encoder::bytes(const void* data, std::size_t n)
{
    buf.append(static_cast<const char*>(data), n);
}

void
Decoder::need(std::size_t n) const
{
    if (data.size() - pos < n)
        throw DecodeError("truncated input: need " +
                          std::to_string(n) + " bytes, have " +
                          std::to_string(data.size() - pos));
}

u64
Decoder::varint()
{
    u64 v = 0;
    for (unsigned shift = 0; shift < 64; shift += 7) {
        need(1);
        const unsigned char byte =
            static_cast<unsigned char>(data[pos++]);
        v |= static_cast<u64>(byte & 0x7f) << shift;
        if ((byte & 0x80) == 0) {
            // The 10th byte may only contribute the top bit of a u64.
            if (shift == 63 && byte > 1)
                throw DecodeError("varint overflows 64 bits");
            return v;
        }
    }
    throw DecodeError("varint longer than 10 bytes");
}

u32
Decoder::varint32()
{
    const u64 v = varint();
    if (v > std::numeric_limits<u32>::max())
        throw DecodeError("32-bit field out of range");
    return static_cast<u32>(v);
}

u64
Decoder::fixed64()
{
    need(8);
    u64 v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<u64>(static_cast<unsigned char>(
                 data[pos + i]))
             << (8 * i);
    pos += 8;
    return v;
}

u32
Decoder::fixed32()
{
    need(4);
    u32 v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<u32>(static_cast<unsigned char>(
                 data[pos + i]))
             << (8 * i);
    pos += 4;
    return v;
}

double
Decoder::f64()
{
    const u64 pattern = fixed64();
    double v;
    std::memcpy(&v, &pattern, sizeof(v));
    return v;
}

bool
Decoder::boolean()
{
    const u64 v = varint();
    if (v > 1)
        throw DecodeError("boolean value out of range");
    return v != 0;
}

std::string
Decoder::str()
{
    const u64 n = varint();
    if (n > data.size() - pos)
        throw DecodeError("string length exceeds remaining input");
    std::string out(data.substr(pos, n));
    pos += n;
    return out;
}

u64
Decoder::arrayCount(std::size_t minBytesPerElem)
{
    const u64 n = varint();
    const std::size_t perElem = minBytesPerElem ? minBytesPerElem : 1;
    if (n > remaining() / perElem)
        throw DecodeError("element count exceeds remaining input");
    return n;
}

void
Decoder::expectEnd() const
{
    if (pos != data.size())
        throw DecodeError("trailing bytes after decoded value");
}

} // namespace xbsp::serial
