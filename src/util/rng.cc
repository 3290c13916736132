#include "util/rng.hh"

#include <cmath>

#include "util/logging.hh"

namespace xbsp
{

u64
splitMix64(u64& state)
{
    u64 z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

u64
hashMix(u64 value)
{
    u64 state = value;
    return splitMix64(state);
}

Rng::Rng(u64 seed)
{
    u64 sm = seed;
    for (auto& word : s)
        word = splitMix64(sm);
}

u64
Rng::nextBelow(u64 bound)
{
    if (bound == 0)
        panic("Rng::nextBelow called with bound 0");
    // Rejection sampling to avoid modulo bias.
    const u64 threshold = (0 - bound) % bound;
    for (;;) {
        u64 r = next();
        if (r >= threshold)
            return r % bound;
    }
}

u64
Rng::nextRange(u64 lo, u64 hi)
{
    if (lo > hi)
        panic("Rng::nextRange called with lo {} > hi {}", lo, hi);
    return lo + nextBelow(hi - lo + 1);
}

double
Rng::nextDouble(double lo, double hi)
{
    return lo + (hi - lo) * nextDouble();
}

double
Rng::nextGaussian()
{
    if (hasSpare) {
        hasSpare = false;
        return spare;
    }
    double u, v, sq;
    do {
        u = nextDouble(-1.0, 1.0);
        v = nextDouble(-1.0, 1.0);
        sq = u * u + v * v;
    } while (sq >= 1.0 || sq == 0.0);
    const double mul = std::sqrt(-2.0 * std::log(sq) / sq);
    spare = v * mul;
    hasSpare = true;
    return u * mul;
}

bool
Rng::nextBool(double p)
{
    return nextDouble() < p;
}

Rng
Rng::fork(u64 label) const
{
    // Mix the current state words with the label so that children with
    // distinct labels are decorrelated without advancing the parent.
    u64 seed = s[0] ^ rotl(s[1], 13) ^ rotl(s[2], 29) ^ rotl(s[3], 47);
    return Rng(hashMix(seed ^ hashMix(label)));
}

BoundedBelow::BoundedBelow(u64 bound)
{
    if (bound == 0)
        panic("BoundedBelow constructed with bound 0");
    boundValue = bound;
    // Same unbiased-rejection threshold nextBelow() derives per call.
    threshold = (0 - bound) % bound;
    // ceil(2^128 / bound) == floor((2^128 - 1) / bound) + 1 for any
    // bound > 1 (2^128 is never a multiple of a non-power-of-two,
    // and for powers of two the floor differs from the exact
    // quotient, so the +1 lands on the ceiling either way).
    if (bound > 1)
        reciprocal = ~static_cast<unsigned __int128>(0) / bound + 1;
}

} // namespace xbsp
