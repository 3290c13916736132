/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every stochastic component in the library (k-means seeding, random
 * linear projection, synthetic memory-access patterns) draws from an
 * explicitly seeded Rng so that whole experiments are reproducible
 * bit-for-bit.  The generator is xoshiro256** seeded through
 * SplitMix64, which is both fast and statistically strong for the
 * simulation workloads here.
 */

#ifndef XBSP_UTIL_RNG_HH
#define XBSP_UTIL_RNG_HH

#include <cstddef>
#include <vector>

#include "util/types.hh"

namespace xbsp
{

/** SplitMix64 step; used for seeding and cheap stateless hashing. */
u64 splitMix64(u64& state);

/** Stateless 64-bit mix of a value (useful for per-id streams). */
u64 hashMix(u64 value);

/**
 * xoshiro256** generator with convenience draws.  Copyable; copies
 * continue the sequence independently from the copied state.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded via SplitMix64). */
    explicit Rng(u64 seed = 0x9e3779b97f4a7c15ull);

    /** Next raw 64-bit draw. */
    u64
    next()
    {
        const u64 result = rotl(s[1] * 5, 7) * 9;
        const u64 t = s[1] << 17;

        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = rotl(s[3], 45);

        return result;
    }

    /** Uniform integer in [0, bound); bound must be > 0. */
    u64 nextBelow(u64 bound);

    /** Uniform integer in [lo, hi]; requires lo <= hi. */
    u64 nextRange(u64 lo, u64 hi);

    /** Uniform double in [0, 1). */
    double
    nextDouble()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Uniform double in [lo, hi). */
    double nextDouble(double lo, double hi);

    /** Standard normal draw (Box-Muller, cached pair). */
    double nextGaussian();

    /** Bernoulli draw with probability p of true. */
    bool nextBool(double p);

    /** Fisher-Yates shuffle of a vector. */
    template <typename T>
    void
    shuffle(std::vector<T>& v)
    {
        for (std::size_t i = v.size(); i > 1; --i) {
            std::size_t j = static_cast<std::size_t>(nextBelow(i));
            std::swap(v[i - 1], v[j]);
        }
    }

    /** Derive an independent child generator (stable per label). */
    Rng fork(u64 label) const;

  private:
    static u64
    rotl(u64 x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    u64 s[4];
    bool hasSpare = false;
    double spare = 0.0;
};

/**
 * Repeated nextBelow() draws against one fixed bound, bit-identical
 * to Rng::nextBelow(bound) (same raw draws consumed, same rejection
 * decisions, same results) but with the per-call divisions hoisted:
 * the rejection threshold is computed once, and the remainder uses a
 * precomputed 128-bit reciprocal (Lemire & Kaser's direct-remainder
 * construction, exact for every 64-bit bound) instead of the
 * hardware divider.  The address-pattern batch loops draw millions
 * of times against a loop-invariant bound, which is exactly the case
 * this class exists for.
 */
class BoundedBelow
{
  public:
    explicit BoundedBelow(u64 bound);

    /** Exactly rng.nextBelow(bound), divider-free. */
    u64
    draw(Rng& rng) const
    {
        for (;;) {
            const u64 r = rng.next();
            if (r >= threshold)
                return mod(r);
        }
    }

    /** Exactly `value % bound`, divider-free. */
    u64
    mod(u64 value) const
    {
        if (boundValue == 1)
            return 0;
        // frac = the lower 128 bits of reciprocal * value, i.e. the
        // fractional part of value / bound in 0.128 fixed point; the
        // remainder is then the high half of frac * bound.
        const unsigned __int128 frac = reciprocal * value;
        const u64 fracHi = static_cast<u64>(frac >> 64);
        const u64 fracLo = static_cast<u64>(frac);
        const unsigned __int128 scaled =
            static_cast<unsigned __int128>(fracHi) * boundValue +
            ((static_cast<unsigned __int128>(fracLo) * boundValue) >>
             64);
        return static_cast<u64>(scaled >> 64);
    }

    u64 bound() const { return boundValue; }

  private:
    u64 boundValue = 1;
    u64 threshold = 0;  ///< smallest unbiased raw draw
    unsigned __int128 reciprocal = 0;  ///< ceil(2^128 / bound)
};

} // namespace xbsp

#endif // XBSP_UTIL_RNG_HH
