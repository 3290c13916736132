/**
 * @file
 * Unit tests for the SimPoint file-format interoperability layer.
 */

#include <limits>
#include <sstream>

#include <gtest/gtest.h>

#include "simpoint/io.hh"
#include "util/rng.hh"

using namespace xbsp;
using namespace xbsp::sp;

namespace
{

/** A row's entries as an owned list, for comparisons. */
SparseVec
entriesOf(SparseRow row)
{
    SparseVec vec;
    for (std::size_t e = 0; e < row.size(); ++e)
        vec.emplace_back(row.index[e], row.value[e]);
    return vec;
}

FrequencyVectorSet
sampleFvs()
{
    FrequencyVectorSet fvs;
    fvs.dimension = 20;
    fvs.addInterval(SparseVec{{0, 10.0}, {5, 2.5}}, 1000);
    fvs.addInterval(SparseVec{{3, 7.0}}, 2000);
    fvs.addInterval(SparseVec{{0, 1.0}, {19, 4.0}}, 1500);
    return fvs;
}

} // namespace

TEST(SimPointIo, BbvRoundTrip)
{
    const FrequencyVectorSet original = sampleFvs();
    std::stringstream ss;
    writeBbvFile(ss, original);
    const FrequencyVectorSet parsed = readBbvFile(ss, 20);
    ASSERT_EQ(parsed.size(), original.size());
    EXPECT_EQ(parsed.dimension, 20u);
    for (std::size_t i = 0; i < original.size(); ++i) {
        const SparseRow got = parsed.row(i);
        const SparseRow want = original.row(i);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t j = 0; j < want.size(); ++j) {
            EXPECT_EQ(got.index[j], want.index[j]);
            EXPECT_DOUBLE_EQ(got.value[j], want.value[j]);
        }
    }
}

TEST(SimPointIo, BbvFormatIsOneBased)
{
    FrequencyVectorSet fvs;
    fvs.dimension = 3;
    fvs.addInterval(SparseVec{{0, 2.0}}, 1);
    std::stringstream ss;
    writeBbvFile(ss, fvs);
    EXPECT_EQ(ss.str(), "T:1:2 \n");
}

TEST(SimPointIo, LengthsRoundTrip)
{
    const FrequencyVectorSet original = sampleFvs();
    std::stringstream ss;
    writeLengthsFile(ss, original);
    FrequencyVectorSet parsed = sampleFvs();
    parsed.lengths = {1, 1, 1};
    readLengthsFile(ss, parsed);
    EXPECT_EQ(parsed.lengths, original.lengths);
}

TEST(SimPointIo, LengthsCountMismatchFatal)
{
    FrequencyVectorSet fvs = sampleFvs();
    std::stringstream ss("5 6"); // two lengths, three intervals
    EXPECT_EXIT(readLengthsFile(ss, fvs),
                ::testing::ExitedWithCode(1), "entries");
}

TEST(SimPointIo, BadBbvLinesFatal)
{
    std::stringstream noPrefix("X:1:2\n");
    EXPECT_EXIT((void)readBbvFile(noPrefix),
                ::testing::ExitedWithCode(1), "expected 'T'");
    std::stringstream zeroIdx("T:0:2\n");
    EXPECT_EXIT((void)readBbvFile(zeroIdx),
                ::testing::ExitedWithCode(1), "dimension index");
}

TEST(SimPointIo, OutputFilesExactText)
{
    // Stock PinPoints-style tools parse these files, so their text is
    // pinned byte for byte: one "interval phase" and one
    // "weight phase" line per phase in phase order, one label per
    // interval.  1/3 pins the stream's default 6-digit precision.
    SimPointResult result;
    result.k = 3;
    result.labels = {0, 2, 2, 0, 1, 0};
    result.phases = {Phase{0, 3, 1.0 / 3.0, {0, 3, 5}},
                     Phase{1, 4, 1.0 / 6.0, {4}},
                     Phase{2, 2, 0.5, {1, 2}}};

    std::ostringstream sims, weights, labels;
    writeSimpointsFile(sims, result);
    writeWeightsFile(weights, result);
    writeLabelsFile(labels, result);
    EXPECT_EQ(sims.str(), "3 0\n4 1\n2 2\n");
    EXPECT_EQ(weights.str(), "0.333333 0\n0.166667 1\n0.5 2\n");
    EXPECT_EQ(labels.str(), "0\n2\n2\n0\n1\n0\n");
}

// ---------------------------------------------------------------------
// Round-trip property tests for the text BBV format: randomized sets
// with extreme weights, empty vectors and duplicate block ids must
// all survive write -> read bit-exactly (the writer emits %.17g,
// which strtod recovers exactly).

namespace
{

FrequencyVectorSet
randomFvs(u64 seed)
{
    Rng rng(seed);
    FrequencyVectorSet fvs;
    fvs.dimension = 64;
    const std::size_t intervals = 1 + rng.nextBelow(12);
    for (std::size_t i = 0; i < intervals; ++i) {
        SparseVec vec;
        const std::size_t entries = rng.nextBelow(8);  // 0 = empty
        u32 idx = 0;
        for (std::size_t j = 0; j < entries; ++j) {
            idx += 1 + static_cast<u32>(rng.nextBelow(8));
            double value = 0;
            switch (rng.nextBelow(5)) {
              case 0:
                value = rng.nextDouble() * 1e300;  // huge
                break;
              case 1:
                value = rng.nextDouble() * 1e-300;  // tiny
                break;
              case 2:
                value = 5e-324;  // smallest denormal
                break;
              case 3:
                value = static_cast<double>(rng.next());  // integral
                break;
              default:
                value = rng.nextDouble();  // ordinary fraction
            }
            vec.emplace_back(idx, value);
        }
        fvs.addInterval(std::move(vec),
                        rng.nextBelow(1u << 20));
    }
    return fvs;
}

} // namespace

TEST(SimPointIoProperty, RandomizedBbvRoundTripsBitExactly)
{
    for (u64 seed = 1; seed <= 25; ++seed) {
        const FrequencyVectorSet original = randomFvs(seed);
        std::stringstream ss;
        writeBbvFile(ss, original);
        const FrequencyVectorSet parsed =
            readBbvFile(ss, original.dimension);
        ASSERT_EQ(parsed.size(), original.size()) << "seed " << seed;
        // Bitwise equality: the entries compare doubles with ==,
        // which is exactly the contract (%.17g is lossless).
        EXPECT_EQ(parsed.offsets, original.offsets) << "seed " << seed;
        EXPECT_EQ(parsed.index, original.index) << "seed " << seed;
        EXPECT_EQ(parsed.value, original.value) << "seed " << seed;
    }
}

TEST(SimPointIoProperty, EmptyVectorsSurvive)
{
    FrequencyVectorSet fvs;
    fvs.dimension = 4;
    fvs.addInterval(SparseVec{}, 10);
    fvs.addInterval(SparseVec{{2, 1.5}}, 20);
    fvs.addInterval(SparseVec{}, 30);
    std::stringstream ss;
    writeBbvFile(ss, fvs);
    const FrequencyVectorSet parsed = readBbvFile(ss, 4);
    ASSERT_EQ(parsed.size(), 3u);
    EXPECT_TRUE(parsed.row(0).empty());
    EXPECT_EQ(entriesOf(parsed.row(1)), entriesOf(fvs.row(1)));
    EXPECT_TRUE(parsed.row(2).empty());
}

TEST(SimPointIoProperty, DuplicateBlockIdsAccumulateOnRead)
{
    // A hand-written line with the same (one-based) id three times:
    // frequency semantics say the values add up.
    std::stringstream ss("T:5:1.5 :2:10 :5:2.25 :5:0.25 \n");
    const FrequencyVectorSet parsed = readBbvFile(ss, 8);
    ASSERT_EQ(parsed.size(), 1u);
    const SparseVec expected{{1, 10.0}, {4, 4.0}};
    EXPECT_EQ(entriesOf(parsed.row(0)), expected);
}

TEST(SimPointIoProperty, ExtremeWeightsRoundTrip)
{
    FrequencyVectorSet fvs;
    fvs.dimension = 3;
    fvs.addInterval(
        SparseVec{{0, std::numeric_limits<double>::max()},
                  {1, std::numeric_limits<double>::denorm_min()},
                  {2, 1.0 / 3.0}},
        1);
    std::stringstream ss;
    writeBbvFile(ss, fvs);
    const FrequencyVectorSet parsed = readBbvFile(ss, 3);
    ASSERT_EQ(parsed.size(), 1u);
    EXPECT_EQ(entriesOf(parsed.row(0)), entriesOf(fvs.row(0)));
}

// ---------------------------------------------------------------------
// Hostile numbers: every reader rejects them through fatal() (exit 1,
// with the line number), never through a signal or a silent wrap.

TEST(SimPointIoHostile, BbvIndexOutOfRangeFatal)
{
    // 2^32 used to wrap maxIdx + 1 to 0 and panic; 3 G asked for a
    // 3 G-row projection matrix and died of bad_alloc.
    for (const char* line :
         {"T:4294967296:1\n", "T:3000000000:1\n",
          "T:18446744073709551617:1\n", "T:4194305:1\n"}) {
        std::stringstream ss(line);
        EXPECT_EXIT((void)readBbvFile(ss), ::testing::ExitedWithCode(1),
                    "line 1: dimension index [0-9]+ exceeds the limit")
            << line;
    }
    // strtoull would accept a sign and wrap it.
    std::stringstream negative("T:2:1 :-1:2\n");
    EXPECT_EXIT((void)readBbvFile(negative),
                ::testing::ExitedWithCode(1),
                "line 1: bad dimension index");
}

TEST(SimPointIoHostile, BbvIndexAtTheCeilingReads)
{
    std::stringstream ss("T:" + std::to_string(kMaxBbvDimension) +
                         ":1\n");
    const FrequencyVectorSet fvs = readBbvFile(ss);
    EXPECT_EQ(fvs.dimension, kMaxBbvDimension);
    const SparseVec expected{{kMaxBbvDimension - 1, 1.0}};
    ASSERT_EQ(fvs.size(), 1u);
    EXPECT_EQ(entriesOf(fvs.row(0)), expected);
}

TEST(SimPointIoHostile, BbvNonFiniteOrNegativeValueFatal)
{
    // A NaN value used to reach phase building and index an empty
    // candidate list (SIGSEGV).
    for (const char* line :
         {"T:1:nan\n", "T:1:inf\n", "T:1:-inf\n", "T:1:-2\n",
          "T:1:1 :2:1e999\n"}) {
        std::stringstream ss(std::string("T:1:1\n") + line);
        EXPECT_EXIT((void)readBbvFile(ss), ::testing::ExitedWithCode(1),
                    "line 2: value .* is not finite and non-negative")
            << line;
    }
}

TEST(SimPointIoHostile, LengthsOutOfRangeFatal)
{
    FrequencyVectorSet fvs = sampleFvs();
    std::stringstream negative("1\n-5\n2\n");
    EXPECT_EXIT(readLengthsFile(negative, fvs),
                ::testing::ExitedWithCode(1),
                "lengths file line 2: '-5' is not a non-negative");
    std::stringstream huge("1\n2\n18446744073709551616\n");
    EXPECT_EXIT(readLengthsFile(huge, fvs), ::testing::ExitedWithCode(1),
                "lengths file line 3: 18446744073709551616 is out of "
                "range");
    std::stringstream garbage("1\n2x\n3\n");
    EXPECT_EXIT(readLengthsFile(garbage, fvs),
                ::testing::ExitedWithCode(1),
                "lengths file line 2: '2x'");
}
