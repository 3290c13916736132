/**
 * @file
 * The serialization substrate of the artifact store: varint/fixed/f64
 * framing edge cases, the frozen content-hash function (digests are
 * pinned — changing them invalidates every on-disk artifact, which
 * must be a deliberate store-format bump), and bit-exact round trips
 * of every domain codec the store persists.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>

#include "binary/serial.hh"
#include "core/serial.hh"
#include "dist/stagerun.hh"
#include "dist/wire.hh"
#include "obs/stats.hh"
#include "profile/serial.hh"
#include "sim/serial.hh"
#include "simpoint/io.hh"
#include "simpoint/serial.hh"
#include "test_support.hh"
#include "util/rng.hh"
#include "util/serial.hh"

using namespace xbsp;

TEST(Serial, VarintRoundTripEdgeValues)
{
    const u64 values[] = {0,
                          1,
                          127,
                          128,
                          16383,
                          16384,
                          (1ull << 32) - 1,
                          1ull << 32,
                          std::numeric_limits<u64>::max() - 1,
                          std::numeric_limits<u64>::max()};
    serial::Encoder e;
    for (u64 v : values)
        e.varint(v);
    serial::Decoder d(e.view());
    for (u64 v : values)
        EXPECT_EQ(d.varint(), v);
    d.expectEnd();
}

TEST(Serial, VarintEncodingIsMinimalLength)
{
    serial::Encoder one;
    one.varint(127);
    EXPECT_EQ(one.size(), 1u);
    serial::Encoder two;
    two.varint(128);
    EXPECT_EQ(two.size(), 2u);
    serial::Encoder ten;
    ten.varint(std::numeric_limits<u64>::max());
    EXPECT_EQ(ten.size(), 10u);
}

TEST(Serial, VarintOverflowThrows)
{
    // 10 continuation-style bytes with a 10th byte contributing more
    // than the top bit of a u64.
    const std::string bad(
        "\xff\xff\xff\xff\xff\xff\xff\xff\xff\x02", 10);
    serial::Decoder d(bad);
    EXPECT_THROW(d.varint(), serial::DecodeError);
}

TEST(Serial, TruncatedInputThrows)
{
    serial::Encoder e;
    e.fixed64(0x1122334455667788ull);
    const std::string_view bytes = e.view();
    serial::Decoder d(bytes.substr(0, 5));
    EXPECT_THROW(d.fixed64(), serial::DecodeError);

    serial::Decoder empty(std::string_view{});
    EXPECT_THROW(empty.varint(), serial::DecodeError);
}

TEST(Serial, F64RoundTripsExactBitPatterns)
{
    const double values[] = {0.0,
                             -0.0,
                             1.0 / 3.0,
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::denorm_min(),
                             std::numeric_limits<double>::max(),
                             std::nan("")};
    serial::Encoder e;
    for (double v : values)
        e.f64(v);
    serial::Decoder d(e.view());
    for (double v : values) {
        const double back = d.f64();
        u64 a, b;
        std::memcpy(&a, &v, 8);
        std::memcpy(&b, &back, 8);
        EXPECT_EQ(a, b);  // bit pattern, not value (NaN, -0.0)
    }
}

TEST(Serial, StrRoundTripAndLengthGuard)
{
    serial::Encoder e;
    e.str("");
    e.str(std::string("null\0byte", 9));
    serial::Decoder d(e.view());
    EXPECT_EQ(d.str(), "");
    EXPECT_EQ(d.str(), std::string("null\0byte", 9));
    d.expectEnd();

    // A declared length past the end of input must throw, not read.
    serial::Encoder bad;
    bad.varint(1000);
    bad.bytes("xy", 2);
    serial::Decoder db(bad.view());
    EXPECT_THROW(db.str(), serial::DecodeError);
}

TEST(Serial, ArrayCountRejectsAbsurdCounts)
{
    serial::Encoder e;
    e.varint(std::numeric_limits<u64>::max());
    serial::Decoder d(e.view());
    EXPECT_THROW(d.arrayCount(8), serial::DecodeError);
}

TEST(Serial, ExpectEndThrowsOnTrailingBytes)
{
    serial::Encoder e;
    e.varint(7);
    e.varint(9);
    serial::Decoder d(e.view());
    d.varint();
    EXPECT_THROW(d.expectEnd(), serial::DecodeError);
}

// The hash function is frozen: these digests are part of the on-disk
// cache format.  If an edit changes them, every stored artifact is
// silently orphaned — bump the store format version instead.
TEST(Serial, Hash64PinnedDigests)
{
    EXPECT_EQ(serial::hash64(""), 0x7e99d450b409631aull);
    EXPECT_EQ(serial::hash64("abc"), 0xcf06b620546b49c0ull);
}

TEST(Serial, Hash128PinnedTypedDigest)
{
    serial::Hasher h;
    h.str("xbsp").u64v(42).f64(3.5).boolean(true);
    const serial::Hash128 digest = h.finish();
    EXPECT_EQ(digest.lo, 0x5586c2095ee7723bull);
    EXPECT_EQ(digest.hi, 0x39a662f02b02f5ffull);
    EXPECT_EQ(digest.hex(), "39a662f02b02f5ff5586c2095ee7723b");
}

TEST(Serial, WordFastPathMatchesByteFold)
{
    // u64w must produce the digest u64v would, from any alignment.
    const u64 words[] = {0ull, 1ull, 0xdeadbeefcafef00dull,
                         ~0ull, 0x8000000000000000ull};
    serial::Hasher viaBytes, viaWords;
    for (u64 w : words) {
        viaBytes.u64v(w);
        viaWords.u64w(w);
    }
    EXPECT_EQ(viaWords.finish(), viaBytes.finish());

    // Unaligned stream (3 pending bytes): u64w falls back.
    serial::Hasher oddBytes, oddWords;
    oddBytes.bytes("odd", 3);
    oddWords.bytes("odd", 3);
    for (u64 w : words) {
        oddBytes.u64v(w);
        oddWords.u64w(w);
    }
    EXPECT_EQ(oddWords.finish(), oddBytes.finish());
}

TEST(Serial, HasherIsChunkingInvariant)
{
    const std::string data =
        "the digest must not depend on how bytes were fed";
    serial::Hasher whole;
    whole.bytes(data.data(), data.size());
    for (std::size_t cut = 1; cut < data.size(); cut += 7) {
        serial::Hasher split;
        split.bytes(data.data(), cut);
        split.bytes(data.data() + cut, data.size() - cut);
        EXPECT_EQ(split.finish(), whole.finish());
    }
}

TEST(Serial, HasherDistinguishesFraming)
{
    // ("ab", "c") vs ("a", "bc") must differ: str() folds lengths.
    serial::Hasher a;
    a.str("ab").str("c");
    serial::Hasher b;
    b.str("a").str("bc");
    EXPECT_NE(a.finish(), b.finish());
}

TEST(Serial, FourccIsLittleEndianStable)
{
    EXPECT_EQ(serial::fourcc("BINV"),
              u32{'B'} | u32{'I'} << 8 | u32{'N'} << 16 |
                  u32{'V'} << 24);
}

TEST(SerialCodec, FrequencyVectorSetRoundTrip)
{
    sp::FrequencyVectorSet fvs;
    fvs.dimension = 10;
    fvs.addInterval({{0, 0.25}, {3, 1e-300}, {9, 1.0 / 3.0}}, 12345);
    fvs.addInterval({}, 0);  // empty vector, zero length
    fvs.addInterval({{7, std::numeric_limits<double>::max()}},
                    std::numeric_limits<InstrCount>::max());

    serial::Encoder e;
    sp::encodeFvs(e, fvs);
    serial::Decoder d(e.view());
    const sp::FrequencyVectorSet back = sp::decodeFvs(d);
    d.expectEnd();

    EXPECT_TRUE(back == fvs);
}

namespace
{

/** Lowercase hex of an encoder's bytes. */
std::string
hexBytes(std::string_view bytes)
{
    std::string out;
    char buf[3];
    for (unsigned char c : bytes) {
        std::snprintf(buf, sizeof(buf), "%02x", c);
        out += buf;
    }
    return out;
}

/**
 * A fixed set with empty rows and a trailing partial interval.  Its
 * three external forms are pinned below: the store bytes, the
 * content digest the store keys on and the BBV text.  Changing any of
 * them orphans every cache entry or .bb file written so far.
 */
sp::FrequencyVectorSet
pinnedFvs()
{
    sp::FrequencyVectorSet fvs;
    fvs.dimension = 6;
    fvs.addInterval({{0, 0.5}, {3, 1e-300}, {5, 1.0 / 3.0}}, 2000);
    fvs.addInterval({}, 2000);
    fvs.addInterval({{1, 7.25}}, 2000);
    fvs.addInterval({}, 2000);
    fvs.addInterval({{2, 123456789.0}, {4, 2.5}}, 731);
    return fvs;
}

/** The codec bytes of `fvs`. */
std::string
fvsBytes(const sp::FrequencyVectorSet& fvs)
{
    serial::Encoder e;
    sp::encodeFvs(e, fvs);
    return std::string(e.view());
}

/** A three-interval, two-phase result whose codec bytes are sound. */
sp::SimPointResult
soundResult()
{
    sp::SimPointResult r;
    r.k = 2;
    r.labels = {0, 1, 0};
    r.phases = {{0, 2, 0.75}, {1, 1, 0.25}};
    r.bicByK = {-1.0, -2.0};
    return r;
}

/** Decode `r`'s codec bytes, expecting a DecodeError. */
void
expectResultRejected(const sp::SimPointResult& r)
{
    serial::Encoder e;
    sp::encodeSimPointResult(e, r);
    serial::Decoder d(e.view());
    EXPECT_THROW(sp::decodeSimPointResult(d), serial::DecodeError);
}

} // namespace

TEST(SerialCodec, FrequencyVectorSetFormatsArePinned)
{
    const sp::FrequencyVectorSet fvs = pinnedFvs();

    EXPECT_EQ(hexBytes(fvsBytes(fvs)),
              "06050300000000000000e03f0359f3f8c21f6ea50105555555555555"
              "d53f0001010000000000001d4000020200000054346f9d41040000"
              "00000000044005d00fd00fd00fd00fdb05");

    serial::Hasher h;
    sp::hashFvs(h, fvs);
    EXPECT_EQ(h.finish().hex(), "f93fbde543e78885be914edf7731f521");
    EXPECT_EQ(sp::simPointKey(fvs, sp::SimPointOptions{}).hex(),
              "60e8632f14b28a5a333ffebe38a19c62");

    std::ostringstream bb;
    sp::writeBbvFile(bb, fvs);
    EXPECT_EQ(bb.str(), "T:1:0.5 :4:1e-300 :6:0.33333333333333331 \n"
                        "T\n"
                        "T:2:7.25 \n"
                        "T\n"
                        "T:3:123456789 :5:2.5 \n");
}

/**
 * A set whose rows repeat, back to back and scattered, stores three
 * rows, yet its store bytes, content digest and store key are the
 * ones pinned for the same intervals before rows were interned.  Its
 * decode interns the same way and compares equal.
 */
TEST(SerialCodec, InternedSetFormatsArePinned)
{
    sp::FrequencyVectorSet fvs;
    fvs.dimension = 6;
    const sp::SparseVec a{{0, 0.5}, {3, 1e-300}};
    const sp::SparseVec b{{1, 7.25}};
    fvs.addInterval(a, 2000);
    fvs.addInterval(a, 2000);
    fvs.addInterval({}, 2000);
    fvs.addInterval(b, 1999);
    fvs.addInterval(a, 2000);
    fvs.addInterval({}, 7);
    fvs.addInterval(b, 2000);
    fvs.addInterval(b, 3);
    EXPECT_EQ(fvs.storedRows(), 3u);
    EXPECT_EQ(fvs.rowOf, (std::vector<u32>{0, 0, 1, 2, 0, 1, 2, 2}));

    const std::string bytes = fvsBytes(fvs);
    EXPECT_EQ(hexBytes(bytes),
              "06080200000000000000e03f0359f3f8c21f6ea5010200000000000000"
              "e03f0359f3f8c21f6ea5010001010000000000001d4002000000000000"
              "00e03f0359f3f8c21f6ea5010001010000000000001d40010100000000"
              "00001d4008d00fd00fd00fcf0fd00f07d00f03");
    serial::Hasher h;
    sp::hashFvs(h, fvs);
    EXPECT_EQ(h.finish().hex(), "528c0aa8fbe4c2946088a2bbe046417f");
    EXPECT_EQ(sp::simPointKey(fvs, sp::SimPointOptions{}).hex(),
              "74973547d2f5bc165d80ba18d8dbe64b");

    serial::Decoder d(bytes);
    const sp::FrequencyVectorSet back = sp::decodeFvs(d);
    d.expectEnd();
    EXPECT_TRUE(back == fvs);
    EXPECT_EQ(back.rowOf, fvs.rowOf);
    EXPECT_EQ(back.storedRows(), 3u);
}

TEST(SerialCodec, FvsIndexPastDimensionRejected)
{
    // Entries name blocks up to 5 of a set whose dimension is cut to
    // 4: project() would read past the end of its matrix.
    sp::FrequencyVectorSet fvs = pinnedFvs();
    fvs.dimension = 4;
    const std::string bytes = fvsBytes(fvs);
    serial::Decoder d(bytes);
    EXPECT_THROW(sp::decodeFvs(d), serial::DecodeError);
}

TEST(SerialCodec, FvsIndicesNotRisingRejected)
{
    sp::FrequencyVectorSet fvs = pinnedFvs();
    std::swap(fvs.index[0], fvs.index[1]);
    const std::string bytes = fvsBytes(fvs);
    serial::Decoder d(bytes);
    EXPECT_THROW(sp::decodeFvs(d), serial::DecodeError);
}

TEST(SerialCodec, FvsLengthsCountMismatchRejected)
{
    // The pinned bytes end with the lengths array: a count and five
    // lengths, 11 bytes.  Replace it with one of 4 or 6 lengths.
    const std::string rows = fvsBytes(pinnedFvs());
    for (u64 count : {4u, 6u}) {
        serial::Encoder e;
        e.varint(count);
        for (u64 i = 0; i < count; ++i)
            e.varint(2000);
        const std::string bytes =
            rows.substr(0, rows.size() - 11) + std::string(e.view());
        serial::Decoder d(bytes);
        EXPECT_THROW(sp::decodeFvs(d), serial::DecodeError) << count;
    }
}

TEST(SerialCodec, FvsDimensionWiderThan32BitsRejected)
{
    // The sound bytes with the leading dimension varint replaced by
    // 2^32 + 6, which used to truncate to 6 and decode.
    serial::Encoder e;
    e.varint((u64{1} << 32) + 6);
    const std::string bytes =
        std::string(e.view()) + fvsBytes(pinnedFvs()).substr(1);
    serial::Decoder d(bytes);
    EXPECT_THROW(sp::decodeFvs(d), serial::DecodeError);
}

TEST(SerialCodec, SimPointLabelPastKRejected)
{
    sp::SimPointResult r = soundResult();
    {
        serial::Encoder e;
        sp::encodeSimPointResult(e, r);
        serial::Decoder d(e.view());
        EXPECT_NO_THROW(sp::decodeSimPointResult(d));
    }
    r.labels[1] = 2;
    r.phases[1].id = 2;
    expectResultRejected(r);
}

TEST(SerialCodec, SimPointPhaseIdsNotRisingRejected)
{
    // A repeated phase would be counted twice by estimateSampled, and
    // a phase out of order breaks the sweep's id order.
    sp::SimPointResult r = soundResult();
    r.phases[1] = r.phases[0];
    expectResultRejected(r);
    r = soundResult();
    std::swap(r.phases[0], r.phases[1]);
    expectResultRejected(r);
}

TEST(SerialCodec, SimPointPhaseWithoutIntervalsRejected)
{
    // Phase 2 is within the k of 3, but no interval carries its
    // label, so its representative (interval 1, phase 1) cannot.
    sp::SimPointResult r = soundResult();
    r.k = 3;
    r.phases.push_back({2, 1, 0.0});
    expectResultRejected(r);
    // A phase id past k cannot be carried by any interval either.
    r = soundResult();
    r.phases[1].id = 5;
    expectResultRejected(r);
}

TEST(SerialCodec, SimPointRepresentativePastIntervalsRejected)
{
    sp::SimPointResult r = soundResult();
    r.phases[1].representative = 3;
    expectResultRejected(r);
}

TEST(SerialCodec, SimPointRepresentativeOfAnotherPhaseRejected)
{
    sp::SimPointResult r = soundResult();
    r.phases[1].representative = 0;
    expectResultRejected(r);
}

TEST(SerialCodec, SimPointResultRoundTrip)
{
    sp::SimPointResult r;
    r.k = 2;
    r.labels = {0, 1, 1, 0};
    r.phases = {{0, 0, 0.5}, {1, 1, 0.5}};
    r.chosenBic = -123.456789;
    r.bicByK = {-1.0, -2.5, 0.0};

    serial::Encoder e;
    sp::encodeSimPointResult(e, r);
    serial::Decoder d(e.view());
    const sp::SimPointResult back = sp::decodeSimPointResult(d);
    d.expectEnd();

    EXPECT_EQ(back.k, r.k);
    EXPECT_EQ(back.labels, r.labels);
    ASSERT_EQ(back.phases.size(), r.phases.size());
    for (std::size_t i = 0; i < r.phases.size(); ++i) {
        EXPECT_EQ(back.phases[i].id, r.phases[i].id);
        EXPECT_EQ(back.phases[i].representative,
                  r.phases[i].representative);
        EXPECT_EQ(back.phases[i].weight, r.phases[i].weight);
    }
    EXPECT_EQ(back.chosenBic, r.chosenBic);
    EXPECT_EQ(back.bicByK, r.bicByK);
}

TEST(SerialCodec, BinaryRoundTripsTheRealCompilerOutput)
{
    for (const bin::Binary& binary :
         test::compileFour(test::trickyProgram())) {
        serial::Encoder e;
        bin::encodeBinary(e, binary);
        serial::Decoder d(e.view());
        const bin::Binary back = bin::decodeBinary(d);
        d.expectEnd();

        // Re-encoding the decoded binary must reproduce the bytes:
        // codec fixed point == no field was dropped or reordered.
        serial::Encoder again;
        bin::encodeBinary(again, back);
        EXPECT_EQ(again.view(), e.view());
        EXPECT_EQ(back.programName, binary.programName);
        EXPECT_EQ(back.target, binary.target);
        EXPECT_EQ(back.entryProcId, binary.entryProcId);
        EXPECT_EQ(back.blockCount(), binary.blockCount());
        EXPECT_EQ(back.markerCount(), binary.markerCount());
        bin::checkBinary(back);  // structural invariants survive
    }
}

TEST(SerialCodec, ProfilePassRoundTrip)
{
    const bin::Binary binary = compile::compileProgram(
        test::tinyProgram(), bin::target32u);
    const prof::ProfilePass pass =
        prof::runProfilePass(binary, 5000);

    serial::Encoder e;
    prof::encodeProfilePass(e, pass);
    serial::Decoder d(e.view());
    const prof::ProfilePass back = prof::decodeProfilePass(d);
    d.expectEnd();

    EXPECT_EQ(back.markers.counts, pass.markers.counts);
    EXPECT_EQ(back.markers.totalInstructions,
              pass.markers.totalInstructions);
    EXPECT_TRUE(back.fliIntervals == pass.fliIntervals);
    EXPECT_EQ(back.fliBoundaries, pass.fliBoundaries);
    EXPECT_EQ(back.totalInstructions, pass.totalInstructions);
}

namespace
{

/**
 * Decode `bytes` as the store does (decode, then expectEnd): true on
 * success, false when the codec rejected them with DecodeError.  Any
 * other exception escapes and fails the test.
 */
template <typename Codec>
bool
decodesCleanly(std::string_view bytes)
{
    serial::Decoder d(bytes);
    try {
        (void)Codec::decode(d);
        d.expectEnd();
        return true;
    } catch (const serial::DecodeError&) {
        return false;
    }
}

/**
 * Seeded mutation check of one codec: every proper prefix of the
 * sound bytes is rejected, and every mutant with one to four bytes
 * flipped, half of them also truncated, decodes or is rejected with
 * DecodeError.  A crash, an out-of-bounds read under ASan or a
 * bad_alloc from an absurd reservation fails the run.
 */
template <typename Codec>
void
expectMutantsDecodeOrReject(const std::string& sound, u64 seed)
{
    ASSERT_TRUE(decodesCleanly<Codec>(sound));
    for (std::size_t len = 0; len < sound.size(); ++len)
        EXPECT_FALSE(decodesCleanly<Codec>(sound.substr(0, len))) << len;

    Rng rng(seed);
    std::size_t rejected = 0;
    const std::size_t mutants = 4000;
    for (std::size_t m = 0; m < mutants; ++m) {
        std::string mutant = sound;
        const u64 flips = 1 + rng.nextBelow(4);
        for (u64 f = 0; f < flips; ++f)
            mutant[rng.nextBelow(mutant.size())] ^=
                static_cast<char>(1 + rng.nextBelow(255));
        if (m % 2)
            mutant.resize(rng.nextBelow(mutant.size() + 1));
        rejected += !decodesCleanly<Codec>(mutant);
    }
    // Truncation alone rejects half of them.
    EXPECT_GE(rejected, mutants / 2);
}

} // namespace

TEST(SerialCodecMutation, ProfilePassDecodesOrRejects)
{
    const bin::Binary binary = compile::compileProgram(
        test::tinyProgram(), bin::target32u);
    serial::Encoder e;
    prof::ProfilePassCodec::encode(e, prof::runProfilePass(binary, 5000));
    expectMutantsDecodeOrReject<prof::ProfilePassCodec>(
        std::string(e.view()), 0x9f0f);
}

TEST(SerialCodecMutation, ProfilePassSkimDecodesOrRejects)
{
    const bin::Binary binary = compile::compileProgram(
        test::tinyProgram(), bin::target32u);
    serial::Encoder e;
    prof::ProfilePassCodec::encode(e, prof::runProfilePass(binary, 5000));
    expectMutantsDecodeOrReject<prof::ProfilePassSkimCodec>(
        std::string(e.view()), 0x5c17);
}

TEST(SerialCodecMutation, VliBuildAndSkimDecodeOrReject)
{
    const std::vector<bin::Binary> binaries =
        test::compileFour(test::tinyProgram());
    std::vector<prof::ProfilePass> passes;
    std::vector<const bin::Binary*> bins;
    std::vector<const prof::MarkerProfile*> profs;
    for (const bin::Binary& binary : binaries)
        passes.push_back(prof::runProfilePass(binary, 5000));
    for (std::size_t b = 0; b < binaries.size(); ++b) {
        bins.push_back(&binaries[b]);
        profs.push_back(&passes[b].markers);
    }
    serial::Encoder e;
    core::VliBuildCodec::encode(
        e, core::buildVliPartition(binaries[0],
                                   core::findMappablePoints(bins, profs),
                                   0, 5000));
    expectMutantsDecodeOrReject<core::VliBuildCodec>(
        std::string(e.view()), 0x71b1);
    expectMutantsDecodeOrReject<core::VliBuildSkimCodec>(
        std::string(e.view()), 0x71b2);
}

TEST(SerialCodecMutation, BinaryDecodesOrRejects)
{
    serial::Encoder e;
    bin::BinaryCodec::encode(e, compile::compileProgram(
                                    test::tinyProgram(), bin::target64o));
    expectMutantsDecodeOrReject<bin::BinaryCodec>(std::string(e.view()),
                                                  0xb1a7);
}

TEST(SerialCodecMutation, DetailedRunDecodesOrRejects)
{
    sim::DetailedRunResult r;
    r.totals = {1000, 3500, 220};
    r.memory = {220, 180, 20, 15, 5, 2};
    for (u64 i = 0; i < 12; ++i) {
        r.fliIntervals.push_back({500 + i, 1700 + 3 * i});
        r.vliIntervals.push_back({999 - i, 3499 + 7 * i});
    }
    serial::Encoder e;
    sim::DetailedRunCodec::encode(e, r);
    expectMutantsDecodeOrReject<sim::DetailedRunCodec>(
        std::string(e.view()), 0xde7a);
}

namespace
{

/**
 * A dist frame payload (message type, then fields) as the daemon and
 * the workers read it: decodeMsgType, then the message's decoder.
 */
template <typename Message, dist::MsgType type,
          Message (*decodeBody)(serial::Decoder&)>
struct FrameCodec
{
    using Value = Message;

    static Message
    decode(serial::Decoder& d)
    {
        if (dist::decodeMsgType(d) != type)
            throw serial::DecodeError("unexpected message type");
        return decodeBody(d);
    }
};

/** Frame payload: the frame minus its magic and size header. */
std::string
payloadOf(const std::string& frame)
{
    return frame.substr(8);
}

} // namespace

TEST(SerialCodecMutation, DistTaskFramesDecodeOrReject)
{
    dist::StageTask stage;
    stage.workload = "gzip";
    stage.stage = "profile";
    stage.index = 2;
    dist::Task task;
    task.taskId = 4242;
    task.specKey = dist::stageTaskKey(stage);
    task.payload = dist::encodeStageTask(stage);
    expectMutantsDecodeOrReject<
        FrameCodec<dist::Task, dist::MsgType::Task, dist::decodeTask>>(
        payloadOf(dist::frameTask(task)), 0x7a5c);

    dist::TaskDone done;
    done.taskId = 4242;
    done.ok = false;
    done.error = "stage study.gzip.profile.32u failed";
    done.busyNanos = 123'456'789;
    expectMutantsDecodeOrReject<
        FrameCodec<dist::TaskDone, dist::MsgType::TaskDone,
                   dist::decodeTaskDone>>(
        payloadOf(dist::frameTaskDone(done)), 0xd0e5);
}

namespace
{

/** Shutdown has no body: the message type is the whole payload. */
struct ShutdownBody
{
};

ShutdownBody
decodeShutdownBody(serial::Decoder&)
{
    return {};
}

} // namespace

TEST(SerialCodecMutation, DistControlFramesDecodeOrReject)
{
    dist::Hello hello;
    hello.workerName = "worker-7";
    hello.cacheDir = "/var/cache/xbsp";
    expectMutantsDecodeOrReject<
        FrameCodec<dist::Hello, dist::MsgType::Hello, dist::decodeHello>>(
        payloadOf(dist::frameHello(hello)), 0x4e11);

    dist::HelloAck ack;
    ack.serverName = "xbsp-serve";
    ack.cacheDir = "/var/cache/xbsp";
    expectMutantsDecodeOrReject<
        FrameCodec<dist::HelloAck, dist::MsgType::HelloAck,
                   dist::decodeHelloAck>>(
        payloadOf(dist::frameHelloAck(ack)), 0xac4e);

    dist::SuiteRequest request;
    request.figures = {"figure1", "table2"};
    request.workloads = {"gzip", "mcf"};
    request.workScale = 0.25;
    request.intervalTarget = 100'000;
    request.maxK = 8;
    request.seed = 7;
    request.core = "decoupled";
    expectMutantsDecodeOrReject<
        FrameCodec<dist::SuiteRequest, dist::MsgType::SuiteRequest,
                   dist::decodeSuiteRequest>>(
        payloadOf(dist::frameSuiteRequest(request)), 0x5e0e);

    dist::SuiteResponse response;
    response.ok = true;
    response.report = "Figure 1\n  gzip  1.23  4.56\n";
    expectMutantsDecodeOrReject<
        FrameCodec<dist::SuiteResponse, dist::MsgType::SuiteResponse,
                   dist::decodeSuiteResponse>>(
        payloadOf(dist::frameSuiteResponse(response)), 0x5e5b);

    expectMutantsDecodeOrReject<
        FrameCodec<ShutdownBody, dist::MsgType::Shutdown,
                   decodeShutdownBody>>(payloadOf(dist::frameShutdown()),
                                        0x5d0f);
}

TEST(SerialCodecMutation, SimPointResultDecodesOrRejects)
{
    const bin::Binary binary = compile::compileProgram(
        test::tinyProgram(), bin::target32u);
    sp::SimPointOptions options;
    options.maxK = 4;
    serial::Encoder e;
    sp::SimPointCodec::encode(
        e, sp::pickSimulationPoints(
               prof::runProfilePass(binary, 5000).fliIntervals,
               options));
    expectMutantsDecodeOrReject<sp::SimPointCodec>(
        std::string(e.view()), 0x5b75);
}

/**
 * The skimming reads decode the bytes the full codecs wrote, minus
 * the vectors: a profile pass keeps its markers and boundaries, and
 * a VLI build its partition and instruction count.  Neither builds a
 * set (fvs.rows stays put).
 */
TEST(SerialCodec, SkimReadsKeepAllButTheVectors)
{
    const std::vector<bin::Binary> binaries =
        test::compileFour(test::tinyProgram());
    std::vector<prof::ProfilePass> passes;
    for (const bin::Binary& binary : binaries)
        passes.push_back(prof::runProfilePass(binary, 5000));
    std::vector<const bin::Binary*> bins;
    std::vector<const prof::MarkerProfile*> profs;
    for (std::size_t b = 0; b < binaries.size(); ++b) {
        bins.push_back(&binaries[b]);
        profs.push_back(&passes[b].markers);
    }
    const core::VliBuild build = core::buildVliPartition(
        binaries[0], core::findMappablePoints(bins, profs), 0, 5000);
    const obs::StatRegistry& reg = obs::StatRegistry::global();
    const u64 rows = reg.counterValue("fvs.rows");

    serial::Encoder e;
    prof::ProfilePassCodec::encode(e, passes[0]);
    serial::Decoder d(e.view());
    const prof::ProfilePass pass = prof::ProfilePassSkimCodec::decode(d);
    d.expectEnd();
    EXPECT_EQ(pass.markers.counts, passes[0].markers.counts);
    EXPECT_EQ(pass.markers.totalInstructions,
              passes[0].markers.totalInstructions);
    EXPECT_EQ(pass.fliIntervals.size(), 0u);
    EXPECT_EQ(pass.fliBoundaries, passes[0].fliBoundaries);
    EXPECT_EQ(pass.fliBoundaries.size(), passes[0].fliIntervals.size());
    EXPECT_EQ(pass.totalInstructions, passes[0].totalInstructions);

    serial::Encoder v;
    core::VliBuildCodec::encode(v, build);
    serial::Decoder dv(v.view());
    const core::VliBuild skim = core::VliBuildSkimCodec::decode(dv);
    dv.expectEnd();
    EXPECT_EQ(skim.partition.boundaries, build.partition.boundaries);
    EXPECT_EQ(skim.intervals.size(), 0u);
    EXPECT_EQ(skim.totalInstructions, build.totalInstructions);
    EXPECT_EQ(reg.counterValue("fvs.rows"), rows);
}

TEST(SerialCodec, ProfilePassBoundaryCountMismatchRejected)
{
    const bin::Binary binary = compile::compileProgram(
        test::tinyProgram(), bin::target32u);
    prof::ProfilePass pass = prof::runProfilePass(binary, 5000);
    pass.fliBoundaries.pop_back();
    serial::Encoder e;
    prof::encodeProfilePass(e, pass);
    serial::Decoder d(e.view());
    EXPECT_THROW(prof::decodeProfilePass(d), serial::DecodeError);
    serial::Decoder skim(e.view());
    EXPECT_THROW(prof::decodeProfilePassSkim(skim), serial::DecodeError);
}

TEST(SerialCodec, DetailedRunRoundTrip)
{
    sim::DetailedRunResult r;
    r.totals = {1000, 3500, 220};
    r.memory = {220, 180, 20, 15, 5, 2};
    r.fliIntervals = {{500, 1700}, {500, 1800}};
    r.vliIntervals = {{999, 3499}, {1, 1}};

    serial::Encoder e;
    sim::encodeDetailedRun(e, r);
    serial::Decoder d(e.view());
    const sim::DetailedRunResult back = sim::decodeDetailedRun(d);
    d.expectEnd();

    EXPECT_EQ(back.totals.instructions, r.totals.instructions);
    EXPECT_EQ(back.totals.cycles, r.totals.cycles);
    EXPECT_EQ(back.totals.memRefs, r.totals.memRefs);
    EXPECT_EQ(back.memory.refs, r.memory.refs);
    EXPECT_EQ(back.memory.dramWritebacks, r.memory.dramWritebacks);
    ASSERT_EQ(back.fliIntervals.size(), 2u);
    EXPECT_EQ(back.fliIntervals[1].cycles, 1800u);
    ASSERT_EQ(back.vliIntervals.size(), 2u);
    EXPECT_EQ(back.vliIntervals[0].instrs, 999u);
}

TEST(SerialCodec, MalformedEnumRejected)
{
    serial::Encoder e;
    e.str("prog");
    e.varint(99);  // Arch out of range
    serial::Decoder d(e.view());
    EXPECT_THROW(bin::decodeBinary(d), serial::DecodeError);
}

namespace
{

/** A sound binary to break: tiny's 32u build. */
bin::Binary
soundBinary()
{
    return compile::compileProgram(test::tinyProgram(), bin::target32u);
}

/** The first loop of procedure `name`. */
bin::MachineLoop&
firstLoop(bin::Binary& binary, const std::string& name)
{
    for (bin::MachineStmt& stmt :
         binary.procs[binary.findProc(name)].body) {
        if (auto* loop = std::get_if<bin::MachineLoop>(&stmt))
            return *loop;
    }
    throw std::logic_error("no loop in " + name);
}

/** Encode `binary` and expect the decoder to reject it. */
void
expectRejected(const bin::Binary& binary)
{
    serial::Encoder e;
    bin::encodeBinary(e, binary);
    serial::Decoder d(e.view());
    EXPECT_THROW((void)bin::decodeBinary(d), serial::DecodeError);
}

} // namespace

TEST(BinaryDecode, SoundBinaryPasses)
{
    const bin::Binary binary = soundBinary();
    EXPECT_EQ(bin::binaryDefect(binary), "");
}

TEST(BinaryDecode, RejectsOutOfRangeBlockId)
{
    bin::Binary binary = soundBinary();
    bin::MachineLoop& loop = firstLoop(binary, "work");
    std::get<bin::BlockRef>(loop.body[0]).blockId = binary.blockCount();
    expectRejected(binary);
}

TEST(BinaryDecode, RejectsOutOfRangeMarkerId)
{
    bin::Binary binary = soundBinary();
    firstLoop(binary, "work").branchMarkerId = binary.markerCount() + 7;
    expectRejected(binary);
}

TEST(BinaryDecode, RejectsOutOfRangeProcIds)
{
    bin::Binary call = soundBinary();
    call.procs[call.findProc("main")].body.push_back(
        bin::MachineCall{static_cast<u32>(call.procs.size())});
    expectRejected(call);

    bin::Binary entry = soundBinary();
    entry.entryProcId = static_cast<u32>(entry.procs.size());
    expectRejected(entry);

    bin::Binary owner = soundBinary();
    owner.blocks[0].procId = static_cast<u32>(owner.procs.size());
    expectRejected(owner);
}

TEST(BinaryDecode, RejectsIdsWiderThan32Bits)
{
    const bin::Binary binary = soundBinary();
    serial::Encoder e;
    bin::encodeBinary(e, binary);
    // The entry proc id follows the name and the two target enums;
    // re-encode it as 2^32 + its value.
    serial::Encoder wide;
    wide.str(binary.programName);
    wide.varint(static_cast<u64>(binary.target.arch));
    wide.varint(static_cast<u64>(binary.target.opt));
    serial::Encoder narrow = wide;
    narrow.varint(binary.entryProcId);
    wide.varint((1ull << 32) + binary.entryProcId);
    const std::string rest(e.view().substr(narrow.size()));
    wide.bytes(rest.data(), rest.size());
    serial::Decoder d(wide.view());
    EXPECT_THROW((void)bin::decodeBinary(d), serial::DecodeError);
}

TEST(BinaryDecode, RejectsZeroTripCount)
{
    bin::Binary binary = soundBinary();
    firstLoop(binary, "setup").tripCount = 0;
    expectRejected(binary);
    EXPECT_DEATH(bin::checkBinary(binary), "trip count 0");
}

TEST(BinaryDecode, RejectsZeroInstructionBlock)
{
    bin::Binary binary = soundBinary();
    binary.blocks[0].instrs = 0;
    expectRejected(binary);
    EXPECT_DEATH(bin::checkBinary(binary), "no instructions");
}

TEST(BinaryDecode, RejectsCallCycle)
{
    bin::Binary binary = soundBinary();
    firstLoop(binary, "work").body.push_back(
        bin::MachineCall{binary.findProc("main")});
    expectRejected(binary);
    EXPECT_DEATH(bin::checkBinary(binary), "call cycle");

    bin::Binary self = soundBinary();
    const u32 tail = self.findProc("tail");
    self.procs[tail].body.push_back(bin::MachineCall{tail});
    expectRejected(self);
}

TEST(BinaryDecode, RejectsBranchBlockOfAnotherProc)
{
    bin::Binary binary = soundBinary();
    const u32 setupBranch = firstLoop(binary, "setup").branchBlockId;
    firstLoop(binary, "work").branchBlockId = setupBranch;
    expectRejected(binary);
    EXPECT_DEATH(bin::checkBinary(binary), "owned by proc");
}

TEST(BinaryDecode, RejectsTwoPow53Instructions)
{
    bin::Binary binary = soundBinary();
    firstLoop(binary, "setup").tripCount = 1ull << 53;
    expectRejected(binary);
    EXPECT_DEATH(bin::checkBinary(binary), "2\\^53");

    // Totals saturate instead of wrapping: 2^63 x 2^63 trips must not
    // come out small.
    bin::Binary wraps = soundBinary();
    firstLoop(wraps, "work").tripCount = 1ull << 63;
    firstLoop(wraps, "main").tripCount = 1ull << 63;
    expectRejected(wraps);
}

namespace
{

/** Wrap the top-level loop of "work" in `extra` one-trip loops. */
bin::Binary
nestedWork(u32 extra)
{
    bin::Binary binary = soundBinary();
    bin::MachineLoop& loop = firstLoop(binary, "work");
    bin::MachineLoop nested = loop;
    for (u32 depth = 0; depth < extra; ++depth) {
        bin::MachineLoop outer = loop;
        outer.tripCount = 1;
        outer.body = {std::move(nested)};
        nested = std::move(outer);
    }
    loop = std::move(nested);
    return binary;
}

} // namespace

TEST(BinaryDecode, RejectsDeepNesting)
{
    // ir::maxLoopNesting loops are sound; one more is a defect.
    const bin::Binary atLimit = nestedWork(ir::maxLoopNesting - 1);
    EXPECT_EQ(bin::binaryDefect(atLimit), "");
    serial::Encoder e;
    bin::encodeBinary(e, atLimit);
    serial::Decoder d(e.view());
    EXPECT_NO_THROW((void)bin::decodeBinary(d));

    const bin::Binary over = nestedWork(ir::maxLoopNesting);
    expectRejected(over);
    EXPECT_DEATH(bin::checkBinary(over), "nested deeper than 256");
    expectRejected(nestedWork(300));
}

TEST(BinaryDecode, EveryCompiledNestingDecodes)
{
    // Compile and decode agree on the limit: a program at it compiles
    // (inlining adds the leaf's loops to main's) and every binary
    // decodes back to the same encoding.
    const ir::Program program =
        test::deepProgram(200, ir::maxLoopNesting - 200);
    for (const bin::Binary& binary : test::compileFour(program)) {
        serial::Encoder e;
        bin::encodeBinary(e, binary);
        serial::Decoder d(e.view());
        const bin::Binary back = bin::decodeBinary(d);
        serial::Encoder again;
        bin::encodeBinary(again, back);
        EXPECT_EQ(again.view(), e.view()) << binary.displayName();
    }
}
