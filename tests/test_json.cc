/**
 * @file
 * JsonWriter string-escaping tests — every byte sequence (control
 * characters, encoded lone surrogates, overlong encodings, stray
 * continuation bytes) must come out as valid UTF-8 *and* valid JSON —
 * plus parseJson() reader tests: documents round-trip through the
 * writer, malformed input fails with an offset-bearing error, and
 * every truncation and thousands of mutants of a real stats dump
 * either parse or throw JsonParseError.
 */

#include <sstream>
#include <string_view>

#include <gtest/gtest.h>

#include "harness/experiments.hh"
#include "obs/stats.hh"
#include "sim/study.hh"
#include "util/json.hh"
#include "util/rng.hh"
#include "workloads/workloads.hh"

using namespace xbsp;

TEST(JsonEscape, MandatoryShortEscapes)
{
    EXPECT_EQ(JsonWriter::escape("a\"b\\c"), "a\\\"b\\\\c");
    EXPECT_EQ(JsonWriter::escape("\b\f\n\r\t"), "\\b\\f\\n\\r\\t");
}

TEST(JsonEscape, AllControlCharactersBecomeUnicodeEscapes)
{
    for (unsigned c = 0; c < 0x20; ++c) {
        const std::string in(1, static_cast<char>(c));
        const std::string out = JsonWriter::escape(in);
        // Never a raw control byte in the output.
        for (char b : out)
            EXPECT_GE(static_cast<unsigned char>(b), 0x20u)
                << "control 0x" << std::hex << c;
        EXPECT_EQ(out.front(), '\\');
    }
    EXPECT_EQ(JsonWriter::escape(std::string(1, '\x01')), "\\u0001");
    EXPECT_EQ(JsonWriter::escape(std::string(1, '\x1f')), "\\u001f");
    EXPECT_EQ(JsonWriter::escape(std::string(1, '\x00')), "\\u0000");
}

TEST(JsonEscape, ValidUtf8PassesThroughUntouched)
{
    const std::string two = "caf\xc3\xa9";             // é
    const std::string three = "\xe2\x82\xac";          // €
    const std::string four = "\xf0\x9f\x98\x80";       // 😀
    EXPECT_EQ(JsonWriter::escape(two), two);
    EXPECT_EQ(JsonWriter::escape(three), three);
    EXPECT_EQ(JsonWriter::escape(four), four);
}

TEST(JsonEscape, EncodedLoneSurrogatesBecomeUnicodeEscapes)
{
    // UTF-8-encoded U+D800 (low end) and U+DFFF (high end): CESU-8
    // style bytes that strict validators reject.  They must be
    // re-emitted as \uXXXX escapes, never as raw bytes.
    EXPECT_EQ(JsonWriter::escape("\xed\xa0\x80"), "\\ud800");
    EXPECT_EQ(JsonWriter::escape("\xed\xbf\xbf"), "\\udfff");
    EXPECT_EQ(JsonWriter::escape("x\xed\xb2\xa9y"), "x\\udca9y");
}

TEST(JsonEscape, InvalidBytesBecomeReplacementCharacter)
{
    // Stray continuation byte.
    EXPECT_EQ(JsonWriter::escape("\x80"), "\\ufffd");
    // Lead byte with no continuation.
    EXPECT_EQ(JsonWriter::escape("\xc3"), "\\ufffd");
    // Truncated three-byte sequence.
    EXPECT_EQ(JsonWriter::escape("\xe2\x82"), "\\ufffd\\ufffd");
    // Bytes that can never appear in UTF-8.
    EXPECT_EQ(JsonWriter::escape("\xfe\xff"), "\\ufffd\\ufffd");
    // Overlong two-byte NUL (0xc0 0x80) is outside the 0xc2..0xdf
    // lead range, so both bytes are replaced.
    EXPECT_EQ(JsonWriter::escape("\xc0\x80"), "\\ufffd\\ufffd");
    // Overlong three-byte encoding of '/' (0xe0 0x80 0xaf).
    EXPECT_EQ(JsonWriter::escape("\xe0\x80\xaf"), "\\ufffd");
    // Four-byte sequence beyond U+10FFFF.
    EXPECT_EQ(JsonWriter::escape("\xf4\x90\x80\x80"), "\\ufffd");
}

TEST(JsonEscape, MixedGarbageStaysAlignedWithValidText)
{
    const std::string out =
        JsonWriter::escape("ok\x01\xed\xa0\xbd\xf0\x9f\x98\x80\xffz");
    EXPECT_EQ(out, "ok\\u0001\\ud83d\xf0\x9f\x98\x80\\ufffdz");
}

TEST(JsonEscape, FullDocumentWithHostileKeyStillWellFormed)
{
    std::ostringstream os;
    {
        JsonWriter w(os);
        w.beginObject();
        w.member("na\nme\x02", std::string_view("\xed\xa0\x80\x80"));
        w.endObject();
    }
    EXPECT_EQ(os.str(),
              "{\n  \"na\\nme\\u0002\": \"\\ud800\\ufffd\"\n}");
}

TEST(JsonParse, ScalarsAndContainers)
{
    const JsonValue doc = parseJson(
        R"({"n": 42, "f": -2.5, "s": "hi", "t": true, "z": null,)"
        R"( "a": [1, 2, 3], "o": {"inner": "v"}})");
    ASSERT_TRUE(doc.isObject());
    EXPECT_EQ(doc.size(), 7u);
    EXPECT_EQ(doc.at("n").asU64(), 42u);
    EXPECT_DOUBLE_EQ(doc.at("f").asNumber(), -2.5);
    EXPECT_EQ(doc.at("s").asString(), "hi");
    EXPECT_TRUE(doc.at("t").asBool());
    EXPECT_TRUE(doc.at("z").isNull());
    ASSERT_TRUE(doc.at("a").isArray());
    ASSERT_EQ(doc.at("a").size(), 3u);
    EXPECT_EQ(doc.at("a").at(std::size_t{2}).asU64(), 3u);
    EXPECT_EQ(doc.at("o").at("inner").asString(), "v");
    EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(JsonParse, ObjectMembersKeepDocumentOrder)
{
    const JsonValue doc = parseJson(R"({"z": 1, "a": 2, "m": 3})");
    ASSERT_EQ(doc.members().size(), 3u);
    EXPECT_EQ(doc.members()[0].first, "z");
    EXPECT_EQ(doc.members()[1].first, "a");
    EXPECT_EQ(doc.members()[2].first, "m");
}

TEST(JsonParse, StringEscapesIncludingUnicode)
{
    const JsonValue doc = parseJson(
        R"(["a\"b\\c", "\b\f\n\r\t", "Aé", "€"])");
    EXPECT_EQ(doc.at(std::size_t{0}).asString(), "a\"b\\c");
    EXPECT_EQ(doc.at(std::size_t{1}).asString(), "\b\f\n\r\t");
    EXPECT_EQ(doc.at(std::size_t{2}).asString(), "A\xc3\xa9");
    EXPECT_EQ(doc.at(std::size_t{3}).asString(), "\xe2\x82\xac");
}

TEST(JsonParse, UnicodeEscapesDecodeToUtf8)
{
    // A, e-acute, the euro sign (BMP escapes), then U+1F600 as a
    // surrogate pair.  The escapes are assembled from a lone
    // backslash so the C++ source holds JSON escapes, not raw UTF-8.
    const std::string bs(1, '\\');
    const std::string in = "[\"A" + bs + "u00e9" + bs +
                           "u20ac\", \"" + bs + "ud83d" + bs +
                           "ude00\"]";
    const JsonValue doc = parseJson(in);
    EXPECT_EQ(doc.at(std::size_t{0}).asString(),
              "A\xc3\xa9\xe2\x82\xac");
    EXPECT_EQ(doc.at(std::size_t{1}).asString(),
              "\xf0\x9f\x98\x80");
}

TEST(JsonParse, WriterOutputRoundTrips)
{
    std::ostringstream os;
    {
        JsonWriter w(os);
        w.beginObject();
        w.member("count", u64{18446744073709551615ull >> 12});
        w.member("ratio", 0.125);
        w.member("name", std::string_view("x\ny"));
        w.key("list");
        w.beginArray();
        w.value(u64{1});
        w.value(u64{2});
        w.endArray();
        w.endObject();
    }
    const JsonValue doc = parseJson(os.str());
    EXPECT_EQ(doc.at("count").asU64(),
              18446744073709551615ull >> 12);
    EXPECT_DOUBLE_EQ(doc.at("ratio").asNumber(), 0.125);
    EXPECT_EQ(doc.at("name").asString(), "x\ny");
    EXPECT_EQ(doc.at("list").size(), 2u);
}

TEST(JsonParse, MalformedInputThrowsWithOffset)
{
    EXPECT_THROW(parseJson(""), JsonParseError);
    EXPECT_THROW(parseJson("{"), JsonParseError);
    EXPECT_THROW(parseJson("[1, 2"), JsonParseError);
    EXPECT_THROW(parseJson(R"({"a" 1})"), JsonParseError);
    EXPECT_THROW(parseJson(R"({"a": 1,})"), JsonParseError);
    EXPECT_THROW(parseJson("\"unterminated"), JsonParseError);
    EXPECT_THROW(parseJson("nul"), JsonParseError);
    // Trailing garbage after a complete document.
    EXPECT_THROW(parseJson("{} x"), JsonParseError);
    try {
        parseJson("[true, nope]");
        FAIL() << "expected JsonParseError";
    } catch (const JsonParseError& e) {
        EXPECT_NE(std::string(e.what()).find("offset"),
                  std::string::npos);
    }
}

TEST(JsonParse, AccessorKindMismatchesThrow)
{
    const JsonValue doc = parseJson(R"({"s": "text", "n": 7})");
    EXPECT_THROW((void)doc.at("s").asNumber(), JsonParseError);
    EXPECT_THROW((void)doc.at("n").asString(), JsonParseError);
    EXPECT_THROW((void)doc.at("n").items(), JsonParseError);
    EXPECT_THROW((void)doc.at("absent"), JsonParseError);
    EXPECT_THROW((void)doc.at(std::size_t{0}), JsonParseError);
}

namespace
{

/**
 * What `xbsp study --workload gzip --scale 0.1 --stats-out FILE`
 * writes: the stats registry after one study, timers left out.
 */
std::string
studyStatsDump()
{
    (void)sim::CrossBinaryStudy::run(workloads::makeWorkload("gzip", 0.1),
                                     harness::defaultStudyConfig());
    std::ostringstream os;
    obs::StatRegistry::global().writeJsonFile(os, false);
    return os.str();
}

} // namespace

TEST(JsonParse, MutantsParseOrThrow)
{
    // `xbsp manifest` reads such dumps from disk: a damaged one must
    // come back as a value or a JsonParseError, never a crash, a hang
    // or another exception.
    const std::string dump = studyStatsDump();
    ASSERT_GT(dump.size(), 1000u);
    ASSERT_NO_THROW((void)parseJson(dump));

    std::size_t parsed = 0, rejected = 0;
    const auto feed = [&](std::string_view text) {
        try {
            (void)parseJson(text);
            ++parsed;
        } catch (const JsonParseError&) {
            ++rejected;
        }
    };
    for (std::size_t len = 0; len < dump.size(); ++len)
        feed(std::string_view(dump).substr(0, len));
    // Every cut up to the closing brace loses part of the document.
    EXPECT_EQ(rejected, dump.rfind('}') + 1);
    parsed = rejected = 0;

    // 4,000 copies with 1-4 edits each: a byte replaced (by one of
    // JSON's own alphabet or a random byte), inserted or deleted.
    static constexpr std::string_view alphabet =
        "{}[]:,\"\\0123456789.-+eEtrufalsn \n";
    Rng rng(0x150Bull);
    for (int m = 0; m < 4000; ++m) {
        std::string mutant = dump;
        for (u64 edits = 1 + rng.nextBelow(4); edits > 0; --edits) {
            const std::size_t at = rng.nextBelow(mutant.size());
            const char byte =
                rng.nextBool(0.5)
                    ? alphabet[rng.nextBelow(alphabet.size())]
                    : static_cast<char>(rng.nextBelow(256));
            switch (rng.nextBelow(3)) {
              case 0: mutant[at] = byte; break;
              case 1: mutant.insert(mutant.begin() + at, byte); break;
              default: mutant.erase(at, 1); break;
            }
        }
        feed(mutant);
    }
    EXPECT_GT(parsed, 0u);
    EXPECT_GT(rejected, 0u);
}
