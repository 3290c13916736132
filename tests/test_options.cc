/**
 * @file
 * Unit tests for the command-line option parser.
 */

#include <gtest/gtest.h>

#include "util/options.hh"

using namespace xbsp;

namespace
{

Options
makeParser()
{
    Options options("test");
    options.addString("name", "a string", "default");
    options.addUint("count", "an int", 7);
    options.addDouble("ratio", "a double", 0.5);
    options.addBool("flag", "a bool", false);
    options.addBool("on", "a default-true bool", true);
    return options;
}

bool
parse(Options& options, std::vector<const char*> args)
{
    args.insert(args.begin(), "prog");
    return options.parse(static_cast<int>(args.size()), args.data());
}

} // namespace

TEST(Options, Defaults)
{
    Options options = makeParser();
    EXPECT_TRUE(parse(options, {}));
    EXPECT_EQ(options.getString("name"), "default");
    EXPECT_EQ(options.getUint("count"), 7u);
    EXPECT_DOUBLE_EQ(options.getDouble("ratio"), 0.5);
    EXPECT_FALSE(options.getBool("flag"));
    EXPECT_TRUE(options.getBool("on"));
}

TEST(Options, EqualsForm)
{
    Options options = makeParser();
    EXPECT_TRUE(parse(options, {"--name=abc", "--count=12",
                                "--ratio=1.25", "--flag=true"}));
    EXPECT_EQ(options.getString("name"), "abc");
    EXPECT_EQ(options.getUint("count"), 12u);
    EXPECT_DOUBLE_EQ(options.getDouble("ratio"), 1.25);
    EXPECT_TRUE(options.getBool("flag"));
}

TEST(Options, SpaceForm)
{
    Options options = makeParser();
    EXPECT_TRUE(parse(options, {"--name", "xyz", "--count", "3"}));
    EXPECT_EQ(options.getString("name"), "xyz");
    EXPECT_EQ(options.getUint("count"), 3u);
}

TEST(Options, BareAndNegatedBools)
{
    Options options = makeParser();
    EXPECT_TRUE(parse(options, {"--flag", "--no-on"}));
    EXPECT_TRUE(options.getBool("flag"));
    EXPECT_FALSE(options.getBool("on"));
}

TEST(Options, Positional)
{
    Options options = makeParser();
    EXPECT_TRUE(parse(options, {"pos1", "--count", "2", "pos2"}));
    ASSERT_EQ(options.positional().size(), 2u);
    EXPECT_EQ(options.positional()[0], "pos1");
    EXPECT_EQ(options.positional()[1], "pos2");
}

TEST(Options, HelpReturnsFalse)
{
    Options options = makeParser();
    EXPECT_FALSE(parse(options, {"--help"}));
}

TEST(Options, UnknownOptionFatal)
{
    Options options = makeParser();
    EXPECT_EXIT(parse(options, {"--bogus"}),
                ::testing::ExitedWithCode(1), "unknown option");
}

TEST(Options, BadIntegerFatal)
{
    Options options = makeParser();
    EXPECT_EXIT(parse(options, {"--count", "abc"}),
                ::testing::ExitedWithCode(1), "unsigned integer");
}

TEST(Options, MalformedIntegerFatal)
{
    // A suffix must not truncate (250k is not 250), -1 must not wrap
    // to 2^64 - 1, and overflow must not saturate.
    for (const char* value : {"250k", "-1", "+1", " 1", "1 ", "",
                              "18446744073709551616"}) {
        Options options = makeParser();
        EXPECT_EXIT(parse(options, {"--count", value}),
                    ::testing::ExitedWithCode(1), "unsigned integer")
            << "'" << value << "'";
    }
}

TEST(Options, PartialOrNonFiniteDoubleFatal)
{
    for (const char* value :
         {"1.5x", "nan", "inf", "-inf", "1e999", "", "abc"}) {
        Options options = makeParser();
        EXPECT_EXIT(parse(options, {"--ratio", value}),
                    ::testing::ExitedWithCode(1), "finite number")
            << "'" << value << "'";
    }
}

TEST(Options, WholeNumbersAccepted)
{
    Options options = makeParser();
    EXPECT_TRUE(parse(options, {"--count", "18446744073709551615",
                                "--ratio", "-2.5e-3"}));
    EXPECT_EQ(options.getUint("count"), 18446744073709551615ull);
    EXPECT_DOUBLE_EQ(options.getDouble("ratio"), -2.5e-3);
}

TEST(Options, MissingValueFatal)
{
    Options options = makeParser();
    EXPECT_EXIT(parse(options, {"--name"}),
                ::testing::ExitedWithCode(1), "requires a value");
}

TEST(Options, WrongTypeAccessPanics)
{
    Options options = makeParser();
    EXPECT_TRUE(parse(options, {}));
    EXPECT_DEATH((void)options.getUint("name"), "wrong type");
}

TEST(ParseTcpPort, WholeDecimalInRange)
{
    EXPECT_EQ(parseTcpPort("0"), 0);
    EXPECT_EQ(parseTcpPort("65535"), 65535);
    EXPECT_FALSE(parseTcpPort("65536").has_value());
    EXPECT_FALSE(parseTcpPort("").has_value());
    EXPECT_FALSE(parseTcpPort("80abc").has_value());
    EXPECT_FALSE(parseTcpPort("-1").has_value());
}
