/**
 * @file
 * Unit tests for the command-line option parser.
 */

#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "util/options.hh"
#include "util/rng.hh"

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

TEST(Options, NegatedBoolWithValueFatal)
{
    // A value on the --no- form is a contradiction or a typo, never
    // silently dropped.
    for (const char* arg : {"--no-on=false", "--no-on=true",
                            "--no-flag=1", "--no-flag="}) {
        Options options = makeParser();
        EXPECT_EXIT(parse(options, {arg}), ::testing::ExitedWithCode(1),
                    "takes no value")
            << arg;
    }
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

namespace
{

/** The options `xbsp study` and the benches parse, by kind. */
Options
makeStudyParser()
{
    Options options("study");
    options.addString("workload", "workload name", "swim");
    options.addDouble("scale", "work scale", 1.0);
    options.addUint("maxk", "SimPoint cluster cap", 10);
    options.addBool("verbose", "progress on stderr", true);
    options.addJobs();
    return options;
}

/**
 * About 500 mutants of `argv`: 100 seeded truncations (the argument
 * list cut inside a random argument), then 400 copies with 1-4 bytes
 * replaced, inserted or deleted inside random arguments, each new
 * byte from the options' own alphabet or a random one.
 */
std::vector<std::vector<std::string>>
argvMutantsOf(const std::vector<std::string>& argv, u64 seed)
{
    static constexpr std::string_view alphabet = "-=no0123456789.e ";
    Rng rng(seed);
    std::vector<std::vector<std::string>> mutants;
    while (mutants.size() < 100) {
        const std::size_t keep = rng.nextBelow(argv.size());
        std::vector<std::string> mutant(argv.begin(),
                                        argv.begin() + keep + 1);
        mutant.back().resize(rng.nextBelow(mutant.back().size() + 1));
        mutants.push_back(std::move(mutant));
    }
    while (mutants.size() < 500) {
        std::vector<std::string> mutant = argv;
        for (u64 edits = 1 + rng.nextBelow(4); edits > 0; --edits) {
            std::string& arg = mutant[rng.nextBelow(mutant.size())];
            const std::size_t at = rng.nextBelow(arg.size() + 1);
            const char byte =
                rng.nextBool(0.5)
                    ? alphabet[rng.nextBelow(alphabet.size())]
                    : static_cast<char>(rng.nextBelow(256));
            switch (rng.nextBelow(3)) {
              case 0:
                if (at < arg.size())
                    arg[at] = byte;
                break;
              case 1:
                arg.insert(arg.begin() + at, byte);
                break;
              default:
                if (at < arg.size())
                    arg.erase(at, 1);
                break;
            }
        }
        mutants.push_back(std::move(mutant));
    }
    return mutants;
}

} // namespace

/**
 * Every mutant of a real study argv parses or fails with a clean
 * `fatal`: each is parsed in its own child, which must exit 0 or 1;
 * both outcomes occur.
 */
TEST(OptionsFuzz, StudyArgvMutantsParseOrFail)
{
    const std::vector<std::string> argv = {
        "--workload", "gzip", "--scale", "0.5", "--maxk", "9",
        "--jobs", "2", "--no-verbose"};
    std::size_t parsed = 0, rejected = 0;
    auto exitedCleanly = [&](int status) {
        if (!WIFEXITED(status) || WEXITSTATUS(status) > 1)
            return false;
        ++(WEXITSTATUS(status) == 0 ? parsed : rejected);
        return true;
    };
    const auto mutants = argvMutantsOf(argv, 0x0975EED);
    for (std::size_t m = 0; m < mutants.size(); ++m) {
        EXPECT_EXIT(
            {
                alarm(10);
                std::vector<const char*> args{"xbsp"};
                for (const std::string& arg : mutants[m])
                    args.push_back(arg.c_str());
                Options options = makeStudyParser();
                (void)options.parse(static_cast<int>(args.size()),
                                    args.data());
                std::_Exit(0);
            },
            exitedCleanly, "")
            << "mutant " << m;
    }
    EXPECT_GT(parsed, 0u);
    EXPECT_GT(rejected, 0u);
}
