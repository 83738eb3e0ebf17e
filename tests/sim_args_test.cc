/**
 * @file
 * Unit tests for the command-line configuration schema (ArgSpec):
 * typed values, declared ranges and name tables, and exit 2 with a
 * message on every rejected argument.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/args.hh"

namespace snpu
{
namespace
{

using ::testing::ExitedWithCode;

/** Parse @p words as the arguments after argv[0]. */
std::vector<std::string>
parse(const ArgSpec &spec, std::vector<std::string> words)
{
    words.insert(words.begin(), "test");
    std::vector<char *> argv;
    for (std::string &word : words)
        argv.push_back(word.data());
    std::vector<std::string> rest;
    for (char *arg : spec.parse(static_cast<int>(argv.size()), argv.data()))
        rest.emplace_back(arg);
    return rest;
}

enum class Fruit { apple, pear };

struct Values
{
    unsigned tiles = 7;
    double bw = 1.5;
    bool secure = false;
    std::string name = "x";
    std::uint64_t seed = 1;
    Fruit fruit = Fruit::apple;
    std::vector<Fruit> basket{Fruit::pear};
};

ArgSpec
schema(Values &v)
{
    ArgSpec spec("test");
    spec.option("tiles", "a count", &v.tiles)
        .option("bw", "a real", &v.bw)
        .option("secure", "a flag", &v.secure)
        .option("name", "some text", &v.name)
        .option("seed", "a 64-bit count", &v.seed)
        .choice("fruit", "one name", &v.fruit,
                {{"apple", Fruit::apple}, {"pear", Fruit::pear}})
        .list("basket", "some names", &v.basket,
              {{"apple", Fruit::apple}, {"pear", Fruit::pear}});
    return spec;
}

TEST(Config, TypedRoundTrips)
{
    Values v;
    parse(schema(v), {"tiles=10", "bw=16.5", "secure=1", "name=snpu",
                      "seed=18446744073709551615", "fruit=pear",
                      "basket=apple,pear,apple"});
    EXPECT_EQ(v.tiles, 10u);
    EXPECT_DOUBLE_EQ(v.bw, 16.5);
    EXPECT_TRUE(v.secure);
    EXPECT_EQ(v.name, "snpu");
    EXPECT_EQ(v.seed, UINT64_MAX);
    EXPECT_EQ(v.fruit, Fruit::pear);
    EXPECT_EQ(v.basket,
              (std::vector<Fruit>{Fruit::apple, Fruit::pear, Fruit::apple}));
}

TEST(Config, DefaultsWhenAbsent)
{
    Values v;
    parse(schema(v), {});
    EXPECT_EQ(v.tiles, 7u);
    EXPECT_DOUBLE_EQ(v.bw, 1.5);
    EXPECT_FALSE(v.secure);
    EXPECT_EQ(v.name, "x");
    EXPECT_EQ(v.fruit, Fruit::apple);
    EXPECT_EQ(v.basket, std::vector<Fruit>{Fruit::pear});

    std::optional<unsigned> derived;
    parse(ArgSpec("test").option("secure", "derived default", &derived),
          {});
    EXPECT_FALSE(derived.has_value());
    parse(ArgSpec("test").option("secure", "derived default", &derived),
          {"secure=0"});
    EXPECT_EQ(derived, 0u);
}

TEST(Config, ParseArg)
{
    Values v;
    parse(schema(v), {"name=bert", "tiles=16", "name=resnet"});
    EXPECT_EQ(v.name, "resnet"); // the last repeat wins
    EXPECT_EQ(v.tiles, 16u);
    parse(schema(v), {"name="});
    EXPECT_EQ(v.name, "");
}

TEST(Config, ParseArgRejectsMalformed)
{
    Values v;
    EXPECT_EXIT(parse(schema(v), {"novalue"}), ExitedWithCode(2),
                "unknown argument 'novalue'");
    EXPECT_EXIT(parse(schema(v), {"=x"}), ExitedWithCode(2),
                "unknown argument '=x'");
    EXPECT_EXIT(parse(schema(v), {"tiles"}), ExitedWithCode(2),
                "unknown argument 'tiles'");
}

TEST(Config, MalformedNumbersAreFatal)
{
    Values v;
    for (const char *arg : {"tiles=abc", "tiles=", "tiles=4x", "tiles= 4",
                            "bw=abc", "bw=", "bw=1.5x", "seed=abc"}) {
        EXPECT_EXIT(parse(schema(v), {arg}), ExitedWithCode(2),
                    "bad value '" + std::string(arg) + "'");
    }
}

TEST(Config, IntegersAreDecimalDigitsOnly)
{
    // Hex and signed spellings were accepted by the old key/value
    // store; a count is now plain decimal digits.
    Values v;
    for (const char *arg : {"tiles=0x10", "tiles=-1", "tiles=+1",
                            "seed=-1", "seed=0X10"}) {
        EXPECT_EXIT(parse(schema(v), {arg}), ExitedWithCode(2),
                    "bad value");
    }
}

TEST(Config, LeadingZeroIsDecimalNotOctal)
{
    // "scale=010" means ten; a base-detecting strtol would silently
    // read it as octal 8.
    Values v;
    parse(schema(v), {"tiles=010"});
    EXPECT_EQ(v.tiles, 10u);
    parse(schema(v), {"tiles=0"});
    EXPECT_EQ(v.tiles, 0u);
}

TEST(Config, BoolSpellings)
{
    // 0|1, as every CLI documents; the old store's yes/no/true/false
    // spellings are rejected.
    Values v;
    parse(schema(v), {"secure=1"});
    EXPECT_TRUE(v.secure);
    parse(schema(v), {"secure=0"});
    EXPECT_FALSE(v.secure);
    for (const char *arg : {"secure=yes", "secure=true", "secure=no",
                            "secure=false", "secure=2", "secure="}) {
        EXPECT_EXIT(parse(schema(v), {arg}), ExitedWithCode(2),
                    "expected secure=0\\|1");
    }
}

TEST(Config, OutOfRangeNumbersExit2)
{
    unsigned cores = 1;
    double frac = 0.5;
    double load = 0.7;
    double any = 0.0;
    ArgSpec spec("test");
    spec.option("cores", "count", &cores, 1, 10)
        .option("frac", "fraction", &frac, ArgSpec::unit)
        .option("load", "load", &load, ArgSpec::positive)
        .option("any", "any finite number", &any);
    parse(spec, {"cores=10", "frac=0", "load=1e-9", "any=-1e300"});
    EXPECT_EQ(cores, 10u);
    EXPECT_DOUBLE_EQ(frac, 0.0);
    EXPECT_DOUBLE_EQ(load, 1e-9);
    EXPECT_DOUBLE_EQ(any, -1e300);
    parse(spec, {"frac=1"});
    EXPECT_DOUBLE_EQ(frac, 1.0);

    for (const char *arg :
         {"cores=0", "cores=11", "cores=4294967296", "frac=-0.1",
          "frac=1.01", "frac=nan", "load=0", "load=-1", "load=nan",
          "load=inf", "any=nan", "any=inf", "any=-inf", "any=1e999"}) {
        EXPECT_EXIT(parse(spec, {arg}), ExitedWithCode(2),
                    "bad value '" + std::string(arg) + "'");
    }
}

TEST(Config, KeyMatchesWholeNameNotPrefix)
{
    bool stats = false;
    std::string stats_json;
    ArgSpec spec("test");
    spec.option("stats", "flag", &stats)
        .option("stats_json", "file", &stats_json);
    parse(spec, {"stats_json=out.json"});
    EXPECT_FALSE(stats);
    EXPECT_EQ(stats_json, "out.json");
    parse(spec, {"stats=1"});
    EXPECT_TRUE(stats);
    EXPECT_EXIT(parse(spec, {"stat=1"}), ExitedWithCode(2),
                "unknown argument 'stat=1'");
    EXPECT_EXIT(parse(spec, {"stats_jsonx=1"}), ExitedWithCode(2),
                "unknown argument");
}

TEST(Config, ChoiceAndListRejectUnknownNames)
{
    Values v;
    EXPECT_EXIT(parse(schema(v), {"fruit=plum"}), ExitedWithCode(2),
                "expected fruit=apple\\|pear");
    EXPECT_EXIT(parse(schema(v), {"fruit="}), ExitedWithCode(2),
                "bad value");
    EXPECT_EXIT(parse(schema(v), {"basket=apple,plum"}), ExitedWithCode(2),
                "bad value 'basket=apple,plum'");
    EXPECT_EXIT(parse(schema(v), {"basket=apple,,pear"}),
                ExitedWithCode(2), "bad value");
    parse(schema(v), {"basket="});
    EXPECT_TRUE(v.basket.empty());
}

TEST(Config, BackendMustBeRegistered)
{
    std::string backend;
    ArgSpec spec("test");
    spec.backend("protection", "backend", &backend);
    parse(spec, {"protection=crypto"});
    EXPECT_EQ(backend, "crypto");
    EXPECT_EXIT(parse(spec, {"protection=mpu"}), ExitedWithCode(2),
                "expected protection=passthrough\\|iommu\\|guarder\\|crypto");
    EXPECT_EXIT(parse(spec, {"protection="}), ExitedWithCode(2),
                "bad value");
}

TEST(Config, UsageComesFromTheDeclarations)
{
    Values v;
    EXPECT_EXIT(parse(schema(v), {"--help"}), ExitedWithCode(2),
                "tiles=N  \\(default 7\\)\n      a count\n"
                "(.|\n)*fruit=apple\\|pear  \\(default apple\\)"
                "(.|\n)*basket=LIST of apple\\|pear  \\(default pear\\)");
}

TEST(Config, FailExits2WithTheReason)
{
    EXPECT_EXIT(ArgSpec("prog").fail("secure=9 exceeds tenants=2"),
                ExitedWithCode(2), "prog: secure=9 exceeds tenants=2");
}

TEST(Config, PassthroughForwardsUnmatchedArguments)
{
    std::string json;
    ArgSpec spec("test");
    spec.json(&json).passthrough("any other flag is forwarded");
    const auto rest = parse(spec, {"--json=a.json", "--benchmark_filter=x"});
    EXPECT_EQ(json, "a.json");
    EXPECT_EQ(rest, (std::vector<std::string>{"test",
                                              "--benchmark_filter=x"}));
    // A declared key with a bad value is still rejected.
    unsigned jobs = 0;
    spec.jobs(&jobs);
    EXPECT_EXIT(parse(spec, {"--jobs=x"}), ExitedWithCode(2), "bad value");
}

} // namespace
} // namespace snpu
