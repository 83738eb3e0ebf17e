/**
 * @file
 * Unit tests for the statistics package.
 */

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <sstream>

#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/stats.hh"

namespace snpu
{
namespace
{

TEST(Stats, ScalarAccumulates)
{
    stats::Group group("g");
    stats::Scalar s(group, "s", "a scalar");
    ++s;
    s += 2.5;
    EXPECT_DOUBLE_EQ(s.value(), 3.5);
    s = 7;
    EXPECT_DOUBLE_EQ(s.value(), 7);
    s.reset();
    EXPECT_DOUBLE_EQ(s.value(), 0);
}

TEST(Stats, AverageTracksMinMaxMean)
{
    stats::Group group("g");
    stats::Average a(group, "a", "an average");
    a.sample(10);
    a.sample(20);
    a.sample(0);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_DOUBLE_EQ(a.mean(), 10.0);
    EXPECT_DOUBLE_EQ(a.min(), 0.0);
    EXPECT_DOUBLE_EQ(a.max(), 20.0);
    a.reset();
    EXPECT_EQ(a.count(), 0u);
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
}

TEST(Stats, HistogramBucketsSamples)
{
    stats::Group group("g");
    stats::Histogram h(group, "h", "a histogram", 0, 100, 10);
    h.sample(5);    // bucket 0
    h.sample(15);   // bucket 1
    h.sample(95);   // bucket 9
    h.sample(-1);   // underflow
    h.sample(100);  // overflow (hi is exclusive)
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(1), 1u);
    EXPECT_EQ(h.bucket(9), 1u);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 1u);
}

TEST(Stats, HistogramPercentileInterpolates)
{
    stats::Group group("g");
    stats::Histogram h(group, "h", "latency", 0, 100, 10);
    // One sample per bucket: the quantiles walk the bucket tops.
    for (int v = 5; v < 100; v += 10)
        h.sample(v);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 50.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 100.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 10.0);
}

TEST(Stats, HistogramPercentileWithinOneBucket)
{
    stats::Group group("g");
    stats::Histogram h(group, "h", "latency", 0, 100, 10);
    for (int i = 0; i < 4; ++i)
        h.sample(25); // all mass in bucket [20, 30)
    EXPECT_DOUBLE_EQ(h.percentile(0.25), 22.5);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 25.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 30.0);
}

TEST(Stats, HistogramPercentileClampsOutOfRange)
{
    stats::Group group("g");
    stats::Histogram h(group, "h", "latency", 0, 100, 10);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0); // no samples
    h.sample(-5);
    h.sample(-5);
    h.sample(150);
    h.sample(150);
    // Underflow pins to lo, overflow to hi: the histogram keeps no
    // detail beyond its range.
    EXPECT_DOUBLE_EQ(h.percentile(0.25), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 100.0);
}

TEST(Stats, HistogramTailPercentilesOrdered)
{
    stats::Group group("g");
    stats::Histogram h(group, "h", "latency", 0, 100, 10);
    for (int i = 0; i < 99; ++i)
        h.sample(5);
    h.sample(95);
    const double p50 = h.percentile(0.50);
    const double p95 = h.percentile(0.95);
    const double p999 = h.percentile(0.999);
    EXPECT_LE(p50, p95);
    EXPECT_LE(p95, p999);
    EXPECT_LT(p50, 10.0);   // bulk sits in the first bucket
    EXPECT_GT(p999, 90.0);  // the straggler shows up in the tail
}

TEST(Stats, HistogramRejectsBadGeometry)
{
    stats::Group group("g");
    EXPECT_THROW(stats::Histogram(group, "h", "bad", 10, 10, 4),
                 PanicError);
    EXPECT_THROW(stats::Histogram(group, "h", "bad", 0, 10, 0),
                 PanicError);
}

TEST(Stats, GroupDumpAndFind)
{
    stats::Group group("soc");
    stats::Scalar s(group, "cycles", "total cycles");
    s = 42;
    EXPECT_NE(group.find("cycles"), nullptr);
    EXPECT_EQ(group.find("nonexistent"), nullptr);

    std::ostringstream os;
    group.dump(os);
    EXPECT_NE(os.str().find("soc.cycles = 42"), std::string::npos);
    EXPECT_NE(os.str().find("total cycles"), std::string::npos);
}

TEST(Stats, GroupResetAll)
{
    stats::Group group("g");
    stats::Scalar s(group, "s", "scalar");
    stats::Average a(group, "a", "avg");
    s = 5;
    a.sample(3);
    group.resetAll();
    EXPECT_DOUBLE_EQ(s.value(), 0);
    EXPECT_EQ(a.count(), 0u);
}

TEST(Stats, RenderIntegersWithoutDecimals)
{
    stats::Group group("g");
    stats::Scalar s(group, "s", "scalar");
    s = 1234567;
    EXPECT_EQ(s.render(), "1234567");
}

TEST(Stats, HistogramNonFiniteSamples)
{
    stats::Group group("g");
    stats::Histogram h(group, "h", "latency", 0, 100, 10);
    h.sample(50);
    h.sample(std::numeric_limits<double>::quiet_NaN());
    h.sample(std::numeric_limits<double>::infinity());
    h.sample(-std::numeric_limits<double>::infinity());
    EXPECT_EQ(h.count(), 4u);
    // NaN and +inf land in overflow, -inf in underflow; none of
    // them reaches the bucket cast (which would be UB for NaN).
    EXPECT_EQ(h.overflow(), 2u);
    EXPECT_EQ(h.underflow(), 1u);
    // The mean covers finite samples only.
    EXPECT_DOUBLE_EQ(h.mean(), 50.0);
    h.reset();
    h.sample(50);
    EXPECT_DOUBLE_EQ(h.mean(), 50.0);
}

TEST(Stats, DuplicateStatNamePanics)
{
    stats::Group group("g");
    stats::Scalar s(group, "s", "first");
    EXPECT_THROW(stats::Scalar(group, "s", "dup"), PanicError);
}

TEST(Stats, DuplicateChildGroupNamePanics)
{
    stats::Group group("g");
    stats::Group child(group, "child");
    EXPECT_THROW(stats::Group(group, "child"), PanicError);
}

TEST(Stats, StatAndChildNameCollisionPanics)
{
    stats::Group group("g");
    stats::Group child(group, "x");
    EXPECT_THROW(stats::Scalar(group, "x", "collides"), PanicError);

    stats::Group other("g2");
    stats::Scalar s(other, "y", "first");
    EXPECT_THROW(stats::Group(other, "y"), PanicError);
}

TEST(Stats, StatDestructionAllowsNameReuse)
{
    stats::Group group("g");
    {
        stats::Scalar first(group, "s", "first");
        first = 1;
        EXPECT_EQ(group.all().size(), 1u);
    }
    // The destructor deregistered: no dangling pointer, no
    // duplicate-name panic for the successor.
    EXPECT_TRUE(group.all().empty());
    stats::Scalar second(group, "s", "second");
    EXPECT_EQ(group.all().size(), 1u);
    EXPECT_EQ(group.find("s"), &second);
}

TEST(Stats, ChildGroupsDumpDottedPaths)
{
    stats::Group root("soc");
    stats::Group core(root, "core0");
    stats::Scalar reads(core, "spad_reads", "reads");
    reads = 3;

    std::ostringstream os;
    root.dump(os);
    EXPECT_NE(os.str().find("soc.core0.spad_reads = 3"),
              std::string::npos);

    // Dotted descent and bare-name recursive lookup both resolve.
    EXPECT_EQ(root.find("core0.spad_reads"), &reads);
    EXPECT_EQ(root.find("spad_reads"), &reads);
    EXPECT_EQ(root.find("core1.spad_reads"), nullptr);

    root.resetAll();
    EXPECT_DOUBLE_EQ(reads.value(), 0);
}

TEST(Stats, GroupJsonGolden)
{
    stats::Group root("soc");
    stats::Scalar cycles(root, "cycles", "total");
    cycles = 42;
    stats::Group core(root, "core0");
    stats::Scalar reads(core, "spad_reads", "reads");
    reads = 3;

    std::ostringstream os;
    root.dumpJson(os);
    const std::string expected = "{\n"
                                 "  \"name\": \"soc\",\n"
                                 "  \"stats\": {\n"
                                 "    \"cycles\": 42\n"
                                 "  },\n"
                                 "  \"groups\": [{\n"
                                 "    \"name\": \"core0\",\n"
                                 "    \"stats\": {\n"
                                 "      \"spad_reads\": 3\n"
                                 "    }\n"
                                 "  }]\n"
                                 "}\n";
    EXPECT_EQ(os.str(), expected);
}

TEST(Stats, StatJsonValues)
{
    stats::Group group("g");
    stats::Average a(group, "a", "avg");
    a.sample(1);
    a.sample(2);
    std::ostringstream as;
    a.json(as);
    EXPECT_EQ(as.str(),
              "{\"count\": 2, \"mean\": 1.5, \"min\": 1, "
              "\"max\": 2}");

    stats::Histogram h(group, "h", "hist", 0, 10, 2);
    h.sample(1);
    h.sample(11);
    std::ostringstream hs;
    h.json(hs);
    EXPECT_NE(hs.str().find("\"overflow\": 1"), std::string::npos);
    EXPECT_NE(hs.str().find("\"buckets\": [1, 0]"),
              std::string::npos);
}

TEST(Stats, JsonEscapesControlCharacters)
{
    std::ostringstream os;
    stats::jsonEscape(os, "a\"b\\c\nd");
    EXPECT_EQ(os.str(), "\"a\\\"b\\\\c\\nd\"");
}

TEST(Stats, RegistryDumpsEveryGroup)
{
    stats::Registry reg;
    stats::Group a("a");
    stats::Group b("b");
    stats::Scalar sa(a, "x", "d");
    stats::Scalar sb(b, "y", "d");
    sa = 1;
    sb = 2;
    reg.add(a);
    reg.add(b);
    EXPECT_THROW(reg.add(a), PanicError);

    std::ostringstream os;
    reg.dump(os);
    EXPECT_NE(os.str().find("a.x = 1"), std::string::npos);
    EXPECT_NE(os.str().find("b.y = 2"), std::string::npos);

    std::ostringstream js;
    reg.dumpJson(js);
    EXPECT_NE(js.str().find("{\"groups\": ["), std::string::npos);
    EXPECT_NE(js.str().find("\"x\": 1"), std::string::npos);
    EXPECT_NE(js.str().find("\"y\": 2"), std::string::npos);

    reg.resetAll();
    EXPECT_DOUBLE_EQ(sa.value(), 0);
    EXPECT_DOUBLE_EQ(sb.value(), 0);

    reg.remove(b);
    ASSERT_EQ(reg.groups().size(), 1u);
    EXPECT_EQ(reg.groups()[0], &a);
}

/**
 * A small stat tree of every stat kind across three levels. With
 * @p extra_first it registers one more stat ahead of all the others,
 * so every registration-order position shifts by one.
 */
struct StatTree
{
    explicit StatTree(bool extra_first)
        : extra(extra_first ? std::make_unique<stats::Scalar>(
                                  root, "extra", "registered first")
                            : nullptr)
    {}

    stats::Group root{"soc"};
    std::unique_ptr<stats::Scalar> extra;
    stats::Scalar cycles{root, "cycles", "cycles"};
    stats::Scalar idle{root, "idle", "never changes"};
    stats::Group core{root, "core0"};
    stats::Scalar reads{core, "reads", "reads"};
    stats::Average latency{core, "latency", "latency"};
    stats::Histogram hist{core, "hist", "hist", 0, 100, 10};
    stats::Group dma{core, "dma"};
    stats::Scalar bytes{dma, "bytes", "bytes"};
    stats::Average burst{dma, "burst", "burst"};
};

/** Random updates to some of the tree's stats. */
void
drive(StatTree &t, std::uint64_t seed, int ops)
{
    Rng rng(seed);
    for (int i = 0; i < ops; ++i) {
        switch (rng.below(5)) {
          case 0:
            t.cycles += static_cast<double>(rng.below(1000));
            break;
          case 1:
            ++t.reads;
            break;
          case 2:
            t.latency.sample(static_cast<double>(rng.below(500)));
            break;
          case 3:
            t.hist.sample(static_cast<double>(rng.range(-20, 130)));
            break;
          default:
            t.bytes += 64;
            t.burst.sample(static_cast<double>(rng.below(16)));
            break;
        }
    }
}

std::string
registryJson(StatTree &t)
{
    stats::Registry reg;
    reg.add(t.root);
    std::ostringstream os;
    reg.dumpJson(os);
    return os.str();
}

/**
 * Deltas collected on @p capture_extra's tree shape replay onto the
 * other shape, whose every position hint is stale: the replay must
 * equal a path-only replay and a live run of the same operations.
 */
void
checkStaleHintsReplay(bool capture_extra)
{
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        StatTree source(capture_extra);
        drive(source, seed, 50);
        stats::DeltaCapture capture(source.root);
        capture.begin();
        drive(source, seed + 1000, 80);
        std::vector<stats::StatDelta> deltas;
        capture.collect(deltas);
        ASSERT_FALSE(deltas.empty());

        std::vector<stats::StatDelta> path_only = deltas;
        for (auto &d : path_only)
            d.index = std::numeric_limits<std::uint32_t>::max();

        StatTree hinted(!capture_extra);
        StatTree by_path(!capture_extra);
        StatTree live(!capture_extra);
        for (StatTree *t : {&hinted, &by_path, &live})
            drive(*t, seed, 50);
        stats::DeltaCapture(hinted.root).apply(deltas);
        stats::DeltaCapture(by_path.root).apply(path_only);
        drive(live, seed + 1000, 80);

        const std::string expected = registryJson(live);
        EXPECT_EQ(registryJson(by_path), expected) << "seed " << seed;
        EXPECT_EQ(registryJson(hinted), expected) << "seed " << seed;
    }
}

TEST(DeltaCapture, StaleIndexHintsFallBackToPath)
{
    checkStaleHintsReplay(false);
}

TEST(DeltaCapture, OutOfRangeIndexHintsFallBackToPath)
{
    // Captured on the larger tree: the last stat's position is past
    // the end of the smaller one, and "extra" never changes, so no
    // delta names it.
    checkStaleHintsReplay(true);
}

TEST(DeltaCapture, MatchingShapeReplaysOntoAnotherInstance)
{
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        StatTree source(false);
        stats::DeltaCapture capture(source.root);
        capture.begin();
        drive(source, seed, 80);
        std::vector<stats::StatDelta> deltas;
        capture.collect(deltas);

        StatTree replayed(false);
        StatTree live(false);
        drive(replayed, seed + 7, 30);
        drive(live, seed + 7, 30);
        stats::DeltaCapture(replayed.root).apply(deltas);
        drive(live, seed, 80);
        EXPECT_EQ(registryJson(replayed), registryJson(live))
            << "seed " << seed;
    }
}

TEST(DeltaCapture, UnknownPathPanics)
{
    StatTree tree(false);
    stats::StatDelta d;
    d.path = stats::DeltaCapture::hashPath("core0.no_such_stat");
    EXPECT_THROW(stats::DeltaCapture(tree.root).apply({d}), PanicError);
}

} // namespace
} // namespace snpu
