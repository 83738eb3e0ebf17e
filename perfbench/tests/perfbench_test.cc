/**
 * @file
 * Tests of the benchmark's own machinery: the tail-percentile rule,
 * span self time, the argument parser, that the printed metrics are
 * exactly the ones BENCHMARK.json names, and that serve_faults jobs
 * give identical digests on one and two workers. Run from the
 * repository root (ctest sets the working directory).
 */

#include <fstream>
#include <regex>
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "harness.hh"
#include "report.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

std::vector<double>
oneTo(std::size_t n)
{
    std::vector<double> v;
    for (std::size_t i = 1; i <= n; ++i)
        v.push_back(static_cast<double>(i));
    return v;
}

} // namespace

TEST(TailRule, PicksHighestPercentileWithTenBeyond)
{
    const struct
    {
        std::size_t n;
        double pct;
        std::size_t beyond;
    } cases[] = {
        {20, 50.0, 10},    {39, 50.0, 19},   {40, 75.0, 10},
        {100, 90.0, 10},   {199, 90.0, 19},  {200, 95.0, 10},
        {1000, 99.0, 10},  {9999, 99.0, 99}, {10000, 99.9, 10},
    };
    for (const auto &c : cases) {
        const Tail t = tailPercentile(oneTo(c.n));
        EXPECT_EQ(t.percentile, c.pct) << "n=" << c.n;
        EXPECT_EQ(t.beyond, c.beyond) << "n=" << c.n;
        EXPECT_EQ(t.count, c.n);
        // Values are 1..n, so the value is the nearest rank.
        EXPECT_EQ(t.value, static_cast<double>(c.n - c.beyond));
    }
}

TEST(TailRule, TooFewSamplesFallsBackToMedianAndSaysSo)
{
    const Tail t = tailPercentile({5.0, 1.0, 3.0});
    EXPECT_EQ(t.percentile, 50.0);
    EXPECT_EQ(t.value, 3.0);
    EXPECT_EQ(t.beyond, 1u);
    EXPECT_EQ(tailPercentile({}).count, 0u);
}

TEST(TailRule, OrderDoesNotMatter)
{
    std::vector<double> v = oneTo(250);
    std::reverse(v.begin(), v.end());
    const Tail t = tailPercentile(v);
    EXPECT_EQ(t.percentile, 95.0);
    EXPECT_EQ(t.value, 238.0);
}

TEST(JobTimes, EachJobOfAPassCountsOnceAtItsMedian)
{
    RunData d;
    d.job_ms_by_id["a"] = {1.0, 100.0, 3.0, 2.0, 5.0, 4.0};
    d.job_ms_by_id["b"] = {10.0, 12.0, 11.0};
    d.pass_ids = {"a", "b", "a"}; // three passes ran this list
    d.threads = 2;
    std::vector<double> t = jobTimesMs(d);
    std::sort(t.begin(), t.end());
    EXPECT_EQ(t, (std::vector<double>{3.5, 3.5, 11.0}));
    EXPECT_DOUBLE_EQ(passWorkMs(d), (3.5 + 3.5 + 11.0) / 2);
}

TEST(Normalise, ScalesByTheReferenceRun)
{
    // A host at half the nominal speed doubles both the job and the
    // reference run; the normalised time is the nominal-speed time.
    EXPECT_DOUBLE_EQ(normalizedMs(40.0, 2.0 * reference_nominal_ms), 20.0);
    EXPECT_DOUBLE_EQ(normalizedMs(20.0, reference_nominal_ms), 20.0);
    EXPECT_DOUBLE_EQ(normalizedMs(20.0, 0.0), 20.0); // no reference
    const double ref = referenceKernelMs();
    EXPECT_GT(ref, 0.0);
    EXPECT_LT(ref, 1000.0);
}

TEST(Median, OddEvenEmpty)
{
    EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
    EXPECT_EQ(median({}), 0.0);
}

TEST(SelfTime, SubtractsTheUnionOfChildrenInsideTheParent)
{
    std::vector<Span> spans = {
        {"job", 0.0, 10.0, -1, 1},
        {"a", 1.0, 3.0, 0, 1},
        {"b", 2.0, 5.0, 0, 1},  // overlaps a: counted once
        {"c", 7.0, 12.0, 0, 1}, // runs past the parent: clipped
        {"d", 1.5, 2.5, 1, 1},  // grandchild: only a loses it
    };
    const std::vector<double> self = selfTimes(spans);
    EXPECT_DOUBLE_EQ(self[0], 10.0 - (4.0 + 3.0));
    EXPECT_DOUBLE_EQ(self[1], 2.0 - 1.0);
    EXPECT_DOUBLE_EQ(self[2], 3.0);
    EXPECT_DOUBLE_EQ(self[3], 5.0);
    EXPECT_DOUBLE_EQ(self[4], 1.0);
}

TEST(SelfTime, RunSelfTimeSubtractsTheSeparateCompile)
{
    RunData d;
    d.pass_ms = {100.0, 100.0};
    d.pass_self_ms["core.run"] = 30.0;
    d.pass_self_ms["workload.compile"] = 10.0;
    d.counters["npu.instructions"] = 4000.0;
    d.counters["workload.layers"] = 5.0;
    std::map<std::string, double> m;
    for (const auto &[name, metric] : perLayerMetrics(d))
        m[name] = metric.first;
    EXPECT_DOUBLE_EQ(m.at("core.run_ms"), 10.0);      // (30-10)/2 passes
    EXPECT_DOUBLE_EQ(m.at("workload.compile_ms"), 5.0);
    EXPECT_DOUBLE_EQ(m.at("workload.compile_ms_per_layer"), 2.0);
    EXPECT_DOUBLE_EQ(m.at("core.run_ns_per_npu_instr"), 20.0e6 / 4000.0);
}

TEST(Spans, RecorderOffRecordsNothingAndOnNests)
{
    SpanRecorder off(false);
    {
        ScopedSpan s(off, "x", -1, 0);
        EXPECT_EQ(s.id(), -1);
    }
    EXPECT_EQ(off.size(), 0u);

    SpanRecorder on(true);
    {
        ScopedSpan outer(on, "outer", -1, 7);
        ScopedSpan inner(on, "inner", outer.id(), 7);
    }
    const auto spans = on.snapshot();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[1].parent, 0);
    EXPECT_EQ(spans[1].job, 7u);
    EXPECT_LE(spans[0].start_ms, spans[1].start_ms);
    EXPECT_GE(spans[0].end_ms, spans[1].end_ms);
}

TEST(Cli, AcceptsTheDocumentedForm)
{
    Options o;
    std::string err;
    ASSERT_TRUE(parseArgs({"--workload", "serve_warm", "--seed", "42",
                           "--seconds=7", "--trace", "1"},
                          o, err))
        << err;
    EXPECT_EQ(o.workload, "serve_warm");
    EXPECT_EQ(o.seed, 42u);
    EXPECT_EQ(o.seconds, 7u);
    EXPECT_TRUE(o.trace);
}

TEST(Cli, RejectsBadInputWithAMessage)
{
    const std::vector<std::vector<std::string>> bad = {
        {"--workload", "nope", "--seed", "1"},
        {"--workload", "figures", "--seed", "-1"},
        {"--workload", "figures", "--seed", "12a"},
        {"--workload", "figures", "--seed", ""},
        {"--workload", "figures", "--seed", "18446744073709551616"},
        {"--workload", "figures"},
        {"--seed", "1"},
        {"--workload", "figures", "--seed", "1", "--bogus", "2"},
        {"--workload", "figures", "--seed", "1", "--trace", "2"},
        {"--workload", "figures", "--seed", "1", "--seconds", "0"},
        {"--workload", "figures", "--seed"},
    };
    for (const auto &args : bad) {
        Options o;
        std::string err;
        EXPECT_FALSE(parseArgs(args, o, err)) << args.back();
        EXPECT_FALSE(err.empty());
    }
    Options o;
    std::string err;
    EXPECT_TRUE(parseArgs({"--workload", "figures", "--seed",
                           "18446744073709551615"},
                          o, err));
}

namespace
{

/** (name, unit) of every metric in one section of BENCHMARK.json. */
std::set<std::pair<std::string, std::string>>
declared(const std::string &json, const std::string &section)
{
    const auto start = json.find("\"" + section + "\"");
    EXPECT_NE(start, std::string::npos) << section;
    const auto open = json.find('[', start);
    const auto close = json.find(']', open);
    const std::string body = json.substr(open, close - open);
    std::set<std::pair<std::string, std::string>> out;
    const std::regex entry(
        "\\{[^}]*\"name\"\\s*:\\s*\"([^\"]+)\"[^}]*\"unit\"\\s*:\\s*"
        "\"([^\"]+)\"[^}]*\\}");
    for (std::sregex_iterator it(body.begin(), body.end(), entry), end;
         it != end; ++it)
        out.insert({(*it)[1], (*it)[2]});
    return out;
}

std::set<std::pair<std::string, std::string>>
printed(const MetricList &metrics)
{
    std::set<std::pair<std::string, std::string>> out;
    for (const auto &[name, m] : metrics)
        out.insert({name, m.second});
    return out;
}

} // namespace

TEST(Summary, PrintsExactlyTheMetricsBenchmarkJsonNames)
{
    std::ifstream is("BENCHMARK.json");
    ASSERT_TRUE(is) << "run from the repository root";
    std::stringstream ss;
    ss << is.rdbuf();
    const std::string json = ss.str();
    RunData d;
    EXPECT_EQ(printed(endToEndMetrics(d)), declared(json, "end_to_end"));
    EXPECT_EQ(printed(perLayerMetrics(d)), declared(json, "per_layer"));
}

TEST(Summary, ResultLineHasTheFourKeys)
{
    const std::string line =
        resultLine(true, 3, 0, {{"pass_cpu_s", {1.25, "s"}}});
    EXPECT_EQ(line, "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
                    "\"metrics\": {\"pass_cpu_s\": {\"value\": 1.25, \"unit\": "
                    "\"s\"}}}");
}

TEST(ServeFaults, DigestsIdenticalOnOneAndTwoWorkers)
{
    SpanRecorder off(false);
    auto wl = makeWorkload("serve_faults", 7);
    ASSERT_EQ(wl->setup(off), "");
    const std::set<std::string> keep = {
        "faults/guarder/r2/v0", "faults/crypto/r1/v1", "faults/guarder/r0/v1",
        "fleet/k2/v0"};
    std::vector<Job> jobs;
    for (Job &j : wl->catalog())
        if (keep.count(j.id))
            jobs.push_back(std::move(j));
    ASSERT_EQ(jobs.size(), keep.size());
    const auto one = runJobs(jobs, 1, off, -1, 0);
    const auto two = runJobs(jobs, 2, off, -1, 0);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_TRUE(one[i].ok) << one[i].id << ": " << one[i].error;
        EXPECT_EQ(one[i].id, two[i].id);
        EXPECT_EQ(one[i].cycles, two[i].cycles) << one[i].id;
        EXPECT_EQ(one[i].digest, two[i].digest) << one[i].id;
    }
}

TEST(Shuffle, SameSeedSameOrderAndEveryJobKept)
{
    std::vector<Job> a, b;
    for (int i = 0; i < 50; ++i) {
        a.push_back({std::to_string(i), nullptr});
        b.push_back({std::to_string(i), nullptr});
    }
    shuffleJobs(a, 99);
    shuffleJobs(b, 99);
    std::set<std::string> ids;
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].id, b[i].id);
        ids.insert(a[i].id);
    }
    EXPECT_EQ(ids.size(), 50u);
}
