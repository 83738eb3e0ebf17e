/**
 * @file
 * Unit tests for the host-parallel sweep runner: submission-order
 * collection, bit-identical results at any thread count, failure
 * isolation, and pool reuse.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "sim/sweep_runner.hh"

namespace snpu
{
namespace
{

/**
 * A miniature simulation: mixes a data-dependent walk over the job's
 * private RNG stream into a digest, so any cross-thread sharing of
 * context state changes the result.
 */
std::uint64_t
simulate(SweepContext &ctx)
{
    std::uint64_t digest = ctx.seed();
    for (int i = 0; i < 32; ++i) {
        const std::uint64_t skip = ctx.rng().below(4);
        for (std::uint64_t s = 0; s < skip; ++s)
            ctx.rng().next();
        digest = digest * 6364136223846793005ULL + ctx.rng().next() +
                 static_cast<std::uint64_t>(i);
    }
    return digest;
}

std::vector<SweepOutcome<std::uint64_t>>
runSweep(unsigned threads, std::size_t n_jobs)
{
    SweepOptions opts;
    opts.threads = threads;
    SweepRunner runner(opts);
    std::vector<std::function<std::uint64_t(SweepContext &)>> jobs;
    for (std::size_t i = 0; i < n_jobs; ++i)
        jobs.push_back(simulate);
    return runner.map<std::uint64_t>(jobs);
}

TEST(SweepRunner, CollectsResultsInSubmissionOrder)
{
    SweepOptions opts;
    opts.threads = 4;
    SweepRunner runner(opts);
    std::vector<std::function<int(SweepContext &)>> jobs;
    for (int i = 0; i < 20; ++i)
        jobs.push_back([](SweepContext &ctx) {
            return static_cast<int>(ctx.index()) * 3;
        });
    auto out = runner.map<int>(jobs);
    ASSERT_EQ(out.size(), 20u);
    for (int i = 0; i < 20; ++i) {
        EXPECT_TRUE(out[i].ok());
        EXPECT_EQ(out[i].value, i * 3);
    }
}

TEST(SweepRunner, BitIdenticalAcrossThreadCounts)
{
    const auto one = runSweep(1, 24);
    const auto two = runSweep(2, 24);
    const auto many = runSweep(8, 24);
    ASSERT_EQ(one.size(), 24u);
    for (std::size_t i = 0; i < one.size(); ++i) {
        ASSERT_TRUE(one[i].ok());
        EXPECT_EQ(one[i].value, two[i].value) << "job " << i;
        EXPECT_EQ(one[i].value, many[i].value) << "job " << i;
    }
}

TEST(SweepRunner, SeedDependsOnIndexNotThread)
{
    for (unsigned threads : {1u, 3u}) {
        SweepOptions opts;
        opts.threads = threads;
        SweepRunner runner(opts);
        std::vector<std::function<std::uint64_t(SweepContext &)>> jobs;
        for (int i = 0; i < 8; ++i)
            jobs.push_back(
                [](SweepContext &ctx) { return ctx.seed(); });
        auto out = runner.map<std::uint64_t>(jobs);
        SweepRunner ref(SweepOptions{1});
        auto expect = ref.map<std::uint64_t>(jobs);
        for (int i = 0; i < 8; ++i)
            EXPECT_EQ(out[i].value, expect[i].value);
    }
}

TEST(SweepRunner, ThrowingJobReportsFailedStatusOnly)
{
    SweepOptions opts;
    opts.threads = 3;
    SweepRunner runner(opts);
    std::vector<std::function<int(SweepContext &)>> jobs;
    for (int i = 0; i < 9; ++i) {
        jobs.push_back([](SweepContext &ctx) {
            if (ctx.index() == 4)
                throw std::runtime_error("deliberate failure");
            return static_cast<int>(ctx.index());
        });
    }
    auto out = runner.map<int>(jobs);
    ASSERT_EQ(out.size(), 9u);
    for (int i = 0; i < 9; ++i) {
        if (i == 4) {
            EXPECT_FALSE(out[i].ok());
            EXPECT_EQ(out[i].status.code(), StatusCode::internal);
            EXPECT_NE(out[i].status.message().find(
                          "deliberate failure"),
                      std::string::npos);
        } else {
            EXPECT_TRUE(out[i].ok()) << out[i].status.toString();
            EXPECT_EQ(out[i].value, i);
        }
    }

    // The pool survives a failed job: a second batch runs clean.
    std::vector<SweepRunner::Job> again(5, [](SweepContext &) {});
    for (const Status &st : runner.runAll(again))
        EXPECT_TRUE(st.isOk());
}

TEST(SweepRunner, NonStdExceptionBecomesInternalStatus)
{
    SweepRunner runner(SweepOptions{2});
    std::vector<SweepRunner::Job> jobs{
        [](SweepContext &) { throw 42; }};
    auto statuses = runner.runAll(jobs);
    ASSERT_EQ(statuses.size(), 1u);
    EXPECT_EQ(statuses[0].code(), StatusCode::internal);
}

TEST(SweepRunner, EmptyBatchReturnsEmpty)
{
    SweepRunner runner(SweepOptions{2});
    EXPECT_TRUE(runner.runAll({}).empty());
}

TEST(SweepRunner, MorePoolReuseThanThreads)
{
    SweepRunner runner(SweepOptions{2});
    for (int batch = 0; batch < 4; ++batch) {
        std::vector<std::function<int(SweepContext &)>> jobs;
        for (int i = 0; i < 7; ++i)
            jobs.push_back([batch](SweepContext &ctx) {
                return batch * 100 + static_cast<int>(ctx.index());
            });
        auto out = runner.map<int>(jobs);
        for (int i = 0; i < 7; ++i)
            EXPECT_EQ(out[i].value, batch * 100 + i);
    }
}

TEST(SweepRunner, ContextRngStartsFresh)
{
    // Every job's RNG starts at its own seed, however many jobs ran
    // on the same worker before it.
    SweepRunner runner(SweepOptions{2});
    std::vector<std::function<bool(SweepContext &)>> jobs;
    for (int i = 0; i < 6; ++i) {
        jobs.push_back([](SweepContext &ctx) {
            Rng fresh(ctx.seed());
            const bool same = ctx.rng().next() == fresh.next();
            ctx.rng().next();
            return same;
        });
    }
    for (const auto &o : runner.map<bool>(jobs))
        EXPECT_TRUE(o.value);
}

TEST(SweepThreadCount, ExplicitWinsOverEnvironment)
{
    ::setenv("SNPU_JOBS", "3", 1);
    EXPECT_EQ(sweepThreadCount(7), 7u);
    EXPECT_EQ(sweepThreadCount(0), 3u);
    ::unsetenv("SNPU_JOBS");
    EXPECT_GE(sweepThreadCount(0), 1u);
}

TEST(SweepThreadCount, MalformedEnvironmentIgnored)
{
    ::setenv("SNPU_JOBS", "banana", 1);
    EXPECT_GE(sweepThreadCount(0), 1u);
    ::setenv("SNPU_JOBS", "-2", 1);
    EXPECT_GE(sweepThreadCount(0), 1u);
    ::unsetenv("SNPU_JOBS");
}

} // namespace
} // namespace snpu
