/**
 * @file
 * Two tenants running concurrently on two tiles of one SoC under
 * NCoreScheduler, including the check that Fig 15's halved-bandwidth
 * approximation bounds true shared-memory contention from above.
 */

#include <gtest/gtest.h>

#include "core/systems.hh"
#include "core/task_runner.hh"
#include "serve/core_scheduler.hh"

namespace snpu
{
namespace
{

NpuTask
smallTask(ModelId id, World world)
{
    NpuTask task = NpuTask::fromModel(id, world);
    task.model = task.model.scaled(8);
    return task;
}

/** Completion ticks of a concurrent pair. */
struct PairResult
{
    NSchedResult sched;
    Tick completion_a = 0;
    Tick completion_b = 0;
};

/**
 * Run @p a on tile 0 and @p b on tile 1 at once, one request each.
 * Under `partition` each compiles against half the scratchpad (8192
 * rows); under `id_based` against all of it.
 */
PairResult
runPair(Soc &soc, const NpuTask &a, const NpuTask &b,
        SchedPolicy policy = SchedPolicy::partition)
{
    ExecStream sa;
    sa.task = a;
    sa.arrivals = {0};
    sa.pinned_core = 0;
    ExecStream sb;
    sb.task = b;
    sb.arrivals = {0};
    sb.pinned_core = 1;
    NCoreScheduler sched(soc, policy, 2);
    PairResult res;
    res.sched = sched.run({sa, sb});
    if (res.sched.ok()) {
        res.completion_a = res.sched.streams.at(0).completion;
        res.completion_b = res.sched.streams.at(1).completion;
    }
    return res;
}

/** One task alone on a fresh SoC at @p rows scratchpad rows. */
Tick
solo(ModelId id, std::uint32_t rows, double dram_gbps = 16.0)
{
    SystemOverrides o;
    o.dram_gbps = dram_gbps;
    auto soc = buildSoc(SystemKind::snpu, o);
    TaskRunner runner(*soc);
    RunOptions opts;
    opts.spad_rows_override = rows;
    RunResult res = runner.run(smallTask(id, World::normal), opts);
    EXPECT_TRUE(res.ok()) << res.error();
    return res.cycles;
}

TEST(Concurrent, BothTenantsComplete)
{
    auto soc = buildSoc(SystemKind::snpu);
    PairResult res =
        runPair(*soc, smallTask(ModelId::yololite, World::secure),
                smallTask(ModelId::mobilenet, World::normal));
    ASSERT_TRUE(res.sched.ok()) << res.sched.error();
    EXPECT_GT(res.completion_a, 0u);
    EXPECT_GT(res.completion_b, 0u);
    EXPECT_EQ(res.sched.makespan,
              std::max(res.completion_a, res.completion_b));
}

TEST(Concurrent, ContentionSlowsBothVersusSolo)
{
    const Tick solo_a = solo(ModelId::googlenet, 8192);
    const Tick solo_b = solo(ModelId::resnet, 8192);

    auto soc = buildSoc(SystemKind::snpu);
    PairResult res =
        runPair(*soc, smallTask(ModelId::googlenet, World::normal),
                smallTask(ModelId::resnet, World::normal));
    ASSERT_TRUE(res.sched.ok()) << res.sched.error();

    // Shared DRAM and L2: both finish later than alone.
    EXPECT_GT(res.completion_a, solo_a);
    EXPECT_GT(res.completion_b, solo_b);
}

TEST(Concurrent, ContentionBracketsTheHalvedBandwidthModel)
{
    // Fig 15 approximates two-tenant contention by halving each
    // task's DRAM bandwidth. Two tenants interleaved on the shared
    // memory model contend only while their DMA bursts overlap, so
    // the halved-bandwidth model is the pessimistic side:
    //   solo(full bw)  <  contended  <=  halved-bw model.
    const std::uint32_t rows = 8192;
    const Tick full_bw = solo(ModelId::resnet, rows, 16.0);
    const Tick half_bw = solo(ModelId::resnet, rows, 8.0);

    auto soc = buildSoc(SystemKind::snpu);
    PairResult res =
        runPair(*soc, smallTask(ModelId::resnet, World::normal),
                smallTask(ModelId::resnet, World::normal));
    ASSERT_TRUE(res.sched.ok()) << res.sched.error();
    const Tick contended = std::max(res.completion_a, res.completion_b);

    EXPECT_GT(full_bw, 0u);
    EXPECT_GT(half_bw, full_bw);
    EXPECT_GT(contended, full_bw);
    EXPECT_LE(contended, half_bw);
}

TEST(Concurrent, CrossWorldTenantsTriggerNoViolations)
{
    auto soc = buildSoc(SystemKind::snpu);
    PairResult res =
        runPair(*soc, smallTask(ModelId::bert, World::secure),
                smallTask(ModelId::yololite, World::normal),
                SchedPolicy::id_based);
    ASSERT_TRUE(res.sched.ok()) << res.sched.error();
    EXPECT_EQ(soc->mem().partitionViolations(), 0u);
    EXPECT_EQ(soc->protection(0).denyCount(), 0u);
    EXPECT_EQ(soc->protection(1).denyCount(), 0u);
}

} // namespace
} // namespace snpu
