/**
 * @file
 * Tests for the multi-core pipeline runner (Fig 16 / Fig 17
 * relationships): direct NoC beats the shared-memory software NoC,
 * and the peephole costs (almost) nothing over the unauthorized NoC.
 */

#include <gtest/gtest.h>

#include "core/systems.hh"
#include "core/task_runner.hh"

namespace snpu
{
namespace
{

NpuTask
smallTask(ModelId id = ModelId::resnet)
{
    NpuTask task = NpuTask::fromModel(id);
    task.model = task.model.scaled(8);
    return task;
}

TEST(Pipeline, RunsOnFourCores)
{
    auto soc = buildSoc(SystemKind::snpu);
    TaskRunner runner(*soc);
    PipelineResult res = runner.runPipeline(smallTask(), {0, 1, 2, 3},
                                            NocMode::peephole);
    ASSERT_TRUE(res.ok()) << res.error();
    EXPECT_GT(res.cycles, 0u);
    EXPECT_GT(res.transfers, 0u);
    EXPECT_GT(res.noc_bytes, 0u);
}

TEST(Pipeline, DirectNocFasterThanSoftwareNoc)
{
    auto soc1 = buildSoc(SystemKind::snpu);
    PipelineResult direct = TaskRunner(*soc1).runPipeline(
        smallTask(), {0, 1, 2, 3}, NocMode::peephole);
    ASSERT_TRUE(direct.ok()) << direct.error();

    auto soc2 = buildSoc(SystemKind::snpu);
    PipelineResult software = TaskRunner(*soc2).runPipeline(
        smallTask(), {0, 1, 2, 3}, NocMode::software);
    ASSERT_TRUE(software.ok()) << software.error();

    EXPECT_LT(direct.cycles, software.cycles);
}

TEST(Pipeline, PeepholeCostsAlmostNothingOverUnauthorized)
{
    auto soc1 = buildSoc(SystemKind::snpu);
    PipelineResult peephole = TaskRunner(*soc1).runPipeline(
        smallTask(), {0, 1, 2, 3}, NocMode::peephole);
    ASSERT_TRUE(peephole.ok()) << peephole.error();

    auto soc2 = buildSoc(SystemKind::snpu);
    PipelineResult unauth = TaskRunner(*soc2).runPipeline(
        smallTask(), {0, 1, 2, 3}, NocMode::unauthorized);
    ASSERT_TRUE(unauth.ok()) << unauth.error();

    // Within 0.1%: the handshake happens once per channel.
    EXPECT_LE(peephole.cycles, unauth.cycles * 1001 / 1000);
    EXPECT_GE(peephole.cycles, unauth.cycles);
}

TEST(Pipeline, WorksWithTwoCores)
{
    auto soc = buildSoc(SystemKind::snpu);
    PipelineResult res = TaskRunner(*soc).runPipeline(
        smallTask(ModelId::yololite), {0, 1}, NocMode::peephole);
    EXPECT_TRUE(res.ok()) << res.error();
}

TEST(Pipeline, EmptyCoreListRejected)
{
    auto soc = buildSoc(SystemKind::snpu);
    PipelineResult res =
        TaskRunner(*soc).runPipeline(smallTask(), {}, NocMode::peephole);
    EXPECT_FALSE(res.ok());
}

TEST(Pipeline, CoreBeyondTilesRejected)
{
    auto soc = buildSoc(SystemKind::snpu);
    const std::uint32_t tiles = soc->params().tiles;
    PipelineResult res = TaskRunner(*soc).runPipeline(
        smallTask(), {0, tiles}, NocMode::peephole);
    EXPECT_FALSE(res.ok());
    EXPECT_EQ(res.status.code(), StatusCode::invalid_argument);
}

TEST(Pipeline, SecureTaskPipelinesUnderPeephole)
{
    auto soc = buildSoc(SystemKind::snpu);
    NpuTask task = smallTask();
    task.world = World::secure;
    PipelineResult res = TaskRunner(*soc).runPipeline(
        task, {0, 1, 2, 3}, NocMode::peephole);
    EXPECT_TRUE(res.ok()) << res.error();
}

} // namespace
} // namespace snpu
