/**
 * @file
 * Functional vs timing-only parity: moving real bytes through the
 * scratchpads, the systolic array and memory must not change any
 * simulated number. For every system, zoo model and flush
 * granularity, a functional run and a timing-only run on fresh SoCs
 * report the same cycles and a byte-identical stats registry.
 */

#include <gtest/gtest.h>

#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/soc.hh"
#include "core/task_runner.hh"
#include "workload/model_zoo.hh"

namespace snpu
{
namespace
{

/** One parity point: a system, a zoo model and a flush granularity. */
struct ParityCase
{
    SystemKind kind;
    ModelId model;
    FlushGranularity flush;
};

void
PrintTo(const ParityCase &c, std::ostream *os)
{
    *os << systemKindName(c.kind) << "_" << modelName(c.model) << "_"
        << flushGranularityName(c.flush);
}

class TimingOnlyParity : public ::testing::TestWithParam<ParityCase>
{
};

std::pair<Tick, std::string>
runOnce(SystemKind kind, ModelId model, FlushGranularity flush,
        bool timing_only)
{
    SocParams params = makeSystem(kind);
    params.timing_only = timing_only;
    Soc soc(params);
    TaskRunner runner(soc);
    NpuTask task = NpuTask::fromModel(model);
    task.model = task.model.scaled(64);
    RunOptions opts;
    opts.flush = flush;
    const RunResult res = runner.run(task, opts);
    EXPECT_TRUE(res.ok()) << res.error();
    std::ostringstream os;
    soc.registry().dumpJson(os);
    return {res.cycles, os.str()};
}

TEST_P(TimingOnlyParity, CyclesAndRegistryMatch)
{
    const ParityCase c = GetParam();
    const auto functional = runOnce(c.kind, c.model, c.flush, false);
    const auto timing = runOnce(c.kind, c.model, c.flush, true);
    EXPECT_GT(functional.first, 0u);
    EXPECT_EQ(functional.first, timing.first);
    EXPECT_EQ(functional.second, timing.second);
}

std::vector<ParityCase>
allParityCases()
{
    std::vector<ParityCase> out;
    for (SystemKind kind : {SystemKind::normal_npu,
                            SystemKind::trustzone_npu, SystemKind::snpu}) {
        for (ModelId model : allModels()) {
            for (FlushGranularity flush :
                 {FlushGranularity::none, FlushGranularity::tile,
                  FlushGranularity::layer}) {
                out.push_back({kind, model, flush});
            }
        }
    }
    return out;
}

INSTANTIATE_TEST_SUITE_P(SystemsModelsFlushes, TimingOnlyParity,
                         ::testing::ValuesIn(allParityCases()));

} // namespace
} // namespace snpu
