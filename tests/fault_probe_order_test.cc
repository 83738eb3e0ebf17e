/**
 * @file
 * An accumulating compute under an armed injector probes its
 * activation and accumulator rows in the per-row order (spad r,
 * acc r, spad r+1, ...) however it steps: one row at a time while an
 * injected ID mismatch could stop a read, or in multi-row steps that
 * probe their row pairs up front when none can. Two SoCs whose plans
 * differ only by a never-firing spad_id_mismatch spec (it arms the
 * site but draws nothing) run the same task, one each way, and must
 * agree on everything the faults touch.
 */

#include <gtest/gtest.h>

#include <limits>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/soc.hh"
#include "core/task_runner.hh"
#include "sim/fault_injector.hh"
#include "sim/trace.hh"
#include "workload/model_zoo.hh"

namespace snpu
{
namespace
{

/** One point: a zoo model, a protection backend and a plan seed. */
struct OrderCase
{
    ModelId model;
    std::string backend;
    std::uint64_t seed;
};

void
PrintTo(const OrderCase &c, std::ostream *os)
{
    *os << modelName(c.model) << "_" << c.backend << "_seed" << c.seed;
}

/** What one armed run leaves behind. */
struct Outcome
{
    Tick cycles = 0;
    StatusCode code = StatusCode::ok;
    std::uint64_t corruptions = 0;
    std::vector<FaultRecord> fired;
    std::uint64_t mismatch_probes = 0;
    std::string acc_bytes;
    std::string registry;
    std::string fault_trace;
};

Outcome
runArmed(const OrderCase &c, bool arm_mismatch)
{
    // The Guarder runs on the sNPU system; the crypto backend on the
    // normal NPU, as the serving sweeps configure them.
    SocParams params = makeSystem(c.backend == "guarder"
                                      ? SystemKind::snpu
                                      : SystemKind::normal_npu);
    params.protection = c.backend;
    Soc soc(params);

    FaultPlan plan;
    plan.seed = c.seed;
    FaultSpec flip;
    flip.site = FaultSite::spad_bit_flip;
    flip.trigger = FaultTrigger::probability;
    flip.probability = 2e-3;
    flip.max_fires = 0;
    plan.faults.push_back(flip);
    if (arm_mismatch) {
        FaultSpec never;
        never.site = FaultSite::spad_id_mismatch;
        never.trigger = FaultTrigger::nth;
        never.nth = std::numeric_limits<std::uint64_t>::max();
        plan.faults.push_back(never);
    }
    FaultInjector inj(plan);
    MemoryTraceSink sink(traceMask(TraceCategory::fault));
    soc.armFaults(&inj);
    soc.attachTrace(&sink);

    TaskRunner runner(soc);
    NpuTask task = NpuTask::fromModel(c.model);
    task.model = task.model.scaled(64);
    const RunResult res = runner.run(task);
    soc.attachTrace(nullptr);
    soc.armFaults(nullptr);

    Outcome out;
    out.cycles = res.cycles;
    out.code = res.code();
    out.fired = inj.fired();
    out.mismatch_probes = inj.occurrences(FaultSite::spad_id_mismatch);
    for (std::uint32_t t = 0; t < soc.npu().tiles(); ++t) {
        Scratchpad &acc = soc.npu().core(t).accumulator();
        out.corruptions += soc.npu().core(t).scratchpad().corruptions() +
                           acc.corruptions();
        const auto *rows =
            reinterpret_cast<const char *>(acc.rawRow(0));
        out.acc_bytes.append(rows, std::size_t{acc.rows()} *
                                       acc.rowBytes());
    }
    std::ostringstream os;
    soc.registry().dumpJson(os);
    out.registry = os.str();
    for (const auto &r : sink.records)
        out.fault_trace += std::to_string(r.when) + " " + r.who + ": " +
                           r.what + "\n";
    return out;
}

class FaultProbeOrder : public ::testing::TestWithParam<OrderCase>
{
};

TEST_P(FaultProbeOrder, MultiRowStepMatchesPerRowOrder)
{
    const Outcome rows = runArmed(GetParam(), true);
    const Outcome steps = runArmed(GetParam(), false);

    // The plan must have flipped bits for the comparison to mean
    // anything, and both runs probed the mismatch site equally.
    EXPECT_GT(rows.corruptions, 0u);
    EXPECT_GT(rows.mismatch_probes, 0u);
    EXPECT_EQ(rows.mismatch_probes, steps.mismatch_probes);

    EXPECT_EQ(rows.corruptions, steps.corruptions);
    ASSERT_EQ(rows.fired.size(), steps.fired.size());
    for (std::size_t i = 0; i < rows.fired.size(); ++i) {
        EXPECT_EQ(rows.fired[i].site, steps.fired[i].site) << i;
        EXPECT_EQ(rows.fired[i].tick, steps.fired[i].tick) << i;
        EXPECT_EQ(rows.fired[i].occurrence, steps.fired[i].occurrence)
            << i;
    }
    EXPECT_EQ(rows.cycles, steps.cycles);
    EXPECT_EQ(rows.code, steps.code);
    EXPECT_TRUE(rows.acc_bytes == steps.acc_bytes)
        << "accumulator contents differ";
    EXPECT_EQ(rows.registry, steps.registry);
    EXPECT_EQ(rows.fault_trace, steps.fault_trace);
}

std::vector<OrderCase>
allOrderCases()
{
    std::vector<OrderCase> out;
    for (ModelId model : {ModelId::googlenet, ModelId::mobilenet,
                          ModelId::resnet, ModelId::yololite}) {
        for (const char *backend : {"guarder", "crypto"}) {
            for (std::uint64_t seed : {1, 2})
                out.push_back({model, backend, seed});
        }
    }
    return out;
}

INSTANTIATE_TEST_SUITE_P(ModelsBackends, FaultProbeOrder,
                         ::testing::ValuesIn(allOrderCases()));

} // namespace
} // namespace snpu
