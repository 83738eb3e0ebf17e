/**
 * @file
 * Fig 17 — NoC application test: end-to-end multi-core (4-tile
 * pipeline) performance of the DNN workloads with the software NoC
 * versus the peephole NoC, normalized to the unauthorized NoC.
 */

#include <cstdio>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "core/systems.hh"
#include "core/task_runner.hh"
#include "json_writer.hh"
#include "sim/sweep_runner.hh"

using namespace snpu;
using namespace snpu::bench;

namespace
{

PipelineResult
runPipeline(ModelId id, NocMode mode, std::uint32_t scale)
{
    auto soc = buildSoc(SystemKind::snpu);
    TaskRunner runner(*soc);
    NpuTask task = NpuTask::fromModel(id);
    task.model = task.model.scaled(scale);
    // Layer-per-core mapping: every layer boundary crosses the NoC
    // (the paper's mapping of network levels onto cores).
    return runner.runPipeline(
        task, {0, 1, 2, 3}, mode,
        static_cast<std::uint32_t>(task.model.layers.size()));
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path;
    unsigned jobs = 0;
    ArgSpec("fig17_noc_app")
        .json(&json_path)
        .jobs(&jobs)
        .parse(argc, argv);

    banner("Figure 17", "Multi-core (4-tile pipeline) performance "
                        "by NoC method, normalized to unauthorized");

    // Every (model, NoC mode) pipeline builds its own SoC, so the
    // grid fans out across host cores; results come back in
    // submission order, so the table prints identically for any
    // thread count.
    const std::uint32_t scale = 1;
    const NocMode modes[] = {NocMode::unauthorized, NocMode::software,
                             NocMode::peephole};
    const auto models = allModels();
    std::vector<std::function<PipelineResult(SweepContext &)>> grid;
    for (ModelId id : models) {
        for (NocMode mode : modes) {
            grid.push_back([id, mode, scale](SweepContext &) {
                return runPipeline(id, mode, scale);
            });
        }
    }
    SweepRunner runner(SweepOptions{jobs});
    const auto measured = runner.map<PipelineResult>(grid);
    auto cycles = [&](std::size_t m, std::size_t v) {
        const auto &outcome = measured[m * std::size(modes) + v];
        if (!outcome.ok() || !outcome.value.ok()) {
            const std::string why = outcome.ok()
                                        ? outcome.value.error()
                                        : outcome.status.toString();
            std::fprintf(stderr, "pipeline failed for %s (%s): %s\n",
                         modelName(models[m]), nocModeName(modes[v]),
                         why.c_str());
            std::exit(1);
        }
        return outcome.value.cycles;
    };

    Table table({"workload", "software NoC", "peephole NoC",
                 "peephole gain over software"});
    double total_gain = 0;
    int count = 0;
    for (std::size_t m = 0; m < models.size(); ++m) {
        const Tick unauth = cycles(m, 0);
        const Tick sw = cycles(m, 1);
        const Tick peephole = cycles(m, 2);

        const double sw_norm =
            static_cast<double>(sw) / static_cast<double>(unauth);
        const double ph_norm = static_cast<double>(peephole) /
                               static_cast<double>(unauth);
        const double gain = (1.0 - static_cast<double>(peephole) /
                                       static_cast<double>(sw)) *
                            100.0;
        table.row({modelName(models[m]), num(sw_norm), num(ph_norm, 3),
                   num(gain, 1) + "%"});
        total_gain += gain;
        ++count;
    }
    table.print();
    std::printf("mean reduction in execution time vs software NoC: "
                "%.1f%%  (paper: nearly 20%%)\n",
                total_gain / count);

    JsonReport report("fig17_noc_app");
    report.table("pipeline_noc", table);
    report.metric("mean_gain_pct", total_gain / count);
    return report.write(json_path) ? 0 : 1;
}
