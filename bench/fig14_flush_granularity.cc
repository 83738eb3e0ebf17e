/**
 * @file
 * Fig 14 — Normalized performance of ML workloads under different
 * scratchpad flushing granularities (the TrustZone-NPU temporal-
 * sharing strawman): tile, layer, and five layers. Flushing saves
 * and restores the live context, not just zeroing, so tile-granular
 * flushing costs ~25%.
 */

#include <cstdio>
#include <functional>
#include <iterator>
#include <vector>

#include "bench_util.hh"
#include "core/systems.hh"
#include "json_writer.hh"
#include "sim/sweep_runner.hh"

using namespace snpu;
using namespace snpu::bench;

int
main(int argc, char **argv)
{
    std::string json_path;
    unsigned jobs = 0;
    ArgSpec("fig14_flush_granularity")
        .json(&json_path)
        .jobs(&jobs)
        .parse(argc, argv);

    banner("Figure 14",
           "Normalized execution time under flushing granularities");

    SystemOverrides overrides;
    overrides.model_scale = 2;

    // Every (model, granularity) point builds its own SoC, so the
    // grid fans out across host cores; results come back in
    // submission order, so the table prints identically for any
    // thread count.
    const FlushGranularity flushes[] = {
        FlushGranularity::none, FlushGranularity::layer5,
        FlushGranularity::layer, FlushGranularity::tile};
    const auto models = allModels();
    std::vector<std::function<RunResult(SweepContext &)>> grid;
    for (ModelId id : models) {
        for (FlushGranularity flush : flushes) {
            grid.push_back([id, flush, &overrides](SweepContext &) {
                return measureModel(SystemKind::trustzone_npu, id,
                                    overrides, flush);
            });
        }
    }
    SweepRunner runner(SweepOptions{jobs});
    const auto measured = runner.map<RunResult>(grid);

    Table table({"workload", "no flush", "5-layer", "layer", "tile",
                 "tile slowdown"});
    double worst = 0;
    for (std::size_t m = 0; m < models.size(); ++m) {
        const ModelId id = models[m];
        const auto *point = &measured[m * std::size(flushes)];
        for (std::size_t f = 0; f < std::size(flushes); ++f) {
            if (!point[f].ok() || !point[f].value.ok()) {
                std::printf("ERROR %s\n", modelName(id));
                return 1;
            }
        }
        const RunResult &none = point[0].value;
        auto norm = [&](std::size_t f) {
            return static_cast<double>(point[f].value.cycles) /
                   static_cast<double>(none.cycles);
        };
        table.row({modelName(id), "1.00", num(norm(1)), num(norm(2)),
                   num(norm(3)), num((norm(3) - 1.0) * 100.0, 1) + "%"});
        worst = std::max(worst, (norm(3) - 1.0) * 100.0);
    }
    table.print();
    std::printf("worst tile-granularity slowdown: %.1f%%  (paper: "
                "about 25%%)\n",
                worst);

    JsonReport report("fig14_flush_granularity");
    report.table("flush_granularity", table);
    report.metric("worst_tile_slowdown_pct", worst);
    return report.write(json_path) ? 0 : 1;
}
