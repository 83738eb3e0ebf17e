#include "report.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

namespace perfbench
{

namespace
{

double
sum(const std::vector<double> &v)
{
    return std::accumulate(v.begin(), v.end(), 0.0);
}

} // namespace

std::vector<double>
jobTimesMs(const RunData &d)
{
    std::vector<double> out;
    for (const std::string &id : d.pass_ids) {
        const auto it = d.job_ms_by_id.find(id);
        if (it != d.job_ms_by_id.end())
            out.push_back(median(it->second));
    }
    return out;
}

double
passWorkMs(const RunData &d)
{
    return sum(jobTimesMs(d)) / std::max(1u, d.threads);
}

MetricList
endToEndMetrics(const RunData &d)
{
    const double pass_cpu_s = passWorkMs(d) / 1000.0;
    const double passes = static_cast<double>(d.pass_ms.size());
    const std::vector<double> jobs = jobTimesMs(d);
    return {
        {"pass_cpu_s", {pass_cpu_s, "s"}},
        {"setup_s", {d.setup_s, "s"}},
        {"job_p50_ms", {median(jobs), "ms"}},
        {"job_tail_ms", {tailPercentile(jobs).value, "ms"}},
        {"sim_minstr_per_s",
         {ratio(counter(d.counters, "npu.instructions") / 1e6,
                passes * pass_cpu_s),
          "Minstr/s"}},
        {"peak_rss_mb", {d.peak_rss_mb, "MB"}},
    };
}

MetricList
perLayerMetrics(const RunData &d)
{
    const Counters &c = d.counters;
    const double n = static_cast<double>(std::max<std::size_t>(
        1, d.pass_ms.size()));
    const auto per = [&](const std::string &k) { return counter(c, k) / n; };
    const auto mean = [&](const std::string &k) {
        return ratio(counter(c, k + ".sum"), counter(c, k + ".n"));
    };
    const auto &self = d.pass_self_ms;

    const double compile_ms = counter(self, "workload.compile");
    const double run_ms = std::max(0.0, counter(self, "core.run") - compile_ms);
    const double hits = counter(c, "core.tcache_hits");
    const double misses = counter(c, "core.tcache_misses");
    const double bypasses = counter(c, "core.tcache_bypasses");
    const double l2_hits = counter(c, "mem.l2_hits");
    const double l2_misses = counter(c, "mem.l2_misses");
    const double serve_ms = counter(self, "serve.serve");

    const std::string count = "count";
    const std::string cycles = "cycles";
    return {
        {"core.soc_build_ms", {counter(self, "core.soc_build") / n, "ms"}},
        {"core.soc_builds", {per("core.soc_builds"), count}},
        {"core.run_ms", {run_ms / n, "ms"}},
        {"core.run_ns_per_npu_instr",
         {ratio(run_ms * 1e6, counter(c, "npu.instructions")), "ns"}},
        {"core.tcache_hits", {hits / n, count}},
        {"core.tcache_misses", {misses / n, count}},
        {"core.tcache_bypasses", {bypasses / n, count}},
        {"core.tcache_hit_ratio",
         {ratio(hits, hits + misses + bypasses), "ratio"}},
        {"workload.compile_ms", {compile_ms / n, "ms"}},
        {"workload.compile_ms_per_layer",
         {ratio(compile_ms, counter(c, "workload.layers")), "ms"}},
        {"npu.instructions", {per("npu.instructions"), count}},
        {"npu.programs", {per("npu.programs"), count}},
        {"spad.reads", {per("spad.reads"), count}},
        {"spad.writes", {per("spad.writes"), count}},
        {"spad.denied", {per("spad.denied"), count}},
        {"spad.flush_bytes", {per("spad.flush_bytes"), "B"}},
        {"mem.l2_hits", {l2_hits / n, count}},
        {"mem.l2_misses", {l2_misses / n, count}},
        {"mem.l2_hit_ratio", {ratio(l2_hits, l2_hits + l2_misses), "ratio"}},
        {"mem.dram_reads", {per("mem.dram_reads"), count}},
        {"mem.dram_writes", {per("mem.dram_writes"), count}},
        {"mem.dram_queue_delay_mean", {mean("mem.dram_queue_delay"), cycles}},
        {"dma.requests", {per("dma.requests"), count}},
        {"dma.packets", {per("dma.packets"), count}},
        {"dma.bytes", {per("dma.bytes"), "B"}},
        {"dma.stall_mean", {mean("dma.stall"), cycles}},
        {"iommu.checks", {per("iommu.checks"), count}},
        {"iommu.walks", {per("iommu.walks"), count}},
        {"guarder.checks", {per("guarder.checks"), count}},
        {"guarder.checks_per_dma_request",
         {ratio(counter(c, "guarder.checks"),
                counter(c, "guarder.dma_requests")),
          "ratio"}},
        {"crypto.checks", {per("crypto.checks"), count}},
        {"crypto.counter_misses", {per("crypto.counter_misses"), count}},
        {"noc.transfers", {per("noc.transfers"), count}},
        {"noc.flits", {per("noc.flits"), count}},
        {"noc.auth_handshakes", {per("noc.auth_handshakes"), count}},
        {"tee.monitor_launches", {per("tee.monitor_launches"), count}},
        {"tee.attest_handshakes", {per("tee.attest_handshakes"), count}},
        {"tee.attest_cycles", {per("tee.attest_cycles"), cycles}},
        {"tee.kv_alloc_cycles", {per("tee.kv_alloc_cycles"), cycles}},
        {"serve.calibrate_ms",
         {ratio(counter(d.setup_self_ms, "serve.calibrate"),
                static_cast<double>(d.setup_reps)),
          "ms"}},
        {"serve.cold_window_ms",
         {ratio(counter(d.setup_self_ms, "serve.cold_window.incl"),
                static_cast<double>(d.cold_windows)),
          "ms"}},
        {"serve.window_ms",
         {ratio(serve_ms, counter(c, "serve.windows")), "ms"}},
        {"serve.ns_per_request",
         {ratio(serve_ms * 1e6, counter(c, "serve.requests")), "ns"}},
        {"serve.requests", {per("serve.requests"), count}},
        {"serve.completed", {per("serve.completed"), count}},
        {"serve.rejected", {per("serve.rejected"), count}},
        {"serve.failed", {per("serve.failed"), count}},
        {"serve.retries", {per("serve.retries"), count}},
        {"serve.mean_queue_cycles", {mean("serve.queue_cycles"), cycles}},
        {"serve.p99_cycles", {mean("serve.p99_cycles"), cycles}},
        {"serve.ttft_p99_cycles", {mean("serve.ttft_p99_cycles"), cycles}},
        {"serve.token_p99_cycles", {mean("serve.token_p99_cycles"), cycles}},
        {"sim.fault_probes", {per("sim.fault_probes"), count}},
        {"sim.fault_fires", {per("sim.fault_fires"), count}},
        {"sim.probes_per_spad_read",
         {ratio(counter(c, "sim.fault_probes"), counter(c, "spad.reads")),
          "ratio"}},
        {"sim.sweep_efficiency",
         {ratio(d.job_cpu_ms, sum(d.pass_ms) * d.threads), "ratio"}},
        {"fleet.run_ms",
         {ratio(counter(self, "fleet.run"), counter(c, "fleet.runs")), "ms"}},
        {"fleet.migrations", {per("fleet.migrations"), count}},
        {"fleet.re_attests", {per("fleet.re_attests"), count}},
        {"fleet.availability", {mean("fleet.availability"), "ratio"}},
        {"bench.check_ms", {counter(self, "bench.check") / n, "ms"}},
        {"trace.spans", {static_cast<double>(d.spans) / n, count}},
        {"trace.overhead_s",
         {(median(d.pass_ms) - d.untraced_pass_ms) / 1000.0, "s"}},
    };
}

std::string
resultLine(bool correct, std::size_t attempted, std::size_t failed,
           const MetricList &metrics)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const auto &[name, m] = metrics[i];
        const double v = std::isfinite(m.first) ? m.first : 0.0;
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        out += (i ? ", \"" : "\"") + name + "\": {\"value\": " + buf +
               ", \"unit\": \"" + m.second + "\"}";
    }
    out += "}}";
    return out;
}

} // namespace perfbench
