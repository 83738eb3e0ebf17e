/**
 * @file
 * perfbench — the repository's end-to-end benchmark program.
 *
 *   perfbench --workload NAME --seed N [--seconds S] [--trace 0|1]
 *             [--spans FILE]
 *   perfbench --record-goldens FILE
 *
 * A run sets its workload up seven times (reporting the median as
 * setup_s), then runs passes of the workload's jobs back to back
 * while the next pass is expected to end within S seconds (the seed
 * orders the jobs of every pass after the first), checking every
 * job's simulated result against the committed golden digest. The last stdout line
 * is one JSON object: {"correct", "attempted", "failed", "metrics"}.
 * Untraced runs report the end-to-end metrics; traced runs (one
 * untraced reference pass, then traced passes) report the per-layer
 * metrics and the tracing overhead. Bad arguments exit 2.
 */

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "core/timing_cache.hh"
#include "harness.hh"
#include "report.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

constexpr int setup_reps = 7;
const char *const golden_path = "perfbench/goldens.tsv";

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS ""
#endif

bool
optimizedBuild()
{
#ifdef __OPTIMIZE__
    return true;
#else
    return false;
#endif
}

bool
sanitizedBuild()
{
    return std::string(PERFBENCH_CXX_FLAGS).find("-fsanitize") !=
           std::string::npos;
}

/** Digest of every file under src/, in path order. */
std::string
sourceDigest()
{
    namespace fs = std::filesystem;
    std::error_code ec;
    if (!fs::is_directory("src", ec))
        return "unknown";
    std::vector<fs::path> files;
    for (const auto &e : fs::recursive_directory_iterator("src", ec))
        if (e.is_regular_file())
            files.push_back(e.path());
    std::sort(files.begin(), files.end());
    std::uint64_t h = digestText("");
    for (const fs::path &p : files) {
        std::ifstream is(p, std::ios::binary);
        std::ostringstream body;
        body << is.rdbuf();
        h = digestText(p.generic_string() + "\n" + body.str(), h);
    }
    return hex64(h);
}

std::string
envLine(const Options &opt, const std::vector<double> &pass_ms,
        const std::vector<double> &ref_ms,
        std::size_t attempted, std::size_t failed, const Tail &tail,
        double overhead_s)
{
    const char *commit = std::getenv("PERFBENCH_COMMIT");
    std::ostringstream os;
    os << "{\"env\": {\"commit\": \"" << (commit ? commit : "unknown")
       << "\", \"source_digest\": \"" << sourceDigest()
       << "\", \"nproc\": " << std::thread::hardware_concurrency()
       << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
       << "\", \"compiler\": \"" << __VERSION__
       << "\", \"optimized\": " << (optimizedBuild() ? "true" : "false")
       << ", \"sanitized\": " << (sanitizedBuild() ? "true" : "false")
       << "}, \"workload\": \"" << opt.workload
       << "\", \"seed\": " << opt.seed << ", \"seconds\": " << opt.seconds
       << ", \"trace\": " << (opt.trace ? 1 : 0)
       << ", \"ref_kernel_ms\": " << median(ref_ms)
       << ", \"pass_s\": [";
    for (std::size_t i = 0; i < pass_ms.size(); ++i)
        os << (i ? ", " : "") << pass_ms[i] / 1000.0;
    os << "], \"jobs\": " << attempted
       << ", \"failed_frac\": "
       << (attempted ? static_cast<double>(failed) / attempted : 0.0)
       << ", \"job_tail_percentile\": " << tail.percentile
       << ", \"job_tail_samples\": " << tail.count
       << ", \"job_tail_beyond\": " << tail.beyond;
    if (opt.trace)
        os << ", \"trace_overhead_s\": " << overhead_s;
    os << "}";
    return os.str();
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** Compare a result with its golden; marks mismatches failed. */
void
checkGolden(JobResult &r, const std::map<std::string, Golden> &goldens)
{
    const auto it = goldens.find(r.id);
    if (it == goldens.end())
        r.fail("no committed golden");
    else if (it->second.cycles != r.cycles ||
             it->second.digest != hex64(r.digest))
        r.fail("simulated result differs from golden (cycles " +
               std::to_string(r.cycles) + " vs " +
               std::to_string(it->second.cycles) + ")");
}

int
recordGoldens(const std::string &path)
{
    SpanRecorder off(false);
    std::map<std::string, Golden> goldens;
    for (const std::string &name : workloadNames()) {
        auto wl = makeWorkload(name, 0);
        const std::string err = wl->setup(off);
        if (!err.empty()) {
            std::fprintf(stderr, "perfbench: %s set-up: %s\n", name.c_str(),
                         err.c_str());
            return 1;
        }
        // Twice: the second run replays warm caches, and must agree.
        const std::vector<Job> jobs = wl->catalog();
        std::vector<JobResult> first =
            runJobs(jobs, wl->threads(), off, -1, 0);
        wl->check(first);
        const std::vector<JobResult> second =
            runJobs(jobs, wl->threads(), off, -1, 0);
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            const JobResult &r = first[i];
            if (!r.ok || !second[i].ok || r.digest != second[i].digest) {
                std::fprintf(stderr, "perfbench: %s: %s\n", r.id.c_str(),
                             r.ok ? "differs between cold and warm runs"
                                  : r.error.c_str());
                return 1;
            }
            goldens[r.id] = Golden{r.cycles, hex64(r.digest)};
        }
        std::fprintf(stderr, "perfbench: recorded %zu %s jobs\n",
                     jobs.size(), name.c_str());
    }
    if (!writeGoldens(path, goldens)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
        return 1;
    }
    return 0;
}

/** Sum span self time by name over spans [from, to). */
void
addSelf(const std::vector<Span> &spans, const std::vector<double> &self,
        std::size_t from, std::size_t to, std::map<std::string, double> &out)
{
    for (std::size_t i = from; i < to && i < spans.size(); ++i)
        out[spans[i].name] += self[i];
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    std::string err;
    if (!parseArgs(std::vector<std::string>(argv + 1, argv + argc), opt,
                   err)) {
        std::fprintf(stderr, "perfbench: %s\n", err.c_str());
        return 2;
    }
    if (!snpu::TimingCache::enabled()) {
        std::fprintf(stderr,
                     "perfbench: refusing to run with SNPU_TIMING_CACHE=0 "
                     "(it measures a different program)\n");
        return 2;
    }
    if (!optimizedBuild() || sanitizedBuild())
        std::fprintf(stderr, "perfbench: WARNING: %s build; timings are "
                             "not comparable\n",
                     sanitizedBuild() ? "sanitizer" : "unoptimised");
    if (!opt.record_goldens.empty())
        return recordGoldens(opt.record_goldens);

    std::map<std::string, Golden> goldens;
    if (!loadGoldens(golden_path, goldens, err)) {
        std::fprintf(stderr, "perfbench: %s\n", err.c_str());
        return 1;
    }
    auto wl = makeWorkload(opt.workload, opt.seed);
    SpanRecorder rec(opt.trace);
    SpanRecorder off(false);
    RunData d;
    d.threads = wl->threads();

    // Set-up, several times; the median counts. Times are this
    // thread's CPU time: process start-up (loading, static
    // initialisation), argument parsing and the goldens so far, plus
    // the median repetition, normalised by the median of reference
    // runs made after each repetition.
    std::string setup_err;
    std::vector<double> reps;
    std::vector<double> setup_refs;
    const double pre_ms = threadCpuMs();
    for (int i = 0; i < setup_reps; ++i) {
        const double a = threadCpuMs();
        const std::string e = wl->setup(rec);
        reps.push_back(threadCpuMs() - a);
        setup_refs.push_back(referenceKernelMs());
        if (!e.empty())
            setup_err = e;
    }
    d.setup_s =
        normalizedMs(pre_ms + median(reps), median(setup_refs)) / 1000.0;
    d.setup_reps = setup_reps;
    const std::size_t setup_spans = rec.size();

    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::size_t reported = 0;
    std::uint64_t job_no = 1;
    const auto accountPass = [&](std::vector<JobResult> &results) {
        wl->check(results);
        for (JobResult &r : results) {
            checkGolden(r, goldens);
            ++attempted;
            if (!r.ok) {
                ++failed;
                if (reported++ < 10)
                    std::fprintf(stderr, "perfbench: job %s failed: %s\n",
                                 r.id.c_str(), r.error.c_str());
            }
        }
    };

    // One pass: run the jobs, check them, and return the pass's wall
    // time less the benchmark's own result checks (which workers run
    // alongside other jobs' work).
    std::uint64_t pass_no = 0;
    double last_wall_ms = 0.0;
    const auto runPass = [&](SpanRecorder &r) {
        // The first pass keeps catalog order, so the heap it leaves
        // (and peak_rss_mb) does not depend on the seed.
        std::vector<Job> jobs = wl->passJobs();
        if (pass_no++ > 0)
            shuffleJobs(jobs, mix64(opt.seed ^ mix64(pass_no)));
        const auto a = Clock::now();
        std::vector<JobResult> results;
        {
            ScopedSpan pass(r, "pass", -1, 0);
            results = runJobs(jobs, wl->threads(), r, pass.id(), job_no);
        }
        last_wall_ms = elapsedMs(a, Clock::now());
        job_no += jobs.size();
        double check_ms = 0.0;
        for (const JobResult &res : results)
            check_ms += res.check_ms;
        accountPass(results);
        return std::make_pair(last_wall_ms - check_ms / wl->threads(),
                              std::move(results));
    };

    const auto t_timed = Clock::now();
    const double budget_ms = 1000.0 * opt.seconds;
    if (opt.trace) // untraced reference pass for the tracing overhead
        d.untraced_pass_ms = runPass(off).first;
    snpu::TimingCache &tc = snpu::TimingCache::global();
    // Passes run back to back while the next one is expected to end
    // within the budget; there is always at least one.
    do {
        const std::uint64_t h0 = tc.hits(), m0 = tc.misses(),
                            b0 = tc.bypasses();
        auto [pass_ms, results] = runPass(rec);
        d.pass_ms.push_back(pass_ms);
        d.counters["core.tcache_hits"] += static_cast<double>(tc.hits() - h0);
        d.counters["core.tcache_misses"] +=
            static_cast<double>(tc.misses() - m0);
        d.counters["core.tcache_bypasses"] +=
            static_cast<double>(tc.bypasses() - b0);
        d.pass_ids.clear();
        for (const JobResult &r : results) {
            d.job_ms_by_id[r.id].push_back(normalizedMs(r.host_ms, r.ref_ms));
            d.ref_ms.push_back(r.ref_ms);
            d.job_cpu_ms += r.host_ms;
            d.pass_ids.push_back(r.id);
            addCounters(d.counters, r.counters);
        }
        // Every job has run once; later passes repeat them in seed
        // order, which moves the peak by how they fragment the heap.
        if (d.pass_ms.size() == 1)
            d.peak_rss_mb = peakRssMb();
    } while (elapsedMs(t_timed, Clock::now()) + last_wall_ms <= budget_ms);

    if (opt.trace) {
        const std::vector<Span> spans = rec.snapshot();
        const std::vector<double> self = selfTimes(spans);
        addSelf(spans, self, 0, setup_spans, d.setup_self_ms);
        for (std::size_t i = 0; i < setup_spans; ++i) {
            if (spans[i].name == "serve.cold_window") {
                d.setup_self_ms["serve.cold_window.incl"] +=
                    spans[i].end_ms - spans[i].start_ms;
                ++d.cold_windows;
            }
        }
        addSelf(spans, self, setup_spans, spans.size(), d.pass_self_ms);
        d.spans = spans.size() - setup_spans;
        if (!opt.spans_path.empty() && !rec.writeJson(opt.spans_path))
            std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                         opt.spans_path.c_str());
    }

    if (!setup_err.empty())
        std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                     setup_err.c_str());
    const bool correct = failed == 0 && setup_err.empty();
    const MetricList metrics =
        opt.trace ? perLayerMetrics(d) : endToEndMetrics(d);
    std::cout << envLine(opt, d.pass_ms, d.ref_ms, attempted, failed,
                         tailPercentile(jobTimesMs(d)),
                         (median(d.pass_ms) - d.untraced_pass_ms) / 1000.0)
              << "\n"
              << resultLine(correct, attempted, failed, metrics)
              << std::endl;
    return 0;
}
