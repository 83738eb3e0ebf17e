/**
 * @file
 * The benchmark's workloads. Each one is a set-up step (calibration,
 * cache warm-up) plus a pass: a fixed list of jobs, each a call into
 * the snpu library's public API that returns its simulated result
 * and its per-layer counts. A job's inputs come from the run's seed
 * through a small catalog of input variants, so every job has a
 * committed golden digest.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "harness.hh"

namespace perfbench
{

/** Where a job records spans: its own span and job number. */
struct JobTrace
{
    SpanRecorder &rec;
    std::int64_t parent = -1;
    std::uint64_t job = 0;
};

/** Outcome of one job. */
struct JobResult
{
    std::string id;
    bool ok = true;
    std::string error;
    /** Simulated cycles (makespan) and the digest of the stats. */
    std::uint64_t cycles = 0;
    std::uint64_t digest = 0;
    /** Host CPU ms (threadCpuMs) of the simulated work, checks
     *  excluded. */
    double host_ms = 0.0;
    /** Host CPU ms of the benchmark's own checks on the result. */
    double check_ms = 0.0;
    /** CPU ms of a referenceKernelMs run on the job's thread right
     *  after the job. */
    double ref_ms = 0.0;
    Counters counters;

    void fail(const std::string &why)
    {
        if (ok)
            error = why;
        ok = false;
    }
};

struct Job
{
    std::string id;
    std::function<JobResult(JobTrace &)> run;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /**
     * One repetition of set-up. A run calls it several times
     * and reports the median; each call clears the timing cache
     * first so every repetition warms it again. Returns an empty
     * string on success, else what failed.
     */
    virtual std::string setup(SpanRecorder &rec) = 0;

    /** The jobs of one pass for this run's seed. */
    virtual std::vector<Job> passJobs() const = 0;

    /** Every job of every input variant (golden recording). */
    virtual std::vector<Job> catalog() const = 0;

    /** Host threads a pass runs on. */
    virtual unsigned threads() const { return 1; }

    /**
     * Cross-job checks on one pass's results, in job order: gates
     * the repo's own benches enforce and in-run equalities. Marks
     * the offending jobs failed.
     */
    virtual void check(std::vector<JobResult> &) const {}
};

/** Build workload @p name for @p seed; nullptr for unknown names. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed);

/**
 * Run @p jobs on @p threads host threads (a SweepRunner when more
 * than one) and return their results in job order. Each job gets a
 * "job" span under @p parent; job numbers start at @p first_job.
 */
std::vector<JobResult> runJobs(const std::vector<Job> &jobs,
                               unsigned threads, SpanRecorder &rec,
                               std::int64_t parent,
                               std::uint64_t first_job);

/** Deterministic 64-bit mix (splitmix64 finalizer). */
std::uint64_t mix64(std::uint64_t x);

/** Shuffle @p jobs by a stream derived from @p seed. */
void shuffleJobs(std::vector<Job> &jobs, std::uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
