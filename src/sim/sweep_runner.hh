/**
 * @file
 * Host-side parallel experiment runner.
 *
 * Benches sweep large independent grids (policy x load, model x
 * IOTLB size, scratchpad split ...). Every point builds its own SoC
 * and runs to completion, so points can fan out across host cores —
 * the same trick gem5 campaigns and FireSim use to turn a slow
 * simulator into a fast experiment machine.
 *
 * Determinism contract: a job receives a SweepContext owning a
 * private Rng whose seed is derived from the job's submission index
 * only (never from the worker thread), and results are collected in
 * submission order. Jobs must not share mutable state; under that
 * contract the output is bit-identical for any thread count,
 * including 1.
 *
 * A single simulation remains single-threaded by contract — the
 * parallelism here is strictly *between* independent simulations,
 * never within one.
 */

#ifndef SNPU_SIM_SWEEP_RUNNER_HH
#define SNPU_SIM_SWEEP_RUNNER_HH

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/random.hh"
#include "sim/status.hh"

namespace snpu
{

/**
 * Per-job simulation context, owned by the runner. The RNG is freshly
 * seeded for every job, so a job behaves identically whether it runs
 * first or last on its worker.
 */
class SweepContext
{
  public:
    SweepContext(std::size_t index, std::uint64_t seed)
        : _index(index), _seed(seed), _rng(seed)
    {
    }

    /** Submission index of this job (stable across thread counts). */
    std::size_t index() const { return _index; }

    /** Per-job seed, derived from the base seed and index only. */
    std::uint64_t seed() const { return _seed; }

    /** Private RNG, seeded deterministically per job. */
    Rng &rng() { return _rng; }

  private:
    std::size_t _index;
    std::uint64_t _seed;
    Rng _rng;
};

/** Runner configuration. */
struct SweepOptions
{
    /**
     * Worker threads. 0 resolves via the SNPU_JOBS environment
     * variable, falling back to std::thread::hardware_concurrency().
     */
    unsigned threads = 0;
    /** Base seed mixed with each job's index for its private Rng. */
    std::uint64_t seed = 0x5eed5eedULL;
};

/**
 * Resolve a thread-count request: @p requested if nonzero, else
 * SNPU_JOBS if set and positive, else hardware concurrency (min 1).
 */
unsigned sweepThreadCount(unsigned requested = 0);

/** Status plus the job's value; value is meaningful when ok(). */
template <typename R>
struct SweepOutcome
{
    Status status;
    R value{};

    bool ok() const { return status.isOk(); }
};

/**
 * Fixed-size thread pool fanning independent simulation jobs across
 * host cores. Threads start in the constructor and join in the
 * destructor; runAll()/map() may be called repeatedly. Calls must
 * not be nested (a job must not submit to its own runner).
 */
class SweepRunner
{
  public:
    /** A job: runs a simulation against its private context. */
    using Job = std::function<void(SweepContext &)>;

    explicit SweepRunner(SweepOptions opts = {});
    ~SweepRunner();

    SweepRunner(const SweepRunner &) = delete;
    SweepRunner &operator=(const SweepRunner &) = delete;

    /** Worker threads actually running. */
    unsigned threads() const
    {
        return static_cast<unsigned>(workers.size());
    }

    /**
     * Run every job; blocks until all complete. The returned vector
     * parallels @p jobs. A job that throws reports a failed Status
     * (StatusCode::internal carrying the exception message) without
     * affecting other jobs or the pool.
     */
    std::vector<Status> runAll(const std::vector<Job> &jobs);

    /**
     * Typed convenience: run jobs returning R, collect the values in
     * submission order. A throwing job yields a failed SweepOutcome
     * with a default-constructed value.
     */
    template <typename R>
    std::vector<SweepOutcome<R>>
    map(const std::vector<std::function<R(SweepContext &)>> &jobs)
    {
        std::vector<SweepOutcome<R>> out(jobs.size());
        std::vector<Job> wrapped;
        wrapped.reserve(jobs.size());
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            wrapped.push_back([&jobs, &out, i](SweepContext &ctx) {
                out[i].value = jobs[i](ctx);
            });
        }
        std::vector<Status> statuses = runAll(wrapped);
        for (std::size_t i = 0; i < statuses.size(); ++i)
            out[i].status = std::move(statuses[i]);
        return out;
    }

  private:
    struct Batch
    {
        const std::vector<Job> *jobs = nullptr;
        std::vector<Status> *statuses = nullptr;
        std::size_t next = 0;      //!< next unclaimed job index
        std::size_t remaining = 0; //!< jobs not yet completed
    };

    void workerLoop();
    Status runOne(const Job &job, std::size_t index) const;

    std::uint64_t base_seed;
    std::vector<std::thread> workers;

    std::mutex mtx;
    std::condition_variable work_cv;
    std::condition_variable done_cv;
    Batch *batch = nullptr; //!< guarded by mtx
    bool stopping = false;  //!< guarded by mtx
};

} // namespace snpu

#endif // SNPU_SIM_SWEEP_RUNNER_HH
