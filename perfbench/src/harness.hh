/**
 * @file
 * The benchmark's own machinery, independent of any workload:
 * command-line parsing, the timing arithmetic (medians, the tail
 * percentile rule, span self time), the in-memory span recorder,
 * per-layer counter sums read from a SoC's stats tree, and the
 * golden-digest file.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace snpu
{
class Soc;
} // namespace snpu

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Milliseconds from @p a to @p b. */
double elapsedMs(Clock::time_point a, Clock::time_point b);

/**
 * CPU ms the calling thread has run so far. Unlike wall time it
 * leaves out time the thread waited for a CPU: preemption by other
 * processes and, in a VM with steal accounting, time the hypervisor
 * gave the virtual CPU to another guest.
 */
double threadCpuMs();

/**
 * CPU ms of one run of the reference kernel on the calling thread: a
 * fixed event loop over standard containers (a priority queue of
 * events, hash-map lookups, std::function dispatch, small string
 * allocations), the kind of code the simulator spends its time in.
 * It is the benchmark's own code, so no change to the simulator moves
 * it; what moves it is the host. On a shared host the CPU speed such
 * code gets changes by up to 1.9x within minutes while a tight
 * arithmetic loop's does not, and this kernel's time follows the
 * simulator's (see perfbench/README.md, "Normalised CPU time").
 */
double referenceKernelMs();

/** Reference-kernel CPU ms that defines normalised time. */
constexpr double reference_nominal_ms = 1.0;

/**
 * @p cpu_ms as it would read on a host on which the reference kernel
 * takes reference_nominal_ms: cpu_ms * reference_nominal_ms / ref_ms,
 * where @p ref_ms is a reference run made on the same thread right
 * after the measured work.
 */
double normalizedMs(double cpu_ms, double ref_ms);

// ------------------------------------------------------------------
// Command line
// ------------------------------------------------------------------

/** The workloads the benchmark knows, in documentation order. */
const std::vector<std::string> &workloadNames();

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    unsigned seconds = 10;
    bool trace = false;
    /** Where a traced run writes its spans (empty: not written). */
    std::string spans_path;
    /** Record every catalog job's digest into this file and exit. */
    std::string record_goldens;
};

/**
 * Parse the arguments after argv[0]. Accepts "--flag value" and
 * "--flag=value". On failure returns false with a one-line message
 * in @p err (the caller exits 2).
 */
bool parseArgs(const std::vector<std::string> &args, Options &out,
               std::string &err);

// ------------------------------------------------------------------
// Arithmetic
// ------------------------------------------------------------------

/** Median (mean of the middle two for even sizes); 0 when empty. */
double median(std::vector<double> values);

/** A tail figure and the sample counts that back it. */
struct Tail
{
    double percentile = 0.0;
    double value = 0.0;
    /** Samples ranked strictly above the reported one. */
    std::size_t beyond = 0;
    std::size_t count = 0;
};

/**
 * The highest percentile of {99.9, 99, 95, 90, 75, 50} whose
 * nearest-rank sample has at least @p min_beyond samples ranked
 * above it. With too few samples for even the median to qualify,
 * reports the median and its (short) beyond count.
 */
Tail tailPercentile(std::vector<double> values,
                    std::size_t min_beyond = 10);

/** One timed call into a layer. Times are ms since recorder start. */
struct Span
{
    std::string name;
    double start_ms = 0.0;
    double end_ms = 0.0;
    /** Index of the enclosing span in the same list; -1 for none. */
    std::int64_t parent = -1;
    std::uint64_t job = 0;
};

/**
 * Self time of every span: its duration minus the part of its
 * interval covered by its children (overlapping children count
 * once; a child's part outside the parent does not count).
 */
std::vector<double> selfTimes(const std::vector<Span> &spans);

/**
 * Thread-safe in-memory span list. When constructed off, open()
 * returns -1 and records nothing, so untraced runs pay one branch.
 */
class SpanRecorder
{
  public:
    explicit SpanRecorder(bool on);

    bool on() const { return enabled; }
    std::int64_t open(const char *name, std::int64_t parent,
                      std::uint64_t job);
    void close(std::int64_t id);

    /** Copy of every span recorded so far. */
    std::vector<Span> snapshot() const;
    /** Number of spans recorded so far. */
    std::size_t size() const;

    /** Write the spans as one JSON array; false on I/O failure. */
    bool writeJson(const std::string &path) const;

  private:
    const bool enabled;
    const Clock::time_point t0;
    mutable std::mutex mu;
    std::vector<Span> spans; //!< guarded by mu
};

/** Opens a span on construction and closes it on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &rec, const char *name,
               std::int64_t parent, std::uint64_t job);
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::int64_t id() const { return span_id; }

  private:
    SpanRecorder &rec;
    std::int64_t span_id;
};

// ------------------------------------------------------------------
// Per-layer counters
// ------------------------------------------------------------------

/** Named simulated counts; averages carry "<name>.sum"/".n" pairs. */
using Counters = std::map<std::string, double>;

void addCounters(Counters &into, const Counters &from);

/** Value of @p name, 0 when absent. */
double counter(const Counters &c, const std::string &name);

/** @p num / @p den, or 0 when the base is 0. */
double ratio(double num, double den);

/**
 * Add every per-layer count of @p soc's stats tree: NPU
 * instructions and programs, scratchpad and accumulator row
 * operations, L2 and DRAM accesses, DMA traffic, protection checks
 * attributed to the SoC's backend, NoC transfers and the monitor.
 */
void addSocCounters(snpu::Soc &soc, Counters &into);

// ------------------------------------------------------------------
// Golden digests
// ------------------------------------------------------------------

/** 64-bit FNV-1a of @p text, continuing from @p h. */
std::uint64_t digestText(const std::string &text,
                         std::uint64_t h = 0xcbf29ce484222325ULL);

std::string hex64(std::uint64_t v);

/** The committed simulated result of one job. */
struct Golden
{
    std::uint64_t cycles = 0;
    std::string digest;
};

/**
 * Load "id<TAB>cycles<TAB>digest" lines ('#' starts a comment).
 * Returns false with @p err set when the file is missing or a line
 * is malformed.
 */
bool loadGoldens(const std::string &path,
                 std::map<std::string, Golden> &out, std::string &err);

bool writeGoldens(const std::string &path,
                  const std::map<std::string, Golden> &goldens);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
