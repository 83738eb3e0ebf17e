/**
 * @file
 * Turns what one run measured into the named metrics it prints:
 * the end-to-end metrics of an untraced run and the per-layer
 * metrics of a traced one.
 */

#ifndef PERFBENCH_REPORT_HH
#define PERFBENCH_REPORT_HH

#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "harness.hh"

namespace perfbench
{

/** Everything a run measured. */
struct RunData
{
    /** Host ms of each measured pass (traced passes in a traced run). */
    std::vector<double> pass_ms;
    /** Normalised CPU ms (normalizedMs) of the simulated work of
     *  each measured job, by job id, and the ids one pass runs. */
    std::map<std::string, std::vector<double>> job_ms_by_id;
    std::vector<std::string> pass_ids;
    /** Every reference-kernel run after a measured job (CPU ms). */
    std::vector<double> ref_ms;
    /** Host CPU ms of every measured job, summed, not normalised. */
    double job_cpu_ms = 0.0;
    double setup_s = 0.0;
    double peak_rss_mb = 0.0;
    unsigned threads = 1;
    /** Simulated counts summed over the measured passes. */
    Counters counters;

    /** Traced run: self ms by span name over the traced passes. */
    std::map<std::string, double> pass_self_ms;
    /** Traced run: self ms by span name over all set-up repetitions. */
    std::map<std::string, double> setup_self_ms;
    std::size_t setup_reps = 0;
    std::size_t cold_windows = 0;
    std::size_t spans = 0;
    /** Traced run: host ms of the untraced reference pass. */
    double untraced_pass_ms = 0.0;
};

using Metric = std::pair<double, std::string>; //!< value, unit
using MetricList = std::vector<std::pair<std::string, Metric>>;

/**
 * Normalised CPU ms of each job of one pass, each taken as the median over
 * the runs of the same job (same id, same inputs) in this run, so a
 * short burst of host noise does not set a percentile. One entry per
 * job of a pass, however many passes the run made: the sample count,
 * and so the tail percentile, does not depend on the host's speed.
 */
std::vector<double> jobTimesMs(const RunData &d);

/**
 * Normalised CPU ms of one pass: the sum of jobTimesMs, divided by the
 * worker count. Per-job medians keep a burst of host noise from
 * moving the figure.
 */
double passWorkMs(const RunData &d);

/** pass_cpu_s, setup_s, job_p50_ms, job_tail_ms, sim_minstr_per_s,
 *  peak_rss_mb. */
MetricList endToEndMetrics(const RunData &d);

/** Per-layer metrics, per pass unless the name says otherwise. */
MetricList perLayerMetrics(const RunData &d);

/** The run's last output line: correct/attempted/failed/metrics. */
std::string resultLine(bool correct, std::size_t attempted,
                       std::size_t failed, const MetricList &metrics);

} // namespace perfbench

#endif // PERFBENCH_REPORT_HH
