/**
 * @file
 * Deterministic cross-layer fault injection. The paper's security
 * story is that the Guarder / Isolator / Monitor *detect and contain*
 * violations; this framework turns "mechanism fired" from a scripted
 * attack into a schedulable, recoverable event so the serving stack's
 * degradation under faults is testable.
 *
 * Subsystems expose named fault sites (a null-checked pointer probe
 * on the hot path — zero behavioural overhead when disarmed). A
 * FaultPlan arms a set of (site, trigger, budget) specs:
 *
 *  - nth:         fire on the Nth arming occurrence of the site
 *                 (1-based), deterministic by construction;
 *  - tick_window: fire on every occurrence whose tick falls inside
 *                 [begin, end); sites without a timebase (e.g. a raw
 *                 scratchpad access) report tick 0 and never match;
 *  - probability: fire per occurrence with probability p, drawn from
 *                 an Rng seeded only by the plan seed — under the
 *                 sweep runner the plan seed derives from the job's
 *                 submission index, so a Monte Carlo fault sweep is
 *                 bit-identical at any host thread count.
 *
 * The injector is single-simulation state: one injector per SoC,
 * never shared across sweep jobs.
 */

#ifndef SNPU_SIM_FAULT_INJECTOR_HH
#define SNPU_SIM_FAULT_INJECTOR_HH

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/random.hh"
#include "sim/types.hh"

namespace snpu
{

/** Where a fault can be injected. */
enum class FaultSite : std::uint8_t
{
    /** DMA engine: the transfer errors out mid-flight. */
    dma_transfer,
    /** Guarder: a translation/permission check denies the request. */
    guarder_check,
    /** NoC: head-flit corruption drops the packet. */
    noc_head_flit,
    /** NoC: the peephole authentication handshake fails. */
    noc_peephole_auth,
    /** Scratchpad: a read sees a mismatched wordline ID. */
    spad_id_mismatch,
    /** Scratchpad: a stored row takes a bit flip (silent corruption). */
    spad_bit_flip,
    /** Monitor: code/model verification fails at dispatch. */
    monitor_verify,
    /** Monitor: trusted allocation fails at dispatch. */
    monitor_alloc,
    /** NPU: a dispatched task hangs until the watchdog fires. */
    task_hang,
    /** Any protection backend: a translate() check denies the
     *  request (the generic ProtectionBackend probe; the guarder
     *  keeps its historical guarder_check site). */
    protection_check,
    /** Fleet: the whole SoC fail-stops (heartbeats cease). Probed by
     *  the fleet controller once per heartbeat interval, so a
     *  probability trigger here is a per-heartbeat kill rate. */
    soc_crash,
    /** Fleet: the SoC wedges — heartbeats keep answering but no
     *  request progresses, so detection waits on the progress
     *  watchdog instead of the heartbeat deadline. */
    soc_hang,
    /** Fleet: the SoC is cordoned (thermal/ECC pressure): it drains
     *  its in-flight work but accepts no migrated tenants and counts
     *  against fleet capacity. */
    soc_degrade,
    /** Fleet: one tenant-migration handshake (re-attestation +
     *  context re-provisioning on the target) fails. Probed once per
     *  migration attempt by the fleet controller. */
    fleet_migration,
    /** Attestation: one quote exchange times out (the challenge or
     *  the quote is lost). Probed per handshake attempt — at a
     *  tenant's first secure dispatch by the serving engine, and per
     *  target re-attestation by the fleet controller. Retryable:
     *  unlike a measurement mismatch, a lost message says nothing
     *  about the platform's integrity. */
    attest,
};

constexpr std::size_t fault_site_count = 15;
static_assert(fault_site_count <= 32, "armed sites are a 32-bit mask");

const char *faultSiteName(FaultSite site);

/** When an armed site actually fires. */
enum class FaultTrigger : std::uint8_t
{
    nth,
    tick_window,
    probability,
};

/** One armed fault. */
struct FaultSpec
{
    FaultSite site = FaultSite::dma_transfer;
    FaultTrigger trigger = FaultTrigger::nth;
    /** nth: 1-based occurrence that fires. */
    std::uint64_t nth = 1;
    /** tick_window: fire while begin <= tick < end. */
    Tick window_begin = 0;
    Tick window_end = std::numeric_limits<Tick>::max();
    /** probability: per-occurrence chance of firing. */
    double probability = 0.0;
    /** Total fires allowed for this spec; 0 = unlimited. */
    std::uint32_t max_fires = 1;
};

/** A deterministic fault schedule for one simulation. */
struct FaultPlan
{
    std::vector<FaultSpec> faults;
    /** Seeds the probability-trigger Rng (job seed under a sweep). */
    std::uint64_t seed = 0x5eedfa17ULL;
};

/** One fault that fired (the injection log). */
struct FaultRecord
{
    FaultSite site;
    Tick tick;
    /** Arming occurrence number (1-based) at which it fired. */
    std::uint64_t occurrence;
};

/**
 * The injector. Subsystems call shouldInject(site, now) at each
 * armed site; the call counts one occurrence of the site and reports
 * whether any spec fires there. Occurrence counting and Rng draws
 * happen in simulation call order, which is deterministic, so the
 * same plan always faults the same operations.
 *
 * A site no spec names is unarmed: probing it only counts. Row-range
 * accesses probe a run of occurrences at once with probeUntilFire(),
 * which draws exactly what the same number of single probes would.
 */
class FaultInjector
{
  public:
    explicit FaultInjector(FaultPlan plan = {});

    /**
     * Probe a site at simulated time @p now. Sites with no natural
     * timebase pass 0 (tick-window triggers then never match them).
     */
    bool shouldInject(FaultSite site, Tick now)
    {
        const std::uint64_t occ = ++counts[static_cast<std::size_t>(site)];
        return armed(site) && fire(site, occ, now);
    }

    /**
     * Probe @p n occurrences of @p site at @p now in order, stopping
     * after the first that fires: the same counts, draws and log as
     * shouldInject() called until it returns true or @p n times.
     * @return the offset of the occurrence that fired, or @p n.
     */
    std::uint64_t probeUntilFire(FaultSite site, std::uint64_t n, Tick now);

    /** Whether any spec of the plan names @p site. */
    bool armed(FaultSite site) const
    {
        return (armed_sites >> static_cast<unsigned>(site)) & 1;
    }

    /** Occurrences probed so far at @p site (fired or not). */
    std::uint64_t occurrences(FaultSite site) const;

    /** Every fault that fired, in firing order. */
    const std::vector<FaultRecord> &fired() const { return log; }

    /** Total fires across all sites. */
    std::uint64_t fireCount() const { return log.size(); }

    /** Forget all occurrence counts and the log; keep the plan. */
    void reset();

    const FaultPlan &plan() const { return _plan; }

  private:
    /** Run @p site's specs, in plan order, for its occurrence
     *  @p occ; log and report a fire. */
    bool fire(FaultSite site, std::uint64_t occ, Tick now);

    FaultPlan _plan;
    Rng rng;
    std::array<std::uint64_t, fault_site_count> counts{};
    /** Indices into the plan's specs, per site, in plan order. */
    std::array<std::vector<std::uint32_t>, fault_site_count> site_specs;
    /** Rng::chanceThreshold() of each spec's probability. */
    std::vector<double> thresholds;
    /** Bit s set iff site s is armed. */
    std::uint32_t armed_sites = 0;
    std::vector<std::uint32_t> fires_per_spec;
    std::vector<FaultRecord> log;
};

} // namespace snpu

#endif // SNPU_SIM_FAULT_INJECTOR_HH
