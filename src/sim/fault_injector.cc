#include "sim/fault_injector.hh"

namespace snpu
{

const char *
faultSiteName(FaultSite site)
{
    switch (site) {
      case FaultSite::dma_transfer:
        return "dma_transfer";
      case FaultSite::guarder_check:
        return "guarder_check";
      case FaultSite::noc_head_flit:
        return "noc_head_flit";
      case FaultSite::noc_peephole_auth:
        return "noc_peephole_auth";
      case FaultSite::spad_id_mismatch:
        return "spad_id_mismatch";
      case FaultSite::spad_bit_flip:
        return "spad_bit_flip";
      case FaultSite::monitor_verify:
        return "monitor_verify";
      case FaultSite::monitor_alloc:
        return "monitor_alloc";
      case FaultSite::task_hang:
        return "task_hang";
      case FaultSite::protection_check:
        return "protection_check";
      case FaultSite::soc_crash:
        return "soc_crash";
      case FaultSite::soc_hang:
        return "soc_hang";
      case FaultSite::soc_degrade:
        return "soc_degrade";
      case FaultSite::fleet_migration:
        return "fleet_migration";
      case FaultSite::attest:
        return "attest";
    }
    return "?";
}

FaultInjector::FaultInjector(FaultPlan plan)
    : _plan(std::move(plan)), rng(_plan.seed),
      fires_per_spec(_plan.faults.size(), 0)
{
    for (std::uint32_t i = 0; i < _plan.faults.size(); ++i) {
        const FaultSpec &spec = _plan.faults[i];
        const auto s = static_cast<std::size_t>(spec.site);
        site_specs[s].push_back(i);
        armed_sites |= 1u << s;
        thresholds.push_back(Rng::chanceThreshold(spec.probability));
    }
}

std::uint64_t
FaultInjector::occurrences(FaultSite site) const
{
    return counts[static_cast<std::size_t>(site)];
}

void
FaultInjector::reset()
{
    counts.fill(0);
    fires_per_spec.assign(_plan.faults.size(), 0);
    log.clear();
    rng = Rng(_plan.seed);
}

bool
FaultInjector::fire(FaultSite site, std::uint64_t occ, Tick now)
{
    bool any = false;
    for (const std::uint32_t i : site_specs[static_cast<std::size_t>(site)]) {
        const FaultSpec &spec = _plan.faults[i];
        if (spec.max_fires != 0 &&
            fires_per_spec[i] >= spec.max_fires) {
            continue;
        }

        bool hit = false;
        switch (spec.trigger) {
          case FaultTrigger::nth:
            hit = occ == spec.nth;
            break;
          case FaultTrigger::tick_window:
            hit = now >= spec.window_begin && now < spec.window_end;
            break;
          case FaultTrigger::probability:
            // The draw happens whether or not it hits, so the random
            // stream advances identically across runs of the same
            // plan regardless of which specs fire.
            hit = rng.hits(thresholds[i]);
            break;
        }
        if (hit) {
            ++fires_per_spec[i];
            any = true;
        }
    }

    if (any)
        log.push_back(FaultRecord{site, now, occ});
    return any;
}

std::uint64_t
FaultInjector::probeUntilFire(FaultSite site, std::uint64_t n, Tick now)
{
    std::uint64_t &count = counts[static_cast<std::size_t>(site)];
    if (!armed(site)) {
        count += n;
        return n;
    }

    // The common armed case, one probability spec with fires left:
    // one draw per occurrence and nothing else. The range stops at
    // the first fire, so the budget cannot run out inside it.
    const std::vector<std::uint32_t> &specs =
        site_specs[static_cast<std::size_t>(site)];
    const std::uint32_t first = specs.front();
    const FaultSpec &spec = _plan.faults[first];
    if (specs.size() == 1 && spec.trigger == FaultTrigger::probability &&
        (spec.max_fires == 0 || fires_per_spec[first] < spec.max_fires)) {
        const double threshold = thresholds[first];
        for (std::uint64_t i = 0; i < n; ++i) {
            if (rng.hits(threshold)) {
                count += i + 1;
                ++fires_per_spec[first];
                log.push_back(FaultRecord{site, now, count});
                return i;
            }
        }
        count += n;
        return n;
    }

    for (std::uint64_t i = 0; i < n; ++i) {
        if (fire(site, ++count, now))
            return i;
    }
    return n;
}

} // namespace snpu
