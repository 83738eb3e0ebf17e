#include "mem/mem_crypto.hh"

#include "sim/logging.hh"

namespace snpu
{

CounterModeEngine::CounterModeEngine(CounterModeParams params,
                                     stats::Scalar *hits,
                                     stats::Scalar *misses,
                                     stats::Scalar *blocks)
    : p(params), cache(params.counter_cache_entries), hit_stat(hits),
      miss_stat(misses), block_stat(blocks)
{
    if (params.counter_cache_entries == 0)
        fatal("counter cache needs at least one entry");
}

bool
CounterModeEngine::lookup(Addr page)
{
    CounterEntry *victim = &cache[0];
    for (auto &entry : cache) {
        if (entry.valid && entry.page == page) {
            entry.lru = ++clock;
            return true;
        }
        if (!entry.valid) {
            victim = &entry;
        } else if (victim->valid && entry.lru < victim->lru) {
            victim = &entry;
        }
    }
    victim->valid = true;
    victim->page = page;
    victim->lru = ++clock;
    return false;
}

Tick
CounterModeEngine::charge(Addr paddr, std::uint64_t bytes)
{
    if (bytes == 0)
        return 0;
    if (block_stat)
        *block_stat += static_cast<double>((bytes + 63) / 64);

    Tick stall = p.aes_latency;
    const Addr last_page = (paddr + bytes - 1) / page_bytes;
    for (Addr page = paddr / page_bytes; page <= last_page; ++page) {
        if (lookup(page)) {
            ++n_hits;
            if (hit_stat)
                ++*hit_stat;
        } else {
            ++n_misses;
            if (miss_stat)
                ++*miss_stat;
            stall += p.counter_miss_penalty;
        }
    }
    return stall;
}

} // namespace snpu
