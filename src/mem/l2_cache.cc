#include "mem/l2_cache.hh"

namespace snpu
{

namespace
{
std::uint32_t
powerOfTwoMask(std::uint32_t count)
{
    return (count & (count - 1)) == 0 ? count - 1 : 0;
}
} // namespace

L2Cache::L2Cache(stats::Group &stats, DramModel &dram, L2Params params,
                 CounterModeEngine *crypto)
    : params(params), dram(dram), crypto(crypto),
      num_sets(0), set_mask(0), bank_mask(0),
      hit_count(stats, "l2_hits", "L2 line hits"),
      miss_count(stats, "l2_misses", "L2 line misses"),
      writebacks(stats, "l2_writebacks", "dirty lines written back")
{
    const std::uint64_t num_lines = params.size_bytes / line_bytes;
    if (num_lines == 0 || params.ways == 0 || params.banks == 0 ||
        num_lines % params.ways != 0)
        fatal("invalid L2 geometry");
    num_sets = static_cast<std::uint32_t>(num_lines / params.ways);
    set_mask = powerOfTwoMask(num_sets);
    bank_mask = powerOfTwoMask(params.banks);
    tags.assign(num_lines, 0);
    lru.assign(num_lines, 0);
    dirty.assign(num_lines, 0);
    bank_free.assign(params.banks, 0);
}

} // namespace snpu
