#include "mem/l2_cache.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace snpu
{

L2Cache::L2Cache(stats::Group &stats, DramModel &dram, L2Params params,
                 CounterModeEngine *crypto)
    : params(params), dram(dram), crypto(crypto),
      num_sets(0),
      hit_count(stats, "l2_hits", "L2 line hits"),
      miss_count(stats, "l2_misses", "L2 line misses"),
      writebacks(stats, "l2_writebacks", "dirty lines written back")
{
    const std::uint64_t num_lines = params.size_bytes / line_bytes;
    if (num_lines == 0 || params.ways == 0 || num_lines % params.ways != 0)
        fatal("invalid L2 geometry");
    num_sets = static_cast<std::uint32_t>(num_lines / params.ways);
    lines.resize(num_lines);
    bank_free.assign(params.banks, 0);
}

std::uint32_t
L2Cache::bankOf(Addr line_addr) const
{
    return static_cast<std::uint32_t>(
        (line_addr / line_bytes) % params.banks);
}

Tick
L2Cache::accessLine(Tick when, Addr line_addr, MemOp op, World world)
{
    const Addr tag = line_addr / line_bytes;
    const std::uint32_t set = static_cast<std::uint32_t>(tag % num_sets);
    Line *set_base = &lines[static_cast<std::size_t>(set) * params.ways];

    // Bank arbitration: the access cannot start before the bank frees.
    const std::uint32_t bank = bankOf(line_addr);
    const Tick start = std::max(when, bank_free[bank]);
    bank_free[bank] = start + params.bank_cycle;

    // Lookup.
    Line *victim = set_base;
    for (std::uint32_t w = 0; w < params.ways; ++w) {
        Line &line = set_base[w];
        if (live(line) && line.tag == tag) {
            ++hit_count;
            line.lru = ++lru_clock;
            if (op == MemOp::write)
                line.dirty = true;
            line.world = world;
            return start + params.hit_latency;
        }
        if (!live(line)) {
            victim = &line;
        } else if (live(*victim) && line.lru < victim->lru) {
            victim = &line;
        }
    }

    // Miss: evict (write back if dirty), then fill from DRAM.
    ++miss_count;
    Tick ready = start + params.hit_latency;
    if (live(*victim) && victim->dirty) {
        ++writebacks;
        Tick wb = dram.access(ready, line_bytes, MemOp::write);
        if (crypto)
            wb += crypto->charge(victim->tag * line_bytes, line_bytes);
        (void)wb; // write-back is off the critical path
    }
    ready = dram.access(ready, line_bytes, MemOp::read);
    if (crypto)
        ready += crypto->charge(line_addr, line_bytes);

    victim->valid = true;
    victim->dirty = (op == MemOp::write);
    victim->tag = tag;
    victim->lru = ++lru_clock;
    victim->epoch = epoch;
    victim->world = world;
    return ready;
}

MemResult
L2Cache::access(Tick when, const MemRequest &req)
{
    if (req.bytes == 0)
        panic("zero-byte L2 access");

    const std::uint64_t hits_before =
        static_cast<std::uint64_t>(hit_count.value());

    Addr first = req.paddr / line_bytes * line_bytes;
    Addr last = (req.paddr + req.bytes - 1) / line_bytes * line_bytes;
    Tick done = when;
    for (Addr line_addr = first; line_addr <= last;
         line_addr += line_bytes) {
        done = std::max(done,
                        accessLine(when, line_addr, req.op, req.world));
    }

    MemResult result;
    result.done = done;
    result.ok = true;
    result.l2_hit =
        static_cast<std::uint64_t>(miss_count.value()) == 0 ||
        static_cast<std::uint64_t>(hit_count.value()) > hits_before;
    return result;
}

void
L2Cache::invalidateAll()
{
    ++epoch;
    std::fill(bank_free.begin(), bank_free.end(), 0);
}

} // namespace snpu
