#include "mem/mem_system.hh"

namespace snpu
{

MemSystem::MemSystem(stats::Group &stats, AddressMap map,
                     MemSystemParams params)
    : _map(map),
      _dram(stats, params.dram),
      mee_hits(stats, "mee_counter_hits", "counter cache hits"),
      mee_misses(stats, "mee_counter_misses", "counter cache misses"),
      mee_blocks(stats, "mee_blocks", "lines through the AES engine"),
      _crypto({}, &mee_hits, &mee_misses, &mee_blocks),
      _l2(stats, _dram, params.l2,
          params.memory_encryption ? &_crypto : nullptr),
      accesses(stats, "mem_accesses", "memory system accesses"),
      violations(stats, "mem_violations",
                 "accesses rejected by the world partition")
{
}

} // namespace snpu
