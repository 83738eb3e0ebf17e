/**
 * @file
 * The combined memory system: world-partition enforcement in front of
 * a shared L2 backed by the DRAM model, plus the functional byte
 * store. This is the single memory entry point every agent (DMA
 * engines, page walkers, flush engine, software NoC) goes through.
 */

#ifndef SNPU_MEM_MEM_SYSTEM_HH
#define SNPU_MEM_MEM_SYSTEM_HH

#include <algorithm>
#include <cstdint>

#include "mem/address_map.hh"
#include "mem/dram_model.hh"
#include "mem/l2_cache.hh"
#include "mem/mem_crypto.hh"
#include "mem/mem_types.hh"
#include "mem/phys_mem.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"

namespace snpu
{

/** Construction parameters for the whole memory system. */
struct MemSystemParams
{
    DramParams dram;
    L2Params l2;
    /** DRAM-side counter-mode encryption of every L2 line (the
     *  TNPU-style complement, ablation). */
    bool memory_encryption = false;
};

/**
 * Shared SoC memory system. The memory protection engine sits here:
 * an access whose issuing world may not touch the target region is
 * rejected before any timing or data side effect occurs.
 */
class MemSystem
{
  public:
    MemSystem(stats::Group &stats, AddressMap map = {},
              MemSystemParams params = {});

    /** Timed access; also counts partition violations. */
    MemResult
    access(Tick when, const MemRequest &req)
    {
        if (!check(req))
            return MemResult{when, false, false};
        return _l2.access(when, req);
    }

    /**
     * Timed contiguous stream: [paddr, paddr + bytes) moves in beats
     * of @p beat_bytes (the last may be shorter), beat k issuing at
     * first_issue + k * interval. Equivalent to one access() per
     * beat, but a range the partition allows whole is checked once.
     * A range it does not allow runs beat by beat and stops at the
     * first denied beat, so the denial, the accesses counted before
     * it and their timing match a per-beat stream exactly.
     */
    MemStreamResult
    stream(Tick first_issue, Addr paddr, std::uint64_t bytes,
           std::uint32_t beat_bytes, Tick interval, MemOp op,
           World world)
    {
        if (beat_bytes == 0)
            panic("zero-byte stream beat");
        MemStreamResult result;
        Tick issue = first_issue;
        Tick done = first_issue;
        const bool allowed = _map.accessAllowed(world, paddr, bytes);
        if (allowed)
            accesses += static_cast<double>(
                (bytes + beat_bytes - 1) / beat_bytes);
        for (std::uint64_t off = 0; off < bytes; off += beat_bytes) {
            const auto chunk = static_cast<std::uint32_t>(
                std::min<std::uint64_t>(beat_bytes, bytes - off));
            if (allowed) {
                done = std::max(
                    done, _l2.accessRange(issue, paddr + off, chunk, op));
            } else {
                const MemResult res =
                    access(issue, MemRequest{paddr + off, chunk, op,
                                             world});
                if (!res.ok) {
                    result.ok = false;
                    result.done = issue;
                    return result;
                }
                done = std::max(done, res.done);
            }
            ++result.beats;
            issue += interval;
        }
        result.done = std::max(done, issue);
        return result;
    }

    /** Functional data path (no timing, no checks). */
    PhysMem &data() { return mem; }
    const PhysMem &data() const { return mem; }

    const AddressMap &map() const { return _map; }
    DramModel &dram() { return _dram; }
    L2Cache &l2() { return _l2; }

    /**
     * Reset all hidden timing state (DRAM channel occupancy, L2
     * contents, counter cache) to the canonical drained state. The
     * layer-timing cache brackets every memoizable op with this in
     * both cache modes, so an op always starts — and, via the
     * post-op bracket, ends — from the same memory-system state
     * whether it runs live or replays. Functional bytes and stats
     * are untouched.
     */
    void canonicalizeTiming()
    {
        _dram.reset();
        _l2.invalidateAll();
        _crypto.resetTiming();
    }

    std::uint64_t partitionViolations() const
    {
        return static_cast<std::uint64_t>(violations.value());
    }

  private:
    bool
    check(const MemRequest &req)
    {
        ++accesses;
        if (!_map.accessAllowed(req.world, req.paddr, req.bytes)) {
            ++violations;
            return false;
        }
        return true;
    }

    AddressMap _map;
    PhysMem mem;
    DramModel _dram;
    stats::Scalar mee_hits;
    stats::Scalar mee_misses;
    stats::Scalar mee_blocks;
    CounterModeEngine _crypto;
    L2Cache _l2;

    stats::Scalar accesses;
    stats::Scalar violations;
};

} // namespace snpu

#endif // SNPU_MEM_MEM_SYSTEM_HH
