/**
 * @file
 * Fully-associative IOTLB with true-LRU replacement. Entry counts of
 * 4/8/16/32 are swept in Fig 13; the ping-pong behaviour between the
 * NPU's concurrent input/weight/output streams is what makes small
 * IOTLBs expensive.
 */

#ifndef SNPU_IOMMU_IOTLB_HH
#define SNPU_IOMMU_IOTLB_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace snpu
{

/** A cached translation (its VPN lives in the packed tag array). */
struct IotlbEntry
{
    Addr ppn = 0;
    bool writable = false;
    bool secure = false;
    std::uint64_t lru = 0;
};

/** The IOTLB proper. */
class Iotlb
{
  public:
    explicit Iotlb(std::uint32_t entries);

    /** @return the entry for @p vpn or nullptr on miss. */
    const IotlbEntry *
    lookup(Addr vpn)
    {
        for (std::size_t i = 0; i < tags.size(); ++i) {
            if (tags[i] == vpn) {
                entries[i].lru = ++clock;
                ++hit_count;
                return &entries[i];
            }
        }
        ++miss_count;
        return nullptr;
    }

    /** Install (or refresh) a translation. */
    void insert(Addr vpn, Addr ppn, bool writable, bool secure);

    /** Invalidate everything (context switch / world switch). */
    void flushAll();

    /** Invalidate one translation if present. */
    void flushPage(Addr vpn);

    std::uint32_t capacity() const
    {
        return static_cast<std::uint32_t>(entries.size());
    }
    std::uint64_t hits() const { return hit_count; }
    std::uint64_t misses() const { return miss_count; }
    std::uint64_t evictions() const { return evict_count; }

  private:
    /** Never a VPN: page numbers are at most 52 bits wide. */
    static constexpr Addr invalid_tag = ~Addr(0);

    /** Per-entry VPN, or invalid_tag when the entry is invalid. */
    std::vector<Addr> tags;
    std::vector<IotlbEntry> entries;
    std::uint64_t clock = 0;
    std::uint64_t hit_count = 0;
    std::uint64_t miss_count = 0;
    std::uint64_t evict_count = 0;
};

} // namespace snpu

#endif // SNPU_IOMMU_IOTLB_HH
