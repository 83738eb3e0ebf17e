/**
 * @file
 * Sparse functional backing store for simulated physical memory.
 * Timing is handled elsewhere (DramModel / L2Cache); this class only
 * holds bytes, so attacks and correctness tests can observe real data.
 */

#ifndef SNPU_MEM_PHYS_MEM_HH
#define SNPU_MEM_PHYS_MEM_HH

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/types.hh"

namespace snpu
{

/**
 * Byte-addressable sparse memory. Pages materialize zero-filled on
 * first touch; reads of untouched memory return zeros.
 *
 * A one-entry page cache short-circuits the hash lookup: DMA streams
 * are overwhelmingly sequential, so consecutive accesses land on the
 * same 4 KiB page. The cache makes even const reads non-reentrant
 * across host threads — consistent with the simulator-wide rule that
 * one simulation instance is driven by one host thread.
 */
class PhysMem
{
  public:
    static constexpr std::size_t page_size = 4096;

    PhysMem() = default;
    // A copy would carry cached_page into the source's page map.
    PhysMem(const PhysMem &) = delete;
    PhysMem &operator=(const PhysMem &) = delete;

    void write(Addr addr, const void *src, std::size_t n);
    void read(Addr addr, void *dst, std::size_t n) const;

    void write8(Addr addr, std::uint8_t v) { write(addr, &v, 1); }
    std::uint8_t read8(Addr addr) const;

    void write32(Addr addr, std::uint32_t v) { write(addr, &v, 4); }
    std::uint32_t read32(Addr addr) const;

    void write64(Addr addr, std::uint64_t v) { write(addr, &v, 8); }
    std::uint64_t read64(Addr addr) const;

    /** Fill [addr, addr+n) with @p value. */
    void fill(Addr addr, std::size_t n, std::uint8_t value);

    /** Number of pages materialized so far. */
    std::size_t touchedPages() const { return pages.size(); }

  private:
    using Page = std::array<std::uint8_t, page_size>;

    Page &pageFor(Addr addr);
    const Page *pageIfPresent(Addr addr) const;

    std::unordered_map<std::uint64_t, Page> pages;

    // Last-page cache. Values in unordered_map are reference-stable
    // (no erase anywhere in this class), so the pointer never dangles.
    static constexpr std::uint64_t no_page = ~std::uint64_t{0};
    mutable std::uint64_t cached_key = no_page;
    mutable Page *cached_page = nullptr;
};

} // namespace snpu

#endif // SNPU_MEM_PHYS_MEM_HH
