/**
 * @file
 * Scratchpad flush engine: the TrustZone-NPU strawman for temporal
 * sharing (§IV-B, Fig 14). A flush is *not* just zeroing: the task's
 * scratchpad context is saved to (secure) memory and restored at the
 * next scheduling point, so each flush costs two full DMA streams of
 * the live rows plus a scrub.
 */

#ifndef SNPU_SPAD_FLUSH_ENGINE_HH
#define SNPU_SPAD_FLUSH_ENGINE_HH

#include <cstdint>

#include "mem/mem_system.hh"
#include "sim/stats.hh"
#include "spad/scratchpad.hh"

namespace snpu
{

/** Flush scheduling granularity evaluated in Fig 14. */
enum class FlushGranularity : std::uint8_t
{
    none,       //!< never flush (insecure w.r.t. temporal sharing)
    tile,       //!< flush after every op-kernel tile
    layer,      //!< flush after every network layer
    layer5,     //!< flush after every five layers
};

const char *flushGranularityName(FlushGranularity g);

/**
 * The flush engine. Timing flows through the shared memory system so
 * flush traffic competes with real DMA traffic, as on hardware.
 */
class FlushEngine
{
  public:
    FlushEngine(stats::Group &stats, MemSystem &mem, Scratchpad &spad);

    /**
     * Save @p live_rows scratchpad rows to @p save_area, scrub them,
     * and account the traffic. @return completion tick.
     */
    Tick flush(Tick when, std::uint32_t live_rows, Addr save_area,
               World world);

    /** Restore @p live_rows rows from @p save_area. */
    Tick restore(Tick when, std::uint32_t live_rows, Addr save_area,
                 World world);

    /**
     * Functional-only restore: move the bytes back without charging
     * time. Used when the resumed task demand-pages its context back
     * in, overlapping the refill with execution (the timing cost is
     * then a fixed resume penalty at the call site). The restored
     * rows go back to the running @p world's ID, so the task that
     * owns them can read them again.
     */
    void restoreFunctional(std::uint32_t live_rows, Addr save_area,
                           World world);

    std::uint64_t flushes() const
    {
        return static_cast<std::uint64_t>(flush_count.value());
    }
    std::uint64_t bytesMoved() const
    {
        return static_cast<std::uint64_t>(bytes_moved.value());
    }

  private:
    Tick stream(Tick when, std::uint32_t rows, Addr area, MemOp op,
                World world);

    MemSystem &mem;
    Scratchpad &spad;

    stats::Scalar flush_count;
    stats::Scalar restore_count;
    stats::Scalar bytes_moved;
};

} // namespace snpu

#endif // SNPU_SPAD_FLUSH_ENGINE_HH
