#include "spad/flush_engine.hh"

#include <algorithm>
#include <cstring>

#include "sim/logging.hh"

namespace snpu
{

const char *
flushGranularityName(FlushGranularity g)
{
    switch (g) {
      case FlushGranularity::none:
        return "none";
      case FlushGranularity::tile:
        return "tile";
      case FlushGranularity::layer:
        return "layer";
      case FlushGranularity::layer5:
        return "layer5";
    }
    return "?";
}

FlushEngine::FlushEngine(stats::Group &stats, MemSystem &mem,
                         Scratchpad &spad)
    : mem(mem), spad(spad),
      flush_count(stats, "flush_count", "scratchpad context saves"),
      restore_count(stats, "restore_count", "scratchpad context restores"),
      bytes_moved(stats, "flush_bytes", "bytes moved by flush traffic")
{
}

Tick
FlushEngine::stream(Tick when, std::uint32_t rows, Addr area, MemOp op,
                    World world)
{
    // One row issues per cycle. The rows are contiguous in the
    // scratchpad and in the save area, so the traffic is one memory
    // stream and the context bytes move in one copy.
    const std::uint32_t row_bytes = spad.rowBytes();
    const std::size_t bytes = static_cast<std::size_t>(rows) * row_bytes;
    const MemStreamResult ms =
        mem.stream(when, area, bytes, row_bytes, 1, op, world);
    if (!ms.ok)
        fatal("flush engine denied by the world partition");

    if (bytes > 0) {
        if (op == MemOp::write)
            mem.data().write(area, spad.rawRow(0), bytes);
        else
            mem.data().read(area, spad.rawRow(0), bytes);
    }
    bytes_moved += static_cast<double>(bytes);
    return ms.done;
}

Tick
FlushEngine::flush(Tick when, std::uint32_t live_rows, Addr save_area,
                   World world)
{
    live_rows = std::min(live_rows, spad.rows());
    ++flush_count;
    Tick done = stream(when, live_rows, save_area, MemOp::write, world);
    // Scrub the saved rows so nothing leaks to the next task.
    if (live_rows > 0) {
        std::memset(spad.rawRow(0), 0,
                    static_cast<std::size_t>(live_rows) * spad.rowBytes());
    }
    spad.rawSetIds(0, live_rows, World::normal);
    return done;
}

Tick
FlushEngine::restore(Tick when, std::uint32_t live_rows, Addr save_area,
                     World world)
{
    live_rows = std::min(live_rows, spad.rows());
    ++restore_count;
    return stream(when, live_rows, save_area, MemOp::read, world);
}

void
FlushEngine::restoreFunctional(std::uint32_t live_rows, Addr save_area,
                               World world)
{
    live_rows = std::min(live_rows, spad.rows());
    ++restore_count;
    if (live_rows > 0) {
        mem.data().read(save_area, spad.rawRow(0),
                        static_cast<std::size_t>(live_rows) *
                            spad.rowBytes());
    }
    spad.rawSetIds(0, live_rows, world);
}

} // namespace snpu
