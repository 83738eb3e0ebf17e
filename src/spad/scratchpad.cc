#include "spad/scratchpad.hh"

#include <algorithm>
#include <cstring>

#include "sim/hashing.hh"
#include "sim/logging.hh"

namespace snpu
{

Scratchpad::Scratchpad(stats::Group &stats, SpadParams params)
    : params(params),
      data(static_cast<std::size_t>(params.rows) * params.row_bytes, 0),
      id_state(params.rows, 0),
      reads(stats, "spad_reads", "scratchpad row reads"),
      writes(stats, "spad_writes", "scratchpad row writes"),
      denied(stats, "spad_denied", "scratchpad accesses denied"),
      id_flips(stats, "spad_id_flips", "wordline ID state transitions"),
      corrupted(stats, "spad_corruptions",
                "bits flipped by injected wordline faults")
{
    if (params.rows == 0 || params.row_bytes == 0)
        fatal("scratchpad needs nonzero geometry");
    if (params.partition_boundary > params.rows)
        fatal("partition boundary beyond scratchpad");
    if (params.domains < 2 || params.domains > 256 ||
        (params.domains & (params.domains - 1)) != 0) {
        fatal("domain count must be a power of two in [2, 256]");
    }
}

void
Scratchpad::attachTrace(TraceSink *sink, const std::string &who)
{
    if (sink) {
        trace_name = who;
        tracer.attach(sink);
    } else {
        tracer.detach();
    }
}

void
Scratchpad::flipBit(std::uint32_t row)
{
    // Flip the low bit of the row's first byte in place: the
    // corruption persists and is silent to the reader.
    data[static_cast<std::size_t>(row) * params.row_bytes] ^= 1;
    ++corrupted;
    tracer.emit(0, TraceCategory::fault, trace_name,
                "injected bit flip in row ", row);
}

void
Scratchpad::probeFlips(Scratchpad *const *pads, const std::uint32_t *firsts,
                       std::uint32_t lanes, std::uint32_t n)
{
    FaultInjector &inj = *pads[0]->faults;
    const std::uint64_t probes = std::uint64_t{lanes} * n;
    inj.probeUntilFire(FaultSite::spad_id_mismatch, probes, 0);
    for (std::uint64_t i = 0;; ++i) {
        i += inj.probeUntilFire(FaultSite::spad_bit_flip, probes - i, 0);
        if (i == probes)
            break;
        pads[i % lanes]->flipBit(
            firsts[i % lanes] + static_cast<std::uint32_t>(i / lanes));
    }
}

std::uint32_t
Scratchpad::probeReads(std::uint32_t first, std::uint32_t count)
{
    if (!faults->armed(FaultSite::spad_id_mismatch)) {
        Scratchpad *self = this;
        probeFlips(&self, &first, 1, count);
        return count;
    }
    // A mismatch stops the read, so each row's two probes go in turn.
    for (std::uint32_t i = 0; i < count; ++i) {
        if (faults->shouldInject(FaultSite::spad_id_mismatch, 0)) {
            // The wordline's ID bit misreads, so the comparator
            // denies the access regardless of the real owner.
            tracer.emit(0, TraceCategory::fault, trace_name,
                        "injected ID mismatch: read of row ", first + i,
                        " denied");
            return i;
        }
        if (faults->shouldInject(FaultSite::spad_bit_flip, 0))
            flipBit(first + i);
    }
    return count;
}

void
Scratchpad::probeReadPairs(Scratchpad &a, std::uint32_t a_first,
                           Scratchpad &c, std::uint32_t c_first,
                           std::uint32_t n)
{
    Scratchpad *const pads[] = {&a, &c};
    const std::uint32_t firsts[] = {a_first, c_first};
    probeFlips(pads, firsts, 2, n);
}

void
Scratchpad::deny(SpadOp op, Domain who, std::uint32_t row)
{
    const char *verb = op == SpadOp::read ? "read of " : "write of ";
    ++denied;
    if (who.id >= params.domains) {
        tracer.emit(0, TraceCategory::spad, trace_name, verb, "row ",
                    row, " denied: no domain ", unsigned(who.id));
    } else if (params.mode == IsolationMode::partition) {
        tracer.emit(0, TraceCategory::spad, trace_name, verb, "row ",
                    row, " denied: partition boundary");
    } else if (params.scope == SpadScope::local) {
        tracer.emit(0, TraceCategory::spad, trace_name, verb, "row ",
                    row, " denied: wordline ID mismatch");
    } else if (params.domains == 2) {
        tracer.emit(0, TraceCategory::spad, trace_name, verb,
                    "secure row ", row, " denied to normal world");
    } else {
        tracer.emit(0, TraceCategory::spad, trace_name, verb, "row ",
                    row, " of domain ", unsigned(id_state[row]),
                    " denied to domain ", unsigned(who.id));
    }
}

SpadAccess
Scratchpad::read(Domain reader, std::uint32_t first, std::uint32_t count,
                 std::uint8_t *dst, bool probed)
{
    const std::uint32_t in_bounds = inBounds(first, count);
    std::uint32_t stop = admits(reader, first, count, SpadOp::read);

    // An armed injector probes every row the read reaches, the
    // refused stop row included, in row order; an injected ID
    // mismatch becomes the new stop row.
    bool injected = false;
    if (faults && !probed && in_bounds > 0) {
        const std::uint32_t reached = std::min(stop, in_bounds - 1) + 1;
        const std::uint32_t mismatch = probeReads(first, reached);
        if (mismatch < reached) {
            stop = mismatch;
            injected = true;
        }
    }

    // The admitted rows, in bulk.
    reads += stop;
    if (params.mode == IsolationMode::id_based &&
        params.scope == SpadScope::global && reader != World::normal) {
        // Global rule: a secure read claims each line it reads.
        for (std::uint32_t row = first; row < first + stop; ++row) {
            if (id_state[row] != reader.id) {
                id_state[row] = reader.id;
                ++id_flips;
                idsChanged();
                recordWrites(row, 1);
            }
        }
    }
    if (dst && stop > 0) {
        std::memcpy(dst,
                    data.data() +
                        static_cast<std::size_t>(first) * params.row_bytes,
                    static_cast<std::size_t>(stop) * params.row_bytes);
    }

    // The stop row's own effects.
    if (stop == count)
        return {SpadStatus::ok, count};
    if (stop == in_bounds && !injected)
        return {SpadStatus::bad_index, stop};
    ++reads;
    if (injected)
        ++denied;
    else
        deny(SpadOp::read, reader, first + stop);
    return {SpadStatus::security_violation, stop};
}

SpadAccess
Scratchpad::write(Domain writer, std::uint32_t first, std::uint32_t count,
                  const std::uint8_t *src)
{
    const std::uint32_t in_bounds = inBounds(first, count);
    const std::uint32_t stop = admits(writer, first, count, SpadOp::write);

    // The admitted rows, in bulk.
    writes += stop;
    if (params.mode == IsolationMode::id_based && stop > 0) {
        // Every admitted row ends up holding the writer's ID: the
        // local forced write flips it, and under the global rule a
        // writer reaches only its own lines and untagged ones, which
        // a secure writer claims.
        std::uint8_t *ids = id_state.data() + first;
        std::uint32_t flips = 0;
        for (std::uint32_t i = 0; i < stop; ++i) {
            flips += ids[i] != writer.id;
            ids[i] = writer.id;
        }
        id_flips += flips;
        if (flips > 0)
            idsChanged();
    }
    recordWrites(first, stop);
    if (src && stop > 0) {
        std::memcpy(data.data() +
                        static_cast<std::size_t>(first) * params.row_bytes,
                    src, static_cast<std::size_t>(stop) * params.row_bytes);
    }

    // The stop row's own effects.
    if (stop == count)
        return {SpadStatus::ok, count};
    if (stop == in_bounds)
        return {SpadStatus::bad_index, stop};
    ++writes;
    deny(SpadOp::write, writer, first + stop);
    return {SpadStatus::security_violation, stop};
}

bool
Scratchpad::secureReset(std::uint32_t first, std::uint32_t count,
                        bool from_secure)
{
    if (!from_secure) {
        ++denied;
        tracer.emit(0, TraceCategory::spad, trace_name,
                    "secure reset denied: not issued from secure "
                    "context");
        return false;
    }
    if (first + count > params.rows || first + count < first)
        return false;
    tracer.emit(0, TraceCategory::spad, trace_name,
                "secure reset: scrubbed rows [", first, ", ",
                first + count, ")");
    std::uint8_t *ids = id_state.data() + first;
    const std::uint32_t flips = static_cast<std::uint32_t>(
        count - std::count(ids, ids + count, 0));
    id_flips += flips;
    if (flips > 0)
        idsChanged();
    std::fill(ids, ids + count, 0);
    recordWrites(first, count);
    // Resetting also scrubs the payload: the secret must not survive
    // the ownership change.
    std::memset(data.data() +
                    static_cast<std::size_t>(first) * params.row_bytes,
                0, static_cast<std::size_t>(count) * params.row_bytes);
    return true;
}

bool
Scratchpad::resetDomain(Domain d, bool from_secure)
{
    if (!from_secure) {
        ++denied;
        tracer.emit(0, TraceCategory::spad, trace_name,
                    "domain reset denied: not issued from secure "
                    "context");
        return false;
    }
    if (d == World::normal || d.id >= params.domains)
        return false;
    tracer.emit(0, TraceCategory::spad, trace_name,
                "domain reset: scrubbed the rows of domain ",
                unsigned(d.id));
    for (std::uint32_t row = 0; row < params.rows; ++row) {
        if (id_state[row] != d.id)
            continue;
        id_state[row] = 0;
        ++id_flips;
        idsChanged();
        recordWrites(row, 1);
        std::memset(rawRow(row), 0, params.row_bytes);
    }
    return true;
}

void
Scratchpad::setMode(IsolationMode mode, std::uint32_t partition_boundary)
{
    if (partition_boundary > params.rows)
        fatal("partition boundary beyond scratchpad");
    params.mode = mode;
    params.partition_boundary = partition_boundary;
}

Domain
Scratchpad::idState(std::uint32_t row) const
{
    if (row >= params.rows)
        panic("idState: row out of range");
    return Domain(id_state[row]);
}

std::uint32_t
Scratchpad::usableRows(World w) const
{
    if (params.mode != IsolationMode::partition)
        return params.rows;
    return w == World::secure ? params.partition_boundary
                              : params.rows - params.partition_boundary;
}

std::uint8_t *
Scratchpad::rawRow(std::uint32_t row)
{
    if (row >= params.rows)
        panic("rawRow: row out of range");
    return data.data() + static_cast<std::size_t>(row) * params.row_bytes;
}

const std::uint8_t *
Scratchpad::rawRow(std::uint32_t row) const
{
    if (row >= params.rows)
        panic("rawRow: row out of range");
    return data.data() + static_cast<std::size_t>(row) * params.row_bytes;
}

void
Scratchpad::rawSetIds(std::uint32_t first, std::uint32_t count, Domain d)
{
    if (inBounds(first, count) != count)
        panic("rawSetIds: rows out of range");
    std::uint8_t *ids = id_state.data() + first;
    if (spad_detail::firstNot(ids, count, d) != count) {
        std::fill(ids, ids + count, d.id);
        idsChanged();
    }
    recordWrites(first, count);
}

std::uint64_t
Scratchpad::idFingerprint(std::uint64_t seed) const
{
    if (!id_fp_valid || id_fp_seed != seed) {
        id_fp = hashBytesFast(id_state.data(), id_state.size(), seed);
        id_fp_seed = seed;
        id_fp_valid = true;
    }
    return id_fp;
}

void
Scratchpad::beginWriteRecord()
{
    if (write_mark.size() != params.rows)
        write_mark.assign(params.rows, 0);
    recording = true;
    written_rows.clear();
}

void
Scratchpad::endWriteRecord(std::vector<WrittenRange> &out)
{
    recording = false;
    std::sort(written_rows.begin(), written_rows.end());
    for (std::size_t i = 0; i < written_rows.size();) {
        const std::uint32_t row = written_rows[i];
        const std::uint8_t d = id_state[row];
        std::uint32_t count = 1;
        while (i + count < written_rows.size() &&
               written_rows[i + count] == row + count &&
               id_state[row + count] == d) {
            ++count;
        }
        out.push_back(WrittenRange{row, count, Domain(d)});
        i += count;
    }
    for (const std::uint32_t row : written_rows)
        write_mark[row] = 0;
    written_rows.clear();
}

} // namespace snpu
