/**
 * @file
 * NPU scratchpad with the sNPU Isolator's ID-based wordline isolation
 * (§IV-B). The scratchpad is index-addressed SRAM with no relation to
 * system memory; every wordline carries a security ID next to its
 * (large) data payload. The ID is a domain tag: the paper's two
 * worlds are domains 0 (normal) and 1 (secure), and §VII "Multiple
 * Secure Domains" widens the tag to log2(N) bits for N hardware
 * domains, 1..N-1 being mutually isolated secure domains.
 *
 * Access rules under IsolationMode::id_based:
 *  - local (exclusive) scratchpad: reads require the reader's ID to
 *    match the line's ID; writes are always allowed and overwrite the
 *    line's ID with the writer's (forced write);
 *  - global (shared) scratchpad: domain d may read or write only
 *    lines tagged 0 or d, and any access by a secure domain claims
 *    the untagged lines it touches. With two domains: the normal
 *    world may not touch a secure line, and a secure access sets the
 *    line's ID to secure.
 *  - a dedicated secure instruction resets lines back to domain 0,
 *    scrubbing them; a privileged reset does so for every line of
 *    one domain.
 *
 * Alternative modes model the paper's strawmen: a static partition
 * (Fig 6a / Fig 15) and no protection at all (the LeftoverLocals
 * victim, Fig 5).
 */

#ifndef SNPU_SPAD_SCRATCHPAD_HH
#define SNPU_SPAD_SCRATCHPAD_HH

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "sim/fault_injector.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"
#include "sim/types.hh"

namespace snpu
{

/** How the scratchpad enforces isolation. */
enum class IsolationMode : std::uint8_t
{
    /** No checks: the insecure baseline (LeftoverLocals applies). */
    none,
    /** Static split: secure world owns rows [0, boundary). */
    partition,
    /** sNPU: per-wordline ID bits with the rules above. */
    id_based,
};

/**
 * A wordline's domain tag. A World converts implicitly:
 * World::normal is domain 0 and World::secure domain 1.
 */
struct Domain
{
    std::uint8_t id = 0;

    constexpr Domain() = default;
    constexpr Domain(World w) : id(static_cast<std::uint8_t>(w)) {}
    constexpr explicit Domain(std::uint8_t d) : id(d) {}

    friend constexpr bool operator==(Domain, Domain) = default;
};

/** Tag bits per wordline for @p domains hardware domains. */
constexpr std::uint32_t
tagBits(std::uint32_t domains)
{
    std::uint32_t bits = 0;
    for (; domains > 1; domains >>= 1)
        ++bits;
    return bits;
}

/** Local (per-core, exclusive) vs global (shared) scratchpad. */
enum class SpadScope : std::uint8_t
{
    local,
    global,
};

/** Outcome of one scratchpad access. */
enum class SpadStatus : std::uint8_t
{
    ok,
    /** Denied by the ID rule or partition boundary. */
    security_violation,
    /** Row index out of range. */
    bad_index,
};

/** The direction of a scratchpad access. */
enum class SpadOp : std::uint8_t
{
    read,
    write,
};

/**
 * Outcome of a row-range access: ok with every row applied, or the
 * status of the first refused row (the stop row) with the number of
 * rows applied before it.
 */
struct SpadAccess
{
    SpadStatus status = SpadStatus::ok;
    /** Rows applied: the whole range when ok, else the stop row's
     *  offset from the first row. */
    std::uint32_t rows = 0;

    bool ok() const { return status == SpadStatus::ok; }
};

/** Scratchpad geometry. */
struct SpadParams
{
    std::uint32_t rows = 4096;       // 4096 x 64 B = 256 KiB (Table II)
    std::uint32_t row_bytes = 64;
    SpadScope scope = SpadScope::local;
    IsolationMode mode = IsolationMode::id_based;
    /** First row owned by the normal world under partition mode. */
    std::uint32_t partition_boundary = 0;
    /** Hardware domains the tags tell apart (a power of two in
     *  [2, 256]); two is the paper's normal/secure pair. */
    std::uint32_t domains = 2;
};

/**
 * The scratchpad. Holds real bytes so that isolation failures are
 * observable as actual data leaks (the attack library depends on
 * this), and counts denied accesses for the security stats.
 */
class Scratchpad
{
  public:
    Scratchpad(stats::Group &stats, SpadParams params = {});

    /**
     * Read rows [first, first+count) into @p dst (count * row_bytes
     * long, may be null), in row order, stopping at the first
     * refused row. The rows before the stop row take effect in bulk;
     * the stop row has exactly the effects a lone access to it has
     * (a denial counts as a read and a denial, an out-of-range row
     * as nothing). With an injector armed every row up to and
     * including the stop row is probed, in row order, unless
     * @p probed says probeReadPairs() already probed the rows. A
     * @p reader outside [0, domains) is refused at the first row.
     */
    SpadAccess read(Domain reader, std::uint32_t first,
                    std::uint32_t count, std::uint8_t *dst,
                    bool probed = false);

    /** Write rows [first, first+count) from @p src (may be null),
     *  with read()'s stop-row rule. Writes are never probed. */
    SpadAccess write(Domain writer, std::uint32_t first,
                     std::uint32_t count, const std::uint8_t *src);

    /** Read one row into @p dst (row_bytes long, may be null). */
    SpadStatus read(Domain reader, std::uint32_t row, std::uint8_t *dst)
    {
        return read(reader, row, 1, dst).status;
    }

    /** Write one row from @p src (row_bytes long, may be null). */
    SpadStatus write(Domain writer, std::uint32_t row,
                     const std::uint8_t *src)
    {
        return write(writer, row, 1, src).status;
    }

    /**
     * Leading rows of [first, first+count) that bounds and the
     * isolation rules admit for an access by @p who, ignoring
     * injected faults. This is where the §IV-B rules live; callers
     * that issue several ranges per instruction use it to find the
     * row where the first of them stops.
     */
    std::uint32_t admits(Domain who, std::uint32_t first,
                         std::uint32_t count, SpadOp op) const;

    /**
     * Secure instruction: reset rows [first, first+count) to domain
     * 0, zeroing their contents. Rejected unless issued from the
     * secure context.
     */
    bool secureReset(std::uint32_t first, std::uint32_t count,
                     bool from_secure);

    /**
     * Privileged reset: return every row of secure domain @p d to
     * domain 0, zeroing its contents. Rejected unless issued from the
     * secure context and @p d is a secure domain of this scratchpad.
     */
    bool resetDomain(Domain d, bool from_secure);

    /** Reconfigure the isolation mode (experiment setup only). */
    void setMode(IsolationMode mode, std::uint32_t partition_boundary = 0);

    Domain idState(std::uint32_t row) const;
    std::uint32_t rows() const { return params.rows; }
    std::uint32_t rowBytes() const { return params.row_bytes; }
    SpadScope scope() const { return params.scope; }
    IsolationMode mode() const { return params.mode; }

    /**
     * Rows usable by @p w under the current mode (drives the tiling
     * compiler's view of available capacity).
     */
    std::uint32_t usableRows(World w) const;

    std::uint64_t violations() const
    {
        return static_cast<std::uint64_t>(denied.value());
    }

    /**
     * Raw, check-free access for the flush engine, loaders that
     * operate with hardware privilege, and compute that works on
     * rows in place after an admitted access. Rows are contiguous:
     * row r + i starts row_bytes * i past rawRow(r).
     */
    std::uint8_t *rawRow(std::uint32_t row);
    const std::uint8_t *rawRow(std::uint32_t row) const;
    /** Set the ID of rows [first, first+count) to @p d (recorded;
     *  a range that already holds @p d is left untouched). */
    void rawSetIds(std::uint32_t first, std::uint32_t count, Domain d);

    /**
     * hashBytesFast over the whole per-row ID image, one domain id
     * byte per row, folded into @p seed (a layer-timing cache key
     * input). Cached: recomputed only after an ID byte changed or
     * for a different seed, so a warm key costs O(1).
     */
    std::uint64_t idFingerprint(std::uint64_t seed) const;

    /** A recorded run of rows left holding the same wordline ID. */
    struct WrittenRange
    {
        std::uint32_t first = 0;
        std::uint32_t count = 0;
        Domain domain;

        friend bool operator==(const WrittenRange &,
                               const WrittenRange &) = default;
    };

    /**
     * Arm written-row recording: every row an access or scrub
     * touches from here to endWriteRecord() is remembered (one
     * branch per access while armed, nothing when disarmed). The
     * layer-timing cache uses this to capture the ID-image effect of
     * a memoized op so a hit can replay it with rawSetId().
     */
    void beginWriteRecord();

    /**
     * Compact the recorded rows into ranges annotated with each
     * row's final ID, append them to @p out, and disarm.
     */
    void endWriteRecord(std::vector<WrittenRange> &out);

    /**
     * Arm (or disarm with nullptr) the fault injector. Armed sites:
     * spad_id_mismatch (a read is denied as if the wordline ID did
     * not match) and spad_bit_flip (one bit of the stored row is
     * flipped before the read copies it out — silent corruption).
     * The scratchpad has no timebase, so both probe with tick 0.
     */
    void armFaults(FaultInjector *inj) { faults = inj; }

    /**
     * The read probes of @p n row pairs: row @p a_first + i of @p a,
     * then row @p c_first + i of @p c, for i = 0..n-1 — the order of
     * n single-row reads alternating between the two pads. An
     * accumulating compute probes its activation and accumulator
     * rows this way and then reads them with `probed` set.
     * @pre both pads share one armed injector, and no read probe
     * can stop a read (spad_id_mismatch is unarmed).
     */
    static void probeReadPairs(Scratchpad &a, std::uint32_t a_first,
                               Scratchpad &c, std::uint32_t c_first,
                               std::uint32_t n);

    /** Bits flipped by injected spad_bit_flip faults. */
    std::uint64_t corruptions() const
    {
        return static_cast<std::uint64_t>(corrupted.value());
    }

    /**
     * Attach (or detach with nullptr) a trace sink, emitting as
     * @p who. Denials and scrubs trace under TraceCategory::spad,
     * injected faults under TraceCategory::fault; the per-access
     * happy path is not traced (it would swamp any sink). The
     * scratchpad has no timebase, so records carry tick 0.
     */
    void attachTrace(TraceSink *sink, const std::string &who);

  private:
    /** Rows of [first, first+count) inside the scratchpad. */
    std::uint32_t inBounds(std::uint32_t first, std::uint32_t count) const
    {
        return first < params.rows ? std::min(count, params.rows - first)
                                   : 0;
    }
    /** Probe the read sites for rows [first, first+count), in row
     *  order; @return the offset of an injected ID mismatch, or
     *  @p count (bit flips corrupt their rows and go on). */
    std::uint32_t probeReads(std::uint32_t first, std::uint32_t count);
    /**
     * The bit-flip probes of @p n reads on each of @p lanes pads,
     * row by row and pad by pad within a row (pad l reads from row
     * @p firsts[l]): occurrence i goes to pad i % lanes. The ID
     * mismatch site must be unarmed; its count grows in one add.
     */
    static void probeFlips(Scratchpad *const *pads,
                           const std::uint32_t *firsts,
                           std::uint32_t lanes, std::uint32_t n);
    /** Apply an injected bit flip to @p row. */
    void flipBit(std::uint32_t row);
    void deny(SpadOp op, Domain who, std::uint32_t row);
    void recordWrites(std::uint32_t first, std::uint32_t count)
    {
        if (!recording)
            return;
        for (std::uint32_t row = first; row < first + count; ++row) {
            if (!write_mark[row]) {
                write_mark[row] = 1;
                written_rows.push_back(row);
            }
        }
    }

    /** Every write to id_state that changes a byte calls this. */
    void idsChanged() { id_fp_valid = false; }

    SpadParams params;
    std::vector<std::uint8_t> data;   // rows * row_bytes
    std::vector<std::uint8_t> id_state; // domain id per row
    mutable bool id_fp_valid = false;
    mutable std::uint64_t id_fp_seed = 0;
    mutable std::uint64_t id_fp = 0;
    bool recording = false;
    std::vector<std::uint8_t> write_mark; // lazily sized to rows
    std::vector<std::uint32_t> written_rows;
    FaultInjector *faults = nullptr;
    Tracer tracer;
    std::string trace_name;

    stats::Scalar reads;
    stats::Scalar writes;
    stats::Scalar denied;
    stats::Scalar id_flips;
    stats::Scalar corrupted;
};

namespace spad_detail
{

/** Offset of the first ID in [ids, ids+n) that is not @p d. */
inline std::uint32_t
firstNot(const std::uint8_t *ids, std::uint32_t n, Domain d)
{
    // IDs are bytes: compare eight at a time, then finish bytewise.
    const std::uint64_t lanes = 0x0101010101010101ULL * d.id;
    std::uint32_t i = 0;
    for (; i + 8 <= n; i += 8) {
        std::uint64_t word;
        std::memcpy(&word, ids + i, sizeof(word));
        if (word != lanes)
            break;
    }
    while (i < n && ids[i] == d.id)
        ++i;
    return i;
}

} // namespace spad_detail

// Inline: every access runs it, most of them on one row.
inline std::uint32_t
Scratchpad::admits(Domain who, std::uint32_t first, std::uint32_t count,
                   SpadOp op) const
{
    const std::uint32_t n = inBounds(first, count);
    if (n == 0 || who.id >= params.domains)
        return 0;
    switch (params.mode) {
      case IsolationMode::none:
        return n;
      case IsolationMode::partition: {
        // Secure world owns [0, boundary); normal world the rest.
        const std::uint32_t boundary = params.partition_boundary;
        if (who == World::secure)
            return first < boundary ? std::min(n, boundary - first) : 0;
        return first >= boundary ? n : 0;
      }
      case IsolationMode::id_based: {
        const std::uint8_t *ids = id_state.data() + first;
        if (params.scope == SpadScope::local) {
            // Local rule: a read requires an ID match; a write is a
            // forced write, always allowed.
            return op == SpadOp::write ? n
                                       : spad_detail::firstNot(ids, n, who);
        }
        // Global rule: domain d reaches lines tagged 0 or d, so the
        // normal world may not touch a secure line, and with two
        // domains the secure world reaches every line.
        if (who == World::normal)
            return spad_detail::firstNot(ids, n, World::normal);
        if (params.domains == 2)
            return n;
        std::uint32_t i = 0;
        while (i < n && (ids[i] == 0 || ids[i] == who.id))
            ++i;
        return i;
      }
    }
    return n;
}

} // namespace snpu

#endif // SNPU_SPAD_SCRATCHPAD_HH
