/**
 * @file
 * Robustness and failure-injection tests: random instruction streams
 * must never crash the core or breach isolation; random bit flips in
 * authenticated blobs must always be rejected; batched and serial
 * DMA must move identical bytes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "core/soc.hh"
#include "dma/dma_engine.hh"
#include "mem/mem_system.hh"
#include "npu/npu_core.hh"
#include "sim/random.hh"
#include "sim/stats.hh"
#include "tee/monitor/code_verifier.hh"

namespace snpu
{
namespace
{

/** Random (but structurally bounded) instruction generator. */
Instr
randomInstr(Rng &rng, Addr arena_base, Addr arena_size)
{
    static const Opcode ops[] = {
        Opcode::config,     Opcode::mvin,        Opcode::mvin_weight,
        Opcode::mvout,      Opcode::preload,     Opcode::compute,
        Opcode::fence,      Opcode::sec_set_id,  Opcode::sec_reset_spad,
    };
    Instr in;
    in.op = ops[rng.below(std::size(ops))];
    in.vaddr = arena_base + rng.below(arena_size / 2);
    in.spad_row = static_cast<std::uint32_t>(rng.below(20000));
    in.spad_row2 = static_cast<std::uint32_t>(rng.below(2000));
    in.rows = static_cast<std::uint32_t>(rng.below(64));
    in.k = static_cast<std::uint32_t>(rng.below(20));
    in.accumulate = rng.chance(0.5);
    in.privileged = rng.chance(0.1);
    in.world = rng.chance(0.5) ? World::secure : World::normal;
    in.act = rng.chance(0.5) ? Activation::relu : Activation::none;
    return in;
}

class ProgramFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(ProgramFuzz, RandomProgramsNeverCrashOrEscalate)
{
    stats::Group stats("g");
    MemSystem mem(stats);
    PassThroughControl pass;
    NpuCoreParams p;
    p.spad_rows = 1024;
    p.acc_rows = 256;
    p.timing_only = false;
    NpuCore core(stats, mem, pass, p);

    Rng rng(GetParam());
    const AddrRange &arena = mem.map().npuArena(World::normal);

    for (int trial = 0; trial < 40; ++trial) {
        NpuProgram prog;
        const auto len = 1 + rng.below(30);
        for (std::uint64_t i = 0; i < len; ++i) {
            Instr in = randomInstr(rng, arena.base, arena.size);
            // k beyond the array dimension is a compiler bug, not
            // hostile input: the engine panics on it by contract.
            if (in.op == Opcode::compute && in.k > 16)
                in.k = 16;
            prog.code.push_back(in);
        }
        prog.spad_rows_used = 64;

        ExecOptions opts;
        opts.flush_save_area = arena.base + (8u << 20);
        // Must not throw; may fail cleanly with an error string.
        ExecResult res = core.run(0, prog, opts);
        if (!res.ok()) {
            EXPECT_FALSE(res.error().empty());
        }
        // A program that contained only unprivileged instructions
        // must not have moved the core into the secure world.
        bool had_privileged_set = false;
        for (const Instr &in : prog.code) {
            if (in.op == Opcode::sec_set_id && in.privileged &&
                in.world == World::secure) {
                had_privileged_set = true;
            }
        }
        if (!had_privileged_set) {
            EXPECT_EQ(core.idState(), World::normal);
        }
        // Reset for the next trial.
        core.setIdState(World::normal, true);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProgramFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 77, 1001));

class ModelTamperFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(ModelTamperFuzz, AnySingleBitFlipIsRejected)
{
    AesKey key{};
    for (std::size_t i = 0; i < key.size(); ++i)
        key[i] = static_cast<std::uint8_t>(i * 7 + 1);
    CodeVerifier verifier(key);

    Rng rng(GetParam());
    std::vector<std::uint8_t> model(256);
    for (auto &b : model)
        b = static_cast<std::uint8_t>(rng.next());
    AesBlock iv{};
    iv[3] = 9;
    Digest mac{};
    const auto ciphertext = verifier.encryptModel(model, iv, mac);

    for (int trial = 0; trial < 64; ++trial) {
        auto tampered = ciphertext;
        const auto byte = rng.below(tampered.size());
        const auto bit = rng.below(8);
        tampered[byte] ^= static_cast<std::uint8_t>(1u << bit);
        std::vector<std::uint8_t> out;
        EXPECT_FALSE(verifier.decryptModel(tampered, mac, iv, out))
            << "bit flip at byte " << byte << " bit " << bit
            << " was accepted";
    }

    // MAC tampering is equally fatal.
    for (int trial = 0; trial < 16; ++trial) {
        Digest bad_mac = mac;
        bad_mac[rng.below(bad_mac.size())] ^= 0x01;
        std::vector<std::uint8_t> out;
        EXPECT_FALSE(
            verifier.decryptModel(ciphertext, bad_mac, iv, out));
    }

    // The untampered blob still decrypts.
    std::vector<std::uint8_t> out;
    ASSERT_TRUE(verifier.decryptModel(ciphertext, mac, iv, out));
    EXPECT_EQ(out, model);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModelTamperFuzz,
                         ::testing::Values(11, 22, 33));

class DmaEquivalence : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(DmaEquivalence, BatchedAndSerialTransfersMoveSameBytes)
{
    Rng rng(GetParam());
    stats::Group stats("g");
    MemSystem mem(stats);
    PassThroughControl pass;
    DmaEngine engine(stats, mem, pass);
    const Addr base = mem.map().dram().base + (8u << 20);

    // Scatter random data.
    std::vector<std::uint8_t> blob(64 * 1024);
    for (auto &b : blob)
        b = static_cast<std::uint8_t>(rng.next());
    mem.data().write(base, blob.data(), blob.size());

    for (int trial = 0; trial < 20; ++trial) {
        std::vector<DmaRequest> reqs;
        const auto n = 1 + rng.below(12);
        for (std::uint64_t i = 0; i < n; ++i) {
            DmaRequest req;
            req.vaddr = base + rng.below(blob.size() - 4096);
            req.bytes = static_cast<std::uint32_t>(1 + rng.below(2048));
            req.op = MemOp::read;
            req.world = World::normal;
            reqs.push_back(req);
        }

        // Serial path.
        std::vector<std::vector<std::uint8_t>> serial(reqs.size());
        for (std::size_t i = 0; i < reqs.size(); ++i) {
            DmaResult res = engine.transfer(0, reqs[i], &serial[i]);
            ASSERT_TRUE(res.ok);
        }

        // Batched path.
        std::vector<std::vector<std::uint8_t>> batched(reqs.size());
        std::vector<std::vector<std::uint8_t> *> ptrs;
        for (auto &buffer : batched)
            ptrs.push_back(&buffer);
        DmaResult res = engine.transferBatch(0, reqs, ptrs);
        ASSERT_TRUE(res.ok);

        for (std::size_t i = 0; i < reqs.size(); ++i)
            EXPECT_EQ(serial[i], batched[i]) << "stream " << i;
    }
}

/**
 * The batched load loop as it was before request-granular streams
 * copied their bytes once: a pass-through round robin with one
 * access() and one copy per 64-byte packet, on its own memory
 * system. Adds the packets and bytes it issued to @p packets and
 * @p bytes.
 */
DmaResult
perPacketBatch(MemSystem &mem, Tick when,
               const std::vector<DmaRequest> &reqs,
               std::vector<std::vector<std::uint8_t>> &bufs,
               std::uint64_t &packets, std::uint64_t &bytes)
{
    DmaResult result;
    result.done = when;
    std::vector<std::uint32_t> offset(reqs.size(), 0);
    std::size_t live = 0;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        bufs[i].assign(reqs[i].bytes, 0);
        live += reqs[i].bytes > 0;
    }
    Tick issue = when;
    std::size_t rr = 0;
    while (live > 0) {
        const std::size_t i = rr++ % reqs.size();
        const DmaRequest &req = reqs[i];
        if (offset[i] >= req.bytes)
            continue;
        const std::uint32_t chunk =
            std::min<std::uint32_t>(64, req.bytes - offset[i]);
        const Addr pa = req.vaddr + offset[i];
        const MemResult mres = mem.access(
            issue, MemRequest{pa, chunk, MemOp::read, req.world});
        if (!mres.ok) {
            result.ok = false;
            result.done = issue;
            return result;
        }
        mem.data().read(pa, bufs[i].data() + offset[i], chunk);
        ++packets;
        bytes += chunk;
        ++result.packets;
        result.done = std::max(result.done, mres.done);
        issue += 1;
        offset[i] += chunk;
        if (offset[i] >= req.bytes)
            --live;
    }
    result.done = std::max(result.done, issue);
    return result;
}

std::string
statText(const stats::Group &g, const std::string &name)
{
    const stats::StatBase *stat = g.find(name);
    return stat ? stat->render() : "missing " + name;
}

TEST_P(DmaEquivalence, BatchWithPartitionDenialMatchesPerPacketReference)
{
    Rng rng(GetParam());
    stats::Group stats("g");
    stats::Group ref_stats("g");
    MemSystem mem(stats);
    MemSystem ref_mem(ref_stats);
    PassThroughControl pass;
    DmaEngine engine(stats, mem, pass);
    const Addr base = mem.map().dram().base + (8u << 20);
    const Addr secure_base = mem.map().secureRegion().base;

    // The same random bytes in both memories, in the streamed region
    // and just below the secure region.
    std::vector<std::uint8_t> blob(64 * 1024);
    for (auto &b : blob)
        b = static_cast<std::uint8_t>(rng.next());
    for (MemSystem *m : {&mem, &ref_mem}) {
        m->data().write(base, blob.data(), blob.size());
        m->data().write(secure_base - 4096, blob.data(), 4096);
    }

    Tick t = 0;
    int denied_batches = 0;
    std::uint64_t ref_packets = 0;
    std::uint64_t ref_bytes = 0;
    for (int trial = 0; trial < 30; ++trial) {
        std::vector<DmaRequest> reqs;
        const auto n = 1 + rng.below(12);
        for (std::uint64_t i = 0; i < n; ++i) {
            DmaRequest req;
            req.vaddr = base + rng.below(blob.size() - 4096);
            req.bytes = static_cast<std::uint32_t>(rng.below(2048));
            req.op = MemOp::read;
            req.world = World::normal;
            reqs.push_back(req);
        }
        if (rng.chance(0.5)) {
            // A normal-world stream that runs into the secure region:
            // the partition denies the packet that crosses it.
            DmaRequest &req = reqs[rng.below(reqs.size())];
            req.vaddr = secure_base - 1 - rng.below(2048);
            req.bytes = static_cast<std::uint32_t>(
                (secure_base - req.vaddr) + 1 + rng.below(2048));
        }

        std::vector<std::vector<std::uint8_t>> batched(reqs.size());
        std::vector<std::vector<std::uint8_t> *> ptrs;
        for (auto &buffer : batched)
            ptrs.push_back(&buffer);
        const DmaResult got = engine.transferBatch(t, reqs, ptrs);

        std::vector<std::vector<std::uint8_t>> expected(reqs.size());
        const DmaResult want = perPacketBatch(ref_mem, t, reqs, expected,
                                              ref_packets, ref_bytes);

        ASSERT_EQ(got.ok, want.ok) << "trial " << trial;
        EXPECT_EQ(got.done, want.done) << "trial " << trial;
        EXPECT_EQ(got.packets, want.packets) << "trial " << trial;
        if (got.ok) {
            for (std::size_t i = 0; i < reqs.size(); ++i)
                EXPECT_EQ(batched[i], expected[i]) << "stream " << i;
        } else {
            ++denied_batches;
        }
        t = std::max(t, got.done) + rng.below(100);
    }
    EXPECT_GT(denied_batches, 0);

    for (const char *name :
         {"mem_accesses", "mem_violations", "l2_hits", "l2_misses",
          "l2_writebacks", "dram_reads", "dram_writes", "dram_bytes",
          "dram_queue_delay"}) {
        EXPECT_EQ(statText(stats, name), statText(ref_stats, name))
            << name;
    }
    EXPECT_EQ(static_cast<const stats::Scalar *>(stats.find("dma_packets"))
                  ->value(),
              static_cast<double>(ref_packets));
    EXPECT_EQ(engine.totalBytes(), ref_bytes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DmaEquivalence,
                         ::testing::Values(5, 50, 500));

TEST(MonitorFuzz, GarbageTrampolineCallsNeverCrash)
{
    Soc soc(makeSystem(SystemKind::snpu));
    Rng rng(99);
    for (int trial = 0; trial < 500; ++trial) {
        TrampolineCall call;
        call.fn = static_cast<MonitorFn>(rng.below(10));
        for (auto &arg : call.args)
            arg = rng.next();
        if (rng.chance(0.5)) {
            call.shared.base = rng.next() & 0xffff'ffffULL;
            call.shared.size = rng.below(1u << 20);
        }
        // Must not throw; result is either ok or a coded error.
        TrampolineResult res = soc.monitor().trampoline().invoke(call);
        if (!res.ok) {
            EXPECT_NE(res.error, 0u);
        }
    }
}

} // namespace
} // namespace snpu
