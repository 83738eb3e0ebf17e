/**
 * @file
 * Unit and integration tests for the NPU core execution engine:
 * functional GEMM correctness against a reference, security
 * instruction enforcement, and timing behaviour.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "mem/mem_system.hh"
#include "npu/npu_core.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/stats.hh"

namespace snpu
{
namespace
{

struct CoreFixture : ::testing::Test
{
    CoreFixture()
        : stats("g"), mem(stats)
    {
        NpuCoreParams p;
        p.spad_rows = 1024;
        p.acc_rows = 256;
        p.timing_only = false;
        core = std::make_unique<NpuCore>(stats, mem, pass, p);
        base = mem.map().npuArena(World::normal).base;
    }

    stats::Group stats;
    MemSystem mem;
    PassThroughControl pass;
    std::unique_ptr<NpuCore> core;
    Addr base = 0;
};

TEST_F(CoreFixture, MvinLoadsScratchpadRows)
{
    std::vector<std::uint8_t> data(64);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i + 1);
    mem.data().write(base, data.data(), data.size());

    NpuProgram prog;
    Instr mvin;
    mvin.op = Opcode::mvin;
    mvin.vaddr = base;
    mvin.spad_row = 10;
    mvin.rows = 4;
    prog.code.push_back(mvin);

    ExecResult res = core->run(0, prog, ExecOptions{});
    ASSERT_TRUE(res.ok()) << res.error();
    std::uint8_t row[16];
    ASSERT_EQ(core->scratchpad().read(World::normal, 10, row),
              SpadStatus::ok);
    EXPECT_EQ(row[0], 1);
    ASSERT_EQ(core->scratchpad().read(World::normal, 13, row),
              SpadStatus::ok);
    EXPECT_EQ(row[0], 49);
}

TEST_F(CoreFixture, SmallGemmMatchesReference)
{
    // C[8x16] = A[8x16] * W[16x16] with ReLU + >>8 requantization.
    Rng rng(7);
    std::vector<std::int8_t> a(8 * 16), w(16 * 16);
    for (auto &v : a)
        v = static_cast<std::int8_t>(rng.range(-100, 100));
    for (auto &v : w)
        v = static_cast<std::int8_t>(rng.range(-100, 100));

    const Addr a_va = base;
    const Addr w_va = base + 0x1000;
    const Addr c_va = base + 0x2000;
    mem.data().write(a_va, a.data(), a.size());
    mem.data().write(w_va, w.data(), w.size());

    NpuProgram prog;
    Instr cfg;
    cfg.op = Opcode::config;
    cfg.act = Activation::relu;
    prog.code.push_back(cfg);

    Instr lda;
    lda.op = Opcode::mvin;
    lda.vaddr = a_va;
    lda.spad_row = 0;
    lda.rows = 8;
    prog.code.push_back(lda);

    Instr ldw;
    ldw.op = Opcode::mvin_weight;
    ldw.vaddr = w_va;
    ldw.spad_row = 100;
    ldw.rows = 16;
    prog.code.push_back(ldw);

    Instr preload;
    preload.op = Opcode::preload;
    preload.spad_row = 100;
    prog.code.push_back(preload);

    Instr compute;
    compute.op = Opcode::compute;
    compute.spad_row = 0;
    compute.spad_row2 = 0;
    compute.rows = 8;
    compute.k = 16;
    compute.accumulate = false;
    prog.code.push_back(compute);

    Instr st;
    st.op = Opcode::mvout;
    st.vaddr = c_va;
    st.spad_row = 0;
    st.rows = 8;
    prog.code.push_back(st);

    ExecResult res = core->run(0, prog, ExecOptions{});
    ASSERT_TRUE(res.ok()) << res.error();
    EXPECT_EQ(res.macs, 8u * 16 * 16);

    // Reference computation.
    for (int r = 0; r < 8; ++r) {
        for (int c = 0; c < 16; ++c) {
            std::int32_t sum = 0;
            for (int k = 0; k < 16; ++k)
                sum += static_cast<std::int32_t>(a[r * 16 + k]) *
                       w[k * 16 + c];
            if (sum < 0)
                sum = 0; // relu
            sum >>= 8;
            sum = std::clamp(sum, -128, 127);
            const auto got = static_cast<std::int8_t>(
                mem.data().read8(c_va + r * 16 + c));
            EXPECT_EQ(got, static_cast<std::int8_t>(sum))
                << "r=" << r << " c=" << c;
        }
    }
}

TEST_F(CoreFixture, AccumulationAcrossKTiles)
{
    // Two K-tiles of all-ones accumulate into the same rows.
    std::vector<std::int8_t> ones(16 * 16, 1);
    mem.data().write(base, ones.data(), ones.size());
    mem.data().write(base + 0x1000, ones.data(), ones.size());

    NpuProgram prog;
    for (int kt = 0; kt < 2; ++kt) {
        Instr lda;
        lda.op = Opcode::mvin;
        lda.vaddr = base;
        lda.spad_row = static_cast<std::uint32_t>(kt * 16);
        lda.rows = 16;
        prog.code.push_back(lda);

        Instr ldw;
        ldw.op = Opcode::mvin_weight;
        ldw.vaddr = base + 0x1000;
        ldw.spad_row = static_cast<std::uint32_t>(200 + kt * 16);
        ldw.rows = 16;
        prog.code.push_back(ldw);

        Instr preload;
        preload.op = Opcode::preload;
        preload.spad_row = static_cast<std::uint32_t>(200 + kt * 16);
        prog.code.push_back(preload);

        Instr compute;
        compute.op = Opcode::compute;
        compute.spad_row = static_cast<std::uint32_t>(kt * 16);
        compute.spad_row2 = 0;
        compute.rows = 16;
        compute.k = 16;
        compute.accumulate = kt > 0;
        prog.code.push_back(compute);
    }
    Instr st;
    st.op = Opcode::mvout;
    st.vaddr = base + 0x4000;
    st.spad_row = 0;
    st.rows = 16;
    prog.code.push_back(st);

    ExecResult res = core->run(0, prog, ExecOptions{});
    ASSERT_TRUE(res.ok()) << res.error();
    // Each output: 2 * (1*1 * 16) = 32; >>8 = 0. Check accumulator
    // directly instead.
    std::uint8_t acc_row[64];
    ASSERT_EQ(core->accumulator().read(World::normal, 0, acc_row),
              SpadStatus::ok);
    const auto *acc32 = reinterpret_cast<std::int32_t *>(acc_row);
    EXPECT_EQ(acc32[0], 32);
}

TEST_F(CoreFixture, UnprivilegedSecSetIdFails)
{
    NpuProgram prog;
    Instr instr;
    instr.op = Opcode::sec_set_id;
    instr.world = World::secure;
    instr.privileged = false;
    prog.code.push_back(instr);

    ExecResult res = core->run(0, prog, ExecOptions{});
    EXPECT_FALSE(res.ok());
    EXPECT_EQ(core->idState(), World::normal);
    EXPECT_GT(res.violations, 0u);
}

TEST_F(CoreFixture, PrivilegedSecSetIdSucceeds)
{
    NpuProgram prog;
    Instr instr;
    instr.op = Opcode::sec_set_id;
    instr.world = World::secure;
    instr.privileged = true;
    prog.code.push_back(instr);

    ExecResult res = core->run(0, prog, ExecOptions{});
    EXPECT_TRUE(res.ok()) << res.error();
    EXPECT_EQ(core->idState(), World::secure);
}

TEST_F(CoreFixture, SecResetSpadRequiresPrivilege)
{
    NpuProgram prog;
    Instr instr;
    instr.op = Opcode::sec_reset_spad;
    instr.spad_row = 0;
    instr.rows = 8;
    instr.privileged = false;
    prog.code.push_back(instr);
    ExecResult res = core->run(0, prog, ExecOptions{});
    EXPECT_FALSE(res.ok());
}

TEST_F(CoreFixture, DmaDenialAbortsProgram)
{
    NpuProgram prog;
    Instr mvin;
    mvin.op = Opcode::mvin;
    // Secure region, normal core: the memory partition denies it.
    mvin.vaddr = mem.map().secureRegion().base;
    mvin.spad_row = 0;
    mvin.rows = 1;
    prog.code.push_back(mvin);
    ExecResult res = core->run(0, prog, ExecOptions{});
    EXPECT_FALSE(res.ok());
    EXPECT_GT(res.violations, 0u);
}

TEST_F(CoreFixture, ComputeOverlapsWithNextLoad)
{
    // Load + compute + load + compute: the second load should start
    // while the first compute runs, so the total is less than the
    // serial sum.
    auto make_prog = [&](bool fenced) {
        NpuProgram prog;
        for (int i = 0; i < 8; ++i) {
            Instr lda;
            lda.op = Opcode::mvin;
            lda.vaddr = base + static_cast<Addr>(i) * 0x10000;
            lda.spad_row = static_cast<std::uint32_t>((i % 2) * 256);
            lda.rows = 256;
            prog.code.push_back(lda);
            if (fenced) {
                Instr fence;
                fence.op = Opcode::fence;
                prog.code.push_back(fence);
            }
            Instr compute;
            compute.op = Opcode::compute;
            compute.spad_row = static_cast<std::uint32_t>((i % 2) * 256);
            compute.spad_row2 = 0;
            compute.rows = 250;
            compute.k = 16;
            prog.code.push_back(compute);
            if (fenced) {
                Instr fence;
                fence.op = Opcode::fence;
                prog.code.push_back(fence);
            }
        }
        return prog;
    };

    ExecResult overlapped = core->run(0, make_prog(false),
                                      ExecOptions{});
    ASSERT_TRUE(overlapped.ok());

    stats::Group stats2("g2");
    MemSystem mem2(stats2);
    PassThroughControl pass2;
    NpuCoreParams p;
    p.spad_rows = 1024;
    p.acc_rows = 256;
    p.timing_only = true;
    NpuCore core2(stats2, mem2, pass2, p);
    ExecResult fenced = core2.run(0, make_prog(true), ExecOptions{});
    ASSERT_TRUE(fenced.ok());

    EXPECT_LT(overlapped.cycles(), fenced.cycles());
}

TEST_F(CoreFixture, TileFlushAddsTraffic)
{
    // A tile boundary under tile-granular flushing saves and
    // restores the tile's live rows; without flushing it is free.
    NpuProgram prog;
    prog.spad_rows_used = 64;
    prog.tile_live_rows = 64;
    Instr fence;
    fence.op = Opcode::fence;
    prog.code.push_back(fence);
    prog.tile_ends = {0};

    ExecOptions opts;
    opts.flush_save_area = base + 0x100000;
    EXPECT_EQ(core->run(0, prog, opts).flush_cycles, 0u);
    opts.flush = FlushGranularity::tile;
    ExecResult res = core->run(0, prog, opts);
    ASSERT_TRUE(res.ok());
    EXPECT_GT(res.flush_cycles, 0u);
}

TEST_F(CoreFixture, TimingOnlyModeSkipsData)
{
    stats::Group stats2("g2");
    MemSystem mem2(stats2);
    PassThroughControl pass2;
    NpuCoreParams p;
    p.timing_only = true;
    p.spad_rows = 1024;
    p.acc_rows = 256;
    NpuCore core2(stats2, mem2, pass2, p);

    NpuProgram prog;
    Instr mvin;
    mvin.op = Opcode::mvin;
    mvin.vaddr = mem2.map().npuArena(World::normal).base;
    mvin.spad_row = 0;
    mvin.rows = 4;
    prog.code.push_back(mvin);
    ExecResult res = core2.run(0, prog, ExecOptions{});
    EXPECT_TRUE(res.ok());
    EXPECT_GT(res.cycles(), 0u);
}

TEST(CoreGeometry, BadGeometryIsFatal)
{
    stats::Group stats("g");
    MemSystem mem(stats);
    PassThroughControl pass;
    NpuCoreParams p;
    p.spad_row_bytes = 8; // narrower than dim=16
    EXPECT_THROW(NpuCore(stats, mem, pass, p), FatalError);
}

} // namespace
} // namespace snpu
