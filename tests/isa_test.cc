/**
 * @file
 * Tests for the ISA types: instruction rendering (used by the trace
 * infrastructure) and opcode naming.
 */

#include <gtest/gtest.h>

#include "npu/isa.hh"

namespace snpu
{
namespace
{

TEST(Isa, AllOpcodesNamed)
{
    for (Opcode op : {Opcode::config, Opcode::mvin, Opcode::mvin_weight,
                      Opcode::mvout, Opcode::preload, Opcode::compute,
                      Opcode::fence, Opcode::sec_set_id,
                      Opcode::sec_reset_spad}) {
        EXPECT_STRNE(opcodeName(op), "?");
    }
}

TEST(Isa, MvinRendersOperands)
{
    Instr in;
    in.op = Opcode::mvin;
    in.vaddr = 0x1234;
    in.spad_row = 42;
    in.rows = 7;
    const std::string text = in.toString();
    EXPECT_NE(text.find("mvin"), std::string::npos);
    EXPECT_NE(text.find("0x1234"), std::string::npos);
    EXPECT_NE(text.find("row=42"), std::string::npos);
    EXPECT_NE(text.find("n=7"), std::string::npos);
}

TEST(Isa, ComputeRendersAccumulationMode)
{
    Instr in;
    in.op = Opcode::compute;
    in.spad_row = 1;
    in.spad_row2 = 2;
    in.rows = 16;
    in.k = 8;
    in.accumulate = true;
    EXPECT_NE(in.toString().find("+="), std::string::npos);
    in.accumulate = false;
    EXPECT_EQ(in.toString().find("+="), std::string::npos);
}

TEST(Isa, PrivilegedInstructionsMarked)
{
    Instr in;
    in.op = Opcode::sec_set_id;
    in.world = World::secure;
    in.privileged = true;
    const std::string text = in.toString();
    EXPECT_NE(text.find("[priv]"), std::string::npos);
    EXPECT_NE(text.find("secure"), std::string::npos);
    in.privileged = false;
    EXPECT_EQ(in.toString().find("[priv]"), std::string::npos);
}

TEST(Isa, WorldNames)
{
    EXPECT_STREQ(worldName(World::secure), "secure");
    EXPECT_STREQ(worldName(World::normal), "normal");
}

} // namespace
} // namespace snpu
