#include "npu/isa.hh"

#include <sstream>

namespace snpu
{

const char *
opcodeName(Opcode op)
{
    switch (op) {
      case Opcode::config:
        return "config";
      case Opcode::mvin:
        return "mvin";
      case Opcode::mvin_weight:
        return "mvin_weight";
      case Opcode::mvout:
        return "mvout";
      case Opcode::preload:
        return "preload";
      case Opcode::compute:
        return "compute";
      case Opcode::fence:
        return "fence";
      case Opcode::sec_set_id:
        return "sec_set_id";
      case Opcode::sec_reset_spad:
        return "sec_reset_spad";
    }
    return "?";
}

std::string
Instr::toString() const
{
    std::ostringstream os;
    os << opcodeName(op);
    switch (op) {
      case Opcode::mvin:
      case Opcode::mvin_weight:
      case Opcode::mvout:
        os << " va=0x" << std::hex << vaddr << std::dec
           << " row=" << spad_row << " n=" << rows;
        break;
      case Opcode::preload:
        os << " row=" << spad_row;
        break;
      case Opcode::compute:
        os << " a=" << spad_row << " acc=" << spad_row2
           << " n=" << rows << " k=" << k
           << (accumulate ? " +=" : " =");
        break;
      case Opcode::sec_set_id:
        os << ' ' << worldName(world);
        break;
      case Opcode::sec_reset_spad:
        os << " row=" << spad_row << " n=" << rows;
        break;
      default:
        break;
    }
    if (privileged)
        os << " [priv]";
    return os.str();
}

} // namespace snpu
