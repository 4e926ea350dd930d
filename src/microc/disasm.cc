#include "microc/disasm.h"

#include <sstream>

namespace lnic::microc {

namespace {
std::string reg(std::uint16_t r) {
  std::string name = "r";
  name += std::to_string(r);
  return name;
}

std::string obj_name(const Program& program, std::uint16_t index) {
  if (index < program.objects.size()) return program.objects[index].name;
  return "<obj" + std::to_string(index) + ">";
}
}  // namespace

std::string disassemble(const Instr& in, const Program& program) {
  std::ostringstream out;
  out << to_string(in.op);
  switch (in.op) {
    case Opcode::kConst:
      out << " " << reg(in.dst) << ", " << in.imm;
      break;
    case Opcode::kMov:
      out << " " << reg(in.dst) << ", " << reg(in.a);
      break;
    case Opcode::kAdd: case Opcode::kSub: case Opcode::kMul:
    case Opcode::kDivU: case Opcode::kRemU: case Opcode::kAnd:
    case Opcode::kOr: case Opcode::kXor: case Opcode::kShl:
    case Opcode::kShr: case Opcode::kFxMul: case Opcode::kCmpEq:
    case Opcode::kCmpNe: case Opcode::kCmpLtU: case Opcode::kCmpLeU:
      out << " " << reg(in.dst) << ", " << reg(in.a) << ", " << reg(in.b);
      break;
    case Opcode::kAddImm: case Opcode::kMulImm: case Opcode::kCmpEqImm:
      out << " " << reg(in.dst) << ", " << reg(in.a) << ", " << in.imm;
      break;
    case Opcode::kSelect:
      out << " " << reg(in.dst) << ", " << reg(in.a) << " ? " << reg(in.b)
          << " : " << reg(static_cast<std::uint16_t>(in.imm));
      break;
    case Opcode::kLoadHdr:
      out << " " << reg(in.dst) << ", hdr."
          << to_string(static_cast<HeaderField>(in.imm));
      break;
    case Opcode::kLoadBody:
      out << " " << reg(in.dst) << ", body[" << reg(in.a) << "+" << in.imm
          << "]";
      break;
    case Opcode::kBodyLen:
      out << " " << reg(in.dst);
      break;
    case Opcode::kLoadMatch:
      out << " " << reg(in.dst) << ", match[" << in.imm << "]";
      break;
    case Opcode::kLoad:
      out << "." << static_cast<int>(in.width) << " " << reg(in.dst) << ", "
          << obj_name(program, in.obj) << "[" << reg(in.a) << "+" << in.imm
          << "]";
      break;
    case Opcode::kStore:
      out << "." << static_cast<int>(in.width) << " "
          << obj_name(program, in.obj) << "[" << reg(in.a) << "+" << in.imm
          << "], " << reg(in.b);
      break;
    case Opcode::kRespByte: case Opcode::kRespWord:
      out << " " << reg(in.a);
      break;
    case Opcode::kRespMem:
      out << " " << obj_name(program, in.obj) << "[" << reg(in.a) << " len "
          << reg(in.b) << "]";
      break;
    case Opcode::kMemCpy:
      out << " " << obj_name(program, in.obj) << "[" << reg(in.dst) << "], "
          << obj_name(program, in.obj2) << "[" << reg(in.a) << "], len "
          << reg(in.b);
      break;
    case Opcode::kGrayscale:
      out << " " << obj_name(program, in.obj) << "[" << reg(in.dst) << "], "
          << obj_name(program, in.obj2) << "[" << reg(in.a) << "], px "
          << reg(in.b);
      break;
    case Opcode::kHash:
      out << " " << reg(in.dst) << ", " << obj_name(program, in.obj) << "["
          << reg(in.a) << " len " << reg(in.b) << "]";
      break;
    case Opcode::kBodyCopy:
      out << " " << obj_name(program, in.obj) << "[" << reg(in.dst)
          << "], body[" << reg(in.a) << "], len " << reg(in.b);
      break;
    case Opcode::kExtCall:
      out << (in.imm == 0 ? ".get " : ".set ") << reg(in.dst) << ", key="
          << reg(in.a) << ", val=" << reg(in.b);
      break;
    case Opcode::kBr:
      out << " .b" << in.imm;
      break;
    case Opcode::kBrIf:
      out << " " << reg(in.a) << ", .b" << in.imm << ", .b" << in.b;
      break;
    case Opcode::kCall:
      out << " " << reg(in.dst) << ", ";
      if (static_cast<std::size_t>(in.imm) < program.functions.size()) {
        out << program.functions[static_cast<std::size_t>(in.imm)].name;
      } else {
        out << "<fn" << in.imm << ">";
      }
      out << "(" << in.b << " args from " << reg(in.a) << ")";
      break;
    case Opcode::kRet:
      out << " " << reg(in.a);
      break;
  }
  return out.str();
}

std::string disassemble(const Function& fn, const Program& program) {
  std::ostringstream out;
  out << "func " << fn.name << "(" << fn.num_args << " args, " << fn.num_regs
      << " regs):\n";
  for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
    out << ".b" << b << ":\n";
    for (const auto& in : fn.blocks[b].instrs) {
      out << "    " << disassemble(in, program) << "\n";
    }
  }
  return out.str();
}

std::string disassemble(const Program& program) {
  std::ostringstream out;
  out << "program " << program.name << " (" << code_size(program)
      << " words)\n";
  out << "objects:\n";
  for (const auto& obj : program.objects) {
    out << "  " << obj.name << "[" << obj.size << "] "
        << (obj.scope == MemScope::kGlobal ? "global" : "local") << " @"
        << to_string(obj.region);
    if (!obj.initial_data.empty()) {
      out << " init=" << obj.initial_data.size() << "B";
    }
    out << "\n";
  }
  out << "parser:";
  for (auto field : program.parsed_fields) {
    out << " " << to_string(field);
  }
  out << "\n";
  for (const auto& fn : program.functions) {
    out << disassemble(fn, program);
  }
  return out.str();
}

}  // namespace lnic::microc
