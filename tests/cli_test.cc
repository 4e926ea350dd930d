// Integration tests for the lnicctl CLI: the compile -> disasm -> run
// workflow over real files, plus error handling. Spawns the actual
// binary (path injected by CMake via LNICCTL_PATH).
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "microc/ir.h"
#include "microc/serialize.h"

namespace {

#ifndef LNICCTL_PATH
#define LNICCTL_PATH "./lnicctl"
#endif

struct CommandResult {
  int exit_code;
  std::string output;  // stdout + stderr
};

CommandResult run_command(const std::string& args) {
  const std::string command = std::string(LNICCTL_PATH) + " " + args + " 2>&1";
  std::array<char, 4096> buffer;
  std::string output;
  FILE* pipe = popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  while (fgets(buffer.data(), buffer.size(), pipe) != nullptr) {
    output += buffer.data();
  }
  const int status = pclose(pipe);
  return CommandResult{WEXITSTATUS(status), output};
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  out << content;
}

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-test directory: ctest runs the discovered cases as separate
    // processes, concurrently — sharing TempDir() directly races.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = ::testing::TempDir() + "lnic_cli_" + info->name() + "/";
    std::filesystem::create_directories(dir_);
    write_file(dir_ + "adder.mc", R"(
      global u8 scratch[32];
      int adder() {
        var total = hdr(key) + hdr(value);
        store8(scratch, 0, total);
        resp_word(load8(scratch, 0));
        return 0;
      }
    )");
    write_file(dir_ + "adder.p4", R"(
      table m { key = { workload_id; } entry (3) -> adder; }
      control ingress { apply(m); }
    )");
  }
  std::string dir_;
};

TEST_F(CliTest, CompileProducesFirmware) {
  const auto r = run_command("compile " + dir_ + "adder.mc --p4 " + dir_ +
                             "adder.p4 -o " + dir_ + "adder.lnfw");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("unoptimized"), std::string::npos);
  EXPECT_NE(r.output.find("memory-stratification"), std::string::npos);
  EXPECT_NE(r.output.find("wrote"), std::string::npos);
  std::ifstream fw(dir_ + "adder.lnfw", std::ios::binary);
  EXPECT_TRUE(fw.good());
}

TEST_F(CliTest, RunExecutesTheLambda) {
  ASSERT_EQ(run_command("compile " + dir_ + "adder.mc --p4 " + dir_ +
                        "adder.p4 -o " + dir_ + "adder.lnfw")
                .exit_code,
            0);
  const auto r = run_command("run " + dir_ +
                             "adder.lnfw --wid 3 --key 40 --value 2");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("return: 0"), std::string::npos);
  // 40 + 2 = 42 = 0x2a little-endian in the response.
  EXPECT_NE(r.output.find("2a 00 00 00 00 00 00 00"), std::string::npos);
  EXPECT_NE(r.output.find("cycles:"), std::string::npos);
}

// Each image passes deserialize(), which checks the format, but fails
// verify(): run must refuse it rather than execute it.
TEST_F(CliTest, RunRejectsFirmwareThatFailsVerification) {
  using lnic::microc::Instr;
  using lnic::microc::Opcode;
  using lnic::microc::Program;
  write_file(dir_ + "hello.mc", R"(
    global u8 msg[16] hot;
    int hello() {
      for (var i = 0; i < 5; i += 1) { store1(msg, i, 72 + i); }
      resp_mem(msg, 0, 5);
      return 0;
    }
  )");
  ASSERT_EQ(run_command("compile " + dir_ + "hello.mc -o " + dir_ +
                        "hello.lnfw")
                .exit_code,
            0);
  std::ifstream in(dir_ + "hello.lnfw", std::ios::binary);
  const std::vector<std::uint8_t> bytes(std::istreambuf_iterator<char>(in),
                                        {});
  auto hello = lnic::microc::deserialize(bytes);
  ASSERT_TRUE(hello.ok());

  // Every instruction with opcode `op`, in program order.
  const auto instrs = [](Program& p, Opcode op) {
    std::vector<Instr*> found;
    for (auto& fn : p.functions) {
      for (auto& block : fn.blocks) {
        for (Instr& instr : block.instrs) {
          if (instr.op == op) found.push_back(&instr);
        }
      }
    }
    return found;
  };
  struct Broken {
    std::string name;
    std::string message;
    std::function<bool(Program&)> edit;  // false when nothing was edited
  };
  const std::vector<Broken> broken = {
      {"const_dst", "register index out of range at const",
       [&](Program& p) {
         const std::vector<Instr*> consts = instrs(p, Opcode::kConst);
         if (!consts.empty()) consts.front()->dst = 60000;
         return !consts.empty();
       }},
      {"dispatch", "dispatch function index out of range",
       [](Program& p) {
         p.dispatch_function = 1000;
         return true;
       }},
      {"call_target", "call target out of range",
       [&](Program& p) {
         const std::vector<Instr*> calls = instrs(p, Opcode::kCall);
         for (Instr* call : calls) call->imm = 5000;
         return !calls.empty();
       }},
  };
  for (const Broken& b : broken) {
    Program p = hello.value();
    ASSERT_TRUE(b.edit(p)) << b.name;
    const std::string path = dir_ + b.name + ".lnfw";
    const std::vector<std::uint8_t> image = lnic::microc::serialize(p);
    std::ofstream(path, std::ios::binary)
        .write(reinterpret_cast<const char*>(image.data()),
               static_cast<std::streamsize>(image.size()));
    const auto r = run_command("run " + path + " --wid 1");
    EXPECT_EQ(r.exit_code, 2) << b.name << ": " << r.output;
    EXPECT_NE(r.output.find("error: "), std::string::npos) << r.output;
    EXPECT_NE(r.output.find(b.message), std::string::npos) << r.output;
  }
}

// A program whose objects outgrow the card's EMEM: compile and run must
// refuse it with a message rather than die allocating the object.
TEST_F(CliTest, CompileRejectsObjectsLargerThanEmem) {
  write_file(dir_ + "huge.mc", R"(
    global u8 msg[4611686018427387904] hot;
    int huge() {
      store1(msg, 0, 72);
      resp_mem(msg, 0, 1);
      return 0;
    }
  )");
  const auto r = run_command("compile " + dir_ + "huge.mc -o " + dir_ +
                             "huge.lnfw");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("exceeds EMEM"), std::string::npos) << r.output;
}

TEST_F(CliTest, RunRejectsObjectsLargerThanEmem) {
  using lnic::microc::MemObject;
  using lnic::microc::MemScope;
  ASSERT_EQ(run_command("compile " + dir_ + "adder.mc -o " + dir_ +
                        "adder.lnfw")
                .exit_code,
            0);
  std::ifstream in(dir_ + "adder.lnfw", std::ios::binary);
  const std::vector<std::uint8_t> bytes(std::istreambuf_iterator<char>(in),
                                        {});
  auto adder = lnic::microc::deserialize(bytes);
  ASSERT_TRUE(adder.ok());
  for (const MemScope scope : {MemScope::kGlobal, MemScope::kLocal}) {
    lnic::microc::Program p = adder.value();
    MemObject huge;
    huge.name = "huge";
    huge.size = std::uint64_t{1} << 62;
    huge.scope = scope;
    p.objects.push_back(huge);
    const std::string path = dir_ + "huge.lnfw";
    const std::vector<std::uint8_t> image = lnic::microc::serialize(p);
    std::ofstream(path, std::ios::binary)
        .write(reinterpret_cast<const char*>(image.data()),
               static_cast<std::streamsize>(image.size()));
    const auto r = run_command("run " + path + " --wid 1 --key 1");
    EXPECT_EQ(r.exit_code, 2) << r.output;
    EXPECT_NE(r.output.find("exceeds EMEM"), std::string::npos) << r.output;
  }
}

TEST_F(CliTest, DisasmListsTheProgram) {
  ASSERT_EQ(run_command("compile " + dir_ + "adder.mc --p4 " + dir_ +
                        "adder.p4 -o " + dir_ + "adder.lnfw")
                .exit_code,
            0);
  const auto r = run_command("disasm " + dir_ + "adder.lnfw");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("func adder"), std::string::npos);
  EXPECT_NE(r.output.find("scratch"), std::string::npos);
  EXPECT_NE(r.output.find("__match_dispatch"), std::string::npos);
}

TEST_F(CliTest, CompileWithoutP4UsesDefaultSpec) {
  const auto r = run_command("compile " + dir_ + "adder.mc -o " + dir_ +
                             "auto.lnfw");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  const auto run = run_command("run " + dir_ +
                               "auto.lnfw --wid 1 --key 1 --value 2");
  EXPECT_EQ(run.exit_code, 0);
  EXPECT_NE(run.output.find("03 00"), std::string::npos);
}

TEST_F(CliTest, HostCostModelReportsMoreTime) {
  ASSERT_EQ(run_command("compile " + dir_ + "adder.mc -o " + dir_ +
                        "auto.lnfw")
                .exit_code,
            0);
  const auto npu = run_command("run " + dir_ + "auto.lnfw --wid 1 --key 1");
  const auto py =
      run_command("run " + dir_ + "auto.lnfw --wid 1 --key 1 --cost python");
  EXPECT_NE(npu.output.find("at npu"), std::string::npos);
  EXPECT_NE(py.output.find("at python"), std::string::npos);
}

TEST_F(CliTest, BadSourceFailsWithDiagnostic) {
  write_file(dir_ + "bad.mc", "int f() { return missing_var; }");
  const auto r = run_command("compile " + dir_ + "bad.mc");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("unknown variable"), std::string::npos);
}

TEST_F(CliTest, MissingFileFails) {
  const auto r = run_command("disasm /nonexistent/file.lnfw");
  EXPECT_EQ(r.exit_code, 2);
}

TEST_F(CliTest, UsageOnNoArguments) {
  const auto r = run_command("");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("usage"), std::string::npos);
}

TEST_F(CliTest, NonNumericFlagIsAUsageError) {
  // The whole token must be a number, in every command.
  for (const char* args :
       {"loadgen poisson --rate abc", "flightrec --requests x",
        "loadgen synth --functions 8x", "kv --zipf nan"}) {
    const auto r = run_command(args);
    EXPECT_EQ(r.exit_code, 1) << args << "\n" << r.output;
    EXPECT_NE(r.output.find("usage"), std::string::npos) << args;
  }
}

TEST_F(CliTest, NegativeFlagIsAUsageError) {
  // "-1" must not wrap to 2^64-1: --functions would then append alias
  // names until memory runs out.
  for (const char* args :
       {"loadgen poisson --functions -1", "loadgen poisson --duration-ms -5",
        "trace web --requests -2", "kv --txns -3"}) {
    const auto r = run_command(args);
    EXPECT_EQ(r.exit_code, 1) << args << "\n" << r.output;
    EXPECT_NE(r.output.find("usage"), std::string::npos) << args;
  }
}

TEST_F(CliTest, KvWarehousesOutsideOneTo1024AreAUsageError) {
  // Zero warehouses would load no district or stock row to order from;
  // above the cap, populate() would load 4,096 stock rows per warehouse.
  for (const char* args : {"kv --mix tpcc --warehouses 0",
                           "kv --mix tpcc --warehouses 1025"}) {
    const auto r = run_command(args);
    EXPECT_EQ(r.exit_code, 1) << args << "\n" << r.output;
    EXPECT_NE(r.output.find("usage"), std::string::npos) << args;
  }
}

TEST_F(CliTest, LoadgenOfferingMoreThanAMillionRequestsIsAUsageError) {
  // Rate times duration is what the generator offers; synth holds every
  // arrival in its trace, at up to the peak rate (4x --rate by default).
  for (const std::string& args :
       {std::string("loadgen poisson --rate 1000001 --duration-ms 1000 "
                    "--functions 1"),
        "loadgen synth --rate 250001 --duration-ms 1000 --out " + dir_ +
            "big.trace"}) {
    const auto r = run_command(args);
    EXPECT_EQ(r.exit_code, 1) << args << "\n" << r.output;
    EXPECT_NE(r.output.find("usage"), std::string::npos) << args;
  }
}

}  // namespace
