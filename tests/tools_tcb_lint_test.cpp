// Regression tests for tools/tcb_lint.py, the TCB-boundary linter.
//
// Each case shells out to the linter (python3, stdlib only) against either
// the checked-in fixtures under tests/lint_fixtures/ or the real tree, and
// asserts on exit status + output. This keeps the linter itself under
// ctest: a regex regression that stops flagging host I/O in trusted code
// fails here, not silently in CI.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

namespace {

#ifndef XS_SOURCE_DIR
#error "XS_SOURCE_DIR must point at the repo root (set by CMakeLists.txt)"
#endif

struct RunResult {
  int exit_code = -1;
  std::string output;
};

RunResult run(const std::string& command) {
  RunResult result;
  FILE* pipe = popen((command + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return result;
  char buffer[4096];
  while (std::fgets(buffer, sizeof buffer, pipe) != nullptr) {
    result.output += buffer;
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

bool python_available() {
  return run("python3 --version").exit_code == 0;
}

std::string lint(const std::string& config, const std::string& only = "") {
  std::string cmd = "python3 " XS_SOURCE_DIR "/tools/tcb_lint.py --root " XS_SOURCE_DIR
                    " --config " + config;
  if (!only.empty()) cmd += " --only " + only;
  return cmd;
}

const std::string kFixtureConfig =
    XS_SOURCE_DIR "/tests/lint_fixtures/tcb_fixture.toml";
const std::string kRealConfig = XS_SOURCE_DIR "/tools/tcb_boundary.toml";

class TcbLintTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!python_available()) GTEST_SKIP() << "python3 not on PATH";
  }
};

TEST_F(TcbLintTest, TrustedFileCallingRecvFails) {
  const auto r =
      run(lint(kFixtureConfig, "tests/lint_fixtures/trusted/bad_recv.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("trusted-host-io"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("bad_recv.cpp"), std::string::npos) << r.output;
}

TEST_F(TcbLintTest, TrustedFileReadingWallClockFails) {
  const auto r =
      run(lint(kFixtureConfig, "tests/lint_fixtures/trusted/bad_clock.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("trusted-wall-clock"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("bad_clock.cpp"), std::string::npos) << r.output;
}

// Every host entropy source the rule knows, one per line: the enclave
// runtime's DRBG is the TCB's only source, so each line is a finding.
TEST_F(TcbLintTest, TrustedFileDrawingHostEntropyFails) {
  const auto r =
      run(lint(kFixtureConfig, "tests/lint_fixtures/trusted/bad_entropy.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("trusted-insecure-rng"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("7 finding(s)"), std::string::npos) << r.output;
}

TEST_F(TcbLintTest, WaivedLinePassesAndIsCounted) {
  const auto r =
      run(lint(kFixtureConfig, "tests/lint_fixtures/trusted/waived_recv.cpp"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("0 finding(s), 1 waiver(s)"), std::string::npos)
      << r.output;
  // The written reason is echoed, so reviewers see it in CI output.
  EXPECT_NE(r.output.find("demonstrates the per-line waiver syntax"),
            std::string::npos)
      << r.output;
}

TEST_F(TcbLintTest, WaiverWithoutReasonIsAFinding) {
  const auto r =
      run(lint(kFixtureConfig, "tests/lint_fixtures/trusted/bare_waiver.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("no written reason"), std::string::npos) << r.output;
}

TEST_F(TcbLintTest, UntrustedIncludeOfEnclaveHeaderFails) {
  const auto r = run(
      lint(kFixtureConfig, "tests/lint_fixtures/untrusted/bad_include.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("untrusted-enclave-header"), std::string::npos)
      << r.output;
}

// The acceptance gate: the real tree must lint clean — zero unwaived
// findings against tools/tcb_boundary.toml. Any new host-ism in trusted
// code (or enclave peek from untrusted code) fails this test locally
// before CI ever sees it.
TEST_F(TcbLintTest, RealTreeIsClean) {
  const auto r = run(lint(kRealConfig));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("0 finding(s)"), std::string::npos) << r.output;
}

// Trusted code takes time only as host input (deadlines are enforced
// host-side, idle reaping lives in the reactor), so the real tree needs no
// escape hatch from the clock rule: a new waiver for it is a design change
// to argue for, not a line to slip in.
TEST_F(TcbLintTest, RealTreeHasNoTrustedClockWaiver) {
  const auto r = run(lint(kRealConfig));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(r.output.find("waived [trusted-wall-clock]"), std::string::npos)
      << r.output;
}

// The enclave's secrets come from one DRBG, seeded through one ingress:
// SecureRandom's default constructor in src/crypto/random.cpp. A second
// waived entropy source in trusted code would be a second seed to audit.
TEST_F(TcbLintTest, RealTreeHasOneEntropyWaiver) {
  const auto r = run(lint(kRealConfig));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  const std::string waiver = "waived [trusted-insecure-rng]";
  const std::size_t first = r.output.find(waiver);
  ASSERT_NE(first, std::string::npos) << r.output;
  EXPECT_EQ(r.output.find(waiver, first + 1), std::string::npos) << r.output;
  const std::size_t line_end = r.output.find('\n', first);
  EXPECT_NE(r.output.substr(first, line_end - first).find("src/crypto/random.cpp"),
            std::string::npos)
      << r.output;
}

}  // namespace
