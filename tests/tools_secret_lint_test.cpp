// Regression tests for tools/secret_lint.py, the secret-flow linter.
//
// Each case shells out to the linter (python3, stdlib only) against either
// the checked-in fixtures under tests/lint_fixtures/secret/ or the real
// tree, and asserts on exit status + output. This keeps the linter itself
// under ctest: a regex regression that stops flagging a logged key or an
// unregistered expose() tag fails here, not silently in CI.

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
  std::string cmd = "python3 " XS_SOURCE_DIR "/tools/secret_lint.py --root " XS_SOURCE_DIR
                    " --config " + config;
  if (!only.empty()) cmd += " --only " + only;
  return cmd;
}

const std::string kFixtureConfig =
    XS_SOURCE_DIR "/tests/lint_fixtures/secret_fixture.toml";
const std::string kRealConfig = XS_SOURCE_DIR "/tools/secret_policy.toml";

class SecretLintTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!python_available()) GTEST_SKIP() << "python3 not on PATH";
  }
};

TEST_F(SecretLintTest, LoggedKeyAndBadSinkTagsFail) {
  const auto r =
      run(lint(kFixtureConfig, "tests/lint_fixtures/secret/bad_log_key.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  // The logged identifier, the unregistered tag, and the tests-only tag in
  // trusted code are three separate findings.
  EXPECT_NE(r.output.find("secret-in-message"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("kBogusSink"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("kTestVector is not allowed in trusted"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("3 finding(s)"), std::string::npos) << r.output;
}

TEST_F(SecretLintTest, WaivedLinePassesAndIsCounted) {
  const auto r = run(
      lint(kFixtureConfig, "tests/lint_fixtures/secret/waived_branch.cpp"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("0 finding(s), 1 waiver(s)"), std::string::npos)
      << r.output;
  // The written reason is echoed, so reviewers see it in CI output.
  EXPECT_NE(r.output.find("demonstrates the per-line waiver syntax"),
            std::string::npos)
      << r.output;
}

TEST_F(SecretLintTest, WaiverWithoutReasonIsAFinding) {
  const auto r =
      run(lint(kFixtureConfig, "tests/lint_fixtures/secret/bare_waiver.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("no written reason"), std::string::npos) << r.output;
}

// Metric series named from run-time values (a session id, a query, a user
// name) are three findings; the real policy's rule fires on the same file,
// where a config exemption keeps the fixture out of the real-tree gate.
TEST_F(SecretLintTest, MetricNamesFromRuntimeValuesFail) {
  const std::string fixture = "tests/lint_fixtures/secret/metric_names_runtime.cpp";
  const auto r = run(lint(kFixtureConfig, fixture));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("metric-name-literal"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("3 finding(s)"), std::string::npos) << r.output;

  const auto real = run(lint(kRealConfig, fixture));
  EXPECT_EQ(real.exit_code, 0) << real.output;
  EXPECT_NE(real.output.find("waived [metric-name-literal]"), std::string::npos)
      << real.output;
}

TEST_F(SecretLintTest, LiteralMetricNamesPass) {
  const auto r = run(lint(
      kFixtureConfig, "tests/lint_fixtures/secret/metric_names_literal.cpp"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("0 finding(s), 0 waiver(s)"), std::string::npos)
      << r.output;
}

// The acceptance gate: the real tree must lint clean — zero unwaived
// findings against tools/secret_policy.toml, with every expose() carrying a
// registered sink tag. A new leak of key material into a log, Status,
// branch, or subscript fails this test locally before CI ever sees it.
TEST_F(SecretLintTest, RealTreeIsClean) {
  const auto r = run(lint(kRealConfig));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("0 finding(s)"), std::string::npos) << r.output;
  // The known exposure sites are enumerated, not hidden: the cipher cores
  // read keys, and tests check published vectors.
  EXPECT_NE(r.output.find("exposure site(s)"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("expose [kCipherCore]"), std::string::npos)
      << r.output;
}

}  // namespace
