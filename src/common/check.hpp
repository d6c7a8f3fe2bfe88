// Contracts that hold in every build.
//
// `assert` compiles out under NDEBUG, and every preset (dev, asan, tsan,
// release) defines it. A constructor contract whose breach would leave an
// object running in a broken state (a zero-entry history window, a
// supervisor whose every probe is already late), a bounds contract whose
// breach would touch memory past a buffer (a seal into a record too short
// for its nonce, a key sliced past its source), and a crypto contract whose
// breach would silently change the algorithm (an HKDF expansion past RFC
// 5869's 255 blocks) is stated with XS_CHECK instead: it aborts with the
// failed condition in every build, so a death test can pin it.
#pragma once

#include <cstdio>
#include <cstdlib>

namespace xsearch {

[[noreturn]] inline void check_failed(const char* condition, const char* message,
                                      const char* file, int line) {
  std::fprintf(stderr, "%s:%d: check failed: %s (%s)\n", file, line, condition, message);
  std::abort();
}

}  // namespace xsearch

#define XS_CHECK(condition, message)                                     \
  ((condition) ? static_cast<void>(0)                                    \
               : ::xsearch::check_failed(#condition, message, __FILE__, __LINE__))
