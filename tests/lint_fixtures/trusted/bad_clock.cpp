// Fixture: a "trusted" translation unit reading the host clock directly.
// tools_tcb_lint_test expects tcb_lint to flag this line (trusted-wall-clock).
#include "common/clock.hpp"

long long fixture_idle_for(long long last_used) {
  return xsearch::wall_now() - last_used;
}
