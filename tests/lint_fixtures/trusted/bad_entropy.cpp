// Fixture: a "trusted" translation unit drawing entropy from the host
// instead of the enclave runtime. tools_tcb_lint_test expects tcb_lint to
// flag each of the seven lines below (trusted-insecure-rng).
#include <immintrin.h>
#include <sys/random.h>

#include <cstdio>
#include <cstdlib>

void fixture_host_entropy(unsigned char* out, unsigned long n) {
  (void)getrandom(out, n, 0);
  (void)getentropy(out, n);
  std::FILE* device = std::fopen("/dev/urandom", "rb");
  unsigned long long word = 0;
  (void)_rdrand64_step(&word);
  (void)_rdseed64_step(&word);
  arc4random_buf(out, n);
  (void)__builtin_ia32_rdrand32_step(reinterpret_cast<unsigned*>(&word));
  (void)device;
}
