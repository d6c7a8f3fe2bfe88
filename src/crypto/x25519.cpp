#include "crypto/x25519.hpp"

#include <cstring>

namespace xsearch::crypto {

namespace {

// Field element mod p = 2^255 - 19, five 51-bit limbs (radix 2^51).
struct Fe {
  std::uint64_t v[5];
};

constexpr std::uint64_t kMask51 = (std::uint64_t{1} << 51) - 1;

void fe_zero(Fe& h) { h = {{0, 0, 0, 0, 0}}; }
void fe_one(Fe& h) { h = {{1, 0, 0, 0, 0}}; }

void fe_add(Fe& h, const Fe& f, const Fe& g) {
  for (int i = 0; i < 5; ++i) h.v[i] = f.v[i] + g.v[i];
}

// h = f - g, adding a multiple of p (8p spread over the limbs) so limbs
// never go negative. Inputs must have limbs < 2^54.
void fe_sub(Fe& h, const Fe& f, const Fe& g) {
  constexpr std::uint64_t kTwo54m152 = (std::uint64_t{1} << 54) - 152;  // 8*(2^51-19)
  constexpr std::uint64_t kTwo54m8 = (std::uint64_t{1} << 54) - 8;      // 8*(2^51-1)
  h.v[0] = f.v[0] + kTwo54m152 - g.v[0];
  h.v[1] = f.v[1] + kTwo54m8 - g.v[1];
  h.v[2] = f.v[2] + kTwo54m8 - g.v[2];
  h.v[3] = f.v[3] + kTwo54m8 - g.v[3];
  h.v[4] = f.v[4] + kTwo54m8 - g.v[4];
}

using U128 = unsigned __int128;

void fe_carry(Fe& h, U128 t0, U128 t1, U128 t2, U128 t3, U128 t4) {
  std::uint64_t c;
  c = static_cast<std::uint64_t>(t0 >> 51);
  h.v[0] = static_cast<std::uint64_t>(t0) & kMask51;
  t1 += c;
  c = static_cast<std::uint64_t>(t1 >> 51);
  h.v[1] = static_cast<std::uint64_t>(t1) & kMask51;
  t2 += c;
  c = static_cast<std::uint64_t>(t2 >> 51);
  h.v[2] = static_cast<std::uint64_t>(t2) & kMask51;
  t3 += c;
  c = static_cast<std::uint64_t>(t3 >> 51);
  h.v[3] = static_cast<std::uint64_t>(t3) & kMask51;
  t4 += c;
  c = static_cast<std::uint64_t>(t4 >> 51);
  h.v[4] = static_cast<std::uint64_t>(t4) & kMask51;
  h.v[0] += c * 19;
  c = h.v[0] >> 51;
  h.v[0] &= kMask51;
  h.v[1] += c;
}

void fe_mul(Fe& h, const Fe& f, const Fe& g) {
  const std::uint64_t f0 = f.v[0], f1 = f.v[1], f2 = f.v[2], f3 = f.v[3], f4 = f.v[4];
  const std::uint64_t g0 = g.v[0], g1 = g.v[1], g2 = g.v[2], g3 = g.v[3], g4 = g.v[4];
  const std::uint64_t g1_19 = g1 * 19, g2_19 = g2 * 19, g3_19 = g3 * 19, g4_19 = g4 * 19;

  const U128 t0 = static_cast<U128>(f0) * g0 + static_cast<U128>(f1) * g4_19 +
                  static_cast<U128>(f2) * g3_19 + static_cast<U128>(f3) * g2_19 +
                  static_cast<U128>(f4) * g1_19;
  const U128 t1 = static_cast<U128>(f0) * g1 + static_cast<U128>(f1) * g0 +
                  static_cast<U128>(f2) * g4_19 + static_cast<U128>(f3) * g3_19 +
                  static_cast<U128>(f4) * g2_19;
  const U128 t2 = static_cast<U128>(f0) * g2 + static_cast<U128>(f1) * g1 +
                  static_cast<U128>(f2) * g0 + static_cast<U128>(f3) * g4_19 +
                  static_cast<U128>(f4) * g3_19;
  const U128 t3 = static_cast<U128>(f0) * g3 + static_cast<U128>(f1) * g2 +
                  static_cast<U128>(f2) * g1 + static_cast<U128>(f3) * g0 +
                  static_cast<U128>(f4) * g4_19;
  const U128 t4 = static_cast<U128>(f0) * g4 + static_cast<U128>(f1) * g3 +
                  static_cast<U128>(f2) * g2 + static_cast<U128>(f3) * g1 +
                  static_cast<U128>(f4) * g0;
  fe_carry(h, t0, t1, t2, t3, t4);
}

// h = f^2. Squaring is symmetric, so each cross product f_i*f_j (i != j)
// appears twice in fe_mul's sums; computing it once against a doubled limb
// needs 15 limb products instead of 25. Per output limb (19 folds 2^255):
//   t0 = f0^2      + 38 f1 f4 + 38 f2 f3
//   t1 = 2 f0 f1   + 38 f2 f4 + 19 f3^2
//   t2 = 2 f0 f2   + f1^2     + 38 f3 f4
//   t3 = 2 f0 f3   + 2 f1 f2  + 19 f4^2
//   t4 = 2 f0 f4   + 2 f1 f3  + f2^2
//
// Limb bounds. fe_carry leaves limbs < 2^51 + 2^13, fe_add of two such
// values < 2^53 and fe_sub (above) < 2^54.2; the ladder and the inversion
// square nothing else. For limbs < B = 2^54.2 the doubled limbs (< 2^56)
// and the 19-multiples (< 2^60) fit a u64. The sums are fe_mul's for
// g = f, regrouped, so they share its bounds: t0 <= 77 B^2 < 2^115 keeps
// every carry fe_carry extracts below 2^64, and t4 <= 5 B^2 < 2^111 keeps
// its fold of the top carry times 19 below 2^64.
void fe_sq(Fe& h, const Fe& f) {
  const std::uint64_t f0 = f.v[0], f1 = f.v[1], f2 = f.v[2], f3 = f.v[3], f4 = f.v[4];
  const std::uint64_t f0_2 = 2 * f0, f1_2 = 2 * f1, f2_2 = 2 * f2, f3_2 = 2 * f3;
  const std::uint64_t f3_19 = 19 * f3, f4_19 = 19 * f4;

  const U128 t0 = static_cast<U128>(f0) * f0 + static_cast<U128>(f1_2) * f4_19 +
                  static_cast<U128>(f2_2) * f3_19;
  const U128 t1 = static_cast<U128>(f0_2) * f1 + static_cast<U128>(f2_2) * f4_19 +
                  static_cast<U128>(f3) * f3_19;
  const U128 t2 = static_cast<U128>(f0_2) * f2 + static_cast<U128>(f1) * f1 +
                  static_cast<U128>(f3_2) * f4_19;
  const U128 t3 = static_cast<U128>(f0_2) * f3 + static_cast<U128>(f1_2) * f2 +
                  static_cast<U128>(f4) * f4_19;
  const U128 t4 = static_cast<U128>(f0_2) * f4 + static_cast<U128>(f1_2) * f3 +
                  static_cast<U128>(f2) * f2;
  fe_carry(h, t0, t1, t2, t3, t4);
}

void fe_sq_n(Fe& h, const Fe& f, int n) {
  fe_sq(h, f);
  for (int i = 1; i < n; ++i) fe_sq(h, h);
}

// h = f * 121666 (the (A+2)/4 constant of the Montgomery ladder).
void fe_mul121666(Fe& h, const Fe& f) {
  U128 t[5];
  for (int i = 0; i < 5; ++i) t[i] = static_cast<U128>(f.v[i]) * 121666;
  fe_carry(h, t[0], t[1], t[2], t[3], t[4]);
}

// h = f^(p-2) = 1/f, via the standard square-and-multiply chain.
void fe_invert(Fe& out, const Fe& z) {
  Fe z2, z9, z11, z2_5_0, z2_10_0, z2_20_0, z2_50_0, z2_100_0, t;
  fe_sq(z2, z);                    // 2
  fe_sq_n(t, z2, 2);               // 8
  fe_mul(z9, t, z);                // 9
  fe_mul(z11, z9, z2);             // 11
  fe_sq(t, z11);                   // 22
  fe_mul(z2_5_0, t, z9);           // 31 = 2^5 - 2^0
  fe_sq_n(t, z2_5_0, 5);           // 2^10 - 2^5
  fe_mul(z2_10_0, t, z2_5_0);      // 2^10 - 2^0
  fe_sq_n(t, z2_10_0, 10);         // 2^20 - 2^10
  fe_mul(z2_20_0, t, z2_10_0);     // 2^20 - 2^0
  fe_sq_n(t, z2_20_0, 20);         // 2^40 - 2^20
  fe_mul(t, t, z2_20_0);           // 2^40 - 2^0
  fe_sq_n(t, t, 10);               // 2^50 - 2^10
  fe_mul(z2_50_0, t, z2_10_0);     // 2^50 - 2^0
  fe_sq_n(t, z2_50_0, 50);         // 2^100 - 2^50
  fe_mul(z2_100_0, t, z2_50_0);    // 2^100 - 2^0
  fe_sq_n(t, z2_100_0, 100);       // 2^200 - 2^100
  fe_mul(t, t, z2_100_0);          // 2^200 - 2^0
  fe_sq_n(t, t, 50);               // 2^250 - 2^50
  fe_mul(t, t, z2_50_0);           // 2^250 - 2^0
  fe_sq_n(t, t, 5);                // 2^255 - 2^5
  fe_mul(out, t, z11);             // 2^255 - 21 = p - 2
}

void fe_from_bytes(Fe& h, const std::uint8_t* s) {
  const std::uint64_t w0 = xsearch::load_le64(s);
  const std::uint64_t w1 = xsearch::load_le64(s + 8);
  const std::uint64_t w2 = xsearch::load_le64(s + 16);
  const std::uint64_t w3 = xsearch::load_le64(s + 24);
  h.v[0] = w0 & kMask51;
  h.v[1] = ((w0 >> 51) | (w1 << 13)) & kMask51;
  h.v[2] = ((w1 >> 38) | (w2 << 26)) & kMask51;
  h.v[3] = ((w2 >> 25) | (w3 << 39)) & kMask51;
  h.v[4] = (w3 >> 12) & kMask51;  // top bit of the encoding is ignored
}

void fe_to_bytes(std::uint8_t* s, const Fe& f) {
  Fe h = f;
  // Two carry passes bring every limb below 2^51 (+ tiny epsilon).
  for (int pass = 0; pass < 2; ++pass) {
    std::uint64_t c = 0;
    for (int i = 0; i < 5; ++i) {
      h.v[i] += c;
      c = h.v[i] >> 51;
      h.v[i] &= kMask51;
    }
    h.v[0] += c * 19;
  }
  // Conditionally subtract p: compute h + 19, if bit 255 set then h >= p.
  std::uint64_t c = 19;
  std::uint64_t t[5];
  for (int i = 0; i < 5; ++i) {
    t[i] = h.v[i] + c;
    c = t[i] >> 51;
    t[i] &= kMask51;
  }
  const std::uint64_t q = c;  // 1 if h >= p
  // h -= q * p  <=>  h += 19q then drop bit 255.
  h.v[0] += 19 * q;
  c = 0;
  for (int i = 0; i < 5; ++i) {
    h.v[i] += c;
    c = h.v[i] >> 51;
    h.v[i] &= kMask51;
  }
  // c here is the dropped 2^255 carry (equals q).

  const std::uint64_t w0 = h.v[0] | (h.v[1] << 51);
  const std::uint64_t w1 = (h.v[1] >> 13) | (h.v[2] << 38);
  const std::uint64_t w2 = (h.v[2] >> 26) | (h.v[3] << 25);
  const std::uint64_t w3 = (h.v[3] >> 39) | (h.v[4] << 12);
  xsearch::store_le64(s, w0);
  xsearch::store_le64(s + 8, w1);
  xsearch::store_le64(s + 16, w2);
  xsearch::store_le64(s + 24, w3);
}

// Constant-time conditional swap of (f, g) when bit == 1.
void fe_cswap(Fe& f, Fe& g, std::uint64_t bit) {
  const std::uint64_t mask = 0 - bit;
  for (int i = 0; i < 5; ++i) {
    const std::uint64_t x = mask & (f.v[i] ^ g.v[i]);
    f.v[i] ^= x;
    g.v[i] ^= x;
  }
}

}  // namespace

X25519Key x25519(const X25519Secret& scalar, const X25519Key& point) {
  const auto scalar_bytes = scalar.expose(SecretSink::kCipherCore);
  std::array<std::uint8_t, kX25519KeySize> e;
  std::memcpy(e.data(), scalar_bytes.data(), e.size());
  e[0] &= 248;
  e[31] &= 127;
  e[31] |= 64;

  Fe x1;
  fe_from_bytes(x1, point.data());

  Fe x2, z2, x3, z3;
  fe_one(x2);
  fe_zero(z2);
  x3 = x1;
  fe_one(z3);

  std::uint64_t swap = 0;
  for (int t = 254; t >= 0; --t) {
    const std::uint64_t k_t = (e[static_cast<std::size_t>(t / 8)] >> (t % 8)) & 1;
    swap ^= k_t;
    fe_cswap(x2, x3, swap);
    fe_cswap(z2, z3, swap);
    swap = k_t;

    Fe a, aa, b, bb, eo, c, d, da, cb, tmp;
    fe_add(a, x2, z2);
    fe_sq(aa, a);
    fe_sub(b, x2, z2);
    fe_sq(bb, b);
    fe_sub(eo, aa, bb);
    fe_add(c, x3, z3);
    fe_sub(d, x3, z3);
    fe_mul(da, d, a);
    fe_mul(cb, c, b);
    fe_add(tmp, da, cb);
    fe_sq(x3, tmp);
    fe_sub(tmp, da, cb);
    fe_sq(tmp, tmp);
    fe_mul(z3, x1, tmp);
    fe_mul(x2, aa, bb);
    // z2 = E * (AA + a24*E); with a24 = 121665 and AA = BB + E this is
    // equivalently E * (BB + 121666*E), which needs one constant only.
    fe_mul121666(tmp, eo);
    fe_add(tmp, bb, tmp);
    fe_mul(z2, eo, tmp);
  }
  fe_cswap(x2, x3, swap);
  fe_cswap(z2, z3, swap);

  Fe z_inv, out;
  fe_invert(z_inv, z2);
  fe_mul(out, x2, z_inv);

  X25519Key result;
  fe_to_bytes(result.data(), out);
  // secret-flow rule: the clamped scalar copy must not outlive the ladder
  // (this stack copy was a known pre-Secret leak).
  secure_wipe(e);
  return result;
}

X25519Key x25519_public_key(const X25519Secret& private_key) {
  X25519Key base{};
  base[0] = 9;
  return x25519(private_key, base);
}

X25519KeyPair x25519_keypair_from_seed(const X25519Secret& seed) {
  // The stored private key keeps the raw seed bits; clamping happens inside
  // the ladder on every use, so clamp-equivalent seeds still agree on the
  // public key.
  X25519KeyPair kp;
  kp.private_key = seed;
  kp.public_key = x25519_public_key(kp.private_key);
  return kp;
}

}  // namespace xsearch::crypto
