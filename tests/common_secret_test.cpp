// Tests for the Secret<N>/SecretBytes wrappers: zeroize-on-drop (inspected
// through placement-new storage), wiping moves, the deleted-operation
// surface, and constant-time equality.
#include "common/secret.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <concepts>
#include <new>
#include <ostream>
#include <type_traits>

#include "common/bytes.hpp"

namespace xsearch {
namespace {

using Key = Secret<32>;

Key::Raw patterned_raw(std::uint8_t fill = 0xab) {
  Key::Raw raw{};
  raw.fill(fill);
  return raw;
}

bool all_zero(const unsigned char* p, std::size_t n) {
  return std::all_of(p, p + n, [](unsigned char b) { return b == 0; });
}

// ---- compile-time surface ---------------------------------------------------

// Bytes never silently become secrets, and secrets never compare or print.
static_assert(!std::is_convertible_v<Key::Raw, Key>);
static_assert(!std::is_convertible_v<Bytes, SecretBytes>);
static_assert(!std::equality_comparable<Key>);
static_assert(!std::equality_comparable<SecretBytes>);

template <typename T, typename = void>
struct is_streamable : std::false_type {};
template <typename T>
struct is_streamable<T, std::void_t<decltype(std::declval<std::ostream&>()
                                             << std::declval<const T&>())>>
    : std::true_type {};
static_assert(!is_streamable<Key>::value);
static_assert(!is_streamable<SecretBytes>::value);

// ---- zeroize on destroy -----------------------------------------------------

TEST(Secret, DestructionWipesStorage) {
  // Secret<N>'s only state is the key array, so after an in-place destructor
  // call the object's storage must read back as zeroes — destruction may not
  // leave key material in the dead stack frame.
  alignas(Key) unsigned char storage[sizeof(Key)];
  Key* key = new (storage) Key(patterned_raw());
  ASSERT_TRUE(constant_time_equal(*key, ByteSpan(patterned_raw())));
  key->~Key();
  EXPECT_TRUE(all_zero(storage, sizeof storage));
}

TEST(Secret, MoveWipesTheSource) {
  alignas(Key) unsigned char storage[sizeof(Key)];
  Key* source = new (storage) Key(patterned_raw(0x5c));
  const Key stolen(std::move(*source));
  EXPECT_TRUE(all_zero(storage, sizeof storage));
  EXPECT_TRUE(constant_time_equal(stolen, ByteSpan(patterned_raw(0x5c))));
  source->~Key();
}

TEST(Secret, MoveAssignmentWipesTheSource) {
  alignas(Key) unsigned char storage[sizeof(Key)];
  Key* source = new (storage) Key(patterned_raw(0x77));
  Key target;
  target = std::move(*source);
  EXPECT_TRUE(all_zero(storage, sizeof storage));
  EXPECT_TRUE(constant_time_equal(target, ByteSpan(patterned_raw(0x77))));
  source->~Key();
}

TEST(Secret, AbsorbWipesTheStagingBuffer) {
  Key::Raw staging = patterned_raw(0x42);
  const Key key = Key::absorb(staging);
  EXPECT_TRUE(all_zero(staging.data(), staging.size()));
  EXPECT_TRUE(constant_time_equal(key, ByteSpan(patterned_raw(0x42))));
}

TEST(Secret, DefaultConstructedIsAllZero) {
  const Key key;
  EXPECT_TRUE(constant_time_equal(key, ByteSpan(Key::Raw{})));
}

// ---- constant-time equality -------------------------------------------------

TEST(Secret, ConstantTimeEqualityIsTheOnlyEquality) {
  const Key a(patterned_raw(1));
  const Key b(patterned_raw(1));
  const Key c(patterned_raw(2));
  EXPECT_TRUE(constant_time_equal(a, b));
  EXPECT_FALSE(constant_time_equal(a, c));
}

TEST(Secret, ExposeReturnsTheBytes) {
  const Key key(patterned_raw(0x99));
  const auto view = key.expose(SecretSink::kTestVector);
  ASSERT_EQ(view.size(), 32u);
  EXPECT_EQ(view[0], 0x99);
  EXPECT_EQ(view[31], 0x99);
}

// ---- SecretBytes ------------------------------------------------------------

TEST(SecretBytes, MoveFromLeavesSourceEmpty) {
  SecretBytes source(Bytes(16, 0xee));
  const SecretBytes sink(std::move(source));
  EXPECT_TRUE(source.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(sink.size(), 16u);
}

TEST(SecretBytes, MoveAssignWipesOwnBufferFirst) {
  SecretBytes target(Bytes(8, 0x11));
  SecretBytes source(Bytes(4, 0x22));
  target = std::move(source);
  EXPECT_EQ(target.size(), 4u);
  EXPECT_TRUE(source.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(constant_time_equal(target, Bytes(4, 0x22)));
}

TEST(SecretBytes, SliceCutsASecretWithoutExposure) {
  Bytes material(64, 0);
  for (std::size_t i = 0; i < material.size(); ++i) {
    material[i] = static_cast<std::uint8_t>(i);
  }
  const SecretBytes okm{Bytes(material)};
  const Secret<32> first = okm.slice<32>(0);
  const Secret<32> second = okm.slice<32>(32);
  EXPECT_TRUE(constant_time_equal(first, ByteSpan(material.data(), 32)));
  EXPECT_TRUE(constant_time_equal(second, ByteSpan(material.data() + 32, 32)));
  EXPECT_FALSE(constant_time_equal(first, second));
}

TEST(SecretBytesDeathTest, SlicePastTheEndAbortsInEveryBuild) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const SecretBytes okm{Bytes(64, 0x5a)};
  EXPECT_DEATH((void)okm.slice<32>(33), "slice past the end of the secret");
}

TEST(SecretBytes, ConstantTimeEquality) {
  const SecretBytes a(Bytes(10, 7));
  const SecretBytes b(Bytes(10, 7));
  const SecretBytes c(Bytes(10, 8));
  const SecretBytes shorter(Bytes(9, 7));
  EXPECT_TRUE(constant_time_equal(a, b));
  EXPECT_FALSE(constant_time_equal(a, c));
  EXPECT_FALSE(constant_time_equal(a, shorter));
}

// ---- secure_wipe itself -----------------------------------------------------

TEST(SecureWipe, ZeroesTheBuffer) {
  Bytes buffer(33, 0xf0);
  secure_wipe(buffer);
  EXPECT_TRUE(all_zero(buffer.data(), buffer.size()));
}

TEST(SecureWipe, ToleratesNullAndEmpty) {
  secure_wipe(nullptr, 0);
  Bytes empty;
  secure_wipe(empty);  // no crash
}

}  // namespace
}  // namespace xsearch
