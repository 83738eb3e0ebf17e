/**
 * @file
 * Crypto substrate tests against published vectors: SHA-256
 * (FIPS 180-4 examples), AES-128 (FIPS 197 appendix), and
 * HMAC-SHA256 (RFC 4231).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "sim/logging.hh"
#include "sim/random.hh"
#include "tee/aes128.hh"
#include "tee/hmac.hh"
#include "tee/sha256.hh"

namespace snpu
{
namespace
{

std::vector<std::uint8_t>
bytes(const char *s)
{
    return std::vector<std::uint8_t>(s, s + std::strlen(s));
}

TEST(Sha256, EmptyString)
{
    EXPECT_EQ(Sha256::toHex(Sha256::hash(nullptr, 0)),
              "e3b0c44298fc1c149afbf4c8996fb924"
              "27ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc)
{
    const auto msg = bytes("abc");
    EXPECT_EQ(Sha256::toHex(Sha256::hash(msg)),
              "ba7816bf8f01cfea414140de5dae2223"
              "b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage)
{
    const auto msg = bytes(
        "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
    EXPECT_EQ(Sha256::toHex(Sha256::hash(msg)),
              "248d6a61d20638b8e5c026930c3e6039"
              "a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs)
{
    Sha256 ctx;
    std::vector<std::uint8_t> chunk(1000, 'a');
    for (int i = 0; i < 1000; ++i)
        ctx.update(chunk.data(), chunk.size());
    EXPECT_EQ(Sha256::toHex(ctx.finish()),
              "cdc76e5c9914fb9281a1c7e284d73e67"
              "f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShotAcrossRandomSplits)
{
    Rng rng(5);
    std::vector<std::uint8_t> data(4096);
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.next());
    const Digest expected = Sha256::hash(data);

    for (int trial = 0; trial < 20; ++trial) {
        Sha256 ctx;
        std::size_t off = 0;
        while (off < data.size()) {
            const std::size_t n = std::min<std::size_t>(
                1 + rng.below(200), data.size() - off);
            ctx.update(data.data() + off, n);
            off += n;
        }
        EXPECT_TRUE(digestEqual(ctx.finish(), expected));
    }
}

TEST(Sha256, KernelsAgreeOnRandomStateAndBlocks)
{
    // Both compress kernels against each other, one and several
    // blocks per call, from random chaining states. Without the SHA
    // extensions only the portable kernel exists and the NIST
    // vectors above check it.
    const sha256_detail::CompressFn shani = sha256_detail::shaNiKernel();
    if (!shani)
        GTEST_SKIP() << "host has no SHA extensions";
    Rng rng(19);
    for (int trial = 0; trial < 10000; ++trial) {
        const std::size_t nblocks = trial % 4 == 0 ? 1 + rng.below(4) : 1;
        std::vector<std::uint8_t> blocks(64 * nblocks);
        for (auto &b : blocks)
            b = static_cast<std::uint8_t>(rng.next());
        std::uint32_t portable[8];
        for (auto &w : portable)
            w = static_cast<std::uint32_t>(rng.next());
        std::uint32_t fast[8];
        std::memcpy(fast, portable, sizeof(fast));
        sha256_detail::compressPortable(portable, blocks.data(), nblocks);
        shani(fast, blocks.data(), nblocks);
        ASSERT_EQ(std::memcmp(portable, fast, sizeof(fast)), 0)
            << "trial " << trial;
    }
}

TEST(Sha256, NistVectorsAcrossBlockBoundarySplits)
{
    // The padding and the direct-from-input block path meet at the
    // 55/56/63/64/65-byte boundaries: split every vector there and at
    // random points, and hash inputs of exactly those lengths.
    struct Vector
    {
        std::string msg;
        const char *hex;
    };
    const Vector vectors[] = {
        {"", "e3b0c44298fc1c149afbf4c8996fb924"
             "27ae41e4649b934ca495991b7852b855"},
        {"abc", "ba7816bf8f01cfea414140de5dae2223"
                "b00361a396177a9cb410ff61f20015ad"},
        {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
         "248d6a61d20638b8e5c026930c3e6039"
         "a33ce45964ff2167f6ecedd419db06c1"},
        {"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
         "hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
         "cf5b16a778af8380036ce59e7b049237"
         "0b249b11e8f07a51afac45037afee9d1"},
    };
    const std::size_t cuts[] = {0, 55, 56, 63, 64, 65};
    Rng rng(23);
    for (const Vector &v : vectors) {
        const std::vector<std::uint8_t> data(v.msg.begin(), v.msg.end());
        EXPECT_EQ(Sha256::toHex(Sha256::hash(data)), v.hex);
        for (std::size_t cut : cuts) {
            for (int trial = 0; trial < 8; ++trial) {
                Sha256 ctx;
                std::size_t off = 0;
                std::size_t next = std::min(cut, data.size());
                while (off < data.size()) {
                    ctx.update(data.data() + off, next - off);
                    off = next;
                    next = std::min<std::size_t>(
                        data.size(), off + rng.below(70));
                }
                EXPECT_EQ(Sha256::toHex(ctx.finish()), v.hex)
                    << "first cut " << cut;
            }
        }
    }

    // Lengths at every padding boundary: one-shot, byte by byte and
    // across a random split must all agree with the portable kernel
    // driven by hand.
    for (std::size_t len : {55u, 56u, 63u, 64u, 65u, 119u, 120u, 128u}) {
        std::vector<std::uint8_t> data(len);
        for (auto &b : data)
            b = static_cast<std::uint8_t>(rng.next());
        std::vector<std::uint8_t> padded(data);
        padded.push_back(0x80);
        while (padded.size() % 64 != 56)
            padded.push_back(0);
        for (int i = 7; i >= 0; --i)
            padded.push_back(static_cast<std::uint8_t>((len * 8) >> (8 * i)));
        std::uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                  0xa54ff53a, 0x510e527f, 0x9b05688c,
                                  0x1f83d9ab, 0x5be0cd19};
        sha256_detail::compressPortable(state, padded.data(),
                                        padded.size() / 64);
        Digest expected;
        for (int i = 0; i < 8; ++i) {
            for (int j = 0; j < 4; ++j) {
                expected[4 * i + j] =
                    static_cast<std::uint8_t>(state[i] >> (24 - 8 * j));
            }
        }

        EXPECT_EQ(Sha256::hash(data), expected) << "len " << len;
        Sha256 bytewise;
        for (std::uint8_t b : data)
            bytewise.update(&b, 1);
        EXPECT_EQ(bytewise.finish(), expected) << "len " << len;
        const std::size_t split = rng.below(len + 1);
        Sha256 two;
        two.update(data.data(), split);
        two.update(data.data() + split, len - split);
        EXPECT_EQ(two.finish(), expected) << "len " << len;
    }
}

TEST(Sha256, NullEmptyUpdateIsANoOp)
{
    Sha256 ctx;
    ctx.update("ab", 2);
    ctx.update(nullptr, 0);
    ctx.update("c", 1);
    EXPECT_EQ(Sha256::toHex(ctx.finish()),
              "ba7816bf8f01cfea414140de5dae2223"
              "b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, FinishTwicePanics)
{
    Sha256 ctx;
    ctx.finish();
    EXPECT_THROW(ctx.finish(), PanicError);
}

TEST(Aes128, Fips197Vector)
{
    // FIPS 197 Appendix C.1.
    AesKey key = {0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07,
                  0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f};
    std::uint8_t block[16] = {0x00, 0x11, 0x22, 0x33, 0x44, 0x55,
                              0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb,
                              0xcc, 0xdd, 0xee, 0xff};
    const std::uint8_t expected[16] = {
        0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30,
        0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4, 0xc5, 0x5a};

    Aes128 aes(key);
    aes.encryptBlock(block);
    EXPECT_EQ(std::memcmp(block, expected, 16), 0);
}

TEST(Aes128, Nist800_38aCtrVector)
{
    // NIST SP 800-38A F.5.1 (AES-128 CTR), first block.
    AesKey key = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
                  0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};
    AesBlock iv = {0xf0, 0xf1, 0xf2, 0xf3, 0xf4, 0xf5, 0xf6, 0xf7,
                   0xf8, 0xf9, 0xfa, 0xfb, 0xfc, 0xfd, 0xfe, 0xff};
    const std::vector<std::uint8_t> plaintext = {
        0x6b, 0xc1, 0xbe, 0xe2, 0x2e, 0x40, 0x9f, 0x96,
        0xe9, 0x3d, 0x7e, 0x11, 0x73, 0x93, 0x17, 0x2a};
    const std::vector<std::uint8_t> expected = {
        0x87, 0x4d, 0x61, 0x91, 0xb6, 0x20, 0xe3, 0x26,
        0x1b, 0xef, 0x68, 0x64, 0x99, 0x0d, 0xb6, 0xce};

    Aes128 aes(key);
    EXPECT_EQ(aes.ctr(iv, plaintext), expected);
}

TEST(Aes128, CtrRoundTripArbitraryLength)
{
    AesKey key{};
    for (std::size_t i = 0; i < key.size(); ++i)
        key[i] = static_cast<std::uint8_t>(i * 11);
    AesBlock iv{};
    iv[15] = 1;

    Rng rng(9);
    std::vector<std::uint8_t> msg(1000);
    for (auto &b : msg)
        b = static_cast<std::uint8_t>(rng.next());

    Aes128 aes(key);
    const auto ct = aes.ctr(iv, msg);
    EXPECT_NE(ct, msg);
    EXPECT_EQ(aes.ctr(iv, ct), msg);
}

TEST(Aes128, CtrCounterIncrementCrossesByteBoundary)
{
    AesKey key{};
    AesBlock iv{};
    std::fill(iv.begin(), iv.end(), 0xff); // forces full carry
    Aes128 aes(key);
    std::vector<std::uint8_t> msg(48, 0);
    const auto ct = aes.ctr(iv, msg);
    // Blocks must differ (distinct counters).
    EXPECT_NE(std::memcmp(ct.data(), ct.data() + 16, 16), 0);
    EXPECT_NE(std::memcmp(ct.data() + 16, ct.data() + 32, 16), 0);
}

TEST(Hmac, Rfc4231Case1)
{
    std::vector<std::uint8_t> key(20, 0x0b);
    const auto data = bytes("Hi There");
    EXPECT_EQ(Sha256::toHex(hmacSha256(key, data)),
              "b0344c61d8db38535ca8afceaf0bf12b"
              "881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2)
{
    const auto key = bytes("Jefe");
    const auto data = bytes("what do ya want for nothing?");
    EXPECT_EQ(Sha256::toHex(hmacSha256(key, data)),
              "5bdcc146bf60754e6a042426089575c7"
              "5a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, LongKeyIsHashedFirst)
{
    // RFC 4231 case 6: 131-byte key.
    std::vector<std::uint8_t> key(131, 0xaa);
    const auto data =
        bytes("Test Using Larger Than Block-Size Key - Hash Key First");
    EXPECT_EQ(Sha256::toHex(hmacSha256(key, data)),
              "60e431591ee0b67f0d8a26aacbf5b77f"
              "8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, EmptyKeyAndEmptyMessage)
{
    // RFC 2104 defines the empty key as K0 = all zeros; the empty
    // message contributes nothing to the inner hash. Regression for
    // the empty-vector data() UB: both operands empty must still
    // produce the published digest, not touch a null pointer.
    const std::vector<std::uint8_t> empty;
    EXPECT_EQ(Sha256::toHex(hmacSha256(empty, empty)),
              "b613679a0814d9ec772f95d778c35fc5"
              "ff1697c493715653c6c712144292c5ad");
}

TEST(Hmac, EmptyKeyNonEmptyMessage)
{
    const std::vector<std::uint8_t> key;
    const auto data = bytes("Hi There");
    EXPECT_EQ(Sha256::toHex(hmacSha256(key, data)),
              "e48411262715c8370cd5e7bf8e82bef5"
              "3bd53712d007f3429351843b77c7bb9b");
}

TEST(Hmac, NonEmptyKeyEmptyMessage)
{
    const auto key = bytes("Jefe");
    const std::vector<std::uint8_t> data;
    EXPECT_EQ(Sha256::toHex(hmacSha256(key, data)),
              "923598ca6d64af2a5dba79dcd021a8a0"
              "fe5c5f557519adaaf0ad532d4506dd30");
}

TEST(Hmac, DigestEqualLastByteSingleBit)
{
    // The XOR fold must reach the final byte: a digest differing
    // from another in exactly one bit of byte 31 is unequal, for
    // every bit position.
    Digest a{};
    for (int bit = 0; bit < 8; ++bit) {
        Digest b{};
        b[31] = static_cast<std::uint8_t>(1u << bit);
        EXPECT_FALSE(digestEqual(a, b)) << "bit " << bit;
        EXPECT_FALSE(digestEqual(b, a)) << "bit " << bit;
    }
}

TEST(Hmac, DigestEqualConstantTimeSemantics)
{
    Digest a{};
    Digest b{};
    EXPECT_TRUE(digestEqual(a, b));
    b[31] = 1;
    EXPECT_FALSE(digestEqual(a, b));
    b[31] = 0;
    b[0] = 1;
    EXPECT_FALSE(digestEqual(a, b));
}

} // namespace
} // namespace snpu
