#include "tee/sha256.hh"

#include <algorithm>
#include <cstring>

#include "sim/logging.hh"

/*
 * The SHA-extensions kernel is compiled behind a per-function target
 * attribute and only taken after a runtime CPUID check, like the
 * AVX2 GEMM in npu/systolic_model.cc; the portable kernel is the
 * fallback everywhere else.
 */
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SNPU_X86_SIMD 1
#include <immintrin.h>
#endif

namespace snpu
{

namespace
{

constexpr std::uint32_t k[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5,
    0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc,
    0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3,
    0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5,
    0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

std::uint32_t
rotr(std::uint32_t x, int n)
{
    return (x >> n) | (x << (32 - n));
}

#if SNPU_X86_SIMD

/*
 * Two SHA256RNDS2 per four rounds: the state lives as ABEF/CDGH
 * lane pairs, and SHA256MSG1/MSG2 extend the schedule four words at
 * a time in a rotating window of four message quads.
 */
__attribute__((target("sha,sse4.1,ssse3"))) void
compressShaNi(std::uint32_t state[8], const std::uint8_t *blocks,
              std::size_t nblocks)
{
    // Byte swap within each 32-bit lane: the message is big-endian.
    const __m128i bswap =
        _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);

    const __m128i dcba =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(state));
    const __m128i hgfe =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(state + 4));
    const __m128i cdab = _mm_shuffle_epi32(dcba, 0xb1);
    const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1b);
    __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
    __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

    for (; nblocks > 0; --nblocks, blocks += 64) {
        const __m128i abef_in = abef;
        const __m128i cdgh_in = cdgh;
        __m128i w[4];
#pragma GCC unroll 16
        for (int q = 0; q < 16; ++q) {
            if (q < 4) {
                w[q] = _mm_shuffle_epi8(
                    _mm_loadu_si128(reinterpret_cast<const __m128i *>(
                        blocks + 16 * q)),
                    bswap);
            }
            __m128i msg = _mm_add_epi32(
                w[q % 4], _mm_loadu_si128(
                              reinterpret_cast<const __m128i *>(k + 4 * q)));
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, msg);
            if (q >= 3 && q <= 14) {
                // Finish quad q + 1 from quads q and q - 1.
                __m128i &next = w[(q + 1) % 4];
                next = _mm_add_epi32(
                    next, _mm_alignr_epi8(w[q % 4], w[(q + 3) % 4], 4));
                next = _mm_sha256msg2_epu32(next, w[q % 4]);
            }
            msg = _mm_shuffle_epi32(msg, 0x0e);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, msg);
            if (q >= 1 && q <= 12) {
                // Start quad q + 3 from quads q - 1 and q.
                __m128i &prev = w[(q + 3) % 4];
                prev = _mm_sha256msg1_epu32(prev, w[q % 4]);
            }
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    const __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
    const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
    _mm_storeu_si128(reinterpret_cast<__m128i *>(state),
                     _mm_blend_epi16(feba, dchg, 0xf0));
    _mm_storeu_si128(reinterpret_cast<__m128i *>(state + 4),
                     _mm_alignr_epi8(dchg, feba, 8));
}

#endif // SNPU_X86_SIMD

/** Compress with the SHA-extensions kernel where the host has it. */
void
compressBlocks(std::uint32_t state[8], const std::uint8_t *blocks,
               std::size_t nblocks)
{
    const sha256_detail::CompressFn shani = sha256_detail::shaNiKernel();
    (shani ? shani : sha256_detail::compressPortable)(state, blocks,
                                                      nblocks);
}

} // namespace

namespace sha256_detail
{

void
compressPortable(std::uint32_t state[8], const std::uint8_t *blocks,
                 std::size_t nblocks)
{
    for (; nblocks > 0; --nblocks, blocks += 64) {
        std::uint32_t w[64];
        for (int i = 0; i < 16; ++i) {
            w[i] = (std::uint32_t(blocks[4 * i]) << 24) |
                   (std::uint32_t(blocks[4 * i + 1]) << 16) |
                   (std::uint32_t(blocks[4 * i + 2]) << 8) |
                   std::uint32_t(blocks[4 * i + 3]);
        }
        for (int i = 16; i < 64; ++i) {
            const std::uint32_t s0 = rotr(w[i - 15], 7) ^
                                     rotr(w[i - 15], 18) ^
                                     (w[i - 15] >> 3);
            const std::uint32_t s1 = rotr(w[i - 2], 17) ^
                                     rotr(w[i - 2], 19) ^
                                     (w[i - 2] >> 10);
            w[i] = w[i - 16] + s0 + w[i - 7] + s1;
        }

        std::uint32_t a = state[0], b = state[1], c = state[2],
                      d = state[3];
        std::uint32_t e = state[4], f = state[5], g = state[6],
                      h = state[7];

        for (int i = 0; i < 64; ++i) {
            const std::uint32_t s1 =
                rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
            const std::uint32_t ch = (e & f) ^ (~e & g);
            const std::uint32_t temp1 = h + s1 + ch + k[i] + w[i];
            const std::uint32_t s0 =
                rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
            const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
            const std::uint32_t temp2 = s0 + maj;
            h = g;
            g = f;
            f = e;
            e = d + temp1;
            d = c;
            c = b;
            b = a;
            a = temp1 + temp2;
        }

        state[0] += a;
        state[1] += b;
        state[2] += c;
        state[3] += d;
        state[4] += e;
        state[5] += f;
        state[6] += g;
        state[7] += h;
    }
}

CompressFn
shaNiKernel()
{
#if SNPU_X86_SIMD
    static const bool have = __builtin_cpu_supports("sha") &&
                             __builtin_cpu_supports("sse4.1") &&
                             __builtin_cpu_supports("ssse3");
    return have ? compressShaNi : nullptr;
#else
    return nullptr;
#endif
}

} // namespace sha256_detail

Sha256::Sha256()
    : state{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19},
      total_bytes(0), buffered(0), finished(false)
{
}

void
Sha256::update(const void *data, std::size_t n)
{
    if (finished)
        panic("Sha256::update after finish");
    if (n == 0) // data may be null
        return;
    const auto *p = static_cast<const std::uint8_t *>(data);
    total_bytes += n;

    if (buffered > 0) {
        const std::size_t take = std::min(n, buffer.size() - buffered);
        std::memcpy(buffer.data() + buffered, p, take);
        buffered += take;
        p += take;
        n -= take;
        if (buffered < buffer.size())
            return;
        compressBlocks(state.data(), buffer.data(), 1);
        buffered = 0;
    }
    // Whole blocks compress straight from the input.
    const std::size_t whole = n / buffer.size();
    if (whole > 0) {
        compressBlocks(state.data(), p, whole);
        p += whole * buffer.size();
        n -= whole * buffer.size();
    }
    if (n > 0) {
        std::memcpy(buffer.data(), p, n);
        buffered = n;
    }
}

Digest
Sha256::finish()
{
    if (finished)
        panic("Sha256::finish called twice");
    finished = true;

    // Pad in place: 0x80, zeros up to byte 56 of the last block (a
    // second block when fewer than nine bytes remain), then the
    // big-endian bit length.
    buffer[buffered++] = 0x80;
    if (buffered > 56) {
        std::memset(buffer.data() + buffered, 0,
                    buffer.size() - buffered);
        compressBlocks(state.data(), buffer.data(), 1);
        buffered = 0;
    }
    std::memset(buffer.data() + buffered, 0, 56 - buffered);
    const std::uint64_t bit_len = total_bytes * 8;
    for (int i = 0; i < 8; ++i)
        buffer[56 + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
    compressBlocks(state.data(), buffer.data(), 1);

    Digest out;
    for (int i = 0; i < 8; ++i) {
        out[4 * i] = static_cast<std::uint8_t>(state[i] >> 24);
        out[4 * i + 1] = static_cast<std::uint8_t>(state[i] >> 16);
        out[4 * i + 2] = static_cast<std::uint8_t>(state[i] >> 8);
        out[4 * i + 3] = static_cast<std::uint8_t>(state[i]);
    }
    return out;
}

Digest
Sha256::hash(const void *data, std::size_t n)
{
    Sha256 ctx;
    ctx.update(data, n);
    return ctx.finish();
}

Digest
Sha256::hash(const std::vector<std::uint8_t> &data)
{
    return hash(data.data(), data.size());
}

std::string
Sha256::toHex(const Digest &d)
{
    static const char *hex = "0123456789abcdef";
    std::string out;
    out.reserve(64);
    for (std::uint8_t byte : d) {
        out.push_back(hex[byte >> 4]);
        out.push_back(hex[byte & 0xf]);
    }
    return out;
}

} // namespace snpu
