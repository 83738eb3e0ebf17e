#include "tee/aes128.hh"

#include <cstring>

namespace snpu
{

namespace
{

// The forward S-box computed at startup from the AES field inverse
// and affine transform (avoids a 256-byte literal table and keeps the
// construction self-documenting). CTR mode only ever encrypts, so no
// inverse cipher is needed.
struct SBoxes
{
    std::uint8_t fwd[256];

    SBoxes()
    {
        // Multiplicative inverses in GF(2^8) via exhaustive search
        // (fine at startup), then the affine transform of FIPS 197.
        auto gmul = [](std::uint8_t a, std::uint8_t b) {
            std::uint8_t p = 0;
            for (int i = 0; i < 8; ++i) {
                if (b & 1)
                    p ^= a;
                const bool hi = a & 0x80;
                a <<= 1;
                if (hi)
                    a ^= 0x1b;
                b >>= 1;
            }
            return p;
        };
        std::uint8_t inverse[256];
        inverse[0] = 0;
        for (int a = 1; a < 256; ++a) {
            for (int b = 1; b < 256; ++b) {
                if (gmul(static_cast<std::uint8_t>(a),
                         static_cast<std::uint8_t>(b)) == 1) {
                    inverse[a] = static_cast<std::uint8_t>(b);
                    break;
                }
            }
        }
        for (int i = 0; i < 256; ++i) {
            const std::uint8_t x = inverse[i];
            std::uint8_t y = x;
            std::uint8_t s = x;
            for (int r = 0; r < 4; ++r) {
                y = static_cast<std::uint8_t>((y << 1) | (y >> 7));
                s ^= y;
            }
            s ^= 0x63;
            fwd[i] = s;
        }
    }
};

const SBoxes &
sboxes()
{
    static const SBoxes tables;
    return tables;
}

std::uint8_t
xtime(std::uint8_t x)
{
    return static_cast<std::uint8_t>((x << 1) ^ ((x & 0x80) ? 0x1b : 0));
}

} // namespace

Aes128::Aes128(const AesKey &key)
{
    const auto &sb = sboxes();
    std::memcpy(round_keys.data(), key.data(), 16);
    std::uint8_t rcon = 1;
    for (int i = 16; i < 176; i += 4) {
        std::uint8_t t[4];
        std::memcpy(t, round_keys.data() + i - 4, 4);
        if (i % 16 == 0) {
            // RotWord + SubWord + Rcon
            const std::uint8_t tmp = t[0];
            t[0] = static_cast<std::uint8_t>(sb.fwd[t[1]] ^ rcon);
            t[1] = sb.fwd[t[2]];
            t[2] = sb.fwd[t[3]];
            t[3] = sb.fwd[tmp];
            rcon = xtime(rcon);
        }
        for (int j = 0; j < 4; ++j)
            round_keys[i + j] =
                static_cast<std::uint8_t>(round_keys[i + j - 16] ^ t[j]);
    }
}

void
Aes128::encryptBlock(std::uint8_t s[16]) const
{
    const auto &sb = sboxes();
    auto add_round_key = [&](int round) {
        for (int i = 0; i < 16; ++i)
            s[i] ^= round_keys[round * 16 + i];
    };
    auto sub_shift = [&]() {
        std::uint8_t t[16];
        // SubBytes + ShiftRows combined (column-major state layout).
        for (int c = 0; c < 4; ++c)
            for (int r = 0; r < 4; ++r)
                t[c * 4 + r] = sb.fwd[s[((c + r) % 4) * 4 + r]];
        std::memcpy(s, t, 16);
    };
    auto mix_columns = [&]() {
        for (int c = 0; c < 4; ++c) {
            std::uint8_t *col = s + c * 4;
            const std::uint8_t a0 = col[0], a1 = col[1], a2 = col[2],
                               a3 = col[3];
            col[0] = static_cast<std::uint8_t>(
                xtime(a0) ^ (xtime(a1) ^ a1) ^ a2 ^ a3);
            col[1] = static_cast<std::uint8_t>(
                a0 ^ xtime(a1) ^ (xtime(a2) ^ a2) ^ a3);
            col[2] = static_cast<std::uint8_t>(
                a0 ^ a1 ^ xtime(a2) ^ (xtime(a3) ^ a3));
            col[3] = static_cast<std::uint8_t>(
                (xtime(a0) ^ a0) ^ a1 ^ a2 ^ xtime(a3));
        }
    };

    add_round_key(0);
    for (int round = 1; round < 10; ++round) {
        sub_shift();
        mix_columns();
        add_round_key(round);
    }
    sub_shift();
    add_round_key(10);
}

std::vector<std::uint8_t>
Aes128::ctr(const AesBlock &iv, const std::vector<std::uint8_t> &in) const
{
    std::vector<std::uint8_t> out(in.size());
    AesBlock counter = iv;
    std::size_t off = 0;
    while (off < in.size()) {
        std::uint8_t keystream[16];
        std::memcpy(keystream, counter.data(), 16);
        encryptBlock(keystream);
        const std::size_t n = std::min<std::size_t>(16, in.size() - off);
        for (std::size_t i = 0; i < n; ++i)
            out[off + i] = in[off + i] ^ keystream[i];
        off += n;
        // Big-endian counter increment.
        for (int i = 15; i >= 0; --i) {
            if (++counter[static_cast<std::size_t>(i)] != 0)
                break;
        }
    }
    return out;
}

} // namespace snpu
