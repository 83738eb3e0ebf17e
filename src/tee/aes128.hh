/**
 * @file
 * AES-128 (FIPS 197) block cipher plus CTR-mode streaming, used by
 * the NPU Monitor to decrypt confidential models before loading them
 * into secure memory. Verified against FIPS/NIST vectors in tests.
 */

#ifndef SNPU_TEE_AES128_HH
#define SNPU_TEE_AES128_HH

#include <array>
#include <cstdint>
#include <vector>

namespace snpu
{

/** 128-bit key / block / IV. */
using AesKey = std::array<std::uint8_t, 16>;
using AesBlock = std::array<std::uint8_t, 16>;

/** AES-128 with a precomputed key schedule. */
class Aes128
{
  public:
    explicit Aes128(const AesKey &key);

    /** Encrypt one 16-byte block in place. */
    void encryptBlock(std::uint8_t block[16]) const;

    /**
     * CTR mode transform (encrypt == decrypt). @p iv is the initial
     * counter block; the counter increments big-endian per block.
     */
    std::vector<std::uint8_t> ctr(const AesBlock &iv,
                                  const std::vector<std::uint8_t> &in)
        const;

  private:
    std::array<std::uint8_t, 176> round_keys; // 11 round keys
};

} // namespace snpu

#endif // SNPU_TEE_AES128_HH
