/**
 * @file
 * SHA-256 (FIPS 180-4), implemented from scratch for the NPU
 * Monitor's code-measurement path. Streaming interface plus one-shot
 * helpers; verified against NIST test vectors in the test suite.
 * Blocks compress through the x86 SHA extensions where the host has
 * them, else through a portable kernel; both are bit-identical.
 */

#ifndef SNPU_TEE_SHA256_HH
#define SNPU_TEE_SHA256_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace snpu
{

/** A 256-bit digest. */
using Digest = std::array<std::uint8_t, 32>;

/** Incremental SHA-256 context. */
class Sha256
{
  public:
    Sha256();

    /** Absorb @p n bytes. */
    void update(const void *data, std::size_t n);

    /** Finalize and return the digest. The context becomes unusable. */
    Digest finish();

    /** One-shot digest of a buffer. */
    static Digest hash(const void *data, std::size_t n);
    static Digest hash(const std::vector<std::uint8_t> &data);

    /** Hex rendering for logs and reports. */
    static std::string toHex(const Digest &d);

  private:
    std::array<std::uint32_t, 8> state;
    std::uint64_t total_bytes;
    std::array<std::uint8_t, 64> buffer;
    std::size_t buffered;
    bool finished;
};

namespace sha256_detail
{

/**
 * A compress kernel: fold @p nblocks consecutive 64-byte blocks at
 * @p blocks into the eight-word chaining @p state.
 */
using CompressFn = void (*)(std::uint32_t state[8],
                            const std::uint8_t *blocks,
                            std::size_t nblocks);

/** The portable kernel; runs on every host. */
void compressPortable(std::uint32_t state[8], const std::uint8_t *blocks,
                      std::size_t nblocks);

/** The SHA-extensions kernel, or null on a host without them. */
CompressFn shaNiKernel();

} // namespace sha256_detail

} // namespace snpu

#endif // SNPU_TEE_SHA256_HH
