// CRC32C (Castagnoli) checksums for on-disk record integrity.
//
// Two implementations with identical values: the SSE4.2 crc32
// instruction (eight bytes per step), chosen once per process where the
// CPU has it, and a portable slicing-by-4 table. Used by the write-ahead
// log (src/wal/) to detect torn and corrupted records on recovery, and
// by checkpoint encode/decode.
// Checksums are stored "masked" (RocksDB/LevelDB idiom) so that a CRC
// computed over bytes that themselves embed a CRC does not degenerate.

#ifndef ECRPQ_UTIL_CRC32C_H_
#define ECRPQ_UTIL_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace ecrpq {
namespace crc32c {

/// CRC32C of data[0, n), continuing from `init` (pass 0 for a fresh
/// checksum).
uint32_t Extend(uint32_t init, const void* data, size_t n);

inline uint32_t Value(const void* data, size_t n) {
  return Extend(0, data, n);
}

/// The two implementations behind Extend, for the equivalence test.
/// ExtendHardware falls back to the table where HardwareAvailable() is
/// false.
uint32_t ExtendTable(uint32_t init, const void* data, size_t n);
uint32_t ExtendHardware(uint32_t init, const void* data, size_t n);
bool HardwareAvailable();

/// Bijective masking applied before storing a CRC inside checksummed
/// payloads: rotate and add a constant so crc(data ++ crc(data)) stays
/// discriminating.
inline uint32_t Mask(uint32_t crc) {
  static constexpr uint32_t kMaskDelta = 0xa282ead8u;
  return ((crc >> 15) | (crc << 17)) + kMaskDelta;
}

inline uint32_t Unmask(uint32_t masked) {
  static constexpr uint32_t kMaskDelta = 0xa282ead8u;
  uint32_t rot = masked - kMaskDelta;
  return (rot >> 17) | (rot << 15);
}

}  // namespace crc32c
}  // namespace ecrpq

#endif  // ECRPQ_UTIL_CRC32C_H_
