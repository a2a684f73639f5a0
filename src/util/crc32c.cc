#include "util/crc32c.h"

#include <array>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace ecrpq {
namespace crc32c {

namespace {

// Reflected CRC32C polynomial.
constexpr uint32_t kPoly = 0x82f63b78u;

struct Tables {
  // table[k][b]: slicing-by-4 lookup tables.
  uint32_t t[4][256];
};

Tables BuildTables() {
  Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int j = 0; j < 8; ++j) {
      crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    tables.t[0][i] = crc;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    tables.t[1][i] = (tables.t[0][i] >> 8) ^ tables.t[0][tables.t[0][i] & 0xff];
    tables.t[2][i] = (tables.t[1][i] >> 8) ^ tables.t[0][tables.t[1][i] & 0xff];
    tables.t[3][i] = (tables.t[2][i] >> 8) ^ tables.t[0][tables.t[2][i] & 0xff];
  }
  return tables;
}

const Tables& GetTables() {
  static const Tables tables = BuildTables();
  return tables;
}

}  // namespace

uint32_t ExtendTable(uint32_t init, const void* data, size_t n) {
  const Tables& tb = GetTables();
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t crc = init ^ 0xffffffffu;

  // Align to 4 bytes.
  while (n > 0 && (reinterpret_cast<uintptr_t>(p) & 3u) != 0) {
    crc = (crc >> 8) ^ tb.t[0][(crc ^ *p++) & 0xff];
    --n;
  }
  // Slice 4 bytes at a time (little-endian word loads; big-endian
  // builds take the bytewise tail loop below for everything).
#if !defined(__BYTE_ORDER__) || __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  while (n >= 4) {
    uint32_t word;
    __builtin_memcpy(&word, p, 4);  // little-endian assumed (x86/arm64)
    crc ^= word;
    crc = tb.t[3][crc & 0xff] ^ tb.t[2][(crc >> 8) & 0xff] ^
          tb.t[1][(crc >> 16) & 0xff] ^ tb.t[0][(crc >> 24) & 0xff];
    p += 4;
    n -= 4;
  }
#endif
  while (n > 0) {
    crc = (crc >> 8) ^ tb.t[0][(crc ^ *p++) & 0xff];
    --n;
  }
  return crc ^ 0xffffffffu;
}

#if defined(__x86_64__)

// The SSE4.2 crc32 instruction computes exactly this CRC (Castagnoli,
// reflected), eight bytes per step.
__attribute__((target("sse4.2"))) uint32_t ExtendHardware(uint32_t init,
                                                          const void* data,
                                                          size_t n) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint64_t crc = init ^ 0xffffffffu;
  while (n > 0 && (reinterpret_cast<uintptr_t>(p) & 7u) != 0) {
    crc = _mm_crc32_u8(static_cast<uint32_t>(crc), *p++);
    --n;
  }
  while (n >= 8) {
    uint64_t word;
    __builtin_memcpy(&word, p, 8);
    crc = _mm_crc32_u64(crc, word);
    p += 8;
    n -= 8;
  }
  while (n > 0) {
    crc = _mm_crc32_u8(static_cast<uint32_t>(crc), *p++);
    --n;
  }
  return static_cast<uint32_t>(crc) ^ 0xffffffffu;
}

bool HardwareAvailable() {
  static const bool available = __builtin_cpu_supports("sse4.2");
  return available;
}

#else

uint32_t ExtendHardware(uint32_t init, const void* data, size_t n) {
  return ExtendTable(init, data, n);
}

bool HardwareAvailable() { return false; }

#endif

uint32_t Extend(uint32_t init, const void* data, size_t n) {
  using ExtendFn = uint32_t (*)(uint32_t, const void*, size_t);
  static const ExtendFn extend =
      HardwareAvailable() ? &ExtendHardware : &ExtendTable;
  return extend(init, data, n);
}

}  // namespace crc32c
}  // namespace ecrpq
