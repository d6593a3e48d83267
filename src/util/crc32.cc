#include "util/crc32.h"

#include <array>

namespace ucr {

namespace {

/// Sixteen 256-entry tables, built once at first use: table[0] is the
/// classic byte-at-a-time table, table[k] advances a byte k positions
/// further, so the hot loop folds sixteen bytes per iteration
/// (slice-by-16: a 5.5 MB snapshot checks in ~2 ms against ~5.6 ms
/// with slice-by-4 on one core of a 4-vCPU x86-64 VM, EXPERIMENTS.md
/// P6).
struct Crc32Tables {
  std::array<std::array<uint32_t, 256>, 16> t;

  Crc32Tables() {
    constexpr uint32_t kPoly = 0xEDB88320u;  // Reflected IEEE polynomial.
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1u) ? kPoly : 0u);
      }
      t[0][i] = crc;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (size_t k = 1; k < t.size(); ++k) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
      }
    }
  }
};

const Crc32Tables& Tables() {
  static const Crc32Tables* tables = new Crc32Tables();
  return *tables;
}

/// Little-endian 32-bit load (the checksum is defined byte by byte).
uint32_t Load32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

}  // namespace

uint32_t Crc32Update(uint32_t crc, const void* data, size_t size) {
  const auto& t = Tables().t;
  const auto* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  while (size >= 16) {
    const uint32_t a = Load32(p) ^ crc;
    const uint32_t b = Load32(p + 4);
    const uint32_t c = Load32(p + 8);
    const uint32_t d = Load32(p + 12);
    crc = t[15][a & 0xFFu] ^ t[14][(a >> 8) & 0xFFu] ^
          t[13][(a >> 16) & 0xFFu] ^ t[12][a >> 24] ^ t[11][b & 0xFFu] ^
          t[10][(b >> 8) & 0xFFu] ^ t[9][(b >> 16) & 0xFFu] ^ t[8][b >> 24] ^
          t[7][c & 0xFFu] ^ t[6][(c >> 8) & 0xFFu] ^ t[5][(c >> 16) & 0xFFu] ^
          t[4][c >> 24] ^ t[3][d & 0xFFu] ^ t[2][(d >> 8) & 0xFFu] ^
          t[1][(d >> 16) & 0xFFu] ^ t[0][d >> 24];
    p += 16;
    size -= 16;
  }
  while (size-- > 0) {
    crc = (crc >> 8) ^ t[0][(crc ^ *p++) & 0xFFu];
  }
  return ~crc;
}

}  // namespace ucr
