#ifndef UCR_UTIL_CRC32_H_
#define UCR_UTIL_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace ucr {

/// \brief CRC-32 (IEEE 802.3, the zlib polynomial), slice-by-16.
///
/// Guards the durable storage formats (core/wal.h, the binary
/// snapshot): every length-prefixed record and every snapshot section
/// carries the checksum of its payload, so a torn write or bit rot is
/// detected as `kCorruption` instead of being replayed into the
/// hierarchy. Dependency-free by design — the repository bakes in no
/// compression or hashing libraries.
///
/// `Crc32(data, size)` is the one-shot form; the (crc, data, size)
/// overload continues a running checksum (pass the previous return
/// value), so multi-section writers can checksum without concatenating.
uint32_t Crc32Update(uint32_t crc, const void* data, size_t size);

inline uint32_t Crc32(const void* data, size_t size) {
  return Crc32Update(0, data, size);
}

inline uint32_t Crc32(std::string_view text) {
  return Crc32Update(0, text.data(), text.size());
}

}  // namespace ucr

#endif  // UCR_UTIL_CRC32_H_
