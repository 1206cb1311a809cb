#ifndef STRDB_CORE_IO_CRC32_H_
#define STRDB_CORE_IO_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace strdb {

// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), the checksum
// framing every persisted artifact in this codebase: WAL records,
// snapshot files and serialized automata.  Dependency-free and
// table-driven, eight bytes per step (slice-by-8); Crc32("123456789") ==
// 0xCBF43926 (the standard check value, asserted in tests).
uint32_t Crc32(const void* data, size_t n);

inline uint32_t Crc32(const std::string& s) { return Crc32(s.data(), s.size()); }

// Fixed-width lower-case hex rendering used by the on-disk formats
// ("0xcbf43926" without the prefix: "cbf43926").
std::string Crc32Hex(uint32_t crc);

// Parses the Crc32Hex rendering; returns false on malformed input.
bool ParseCrc32Hex(const std::string& hex, uint32_t* out);

}  // namespace strdb

#endif  // STRDB_CORE_IO_CRC32_H_
