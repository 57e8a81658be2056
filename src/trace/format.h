#ifndef MEMO_TRACE_FORMAT_H_
#define MEMO_TRACE_FORMAT_H_

#include <cstddef>
#include <cstdint>

namespace memo::trace {

/// On-disk layout of a .memotrc compact binary trace (DESIGN.md §13), a
/// stream of allocator requests:
///
///   [header 24 B]  magic "MEMOTRC1" | u16 version | u16 kind (always 0)
///                  | u32 flags | u32 chunk_records | u32 reserved
///   [chunks]       each: u32 records | u32 raw_bytes | u32 stored_bytes
///                  | u8 method | payload (raw or LZ-compressed records)
///   [dictionary]   u32 count, then per string: u32 len | bytes. Record
///                  name fields are u32 indexes into this table.
///   [aux]          segment table, then iteration ranges.
///   [footer 48 B]  u64 dict_offset | u64 aux_offset | u64 record_count
///                  | u64 chunk_count | u64 checksum | magic "MEMOTRCE"
///
/// All integers are little-endian at fixed widths (common/file_io.h's
/// ByteWriter and ByteReader). Counts and offsets live in the footer, after
/// the sections they describe, and the FNV-1a checksum covers every byte
/// from offset 0 up to (but excluding) the checksum field itself.
inline constexpr char kMagic[8] = {'M', 'E', 'M', 'O', 'T', 'R', 'C', '1'};
inline constexpr char kEndMagic[8] = {'M', 'E', 'M', 'O', 'T', 'R', 'C',
                                      'E'};
inline constexpr std::uint16_t kFormatVersion = 1;
inline constexpr std::size_t kHeaderBytes = 24;
inline constexpr std::size_t kChunkHeaderBytes = 13;
inline constexpr std::size_t kFooterBytes = 48;
/// Offset of the checksum field from the END of the file (checksum + end
/// magic); the checksum covers file[0, size - kChecksumTailBytes).
inline constexpr std::size_t kChecksumTailBytes = 16;

/// The header's kind field. Allocator requests are the only kind; a reader
/// refuses any other value.
inline constexpr std::uint16_t kAllocRequestsKind = 0;

/// Header flags.
inline constexpr std::uint32_t kFlagCompressed = 1u << 0;

/// Per-chunk storage method.
inline constexpr std::uint8_t kChunkRaw = 0;
inline constexpr std::uint8_t kChunkLz = 1;

/// Fixed-width wire form of one allocator request (24 bytes):
///   u8 op | u8 flags | u16 reserved | u32 name_id | i64 tensor_id
///   | i64 bytes
struct AllocRecord {
  std::uint8_t op = 0;     // 0 = malloc, 1 = free
  std::uint8_t flags = 0;  // bit0 = skeletal
  std::uint32_t name_id = 0;
  std::int64_t tensor_id = 0;
  std::int64_t bytes = 0;
};
inline constexpr std::size_t kAllocRecordBytes = 24;
inline constexpr std::uint8_t kOpMalloc = 0;
inline constexpr std::uint8_t kOpFree = 1;
inline constexpr std::uint8_t kAllocFlagSkeletal = 1u << 0;

/// A named contiguous span of the request stream (mirrors
/// model::TraceSegment; begin/end index the flattened record stream).
struct SegmentEntry {
  std::uint32_t name_id = 0;
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
  std::int32_t layer = -1;
};

/// One training iteration's slice of the flattened request and segment
/// arrays (half-open ranges), so a multi-iteration workload round-trips
/// with its iteration structure intact.
struct IterationEntry {
  std::uint32_t req_begin = 0;
  std::uint32_t req_end = 0;
  std::uint32_t seg_begin = 0;
  std::uint32_t seg_end = 0;
};

}  // namespace memo::trace

#endif  // MEMO_TRACE_FORMAT_H_
