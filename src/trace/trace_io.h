#ifndef MEMO_TRACE_TRACE_IO_H_
#define MEMO_TRACE_TRACE_IO_H_

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "trace/format.h"

namespace memo::trace {

struct TraceWriterOptions {
  /// LZ-compress each full chunk (chunks that don't shrink stay raw).
  bool compress = true;
  /// Records per chunk. Larger chunks compress better. 4096 alloc records
  /// = 96 KiB raw.
  int chunk_records = 4096;
};

/// Encoder of the compact binary trace format into one in-memory file
/// image (common/file_io.h's WriteWholeFile puts it on disk). Each chunk
/// is compressed as it fills; Finish() appends the dictionary, the aux
/// section and the checksummed footer and hands the image over.
///
/// The byte stream a writer produces is canonical: dictionary ids are
/// assigned in first-intern order and chunking is a pure function of the
/// record sequence and options, so re-encoding a decoded trace with the
/// same options reproduces the file bit-for-bit (the golden-fixture
/// contract).
class TraceWriter {
 public:
  explicit TraceWriter(const TraceWriterOptions& options = {});

  /// Interns `s`, returning its stable dictionary id (first-come order).
  std::uint32_t InternString(std::string_view s);

  /// Appends one record. The record's name id must come from InternString.
  void AppendAlloc(const AllocRecord& record);

  // Aux metadata (written at Finish; order is preserved).
  void AddSegment(const SegmentEntry& segment);
  void AddIteration(const IterationEntry& iteration);

  /// Flushes the trailing partial chunk, appends dictionary + aux + footer
  /// and returns the file image. Must be called exactly once.
  std::string Finish();

 private:
  void FlushChunk();

  TraceWriterOptions options_;
  std::string image_;
  bool finished_ = false;

  std::string chunk_;  // encoded records of the open chunk
  std::uint32_t chunk_record_count_ = 0;
  std::uint64_t record_count_ = 0;
  std::uint64_t chunk_count_ = 0;

  std::vector<std::string> strings_;
  std::unordered_map<std::string, std::uint32_t> string_ids_;
  std::vector<SegmentEntry> segments_;
  std::vector<IterationEntry> iterations_;
};

/// A decoded trace file. Open and OpenBuffer validate and decode the whole
/// image up front: magic, version, kind, section offsets, the FNV-1a
/// trailer checksum, then the dictionary, every chunk and record, and the
/// aux tables, with every declared count checked against the bytes that
/// must hold it before anything is allocated for it. A corrupt or
/// truncated file fails with kInvalidArgument (a missing one with
/// kNotFound); the reader never crashes or reads out of bounds
/// (fuzz-tested contract).
class TraceReader {
 public:
  static StatusOr<TraceReader> Open(const std::string& path);
  static StatusOr<TraceReader> OpenBuffer(std::string_view data);

  std::uint32_t flags() const { return flags_; }
  std::uint64_t record_count() const { return records_.size(); }
  std::uint64_t chunk_count() const { return chunk_count_; }
  std::uint64_t file_bytes() const { return file_bytes_; }

  /// Every record, in stream order. Each one's op is known and its name id
  /// indexes strings().
  const std::vector<AllocRecord>& records() const { return records_; }
  const std::vector<std::string>& strings() const { return strings_; }
  const std::vector<SegmentEntry>& segments() const { return segments_; }
  const std::vector<IterationEntry>& iterations() const {
    return iterations_;
  }

  /// Resolves a dictionary id taken from a record or segment.
  const std::string& String(std::uint32_t id) const { return strings_[id]; }

  /// FNV-1a over the canonical record stream (names resolved through the
  /// dictionary, not dictionary ids), so two files with the same content
  /// fingerprint identically regardless of compression or chunking.
  std::uint64_t ContentFingerprint() const;

 private:
  TraceReader() = default;

  Status Decode(std::string_view data);
  Status DecodeChunks(std::string_view stream, std::uint32_t chunk_records,
                      std::uint64_t record_count);
  Status DecodeAux(std::string_view section);

  std::uint64_t file_bytes_ = 0;
  std::uint32_t flags_ = 0;
  std::uint64_t chunk_count_ = 0;

  std::vector<AllocRecord> records_;
  std::vector<std::string> strings_;
  std::vector<SegmentEntry> segments_;
  std::vector<IterationEntry> iterations_;
};

}  // namespace memo::trace

#endif  // MEMO_TRACE_TRACE_IO_H_
