#ifndef MEMO_TRACE_TRACE_IO_H_
#define MEMO_TRACE_TRACE_IO_H_

#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/fingerprint.h"
#include "common/status.h"
#include "trace/format.h"

namespace memo::trace {

struct TraceWriterOptions {
  /// LZ-compress each full chunk (chunks that don't shrink stay raw).
  bool compress = true;
  /// Records buffered per chunk. Larger chunks compress better; smaller
  /// ones bound the writer's memory. 4096 alloc records = 96 KiB raw.
  int chunk_records = 4096;
};

/// Streaming writer for the compact binary trace format. Records are
/// buffered one chunk at a time and flushed to the sink as each chunk
/// fills, so writing an arbitrarily long trace holds O(chunk) memory plus
/// the string dictionary. Finish() appends the dictionary, the aux
/// section and the checksummed footer; the writer is unusable afterwards.
///
/// The byte stream a writer produces is canonical: dictionary ids are
/// assigned in first-intern order and chunking is a pure function of the
/// record sequence and options, so re-encoding a decoded trace with the
/// same options reproduces the file bit-for-bit (the golden-fixture
/// contract).
class TraceWriter {
 public:
  /// File-backed writer; the file is created/truncated immediately.
  static StatusOr<std::unique_ptr<TraceWriter>> Create(
      const std::string& path, const TraceWriterOptions& options = {});

  /// In-memory writer; the encoded bytes are in buffer() after Finish().
  static std::unique_ptr<TraceWriter> CreateInMemory(
      const TraceWriterOptions& options = {});

  ~TraceWriter();

  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  /// Interns `s`, returning its stable dictionary id (first-come order).
  std::uint32_t InternString(std::string_view s);

  /// Appends one record. The record's name id must come from InternString.
  Status AppendAlloc(const AllocRecord& record);

  // Aux metadata (written at Finish; order is preserved).
  void AddSegment(const SegmentEntry& segment);
  void AddIteration(const IterationEntry& iteration);

  /// Flushes the trailing partial chunk, writes dictionary + aux + footer
  /// and closes the sink. Must be called exactly once.
  Status Finish();

  /// Encoded bytes (in-memory writers only, valid after Finish()).
  const std::string& buffer() const { return memory_; }

  std::uint64_t record_count() const { return record_count_; }

 private:
  explicit TraceWriter(const TraceWriterOptions& options);

  Status Emit(std::string_view bytes);
  Status FlushChunk();
  Status WriteHeader();

  TraceWriterOptions options_;
  std::FILE* file_ = nullptr;  // nullptr => in-memory
  std::string memory_;
  Fnv1aStream checksum_;
  std::uint64_t bytes_written_ = 0;
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

/// Streaming reader. Open() validates the envelope up front — magic,
/// version, kind, section offsets, the FNV-1a trailer checksum (verified
/// with one buffered pass over the file) — and loads the small dictionary
/// and aux sections. Records are then decoded chunk by chunk through
/// NextAlloc, holding one decompressed chunk in memory at a time.
/// Every field of a corrupt or truncated file fails with a Status; the
/// reader never crashes or reads out of bounds (fuzz-tested contract).
class TraceReader {
 public:
  static StatusOr<std::unique_ptr<TraceReader>> Open(const std::string& path);
  /// Reads from an in-memory image (tests, fuzzing).
  static StatusOr<std::unique_ptr<TraceReader>> OpenBuffer(std::string data);

  ~TraceReader();

  TraceReader(const TraceReader&) = delete;
  TraceReader& operator=(const TraceReader&) = delete;

  std::uint32_t flags() const { return flags_; }
  std::uint64_t record_count() const { return record_count_; }
  std::uint64_t chunk_count() const { return chunk_count_; }
  std::uint64_t file_bytes() const { return file_size_; }

  const std::vector<std::string>& strings() const { return strings_; }
  const std::vector<SegmentEntry>& segments() const { return segments_; }
  const std::vector<IterationEntry>& iterations() const {
    return iterations_;
  }

  /// Resolves a dictionary id (records are validated on decode, so ids
  /// taken from Next* results are always in range).
  const std::string& String(std::uint32_t id) const { return strings_[id]; }

  /// Streams the next record: true with *out filled, false at end of
  /// trace, or a Status on a malformed chunk/record.
  StatusOr<bool> NextAlloc(AllocRecord* out);

  /// Restarts record streaming from the first chunk.
  void Rewind();

  /// FNV-1a over the decoded canonical record stream (names resolved
  /// through the dictionary, not dictionary ids), so two files with the
  /// same content fingerprint identically regardless of compression or
  /// chunking. Leaves the stream rewound.
  StatusOr<std::uint64_t> ContentFingerprint();

 private:
  TraceReader() = default;

  Status Init();
  Status ReadAt(std::uint64_t offset, std::size_t len, std::string* out);
  Status VerifyChecksum(std::uint64_t expected);
  Status LoadDictionary(std::uint64_t dict_offset, std::uint64_t aux_offset);
  Status LoadAux(std::uint64_t aux_offset);
  /// Loads + decodes the next chunk into chunk_. False when no chunks
  /// remain.
  StatusOr<bool> NextChunk();
  StatusOr<bool> NextRecordBytes(const unsigned char** out);

  std::FILE* file_ = nullptr;  // nullptr => in-memory
  std::string memory_;
  std::uint64_t file_size_ = 0;

  std::uint32_t flags_ = 0;
  std::uint32_t chunk_records_ = 0;
  std::uint64_t record_count_ = 0;
  std::uint64_t chunk_count_ = 0;
  std::uint64_t data_end_ = 0;  // dictionary offset == end of chunk stream

  std::vector<std::string> strings_;
  std::vector<SegmentEntry> segments_;
  std::vector<IterationEntry> iterations_;

  // Streaming cursor.
  std::uint64_t next_chunk_offset_ = 0;
  std::uint64_t chunks_read_ = 0;
  std::uint64_t records_read_ = 0;
  std::string chunk_;           // decoded records of the current chunk
  std::size_t chunk_pos_ = 0;   // byte cursor within chunk_
};

}  // namespace memo::trace

#endif  // MEMO_TRACE_TRACE_IO_H_
