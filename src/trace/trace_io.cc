#include "trace/trace_io.h"

#include "common/compress.h"
#include "common/file_io.h"
#include "common/fingerprint.h"
#include "common/logging.h"

namespace memo::trace {

namespace {

void PutAllocRecord(const AllocRecord& r, ByteWriter* out) {
  out->U8(r.op);
  out->U8(r.flags);
  out->U16(0);  // reserved
  out->U32(r.name_id);
  out->I64(r.tensor_id);
  out->I64(r.bytes);
}

Status GetAllocRecord(ByteReader* in, AllocRecord* r) {
  std::uint16_t reserved = 0;
  MEMO_RETURN_IF_ERROR(in->U8(&r->op));
  MEMO_RETURN_IF_ERROR(in->U8(&r->flags));
  MEMO_RETURN_IF_ERROR(in->U16(&reserved));
  MEMO_RETURN_IF_ERROR(in->U32(&r->name_id));
  MEMO_RETURN_IF_ERROR(in->I64(&r->tensor_id));
  return in->I64(&r->bytes);
}

}  // namespace

// ---------------------------------------------------------------- writer

TraceWriter::TraceWriter(const TraceWriterOptions& options)
    : options_(options) {
  MEMO_CHECK_GT(options_.chunk_records, 0);
  ByteWriter out(&image_);
  out.Bytes({kMagic, sizeof(kMagic)});
  out.U16(kFormatVersion);
  out.U16(kAllocRequestsKind);
  out.U32(options_.compress ? kFlagCompressed : 0);
  out.U32(static_cast<std::uint32_t>(options_.chunk_records));
  out.U32(0);  // reserved
}

std::uint32_t TraceWriter::InternString(std::string_view s) {
  auto it = string_ids_.find(std::string(s));
  if (it != string_ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(strings_.size());
  strings_.emplace_back(s);
  string_ids_.emplace(strings_.back(), id);
  return id;
}

void TraceWriter::AppendAlloc(const AllocRecord& record) {
  MEMO_CHECK(!finished_);
  MEMO_CHECK_LT(record.name_id, strings_.size());
  ByteWriter out(&chunk_);
  PutAllocRecord(record, &out);
  ++chunk_record_count_;
  ++record_count_;
  if (chunk_record_count_ >=
      static_cast<std::uint32_t>(options_.chunk_records)) {
    FlushChunk();
  }
}

void TraceWriter::AddSegment(const SegmentEntry& segment) {
  segments_.push_back(segment);
}

void TraceWriter::AddIteration(const IterationEntry& iteration) {
  iterations_.push_back(iteration);
}

void TraceWriter::FlushChunk() {
  if (chunk_record_count_ == 0) return;
  std::string stored;
  std::uint8_t method = kChunkRaw;
  if (options_.compress) {
    stored = LzCompress(chunk_);
    if (stored.size() < chunk_.size()) method = kChunkLz;
  }
  const std::string_view payload = method == kChunkLz
                                       ? std::string_view(stored)
                                       : std::string_view(chunk_);
  ByteWriter out(&image_);
  out.U32(chunk_record_count_);
  out.U32(static_cast<std::uint32_t>(chunk_.size()));
  out.U32(static_cast<std::uint32_t>(payload.size()));
  out.U8(method);
  out.Bytes(payload);
  chunk_.clear();
  chunk_record_count_ = 0;
  ++chunk_count_;
}

std::string TraceWriter::Finish() {
  MEMO_CHECK(!finished_);
  FlushChunk();
  finished_ = true;
  ByteWriter out(&image_);

  const std::uint64_t dict_offset = image_.size();
  out.U32(static_cast<std::uint32_t>(strings_.size()));
  for (const std::string& s : strings_) {
    out.U32(static_cast<std::uint32_t>(s.size()));
    out.Bytes(s);
  }

  const std::uint64_t aux_offset = image_.size();
  out.U32(static_cast<std::uint32_t>(segments_.size()));
  for (const SegmentEntry& s : segments_) {
    out.U32(s.name_id);
    out.U32(s.begin);
    out.U32(s.end);
    out.U32(static_cast<std::uint32_t>(s.layer));
  }
  out.U32(static_cast<std::uint32_t>(iterations_.size()));
  for (const IterationEntry& it : iterations_) {
    out.U32(it.req_begin);
    out.U32(it.req_end);
    out.U32(it.seg_begin);
    out.U32(it.seg_end);
  }

  out.U64(dict_offset);
  out.U64(aux_offset);
  out.U64(record_count_);
  out.U64(chunk_count_);
  out.U64(Fnv1a64(image_));  // everything before the checksum field
  out.Bytes({kEndMagic, sizeof(kEndMagic)});
  return std::move(image_);
}

// ---------------------------------------------------------------- reader

StatusOr<TraceReader> TraceReader::Open(const std::string& path) {
  MEMO_ASSIGN_OR_RETURN(const std::string data, ReadWholeFile(path, "trace"));
  return OpenBuffer(data);
}

StatusOr<TraceReader> TraceReader::OpenBuffer(std::string_view data) {
  TraceReader reader;
  MEMO_RETURN_IF_ERROR(reader.Decode(data));
  return reader;
}

Status TraceReader::Decode(std::string_view data) {
  file_bytes_ = data.size();
  if (data.size() < kHeaderBytes + kFooterBytes) {
    return InvalidArgumentError("trace file truncated: " +
                                std::to_string(data.size()) + " bytes");
  }
  ByteReader header(data.substr(0, kHeaderBytes),
                    StatusCode::kInvalidArgument, "trace header");
  std::string_view magic;
  std::uint16_t version = 0;
  std::uint16_t kind = 0;
  std::uint32_t chunk_records = 0;
  std::uint32_t reserved = 0;
  MEMO_RETURN_IF_ERROR(header.Bytes(sizeof(kMagic), &magic));
  MEMO_RETURN_IF_ERROR(header.U16(&version));
  MEMO_RETURN_IF_ERROR(header.U16(&kind));
  MEMO_RETURN_IF_ERROR(header.U32(&flags_));
  MEMO_RETURN_IF_ERROR(header.U32(&chunk_records));
  MEMO_RETURN_IF_ERROR(header.U32(&reserved));
  if (magic != std::string_view(kMagic, sizeof(kMagic))) {
    return InvalidArgumentError("not a memo trace file (bad magic)");
  }
  if (version != kFormatVersion) {
    return InvalidArgumentError("unsupported trace version " +
                                std::to_string(version));
  }
  if (kind != kAllocRequestsKind) {
    return InvalidArgumentError("unknown trace kind " +
                                std::to_string(kind));
  }
  if (chunk_records == 0) {
    return InvalidArgumentError("trace header declares zero-record chunks");
  }

  ByteReader footer(data.substr(data.size() - kFooterBytes),
                    StatusCode::kInvalidArgument, "trace footer");
  std::uint64_t dict_offset = 0;
  std::uint64_t aux_offset = 0;
  std::uint64_t record_count = 0;
  std::uint64_t checksum = 0;
  std::string_view end_magic;
  MEMO_RETURN_IF_ERROR(footer.U64(&dict_offset));
  MEMO_RETURN_IF_ERROR(footer.U64(&aux_offset));
  MEMO_RETURN_IF_ERROR(footer.U64(&record_count));
  MEMO_RETURN_IF_ERROR(footer.U64(&chunk_count_));
  MEMO_RETURN_IF_ERROR(footer.U64(&checksum));
  MEMO_RETURN_IF_ERROR(footer.Bytes(sizeof(kEndMagic), &end_magic));
  if (end_magic != std::string_view(kEndMagic, sizeof(kEndMagic))) {
    return InvalidArgumentError("trace file truncated (bad end magic)");
  }
  if (Fnv1a64(data.substr(0, data.size() - kChecksumTailBytes)) !=
      checksum) {
    return InvalidArgumentError("trace checksum mismatch: file is corrupt");
  }
  if (dict_offset < kHeaderBytes || dict_offset > aux_offset ||
      aux_offset > data.size() - kFooterBytes) {
    return InvalidArgumentError("trace section offsets out of order");
  }

  ByteReader dict(data.substr(dict_offset, aux_offset - dict_offset),
                  StatusCode::kInvalidArgument, "trace dictionary");
  std::uint32_t string_count = 0;
  MEMO_RETURN_IF_ERROR(dict.Count(4, &string_count));
  strings_.reserve(string_count);
  for (std::uint32_t i = 0; i < string_count; ++i) {
    std::uint32_t len = 0;
    std::string_view s;
    MEMO_RETURN_IF_ERROR(dict.U32(&len));
    MEMO_RETURN_IF_ERROR(dict.Bytes(len, &s));
    strings_.emplace_back(s);
  }
  if (!dict.AtEnd()) return dict.Error("trailing bytes");

  MEMO_RETURN_IF_ERROR(
      DecodeChunks(data.substr(kHeaderBytes, dict_offset - kHeaderBytes),
                   chunk_records, record_count));
  return DecodeAux(
      data.substr(aux_offset, data.size() - kFooterBytes - aux_offset));
}

Status TraceReader::DecodeChunks(std::string_view stream,
                                 std::uint32_t chunk_records,
                                 std::uint64_t record_count) {
  ByteReader in(stream, StatusCode::kInvalidArgument, "trace chunk stream");
  // A chunk holds its header and at least one stored byte.
  MEMO_RETURN_IF_ERROR(in.CheckCount(chunk_count_, kChunkHeaderBytes + 1));
  std::string decoded;
  for (std::uint64_t c = 0; c < chunk_count_; ++c) {
    std::uint32_t records = 0;
    std::uint32_t raw_bytes = 0;
    std::uint32_t stored_bytes = 0;
    std::uint8_t method = 0;
    MEMO_RETURN_IF_ERROR(in.U32(&records));
    MEMO_RETURN_IF_ERROR(in.U32(&raw_bytes));
    MEMO_RETURN_IF_ERROR(in.U32(&stored_bytes));
    MEMO_RETURN_IF_ERROR(in.U8(&method));
    if (records == 0) return in.Error("chunk holds zero records");
    if (records > chunk_records) {
      return in.Error("chunk exceeds the declared size");
    }
    if (raw_bytes != records * kAllocRecordBytes) {
      return in.Error("chunk raw size is inconsistent");
    }
    if (method != kChunkRaw && method != kChunkLz) {
      return in.Error("unknown chunk storage method");
    }
    if (method == kChunkRaw && stored_bytes != raw_bytes) {
      return in.Error("raw chunk size mismatch");
    }
    if (stored_bytes == 0 || stored_bytes > raw_bytes) {
      return in.Error("chunk stored size out of range");
    }
    if (records > record_count - records_.size()) {
      return in.Error("chunks carry more records than declared");
    }
    std::string_view payload;
    MEMO_RETURN_IF_ERROR(in.Bytes(stored_bytes, &payload));
    if (method == kChunkLz) {
      MEMO_RETURN_IF_ERROR(LzDecompress(payload, raw_bytes, &decoded));
      payload = decoded;
    }
    ByteReader chunk(payload, StatusCode::kInvalidArgument, "trace chunk");
    for (std::uint32_t r = 0; r < records; ++r) {
      AllocRecord record;
      MEMO_RETURN_IF_ERROR(GetAllocRecord(&chunk, &record));
      if (record.op != kOpMalloc && record.op != kOpFree) {
        return InvalidArgumentError("trace record has an unknown op");
      }
      if (record.name_id >= strings_.size()) {
        return InvalidArgumentError("trace record names unknown string");
      }
      records_.push_back(record);
    }
  }
  if (!in.AtEnd()) return in.Error("trailing bytes after the last chunk");
  if (records_.size() != record_count) {
    return InvalidArgumentError(
        "trace chunk records do not sum to the declared record count");
  }
  return OkStatus();
}

Status TraceReader::DecodeAux(std::string_view section) {
  ByteReader in(section, StatusCode::kInvalidArgument, "trace aux section");
  std::uint32_t segment_count = 0;
  MEMO_RETURN_IF_ERROR(in.Count(16, &segment_count));
  segments_.reserve(segment_count);
  for (std::uint32_t i = 0; i < segment_count; ++i) {
    SegmentEntry s;
    std::uint32_t layer = 0;
    MEMO_RETURN_IF_ERROR(in.U32(&s.name_id));
    MEMO_RETURN_IF_ERROR(in.U32(&s.begin));
    MEMO_RETURN_IF_ERROR(in.U32(&s.end));
    MEMO_RETURN_IF_ERROR(in.U32(&layer));
    s.layer = static_cast<std::int32_t>(layer);
    if (s.name_id >= strings_.size()) {
      return in.Error("segment names unknown string");
    }
    if (s.begin > s.end || s.end > records_.size()) {
      return in.Error("segment range out of bounds");
    }
    segments_.push_back(s);
  }
  std::uint32_t iteration_count = 0;
  MEMO_RETURN_IF_ERROR(in.Count(16, &iteration_count));
  iterations_.reserve(iteration_count);
  for (std::uint32_t i = 0; i < iteration_count; ++i) {
    IterationEntry it;
    MEMO_RETURN_IF_ERROR(in.U32(&it.req_begin));
    MEMO_RETURN_IF_ERROR(in.U32(&it.req_end));
    MEMO_RETURN_IF_ERROR(in.U32(&it.seg_begin));
    MEMO_RETURN_IF_ERROR(in.U32(&it.seg_end));
    if (it.req_begin > it.req_end || it.req_end > records_.size() ||
        it.seg_begin > it.seg_end || it.seg_end > segments_.size()) {
      return in.Error("iteration range out of bounds");
    }
    iterations_.push_back(it);
  }
  if (!in.AtEnd()) return in.Error("trailing bytes");
  return OkStatus();
}

std::uint64_t TraceReader::ContentFingerprint() const {
  Fnv1aStream hash;
  std::string bytes;
  for (const AllocRecord& r : records_) {
    bytes.clear();
    ByteWriter out(&bytes);
    out.U8(r.op);
    out.U8(r.flags);
    out.Bytes(strings_[r.name_id]);
    out.U8(0);
    out.I64(r.tensor_id);
    out.I64(r.bytes);
    hash.Update(bytes);
  }
  return hash.digest();
}

}  // namespace memo::trace
