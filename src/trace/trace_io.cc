#include "trace/trace_io.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "common/compress.h"

namespace memo::trace {

// ---------------------------------------------------------------- writer

TraceWriter::TraceWriter(const TraceWriterOptions& options)
    : options_(options) {
  MEMO_CHECK_GT(options_.chunk_records, 0);
}

TraceWriter::~TraceWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

StatusOr<std::unique_ptr<TraceWriter>> TraceWriter::Create(
    const std::string& path, const TraceWriterOptions& options) {
  std::unique_ptr<TraceWriter> writer(new TraceWriter(options));
  writer->file_ = std::fopen(path.c_str(), "wb");
  if (writer->file_ == nullptr) {
    return InvalidArgumentError("cannot open " + path + " for writing");
  }
  MEMO_RETURN_IF_ERROR(writer->WriteHeader());
  return writer;
}

std::unique_ptr<TraceWriter> TraceWriter::CreateInMemory(
    const TraceWriterOptions& options) {
  std::unique_ptr<TraceWriter> writer(new TraceWriter(options));
  MEMO_CHECK_OK(writer->WriteHeader());
  return writer;
}

Status TraceWriter::WriteHeader() {
  std::string header;
  header.append(kMagic, sizeof(kMagic));
  PutU16(&header, kFormatVersion);
  PutU16(&header, kAllocRequestsKind);
  PutU32(&header, options_.compress ? kFlagCompressed : 0);
  PutU32(&header, static_cast<std::uint32_t>(options_.chunk_records));
  PutU32(&header, 0);
  MEMO_CHECK_EQ(header.size(), kHeaderBytes);
  return Emit(header);
}

Status TraceWriter::Emit(std::string_view bytes) {
  checksum_.Update(bytes);
  bytes_written_ += bytes.size();
  if (file_ == nullptr) {
    memory_.append(bytes);
    return OkStatus();
  }
  if (std::fwrite(bytes.data(), 1, bytes.size(), file_) != bytes.size()) {
    return InternalError("short write to trace file");
  }
  return OkStatus();
}

std::uint32_t TraceWriter::InternString(std::string_view s) {
  auto it = string_ids_.find(std::string(s));
  if (it != string_ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(strings_.size());
  strings_.emplace_back(s);
  string_ids_.emplace(strings_.back(), id);
  return id;
}

Status TraceWriter::AppendAlloc(const AllocRecord& record) {
  MEMO_CHECK(!finished_);
  MEMO_CHECK_LT(record.name_id, strings_.size());
  EncodeAllocRecord(record, &chunk_);
  ++chunk_record_count_;
  ++record_count_;
  if (chunk_record_count_ >=
      static_cast<std::uint32_t>(options_.chunk_records)) {
    return FlushChunk();
  }
  return OkStatus();
}

void TraceWriter::AddSegment(const SegmentEntry& segment) {
  segments_.push_back(segment);
}

void TraceWriter::AddIteration(const IterationEntry& iteration) {
  iterations_.push_back(iteration);
}

Status TraceWriter::FlushChunk() {
  if (chunk_record_count_ == 0) return OkStatus();
  std::string stored;
  std::uint8_t method = kChunkRaw;
  if (options_.compress) {
    stored = LzCompress(chunk_);
    if (stored.size() < chunk_.size()) {
      method = kChunkLz;
    } else {
      stored.clear();
    }
  }
  const std::string_view payload = method == kChunkLz ? stored : chunk_;

  std::string header;
  PutU32(&header, chunk_record_count_);
  PutU32(&header, static_cast<std::uint32_t>(chunk_.size()));
  PutU32(&header, static_cast<std::uint32_t>(payload.size()));
  header.push_back(static_cast<char>(method));
  MEMO_CHECK_EQ(header.size(), kChunkHeaderBytes);
  MEMO_RETURN_IF_ERROR(Emit(header));
  MEMO_RETURN_IF_ERROR(Emit(payload));
  chunk_.clear();
  chunk_record_count_ = 0;
  ++chunk_count_;
  return OkStatus();
}

Status TraceWriter::Finish() {
  MEMO_CHECK(!finished_);
  MEMO_RETURN_IF_ERROR(FlushChunk());
  finished_ = true;

  const std::uint64_t dict_offset = bytes_written_;
  std::string dict;
  PutU32(&dict, static_cast<std::uint32_t>(strings_.size()));
  for (const std::string& s : strings_) {
    PutU32(&dict, static_cast<std::uint32_t>(s.size()));
    dict.append(s);
  }
  MEMO_RETURN_IF_ERROR(Emit(dict));

  const std::uint64_t aux_offset = bytes_written_;
  std::string aux;
  PutU32(&aux, static_cast<std::uint32_t>(segments_.size()));
  for (const SegmentEntry& s : segments_) {
    PutU32(&aux, s.name_id);
    PutU32(&aux, s.begin);
    PutU32(&aux, s.end);
    PutU32(&aux, static_cast<std::uint32_t>(s.layer));
  }
  PutU32(&aux, static_cast<std::uint32_t>(iterations_.size()));
  for (const IterationEntry& it : iterations_) {
    PutU32(&aux, it.req_begin);
    PutU32(&aux, it.req_end);
    PutU32(&aux, it.seg_begin);
    PutU32(&aux, it.seg_end);
  }
  MEMO_RETURN_IF_ERROR(Emit(aux));

  std::string footer;
  PutU64(&footer, dict_offset);
  PutU64(&footer, aux_offset);
  PutU64(&footer, record_count_);
  PutU64(&footer, chunk_count_);
  MEMO_RETURN_IF_ERROR(Emit(footer));  // covered by the checksum

  std::string tail;
  PutU64(&tail, checksum_.digest());
  tail.append(kEndMagic, sizeof(kEndMagic));
  MEMO_RETURN_IF_ERROR(Emit(tail));

  if (file_ != nullptr) {
    const int rc = std::fclose(file_);
    file_ = nullptr;
    if (rc != 0) return InternalError("closing trace file failed");
  }
  return OkStatus();
}

// ---------------------------------------------------------------- reader

TraceReader::~TraceReader() {
  if (file_ != nullptr) std::fclose(file_);
}

StatusOr<std::unique_ptr<TraceReader>> TraceReader::Open(
    const std::string& path) {
  std::unique_ptr<TraceReader> reader(new TraceReader());
  reader->file_ = std::fopen(path.c_str(), "rb");
  if (reader->file_ == nullptr) {
    return NotFoundError("cannot open trace file " + path);
  }
  if (std::fseek(reader->file_, 0, SEEK_END) != 0) {
    return InternalError("cannot seek in trace file " + path);
  }
  const long size = std::ftell(reader->file_);
  if (size < 0) return InternalError("cannot size trace file " + path);
  reader->file_size_ = static_cast<std::uint64_t>(size);
  MEMO_RETURN_IF_ERROR(reader->Init());
  return reader;
}

StatusOr<std::unique_ptr<TraceReader>> TraceReader::OpenBuffer(
    std::string data) {
  std::unique_ptr<TraceReader> reader(new TraceReader());
  reader->memory_ = std::move(data);
  reader->file_size_ = reader->memory_.size();
  MEMO_RETURN_IF_ERROR(reader->Init());
  return reader;
}

Status TraceReader::ReadAt(std::uint64_t offset, std::size_t len,
                           std::string* out) {
  if (offset > file_size_ || len > file_size_ - offset) {
    return InvalidArgumentError("trace read out of bounds");
  }
  if (file_ == nullptr) {
    out->assign(memory_, offset, len);
    return OkStatus();
  }
  out->resize(len);
  if (std::fseek(file_, static_cast<long>(offset), SEEK_SET) != 0 ||
      std::fread(out->data(), 1, len, file_) != len) {
    return InternalError("trace file read failed");
  }
  return OkStatus();
}

Status TraceReader::VerifyChecksum(std::uint64_t expected) {
  Fnv1aStream hash;
  const std::uint64_t covered = file_size_ - kChecksumTailBytes;
  std::string block;
  constexpr std::size_t kBlock = 64 * 1024;
  for (std::uint64_t offset = 0; offset < covered;) {
    const std::size_t len =
        static_cast<std::size_t>(std::min<std::uint64_t>(kBlock,
                                                         covered - offset));
    MEMO_RETURN_IF_ERROR(ReadAt(offset, len, &block));
    hash.Update(block);
    offset += len;
  }
  if (hash.digest() != expected) {
    return InvalidArgumentError("trace checksum mismatch: file is corrupt");
  }
  return OkStatus();
}

Status TraceReader::Init() {
  if (file_size_ < kHeaderBytes + kFooterBytes) {
    return InvalidArgumentError("trace file truncated: " +
                                std::to_string(file_size_) + " bytes");
  }
  std::string header;
  MEMO_RETURN_IF_ERROR(ReadAt(0, kHeaderBytes, &header));
  const auto* h = reinterpret_cast<const unsigned char*>(header.data());
  if (std::memcmp(h, kMagic, sizeof(kMagic)) != 0) {
    return InvalidArgumentError("not a memo trace file (bad magic)");
  }
  const std::uint16_t version = GetU16(h + 8);
  if (version != kFormatVersion) {
    return InvalidArgumentError("unsupported trace version " +
                                std::to_string(version));
  }
  const std::uint16_t kind = GetU16(h + 10);
  if (kind != kAllocRequestsKind) {
    return InvalidArgumentError("unknown trace kind " +
                                std::to_string(kind));
  }
  flags_ = GetU32(h + 12);
  chunk_records_ = GetU32(h + 16);
  if (chunk_records_ == 0) {
    return InvalidArgumentError("trace header declares zero-record chunks");
  }

  std::string footer;
  MEMO_RETURN_IF_ERROR(
      ReadAt(file_size_ - kFooterBytes, kFooterBytes, &footer));
  const auto* f = reinterpret_cast<const unsigned char*>(footer.data());
  if (std::memcmp(f + 40, kEndMagic, sizeof(kEndMagic)) != 0) {
    return InvalidArgumentError("trace file truncated (bad end magic)");
  }
  const std::uint64_t dict_offset = GetU64(f);
  const std::uint64_t aux_offset = GetU64(f + 8);
  record_count_ = GetU64(f + 16);
  chunk_count_ = GetU64(f + 24);
  const std::uint64_t checksum = GetU64(f + 32);

  MEMO_RETURN_IF_ERROR(VerifyChecksum(checksum));

  if (dict_offset < kHeaderBytes || dict_offset > aux_offset ||
      aux_offset > file_size_ - kFooterBytes) {
    return InvalidArgumentError("trace section offsets out of order");
  }
  data_end_ = dict_offset;
  MEMO_RETURN_IF_ERROR(LoadDictionary(dict_offset, aux_offset));
  MEMO_RETURN_IF_ERROR(LoadAux(aux_offset));
  Rewind();
  return OkStatus();
}

Status TraceReader::LoadDictionary(std::uint64_t dict_offset,
                                   std::uint64_t aux_offset) {
  std::string section;
  MEMO_RETURN_IF_ERROR(ReadAt(dict_offset,
                              static_cast<std::size_t>(aux_offset -
                                                       dict_offset),
                              &section));
  const auto* p = reinterpret_cast<const unsigned char*>(section.data());
  std::size_t pos = 0;
  const std::size_t size = section.size();
  if (size < 4) return InvalidArgumentError("trace dictionary truncated");
  const std::uint32_t count = GetU32(p);
  pos += 4;
  strings_.clear();
  strings_.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    if (size - pos < 4) {
      return InvalidArgumentError("trace dictionary entry truncated");
    }
    const std::uint32_t len = GetU32(p + pos);
    pos += 4;
    if (len > size - pos) {
      return InvalidArgumentError(
          "trace dictionary string overruns its section");
    }
    strings_.emplace_back(section, pos, len);
    pos += len;
  }
  if (pos != size) {
    return InvalidArgumentError("trailing bytes after trace dictionary");
  }
  return OkStatus();
}

Status TraceReader::LoadAux(std::uint64_t aux_offset) {
  std::string section;
  MEMO_RETURN_IF_ERROR(
      ReadAt(aux_offset,
             static_cast<std::size_t>(file_size_ - kFooterBytes -
                                      aux_offset),
             &section));
  const auto* p = reinterpret_cast<const unsigned char*>(section.data());
  std::size_t pos = 0;
  const std::size_t size = section.size();
  auto read_u32 = [&](std::uint32_t* out) -> Status {
    if (size - pos < 4) {
      return InvalidArgumentError("trace aux section truncated");
    }
    *out = GetU32(p + pos);
    pos += 4;
    return OkStatus();
  };

  std::uint32_t seg_count = 0;
  MEMO_RETURN_IF_ERROR(read_u32(&seg_count));
  if (static_cast<std::uint64_t>(seg_count) * 16 > size) {
    return InvalidArgumentError("trace segment table overruns aux");
  }
  segments_.clear();
  segments_.reserve(seg_count);
  for (std::uint32_t i = 0; i < seg_count; ++i) {
    SegmentEntry s;
    std::uint32_t layer = 0;
    MEMO_RETURN_IF_ERROR(read_u32(&s.name_id));
    MEMO_RETURN_IF_ERROR(read_u32(&s.begin));
    MEMO_RETURN_IF_ERROR(read_u32(&s.end));
    MEMO_RETURN_IF_ERROR(read_u32(&layer));
    s.layer = static_cast<std::int32_t>(layer);
    if (s.name_id >= strings_.size()) {
      return InvalidArgumentError("trace segment names unknown string");
    }
    if (s.begin > s.end || s.end > record_count_) {
      return InvalidArgumentError("trace segment range out of bounds");
    }
    segments_.push_back(s);
  }
  std::uint32_t iter_count = 0;
  MEMO_RETURN_IF_ERROR(read_u32(&iter_count));
  if (static_cast<std::uint64_t>(iter_count) * 16 > size) {
    return InvalidArgumentError("trace iteration table overruns aux");
  }
  iterations_.clear();
  iterations_.reserve(iter_count);
  for (std::uint32_t i = 0; i < iter_count; ++i) {
    IterationEntry it;
    MEMO_RETURN_IF_ERROR(read_u32(&it.req_begin));
    MEMO_RETURN_IF_ERROR(read_u32(&it.req_end));
    MEMO_RETURN_IF_ERROR(read_u32(&it.seg_begin));
    MEMO_RETURN_IF_ERROR(read_u32(&it.seg_end));
    if (it.req_begin > it.req_end || it.req_end > record_count_ ||
        it.seg_begin > it.seg_end || it.seg_end > segments_.size()) {
      return InvalidArgumentError("trace iteration range out of bounds");
    }
    iterations_.push_back(it);
  }
  if (pos != size) {
    return InvalidArgumentError("trailing bytes after trace aux section");
  }
  return OkStatus();
}

void TraceReader::Rewind() {
  next_chunk_offset_ = kHeaderBytes;
  chunks_read_ = 0;
  records_read_ = 0;
  chunk_.clear();
  chunk_pos_ = 0;
}

StatusOr<bool> TraceReader::NextChunk() {
  if (chunks_read_ == chunk_count_) {
    if (next_chunk_offset_ != data_end_) {
      return InvalidArgumentError("trailing bytes in trace chunk stream");
    }
    if (records_read_ != record_count_) {
      return InvalidArgumentError(
          "trace chunk records do not sum to the declared record count");
    }
    return false;
  }
  if (data_end_ - next_chunk_offset_ < kChunkHeaderBytes) {
    return InvalidArgumentError("trace chunk header truncated");
  }
  std::string header;
  MEMO_RETURN_IF_ERROR(
      ReadAt(next_chunk_offset_, kChunkHeaderBytes, &header));
  const auto* p = reinterpret_cast<const unsigned char*>(header.data());
  const std::uint32_t records = GetU32(p);
  const std::uint32_t raw_bytes = GetU32(p + 4);
  const std::uint32_t stored_bytes = GetU32(p + 8);
  const std::uint8_t method = p[12];

  if (records == 0) {
    return InvalidArgumentError("trace chunk holds zero records");
  }
  if (records > chunk_records_) {
    return InvalidArgumentError("trace chunk exceeds the declared size");
  }
  if (raw_bytes != records * kAllocRecordBytes) {
    return InvalidArgumentError("trace chunk raw size is inconsistent");
  }
  if (method != kChunkRaw && method != kChunkLz) {
    return InvalidArgumentError("unknown trace chunk storage method");
  }
  if (method == kChunkRaw && stored_bytes != raw_bytes) {
    return InvalidArgumentError("raw trace chunk size mismatch");
  }
  if (stored_bytes == 0 || stored_bytes > raw_bytes) {
    return InvalidArgumentError("trace chunk stored size out of range");
  }
  if (data_end_ - next_chunk_offset_ - kChunkHeaderBytes < stored_bytes) {
    return InvalidArgumentError("trace chunk payload truncated");
  }
  std::string payload;
  MEMO_RETURN_IF_ERROR(ReadAt(next_chunk_offset_ + kChunkHeaderBytes,
                              stored_bytes, &payload));
  if (method == kChunkLz) {
    MEMO_RETURN_IF_ERROR(LzDecompress(payload, raw_bytes, &chunk_));
  } else {
    chunk_ = std::move(payload);
  }
  chunk_pos_ = 0;
  ++chunks_read_;
  next_chunk_offset_ += kChunkHeaderBytes + stored_bytes;
  return true;
}

StatusOr<bool> TraceReader::NextRecordBytes(const unsigned char** out) {
  if (chunk_pos_ >= chunk_.size()) {
    MEMO_ASSIGN_OR_RETURN(const bool more, NextChunk());
    if (!more) return false;
  }
  if (records_read_ >= record_count_) {
    return InvalidArgumentError(
        "trace chunks carry more records than declared");
  }
  *out = reinterpret_cast<const unsigned char*>(chunk_.data()) + chunk_pos_;
  chunk_pos_ += kAllocRecordBytes;
  ++records_read_;
  return true;
}

StatusOr<bool> TraceReader::NextAlloc(AllocRecord* out) {
  const unsigned char* bytes = nullptr;
  MEMO_ASSIGN_OR_RETURN(const bool more, NextRecordBytes(&bytes));
  if (!more) return false;
  *out = DecodeAllocRecord(bytes);
  if (out->op != kOpMalloc && out->op != kOpFree) {
    return InvalidArgumentError("trace record has an unknown op");
  }
  if (out->name_id >= strings_.size()) {
    return InvalidArgumentError("trace record names unknown string");
  }
  return true;
}

StatusOr<std::uint64_t> TraceReader::ContentFingerprint() {
  Rewind();
  Fnv1aStream hash;
  auto hash_i64 = [&hash](std::int64_t v) {
    std::string bytes;
    PutI64(&bytes, v);
    hash.Update(bytes);
  };
  AllocRecord r;
  while (true) {
    MEMO_ASSIGN_OR_RETURN(const bool more, NextAlloc(&r));
    if (!more) break;
    const unsigned char prefix[2] = {r.op, r.flags};
    hash.Update(prefix, sizeof(prefix));
    hash.Update(strings_[r.name_id]);
    hash.Update("\0", 1);
    hash_i64(r.tensor_id);
    hash_i64(r.bytes);
  }
  Rewind();
  return hash.digest();
}

}  // namespace memo::trace
