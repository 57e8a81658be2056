#ifndef MEMO_COMMON_FILE_IO_H_
#define MEMO_COMMON_FILE_IO_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace memo {

// The program's one file layer: every whole file it writes or reads
// (traces, checkpoints, snapshots, plans, JSON outputs) goes through
// WriteWholeFile and ReadWholeFile, and every binary format encodes and
// decodes its fields with ByteWriter and ByteReader. (The disk tier's page
// file, read and written in place by raw-fd pwrite/pread, is not a whole
// file.)

/// How WriteWholeFile puts the bytes at `path`.
enum class WriteMode {
  /// Create or truncate `path` and write into it: for the paths a user
  /// names (--out, --trace-out, ...), where renaming a temp file over
  /// /dev/null or a FIFO would replace it instead of writing to it.
  kInPlace,
  /// Write `path` + ".tmp", flush and close it, then rename it over
  /// `path`, so a crash mid-write never tears the previous file
  /// (checkpoints, snapshots). The tmp file is removed on failure.
  kAtomic,
};

/// Writes `bytes` as the whole content of `path`, checking every write,
/// the flush and the close. Failures are kInternal; `what` names the kind
/// of file in the message ("checkpoint").
Status WriteWholeFile(const std::string& path, std::string_view bytes,
                      const char* what, WriteMode mode);

/// The whole content of `path`: kNotFound when it cannot be opened,
/// kInternal on a read error.
StatusOr<std::string> ReadWholeFile(const std::string& path,
                                    const char* what);

/// Appends fixed-width little-endian fields to `*out`, whatever the host's
/// byte order.
class ByteWriter {
 public:
  explicit ByteWriter(std::string* out) : out_(out) {}

  void U8(std::uint8_t v) { out_->push_back(static_cast<char>(v)); }
  void U16(std::uint16_t v) { Put(v, 2); }
  void U32(std::uint32_t v) { Put(v, 4); }
  void U64(std::uint64_t v) { Put(v, 8); }
  void I64(std::int64_t v) { Put(static_cast<std::uint64_t>(v), 8); }
  void Bytes(std::string_view bytes) { out_->append(bytes); }
  /// IEEE-754 bit patterns, 4 and 8 bytes per element.
  void F32s(const float* values, std::size_t n);
  void F64s(const double* values, std::size_t n);

 private:
  void Put(std::uint64_t v, int width) {
    for (int i = 0; i < width; ++i) {
      out_->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  }

  std::string* out_;
};

/// Reads what ByteWriter wrote. A read past the end of the buffer fails,
/// and so does a declared element count the bytes left cannot hold, so a
/// caller checks every count before it allocates for it. Every failure
/// carries `code` and starts with `what` (e.g. "snapshot /tmp/s.bin").
class ByteReader {
 public:
  ByteReader(std::string_view data, StatusCode code, std::string what)
      : data_(data), code_(code), what_(std::move(what)) {}

  Status U8(std::uint8_t* v) { return Get(v, 1); }
  Status U16(std::uint16_t* v) { return Get(v, 2); }
  Status U32(std::uint32_t* v) { return Get(v, 4); }
  Status U64(std::uint64_t* v) { return Get(v, 8); }
  Status I64(std::int64_t* v) { return Get(v, 8); }
  /// The next `len` bytes, as a view into the buffer.
  Status Bytes(std::size_t len, std::string_view* out);
  Status F32s(float* values, std::size_t n);
  Status F64s(double* values, std::size_t n);

  /// Fails unless `count` elements of at least `element_bytes` bytes each
  /// fit in the bytes left.
  Status CheckCount(std::uint64_t count, std::size_t element_bytes) const;
  /// A u32 element count, checked with CheckCount.
  Status Count(std::size_t element_bytes, std::uint32_t* count);

  std::size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

  /// A failure with this reader's code and prefix, for the format checks
  /// its caller makes on what it read.
  Status Error(const std::string& message) const;

 private:
  // The checks are inline: a trace decodes six fields per record.
  Status Need(std::size_t len) const {
    return len <= remaining() ? Status() : Overrun(len);
  }
  Status Overrun(std::size_t len) const;
  template <typename T>
  Status Get(T* v, int width) {
    if (static_cast<std::size_t>(width) > remaining()) {
      return Overrun(static_cast<std::size_t>(width));
    }
    std::uint64_t value = 0;
    for (int i = width - 1; i >= 0; --i) {
      value = (value << 8) | static_cast<unsigned char>(data_[pos_ + i]);
    }
    *v = static_cast<T>(value);
    pos_ += static_cast<std::size_t>(width);
    return Status();
  }

  std::string_view data_;
  std::size_t pos_ = 0;
  StatusCode code_;
  std::string what_;
};

}  // namespace memo

#endif  // MEMO_COMMON_FILE_IO_H_
