#include "common/file_io.h"

#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>

namespace memo {

Status WriteWholeFile(const std::string& path, std::string_view bytes,
                      const char* what, WriteMode mode) {
  const bool atomic = mode == WriteMode::kAtomic;
  const std::string target = atomic ? path + ".tmp" : path;
  std::FILE* f = std::fopen(target.c_str(), "wb");
  if (f == nullptr) {
    return InternalError(std::string("cannot create ") + what + " file " +
                         target + ": " + std::strerror(errno));
  }
  const bool written =
      std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  // fflush + fclose before any rename so the renamed file is complete; a
  // failed close is a failed write (the last buffered bytes are lost).
  const bool flushed = std::fflush(f) == 0;
  const bool closed = std::fclose(f) == 0;
  if (!written || !flushed || !closed) {
    const int error = errno;
    if (atomic) std::remove(target.c_str());
    return InternalError(std::string("short write to ") + what + " file " +
                         target + ": " + std::strerror(error));
  }
  if (atomic && std::rename(target.c_str(), path.c_str()) != 0) {
    const int error = errno;
    std::remove(target.c_str());
    return InternalError(std::string("cannot rename ") + what +
                         " into place: " + path + ": " +
                         std::strerror(error));
  }
  return OkStatus();
}

StatusOr<std::string> ReadWholeFile(const std::string& path,
                                    const char* what) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return NotFoundError(std::string(what) + " file not found: " + path);
  }
  std::string data;
  char chunk[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    data.append(chunk, n);
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    return InternalError(std::string("read error on ") + what + " file " +
                         path);
  }
  return data;
}

// Floats travel as their bit patterns. On a little-endian host those are
// already the file's bytes, so whole arrays are copied at once.
constexpr bool kLittleEndianHost = std::endian::native == std::endian::little;

void ByteWriter::F32s(const float* values, std::size_t n) {
  if constexpr (kLittleEndianHost) {
    out_->append(reinterpret_cast<const char*>(values), 4 * n);
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      U32(std::bit_cast<std::uint32_t>(values[i]));
    }
  }
}

void ByteWriter::F64s(const double* values, std::size_t n) {
  if constexpr (kLittleEndianHost) {
    out_->append(reinterpret_cast<const char*>(values), 8 * n);
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      U64(std::bit_cast<std::uint64_t>(values[i]));
    }
  }
}

Status ByteReader::Error(const std::string& message) const {
  return Status(code_, what_ + ": " + message);
}

Status ByteReader::Overrun(std::size_t len) const {
  return Error("truncated: " + std::to_string(len) +
               " bytes wanted at offset " + std::to_string(pos_) + ", " +
               std::to_string(remaining()) + " left");
}

Status ByteReader::Bytes(std::size_t len, std::string_view* out) {
  MEMO_RETURN_IF_ERROR(Need(len));
  *out = data_.substr(pos_, len);
  pos_ += len;
  return OkStatus();
}

Status ByteReader::F32s(float* values, std::size_t n) {
  MEMO_RETURN_IF_ERROR(CheckCount(n, 4));
  if constexpr (kLittleEndianHost) {
    // An empty vector's data() may be null, which memcpy must not see.
    if (n > 0) std::memcpy(values, data_.data() + pos_, 4 * n);
    pos_ += 4 * n;
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      std::uint32_t bits = 0;
      MEMO_RETURN_IF_ERROR(U32(&bits));
      values[i] = std::bit_cast<float>(bits);
    }
  }
  return OkStatus();
}

Status ByteReader::F64s(double* values, std::size_t n) {
  MEMO_RETURN_IF_ERROR(CheckCount(n, 8));
  if constexpr (kLittleEndianHost) {
    if (n > 0) std::memcpy(values, data_.data() + pos_, 8 * n);
    pos_ += 8 * n;
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      std::uint64_t bits = 0;
      MEMO_RETURN_IF_ERROR(U64(&bits));
      values[i] = std::bit_cast<double>(bits);
    }
  }
  return OkStatus();
}

Status ByteReader::CheckCount(std::uint64_t count,
                              std::size_t element_bytes) const {
  if (element_bytes == 0 || count <= remaining() / element_bytes) {
    return OkStatus();
  }
  return Error("declares " + std::to_string(count) + " entries of at least " +
               std::to_string(element_bytes) + " bytes at offset " +
               std::to_string(pos_) + ", but only " +
               std::to_string(remaining()) + " bytes are left");
}

Status ByteReader::Count(std::size_t element_bytes, std::uint32_t* count) {
  MEMO_RETURN_IF_ERROR(U32(count));
  Status fits = CheckCount(*count, element_bytes);
  if (!fits.ok()) *count = 0;
  return fits;
}

}  // namespace memo
