#include "common/file_io.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace memo {

Status WriteFileAtomically(const std::string& path, const std::string& bytes,
                           const char* what) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return InternalError(std::string("cannot create ") + what + " file " +
                         tmp + ": " + std::strerror(errno));
  }
  const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  // fflush + fclose before rename so the renamed file is always complete.
  const bool flushed = std::fflush(f) == 0;
  std::fclose(f);
  if (written != bytes.size() || !flushed) {
    std::remove(tmp.c_str());
    return InternalError(std::string("short write to ") + what + " file " +
                         tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return InternalError(std::string("cannot rename ") + what +
                         " into place: " + path + ": " +
                         std::strerror(errno));
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

}  // namespace memo
