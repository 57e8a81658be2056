#ifndef MEMO_COMMON_FILE_IO_H_
#define MEMO_COMMON_FILE_IO_H_

#include <string>

#include "common/status.h"

namespace memo {

/// Replaces `path` with `bytes` atomically: the bytes go to `path` + ".tmp",
/// which is flushed, closed and renamed over `path`, so a crash mid-write
/// never tears the previous file. The tmp file is removed on failure.
/// `what` names the kind of file in error messages ("checkpoint").
Status WriteFileAtomically(const std::string& path, const std::string& bytes,
                           const char* what);

/// The whole content of `path`: kNotFound when it cannot be opened,
/// kInternal on a read error.
StatusOr<std::string> ReadWholeFile(const std::string& path,
                                    const char* what);

}  // namespace memo

#endif  // MEMO_COMMON_FILE_IO_H_
