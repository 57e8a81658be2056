#ifndef MEMO_COMMON_COMPRESS_H_
#define MEMO_COMMON_COMPRESS_H_

#include <string>
#include <string_view>

#include "common/status.h"

namespace memo {

/// Byte-oriented LZ77 codec in the LZ4 block style: greedy hash-table
/// matching, 16-bit offsets, nibble-packed literal/match lengths with
/// 255-byte extensions. Self-contained and fully deterministic — the same
/// input produces the same bytes on every host and toolchain, which is what
/// lets compressed golden trace fixtures be byte-compared in tests (a
/// system zlib could change its encoder between versions; this cannot).
///
/// The .memotrc writer compresses its fixed-width trace records with it
/// (highly repetitive — one 24/32-byte layout, recurring sizes and name
/// ids, typically 4-10x); a chunk that sees no gain is stored raw.
std::string LzCompress(std::string_view input);

/// Decompresses a LzCompress block. `expected_size` is the exact raw size
/// recorded next to the chunk; output of any other size, or any token that
/// would read or write out of bounds, fails with kInvalidArgument. The
/// decoder never reads past `input` or writes past `expected_size`, no
/// matter how corrupt the block is — the property the trace fuzz test
/// hammers on.
Status LzDecompress(std::string_view input, std::size_t expected_size,
                    std::string* out);

}  // namespace memo

#endif  // MEMO_COMMON_COMPRESS_H_
