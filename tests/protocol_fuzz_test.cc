// Seeded fuzz of the plan protocol's one JSON reader, first on its own and
// then behind a live socket:
//   - reader: mutated and truncated request and answer lines and random
//     bytes each read, or come back INVALID_ARGUMENT, never crash; every
//     string JsonEscape writes (each byte value, random byte strings, and
//     every value a fuzzed line reads to) reads back exactly;
//   - socket: one connection sends such lines (each under max_line_bytes,
//     none with a newline inside) interleaved with health probes in both
//     spellings to a server with a stub solver. Every line gets exactly one
//     answer carrying a code, health stays `serving`, and requests_served
//     counts only the lines that are not health probes.
// Each half runs for about a second and a half, from a fixed seed.

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/socket_server.h"

namespace {

using memo::StatusCode;
using memo::serve::JsonEscape;
using memo::serve::ReadJsonObject;

constexpr auto kPhase = std::chrono::milliseconds(1500);
constexpr std::size_t kMaxLineBytes = 4096;

/// Request lines, answer lines and near misses the mutations start from.
std::vector<std::string> SeedLines() {
  memo::core::PlanResult result;
  result.kind = memo::core::PlanQueryKind::kMaxSeq;
  result.max_seq = 512 * 1024;
  const std::string payload = memo::serve::SerializePlanResult(result);
  return {
      "health",
      "{\"kind\":\"health\"}",
      "{ \"kind\" : \"health\" }",
      "{\"kind\":\"best\",\"model\":\"7B\",\"seq\":\"512K\",\"gpus\":8}",
      "{\"kind\":\"strategy\",\"system\":\"megatron\",\"tp\":4,\"cp\":2,"
      "\"seq\":\"128K\",\"full_recompute\":true}",
      "{\"kind\":\"maxseq\",\"step\":\"64K\",\"cap\":\"1024K\","
      "\"host_gib\":64,\"nvme_gib\":8192,\"nvme_gbps\":6.5}",
      "{ \"kind\" : \"strategy\" , \"system\" : \"deepspeed\" , \"sp\" : 8 }",
      "{\"model\":\"\\u0037B\",\"note\":\"a\\r\\n\\t\\\"b\\\\\\/\\u001f\"}",
      "{\"alpha\":0.25,\"alpha_steps\":0,\"tp\":{\"nested\":[1,\"]\"]}}",
      memo::serve::BuildResponseLine(memo::OkStatus(), 0x0123456789abcdefULL,
                                     true, payload),
      memo::serve::BuildErrorResponseLine(
          memo::InvalidArgumentError("seq must be \"512K\"\n\x01")),
      memo::serve::BuildHealthResponseLine(memo::serve::HealthSnapshot{}),
  };
}

/// One to four random edits: overwrite, insert, erase, truncate, copy a
/// slice, or insert an escape.
std::string Mutate(std::string line, std::mt19937_64& rng) {
  static constexpr char kSyntax[] = "{}[]\":,\\ u0123456789abcdefxtrn/";
  const int edits = 1 + static_cast<int>(rng() % 4);
  for (int e = 0; e < edits; ++e) {
    const std::size_t at = rng() % (line.size() + 1);
    switch (rng() % 6) {
      case 0:
        if (at < line.size()) line[at] = static_cast<char>(rng());
        break;
      case 1:
        line.insert(at, 1, kSyntax[rng() % (sizeof(kSyntax) - 1)]);
        break;
      case 2:
        if (at < line.size()) line.erase(at, 1 + rng() % 4);
        break;
      case 3:
        line.resize(at);
        break;
      case 4:
        line.insert(at, line.substr(rng() % (line.size() + 1), rng() % 16));
        break;
      default: {
        char escape[8];
        std::snprintf(escape, sizeof(escape), "\\u%04x",
                      static_cast<unsigned>(rng() % 0x100));
        line.insert(at, escape);
        break;
      }
    }
  }
  return line;
}

std::string RandomBytes(std::mt19937_64& rng, std::size_t max_size) {
  std::string bytes(rng() % (max_size + 1), '\0');
  for (char& c : bytes) c = static_cast<char>(rng());
  return bytes;
}

/// The next fuzz line: mostly a mutated seed, sometimes random bytes.
std::string NextLine(const std::vector<std::string>& seeds,
                     std::mt19937_64& rng) {
  if (rng() % 8 == 0) return RandomBytes(rng, 64);
  return Mutate(seeds[rng() % seeds.size()], rng);
}

/// `{"<key>":"<value>"}` with both JsonEscape'd.
std::string OneField(const std::string& key, const std::string& value) {
  return "{\"" + JsonEscape(key) + "\":\"" + JsonEscape(value) + "\"}";
}

/// Whether the server must answer `line` as a health probe: the bare word,
/// or an object whose kind reads as health.
bool IsHealthProbe(const std::string& line) {
  memo::serve::JsonObject object;
  return line == "health" || (ReadJsonObject(line, &object).ok() &&
                              object.Get("kind") == "health");
}

TEST(ProtocolFuzzTest, ReaderReadsOrRefusesEveryLine) {
  // Every byte value, escaped, reads back exactly.
  for (int byte = 0; byte < 256; ++byte) {
    const std::string text(3, static_cast<char>(byte));
    memo::serve::JsonObject object;
    ASSERT_TRUE(ReadJsonObject(OneField("k", text), &object).ok()) << byte;
    ASSERT_EQ(object.Get("k"), text) << byte;
  }

  std::mt19937_64 rng(0x9f0e57);
  const std::vector<std::string> seeds = SeedLines();
  const auto stop_at = std::chrono::steady_clock::now() + kPhase;
  int lines = 0;
  int read = 0;
  while (std::chrono::steady_clock::now() < stop_at) {
    const std::string line = NextLine(seeds, rng);
    ++lines;
    memo::serve::JsonObject object;
    const memo::Status status = ReadJsonObject(line, &object);
    if (!status.ok()) {
      ASSERT_EQ(status.code(), StatusCode::kInvalidArgument)
          << JsonEscape(line) << ": " << status.ToString();
    } else {
      ++read;
      // Every key and value the line read to survives JsonEscape and a
      // second read, nested raw text included.
      for (const auto& [key, value] : object.fields) {
        memo::serve::JsonObject again;
        ASSERT_TRUE(ReadJsonObject(OneField(key, value), &again).ok())
            << JsonEscape(line);
        ASSERT_EQ(again.fields.size(), 1u) << JsonEscape(line);
        ASSERT_EQ(again.Get(key), value) << JsonEscape(line);
      }
    }
    const auto request = memo::serve::ParsePlanRequestJson(line);
    if (!request.ok()) {
      ASSERT_EQ(request.status().code(), StatusCode::kInvalidArgument)
          << JsonEscape(line) << ": " << request.status().ToString();
    }
    // Random byte strings, escaped, read back exactly.
    const std::string text = RandomBytes(rng, 48);
    memo::serve::JsonObject escaped;
    ASSERT_TRUE(ReadJsonObject(OneField("text", text), &escaped).ok())
        << JsonEscape(text);
    ASSERT_EQ(escaped.Get("text"), text) << JsonEscape(text);
  }
  // The mutations must reach both outcomes, or the fuzz tests nothing.
  EXPECT_GT(read, lines / 20) << lines << " lines";
  EXPECT_LT(read, lines) << lines << " lines";
}

/// A blocking client on one connection; every read waits at most 10 s, so
/// a missing answer fails the test instead of hanging it.
class LineClient {
 public:
  explicit LineClient(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", path.c_str());
    if (fd_ >= 0 &&
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
            0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~LineClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  bool connected() const { return fd_ >= 0; }

  bool Send(const std::string& line) {
    const std::string data = line + "\n";
    std::size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// The next answer line, or "" when none arrives within `timeout_ms`.
  std::string Receive(int timeout_ms = 10000) {
    std::size_t newline;
    while ((newline = buffer_.find('\n')) == std::string::npos) {
      pollfd pfd{fd_, POLLIN, 0};
      if (::poll(&pfd, 1, timeout_ms) <= 0) return "";
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return "";
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
    const std::string answer = buffer_.substr(0, newline);
    buffer_.erase(0, newline + 1);
    return answer;
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

TEST(ProtocolFuzzTest, LiveSocketAnswersEveryLineOnceAndStaysServing) {
  const std::string socket_path =
      ::testing::TempDir() + "memo_protocol_fuzz.sock";
  std::remove(socket_path.c_str());

  memo::serve::PlanServerOptions server_options;
  server_options.sessions = 2;
  server_options.solver = [](const memo::core::PlanRequest& request) {
    memo::core::PlanResult result;
    result.kind = request.kind;
    return result;
  };
  memo::serve::PlanServer server(server_options);
  memo::serve::SocketServerOptions options;
  options.socket_path = socket_path;
  options.max_line_bytes = kMaxLineBytes;
  memo::serve::SocketServer socket_server(&server, options);
  ASSERT_TRUE(socket_server.Start().ok());
  LineClient client(socket_path);
  ASSERT_TRUE(client.connected());

  std::mt19937_64 rng(0x50c4e7);
  const std::vector<std::string> seeds = SeedLines();
  const char* const probes[] = {"health", "{\"kind\":\"health\"}",
                                "{ \"kind\" : \"health\" }"};
  std::int64_t requests = 0;
  int probes_sent = 0;
  const auto stop_at = std::chrono::steady_clock::now() + kPhase;
  while (std::chrono::steady_clock::now() < stop_at) {
    std::string line = rng() % 4 == 0 ? probes[rng() % 3]
                                      : NextLine(seeds, rng);
    for (char& c : line) {
      if (c == '\n') c = ' ';
    }
    // The server skips an empty line and closes on an oversized one.
    if (line.empty() || line.size() >= kMaxLineBytes) continue;
    const bool health = IsHealthProbe(line);
    ASSERT_TRUE(client.Send(line)) << JsonEscape(line);
    const std::string answer_line = client.Receive();
    memo::serve::JsonObject answer;
    ASSERT_TRUE(ReadJsonObject(answer_line, &answer).ok())
        << JsonEscape(line) << " -> " << answer_line;
    ASSERT_FALSE(answer.Get("code").empty())
        << JsonEscape(line) << " -> " << answer_line;
    if (health) {
      ++probes_sent;
      ASSERT_EQ(answer.Get("code"), "0") << answer_line;
      memo::serve::JsonObject state;
      ASSERT_TRUE(ReadJsonObject(answer.Get("health"), &state).ok())
          << answer_line;
      ASSERT_EQ(state.Get("state"), "serving") << answer_line;
    } else {
      ++requests;
      ASSERT_TRUE(answer.Get("health").empty())
          << JsonEscape(line) << " -> " << answer_line;
    }
  }
  // No line left a second answer behind: the last probe's answer is the
  // last byte on the connection.
  ASSERT_TRUE(client.Send("health"));
  memo::serve::JsonObject last;
  ASSERT_TRUE(ReadJsonObject(client.Receive(), &last).ok());
  EXPECT_FALSE(last.Get("health").empty());
  EXPECT_EQ(client.Receive(100), "");

  EXPECT_GT(probes_sent, 0);
  EXPECT_GT(requests, 0);
  EXPECT_EQ(socket_server.requests_served(), requests);
  socket_server.Stop();
}

}  // namespace
