#include "offload/disk_backend.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <utility>

#include "common/fault_injector.h"
#include "common/fingerprint.h"
#include "common/logging.h"
#include "common/retry.h"
#include "common/thread_pool.h"
#include "common/units.h"
#include "obs/metrics.h"
#include "obs/trace_recorder.h"

namespace memo::offload {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::string SpillDirectory(const DiskBackendOptions& options) {
  if (!options.directory.empty()) return options.directory;
  const char* tmp = std::getenv("TMPDIR");
  return tmp != nullptr && tmp[0] != '\0' ? tmp : "/tmp";
}

/// Each page write and read-back runs under the default policy.
constexpr RetryPolicy kPageRetry{};

/// Process-wide counter so concurrent stores get distinct spill files.
std::int64_t NextFileId() {
  static std::atomic<std::int64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

DiskBackend::DiskBackend(const DiskBackendOptions& options)
    : options_(options) {
  MEMO_CHECK_GT(options_.page_bytes, 0);
  MEMO_CHECK(options_.bytes_per_second == 0.0 ||
             options_.bytes_per_second >= kMinDiskBytesPerSecond)
      << "disk throttle of " << options_.bytes_per_second
      << " bytes/s is below 1 MB/s";
}

DiskBackend::~DiskBackend() {
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ >= 0) ::close(fd_);
  // Spill data is scratch by definition: remove the file with the backend.
  if (!path_.empty()) ::unlink(path_.c_str());
}

Status DiskBackend::EnsureFileLocked() {
  if (fd_ >= 0) return OkStatus();
  const std::string path =
      SpillDirectory(options_) + "/memo_spill_" +
      std::to_string(static_cast<long>(::getpid())) + "_" +
      std::to_string(NextFileId()) + ".bin";
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_EXCL, 0600);
  if (fd < 0) {
    return InternalError("cannot create spill file " + path + ": " +
                         std::strerror(errno));
  }
  fd_ = fd;
  path_ = path;
  return OkStatus();
}

void DiskBackend::Throttle(std::int64_t bytes, double elapsed_seconds) {
  if (options_.bytes_per_second <= 0.0) return;
  const double target =
      static_cast<double>(bytes) / options_.bytes_per_second;
  if (target > elapsed_seconds) {
    const double wait = target - elapsed_seconds;
    static obs::MetricCounter* throttle_wait =
        obs::MetricsRegistry::Global().counter("disk.throttle_wait_micros");
    throttle_wait->Add(static_cast<std::int64_t>(wait * 1e6));
    MEMO_TRACE_SCOPE("disk_throttle", "disk");
    std::this_thread::sleep_for(std::chrono::duration<double>(wait));
  }
}

Status DiskBackend::Put(std::int64_t key, std::string_view blob) {
  const Clock::time_point start = Clock::now();
  const std::int64_t total = static_cast<std::int64_t>(blob.size());
  MEMO_TRACE_SCOPE_ARG("disk_put", "disk", "bytes", total);
  const std::int64_t page = options_.page_bytes;
  const std::int64_t num_pages = std::max<std::int64_t>(
      1, (total + page - 1) / page);

  std::vector<PageRef> pages(num_pages);
  int fd = -1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (index_.count(key) > 0) {
      return InvalidArgumentError("key " + std::to_string(key) +
                                  " already spilled to disk tier");
    }
    MEMO_RETURN_IF_ERROR(EnsureFileLocked());
    fd = fd_;
    for (auto& p : pages) {
      if (!free_slots_.empty()) {
        p.slot = free_slots_.back();
        free_slots_.pop_back();
      } else {
        p.slot = next_slot_++;
      }
    }
  }

  // Checksum + positioned write of every page, fanned out over the shared
  // pool (chunk grain 1 page). pwrite offsets are disjoint per page, so the
  // fan-out is race-free and deterministic. Each page write runs under the
  // per-page retry policy, so a transient fault (injected at site
  // "disk.page_write", or a real failed syscall) is re-attempted with
  // backoff before the page's error surfaces.
  std::vector<Status> page_status(num_pages);
  ThreadPool::Global().ParallelFor(
      0, num_pages, 1, [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t i = begin; i < end; ++i) {
          PageRef& p = pages[i];
          const std::int64_t offset = i * page;
          p.payload_len = std::min(page, total - offset);
          if (p.payload_len < 0) p.payload_len = 0;  // empty blob: one page
          const char* payload = blob.data() + offset;
          p.checksum = Fnv1a64(payload, static_cast<std::size_t>(
                                            p.payload_len));
          page_status[i] = kPageRetry.Run(
              "disk.page_write", [&]() -> Status {
                MEMO_RETURN_IF_ERROR(
                    FaultInjector::Global().MaybeFail("disk.page_write"));
                std::int64_t written = 0;
                while (written < p.payload_len) {
                  const ssize_t n = ::pwrite(
                      fd, payload + written,
                      static_cast<std::size_t>(p.payload_len - written),
                      p.slot * page + written);
                  if (n < 0) {
                    return InternalError(
                        std::string("pwrite to spill file failed: ") +
                        std::strerror(errno));
                  }
                  written += n;
                }
                return OkStatus();
              });
        }
      });

  const double elapsed = SecondsSince(start);
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Status& s : page_status) {
      if (!s.ok()) {
        for (const PageRef& p : pages) free_slots_.push_back(p.slot);
        MEMO_TRACE_INSTANT("disk_io_error", "disk", s.ToString());
        return s;
      }
    }
    index_.emplace(key, std::move(pages));
    static obs::MetricCounter* put_bytes_counter =
        obs::MetricsRegistry::Global().counter("disk.put_bytes");
    put_bytes_counter->Add(total);
    stats_.put_bytes += total;
    stats_.spill_pages += num_pages;
    stats_.resident_bytes += total;
    stats_.peak_resident_bytes =
        std::max(stats_.peak_resident_bytes, stats_.resident_bytes);
    stats_.write_seconds += elapsed;
    // The emulated-bandwidth sleep below is part of the write: account it.
    if (options_.bytes_per_second > 0.0) {
      const double target =
          static_cast<double>(total) / options_.bytes_per_second;
      if (target > elapsed) stats_.write_seconds += target - elapsed;
    }
  }
  Throttle(total, elapsed);
  return OkStatus();
}

Status DiskBackend::ReadPages(const std::vector<PageRef>& pages,
                              std::string* blob) {
  const Clock::time_point start = Clock::now();
  std::int64_t total = 0;
  for (const PageRef& p : pages) total += p.payload_len;
  MEMO_TRACE_SCOPE_ARG("disk_read", "disk", "bytes", total);
  const std::int64_t page = options_.page_bytes;
  const std::int64_t num_pages = static_cast<std::int64_t>(pages.size());
  blob->resize(static_cast<std::size_t>(total));
  std::vector<Status> page_status(num_pages);
  int fd;
  {
    std::lock_guard<std::mutex> lock(mu_);
    fd = fd_;
  }
  ThreadPool::Global().ParallelFor(
      0, num_pages, 1, [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t i = begin; i < end; ++i) {
          const PageRef& p = pages[i];
          char* payload = blob->data() + i * page;
          page_status[i] = kPageRetry.Run(
              "disk.page_read", [&]() -> Status {
                MEMO_RETURN_IF_ERROR(
                    FaultInjector::Global().MaybeFail("disk.page_read"));
                std::int64_t got = 0;
                while (got < p.payload_len) {
                  const ssize_t n = ::pread(
                      fd, payload + got,
                      static_cast<std::size_t>(p.payload_len - got),
                      p.slot * page + got);
                  if (n < 0) {
                    return InternalError(
                        std::string("pread from spill file failed: ") +
                        std::strerror(errno));
                  }
                  if (n == 0) {
                    return InternalError("spill file truncated: short read");
                  }
                  got += n;
                }
                const std::uint64_t checksum = Fnv1a64(
                    payload, static_cast<std::size_t>(p.payload_len));
                if (checksum != p.checksum) {
                  return InternalError(
                      "checksum mismatch on spill page (slot " +
                      std::to_string(p.slot) + "): stored " +
                      std::to_string(p.checksum) + ", read " +
                      std::to_string(checksum));
                }
                return OkStatus();
              });
        }
      });

  const double elapsed = SecondsSince(start);
  Status failure = OkStatus();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.checksum_verifications += num_pages;
    for (const Status& s : page_status) {
      if (!s.ok()) {
        failure = s;
        break;
      }
    }
    stats_.read_seconds += elapsed;
    if (failure.ok()) {
      // Only a successful take releases the pages: on failure the blob is
      // still resident on disk and the caller reinstates its index entry,
      // so a later retry can still read it.
      for (const PageRef& p : pages) free_slots_.push_back(p.slot);
      static obs::MetricCounter* take_bytes_counter =
          obs::MetricsRegistry::Global().counter("disk.take_bytes");
      take_bytes_counter->Add(total);
      stats_.take_bytes += total;
      stats_.resident_bytes -= total;
      if (options_.bytes_per_second > 0.0) {
        const double target =
            static_cast<double>(total) / options_.bytes_per_second;
        if (target > elapsed) stats_.read_seconds += target - elapsed;
      }
    }
  }
  Throttle(total, elapsed);
  if (!failure.ok()) {
    MEMO_TRACE_INSTANT("disk_io_error", "disk", failure.ToString());
  }
  return failure;
}

Status DiskBackend::TakeInto(std::int64_t key, std::string* blob) {
  std::vector<PageRef> pages;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it == index_.end()) {
      return NotFoundError("key " + std::to_string(key) +
                           " not present in disk tier");
    }
    pages = std::move(it->second);
    index_.erase(it);
  }
  const Status read = ReadPages(pages, blob);
  if (!read.ok()) {
    // The pages were not released (see ReadPages): put the blob back so a
    // retrying caller finds it intact instead of a spurious kNotFound.
    std::lock_guard<std::mutex> lock(mu_);
    index_.emplace(key, std::move(pages));
  }
  return read;
}

bool DiskBackend::Contains(std::int64_t key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return index_.count(key) > 0;
}

TierStats DiskBackend::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::string DiskBackend::path() const {
  std::lock_guard<std::mutex> lock(mu_);
  return path_;
}

}  // namespace memo::offload
