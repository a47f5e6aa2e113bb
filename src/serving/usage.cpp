#include "serving/usage.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/check.hpp"
#include "common/crc32.hpp"
#include "common/failpoint.hpp"
#include "common/io.hpp"
#include "common/metrics.hpp"

namespace eugene::serving {
namespace {

constexpr std::uint32_t kJournalMagic = 0x4A475545;  // "EUGJ"
// The one version written: seven-column class rows. Version 2 rows add a
// brown-out column and its frames end in a three-counter hedge/breaker
// block; replay reads both and discards them.
constexpr std::uint32_t kJournalVersion = 1;
constexpr std::uint32_t kNewestReadableVersion = 2;

/// One journal frame: the per-class deltas of a single record() batch.
std::vector<std::uint8_t> encode_frame(const std::vector<ClassUsage>& delta) {
  io::ByteWriter w;
  std::uint64_t touched = 0;
  for (const auto& d : delta) touched += d.requests > 0 ? 1 : 0;
  w.u64(touched);
  for (std::size_t c = 0; c < delta.size(); ++c) {
    const ClassUsage& d = delta[c];
    if (d.requests == 0) continue;
    w.u32(static_cast<std::uint32_t>(c));
    w.u64(d.requests);
    w.u64(d.stages_executed);
    w.f64(d.compute_ms);
    w.u64(d.expired);
    w.u64(d.early_exits);
    w.u64(d.shed);
    w.u64(d.retries);
  }
  return w.take();
}

/// Result of walking a journal image frame by frame.
struct JournalScan {
  std::size_t committed = 0;  ///< header + fully committed frames, in bytes
  bool truncated = false;     ///< the file ends in a torn tail
  std::uint32_t version = 0;  ///< header version (0 when headerless/torn)
  /// (payload, length) views into the scanned bytes, one per committed frame.
  std::vector<std::pair<const std::uint8_t*, std::uint32_t>> frames;
};

/// Walks `bytes` as a journal. Damage at the very end of the file — a short
/// header, a short payload, or a bad CRC on the final frame — is the
/// torn-tail signature of a crash mid-append and sets `truncated`; the same
/// damage mid-file, a bad magic, or a future version throws CorruptionError.
/// `committed` is the only prefix a writer may safely append after.
JournalScan scan_journal(const std::vector<std::uint8_t>& bytes,
                         const std::string& path) {
  JournalScan scan;
  if (bytes.size() < 8) {
    // A crash immediately after creating the journal can leave a partial
    // header; that is a torn tail with zero committed frames.
    scan.truncated = !bytes.empty();
    return scan;
  }
  io::ByteReader header(bytes.data(), 8, "usage journal");
  if (header.u32() != kJournalMagic)
    throw CorruptionError("usage journal " + path + ": bad magic");
  const std::uint32_t version = header.u32();
  if (version == 0 || version > kNewestReadableVersion)
    throw CorruptionError("usage journal " + path + ": unsupported version " +
                          std::to_string(version));
  scan.version = version;
  scan.committed = 8;
  while (scan.committed < bytes.size()) {
    const std::size_t pos = scan.committed;
    if (bytes.size() - pos < 8) {  // torn frame header
      scan.truncated = true;
      break;
    }
    io::ByteReader fh(bytes.data() + pos, 8, "usage journal frame");
    const std::uint32_t len = fh.u32();
    const std::uint32_t stored_crc = fh.u32();
    if (bytes.size() - pos - 8 < len) {  // torn payload
      scan.truncated = true;
      break;
    }
    const std::uint8_t* payload = bytes.data() + pos + 8;
    if (crc32(payload, len) != stored_crc) {
      // A bad checksum on the last bytes of the file is the torn-tail
      // signature; anywhere else it is real corruption.
      if (pos + 8 + len == bytes.size()) {
        scan.truncated = true;
        break;
      }
      throw CorruptionError("usage journal " + path + ": CRC mismatch mid-file");
    }
    scan.frames.emplace_back(payload, len);
    scan.committed = pos + 8 + len;
  }
  return scan;
}

void write_all(int fd, const std::uint8_t* data, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, data, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      throw IoError("UsageMeter: journal write: " +
                    std::string(std::strerror(errno)));
    }
    data += w;
    n -= static_cast<std::size_t>(w);
  }
}

}  // namespace

UsageMeter::UsageMeter(std::vector<double> stage_ms, std::vector<std::string> class_names)
    : stage_ms_(std::move(stage_ms)), num_classes_(class_names.size()) {
  EUGENE_REQUIRE(!class_names.empty(), "UsageMeter: no service classes");
  EUGENE_REQUIRE(!stage_ms_.empty(), "UsageMeter: no stage times");
  usage_.resize(class_names.size());
  for (std::size_t i = 0; i < class_names.size(); ++i)
    usage_[i].class_name = std::move(class_names[i]);
}

void UsageMeter::record(const std::vector<InferenceRequest>& requests,
                        const std::vector<InferenceResponse>& responses,
                        std::size_t model_num_stages) {
  EUGENE_REQUIRE(requests.size() == responses.size(),
                 "UsageMeter::record: request/response size mismatch");
  EUGENE_REQUIRE(model_num_stages <= stage_ms_.size(),
                 "UsageMeter::record: stage times cover fewer stages than the model");
  // Every request is checked before anything counts: a rejected batch moves
  // neither the metrics nor the ledger.
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EUGENE_REQUIRE(requests[i].service_class < num_classes_,
                   "UsageMeter::record: unknown service class");
    // A response can never claim more stages than the model has.
    EUGENE_CHECK_LE(responses[i].stages_run, model_num_stages)
        << "UsageMeter::record: response claims impossible stage count";
  }
  // Accumulate the batch into a delta first: the journal persists exactly
  // what this call adds, so replay reproduces the ledger frame by frame.
  std::vector<ClassUsage> delta(num_classes_);
  std::uint64_t admitted = 0;
  std::uint64_t stages = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    // A draining response was refused at the lifecycle gate and ran no
    // stage: it was never admitted, so it is billed nowhere.
    if (responses[i].draining) continue;
    ++admitted;
    ClassUsage& u = delta[requests[i].service_class];
    ++u.requests;
    u.stages_executed += responses[i].stages_run;
    for (std::size_t s = 0; s < responses[i].stages_run; ++s)
      u.compute_ms += stage_ms_[s];
    u.expired += responses[i].expired ? 1 : 0;
    u.shed += responses[i].degraded ? 1 : 0;
    u.retries += responses[i].retries;
    u.early_exits += (!responses[i].expired && !responses[i].degraded &&
                      responses[i].stages_run < model_num_stages)
                         ? 1
                         : 0;
    stages += responses[i].stages_run;
  }
  if (admitted == 0) return;  // nothing to count: no frame, no fsync
  {
    MutexLock lock(mutex_);
    // The frame commits before the ledger moves: a failed append throws
    // with usage_ untouched, so memory never counts what the journal lacks.
    if (journal_fd_ >= 0) append_frame_locked(delta);
    for (std::size_t c = 0; c < usage_.size(); ++c) {
      ClassUsage& u = usage_[c];
      const ClassUsage& d = delta[c];
      u.requests += d.requests;
      u.stages_executed += d.stages_executed;
      u.compute_ms += d.compute_ms;
      u.expired += d.expired;
      u.early_exits += d.early_exits;
      u.shed += d.shed;
      u.retries += d.retries;
    }
  }
  // Metered traffic also feeds the process-wide metrics registry — bumped
  // after mutex_ so metrics never nest inside the usage lock, and only for a
  // batch the ledger took.
  telemetry::MetricsRegistry& m = telemetry::MetricsRegistry::global();
  m.counter("usage.requests").inc(admitted);
  m.counter("usage.stages_executed").inc(stages);
}

UsageMeter::~UsageMeter() {
  MutexLock lock(mutex_);
  if (journal_fd_ >= 0) ::close(journal_fd_);
}

void UsageMeter::close_journal() {
  MutexLock lock(mutex_);
  if (journal_fd_ < 0) return;
  // Every committed frame was fsynced on append, so the final fsync here is
  // belt-and-braces for the (empty) tail; failure still detaches the fd.
  const bool synced = ::fsync(journal_fd_) == 0;
  const int saved = errno;
  ::close(journal_fd_);
  journal_fd_ = -1;
  if (!synced)
    throw IoError("UsageMeter: fsync on close_journal: " + std::string(std::strerror(saved)));
}

void UsageMeter::open_journal(const std::string& path) {
  MutexLock lock(mutex_);
  // Reopening after a crash mid-append must not append after a torn tail:
  // every later replay would then meet the garbage *mid-file* and throw,
  // losing the ledger for good. Scan exactly like replay_journal and cut the
  // file back to its committed prefix first.
  std::size_t committed = 0;
  std::size_t on_disk = 0;
  if (io::file_exists(path)) {
    const std::vector<std::uint8_t> bytes = io::read_file_bytes(path);
    on_disk = bytes.size();
    const JournalScan scan = scan_journal(bytes, path);
    // v1 frames after a v2 header would misparse on replay; refuse before
    // the file is opened for writing, so it stays byte-identical.
    if (scan.version > kJournalVersion)
      throw InvalidArgument("UsageMeter: journal " + path + " is version " +
                            std::to_string(scan.version) +
                            ", which this meter only replays; replay it, then "
                            "journal to a new path");
    committed = scan.committed;
  }
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (fd < 0)
    throw IoError("UsageMeter: cannot open journal " + path + ": " +
                  std::strerror(errno));
  // The fd is attached only once the file ends on a committed boundary, so a
  // failure here leaves the meter as it was.
  try {
    if (committed < on_disk && ::ftruncate(fd, static_cast<off_t>(committed)) != 0)
      throw IoError("UsageMeter: cannot truncate torn journal " + path + ": " +
                    std::strerror(errno));
    if (committed < 8) {  // brand-new file, or a header the crash tore
      const std::uint32_t header[2] = {kJournalMagic, kJournalVersion};
      write_all(fd, reinterpret_cast<const std::uint8_t*>(header), sizeof(header));
      committed = sizeof(header);
    }
    if (::fsync(fd) != 0)
      throw IoError("UsageMeter: fsync journal " + path + ": " + std::strerror(errno));
  } catch (const IoError&) {
    ::close(fd);
    throw;
  }
  if (journal_fd_ >= 0) ::close(journal_fd_);
  journal_fd_ = fd;
  journal_committed_ = committed;
}

void UsageMeter::append_frame_locked(const std::vector<ClassUsage>& delta) {
  const std::vector<std::uint8_t> payload = encode_frame(delta);
  io::ByteWriter frame;
  frame.u32(static_cast<std::uint32_t>(payload.size()));
  frame.u32(crc32(payload.data(), payload.size()));
  frame.raw(payload.data(), payload.size());
  const std::vector<std::uint8_t>& bytes = frame.buffer();

  if (EUGENE_FAILPOINT_FIRED("usage.journal.torn")) {
    // Simulated kill -9 mid-append: half the frame reaches the file and the
    // writer dies. Replay must keep every earlier frame and stop here.
    write_all(journal_fd_, bytes.data(), bytes.size() / 2);
    ::close(journal_fd_);
    journal_fd_ = -1;
    throw FailpointError("usage.journal.torn: simulated crash mid-append");
  }

  try {
    write_all(journal_fd_, bytes.data(), bytes.size());
    // fsync per frame: a committed frame survives power loss, not just a
    // process kill — the same guarantee the snapshot path gives.
    if (::fsync(journal_fd_) != 0)
      throw IoError("UsageMeter: fsync journal append: " +
                    std::string(std::strerror(errno)));
  } catch (const IoError&) {
    // Part of the frame may be on disk. Appending after it would turn a torn
    // tail into mid-file damage that no replay gets past, so cut the file
    // back to its last committed frame, or detach when even that fails.
    if (::ftruncate(journal_fd_, static_cast<off_t>(journal_committed_)) != 0) {
      ::close(journal_fd_);
      journal_fd_ = -1;
    }
    throw;
  }
  journal_committed_ += bytes.size();
}

JournalReplay UsageMeter::replay_journal(const std::string& path) {
  if (!io::file_exists(path)) return {};
  return replay_journal_image(io::read_file_bytes(path), path);
}

JournalReplay UsageMeter::replay_journal_image(const std::vector<std::uint8_t>& bytes,
                                               const std::string& what) {
  JournalReplay result;
  MutexLock lock(mutex_);
  const JournalScan scan = scan_journal(bytes, what);
  for (const auto& [payload, len] : scan.frames) {
    io::ByteReader r(payload, len, "usage journal frame");
    const std::uint64_t touched = r.u64();
    for (std::uint64_t t = 0; t < touched; ++t) {
      const std::uint32_t c = r.u32();
      if (c >= usage_.size())
        throw CorruptionError("usage journal " + what + ": frame names class " +
                              std::to_string(c) + " but meter has " +
                              std::to_string(usage_.size()));
      ClassUsage& u = usage_[c];
      u.requests += r.u64();
      u.stages_executed += r.u64();
      u.compute_ms += r.f64();
      u.expired += r.u64();
      u.early_exits += r.u64();
      u.shed += r.u64();
      u.retries += r.u64();
      if (scan.version == 2) (void)r.u64();  // brown-out column
    }
    if (scan.version == 2)  // hedges issued, hedges won, breaker trips
      for (int i = 0; i < 3; ++i) (void)r.u64();
    r.expect_exhausted();
    ++result.frames;
  }
  result.truncated = scan.truncated;
  return result;
}

std::vector<ClassUsage> UsageMeter::usage() const {
  MutexLock lock(mutex_);
  return usage_;
}

double UsageMeter::charge(std::size_t service_class, const PricingPolicy& pricing) const {
  MutexLock lock(mutex_);
  return charge_locked(service_class, pricing);
}

double UsageMeter::total_charge(const PricingPolicy& pricing) const {
  MutexLock lock(mutex_);
  double total = 0.0;
  for (std::size_t c = 0; c < usage_.size(); ++c) total += charge_locked(c, pricing);
  return total;
}

double UsageMeter::charge_locked(std::size_t service_class,
                                 const PricingPolicy& pricing) const {
  EUGENE_REQUIRE(service_class < usage_.size(), "UsageMeter::charge: unknown class");
  const ClassUsage& u = usage_[service_class];
  return pricing.per_request * static_cast<double>(u.requests) +
         pricing.per_compute_ms * u.compute_ms;
}

}  // namespace eugene::serving
