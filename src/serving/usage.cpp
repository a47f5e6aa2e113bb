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
// v1: 7-field class rows, no ops block. v2: rows gain brownout_sheds and
// every frame ends in an OpsUsage block. New journals are written v2;
// appends to an existing file stay in that file's header version.
constexpr std::uint32_t kJournalVersion = 2;

/// One journal frame: the per-class deltas of a single record() batch (plus,
/// in v2, the service-wide ops-counter delta), encoded in `version` format.
std::vector<std::uint8_t> encode_frame(const std::vector<ClassUsage>& delta,
                                       const OpsUsage& ops,
                                       std::uint32_t version) {
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
    if (version >= 2) w.u64(d.brownout_sheds);
  }
  if (version >= 2) {
    w.u64(ops.hedges_issued);
    w.u64(ops.hedges_won);
    w.u64(ops.breaker_trips);
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
  if (version == 0 || version > kJournalVersion)
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

UsageMeter::UsageMeter(sched::StageCostModel costs, std::vector<std::string> class_names)
    : costs_(std::move(costs)), num_classes_(class_names.size()) {
  EUGENE_REQUIRE(!class_names.empty(), "UsageMeter: no service classes");
  EUGENE_REQUIRE(costs_.num_stages() > 0, "UsageMeter: empty cost model");
  usage_.resize(class_names.size());
  for (std::size_t i = 0; i < class_names.size(); ++i)
    usage_[i].class_name = std::move(class_names[i]);
}

void UsageMeter::record(const std::vector<InferenceRequest>& requests,
                        const std::vector<InferenceResponse>& responses,
                        std::size_t model_num_stages) {
  EUGENE_REQUIRE(requests.size() == responses.size(),
                 "UsageMeter::record: request/response size mismatch");
  EUGENE_REQUIRE(model_num_stages <= costs_.num_stages(),
                 "UsageMeter::record: cost model covers fewer stages than the model");
  // Every request is checked before anything counts: a rejected batch moves
  // neither the metrics nor the ledger.
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EUGENE_REQUIRE(requests[i].service_class < num_classes_,
                   "UsageMeter::record: unknown service class");
    // A response can never claim more stages than the model has.
    EUGENE_CHECK_LE(responses[i].stages_run, model_num_stages)
        << "UsageMeter::record: response claims impossible stage count";
  }
  {
    // Metered traffic also feeds the process-wide metrics registry — bumped
    // before mutex_ so metrics never nest inside the usage lock.
    telemetry::MetricsRegistry& m = telemetry::MetricsRegistry::global();
    std::uint64_t stages = 0;
    for (const auto& r : responses) stages += r.stages_run;
    m.counter("usage.requests").inc(requests.size());
    m.counter("usage.stages_executed").inc(stages);
  }
  MutexLock lock(mutex_);
  // Accumulate the batch into a delta first: the journal persists exactly
  // what this call added, so replay reproduces the ledger frame by frame.
  std::vector<ClassUsage> delta(usage_.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ClassUsage& u = delta[requests[i].service_class];
    ++u.requests;
    u.stages_executed += responses[i].stages_run;
    for (std::size_t s = 0; s < responses[i].stages_run; ++s)
      u.compute_ms += costs_.stage_ms[s];
    u.expired += responses[i].expired ? 1 : 0;
    u.shed += responses[i].degraded ? 1 : 0;
    u.brownout_sheds += responses[i].browned_out ? 1 : 0;
    u.retries += responses[i].retries;
    u.early_exits += (!responses[i].expired && !responses[i].degraded &&
                      responses[i].stages_run < model_num_stages)
                         ? 1
                         : 0;
  }
  for (std::size_t c = 0; c < usage_.size(); ++c) {
    ClassUsage& u = usage_[c];
    const ClassUsage& d = delta[c];
    u.requests += d.requests;
    u.stages_executed += d.stages_executed;
    u.compute_ms += d.compute_ms;
    u.expired += d.expired;
    u.early_exits += d.early_exits;
    u.shed += d.shed;
    u.brownout_sheds += d.brownout_sheds;
    u.retries += d.retries;
  }
  if (journal_fd_ >= 0) append_frame_locked(delta, OpsUsage{});
}

void UsageMeter::record_ops(const OpsUsage& delta) {
  MutexLock lock(mutex_);
  ops_.hedges_issued += delta.hedges_issued;
  ops_.hedges_won += delta.hedges_won;
  ops_.breaker_trips += delta.breaker_trips;
  // A v1 journal has no ops block; the delta stays in-memory only there
  // rather than making the file unreadable to v1 readers.
  if (journal_fd_ >= 0 && journal_version_ >= 2)
    append_frame_locked(std::vector<ClassUsage>(usage_.size()), delta);
}

OpsUsage UsageMeter::ops() const {
  MutexLock lock(mutex_);
  return ops_;
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
  journal_version_ = 0;
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
  std::uint32_t version = kJournalVersion;
  if (io::file_exists(path)) {
    const std::vector<std::uint8_t> bytes = io::read_file_bytes(path);
    on_disk = bytes.size();
    const JournalScan scan = scan_journal(bytes, path);
    committed = scan.committed;
    // Version gate: keep appending in the file's own header version so the
    // journal never mixes frame encodings (a torn/fresh header re-writes
    // as current).
    if (committed >= 8) version = scan.version;
  }
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (fd < 0)
    throw IoError("UsageMeter: cannot open journal " + path + ": " +
                  std::strerror(errno));
  if (committed < on_disk && ::ftruncate(fd, static_cast<off_t>(committed)) != 0) {
    const int saved = errno;
    ::close(fd);
    throw IoError("UsageMeter: cannot truncate torn journal " + path + ": " +
                  std::strerror(saved));
  }
  if (journal_fd_ >= 0) ::close(journal_fd_);
  journal_fd_ = fd;
  journal_version_ = version;
  if (committed < 8) {  // brand-new file, or a header the crash tore
    const std::uint32_t header[2] = {kJournalMagic, kJournalVersion};
    write_all(journal_fd_, reinterpret_cast<const std::uint8_t*>(header),
              sizeof(header));
  }
  if (::fsync(journal_fd_) != 0)
    throw IoError("UsageMeter: fsync journal " + path + ": " +
                  std::strerror(errno));
}

void UsageMeter::append_frame_locked(const std::vector<ClassUsage>& delta,
                                     const OpsUsage& ops_delta) {
  const std::vector<std::uint8_t> payload =
      encode_frame(delta, ops_delta, journal_version_);
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

  write_all(journal_fd_, bytes.data(), bytes.size());
  // fsync per frame: a committed frame survives power loss, not just a
  // process kill — the same guarantee the snapshot path gives.
  if (::fsync(journal_fd_) != 0)
    throw IoError("UsageMeter: fsync journal append: " +
                  std::string(std::strerror(errno)));
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
      if (scan.version >= 2) u.brownout_sheds += r.u64();
    }
    if (scan.version >= 2) {
      ops_.hedges_issued += r.u64();
      ops_.hedges_won += r.u64();
      ops_.breaker_trips += r.u64();
    }
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
