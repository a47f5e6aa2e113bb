// Fuzz harness: usage-journal replay (serving/usage).
//
// Typed-error contract (DESIGN.md §10): replaying an arbitrary journal image
// yields applied frames (possibly zero, possibly with the torn-tail flag) or
// a typed CorruptionError — bad magic, future version, mid-file CRC damage,
// and semantically invalid committed frames are all *expected* outcomes.
// The billing ledger must never be corrupted silently, hang, or crash.
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "serving/usage.hpp"

namespace {

eugene::serving::UsageMeter& fuzz_meter() {
  static eugene::serving::UsageMeter meter({1.0, 2.0, 3.0},
                                            {"free", "standard", "premium"});
  return meter;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  const std::vector<std::uint8_t> bytes(data, data + size);
  try {
    (void)fuzz_meter().replay_journal_image(bytes, "fuzz input");
  } catch (const eugene::CorruptionError&) {
    // damaged journal, rejected typed — the contract holding
  }
  return 0;
}
