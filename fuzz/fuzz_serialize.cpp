// Fuzz harness: nn/serialize checkpoint decoding (EUG2).
//
// Typed-error contract (DESIGN.md §10): feeding load_params arbitrary bytes
// yields either a successful load or a typed eugene error —
// CorruptionError for damaged streams, InvalidArgument for intact streams
// that do not match the architecture. Anything else (UB, abort, an untyped
// exception, unbounded allocation) is a finding.
#include <cstdint>
#include <sstream>

#include "common/error.hpp"
#include "nn/serialize.hpp"
#include "nn/staged_model.hpp"

namespace {

eugene::nn::StagedModel& fuzz_model() {
  static eugene::nn::StagedModel model = [] {
    eugene::nn::StagedResNetConfig cfg;
    cfg.in_channels = 2;
    cfg.height = 8;
    cfg.width = 8;
    cfg.num_classes = 4;
    cfg.stage_channels = {3, 4};
    cfg.head_hidden = 8;
    cfg.seed = 1;
    return eugene::nn::build_staged_resnet(cfg);
  }();
  return model;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  const std::string bytes(reinterpret_cast<const char*>(data), size);
  std::istringstream in(bytes, std::ios::binary);
  try {
    eugene::nn::load_params(fuzz_model().params(), in);
  } catch (const eugene::CorruptionError&) {
    // damaged stream, rejected typed — the contract holding
  } catch (const eugene::InvalidArgument&) {
    // intact stream, wrong architecture — also within contract
  }
  return 0;
}
