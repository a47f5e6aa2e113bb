#include "serving/registry.hpp"

#include "common/failpoint.hpp"
#include "common/metrics.hpp"

namespace eugene::serving {

std::shared_ptr<ModelEntry> ModelEntry::with_model(nn::StagedModel next) const {
  auto copy = std::make_shared<ModelEntry>(name, std::move(next));
  copy->curves = curves;
  copy->stage_ms = stage_ms;
  copy->calibration_alpha = calibration_alpha;
  copy->calibrated = calibrated;
  return copy;
}

std::size_t ModelRegistry::add(std::string name, nn::StagedModel model) {
  return add_entry(std::make_shared<ModelEntry>(std::move(name), std::move(model)));
}

std::size_t ModelRegistry::add_entry(std::shared_ptr<ModelEntry> entry) {
  EUGENE_REQUIRE(entry != nullptr, "ModelRegistry::add_entry: null entry");
  EUGENE_REQUIRE(!entry->name.empty(), "ModelRegistry::add: empty name");
  MutexLock lock(mutex_);
  const ViewPtr current = pin();
  EUGENE_REQUIRE(!current->find(entry->name).has_value(),
                 "ModelRegistry::add: duplicate model name '" + entry->name + "'");
  auto next = std::make_shared<View>(*current);
  next->entries_.push_back(std::move(entry));
  const std::size_t handle = next->entries_.size() - 1;
  publish_locked(std::move(next));
  return handle;
}

void ModelRegistry::update(std::size_t handle,
                           const std::function<void(ModelEntry&)>& fn) {
  MutexLock lock(mutex_);
  const ViewPtr current = pin();
  EUGENE_REQUIRE(handle < current->size(), "ModelRegistry: bad handle");
  auto next = std::make_shared<View>(*current);
  std::shared_ptr<ModelEntry> working = next->entries_[handle]->clone();
  fn(*working);  // private clone: stages may run, curves may fit — unpublished
  next->entries_[handle] = std::move(working);
  publish_locked(std::move(next));
}

void ModelRegistry::replace(std::size_t handle, std::shared_ptr<ModelEntry> entry) {
  EUGENE_REQUIRE(entry != nullptr, "ModelRegistry::replace: null entry");
  EUGENE_REQUIRE(!entry->name.empty(), "ModelRegistry::replace: empty name");
  MutexLock lock(mutex_);
  const ViewPtr current = pin();
  EUGENE_REQUIRE(handle < current->size(), "ModelRegistry: bad handle");
  const std::optional<std::size_t> named = current->find(entry->name);
  EUGENE_REQUIRE(!named.has_value() || *named == handle,
                 "ModelRegistry::replace: name '" + entry->name +
                     "' already belongs to another handle");
  auto next = std::make_shared<View>(*current);
  next->entries_[handle] = std::move(entry);
  publish_locked(std::move(next));
}

void ModelRegistry::replace_or_add(std::vector<std::shared_ptr<ModelEntry>> entries) {
  MutexLock lock(mutex_);
  const ViewPtr current = pin();
  auto next = std::make_shared<View>(*current);
  for (std::shared_ptr<ModelEntry>& entry : entries) {
    EUGENE_REQUIRE(entry != nullptr, "ModelRegistry::replace_or_add: null entry");
    EUGENE_REQUIRE(!entry->name.empty(), "ModelRegistry::replace_or_add: empty name");
    if (const std::optional<std::size_t> existing = next->find(entry->name)) {
      next->entries_[*existing] = std::move(entry);
    } else {
      next->entries_.push_back(std::move(entry));
    }
  }
  publish_locked(std::move(next));  // every change lands in one epoch
}

void ModelRegistry::publish_locked(std::shared_ptr<View> next) {
  // Chaos seam: error aborts the publication (the old epoch stays current —
  // `next` is dropped on unwind), delay widens the build-to-publish window.
  EUGENE_FAILPOINT("registry.swap.stall");
  next->epoch_ = ++epoch_version_;
  const std::uint64_t epoch = next->epoch_;
  ViewPtr displaced = std::move(next);
  {
    MutexLock lock(view_mutex_);
    view_.swap(displaced);
  }
  // `displaced` holds the old epoch: its refcount drop (and possible
  // destruction) happens outside the view mutex.
  if (metrics_ != nullptr) {
    metrics_->gauge("serving.registry.epoch").set(static_cast<double>(epoch));
    metrics_->counter("serving.registry.publishes").inc();
  }
}

}  // namespace eugene::serving
