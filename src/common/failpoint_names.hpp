// Central registry of every failpoint site name in src/.
//
// Failpoints are armed by *string* — from tests, CI job matrices, and the
// EUGENE_FAILPOINTS environment variable — so a renamed or deleted site
// silently turns a chaos job into a no-op. This header is the single source
// of truth: scripts/check_invariants.py (rule `failpoint-registry`) verifies
// that the set of EUGENE_FAILPOINT / EUGENE_FAILPOINT_FIRED literals in src/
// equals this list, both directions. Adding a site means adding it here;
// removing one means deleting it here (and from any CI spec that arms it).
//
// Naming convention: `<subsystem>.<object>.<fault>`, all lower-case.
#pragma once

namespace eugene::failpoint_names {

inline constexpr const char* kAll[] = {
    "io.atomic.corrupt",        // atomic_write_file: commit with one bit flipped
    "io.atomic.short",          // atomic_write_file: commit missing tail bytes
    "io.atomic.torn",           // atomic_write_file: crash before the rename
    "lifecycle.drain.hang",     // ServerLifecycle::begin_drain: stall (delay)
                                // or die (error) before the in-flight wait
    "registry.swap.stall",      // ModelRegistry: stall (delay) or abort
                                // (error) between building a new epoch and
                                // publishing it — the old epoch must stay
                                // intact either way
    "serving.stage.crash",      // process_batch: a worker's stage throws
    "snapshot.live.race",       // snapshot: widen the pin-to-write window so
                                // concurrent mutations overlap the file walk
    "snapshot.manifest.crash",  // snapshot: die between artifacts and commit
    "usage.journal.torn",       // usage journal: kill -9 mid-append
};

}  // namespace eugene::failpoint_names
