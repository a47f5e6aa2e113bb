#!/usr/bin/env python3
"""Project invariant checker (DESIGN.md §10 "Analysis & verification").

Enforces the repo-wide contracts that grep one-liners used to approximate:

  raw-mutex           no std::mutex / std::lock_guard / std::unique_lock /
                      std::scoped_lock in src/ outside the annotated wrapper
                      (common/thread_annotations.hpp), and no
                      compare_exchange_* (the loop of a hand-rolled spin
                      lock) — otherwise Clang's -Wthread-safety and the
                      lock-rank checker are blind.
  unranked-mutex      every eugene::Mutex constructed in src/ names an
                      explicit LockRank (see common/lock_rank.hpp) so the
                      deadlock-order analysis covers the whole lock graph.
  throw-taxonomy      everything thrown from src/ derives from eugene::Error
                      (DESIGN.md §8) so fault paths catch one taxonomy.
  file-write          no file writes in src/ bypass the common/io atomic
                      writer (temp + fsync + rename is the only durable
                      commit primitive; DESIGN.md §9).
  failpoint-registry  the set of EUGENE_FAILPOINT / EUGENE_FAILPOINT_FIRED
                      string literals in src/ equals the registry in
                      common/failpoint_names.hpp, both directions; every
                      EUGENE_FAILPOINTS spec in .github/workflows/ci.yml
                      arms only registered names; and every arm("<name>"
                      literal in tests/, bench/, examples/ and fuzz/ names a
                      registered failpoint (the framework's own `test.` and
                      `bench.` names excepted). A chaos job or a test can
                      then never silently arm a renamed or deleted site,
                      which would arm nothing and pass without testing
                      anything.
  raw-sleep           no bare std::this_thread::sleep_for / sleep_until in
                      src/ — polling loops must wait on a CondVar so
                      cancellation, shutdown, and new work wake them
                      immediately. The few legitimate sleeps (injected
                      failpoint delays) are allowlisted with reasons.
  raw-timing          no ad-hoc std::chrono::{steady,system,high_resolution}_
                      clock::now() in src/ — time flows through common/clock
                      (Stopwatch/WallClock) and telemetry stamps events from
                      the caller's Clock, so tests can fake time and every
                      latency number shares one time base (DESIGN.md §12).
  naked-new           ownership goes through containers / make_unique.
  using-namespace     no `using namespace std` in headers.
  stdout              the library logs via EUGENE_LOG, not std::cout.
  no-direct-exit      no std::exit / abort / _Exit / quick_exit in src/
                      outside common/check.hpp — library code reports faults
                      through the eugene::Error taxonomy so the lifecycle
                      (DESIGN.md §13) can drain, flush journals, and commit a
                      final snapshot; only deliberate die-fast sites (e.g. the
                      lock-rank checker, whose whole point is to refuse to run
                      with a corrupted lock order) are allowlisted.
  inference-const     no const_cast and no `mutable` data member in src/nn/
                      or src/tensor/: those are the two ways a const
                      inference method (Layer::infer, StagedModel::run_stage)
                      could still write state, and inference must stay
                      write-free for threads to share one published model
                      (DESIGN.md §13). ActivationView::of, the one in-place
                      input view, is the allowlisted exception.
  const-published-entry
                      serving/registry.hpp declares no function returning a
                      non-const ModelEntry& or ModelEntry*, and the view's
                      entry table holds shared_ptr<const ModelEntry>: a
                      published entry is const by type, and writers change
                      one only by publishing a new epoch (update/replace;
                      DESIGN.md §13).
  single-scheduler    only src/sched/engine.cpp calls a policy's pick( in
                      src/: the request state machine exists once
                      (sched::Engine), and the server's peer workers and
                      the simulator drive it instead of running their own
                      policy loop (DESIGN.md §15).
  fma-target          a target attribute or pragma in src/ (target(...),
                      target_clones(...), #pragma GCC target(...)) that
                      enables FMA — an `fma` option, or an `arch=` one, which
                      may — appears only in src/tensor/gemm_avx2.cpp. GCC
                      contracts a separate multiply and add into an FMA under
                      its C++ default -ffp-contract=fast wherever FMA is
                      enabled, so such a target on a norm or pool body would
                      silently change its bits, and with them every trained
                      model (DESIGN.md §14).
  one-container       in src/, only common/io.cpp (blobs) and
                      serving/usage.cpp (journal frames) include
                      common/crc32.hpp: durable bytes are CRC-framed in those
                      two places, and every other artifact, checkpoints
                      included, is an io blob (DESIGN.md §9).
  one-gemm-driver     in src/, only tensor/gemm.cpp (the driver) and the two
                      per-ISA tiles, tensor/gemm_scalar.cpp and
                      tensor/gemm_avx2.cpp, include tensor/gemm_kernel.hpp:
                      every product goes through tensor::gemm / gemm_rows,
                      so there is one GEMM path and one tile per ISA, whose
                      accumulation chain keeps inference bitwise equal to
                      the training forward (DESIGN.md §14).
  one-forward         in src/nn/, every definition of a forward( override
                      returns nn::infer(*this, ...) and nothing else, unless
                      it belongs to Dropout (samples a mask), ChannelNorm
                      (keeps x-hat and 1/sigma from its one channel_norm
                      pass), Sequential or ResidualBlock (chain their
                      children): a layer has one forward body, its const
                      infer(), so training computes exactly what serving
                      does (DESIGN.md §14).

Justified exceptions live in scripts/invariant_allowlist.json, keyed by rule
and file with a required human reason; entries that no longer suppress
anything are reported as stale (so the allowlist cannot rot).

Usage: scripts/check_invariants.py [--repo-root DIR] [--list-rules]
Exit status: 0 clean, 1 violations or stale allowlist entries, 2 bad usage.

stdlib-only on purpose: this must run in CI and in bare containers.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

CXX_EXTS = {".cpp", ".hpp"}


# ---------------------------------------------------------------------------
# C++-aware text preparation
# ---------------------------------------------------------------------------

def strip_comments(text: str) -> str:
    """Replace // and /* */ comment bodies with spaces, preserving newlines
    (so line numbers survive) and string/char literals (so "http://x" is not
    mangled)."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line | block | str | chr
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "str"
            elif c == "'":
                state = "chr"
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "block":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        elif state in ("str", "chr"):
            quote = '"' if state == "str" else "'"
            if c == "\\" and nxt:
                out.append(c)
                out.append(nxt if nxt == "\n" else nxt)
                i += 2
                continue
            if c == quote:
                state = "code"
            out.append(c)
        i += 1
    return "".join(out)


def mask_strings(code: str) -> str:
    """On comment-stripped text, blank out string/char literal *contents*
    (quotes stay) so rules never match inside messages."""
    out = []
    i, n = 0, len(code)
    state = "code"
    while i < n:
        c = code[i]
        nxt = code[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == '"':
                state = "str"
            elif c == "'":
                state = "chr"
            out.append(c)
        else:
            quote = '"' if state == "str" else "'"
            if c == "\\" and nxt:
                out.append("  " if nxt != "\n" else " \n")
                i += 2
                continue
            if c == quote:
                state = "code"
                out.append(c)
            else:
                out.append(c if c == "\n" else " ")
        i += 1
    return "".join(out)


class SourceFile:
    def __init__(self, repo_root: Path, path: Path):
        self.path = path
        self.rel = path.relative_to(repo_root).as_posix()
        text = path.read_text(encoding="utf-8", errors="replace")
        self.raw_lines = text.splitlines()
        self.code = strip_comments(text)          # comments gone, strings kept
        self.masked = mask_strings(self.code)     # strings blanked too
        self.code_lines = self.code.splitlines()
        self.masked_lines = self.masked.splitlines()


class Violation:
    def __init__(self, rule: str, rel: str, line: int, message: str):
        self.rule = rule
        self.rel = rel
        self.line = line
        self.message = message

    def key(self) -> str:
        return f"{self.rel}:{self.line}: [{self.rule}] {self.message}"


# ---------------------------------------------------------------------------
# Rules. Each takes the file list and yields Violations.
# ---------------------------------------------------------------------------

RAW_MUTEX_RE = re.compile(
    r"std::(mutex|recursive_mutex|shared_mutex|timed_mutex|lock_guard|"
    r"unique_lock|scoped_lock|shared_lock|condition_variable)\b")


COMPARE_EXCHANGE_RE = re.compile(r"compare_exchange_(weak|strong)")


def rule_raw_mutex(files):
    for f in files:
        if not f.rel.startswith("src/"):
            continue
        for ln, line in enumerate(f.masked_lines, 1):
            m = RAW_MUTEX_RE.search(line)
            if m:
                yield Violation(
                    "raw-mutex", f.rel, ln,
                    f"std::{m.group(1)} bypasses eugene::Mutex "
                    "(common/thread_annotations.hpp) — thread-safety analysis "
                    "and lock-rank checking cannot see it")
            m = COMPARE_EXCHANGE_RE.search(line)
            if m:
                yield Violation(
                    "raw-mutex", f.rel, ln,
                    f"compare_exchange_{m.group(1)} — a hand-rolled "
                    "compare-and-swap lock bypasses eugene::Mutex "
                    "(common/thread_annotations.hpp); thread-safety analysis "
                    "and lock-rank checking cannot see it")


# A Mutex *declaration with an identifier* (not MutexLock, not `Mutex&` params,
# not the class definition, not constructor calls).
MUTEX_DECL_RE = re.compile(r"(?<![\w:])Mutex\s+([A-Za-z_]\w*)\s*([;{(])")


def rule_unranked_mutex(files):
    for f in files:
        if not f.rel.startswith("src/"):
            continue
        for m in MUTEX_DECL_RE.finditer(f.masked):
            name, opener = m.group(1), m.group(2)
            line = f.masked.count("\n", 0, m.start()) + 1
            if opener == ";":
                yield Violation(
                    "unranked-mutex", f.rel, line,
                    f"Mutex {name} constructed without a LockRank "
                    "(see common/lock_rank.hpp rank registry)")
                continue
            # Statement runs to the matching `;` — LockRank:: must appear.
            stmt_end = f.masked.find(";", m.end())
            stmt = f.masked[m.start():stmt_end if stmt_end != -1 else None]
            if "LockRank::" not in stmt:
                yield Violation(
                    "unranked-mutex", f.rel, line,
                    f"Mutex {name} constructed without a LockRank "
                    "(see common/lock_rank.hpp rank registry)")


THROW_RE = re.compile(r"(?<![\w_])throw\s+([A-Za-z_0-9][\w:]*)")
ALLOWED_THROWN = re.compile(
    r"^(::)?(eugene::)?(Error|InvalidArgument|InternalError|"
    r"FailpointError|CorruptionError|IoError)$")


def rule_throw_taxonomy(files):
    for f in files:
        if not f.rel.startswith("src/"):
            continue
        for m in THROW_RE.finditer(f.masked):
            thrown = m.group(1)
            if ALLOWED_THROWN.match(thrown):
                continue
            line = f.masked.count("\n", 0, m.start()) + 1
            yield Violation(
                "throw-taxonomy", f.rel, line,
                f"throw of `{thrown}` — everything thrown from src/ must "
                "derive from eugene::Error (common/error.hpp, DESIGN.md §8)")


WRITE_FLAGS_RE = re.compile(r"O_WRONLY|O_RDWR|O_CREAT|O_TRUNC|O_APPEND")
FILE_WRITE_RES = [
    (re.compile(r"std::ofstream|std::fstream\b"), "std::ofstream"),
    (re.compile(r"(?<![\w_])fopen\s*\("), "fopen"),
]


def rule_file_write(files):
    for f in files:
        if not f.rel.startswith("src/"):
            continue
        for ln, line in enumerate(f.masked_lines, 1):
            for pat, what in FILE_WRITE_RES:
                if pat.search(line):
                    yield Violation(
                        "file-write", f.rel, ln,
                        f"{what} in src/ — durable writes must go through "
                        "common/io atomic_write_file (DESIGN.md §9)")
            if re.search(r"(?<![\w_])(::)?open\s*\(", line) and \
                    WRITE_FLAGS_RE.search(line):
                yield Violation(
                    "file-write", f.rel, ln,
                    "::open with write flags in src/ — durable writes must go "
                    "through common/io atomic_write_file (DESIGN.md §9)")


FAILPOINT_USE_RE = re.compile(r'EUGENE_FAILPOINT(?:_FIRED)?\s*\(\s*"([^"]+)"')
REGISTRY_NAME_RE = re.compile(r'"([^"]+)"')
# An environment spec in CI: EUGENE_FAILPOINTS: 'name=kind:...,name=kind'
CI_SPEC_RE = re.compile(r"""EUGENE_FAILPOINTS\s*[:=]\s*['"]([^'"]*)['"]""")
CI_WORKFLOW_REL = ".github/workflows/ci.yml"
# A programmatic arming in a test, bench, example or fuzz harness.
ARM_RE = re.compile(r'(?<![\w])arm\s*\(\s*"([^"]+)"')
ARMING_DIRS = ("tests", "bench", "examples", "fuzz")
# Names that no src site uses: the failpoint framework's own tests and
# bench_micro arm these to exercise the registry itself.
FRAMEWORK_PREFIXES = ("test.", "bench.")


def rule_failpoint_registry(files, repo_root: Path):
    registry_rel = "src/common/failpoint_names.hpp"
    registry_path = repo_root / registry_rel
    if not registry_path.exists():
        yield Violation("failpoint-registry", registry_rel, 1,
                        "registry header missing")
        return
    reg_code = strip_comments(
        registry_path.read_text(encoding="utf-8", errors="replace"))
    declared = set(REGISTRY_NAME_RE.findall(reg_code))

    used = {}  # name -> (rel, line)
    for f in files:
        if not f.rel.startswith("src/") or f.rel == registry_rel:
            continue
        for m in FAILPOINT_USE_RE.finditer(f.code):
            line = f.code.count("\n", 0, m.start()) + 1
            used.setdefault(m.group(1), (f.rel, line))

    for name in sorted(set(used) - declared):
        rel, line = used[name]
        yield Violation(
            "failpoint-registry", rel, line,
            f'failpoint "{name}" used but not declared in {registry_rel}')
    for name in sorted(declared - set(used)):
        yield Violation(
            "failpoint-registry", registry_rel, 1,
            f'failpoint "{name}" declared but no EUGENE_FAILPOINT site in '
            "src/ uses it (delete it here and from any CI spec arming it)")

    # A CI spec naming an unknown failpoint arms nothing, and its chaos job
    # passes as a plain rerun.
    workflow = repo_root / CI_WORKFLOW_REL
    if not workflow.exists():
        return
    lines = workflow.read_text(encoding="utf-8", errors="replace").splitlines()
    for line_no, text in enumerate(lines, 1):
        for m in CI_SPEC_RE.finditer(text):
            for clause in m.group(1).split(","):
                name = clause.split("=", 1)[0].strip()
                if name and name not in declared:
                    yield Violation(
                        "failpoint-registry", CI_WORKFLOW_REL, line_no,
                        f'EUGENE_FAILPOINTS arms "{name}", which is not '
                        f"declared in {registry_rel}")

    # Likewise a test that arms an unknown failpoint arms nothing, and can
    # pass without testing what it says.
    for sub in ARMING_DIRS:
        for path in sorted((repo_root / sub).rglob("*")):
            if path.suffix not in CXX_EXTS or not path.is_file():
                continue
            f = SourceFile(repo_root, path)
            for m in ARM_RE.finditer(f.code):
                name = m.group(1)
                if name in declared or name.startswith(FRAMEWORK_PREFIXES):
                    continue
                line = f.code.count("\n", 0, m.start()) + 1
                yield Violation(
                    "failpoint-registry", f.rel, line,
                    f'arm("{name}") names a failpoint not declared in '
                    f"{registry_rel}: it arms nothing")


RAW_SLEEP_RE = re.compile(r"std::this_thread::sleep_(for|until)\b")


def rule_raw_sleep(files):
    for f in files:
        if not f.rel.startswith("src/"):
            continue
        for ln, line in enumerate(f.masked_lines, 1):
            if RAW_SLEEP_RE.search(line):
                yield Violation(
                    "raw-sleep", f.rel, ln,
                    "raw sleep in src/ — wait on a CondVar with a "
                    "timeout instead, so cancellation and new work wake the "
                    "loop immediately (allowlist genuinely timed sleeps)")


RAW_TIMING_RE = re.compile(
    r"std::chrono::(steady_clock|system_clock|high_resolution_clock)::now\b")


def rule_raw_timing(files):
    for f in files:
        if not f.rel.startswith("src/"):
            continue
        for ln, line in enumerate(f.masked_lines, 1):
            m = RAW_TIMING_RE.search(line)
            if m:
                yield Violation(
                    "raw-timing", f.rel, ln,
                    f"ad-hoc std::chrono::{m.group(1)}::now() — read time "
                    "through common/clock (Stopwatch/WallClock) so latency "
                    "numbers share one time base and tests can fake it "
                    "(allowlist the clock wrapper itself)")


NAKED_NEW_RE = re.compile(r"(^|[^\w_\.\"])new\s+[A-Za-z_:<]")


def rule_naked_new(files):
    for f in files:
        if not f.rel.startswith("src/"):
            continue
        for ln, line in enumerate(f.masked_lines, 1):
            if NAKED_NEW_RE.search(line):
                if ln <= len(f.raw_lines) and "NOLINT-new" in f.raw_lines[ln - 1]:
                    continue
                yield Violation(
                    "naked-new", f.rel, ln,
                    "naked `new` — use std::make_unique / containers "
                    "(allowlist genuinely placed uses)")


def rule_using_namespace(files):
    for f in files:
        if not (f.rel.startswith("src/") and f.rel.endswith(".hpp")):
            continue
        for ln, line in enumerate(f.masked_lines, 1):
            if re.search(r"using\s+namespace\s+std\b", line):
                yield Violation(
                    "using-namespace", f.rel, ln,
                    "`using namespace std` in a header pollutes every "
                    "includer")


# A process-exit call, optionally std:: / :: qualified. The lookbehind keeps
# identifiers like `early_exit(`, member calls `.exit(`, and `->abort(` out;
# masked lines keep strings and comments out.
DIRECT_EXIT_RE = re.compile(
    r"(?<![\w.>])((?:std::|::)?(?:exit|abort|_Exit|quick_exit))\s*\(")


def rule_direct_exit(files):
    for f in files:
        if not f.rel.startswith("src/") or f.rel == "src/common/check.hpp":
            continue
        for ln, line in enumerate(f.masked_lines, 1):
            m = DIRECT_EXIT_RE.search(line)
            if m:
                yield Violation(
                    "no-direct-exit", f.rel, ln,
                    f"direct `{m.group(1)}` — library code must surface "
                    "faults via the eugene::Error taxonomy so the lifecycle "
                    "can drain and flush state (DESIGN.md §13); allowlist "
                    "deliberate die-fast sites with a reason")


CONST_CAST_RE = re.compile(r"\bconst_cast\s*<")
# `mutable` followed by a type: a data member. A lambda's `mutable` is
# followed by `{`, `->`, or `noexcept` and does not match.
MUTABLE_MEMBER_RE = re.compile(r"\bmutable\s+(?!noexcept\b)[A-Za-z_:]")


def rule_inference_const(files):
    for f in files:
        if not f.rel.startswith(("src/nn/", "src/tensor/")):
            continue
        for ln, line in enumerate(f.masked_lines, 1):
            if CONST_CAST_RE.search(line):
                yield Violation(
                    "inference-const", f.rel, ln,
                    "const_cast in src/nn or src/tensor — a const inference "
                    "path could write through it (allowlist a proven "
                    "read-only view with its reason)")
            if MUTABLE_MEMBER_RE.search(line):
                yield Violation(
                    "inference-const", f.rel, ln,
                    "mutable data member in src/nn or src/tensor — const "
                    "inference could write it, and threads sharing one "
                    "published model would race on it")


PUBLISHED_ENTRY_REL = "src/serving/registry.hpp"
# A function declared to return ModelEntry& or ModelEntry*: the type, then a
# name (or an operator) and its parameter list. `const ModelEntry&` returns
# are filtered by the text before the match.
ENTRY_RETURN_RE = re.compile(
    r"(?<![\w:])ModelEntry\s*[&*]\s*(?:operator\s*\S+?|[A-Za-z_]\w*)\s*\(")
ENTRY_TABLE_RE = re.compile(r"shared_ptr<([^<>]*)ModelEntry\s*>\s*>\s+entries_\b")


def rule_const_published_entry(files):
    for f in files:
        if f.rel != PUBLISHED_ENTRY_REL:
            continue
        for m in ENTRY_RETURN_RE.finditer(f.masked):
            if f.masked[:m.start()].rstrip().endswith("const"):
                continue
            yield Violation(
                "const-published-entry", f.rel, f.masked.count("\n", 0, m.start()) + 1,
                "returns a non-const ModelEntry reference or pointer — a "
                "published entry is const by type; writers change it through "
                "update()/replace() (DESIGN.md §13)")
        tables = list(ENTRY_TABLE_RE.finditer(f.masked))
        if not tables:
            yield Violation(
                "const-published-entry", f.rel, 1,
                "no entries_ table of shared_ptr<const ModelEntry> found in "
                "the view")
        for m in tables:
            if m.group(1).strip() != "const":
                yield Violation(
                    "const-published-entry", f.rel,
                    f.masked.count("\n", 0, m.start()) + 1,
                    "the view's entries_ table holds mutable entries — it "
                    "must hold shared_ptr<const ModelEntry>")


# A member call of pick( on an object or pointer (`policy.pick(`,
# `policy_->pick(`); declarations and `Class::pick(` definitions do not match.
POLICY_PICK_RE = re.compile(r"(?:\.|->)\s*pick\s*\(")
ENGINE_REL = "src/sched/engine.cpp"


def rule_single_scheduler(files):
    for f in files:
        if not f.rel.startswith("src/") or f.rel == ENGINE_REL:
            continue
        for ln, line in enumerate(f.masked_lines, 1):
            if POLICY_PICK_RE.search(line):
                yield Violation(
                    "single-scheduler", f.rel, ln,
                    "policy pick( outside " + ENGINE_REL + " — drive "
                    "sched::Engine instead of writing another policy loop "
                    "(DESIGN.md §15)")


# A target attribute or pragma and its option string(s); the options are
# matched on comment-stripped text with string literals kept.
TARGET_RE = re.compile(r'\btarget(?:_clones)?\s*\(\s*((?:"[^"]*"\s*,?\s*)+)\)')
FMA_OPTION_RE = re.compile(r"^(fma4?|arch=.*)$")
GEMM_AVX2_REL = "src/tensor/gemm_avx2.cpp"


def rule_fma_target(files):
    for f in files:
        if not f.rel.startswith("src/") or f.rel == GEMM_AVX2_REL:
            continue
        for m in TARGET_RE.finditer(f.code):
            options = [o.strip() for lit in re.findall(r'"([^"]*)"', m.group(1))
                       for o in lit.split(",")]
            enabling = [o for o in options if FMA_OPTION_RE.match(o)]
            if enabling:
                line = f.code.count("\n", 0, m.start()) + 1
                yield Violation(
                    "fma-target", f.rel, line,
                    f"target option(s) {', '.join(enabling)} enable FMA "
                    f"outside {GEMM_AVX2_REL}: GCC would contract a multiply "
                    "and an add into one FMA and change the body's bits "
                    "(DESIGN.md §14)")


CRC_INCLUDE_RE = re.compile(r'#\s*include\s*"common/crc32\.hpp"')
CRC_FRAMERS = ("src/common/io.cpp", "src/serving/usage.cpp")


def rule_one_container(files):
    for f in files:
        if not f.rel.startswith("src/") or f.rel in CRC_FRAMERS:
            continue
        for ln, line in enumerate(f.code_lines, 1):
            if CRC_INCLUDE_RE.search(line):
                yield Violation(
                    "one-container", f.rel, ln,
                    "common/crc32.hpp included outside " +
                    " and ".join(CRC_FRAMERS) + " — write the artifact "
                    "as an io blob (io::encode_blob / write_blob_file) "
                    "instead of framing a CRC of its own (DESIGN.md §9)")


GEMM_KERNEL_INCLUDE_RE = re.compile(r'#\s*include\s*"tensor/gemm_kernel\.hpp"')
GEMM_KERNEL_USERS = ("src/tensor/gemm.cpp", "src/tensor/gemm_scalar.cpp",
                     "src/tensor/gemm_avx2.cpp")


def rule_one_gemm_driver(files):
    for f in files:
        if not f.rel.startswith("src/") or f.rel in GEMM_KERNEL_USERS:
            continue
        for ln, line in enumerate(f.code_lines, 1):
            if GEMM_KERNEL_INCLUDE_RE.search(line):
                yield Violation(
                    "one-gemm-driver", f.rel, ln,
                    "tensor/gemm_kernel.hpp included outside " +
                    ", ".join(GEMM_KERNEL_USERS) + " — call tensor::gemm "
                    "or gemm_rows instead of driving a tile of your own "
                    "(DESIGN.md §14)")


# Layers whose training forward is code of its own (see the docstring).
OWN_FORWARD_LAYERS = {"Dropout", "ChannelNorm", "Sequential", "ResidualBlock"}
CLASS_HEAD_RE = re.compile(r"\b(?:class|struct)\s+([A-Za-z_]\w*)[^;{()]*\{")
FORWARD_NAME_RE = re.compile(r"(?:\b([A-Za-z_]\w*)\s*::\s*)?\bforward\s*\(")
FORWARD_QUALIFIERS_RE = re.compile(r"\s*(?:(?:const|override|final|noexcept)\b\s*)*")
RETURN_RE = re.compile(r"\breturn\b")
RETURN_INFER_RE = re.compile(r"\breturn\s+nn::infer\s*\(\s*\*\s*this\s*,")


def matching_close(text: str, open_at: int) -> int:
    """Index of the bracket closing the one at `open_at` (or len(text))."""
    pairs = {"(": ")", "{": "}"}
    opener, closer = text[open_at], pairs[text[open_at]]
    depth = 0
    for i in range(open_at, len(text)):
        if text[i] == opener:
            depth += 1
        elif text[i] == closer:
            depth -= 1
            if depth == 0:
                return i
    return len(text)


def rule_one_forward(files):
    for f in files:
        if not f.rel.startswith("src/nn/"):
            continue
        text = f.masked
        class_spans = []
        for m in CLASS_HEAD_RE.finditer(text):
            brace = m.end() - 1
            class_spans.append((brace, matching_close(text, brace), m.group(1)))
        for m in FORWARD_NAME_RE.finditer(text):
            paren = m.end() - 1
            after = FORWARD_QUALIFIERS_RE.match(text, matching_close(text, paren) + 1)
            if not text.startswith("{", after.end()):
                continue  # a call or a declaration, not a definition
            owner = m.group(1)
            if owner is None:
                enclosing = [span for span in class_spans
                             if span[0] < m.start() < span[1]]
                if not enclosing:
                    continue  # a free function named forward, not a layer's
                owner = max(enclosing, key=lambda span: span[0])[2]
            if owner in OWN_FORWARD_LAYERS:
                continue
            body = text[after.end():matching_close(text, after.end()) + 1]
            returns = RETURN_RE.findall(body)
            if returns and len(RETURN_INFER_RE.findall(body)) == len(returns):
                continue
            yield Violation(
                "one-forward", f.rel, text.count("\n", 0, m.start()) + 1,
                f"{owner}::forward does not just return nn::infer(*this, ...) "
                "— a layer has one forward body, its infer(); keep what "
                "backward() needs and return nn::infer(*this, input) "
                "(DESIGN.md §14)")


def rule_stdout(files):
    for f in files:
        if not f.rel.startswith("src/"):
            continue
        for ln, line in enumerate(f.masked_lines, 1):
            if "std::cout" in line:
                yield Violation(
                    "stdout", f.rel, ln,
                    "std::cout in src/ — use EUGENE_LOG "
                    "(common/logging.hpp); stdout belongs to examples/bench")


RULES = {
    "raw-mutex": rule_raw_mutex,
    "unranked-mutex": rule_unranked_mutex,
    "throw-taxonomy": rule_throw_taxonomy,
    "file-write": rule_file_write,
    "failpoint-registry": rule_failpoint_registry,
    "raw-sleep": rule_raw_sleep,
    "raw-timing": rule_raw_timing,
    "naked-new": rule_naked_new,
    "using-namespace": rule_using_namespace,
    "stdout": rule_stdout,
    "no-direct-exit": rule_direct_exit,
    "inference-const": rule_inference_const,
    "const-published-entry": rule_const_published_entry,
    "single-scheduler": rule_single_scheduler,
    "fma-target": rule_fma_target,
    "one-container": rule_one_container,
    "one-gemm-driver": rule_one_gemm_driver,
    "one-forward": rule_one_forward,
}


# ---------------------------------------------------------------------------
# Allowlist
# ---------------------------------------------------------------------------

def load_allowlist(path: Path):
    if not path.exists():
        return []
    entries = json.loads(path.read_text(encoding="utf-8"))
    for i, e in enumerate(entries):
        for field in ("rule", "file", "reason"):
            if field not in e:
                raise SystemExit(
                    f"{path}: entry {i} missing required field '{field}'")
        if e["rule"] not in RULES:
            raise SystemExit(
                f"{path}: entry {i} names unknown rule '{e['rule']}' "
                f"(known: {', '.join(sorted(RULES))})")
        e["_hits"] = 0
    return entries


def allowed(entries, v: Violation, line_text: str) -> bool:
    for e in entries:
        if e["rule"] != v.rule or e["file"] != v.rel:
            continue
        if "contains" in e and e["contains"] not in line_text:
            continue
        e["_hits"] += 1
        return True
    return False


# ---------------------------------------------------------------------------

def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repo-root", type=Path,
                    default=Path(__file__).resolve().parent.parent)
    ap.add_argument("--list-rules", action="store_true")
    args = ap.parse_args()

    if args.list_rules:
        for name in sorted(RULES):
            print(name)
        return 0

    repo_root = args.repo_root.resolve()
    if not (repo_root / "src").is_dir():
        print(f"check_invariants: no src/ under {repo_root}", file=sys.stderr)
        return 2

    files = []
    for sub in ("src",):
        for p in sorted((repo_root / sub).rglob("*")):
            if p.suffix in CXX_EXTS and p.is_file():
                files.append(SourceFile(repo_root, p))

    entries = load_allowlist(repo_root / "scripts" / "invariant_allowlist.json")

    violations = []
    for name, rule in RULES.items():
        produced = (rule(files, repo_root) if name == "failpoint-registry"
                    else rule(files))
        for v in produced:
            src = next((f for f in files if f.rel == v.rel), None)
            line_text = ""
            if src and 1 <= v.line <= len(src.code_lines):
                line_text = src.code_lines[v.line - 1].strip()
            if not allowed(entries, v, line_text):
                violations.append((v, line_text))

    for v, line_text in sorted(violations, key=lambda t: t[0].key()):
        print(f"INVARIANT FAIL: {v.key()}")
        if line_text:
            print(f"    {line_text}")

    stale = [e for e in entries if e["_hits"] == 0]
    for e in stale:
        print("STALE ALLOWLIST ENTRY: "
              f"[{e['rule']}] {e['file']}"
              + (f" (contains: {e['contains']!r})" if "contains" in e else "")
              + " no longer suppresses anything — delete it "
              f"(reason was: {e['reason']})")

    n_checked = len(files)
    if violations or stale:
        print(f"\ncheck_invariants: {len(violations)} violation(s), "
              f"{len(stale)} stale allowlist entr(y/ies) "
              f"across {n_checked} files", file=sys.stderr)
        return 1
    print(f"check_invariants: OK ({n_checked} files, "
          f"{len(RULES)} rules, {len(entries)} allowlisted exceptions)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
