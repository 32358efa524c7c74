#!/usr/bin/env python3
"""Determinism lint for the fingerprint-feeding subsystems.

The repo's determinism contract (DESIGN.md §11) requires that every schedule
and lifecycle fingerprint be byte-identical across runs, machines, and shard
counts.  The tests that enforce it are ObsDeterminismTest (tracing on or
off), EventQueueFuzzTest and LayoutParityTest (the recorded runs of
tests/integration/recorded_runs.h) and SfsPinnedRunsTest.  That breaks the
moment iteration order, keys, or timing leak into scheduling decisions, so
this checker rejects the known leak classes in src/{sched,sim,eval,obs,runtime}:

  unordered-iteration   range-for / .begin() traversal of a container declared
                        as std::unordered_{map,set,...} anywhere in src/.
                        Keyed lookups are fine; iteration order is not.
  nondeterministic-src  rand()/srand(), time(nullptr), std::random_device,
                        system_clock.  Simulations must draw from the seeded
                        common::Rng; real-time code uses steady_clock.
  pointer-keyed         std::map/std::set keyed by a pointer type — ordered,
                        but by allocation address, which varies per run.
  raw-std-mutex         std::mutex / std::condition_variable / std::lock_guard /
                        std::scoped_lock outside src/common.  New code must use
                        common::Mutex so it participates in thread-safety
                        analysis and the lock-order validator.

Suppress a deliberate exception with a trailing comment on the same line:
    for (auto& kv : lookup_) {  // determinism-ok: order-independent sum
Declaration sites of unordered containers are never flagged — only traversal.

Exit status: 0 clean, 1 findings, 2 usage error.
"""

import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parents[2]
SCOPED_DIRS = ["src/sched", "src/sim", "src/eval", "src/obs", "src/runtime"]
# Unordered-container declarations are harvested repo-wide (a member declared
# in a header may be iterated from a .cc elsewhere).
HARVEST_DIRS = ["src"]
SUPPRESS = "determinism-ok"

UNORDERED_DECL = re.compile(
    r"std::unordered_(?:map|set|multimap|multiset)\s*<[^;{}]*>\s*(\w+)\s*[;={(]"
)
RANGE_FOR = re.compile(r"\bfor\s*\([^;)]*:\s*\*?(\w+)\s*\)")
BEGIN_CALL = re.compile(r"\b(\w+)\s*\.\s*c?begin\s*\(")
INLINE_UNORDERED_ITER = re.compile(
    r"\bfor\s*\([^;)]*:\s*\w[\w.>-]*\.\s*\w*unordered\w*"
)

NONDET_SOURCES = [
    (re.compile(r"(?<![\w:])s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"(?<![\w:])time\s*\(\s*(?:nullptr|NULL|0)\s*\)"), "time(nullptr)"),
    (re.compile(r"std::random_device"), "std::random_device"),
    (re.compile(r"\bsystem_clock\b"), "system_clock"),
]
POINTER_KEYED = re.compile(
    r"std::(?:map|set|multimap|multiset)\s*<\s*(?:const\s+)?[\w:]+(?:\s*<[^<>]*>)?\s*\*"
)
RAW_SYNC = re.compile(
    r"std::(?:mutex|condition_variable(?:_any)?|lock_guard|scoped_lock)\b"
)

LINE_COMMENT = re.compile(r"//.*$")
STRING_LIT = re.compile(r'"(?:[^"\\]|\\.)*"')


def strip_noise(line: str) -> str:
    """Drop string literals and // comments so prose never trips a check."""
    return LINE_COMMENT.sub("", STRING_LIT.sub('""', line))


def source_files(dirs):
    for d in dirs:
        root = REPO / d
        if not root.is_dir():
            continue
        for path in sorted(root.rglob("*")):
            if path.suffix in (".h", ".cc"):
                yield path


def harvest_unordered_names():
    names = set()
    for path in source_files(HARVEST_DIRS):
        text = path.read_text(encoding="utf-8")
        for m in UNORDERED_DECL.finditer(text):
            names.add(m.group(1))
    return names


def check_file(path, unordered_names, findings):
    rel = path.relative_to(REPO).as_posix()
    in_common = rel.startswith("src/common/")
    lines = path.read_text(encoding="utf-8").splitlines()
    in_block_comment = False
    for lineno, raw in enumerate(lines, start=1):
        if SUPPRESS in raw:
            continue
        line = raw
        if in_block_comment:
            end = line.find("*/")
            if end < 0:
                continue
            line = line[end + 2 :]
            in_block_comment = False
        start = line.find("/*")
        if start >= 0 and "*/" not in line[start:]:
            in_block_comment = True
            line = line[:start]
        line = strip_noise(line)
        if not line.strip():
            continue

        def report(rule, detail):
            findings.append(f"{rel}:{lineno}: [{rule}] {detail}\n    {raw.strip()}")

        for m in RANGE_FOR.finditer(line):
            if m.group(1) in unordered_names:
                report(
                    "unordered-iteration",
                    f"range-for over unordered container '{m.group(1)}'",
                )
        for m in BEGIN_CALL.finditer(line):
            if m.group(1) in unordered_names:
                report(
                    "unordered-iteration",
                    f"iterator traversal of unordered container '{m.group(1)}'",
                )
        if INLINE_UNORDERED_ITER.search(line):
            report("unordered-iteration", "range-for over an unordered container")
        for pattern, what in NONDET_SOURCES:
            if pattern.search(line):
                report("nondeterministic-src", f"{what} in fingerprint-feeding code")
        if POINTER_KEYED.search(line):
            report("pointer-keyed", "ordered container keyed by pointer value")
        if not in_common and RAW_SYNC.search(line):
            report("raw-std-mutex", "use common::Mutex / common::CondVar instead")


def main(argv):
    if len(argv) > 1:
        print(__doc__, file=sys.stderr)
        return 2
    unordered_names = harvest_unordered_names()
    findings = []
    checked = 0
    for path in source_files(SCOPED_DIRS):
        checked += 1
        check_file(path, unordered_names, findings)
    if findings:
        print(f"determinism lint: {len(findings)} finding(s) in {checked} files:")
        for f in findings:
            print(f)
        return 1
    print(f"determinism lint: OK ({checked} files clean)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
