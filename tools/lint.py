#!/usr/bin/env python3
"""Custom lint for the mcsm error-handling and concurrency discipline.

The scanner strips // comments, /* */ block comments (multi-line), string
literals, character literals, and raw string literals (R"delim(...)delim",
multi-line) before matching, preserving the file's line structure so findings
carry real line numbers. Suppressions are read from the RAW line, so a marker
works even though it lives in a comment.

Rules (each suppressible on a specific line with `// lint: allow(<RULE>)`;
LK001 additionally requires a rationale: `// lint: allow(LK001): <why>`):

  ND001  src/common/status.h and src/common/result.h must keep their
         [[nodiscard]] class annotations (the compiler enforces call sites;
         this guards the declarations themselves).
  AS001  bare assert() is banned outside src/common/ — use MCSM_CHECK /
         MCSM_DCHECK from common/check.h, which print context and fire in
         sanitizer builds.
  VD001  ValueOrDie-style access: `.value()` / `*result` on a Result must be
         dominated by an ok() test, MCSM_ASSIGN_OR_RETURN, or MCSM_CHECK_OK
         within the surrounding lines. This is a heuristic (line-based, not
         AST-based); suppress deliberate uses with the marker above.
  SS001  files that adopted bounds-clamped substring access (listed in
         SAFE_SUBSTR_FILES) must not reintroduce raw `.substr(`.
  CD001  src/core, src/text and src/relational are the deterministic engine:
         byte-identical output across thread counts and runs. Wall-clock and
         entropy sources (system_clock/steady_clock/high_resolution_clock,
         rand/srand, random_device, mt19937, this_thread::get_id) are banned
         there; route timing through RunBudget / WallTimer (common/deadline.h)
         and randomness through the seeded helpers in common/rng.h.
  LK001  lock discipline: raw std sync primitives (std::mutex, shared_mutex,
         condition_variable, lock_guard, unique_lock, ...) are banned outside
         src/common/annotations.h — use the annotated Mutex / SharedMutex /
         MutexLock / ReaderLock / WriterLock so clang -Wthread-safety sees
         every acquisition. Additionally, every Mutex/SharedMutex member must
         be referenced by at least one MCSM_GUARDED_BY / MCSM_PT_GUARDED_BY /
         MCSM_REQUIRES / MCSM_ACQUIRE in the same file, or carry
         `// lint: allow(LK001): <why>` explaining what it protects.
  TH001  thread hygiene: no `.detach()` (detached threads outlive their state
         and make shutdown racy) and no `new std::thread` (raw ownership;
         use ThreadPool or a joined std::thread member).
  MO001  every non-seq_cst std::memory_order argument needs an adjacent
         `// ordering:` comment (within the preceding few lines) saying why
         the weaker order is sound. Keeps relaxed/acquire/release use audited.
  SI001  intrinsics headers (immintrin.h and friends) may be included from
         src/text/simd.cc only — the one SIMD funnel with runtime dispatch
         and scalar fallback. Everything else calls the kernels through
         text/simd.h, so instruction-set concerns (and the bit-identical
         determinism contract) stay in one audited file.
  TS001  the retired Table accessors (`.cell(`, `->cell(`, `.CellText(`,
         `->CellText(`) are banned everywhere. Read through the view API
         instead — Column()/TextAt()/ValueAt()/IsNull(): views pin paged
         storage, the old reference-returning accessors could not.

Usage: tools/lint.py [--root DIR] [paths...]   (default: src/)
Exit status: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

SUPPRESS_RE = re.compile(
    r"//\s*lint:\s*allow\((?P<rules>[A-Z0-9, ]+)\)(?::\s*(?P<why>\S.*))?")

# Files that must declare [[nodiscard]] on their main class.
NODISCARD_FILES = {
    "src/common/status.h": r"class\s+\[\[nodiscard\]\]\s+Status",
    "src/common/result.h": r"class\s+\[\[nodiscard\]\]\s+Result",
}

# Files where SafeSubstr replaced raw substring access (rule SS001).
SAFE_SUBSTR_FILES = {
    "src/text/alignment.cc",
    "src/text/lcs.cc",
    "src/core/recipe.cc",
    "src/core/formula.cc",
    "src/relational/pattern.cc",
}

# Directories whose output must be byte-identical across runs (rule CD001).
DETERMINISTIC_DIRS = ("src/core/", "src/text/", "src/relational/")

# The one file allowed to spell raw std sync primitives (rule LK001): it
# wraps them in the annotated capability types everything else must use.
SYNC_WRAPPER_FILE = "src/common/annotations.h"

# The one file allowed to include intrinsics headers (rule SI001): the SIMD
# dispatch funnel. Everything else goes through text/simd.h.
SIMD_FUNNEL_FILE = "src/text/simd.cc"

ASSERT_RE = re.compile(r"(?<![\w.])assert\s*\(")
VALUE_CALL_RE = re.compile(r"\.\s*value\s*\(\s*\)")
SUBSTR_RE = re.compile(r"\.\s*substr\s*\(")
# Evidence within the lookback window that the access is guarded.
VALUE_GUARD_RE = re.compile(
    r"\.ok\s*\(\s*\)|MCSM_ASSIGN_OR_RETURN|MCSM_CHECK_OK|MCSM_RETURN_IF_ERROR"
    r"|ASSERT_TRUE|ASSERT_OK|EXPECT_TRUE"
)
VALUE_GUARD_LOOKBACK = 12

CLOCK_RE = re.compile(
    r"std::chrono::(?:system_clock|steady_clock|high_resolution_clock)"
    r"|std::random_device|std::mt19937|std::minstd_rand"
    r"|(?<![\w:])s?rand\s*\("
    r"|this_thread::get_id"
)
RAW_SYNC_RE = re.compile(
    r"std::(?:mutex|recursive_mutex|timed_mutex|recursive_timed_mutex"
    r"|shared_mutex|shared_timed_mutex|condition_variable"
    r"|lock_guard|unique_lock|shared_lock|scoped_lock)\b"
)
# A Mutex/SharedMutex data-member declaration (possibly mutable). Local
# guards (MutexLock lock(mu_);) do not match: they have a parenthesized
# initializer, not a bare `;`.
MUTEX_MEMBER_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:Mutex|SharedMutex)\s+(\w+)\s*;")
DETACH_RE = re.compile(r"\.\s*detach\s*\(\s*\)")
NEW_THREAD_RE = re.compile(r"\bnew\s+std::thread\b")
MEMORY_ORDER_RE = re.compile(
    r"\bmemory_order(?:::|_)(?:relaxed|acquire|release|acq_rel|consume)\b")
ORDERING_COMMENT_RE = re.compile(r"//.*ordering:")
MEMORY_ORDER_LOOKBACK = 6
# x86 intrinsics headers: the umbrella immintrin/x86intrin, the per-ISA
# *mmintrin family (xmmintrin, emmintrin, smmintrin, nmmintrin, ...), and
# avx*intrin. Matched on the RAW line: quoted includes are blanked by
# strip_code, and angle-bracket includes must be caught either way.
INTRINSICS_INCLUDE_RE = re.compile(
    r'^\s*#\s*include\s*[<"](?:[a-z]+mmintrin|immintrin|x86intrin'
    r'|x86gprintrin|avx[a-z0-9]*intrin)\.h[>"]')

# Retired Table accessor spellings (rule TS001). Member access only — a
# free function or declaration named cell()/CellText() does not match.
TABLE_ACCESSOR_RE = re.compile(r"(?:\.|->)\s*(?:cell|CellText)\s*\(")

RAW_STRING_PREFIX_RE = re.compile(r'(?:u8|[uUL])?R$')


class Finding:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path, self.line, self.rule, self.message = path, line, rule, message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_code(text: str) -> list[str]:
    """Per-line source with comments and all literal kinds blanked out.

    Handles // comments, /* */ block comments (multi-line), "..." strings
    with escapes, '...' character literals (digit separators like 1'000'000
    are left alone), and R"delim(...)delim" raw strings (multi-line). The
    returned list has exactly one entry per source line, so indices map
    one-to-one onto line numbers.
    """
    lines: list[str] = []
    cur: list[str] = []
    mode = "code"  # code | line | block | str | chr
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            lines.append("".join(cur))
            cur = []
            if mode == "line":
                mode = "code"
            i += 1
            continue
        if mode == "code":
            nxt = text[i + 1] if i + 1 < n else ""
            if c == "/" and nxt == "/":
                mode = "line"
                i += 2
                continue
            if c == "/" and nxt == "*":
                mode = "block"
                cur.append(" ")
                i += 2
                continue
            if c == '"':
                if RAW_STRING_PREFIX_RE.search("".join(cur[-3:])):
                    # Raw string: find the custom delimiter, then skip to the
                    # matching )delim" — escapes are inert inside.
                    open_paren = text.find("(", i + 1)
                    delim = text[i + 1:open_paren] if open_paren != -1 else ""
                    terminator = ")" + delim + '"'
                    end = (text.find(terminator, open_paren + 1)
                           if open_paren != -1 else -1)
                    cur.append('""')
                    if end == -1:
                        break  # unterminated: blank the rest of the file
                    for k in range(i, end):
                        if text[k] == "\n":
                            lines.append("".join(cur))
                            cur = []
                    i = end + len(terminator)
                    continue
                mode = "str"
                cur.append('"')
                i += 1
                continue
            if c == "'":
                prev = cur[-1] if cur else ""
                if prev.isalnum() or prev == "_":
                    cur.append(c)  # digit separator / suffix, not a char
                    i += 1
                    continue
                mode = "chr"
                cur.append("'")
                i += 1
                continue
            cur.append(c)
            i += 1
            continue
        if mode == "line":
            i += 1
            continue
        if mode == "block":
            if c == "*" and i + 1 < n and text[i + 1] == "/":
                mode = "code"
                i += 2
                continue
            i += 1
            continue
        # String and char literal modes: swallow escapes (including a
        # backslash-newline splice, which must still produce a line break).
        if c == "\\":
            if i + 1 < n and text[i + 1] == "\n":
                lines.append("".join(cur))
                cur = []
            i += 2
            continue
        if mode == "str" and c == '"':
            cur.append('"')
            mode = "code"
        elif mode == "chr" and c == "'":
            cur.append("'")
            mode = "code"
        i += 1
    if cur or not text.endswith("\n"):
        lines.append("".join(cur))
    return lines


def suppressed(raw_line: str, rule: str, *, need_rationale: bool = False) -> bool:
    m = SUPPRESS_RE.search(raw_line)
    if not m or rule not in [r.strip() for r in m.group("rules").split(",")]:
        return False
    return bool(m.group("why")) if need_rationale else True


def lint_file(root: Path, path: Path) -> list[Finding]:
    rel = path.relative_to(root).as_posix()
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError as err:
        return [Finding(rel, 0, "IO", f"unreadable: {err}")]
    lines = text.splitlines()
    code = strip_code(text)
    if len(code) < len(lines):  # defensive: never let parity break indexing
        code += [""] * (len(lines) - len(code))
    findings: list[Finding] = []

    # ND001 — required [[nodiscard]] declarations.
    pattern = NODISCARD_FILES.get(rel)
    if pattern is not None and not re.search(pattern, text):
        findings.append(
            Finding(rel, 1, "ND001",
                    f"expected declaration matching /{pattern}/ — "
                    "do not drop the [[nodiscard]] annotation"))

    in_common = rel.startswith("src/common/")
    check_substr = rel in SAFE_SUBSTR_FILES
    deterministic = rel.startswith(DETERMINISTIC_DIRS)
    sync_wrapper = rel == SYNC_WRAPPER_FILE
    simd_funnel = rel == SIMD_FUNNEL_FILE

    for i, raw in enumerate(lines, start=1):
        cl = code[i - 1]

        # AS001 — bare assert outside common/.
        if not in_common and ASSERT_RE.search(cl):
            if not suppressed(raw, "AS001"):
                findings.append(
                    Finding(rel, i, "AS001",
                            "bare assert(); use MCSM_CHECK or MCSM_DCHECK "
                            "from common/check.h"))

        # VD001 — unchecked .value() access.
        if VALUE_CALL_RE.search(cl) and not in_common:
            window = "\n".join(
                code[max(0, i - 1 - VALUE_GUARD_LOOKBACK):i])
            if not VALUE_GUARD_RE.search(window):
                if not suppressed(raw, "VD001"):
                    findings.append(
                        Finding(rel, i, "VD001",
                                ".value() without a visible ok() guard in the "
                                f"previous {VALUE_GUARD_LOOKBACK} lines; test "
                                "ok(), use MCSM_ASSIGN_OR_RETURN, or mark "
                                "// lint: allow(VD001)"))

        # SS001 — raw substr in SafeSubstr-adopted files.
        if check_substr and SUBSTR_RE.search(cl):
            if not suppressed(raw, "SS001"):
                findings.append(
                    Finding(rel, i, "SS001",
                            "raw .substr() in a SafeSubstr-adopted file; use "
                            "mcsm::SafeSubstr (clamping, never throws)"))

        # CD001 — nondeterminism sources in the deterministic engine.
        if deterministic and CLOCK_RE.search(cl):
            if not suppressed(raw, "CD001"):
                findings.append(
                    Finding(rel, i, "CD001",
                            "wall-clock/entropy source in deterministic code; "
                            "route timing through RunBudget or WallTimer "
                            "(common/deadline.h) and randomness through "
                            "common/rng.h"))

        # LK001 (a) — raw std sync primitives outside the wrapper header.
        if not sync_wrapper and RAW_SYNC_RE.search(cl):
            if not suppressed(raw, "LK001", need_rationale=True):
                findings.append(
                    Finding(rel, i, "LK001",
                            "raw std sync primitive; use the annotated types "
                            "from common/annotations.h (Mutex, SharedMutex, "
                            "MutexLock, ReaderLock, WriterLock) so clang "
                            "-Wthread-safety sees the acquisition, or mark "
                            "// lint: allow(LK001): <why>"))

        # LK001 (b) — every Mutex member must guard something, visibly.
        member = MUTEX_MEMBER_RE.match(cl)
        if member and not sync_wrapper:
            name = member.group(1)
            guard_ref = re.search(
                r"MCSM_(?:PT_)?GUARDED_BY\(\s*" + re.escape(name) + r"\s*\)"
                r"|MCSM_REQUIRES(?:_SHARED)?\([^)]*\b" + re.escape(name) + r"\b"
                r"|MCSM_ACQUIRE(?:_SHARED)?\([^)]*\b" + re.escape(name) + r"\b",
                text)
            if guard_ref is None:
                if not suppressed(raw, "LK001", need_rationale=True):
                    findings.append(
                        Finding(rel, i, "LK001",
                                f"mutex member '{name}' guards nothing: no "
                                "MCSM_GUARDED_BY/MCSM_REQUIRES/MCSM_ACQUIRE "
                                "references it in this file; annotate the "
                                "data it protects or mark "
                                "// lint: allow(LK001): <why>"))

        # TH001 — thread hygiene.
        if DETACH_RE.search(cl) or NEW_THREAD_RE.search(cl):
            if not suppressed(raw, "TH001"):
                findings.append(
                    Finding(rel, i, "TH001",
                            "detached or raw-owned thread; use ThreadPool or "
                            "a joined std::thread member (detach makes "
                            "shutdown racy, new std::thread leaks ownership)"))

        # SI001 — intrinsics headers only in the SIMD funnel.
        if not simd_funnel and INTRINSICS_INCLUDE_RE.search(raw):
            if not suppressed(raw, "SI001"):
                findings.append(
                    Finding(rel, i, "SI001",
                            "intrinsics header outside src/text/simd.cc; "
                            "call the dispatched kernels in text/simd.h "
                            "instead of spelling instruction sets here"))

        # TS001 — retired Table accessors.
        if TABLE_ACCESSOR_RE.search(cl):
            if not suppressed(raw, "TS001"):
                findings.append(
                    Finding(rel, i, "TS001",
                            "retired Table accessor (.cell()/.CellText()); "
                            "read through the view API — Column()/TextAt()/"
                            "ValueAt()/IsNull()"))

        # MO001 — non-seq_cst memory orders need an adjacent rationale.
        if MEMORY_ORDER_RE.search(cl):
            window = lines[max(0, i - MEMORY_ORDER_LOOKBACK):i]
            if not any(ORDERING_COMMENT_RE.search(w) for w in window):
                if not suppressed(raw, "MO001"):
                    findings.append(
                        Finding(rel, i, "MO001",
                                "non-seq_cst memory order without an "
                                "// ordering: comment in the previous "
                                f"{MEMORY_ORDER_LOOKBACK} lines; say why the "
                                "weaker order is sound"))

    return findings


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", default=None,
                        help="repository root (default: parent of tools/)")
    parser.add_argument("paths", nargs="*", default=[],
                        help="files or directories to lint (default: src/)")
    args = parser.parse_args()

    root = Path(args.root) if args.root else Path(__file__).resolve().parent.parent
    root = root.resolve()
    targets = [root / p for p in args.paths] if args.paths else [root / "src"]

    files: list[Path] = []
    for target in targets:
        if target.is_dir():
            files.extend(sorted(p for p in target.rglob("*")
                                if p.suffix in {".h", ".cc", ".cpp"}))
        elif target.is_file():
            files.append(target)
        else:
            print(f"lint.py: no such path: {target}", file=sys.stderr)
            return 2

    findings: list[Finding] = []
    for f in files:
        findings.extend(lint_file(root, f))

    for finding in findings:
        print(finding)
    if findings:
        print(f"lint.py: {len(findings)} finding(s) in {len(files)} file(s)",
              file=sys.stderr)
        return 1
    print(f"lint.py: clean ({len(files)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
