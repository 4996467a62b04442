#!/usr/bin/env python3
"""Project lint: the checks clang-tidy does not cover.

Rules (all scoped to the source tree: src/, tests/, bench/, examples/,
except where noted):

  value-on-temporary   Naked `.value()` chained onto a function call in
                       src/ — the Result temporary dies at the end of the
                       statement (see the lifetime note in common/result.h)
                       and nothing checked ok() first. Bind the Result to a
                       local, test ok(), then take the value, or use
                       LABFLOW_ASSIGN_OR_RETURN. `std::move(local).value()`
                       is the sanctioned extraction and is allowed.
  assert-side-effect   `assert(...)` whose condition contains ++/--/
                       assignment: the expression vanishes under NDEBUG, so
                       the side effect silently disappears in release
                       builds.
  pragma-once          `#pragma once` — this tree uses include guards
                       (LABFLOW_<PATH>_H_), which clang-tidy and the guard
                       check below can verify.
  include-guard        Header guard missing or not matching the canonical
                       LABFLOW_<PATH>_H_ name derived from the file path.
  naked-mutex          Raw std synchronization (std::mutex, std::lock_guard,
                       std::condition_variable, ...) in src/ outside
                       common/mutex.h. Infrastructure locks must be the
                       rankable labflow::Mutex / SharedMutex / CondVar so
                       the lock-rank validator and Clang's thread-safety
                       analysis see them (common/lock_rank.h).
  guarded-by-coverage  A class that owns a labflow Mutex/SharedMutex must
                       say, for every mutable data member, which lock guards
                       it (LABFLOW_GUARDED_BY / LABFLOW_PT_GUARDED_BY) — or
                       waive the member with a NOLINT explaining why it
                       needs none (const-after-construction, single-threaded
                       phase, ...). const and std::atomic members are
                       exempt. src/ only.
  io-under-lock        File I/O (fwrite/fsync/pread/..., File::Read/Write/
                       Sync/Append, PageFile::ReadPage/WritePage/AppendPage)
                       inside a MutexLock / ReaderMutexLock / WriterMutexLock
                       scope in src/. Disk I/O under an infrastructure mutex
                       serializes everything behind a syscall; stage under
                       the lock, do the I/O outside (see Wal's group commit).
                       Deliberate holds (PageFile::AppendPage's allocation
                       barrier) carry a NOLINT with the design note. Known
                       limitation: only RAII guard scopes are tracked, not
                       explicit Lock()/Unlock() pairs.

A finding can be waived by putting NOLINT(<rule>) in a trailing comment on
the offending line (NOLINT(*) waives every rule). `--self-test` runs the
built-in fixture suite (each rule must fire on its bad snippet and stay
quiet on the waived one) — wired into CTest as `lint_self_test`.
`--output=FILE` additionally writes the findings (or "clean") to FILE, for
CI artifacts. Exit status: 0 clean, 1 findings, 2 usage error.
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCAN_DIRS = ["src", "tests", "bench", "examples"]
EXTS = {".h", ".cc", ".cpp", ".hpp"}


def waived(line, rule):
    return f"NOLINT({rule})" in line or "NOLINT(*)" in line


def strip_strings_and_comments(line):
    """Crude but adequate: blanks string/char literals and // comments so
    the regexes below do not fire inside them."""
    line = re.sub(r'"(\\.|[^"\\])*"', '""', line)
    line = re.sub(r"'(\\.|[^'\\])*'", "''", line)
    return re.sub(r"//.*", "", line)


def strip_code(text):
    """Whole-file version: blanks comments (// and /* */) and string/char
    literals while preserving every newline, so brace/statement scanning
    keeps exact line numbers. Single pass — a quote inside a comment or a
    // inside a string cannot confuse it the way per-line regexes can."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            end = n if j < 0 else j + 2
            out.append("".join(ch if ch == "\n" else " "
                               for ch in text[i:end]))
            i = end
        elif c in "\"'":
            q = c
            out.append(q)
            i += 1
            while i < n and text[i] != q:
                if text[i] == "\\":
                    i += 1
                i += 1
            out.append(q)
            i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


# ---- per-line rules ---------------------------------------------------------

# `).value()` not immediately preceded by a std::move(<ident...>) call.
VALUE_ON_TEMP = re.compile(r"\)\s*\.\s*value\s*\(\)")
MOVED_VALUE = re.compile(r"std::move\s*\([^()]*\)\s*\.\s*value\s*\(\)")

ASSERT_CALL = re.compile(r"\bassert\s*\(")
# ++/--/compound or plain assignment; plain `=` must not be ==, !=, <=, >=
# or be preceded by one of those operators' first characters.
SIDE_EFFECT = re.compile(r"\+\+|--|(?<![=!<>+\-*/&|^])=(?!=)")

GUARD_IFNDEF = re.compile(r"^#ifndef\s+(\w+)\s*$")

# Raw std synchronization primitives that bypass the rank validator. The
# include forms are flagged too: pulling the header in is how the types
# arrive.
NAKED_MUTEX = re.compile(
    r"std\s*::\s*(recursive_|timed_|recursive_timed_|shared_timed_|shared_)?"
    r"mutex\b"
    r"|std\s*::\s*(lock_guard|unique_lock|shared_lock|scoped_lock)\b"
    r"|std\s*::\s*condition_variable(_any)?\b"
    r"|#\s*include\s*<(mutex|shared_mutex|condition_variable)>")
# The one place allowed to touch std primitives: the wrapper itself.
NAKED_MUTEX_ALLOWED = {Path("src/common/mutex.h")}

# ---- io-under-lock ----------------------------------------------------------

RAII_GUARD = re.compile(
    r"\b(MutexLock|ReaderMutexLock|WriterMutexLock)\s+\w+\s*[({]")
IO_CALL = re.compile(
    r"\b(fwrite|fread|fsync|fdatasync|pread|pwrite|ftruncate)\s*\("
    r"|->\s*(Read|Write|Sync|Append|ReadPage|WritePage|AppendPage)\s*\("
    r"|\.\s*(ReadPage|WritePage|AppendPage)\s*\(")

# ---- guarded-by-coverage ----------------------------------------------------

CLASS_HEAD = re.compile(r"\b(class|struct)\b(?!.*;)")
LABFLOW_LOCK_MEMBER = re.compile(r"\b(Mutex|SharedMutex)\s+\w+")
GUARD_ANNOTATION = re.compile(r"\bLABFLOW_(PT_)?GUARDED_BY\s*\(")
# Annotations to strip before deciding whether a statement is a function
# declaration (they carry parens of their own).
ANNOT_STRIP = re.compile(
    r"\bLABFLOW_(PT_)?GUARDED_BY\s*\([^()]*\)"
    r"|\bLABFLOW_ACQUIRED_(BEFORE|AFTER)\s*\([^()]*\)")
MEMBER_SKIP = re.compile(
    r"^\s*(static|constexpr|using|typedef|friend|enum|template|public|"
    r"private|protected|class|struct)\b|\boperator\b")
EXEMPT_MEMBER = re.compile(
    r"\bconst\b|\bstd\s*::\s*atomic\b|\b(Mutex|SharedMutex|CondVar)\b")

GUARD_DEF = re.compile(r"^#define\s+(\w+)\s*$")


def canonical_guard(relpath):
    parts = list(relpath.parts)
    if parts[0] == "src":
        parts = parts[1:]
    stem = "_".join(parts)
    return "LABFLOW_" + re.sub(r"[^A-Za-z0-9]", "_", stem).upper() + "_"


class Linter:
    def __init__(self):
        self.findings = []

    def report(self, rel, lineno, rule, msg):
        self.findings.append(f"{rel}:{lineno}: [{rule}] {msg}")

    # -- whole-file driver ----------------------------------------------------

    def check_text(self, rel, text):
        """Runs every single-file rule on one translation unit. `rel` is the
        repo-relative Path (drives the per-directory scoping)."""
        lines = text.splitlines()
        in_src = rel.parts[0] == "src"

        for i, raw in enumerate(lines, 1):
            line = strip_strings_and_comments(raw)

            if "#pragma once" in line and not waived(raw, "pragma-once"):
                self.report(rel, i, "pragma-once",
                            "use a LABFLOW_<PATH>_H_ include guard instead")

            if (in_src and rel not in NAKED_MUTEX_ALLOWED
                    and not waived(raw, "naked-mutex")):
                m = NAKED_MUTEX.search(line)
                if m:
                    self.report(
                        rel, i, "naked-mutex",
                        f"raw std synchronization ('{m.group(0).strip()}') "
                        "bypasses the lock-rank validator; use "
                        "labflow::Mutex / SharedMutex / CondVar "
                        "(common/mutex.h)")

            if in_src and not waived(raw, "value-on-temporary"):
                for m in VALUE_ON_TEMP.finditer(line):
                    # Allowed iff this .value() is the tail of std::move(...).
                    if any(mm.end() == m.end()
                           for mm in MOVED_VALUE.finditer(line)):
                        continue
                    self.report(rel, i, "value-on-temporary",
                                ".value() on an unchecked temporary Result; "
                                "bind it to a local and test ok() first")

            if not waived(raw, "assert-side-effect"):
                for m in ASSERT_CALL.finditer(line):
                    # Take the parenthesized argument (balanced on this line).
                    depth, j = 0, m.end() - 1
                    arg_start = m.end()
                    while j < len(line):
                        if line[j] == "(":
                            depth += 1
                        elif line[j] == ")":
                            depth -= 1
                            if depth == 0:
                                break
                        j += 1
                    arg = line[arg_start:j if depth == 0 else len(line)]
                    if SIDE_EFFECT.search(arg):
                        self.report(rel, i, "assert-side-effect",
                                    "assert condition has a side effect, "
                                    "which vanishes under NDEBUG")

        if rel.suffix in {".h", ".hpp"} and not waived(
                lines[0] if lines else "", "include-guard"):
            want = canonical_guard(rel)
            ifndefs = [m.group(1) for ln in lines[:5]
                       for m in [GUARD_IFNDEF.match(ln.strip())] if m]
            if want not in ifndefs:
                self.report(rel, 1, "include-guard",
                            f"expected include guard {want}")
            elif f"#define {want}" not in text:
                self.report(rel, 1, "include-guard",
                            f"#ifndef {want} without matching #define")

        if in_src:
            self.check_io_under_lock(rel, text, lines)
            self.check_guarded_by(rel, text, lines)

    # -- io-under-lock --------------------------------------------------------

    def check_io_under_lock(self, rel, text, raw_lines):
        stripped = strip_code(text).splitlines()
        depth = 0
        guards = []  # brace depth at which each active RAII guard lives
        for i, line in enumerate(stripped, 1):
            raw = raw_lines[i - 1] if i <= len(raw_lines) else ""
            # Walk the line's braces, guard declarations and I/O calls in
            # textual order, so `{ MutexLock g(mu); Stage(); }` opened and
            # closed on one line does not leak its guard to later lines.
            events = [(m.start(), "+") for m in re.finditer(r"\{", line)]
            events += [(m.start(), "-") for m in re.finditer(r"\}", line)]
            events += [(m.start(), "g") for m in RAII_GUARD.finditer(line)]
            events += [(m.start(), "io") for m in IO_CALL.finditer(line)]
            for _, kind in sorted(events):
                if kind == "+":
                    depth += 1
                elif kind == "-":
                    depth -= 1
                    while guards and depth < guards[-1]:
                        guards.pop()
                elif kind == "g":
                    guards.append(depth)
                elif kind == "io" and guards and not waived(
                        raw, "io-under-lock"):
                    self.report(rel, i, "io-under-lock",
                                "file I/O inside a mutex guard scope; stage "
                                "under the lock and do the I/O outside, or "
                                "NOLINT with the design rationale")

    # -- guarded-by-coverage --------------------------------------------------

    def check_guarded_by(self, rel, text, raw_lines):
        """Statement-level scan: finds class/struct bodies, collects their
        member-level declaration statements (accumulated across lines until
        the `;` at member depth), and — for classes owning a labflow
        Mutex/SharedMutex — requires every mutable data member to carry
        LABFLOW_GUARDED_BY / LABFLOW_PT_GUARDED_BY or a NOLINT waiver."""
        stripped = strip_code(text)
        # Scope stack entry: [is_class, has_lock, members]; members are
        # (start_line, end_line, statement_text).
        scopes = []
        stmt, stmt_line = [], 1
        line_no = 1
        inner = 0  # paren/brace depth inside the current statement
        for ch in stripped:
            if ch == "\n":
                line_no += 1
                stmt.append(" ")
                continue
            if ch == "{":
                head = "".join(stmt)
                if inner == 0 and CLASS_HEAD.search(head) \
                        and not re.search(r"\benum\b", head):
                    scopes.append([True, False, []])
                    stmt, stmt_line = [], line_no
                elif inner == 0 and not scopes:
                    scopes.append([False, False, []])
                    stmt, stmt_line = [], line_no
                elif inner == 0:
                    # Brace-init of a member (`Mutex mu_{...}`) vs a nested
                    # body (function, nested class): an initializer's brace
                    # follows an identifier at statement level — treat a
                    # head ending in an identifier/annotation-paren as init
                    # only when the statement already names a lock or data
                    # member; simplest robust cut: a head with `(` that is
                    # not an annotation, or ending in `)`, is a function —
                    # everything else could be an init. Track function and
                    # nested bodies as non-class scopes; inits ride along as
                    # inner braces.
                    bare = ANNOT_STRIP.sub("", head)
                    if re.search(r"[)\s](const\s*)?(noexcept\s*)?$", bare) \
                            and "(" in bare:
                        scopes.append([False, False, []])
                        stmt, stmt_line = [], line_no
                    else:
                        inner += 1
                        stmt.append(ch)
                else:
                    inner += 1
                    stmt.append(ch)
                continue
            if ch == "}":
                if inner > 0:
                    inner -= 1
                    stmt.append(ch)
                    continue
                if scopes:
                    is_class, has_lock, members = scopes.pop()
                    if is_class and has_lock:
                        self._report_unguarded(rel, raw_lines, members)
                stmt, stmt_line = [], line_no
                continue
            if ch == ";" and inner == 0:
                statement = "".join(stmt).strip()
                if scopes and scopes[-1][0] and statement:
                    self._note_member(scopes[-1], statement, stmt_line,
                                      line_no)
                stmt, stmt_line = [], line_no
                continue
            if ch in "()":
                inner += 1 if ch == "(" else -1
                if inner < 0:
                    inner = 0
            if not stmt:
                stmt_line = line_no
            stmt.append(ch)

    def _note_member(self, scope, statement, start_line, end_line):
        # Access specifiers accumulate into the statement; drop them.
        statement = re.sub(
            r"\b(public|private|protected)\s*:", " ", statement).strip()
        if not statement or MEMBER_SKIP.match(statement):
            return
        if LABFLOW_LOCK_MEMBER.search(ANNOT_STRIP.sub("", statement)):
            scope[1] = True  # the class owns a rankable lock
            return
        bare = ANNOT_STRIP.sub("", statement)
        if "(" in bare:  # function/ctor declaration
            return
        if EXEMPT_MEMBER.search(bare):
            return
        has_guard = bool(GUARD_ANNOTATION.search(statement))
        if not has_guard:
            scope[2].append((start_line, end_line, statement))

    def _report_unguarded(self, rel, raw_lines, members):
        for start, end, statement in members:
            span = raw_lines[start - 1:end]
            if any(waived(r, "guarded-by-coverage") for r in span):
                continue
            decl = re.split(r"[={]", statement)[0].strip()
            name = decl.split()[-1] if decl.split() else "?"
            self.report(rel, start, "guarded-by-coverage",
                        f"member '{name}' in a lock-owning class has no "
                        "LABFLOW_GUARDED_BY; annotate which mutex guards "
                        "it, or NOLINT with why it needs none")


# ---- tree driver ------------------------------------------------------------


def run_tree(linter):
    for d in SCAN_DIRS:
        base = ROOT / d
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in EXTS and path.is_file():
                linter.check_text(path.relative_to(ROOT),
                                  path.read_text(encoding="utf-8"))


# ---- self-test --------------------------------------------------------------

# (rule, path the fixture pretends to live at, snippet, should_fire).
# Each rule has a firing fixture and a NOLINT-waived twin, so the suite
# checks both halves of the contract: detection and suppression.
FIXTURES = [
    ("value-on-temporary", "src/x.cc",
     "void F() { auto v = Make().value(); }\n", True),
    ("value-on-temporary", "src/x.cc",
     "void F() { auto v = Make().value(); }  // NOLINT(value-on-temporary)\n",
     False),
    ("value-on-temporary", "src/x.cc",
     "void F() { auto v = std::move(r).value(); }\n", False),
    ("assert-side-effect", "src/x.cc",
     "void F() { assert(n++ > 0); }\n", True),
    ("assert-side-effect", "src/x.cc",
     "void F() { assert(n++ > 0); }  // NOLINT(assert-side-effect)\n", False),
    ("pragma-once", "src/x.h",
     "#pragma once\n", True),
    ("pragma-once", "src/x.h",
     "#pragma once  // NOLINT(pragma-once)\n", False),
    ("include-guard", "src/x.h",
     "#ifndef WRONG_H_\n#define WRONG_H_\n#endif\n", True),
    ("include-guard", "src/x.h",
     "// NOLINT(include-guard)\n#ifndef WRONG_H_\n#define WRONG_H_\n#endif\n",
     False),
    ("include-guard", "src/x.h",
     "#ifndef LABFLOW_X_H_\n#define LABFLOW_X_H_\n#endif  "
     "// LABFLOW_X_H_\n", False),
    ("naked-mutex", "src/x.cc",
     "std::mutex mu;\n", True),
    ("naked-mutex", "src/x.cc",
     "#include <mutex>\n", True),
    ("naked-mutex", "src/x.cc",
     "std::lock_guard<std::mutex> g(mu);  // NOLINT(naked-mutex)\n", False),
    ("naked-mutex", "tests/x.cc",
     "std::mutex mu;\n", False),  # scoped to src/
    ("guarded-by-coverage", "src/x.h",
     "class C {\n"
     "  Mutex mu_{LockRank::kTxnTable, \"t\"};\n"
     "  int counter_ = 0;\n"
     "};\n", True),
    ("guarded-by-coverage", "src/x.h",
     "class C {\n"
     "  Mutex mu_{LockRank::kTxnTable, \"t\"};\n"
     "  int counter_ LABFLOW_GUARDED_BY(mu_) = 0;\n"
     "};\n", False),
    ("guarded-by-coverage", "src/x.h",
     "class C {\n"
     "  Mutex mu_{LockRank::kTxnTable, \"t\"};\n"
     "  int counter_ = 0;  // NOLINT(guarded-by-coverage): startup only\n"
     "};\n", False),
    ("guarded-by-coverage", "src/x.h",
     "class C {\n"
     "  Mutex mu_{LockRank::kTxnTable, \"t\"};\n"
     "  const int limit_ = 8;\n"
     "  std::atomic<int> hits_{0};\n"
     "};\n", False),  # const and atomic members are exempt
    ("guarded-by-coverage", "src/x.h",
     "class C {\n"
     "  int counter_ = 0;\n"
     "};\n", False),  # no lock member, no requirement
    # The rule covers every src/ subtree — pinned for src/lsm, whose
    # manager mixes three locks and background threads (lsm/lsm_manager.h).
    ("guarded-by-coverage", "src/lsm/x.h",
     "class LsmThing {\n"
     "  SharedMutex mu_{LockRank::kLsmState, \"lsm.state\"};\n"
     "  std::deque<int> imms_;\n"
     "};\n", True),
    ("guarded-by-coverage", "src/lsm/x.h",
     "class LsmThing {\n"
     "  SharedMutex mu_{LockRank::kLsmState, \"lsm.state\"};\n"
     "  std::deque<int> imms_ LABFLOW_GUARDED_BY(mu_);\n"
     "};\n", False),
    ("io-under-lock", "src/x.cc",
     "void F() {\n"
     "  MutexLock g(mu_);\n"
     "  fwrite(buf, 1, n, f);\n"
     "}\n", True),
    ("io-under-lock", "src/x.cc",
     "void F() {\n"
     "  MutexLock g(mu_);\n"
     "  file_->Write(off, data);  // NOLINT(io-under-lock): see header\n"
     "}\n", False),
    ("io-under-lock", "src/x.cc",
     "void F() {\n"
     "  { MutexLock g(mu_); staged = Snapshot(); }\n"
     "  fwrite(buf, 1, n, f);\n"
     "}\n", False),  # guard scope closed before the I/O
]

def self_test():
    failures = []
    for idx, (rule, rel, snippet, should_fire) in enumerate(FIXTURES):
        lt = Linter()
        lt.check_text(Path(rel), snippet)
        fired = [f for f in lt.findings if f"[{rule}]" in f]
        if bool(fired) != should_fire:
            verb = "did not fire" if should_fire else "fired"
            failures.append(
                f"fixture {idx} [{rule}]: {verb} on:\n{snippet}"
                + (("  findings: " + "; ".join(fired) + "\n") if fired
                   else ""))
    if failures:
        for f in failures:
            print(f, file=sys.stderr)
        print(f"lint.py --self-test: {len(failures)} fixture failure(s)",
              file=sys.stderr)
        return 1
    print(f"lint.py --self-test: {len(FIXTURES)} fixtures ok")
    return 0


def main(argv):
    output = None
    run_self_test = False
    for arg in argv[1:]:
        if arg == "--self-test":
            run_self_test = True
        elif arg.startswith("--output="):
            output = Path(arg[len("--output="):])
        else:
            print(f"usage: lint.py [--self-test] [--output=FILE]  "
                  f"(unknown arg: {arg})", file=sys.stderr)
            return 2
    if run_self_test:
        return self_test()

    lt = Linter()
    run_tree(lt)
    for f in lt.findings:
        print(f)
    if output is not None:
        output.write_text(("\n".join(lt.findings) + "\n") if lt.findings
                          else "clean\n", encoding="utf-8")
    if lt.findings:
        print(f"lint.py: {len(lt.findings)} finding(s)", file=sys.stderr)
        return 1
    print("lint.py: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
