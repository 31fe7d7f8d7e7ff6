#!/usr/bin/env python3
"""sfs-lint: suspension-safety and lock-discipline analyzer for the SwitchFS
coroutine core.

The simulator is single-threaded, so the usual data-race tooling is silent on
the bugs that actually bite this codebase: references into shared state held
across a `co_await` (another chain mutates or erases the container while the
frame sleeps), lock-order inversions against the innermost changelog append
mutex, awaited Status values silently dropped, and switch-cache evicts run
without the exclusive inode lock (PR-3/PR-4 postmortems), and shard-private
state reached without going through a shard router. sfs-lint is a
lexical/structural analyzer for exactly those five patterns. It is not a
compiler: it tokenizes the source, tracks brace scopes, and keys off the
annotation macros in src/common/annotations.h rather than doing real type
resolution. libclang is deliberately not required.

Rules
-----
  borrow-across-suspend  (R1)
      A reference, pointer, or iterator derived from a type annotated
      SFS_SUSPENSION_SHARED (ServerVolatile, ClientCache, DirSessionTable,
      KvStore, ReplicatedTracker, ...) must not be used after a co_await that
      occurs while it is live. Re-binding the variable after the suspension
      (the re-find idiom) resets liveness.
  append-innermost       (R2)
      A lock table annotated SFS_LOCK_INNERMOST (changelog_append_locks) is
      the innermost lock: no other Acquire may be awaited while one of its
      guards is live. (The dynamic checker allows same-class pairs for the
      rebind path; statically even those must carry a suppression so the
      ordering argument is written down at the call site.)
  discarded-status       (R3)
      A statement-position `co_await f(...)` whose callee returns Status /
      StatusOr / Task<Status...> (harvested from declarations) discards the
      result. Assign and check it, make the discard explicit with a
      `(void)` cast, or suppress with a reason.
  evict-requires-lock    (R4)
      A call to a function annotated SFS_REQUIRES_EXCLUSIVE(member) —
      EvictSwitchCacheEntry, DataPlane::EvictCachedIf — must be lexically
      inside the live scope of an exclusive guard acquired from that member
      (`co_await ...member.AcquireExclusive(...)`), or carry a suppression
      naming the out-of-band witness.
  cross-shard-direct     (R5)
      A data member annotated SFS_SHARD_PRIVATE (ServerVolatile::shards)
      holds the per-shard apply lanes and push streams; only functions
      annotated SFS_SHARD_ROUTER (the lane routers ShardFor/ShardAt/
      num_shards and the constructor) may touch it. Everything else must
      reach a shard through a lane router, or carry a suppression naming
      why the direct index is safe.

Suppression
-----------
    // sfs-lint: allow(<rule>, <reason>)
on the flagged line or the line directly above. The reason is mandatory; an
empty reason is itself an error (bad-suppression).

Exit status: 0 when no unsuppressed findings, 1 otherwise, 2 on usage error.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import re
import sys

RULES = (
    "borrow-across-suspend",
    "append-innermost",
    "discarded-status",
    "evict-requires-lock",
    "cross-shard-direct",
)

SUPPRESS_RE = re.compile(
    r"//\s*sfs-lint:\s*allow\(\s*([a-z-]+)\s*(?:,\s*(.*?))?\s*\)")

# Accessors that return an iterator (or iterator pair) into the receiver.
ITER_FUNCS = ("find", "begin", "cbegin", "rbegin", "end", "cend",
              "lower_bound", "upper_bound", "equal_range")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message
        self.suppressed = False
        self.reason = None

    def render(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


# ---------------------------------------------------------------------------
# Source model: comment/string-stripped text with offsets preserved, a line
# map, per-offset brace depth, and the suppression comments.
# ---------------------------------------------------------------------------

class SourceFile:
    def __init__(self, path, text):
        self.path = path
        self.raw = text
        self.clean = _strip(text)
        self.line_starts = [0]
        for i, ch in enumerate(text):
            if ch == "\n":
                self.line_starts.append(i + 1)
        self.depth = _depths(self.clean)
        # line -> (rule, reason) suppressions
        self.suppressions = {}
        self.bad_suppressions = []  # (line, text)
        for m in SUPPRESS_RE.finditer(text):
            line = self.line_of(m.start())
            rule, reason = m.group(1), (m.group(2) or "").strip()
            if rule not in RULES or not reason:
                self.bad_suppressions.append((line, m.group(0).strip()))
            else:
                self.suppressions.setdefault(line, []).append([rule, reason, False])

    def line_of(self, offset):
        return bisect.bisect_right(self.line_starts, offset)

    def allow(self, rule, line):
        """Consume a suppression for `rule` on `line` or the line above."""
        for cand in (line, line - 1):
            for entry in self.suppressions.get(cand, ()):
                if entry[0] == rule:
                    entry[2] = True
                    return entry[1]
        return None

    def enclosing_scope_open(self, offset):
        """Offset of the innermost '{' opening the scope containing
        `offset` (a '{' stores the pre-increment, i.e. parent, depth)."""
        d = self.depth[offset]
        if d == 0:
            return 0
        for i in range(offset, -1, -1):
            if self.clean[i] == "{" and self.depth[i] == d - 1:
                return i
        return 0

    def enclosing_scope_end(self, offset):
        """End offset of the innermost brace scope containing `offset`."""
        d = self.depth[offset]
        if d == 0:
            return len(self.clean)
        # A '}' stores the decremented depth, so the scope's own close is the
        # first '}' whose stored depth is d - 1 (nested closes store >= d).
        for i in range(offset, len(self.clean)):
            if self.clean[i] == "}" and self.depth[i] == d - 1:
                return i
        return len(self.clean)


def _strip(text):
    """Blank comments, string and char literals (newlines kept)."""
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            for k in range(i, j):
                out[k] = " "
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j < 0 else j
            for k in range(i, j + 2):
                if out[k] != "\n":
                    out[k] = " "
            i = j + 2
        elif c == '"':
            if text[i - 1] == "R" and i + 1 < n and text[i + 1] == "(":
                j = text.find(')"', i + 2)  # raw string, default delimiter
                j = n - 2 if j < 0 else j
                for k in range(i + 1, j + 1):
                    if out[k] != "\n":
                        out[k] = " "
                i = j + 2
                continue
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            for k in range(i + 1, min(j, n)):
                if out[k] != "\n":
                    out[k] = " "
            i = j + 1
        elif c == "'":
            j = i + 1
            while j < n and text[j] != "'":
                j += 2 if text[j] == "\\" else 1
            if j - i <= 4:  # char literal, not a digit separator
                for k in range(i + 1, min(j, n)):
                    out[k] = " "
                i = j + 1
            else:
                i += 1
        else:
            i += 1
    return "".join(out)


def _depths(clean):
    depth = [0] * (len(clean) + 1)
    d = 0
    for i, ch in enumerate(clean):
        if ch == "{":
            depth[i] = d
            d += 1
        elif ch == "}":
            d -= 1
            depth[i] = d
        else:
            depth[i] = d
    depth[len(clean)] = 0
    return depth


# ---------------------------------------------------------------------------
# Pass 1: harvest annotations and status-returning declarations tree-wide.
# ---------------------------------------------------------------------------

class Harvest:
    def __init__(self):
        self.shared_types = set()     # SFS_SUSPENSION_SHARED class names
        self.shared_aliases = set()   # using X = ...<shared type>...
        self.innermost = set()        # SFS_LOCK_INNERMOST member names
        self.requires = {}            # function name -> required lock member
        self.status_funcs = set()     # names returning Status/StatusOr/...
        self.shard_private = set()    # SFS_SHARD_PRIVATE member names


SHARED_RE = re.compile(r"\b(?:class|struct)\s+SFS_SUSPENSION_SHARED\s+(\w+)")
INNERMOST_RE = re.compile(r"\bSFS_LOCK_INNERMOST\s+[\w:]+\s+(\w+)\s*;")
SHARD_PRIVATE_RE = re.compile(r"\bSFS_SHARD_PRIVATE\s+[^;{}()]*?(\w+)\s*;")
REQUIRES_RE = re.compile(
    r"\bSFS_REQUIRES_EXCLUSIVE\(\s*(\w+)\s*\)\s*"
    r"(?:[\w:]+(?:<[^;{}()]*>)?\s+)*?(\w+)\s*\(")
STATUS_RE = re.compile(
    r"\b(?:Status|StatusOr\s*<[^;{}]*?>|(?:sim::)?Task\s*<\s*"
    r"(?:Status|StatusOr\s*<[^;{}]*?>)\s*>)\s+(?:[\w:]+::)?(\w+)\s*\(")


def harvest_file(src, h):
    for m in SHARED_RE.finditer(src.clean):
        h.shared_types.add(m.group(1))
    for m in INNERMOST_RE.finditer(src.clean):
        h.innermost.add(m.group(1))
    for m in SHARD_PRIVATE_RE.finditer(src.clean):
        h.shard_private.add(m.group(1))
    for m in REQUIRES_RE.finditer(src.clean):
        h.requires[m.group(2)] = m.group(1)
    for m in STATUS_RE.finditer(src.clean):
        name = m.group(1)
        if name not in ("ok", "if", "return", "co_return", "co_await"):
            h.status_funcs.add(name)


def harvest_aliases(sources, h):
    # using VolPtr = std::shared_ptr<ServerVolatile>; etc.
    pat = re.compile(r"\busing\s+(\w+)\s*=\s*([^;]+);")
    for src in sources:
        for m in pat.finditer(src.clean):
            target = m.group(2)
            if any(re.search(r"\b%s\b" % t, target) for t in h.shared_types):
                h.shared_aliases.add(m.group(1))


# ---------------------------------------------------------------------------
# Pass 2: per-file analysis.
# ---------------------------------------------------------------------------

FUNC_BODY_RE = re.compile(
    r"\)\s*(?:const\s*|noexcept\s*|override\s*|final\s*|mutable\s*"
    r"|->\s*[\w:<>,\s&*]+?)*\{")


def coroutine_bodies(src):
    """Yield (start, end, header_start) for function bodies containing a
    co_await/co_return, outermost-first (nested lambdas are analyzed as part
    of their enclosing body's scope tracking)."""
    clean = src.clean
    bodies = []
    for m in FUNC_BODY_RE.finditer(clean):
        open_at = m.end() - 1
        close_at = src.enclosing_scope_end(open_at + 1)
        seg = clean[open_at:close_at]
        if "co_await" not in seg and "co_return" not in seg:
            continue
        bodies.append((open_at, close_at, m.start()))
    # Keep only outermost bodies.
    out = []
    for b in bodies:
        if not any(o[0] < b[0] and b[1] <= o[1] for o in out):
            out.append(b)
    return out


def header_text(src, header_start, open_at):
    """Text of the function head: from the start of its statement (previous
    ';', '{' or '}') to the body's '{'. Contains the parameter list."""
    clean = src.clean
    i = header_start
    # back up past the ')' to its matching '(' to include the full param list
    lo = max(clean.rfind(";", 0, i), clean.rfind("{", 0, i),
             clean.rfind("}", 0, i))
    return clean[lo + 1:open_at]


WORD = r"[A-Za-z_]\w*"


class Analyzer:
    def __init__(self, src, h):
        self.src = src
        self.h = h
        self.findings = []

    def report(self, rule, offset, message):
        line = self.src.line_of(offset)
        f = Finding(self.src.path, line, rule, message)
        reason = self.src.allow(rule, line)
        if reason is not None:
            f.suppressed = True
            f.reason = reason
        self.findings.append(f)

    # -- shared roots -------------------------------------------------------

    def shared_param_names(self, head):
        """Parameter/declaration names whose type mentions a shared type."""
        names = set()
        typenames = self.h.shared_types | self.h.shared_aliases
        if not typenames:
            return names
        type_alt = "|".join(sorted(typenames))
        pat = re.compile(
            r"\b(?:const\s+)?(?:[\w:]*(?:%s)[\w:]*|[\w:]+<[^<>]*"
            r"(?:%s)[^<>]*>)\s*[&*]*\s*(%s)\b" % (type_alt, type_alt, WORD))
        for m in pat.finditer(head):
            if m.group(1) not in typenames:
                names.add(m.group(1))
        return names

    def member_context(self, head, open_at):
        """True when the body belongs to a method of a shared-annotated class
        (qualified Class::Method definition, or inline within the annotated
        class body)."""
        m = re.search(r"\b(\w+)\s*::\s*~?\w+\s*\($", head.split("(")[0] + "(")
        if m and m.group(1) in self.h.shared_types:
            return True
        for cm in SHARED_RE.finditer(self.src.clean):
            brace = self.src.clean.find("{", cm.end())
            if brace < 0:
                continue
            if brace < open_at < self.src.enclosing_scope_end(brace + 1):
                return True
        return False

    # -- analysis entry -----------------------------------------------------

    def run(self):
        self.check_shard_direct()
        for open_at, close_at, header_start in coroutine_bodies(self.src):
            head = header_text(self.src, header_start, open_at)
            body = self.src.clean[open_at:close_at + 1]
            roots = self.shared_param_names(head)
            roots |= self.shared_param_names(body)
            in_member = self.member_context(head, open_at)
            awaits = [open_at + m.start()
                      for m in re.finditer(r"\bco_await\b", body)]
            self.check_borrows(open_at, body, roots, in_member, awaits)
            self.check_append_innermost(open_at, body)
            self.check_discarded_status(open_at, body)
            self.check_evict_lock(open_at, body)

    # -- R5 -----------------------------------------------------------------

    def check_shard_direct(self):
        """Flags uses of SFS_SHARD_PRIVATE members in any function whose
        header is not annotated SFS_SHARD_ROUTER. Runs over ALL function
        bodies (shard state is reachable from plain helpers too, not just
        coroutines)."""
        if not self.h.shard_private:
            return
        clean = self.src.clean
        bodies = [(m.end() - 1, self.src.enclosing_scope_end(m.end()),
                   m.start()) for m in FUNC_BODY_RE.finditer(clean)]
        alt = "|".join(sorted(re.escape(n) for n in self.h.shard_private))
        # `x.shards`, `x->shards`, or bare `shards` being indexed/deref'd.
        use_re = re.compile(
            r"(?:\.|->)\s*(?:%s)\b|(?<![\w.>])(?:%s)\s*(?=[\[.]|->)" %
            (alt, alt))
        for m in use_re.finditer(clean):
            at = m.start()
            # The annotated declaration itself.
            line_start = self.src.line_starts[self.src.line_of(at) - 1]
            if "SFS_SHARD_PRIVATE" in self.src.raw[line_start:at]:
                continue
            # The OUTERMOST enclosing `){`-body is the function (inner
            # matches are control-flow blocks or lambdas inside it); its
            # header carries the router annotation when sanctioned.
            outer = None
            for open_at, close_at, header_start in bodies:
                if open_at < at < close_at and \
                        (outer is None or open_at < outer[0]):
                    outer = (open_at, close_at, header_start)
            if outer is None:
                continue  # class/namespace scope: the declaration side
            head = header_text(self.src, outer[2], outer[0])
            if "SFS_SHARD_ROUTER" in head:
                continue
            self.report(
                "cross-shard-direct", at,
                "shard-private state accessed outside a SFS_SHARD_ROUTER "
                "accessor; reach the shard through a lane router "
                "(ShardFor/ShardAt) or suppress naming why the direct index "
                "is safe")

    # -- R1 -----------------------------------------------------------------

    def _tainted_init(self, init, roots, tainted, in_member):
        for r in roots:
            if re.search(r"\b%s\s*(?:->|\.|\))" % re.escape(r), init) or \
               re.search(r"&\s*%s\b" % re.escape(r), init):
                return True
        for t in tainted:
            if re.search(r"\b%s\b" % re.escape(t), init):
                return True
        if in_member and re.search(r"\b\w+_\s*(?:\.|->|\[)", init):
            return True
        return False

    TERMINATOR_RE = re.compile(
        r"(?:co_return|return|break|continue)\b[^;{}]*;\s*$")

    def _shielded(self, a, b, u):
        """True when the co_await at `a` sits inside a scope that excludes
        both the binding `b` and the use `u` and whose last statement is a
        terminator (co_return/return/break/continue): straight-line flow
        from that await cannot reach the use, and any loop back-edge
        re-executes the binding first. Lexical stand-in for path
        sensitivity — it clears the re-find-then-bail idiom."""
        pos = a
        while True:
            o = self.src.enclosing_scope_open(pos)
            c = self.src.enclosing_scope_end(pos)
            if o == 0 or o <= u <= c:
                return False
            if not (o <= b <= c) and \
                    self.TERMINATOR_RE.search(self.src.clean[o + 1:c]):
                return True
            pos = o

    def _liveness_violation(self, body, name, decl_end, scope_end, awaits,
                            base, rebindable):
        """First use of `name` separated from its latest (re)binding by a
        co_await, or None. Offsets are file-absolute; `body` is the body
        text starting at `base`. Pointers and iterators are `rebindable`:
        `name = ...` re-derives the borrow (the re-find idiom) and resets
        liveness. A reference cannot rebind — assignment through it writes
        the referent and counts as a use."""
        esc = re.escape(name)
        bindings = [decl_end]
        if rebindable:
            for m in re.finditer(r"\b%s\s*=(?![=])" % esc, body):
                at = base + m.start()
                if decl_end < at < scope_end:
                    end = body.find(";", m.end())
                    bindings.append(base + end if end >= 0 else at)
            bindings.sort()
        for m in re.finditer(r"\b%s\b" % esc, body):
            use = base + m.start()
            if not (decl_end < use < scope_end):
                continue
            nxt = body[m.end():m.end() + 2].lstrip()
            if rebindable and nxt.startswith("=") and \
                    not nxt.startswith("=="):
                continue  # the rebinding itself
            b = bindings[bisect.bisect_right(bindings, use) - 1]
            if any(b < a < use and not self._shielded(a, b, use)
                   for a in awaits):
                return use
        return None

    def check_borrows(self, base, body, roots, in_member, awaits):
        if not awaits:
            return
        tainted = set()
        # Declarations producing a reference/pointer.
        ref_decl = re.compile(
            r"(?:^|[;{}]|\)\s*)\s*(?:const\s+)?"
            r"(?:auto|[\w:]+(?:\s*<[^;=<>]*(?:<[^;=<>]*>)?[^;=<>]*>)?)"
            r"\s*(?:const\s*)?([&*]+)\s*(%s)\s*=\s*([^;]+);" % WORD)
        # Iterator declarations: auto it = x.find(...)
        iter_decl = re.compile(
            r"\b(?:auto|[\w:]+::(?:const_)?iterator)\s+(%s)\s*=\s*"
            r"([^;]*?(?:\.|->)\s*(?:%s)\s*\([^;]*);" % (WORD, "|".join(ITER_FUNCS)))
        # Structured bindings by reference.
        sb_decl = re.compile(
            r"\b(?:const\s+)?auto\s*&&?\s*\[([^\]]+)\]\s*=\s*([^;]+);")

        decls = []
        for m in ref_decl.finditer(body):
            rebindable = "&" not in m.group(1)
            decls.append((m.group(2), m.group(3), base + m.end(), rebindable,
                          "%s borrowed by %s" %
                          (m.group(2),
                           "pointer" if rebindable else "reference")))
        for m in iter_decl.finditer(body):
            decls.append((m.group(1), m.group(2), base + m.end(), True,
                          "iterator %s" % m.group(1)))
        for m in sb_decl.finditer(body):
            if re.match(r"\s*for\s*\($",
                        body[max(0, m.start() - 8):m.start() + 1]):
                continue
            for nm in [x.strip() for x in m.group(1).split(",")]:
                decls.append((nm, m.group(2), base + m.end(), False,
                              "structured binding &%s" % nm))
        decls.sort(key=lambda d: d[2])
        for name, init, decl_end, rebindable, what in decls:
            if not self._tainted_init(init, roots, tainted, in_member):
                continue
            tainted.add(name)
            scope_end = self.src.enclosing_scope_end(decl_end)
            use = self._liveness_violation(body, name, decl_end,
                                           scope_end, awaits, base,
                                           rebindable)
            if use is not None:
                self.report(
                    "borrow-across-suspend", decl_end - 1,
                    "%s into suspension-shared state is used at line %d "
                    "after an intervening co_await; copy the value, re-find "
                    "after the suspension, or suppress with the invariant "
                    "that pins it" % (what, self.src.line_of(use)))

        # Range-for over shared containers with a co_await in the loop body.
        for m in re.finditer(
                r"\bfor\s*\(\s*(?:const\s+)?auto\s*&&?\s*"
                r"(?:\[[^\]]+\]|%s)\s*:\s*([^)]+)\)\s*\{" % WORD, body):
            if not self._tainted_init(m.group(1), roots, tainted, in_member):
                continue
            loop_open = base + m.end() - 1
            loop_close = self.src.enclosing_scope_end(loop_open + 1)
            if any(loop_open < a < loop_close for a in awaits):
                self.report(
                    "borrow-across-suspend", base + m.start(),
                    "range-for over suspension-shared container suspends "
                    "inside the loop body; the hidden iterator does not "
                    "survive a concurrent mutation")

    # -- R2 -----------------------------------------------------------------

    def check_append_innermost(self, base, body):
        if not self.h.innermost:
            return
        inner_alt = "|".join(sorted(self.h.innermost))
        acq = re.compile(
            r"co_await\s+((?:[\w:]+(?:\.|->))*)(%s)\s*(?:\.|->)\s*"
            r"Acquire(?:Shared|Exclusive)?\s*\(" % WORD)
        holds = []  # (scope_end, table) for live innermost guards
        for m in acq.finditer(body):
            at = base + m.start()
            table = m.group(2)
            inner = table in self.h.innermost
            for scope_end, held in list(holds):
                if at >= scope_end:
                    holds.remove((scope_end, held))
            if holds:
                # Any acquisition (even a second innermost: the pair order
                # must be argued in a suppression) while an innermost guard
                # is live.
                self.report(
                    "append-innermost", at,
                    "lock %s acquired while the innermost append mutex %s "
                    "is held; release the append mutex first or suppress "
                    "with the ordering argument" % (table, holds[0][1]))
            if inner:
                # Guard lives to the end of the statement's scope unless the
                # variable it binds is Release()d; approximate with scope.
                stmt_scope = self.src.enclosing_scope_end(at)
                gm = re.search(r"(%s)\s*=\s*$" % WORD, body[:m.start()])
                # Explicit Release() of the bound guard ends the hold early.
                end = stmt_scope
                if gm:
                    rel = re.search(r"\b%s\s*\.\s*Release\s*\(" %
                                    re.escape(gm.group(1)), body[m.end():])
                    if rel:
                        end = min(end, base + m.end() + rel.start())
                holds.append((end, table))

    # -- R3 -----------------------------------------------------------------

    def check_discarded_status(self, base, body):
        callee_re = re.compile(
            r"co_await\s+(?:[\w:\]\[]+(?:\.|->))*(%s)\s*\(" % WORD)
        for m in re.finditer(r"\bco_await\b", body):
            j = m.start() - 1
            while j >= 0 and body[j] in " \t\n":
                j -= 1
            prev = body[j] if j >= 0 else "{"
            # Statement-position awaits only. `(void)co_await f()` reads as
            # an explicit, visible discard and is allowed (prev char ')').
            if prev not in ";{}":
                continue
            cm = callee_re.match(body, m.start())
            if not cm:
                continue
            callee = cm.group(1)
            if callee in self.h.status_funcs:
                self.report(
                    "discarded-status", base + m.start(),
                    "awaited result of %s() (returns Status/StatusOr) is "
                    "discarded; check it or suppress with why failure is "
                    "benign here" % callee)

    # -- R4 -----------------------------------------------------------------

    def _guard_scopes(self, base, body, member):
        """File-absolute (start, end) intervals in which an exclusive guard
        on `member` is live, keyed off the guard variable's declaration
        scope (handles Handle h; ... h = co_await ... and
        vec.push_back(co_await ...))."""
        scopes = []
        acq = re.compile(
            r"(?:(%s)\s*=\s*|(%s)\s*\.\s*(?:push_back|emplace_back)\s*\(\s*)?"
            r"co_await\s+[^;]*?\b%s\s*(?:\.|->)\s*AcquireExclusive\s*\(" %
            (WORD, WORD, re.escape(member)))
        for m in acq.finditer(body):
            at = base + m.start()
            var = m.group(1) or m.group(2)
            start = at
            scope_end = self.src.enclosing_scope_end(at)
            if var and var != "auto":
                # Use the variable's declaration scope when it was declared
                # earlier (Handle h; / std::vector<Handle> v;).
                dm = None
                for d in re.finditer(
                        r"[;{}]\s*(?:[\w:]+(?:<[^;=]*>)?\s+)+%s\s*;" %
                        re.escape(var), body[:m.start()]):
                    dm = d
                if dm:
                    decl_at = base + dm.end() - 1
                    scope_end = self.src.enclosing_scope_end(decl_at)
                # Release() ends the hold for the rest of its own scope.
                rel = re.search(r"\b%s\s*\.\s*Release\s*\(" % re.escape(var),
                                body[m.end():])
                if rel:
                    rel_at = base + m.end() + rel.start()
                    rel_scope_end = self.src.enclosing_scope_end(rel_at)
                    if rel_scope_end >= scope_end:
                        scope_end = rel_at
                    else:
                        scopes.append((start, scope_end, (rel_at,
                                                          rel_scope_end)))
                        continue
            scopes.append((start, scope_end, None))
        return scopes

    def check_evict_lock(self, base, body):
        for fn, member in self.h.requires.items():
            for m in re.finditer(r"\b%s\s*\(" % re.escape(fn), body):
                at = base + m.start()
                # Skip the function's own definition/declaration.
                head = body[max(0, m.start() - 64):m.start()]
                if re.search(r"(?:Task\s*<[^<>]*>|size_t|::)\s*$", head):
                    continue
                live = False
                for start, end, hole in self._guard_scopes(base, body,
                                                           member):
                    if start < at < end:
                        if hole and hole[0] < at < hole[1]:
                            continue
                        live = True
                        break
                if not live:
                    self.report(
                        "evict-requires-lock", at,
                        "%s() requires the exclusive %s guard to be live in "
                        "an enclosing scope; acquire it first or suppress "
                        "naming the out-of-band lock witness" % (fn, member))


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def collect(paths):
    files = []
    for p in paths:
        if os.path.isdir(p):
            for root, _dirs, names in os.walk(p):
                for n in sorted(names):
                    if n.endswith((".h", ".cc", ".cpp", ".hpp")):
                        files.append(os.path.join(root, n))
        else:
            files.append(p)
    return sorted(set(files))


def main(argv=None):
    ap = argparse.ArgumentParser(prog="sfs-lint", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("paths", nargs="*", help="files or directories to lint "
                    "(default: the repo's src/ tree)")
    ap.add_argument("--json", metavar="FILE",
                    help="also write findings as JSON (for CI artifacts)")
    ap.add_argument("--list-rules", action="store_true")
    ap.add_argument("--relative-to", metavar="DIR",
                    help="print paths relative to DIR (for golden tests)")
    args = ap.parse_args(argv)

    if args.list_rules:
        for r in RULES:
            print(r)
        return 0

    paths = args.paths
    if not paths:
        here = os.path.dirname(os.path.abspath(__file__))
        paths = [os.path.normpath(os.path.join(here, "..", "..", "src"))]

    files = collect(paths)
    if not files:
        print("sfs-lint: no input files", file=sys.stderr)
        return 2

    sources = []
    for f in files:
        try:
            with open(f, "r", encoding="utf-8", errors="replace") as fh:
                sources.append(SourceFile(f, fh.read()))
        except OSError as e:
            print("sfs-lint: %s: %s" % (f, e), file=sys.stderr)
            return 2

    h = Harvest()
    for src in sources:
        harvest_file(src, h)
    harvest_aliases(sources, h)

    findings = []
    for src in sources:
        a = Analyzer(src, h)
        a.run()
        findings.extend(a.findings)
        for line, text in src.bad_suppressions:
            findings.append(Finding(
                src.path, line, "bad-suppression",
                "suppression must name a known rule and a non-empty "
                "reason: %s" % text))

    def rel(p):
        return os.path.relpath(p, args.relative_to) if args.relative_to else p

    unsuppressed = [f for f in findings if not f.suppressed]
    suppressed = [f for f in findings if f.suppressed]
    for f in sorted(unsuppressed, key=lambda f: (rel(f.path), f.line)):
        print("%s:%d: [%s] %s" % (rel(f.path), f.line, f.rule, f.message))

    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({
                "findings": [{
                    "path": rel(f.path), "line": f.line, "rule": f.rule,
                    "message": f.message, "suppressed": f.suppressed,
                    "reason": f.reason,
                } for f in findings],
                "summary": {
                    "files": len(sources),
                    "unsuppressed": len(unsuppressed),
                    "suppressed": len(suppressed),
                },
            }, fh, indent=2)
            fh.write("\n")

    print("sfs-lint: %d file(s), %d finding(s), %d suppressed" %
          (len(sources), len(unsuppressed), len(suppressed)),
          file=sys.stderr)
    return 1 if unsuppressed else 0


if __name__ == "__main__":
    sys.exit(main())
