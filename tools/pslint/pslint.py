#!/usr/bin/env python3
"""pslint: PacketShader-specific lint rules.

The repo's concurrency and observability disciplines are conventions a
generic linter cannot know: single-writer counters, explicit memory
orders, exhaustive DropReason accounting, and doc tables that must track
the fault-point / metric registries. This tool turns each convention
into a checked rule.

Rules (suppress a finding with `// pslint: allow(<rule>)` on the same
or the preceding line):

  bare-atomic         atomic .load()/.store()/.fetch_*()/.exchange()/
                      compare_exchange without an explicit std::memory_order
                      argument. The default is seq_cst, which both hides
                      the intended ordering and overpays for it on the
                      hot path.
  single-writer       a counter documented as single-writer (written only
                      by its owning thread, sampled relaxed elsewhere)
                      mutated outside the file set that owns it.
  drop-reason-default a switch over DropReason with a `default:` label.
                      Every reason must be spelled out so adding an enum
                      value forces each switch to be revisited
                      (-Wswitch turns the omission into an error).
  registry-sync       fault-point and metric names in code must appear in
                      the doc tables (DESIGN.md / README.md) and vice
                      versa. Placeholders compare erased: `gpu.node<N>.x`
                      matches `"gpu.node" + std::to_string(n) + ".x"`.
  hot-sleep           sleep_for/sleep_until inside hot-path directories
                      (iengine, nic, gpu, core). Blocking belongs in the
                      interrupt/poll machinery, not in the data path; the
                      few legitimate idle/backoff sleeps carry an allow
                      comment explaining why they are off the fast path.
  steady-state-growth container growth (push_back/emplace_back/resize/
                      insert/emplace) inside a steady-state function
                      (worker_loop, recv_chunk, lookup_batch, ...) in
                      src/core, src/iengine, or src/route, when the file
                      never reserves that container. Growth in the
                      per-packet loops reintroduces the allocations the
                      warm-up phase exists to front-load; the counting
                      allocator test catches the aggregate, this rule
                      names the line. Containers warmed elsewhere or
                      deliberately amortised carry an allow comment.
  read-path-lock      lock acquisition (MutexLock, lock_guard, .lock())
                      or a mutex-taking FIB snapshot() inside the
                      per-packet read path: lookup/lookup_batch in
                      src/route, shade_cpu/process_cpu/pre_shade/
                      post_shade in src/apps, and (snapshot only)
                      shade_batch/cpu_fallback_batch in src/core. The
                      data path reads FIB generations through the
                      epoch-pinned FibManager::read(); any lock here
                      reintroduces the updater-stalls-lookups coupling
                      the generation design removed.
  handoff-mutex       lock acquisition on the worker<->master hand-off
                      path: anywhere in common/spsc_ring.hpp, or inside
                      worker_loop/drain_scatter/recv_and_dispatch/
                      master_loop in src/core. The hand-off is lock-free
                      by design (SpscFanIn + per-worker output rings);
                      the only sanctioned mutex is WakeSignal's idle-path
                      park, and each of its lock sites carries an allow
                      comment saying so. A new MutexLock here silently
                      reintroduces the convoy the SPSC migration removed.
  atomics-audit       the memory-model contract discipline, three checks
                      in one rule. (1) bare std::atomic declarations and
                      std::atomic_thread_fence calls are banned — all
                      atomics go through ps::atomic / ps::fence_seq_cst()
                      (common/atomic_shim.hpp) so the model-check build
                      can reroute them; the shim itself and src/mc/ are
                      the sanctioned exceptions. (2) every ps::atomic
                      declaration and fence_seq_cst() call site carries a
                      `// mc: <key>` contract tag (same line or up to two
                      comment lines above) naming its row in the DESIGN.md
                      §17 memory-model contract table; pointer/reference
                      spellings (ps::atomic<T>* / ps::atomic<T>&) are
                      exempt — the owning declaration carries the
                      contract. (3) the tag keys and the doc table rows
                      (backticked `mc:<key>` entries) must match two-way.

Output: `path:line: [rule] message`, one per finding, sorted; exit 1 if
anything fired. `--expect FILE` compares the findings against a golden
file instead (for the fixture self-test).
"""

import argparse
import os
import re
import sys

RULES = {
    "bare-atomic": "atomic op without an explicit std::memory_order",
    "single-writer": "single-writer counter mutated outside its owning file",
    "drop-reason-default": "switch over DropReason must not have a default label",
    "registry-sync": "fault/metric name tables out of sync with code",
    "hot-sleep": "sleep in a hot-path directory",
    "steady-state-growth": "container growth in a steady-state loop "
                           "without a reserve",
    "read-path-lock": "lock acquisition or locking FIB snapshot on the "
                      "per-packet read path",
    "handoff-mutex": "lock acquisition on the lock-free worker<->master "
                     "hand-off path",
    "atomics-audit": "bare std::atomic, untagged ps::atomic site, or "
                     "mc: contract keys out of sync with the doc table",
}

HOT_DIRS = ("iengine", "nic", "gpu", "core")

ATOMIC_OPS = (
    "load|store|exchange|fetch_add|fetch_sub|fetch_and|fetch_or|fetch_xor|"
    "compare_exchange_weak|compare_exchange_strong"
)
ATOMIC_CALL_RE = re.compile(r"\.(%s)\s*\(" % ATOMIC_OPS)
ATOMIC_MUTATORS = ("store", "exchange", "fetch_add", "fetch_sub", "fetch_and",
                   "fetch_or", "fetch_xor")

# Single-writer counters and the file (relative to the scan root) allowed
# to mutate each. Keep in sync with DESIGN.md §11.
SINGLE_WRITER = [
    # Router per-worker counters: every slot is written by exactly one
    # worker thread inside the router's own loops.
    (r"(chunks|packets_in|packets_out|slow_path|cpu_processed|gpu_processed|"
     r"bp_reduced_batches|bp_diverted_chunks|adopted_chunks|in_flight_packets|"
     r"drops_by_reason)",
     {"core/router.cpp"}),
    # IoHandle TX drop tally: owning worker only.
    (r"tx_drops_", {"iengine/engine.cpp"}),
    # NIC wire-side ledger (AtomicQueueStats members, reached directly or
    # through the conventional `stats` alias) and carrier state: mutated
    # only on the port's own RX/TX paths.
    (r"(stats|rx_stats_|tx_stats_)\s*\.\s*(packets|bytes|drops)",
     {"nic/nic.cpp"}),
    (r"(link_up_|link_flaps_|carrier_lost_frames_)", {"nic/nic.cpp"}),
    # Heartbeats: beat()/advance() on the owning thread.
    (r"(beats|progress)", {"common/heartbeat.hpp"}),
    # Tracer slot/ring internals: producer side of the seqlock.
    (r"(spans_started_|spans_dropped_|next_slot_)", {"telemetry/tracer.cpp"}),
]

REGISTRY_PREFIX_RE = re.compile(
    r"^(router|gpu|slowpath|supervisor|engine|nic|core|mem|fib|control|"
    r"integrity|pcie|ring|cap|gen)\.")

FAULT_SITE_RE = re.compile(
    r"register_point\s*\(|should_fire\s*\(|check_fault\s*\(|"
    r"constexpr std::string_view k\w+\s*=|_point_\s*=")
METRIC_SITE_RE = re.compile(
    r"register_probe\s*\(|\.counter\s*\(|\.gauge\s*\(|\.histogram\s*\(")

ALLOW_RE = re.compile(r"//\s*pslint:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")

SRC_EXTS = (".hpp", ".cpp", ".h", ".cc", ".cu", ".cuh")


class SourceFile:
    """One parsed file: raw lines, comment-stripped code, allow-comments."""

    def __init__(self, path, rel):
        self.path = path
        self.rel = rel
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            self.raw = f.read()
        self.lines = self.raw.split("\n")
        self.allows = {}  # line number -> set of rule ids
        for i, line in enumerate(self.lines, 1):
            m = ALLOW_RE.search(line)
            if m:
                rules = {r.strip() for r in m.group(1).split(",")}
                self.allows[i] = self.allows.get(i, set()) | rules
        self.code = _strip(self.raw, keep_strings=True)
        self.code_nostr = _strip(self.raw, keep_strings=False)

    def allowed(self, lineno, rule):
        """allow(<rule>) on the finding's line or the line above it."""
        for ln in (lineno, lineno - 1, lineno - 2):
            if rule in self.allows.get(ln, set()):
                # Two lines up only counts when the line between is still
                # part of the same allow comment block.
                if ln == lineno - 2 and not self.lines[lineno - 2].lstrip().startswith("//"):
                    continue
                return True
        return False


def _strip(text, keep_strings):
    """Blank comments (and optionally string/char literals) with spaces,
    preserving line structure so offsets keep mapping to line numbers."""
    out = []
    i, n = 0, len(text)
    NORMAL, LINE_COMMENT, BLOCK_COMMENT, STRING, CHAR = range(5)
    state = NORMAL
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == NORMAL:
            if c == "/" and nxt == "/":
                state = LINE_COMMENT
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = BLOCK_COMMENT
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = STRING
                out.append(c)
                i += 1
                continue
            if c == "'":
                # Not a char literal when preceded by an identifier or
                # digit character: C++14 digit separators (1'000).
                prev = text[i - 1] if i > 0 else ""
                if not (prev.isalnum() or prev == "_"):
                    state = CHAR
                out.append(c)
                i += 1
                continue
            out.append(c)
        elif state == LINE_COMMENT:
            if c == "\n":
                state = NORMAL
                out.append(c)
            else:
                out.append(" ")
        elif state == BLOCK_COMMENT:
            if c == "*" and nxt == "/":
                state = NORMAL
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        elif state == STRING:
            if c == "\\":
                out.append(c if keep_strings else " ")
                if i + 1 < n:
                    out.append(nxt if keep_strings else " ")
                i += 2
                continue
            if c == '"':
                state = NORMAL
                out.append(c)
            else:
                out.append(c if keep_strings else " ")
        elif state == CHAR:
            if c == "\\":
                out.append(c if keep_strings else " ")
                if i + 1 < n:
                    out.append(nxt if keep_strings else " ")
                i += 2
                continue
            if c == "'":
                state = NORMAL
                out.append(c)
            else:
                out.append(c if keep_strings else " ")
        i += 1
    return "".join(out)


def _line_of(text, pos):
    return text.count("\n", 0, pos) + 1


def _balanced(text, open_pos):
    """Return (inner_text, end_pos) of the paren/brace group opening at
    open_pos. Returns (None, None) when unbalanced (truncated file)."""
    opener = text[open_pos]
    closer = {"(": ")", "{": "}"}[opener]
    depth = 0
    for i in range(open_pos, len(text)):
        if text[i] == opener:
            depth += 1
        elif text[i] == closer:
            depth -= 1
            if depth == 0:
                return text[open_pos + 1:i], i
    return None, None


class Finding:
    def __init__(self, rel, line, rule, message):
        self.rel = rel
        self.line = line
        self.rule = rule
        self.message = message

    def render(self):
        return "%s:%d: [%s] %s" % (self.rel, self.line, self.rule, self.message)


# --- rule: bare-atomic -----------------------------------------------------

def check_bare_atomic(sf, findings):
    code = sf.code_nostr
    for m in ATOMIC_CALL_RE.finditer(code):
        op = m.group(1)
        open_paren = m.end() - 1
        args, _ = _balanced(code, open_paren)
        if args is None:
            continue
        if "memory_order" in args:
            # compare_exchange needs both success and failure orders (or
            # the single-order overload, which is also explicit).
            continue
        lineno = _line_of(code, m.start())
        if sf.allowed(lineno, "bare-atomic"):
            continue
        findings.append(Finding(
            sf.rel, lineno, "bare-atomic",
            ".%s() without an explicit std::memory_order argument" % op))


# --- rule: single-writer ---------------------------------------------------

def check_single_writer(sf, findings):
    code = sf.code_nostr
    for member_re, owners in SINGLE_WRITER:
        if sf.rel in owners:
            continue
        pat = re.compile(
            r"\b%s(\[[^\]\n]*\])?\s*\.\s*(%s)\s*\(" % (member_re, "|".join(ATOMIC_MUTATORS)))
        for m in pat.finditer(code):
            lineno = _line_of(code, m.start())
            if sf.allowed(lineno, "single-writer"):
                continue
            findings.append(Finding(
                sf.rel, lineno, "single-writer",
                "single-writer counter mutated outside its owning file(s): %s"
                % ", ".join(sorted(owners))))


# --- rule: drop-reason-default ---------------------------------------------

def check_drop_reason_default(sf, findings):
    code = sf.code
    for m in re.finditer(r"\bswitch\s*\(", code):
        cond, cond_end = _balanced(code, m.end() - 1)
        if cond is None:
            continue
        # A DropReason switch either names the type in the condition or
        # switches on a drop_reason()/reason variable.
        if "DropReason" not in cond and "drop_reason" not in cond:
            continue
        brace = code.find("{", cond_end)
        if brace < 0:
            continue
        body, _ = _balanced(code, brace)
        if body is None:
            continue
        dm = re.search(r"\bdefault\s*:", body)
        if dm is None:
            continue
        lineno = _line_of(code, brace + 1 + dm.start())
        if sf.allowed(lineno, "drop-reason-default"):
            continue
        findings.append(Finding(
            sf.rel, lineno, "drop-reason-default",
            "switch over DropReason has a default label; enumerate every "
            "reason so -Wswitch catches additions"))


# --- rule: hot-sleep -------------------------------------------------------

def check_hot_sleep(sf, findings):
    top = sf.rel.split("/", 1)[0]
    if top not in HOT_DIRS:
        return
    code = sf.code_nostr
    for m in re.finditer(r"\bsleep_(for|until)\s*\(", code):
        lineno = _line_of(code, m.start())
        if sf.allowed(lineno, "hot-sleep"):
            continue
        findings.append(Finding(
            sf.rel, lineno, "hot-sleep",
            "sleep_%s in hot-path directory %s/ (add an allow comment "
            "explaining why this site is off the fast path)" % (m.group(1), top)))


# --- rule: steady-state-growth ---------------------------------------------

# Directories whose steady-state loops must not grow containers, and the
# function names that ARE the steady state: the per-chunk/per-packet
# loops that run for every batch once the pipeline is warm, and every
# stage of the shared per-chunk pipeline (core::Pipeline, which both
# executors call). Setup code (build(), constructors, start()) is free to
# grow whatever it likes.
STEADY_DIRS = ("core", "iengine", "route")
PIPELINE_STAGE_FNS = (
    "Pipeline::(?:admit|run_cpu|pre|gather_verify|shadow_verify|shadow_check|"
    "restamp_in_place|apply|pre_tx|drop_flagged)"
)
STEADY_FNS = (
    "worker_loop|master_loop|recv_and_dispatch|finish_job|process_cpu_only|"
    "shade_batch|cpu_fallback_batch|recv_chunk|recv_from_queue|send_chunk|"
    "lookup_batch|lookup|" + PIPELINE_STAGE_FNS
)
STEADY_FN_RE = re.compile(r"\b(%s)\s*\(" % STEADY_FNS)
GROWTH_METHODS = "push_back|emplace_back|resize|insert|emplace"
GROWTH_RE = re.compile(
    r"\b(\w+(?:(?:\.|->)\w+|\[[^\]\n]*\])*)\s*(?:\.|->)\s*"
    r"(%s)\s*\(" % GROWTH_METHODS)
# Chars legal between a definition's `)` and its `{`: qualifiers
# (const, noexcept, override), trailing return types, attribute names.
DEF_GAP_RE = re.compile(r"^[\sA-Za-z_0-9:<>,&*\[\]\-]*$")


def _steady_bodies(code, fn_re=None):
    """(fn_name, body_start, body_end) for each steady-state function
    DEFINED in this file. A match is a definition (not a call) when it is
    not reached through . or ->, and only qualifier-ish tokens separate
    the parameter list from an opening brace."""
    if fn_re is None:
        fn_re = STEADY_FN_RE
    bodies = []
    for m in fn_re.finditer(code):
        j = m.start() - 1
        while j >= 0 and code[j] in " \t":
            j -= 1
        if j >= 1 and (code[j] == "." or code[j - 1:j + 1] == "->"):
            continue  # member call, not a definition
        params, pend = _balanced(code, m.end() - 1)
        if params is None:
            continue
        brace = code.find("{", pend)
        semi = code.find(";", pend)
        if brace < 0 or (0 <= semi < brace):
            continue  # declaration or expression statement
        if not DEF_GAP_RE.match(code[pend + 1:brace]):
            continue
        body, bend = _balanced(code, brace)
        if body is None:
            continue
        bodies.append((m.group(1), brace + 1, bend))
    return bodies


def check_steady_state_growth(sf, findings):
    top = sf.rel.split("/", 1)[0]
    if top not in STEADY_DIRS:
        return
    code = sf.code_nostr
    # A container counts as warmed when this file reserves it anywhere
    # (constructor, start(), job-pool setup — order in the file does not
    # matter, the point is that someone owns its capacity).
    reserved = set(re.findall(r"\b(\w+)\s*(?:\.|->)\s*reserve\s*\(", code))
    for fn, start, end in _steady_bodies(code):
        for gm in GROWTH_RE.finditer(code, start, end):
            receiver = re.sub(r"\[[^\]]*\]", "", gm.group(1))
            key = re.split(r"\.|->", receiver)[-1]
            if key in reserved:
                continue
            lineno = _line_of(code, gm.start())
            if sf.allowed(lineno, "steady-state-growth"):
                continue
            findings.append(Finding(
                sf.rel, lineno, "steady-state-growth",
                "%s.%s() grows a container inside steady-state %s() and "
                "'%s' is never reserved in this file" %
                (key, gm.group(2), fn, key)))


# --- rule: read-path-lock --------------------------------------------------

# Per-packet read-path functions by directory, and what is forbidden in
# each. The route/apps leaves do the actual FIB access, so any lock
# acquisition there is a data-path stall; core's batch drivers may take
# their own (GPU-health) locks but must reach the FIB only through the
# apps' lock-free leaves, so only the mutex-taking snapshot() is banned.
READ_PATH_FNS = {
    "route": (r"lookup|lookup_batch", True),
    "apps": (r"shade_cpu|process_cpu|pre_shade|post_shade", True),
    "core": (r"shade_batch|cpu_fallback_batch|" + PIPELINE_STAGE_FNS, False),
}
READ_PATH_ACQUIRE_RE = re.compile(
    r"\b(MutexLock|std::lock_guard|std::unique_lock|std::scoped_lock)\b"
    r"|(?:\.|->)\s*lock\s*\(")
READ_PATH_SNAPSHOT_RE = re.compile(r"(?:\.|->)\s*snapshot\s*\(")


def check_read_path_lock(sf, findings):
    top = sf.rel.split("/", 1)[0]
    if top not in READ_PATH_FNS:
        return
    fns, ban_locks = READ_PATH_FNS[top]
    code = sf.code_nostr
    fn_re = re.compile(r"\b(%s)\s*\(" % fns)
    for fn, start, end in _steady_bodies(code, fn_re):
        sites = list(READ_PATH_SNAPSHOT_RE.finditer(code, start, end))
        what = {m.start(): "FIB snapshot() (takes the manager mutex)"
                for m in sites}
        if ban_locks:
            for m in READ_PATH_ACQUIRE_RE.finditer(code, start, end):
                what[m.start()] = "lock acquisition"
        for pos in sorted(what):
            lineno = _line_of(code, pos)
            if sf.allowed(lineno, "read-path-lock"):
                continue
            findings.append(Finding(
                sf.rel, lineno, "read-path-lock",
                "%s inside per-packet %s(); use the epoch-pinned "
                "FibManager::read()" % (what[pos], fn)))


# --- rule: handoff-mutex ---------------------------------------------------

# The hand-off path: the SPSC fan-in header in full (its WakeSignal slow
# path carries per-site allow comments), plus the router loops that move
# jobs across the worker<->master boundary, and the pipeline stages those
# loops call. stage_finish()/shade_batch() may take their own (host-stack,
# GPU-health) locks — those guard other subsystems, not the hand-off — so
# only the loop and stage bodies are scanned.
HANDOFF_FILE = "common/spsc_ring.hpp"
HANDOFF_FNS = "worker_loop|drain_scatter|recv_and_dispatch|master_loop|" + PIPELINE_STAGE_FNS
HANDOFF_FN_RE = re.compile(r"\b(%s)\s*\(" % HANDOFF_FNS)


def check_handoff_mutex(sf, findings):
    code = sf.code_nostr

    def report(pos, where):
        lineno = _line_of(code, pos)
        if sf.allowed(lineno, "handoff-mutex"):
            return
        findings.append(Finding(
            sf.rel, lineno, "handoff-mutex",
            "mutex acquisition %s; the hand-off is lock-free by design "
            "(idle-path parking goes through WakeSignal)" % where))

    if sf.rel == HANDOFF_FILE:
        for m in READ_PATH_ACQUIRE_RE.finditer(code):
            report(m.start(), "in the SPSC hand-off header")
        return
    if sf.rel.split("/", 1)[0] != "core":
        return
    for fn, start, end in _steady_bodies(code, HANDOFF_FN_RE):
        for m in READ_PATH_ACQUIRE_RE.finditer(code, start, end):
            report(m.start(), "inside hand-off loop %s()" % fn)


# --- rule: atomics-audit ---------------------------------------------------

# Files allowed to spell std::atomic / std::atomic_thread_fence: the shim
# that defines the production backend, and the model-checker runtime that
# defines the other one.
ATOMIC_EXEMPT_FILE = "common/atomic_shim.hpp"
ATOMIC_EXEMPT_DIR = "mc/"

BARE_STD_ATOMIC_RE = re.compile(r"\bstd::atomic(?:\s*<|_thread_fence\b)")
PS_ATOMIC_SITE_RE = re.compile(r"\bps::atomic\s*<|\b(?:ps::)?fence_seq_cst\s*\(")
MC_TAG_RE = re.compile(r"//\s*mc:\s*([A-Za-z0-9_][A-Za-z0-9_.\-]*)")
MC_KEY_RE = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_.\-]*\Z")


def _close_angle(code, open_pos):
    """Index of the `>` closing the template argument list opening at
    open_pos, or -1. Depth counting is enough: atomic template arguments
    are types, so no stray comparison operators appear inside."""
    depth = 0
    for i in range(open_pos, len(code)):
        if code[i] == "<":
            depth += 1
        elif code[i] == ">":
            depth -= 1
            if depth == 0:
                return i
    return -1


def _mc_tag_near(sf, lineno):
    """The `// mc: <key>` tag covering a site: same line or up to two
    lines above (mirrors the allow-comment proximity rule)."""
    for ln in (lineno, lineno - 1, lineno - 2):
        if 1 <= ln <= len(sf.lines):
            m = MC_TAG_RE.search(sf.lines[ln - 1])
            if m:
                return m.group(1)
    return None


def check_atomics_audit(sf, findings, code_keys):
    """Per-file half of the rule; `code_keys` accumulates
    key -> (rel, line) of the first tagged site for the doc sync pass."""
    if sf.rel == ATOMIC_EXEMPT_FILE or sf.rel.startswith(ATOMIC_EXEMPT_DIR):
        return
    code = sf.code_nostr
    for m in BARE_STD_ATOMIC_RE.finditer(code):
        lineno = _line_of(code, m.start())
        if sf.allowed(lineno, "atomics-audit"):
            continue
        findings.append(Finding(
            sf.rel, lineno, "atomics-audit",
            "bare %s; declare atomics as ps::atomic and fences as "
            "ps::fence_seq_cst() (common/atomic_shim.hpp) so the "
            "model-check build can reroute them"
            % ("std::atomic_thread_fence" if "fence" in m.group(0)
               else "std::atomic")))
    for m in PS_ATOMIC_SITE_RE.finditer(code):
        if "atomic" in m.group(0):
            open_angle = code.find("<", m.start())
            close = _close_angle(code, open_angle)
            if close < 0:
                continue
            j = close + 1
            while j < len(code) and code[j] in " \t":
                j += 1
            if j < len(code) and code[j] in "*&":
                # Pointer/reference spelling: the owning declaration
                # carries the contract tag.
                continue
            what = "ps::atomic declaration"
        else:
            what = "fence_seq_cst() call"
        lineno = _line_of(code, m.start())
        key = _mc_tag_near(sf, lineno)
        if key is None:
            if sf.allowed(lineno, "atomics-audit"):
                continue
            findings.append(Finding(
                sf.rel, lineno, "atomics-audit",
                "%s without a `// mc: <key>` contract tag naming its "
                "DESIGN.md row" % what))
        else:
            code_keys.setdefault(key, (sf.rel, lineno))


def _doc_mc_keys(path):
    """`mc:<key>` entries from a doc's tables: key -> first line. Only
    table rows count, same contract as registry-sync."""
    keys = {}
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        lines = f.read().split("\n")
    for i, line in enumerate(lines, 1):
        if not line.lstrip().startswith("|"):
            continue
        for tok in re.findall(r"`mc:\s*([^`]+)`", line):
            tok = tok.strip()
            if MC_KEY_RE.match(tok):
                keys.setdefault(tok, i)
    return keys


def check_atomics_doc_sync(code_keys, docs, findings):
    doc_keys = {}
    for doc in docs:
        for key, line in _doc_mc_keys(doc).items():
            doc_keys.setdefault(key, (doc, line))
    for key, (rel, line) in sorted(code_keys.items()):
        if key not in doc_keys:
            findings.append(Finding(
                rel, line, "atomics-audit",
                "mc: key '%s' is tagged in code but missing from the "
                "memory-model contract table" % key))
    for key, (doc, line) in sorted(doc_keys.items()):
        if key not in code_keys:
            findings.append(Finding(
                os.path.basename(doc), line, "atomics-audit",
                "mc: key '%s' is documented but never tagged in code" % key))


# --- rule: registry-sync ---------------------------------------------------

def _normalize(name):
    name = re.sub(r"<[^<>]*>", "", name)
    name = re.sub(r"\.\.+", ".", name)
    return name.strip(".")


def _string_literals(expr):
    return re.findall(r'"([^"\n]*)"', expr)


def _code_names(sf, site_re):
    """Registry names registered/fired in this file: (name, lineno) pairs.

    Handles three forms: plain literals, `prefix + "suffix"` with the
    nearest preceding `prefix = "..." (+ ...)` assignment, and constexpr
    string_view declarations.
    """
    code = sf.code
    names = []
    # Prefix variables: nearest preceding assignment from string literals.
    assigns = []  # (pos, var, concatenated-literal)
    for am in re.finditer(r"\b(?:const\s+std::string\s+)?(\w+)\s*=\s*([^;]+);", code):
        lits = _string_literals(am.group(2))
        if lits:
            assigns.append((am.start(), am.group(1), "".join(lits)))

    def prefix_before(var, pos):
        best = None
        for apos, name, lit in assigns:
            if name == var and apos < pos:
                best = lit
        return best

    for m in site_re.finditer(code):
        call_pos = m.start()
        open_paren = code.find("(", m.start(), m.end() + 2)
        if open_paren >= 0 and code[m.end() - 1] == "(":
            args, _ = _balanced(code, m.end() - 1)
            if args is None:
                continue
            first = args.split(",", 1)[0]
        else:
            # Assignment forms: take the right-hand side up to `;`.
            semi = code.find(";", m.end())
            first = code[m.end():semi if semi >= 0 else len(code)]
        lits = _string_literals(first)
        name = "".join(lits)
        # `prefix + "suffix"`: resolve the identifier on the left.
        pm = re.match(r"\s*(\w+)\s*\+", first)
        if pm and not lits_start_with_literal(first):
            resolved = prefix_before(pm.group(1), call_pos)
            if resolved is not None:
                name = resolved + name
        name = _normalize(name)
        if REGISTRY_PREFIX_RE.match(name):
            names.append((name, _line_of(code, call_pos)))
    return names


def lits_start_with_literal(expr):
    return bool(re.match(r'\s*(?:std::string\s*\(\s*)?"', expr))


def _doc_names(path):
    """Registry names from a doc's tables: (name, lineno) pairs.

    Only table rows (lines starting with |) count — prose mentions are
    illustrative, the tables are the contract. `.suffix` tokens continue
    the previous name (shared-prefix rows)."""
    names = []
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        lines = f.read().split("\n")
    prev = None
    for i, line in enumerate(lines, 1):
        if not line.lstrip().startswith("|"):
            continue
        for tok in re.findall(r"`([^`]+)`", line):
            tok = tok.strip()
            if "(" in tok or " " in tok:
                continue
            if tok.startswith(".") and prev is not None:
                base = prev.rsplit(".", 1)[0]
                tok = base + tok
            if not REGISTRY_PREFIX_RE.match(_normalize(tok)):
                continue
            prev = tok
            names.append((_normalize(tok), i))
    return names


def check_registry_sync(files, docs, findings):
    code_faults = {}   # name -> (rel, line) of first sighting
    code_metrics = {}
    for sf in files:
        for name, line in _code_names(sf, FAULT_SITE_RE):
            code_faults.setdefault(name, (sf.rel, line))
        for name, line in _code_names(sf, METRIC_SITE_RE):
            code_metrics.setdefault(name, (sf.rel, line))
    code_all = dict(code_metrics)
    code_all.update(code_faults)

    doc_names = {}
    for doc in docs:
        for name, line in _doc_names(doc):
            doc_names.setdefault(name, (doc, line))

    for name, (rel, line) in sorted(code_all.items()):
        if name not in doc_names:
            findings.append(Finding(
                rel, line, "registry-sync",
                "'%s' is registered in code but missing from the doc tables"
                % name))
    for name, (doc, line) in sorted(doc_names.items()):
        if name not in code_all:
            findings.append(Finding(
                os.path.basename(doc), line, "registry-sync",
                "'%s' is documented but never registered in code" % name))


# --- driver ----------------------------------------------------------------

def collect_files(root):
    files = []
    for dirpath, _dirs, filenames in os.walk(root):
        for fn in sorted(filenames):
            if fn.endswith(SRC_EXTS):
                path = os.path.join(dirpath, fn)
                rel = os.path.relpath(path, root).replace(os.sep, "/")
                files.append(SourceFile(path, rel))
    files.sort(key=lambda sf: sf.rel)
    return files


def main(argv):
    ap = argparse.ArgumentParser(prog="pslint", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--src", default="src", help="source root to scan")
    ap.add_argument("--docs", action="append", default=[],
                    help="doc file for registry-sync (repeatable); "
                         "rule is skipped when none are given")
    ap.add_argument("--expect", metavar="FILE",
                    help="compare findings against this golden file "
                         "(self-test mode); exit 0 iff identical")
    ap.add_argument("--list-rules", action="store_true")
    args = ap.parse_args(argv)

    if args.list_rules:
        for rule, desc in sorted(RULES.items()):
            print("%-20s %s" % (rule, desc))
        return 0

    files = collect_files(args.src)
    findings = []
    mc_code_keys = {}
    for sf in files:
        check_bare_atomic(sf, findings)
        check_single_writer(sf, findings)
        check_drop_reason_default(sf, findings)
        check_hot_sleep(sf, findings)
        check_steady_state_growth(sf, findings)
        check_read_path_lock(sf, findings)
        check_handoff_mutex(sf, findings)
        check_atomics_audit(sf, findings, mc_code_keys)
    if args.docs:
        check_registry_sync(files, args.docs, findings)
        check_atomics_doc_sync(mc_code_keys, args.docs, findings)

    findings.sort(key=lambda f: (f.rel, f.line, f.rule, f.message))
    rendered = [f.render() for f in findings]

    if args.expect:
        with open(args.expect, "r", encoding="utf-8") as f:
            expected = [l for l in f.read().split("\n") if l.strip()]
        if rendered == expected:
            print("pslint self-test: %d expected finding(s), all matched"
                  % len(expected))
            return 0
        print("pslint self-test FAILED")
        for line in sorted(set(expected) - set(rendered)):
            print("  missing:    %s" % line)
        for line in sorted(set(rendered) - set(expected)):
            print("  unexpected: %s" % line)
        return 1

    for line in rendered:
        print(line)
    if findings:
        print("pslint: %d finding(s)" % len(findings))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
