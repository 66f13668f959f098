//! The rule registry.
//!
//! Each rule is a pure function from the scanned [`Workspace`] to a list
//! of [`Diagnostic`]s. Allow-annotation handling (suppression and the
//! allow inventory) lives in the driver, not here.

use super::callgraph::CallGraph;
use super::diag::Diagnostic;
use super::source::SourceFile;
use std::collections::{HashMap, HashSet};

/// A scanned file plus the classifications the rules key off.
pub struct ClassifiedFile {
    /// The scanned source.
    pub src: SourceFile,
    /// Crate the file belongs to (directory name under `crates/`).
    pub crate_name: String,
    /// Subject to the `hot-path-panic` rule (the send/poll hot path).
    pub hot_path: bool,
    /// Inside `crates/core` (subject to `seqcst-justify`).
    pub core: bool,
    /// Participates in the call graph and module-contract scan
    /// (`crates/core` + `crates/transports`).
    pub graph: bool,
}

/// Everything the rules see.
pub struct Workspace {
    /// All scanned files.
    pub files: Vec<ClassifiedFile>,
}

/// One registered rule.
pub struct Rule {
    /// Stable name used in diagnostics and `lint:allow(...)`.
    pub name: &'static str,
    /// One-line description for `--list-rules`.
    pub description: &'static str,
    /// Produces this rule's findings.
    pub run: fn(&Workspace) -> Vec<Diagnostic>,
}

/// All rules, in reporting order.
pub const RULES: &[Rule] = &[
    Rule {
        name: "unsafe-safety",
        description: "every `unsafe` block/fn/impl needs a `// SAFETY:` comment",
        run: rule_unsafe_safety,
    },
    Rule {
        name: "hot-path-panic",
        description: "no unwrap()/expect()/panic! in non-test hot-path code",
        run: rule_hot_path_panic,
    },
    Rule {
        name: "seqcst-justify",
        description: "every Ordering::SeqCst in crates/core needs a `// SeqCst:` justification",
        run: rule_seqcst_justify,
    },
    Rule {
        name: "atomic-pairing",
        description: "paired load/store sites on the same atomic must use compatible orderings",
        run: rule_atomic_pairing,
    },
    Rule {
        name: "poll-blocking",
        description: "no blocking calls in functions reachable from PollEngine::poll_once, \
                      the ready-list drain, the adaptive re-selection driver, the shard \
                      worker loop, the socket reactor loop, the striped bulk path, or \
                      the bulk rendezvous path (rsr_bulk / bulk_pull_service)",
        run: rule_poll_blocking,
    },
    Rule {
        name: "module-contract",
        description: "communication modules must implement the full function-table contract",
        run: rule_module_contract,
    },
    Rule {
        name: "lock-order",
        description: "Mutex/RwLock acquisition order must be globally consistent \
                      (no cycles in the acquired-while-holding graph)",
        run: super::locks::rule_lock_order,
    },
    Rule {
        name: "lock-across-blocking",
        description: "no lock may be held across a blocking call \
                      (the poll-blocking token set), directly or via a callee",
        run: super::locks::rule_lock_across_blocking,
    },
];

/// Looks up a rule by name.
pub fn find_rule(name: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.name == name)
}

// ---------------------------------------------------------------------------
// shared helpers
// ---------------------------------------------------------------------------

/// Byte offsets of word-boundary occurrences of `needle` in `hay`.
fn word_hits(hay: &str, needle: &str) -> Vec<usize> {
    let bytes = hay.as_bytes();
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(pos) = hay[from..].find(needle) {
        let at = from + pos;
        let before = at == 0 || !is_ident_byte(bytes[at - 1]);
        let end = at + needle.len();
        let after = end >= bytes.len() || !is_ident_byte(bytes[end]);
        if before && after {
            out.push(at);
        }
        from = at + needle.len();
    }
    out
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// True when `needle` appears in the comment on `line` or in the
/// contiguous comment block directly above it (lines whose code view is
/// blank, possibly with attribute lines in between).
fn justified_by_comment(f: &SourceFile, line: usize, needle: &str) -> bool {
    if f.comment[line].contains(needle) {
        return true;
    }
    let mut l = line;
    while l > 0 {
        l -= 1;
        let code_blank = f.code[l].trim().is_empty() || f.code[l].trim_start().starts_with("#[");
        if f.comment[l].contains(needle) {
            return true;
        }
        if !code_blank {
            return false;
        }
        if f.comment[l].trim().is_empty() && f.code[l].trim().is_empty() {
            // A fully blank line ends the attached comment block.
            return false;
        }
    }
    false
}

// ---------------------------------------------------------------------------
// unsafe-safety
// ---------------------------------------------------------------------------

fn rule_unsafe_safety(ws: &Workspace) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for cf in &ws.files {
        let f = &cf.src;
        for (line, code) in f.code.iter().enumerate() {
            if f.is_test_line(line) {
                continue;
            }
            for col in word_hits(code, "unsafe") {
                if justified_by_comment(f, line, "SAFETY:") {
                    continue;
                }
                out.push(
                    Diagnostic::error(
                        "unsafe-safety",
                        "`unsafe` without a `// SAFETY:` comment",
                        &f.rel,
                        line,
                        col,
                        &f.raw[line],
                        "unsafe".len(),
                    )
                    .with_help(
                        "document the invariant that makes this sound in a \
                         `// SAFETY:` comment directly above",
                    ),
                );
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// hot-path-panic
// ---------------------------------------------------------------------------

const PANIC_TOKENS: &[(&str, &str)] = &[
    (".unwrap()", "`.unwrap()`"),
    (".expect(", "`.expect()`"),
    ("panic!", "`panic!`"),
    ("unreachable!", "`unreachable!`"),
    ("todo!", "`todo!`"),
    ("unimplemented!", "`unimplemented!`"),
];

fn rule_hot_path_panic(ws: &Workspace) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for cf in &ws.files {
        if !cf.hot_path {
            continue;
        }
        let f = &cf.src;
        for (line, code) in f.code.iter().enumerate() {
            if f.is_test_line(line) {
                continue;
            }
            for (token, label) in PANIC_TOKENS {
                let mut from = 0;
                while let Some(pos) = code[from..].find(token) {
                    let col = from + pos;
                    out.push(
                        Diagnostic::error(
                            "hot-path-panic",
                            format!("{label} in hot-path non-test code"),
                            &f.rel,
                            line,
                            col,
                            &f.raw[line],
                            token.len(),
                        )
                        .with_help(
                            "hot paths must degrade, not die: propagate a \
                             NexusError (the paper's multimethod runtime \
                             fails over instead of aborting)",
                        ),
                    );
                    from = col + token.len();
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// seqcst-justify
// ---------------------------------------------------------------------------

fn rule_seqcst_justify(ws: &Workspace) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for cf in &ws.files {
        if !cf.core {
            continue;
        }
        let f = &cf.src;
        for (line, code) in f.code.iter().enumerate() {
            if f.is_test_line(line) {
                continue;
            }
            for col in word_hits(code, "SeqCst") {
                if justified_by_comment(f, line, "SeqCst:") {
                    continue;
                }
                out.push(
                    Diagnostic::error(
                        "seqcst-justify",
                        "`Ordering::SeqCst` without a `// SeqCst:` justification",
                        &f.rel,
                        line,
                        col,
                        &f.raw[line],
                        "SeqCst".len(),
                    )
                    .with_help(
                        "downgrade to Acquire/Release/Relaxed if possible, or \
                         justify the total order in a `// SeqCst: <why>` comment",
                    ),
                );
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// atomic-pairing
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AccessKind {
    Read,
    Write,
    ReadWrite,
}

/// Atomic methods and whether they read, write, or both.
const ATOMIC_METHODS: &[(&str, AccessKind)] = &[
    ("load", AccessKind::Read),
    ("store", AccessKind::Write),
    ("swap", AccessKind::ReadWrite),
    ("fetch_add", AccessKind::ReadWrite),
    ("fetch_sub", AccessKind::ReadWrite),
    ("fetch_and", AccessKind::ReadWrite),
    ("fetch_or", AccessKind::ReadWrite),
    ("fetch_xor", AccessKind::ReadWrite),
    ("fetch_max", AccessKind::ReadWrite),
    ("fetch_min", AccessKind::ReadWrite),
    ("fetch_update", AccessKind::ReadWrite),
    ("compare_exchange", AccessKind::ReadWrite),
    ("compare_exchange_weak", AccessKind::ReadWrite),
];

#[derive(Debug, Clone)]
struct AtomicSite {
    file: usize,
    line: usize,
    col: usize,
    span_len: usize,
    field: String,
    kind: AccessKind,
    orderings: Vec<String>,
}

const ORDERING_NAMES: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Collects `field.method(..Ordering..)` sites across a file.
fn atomic_sites(f: &SourceFile, file_idx: usize, out: &mut Vec<AtomicSite>) {
    for (line, code) in f.code.iter().enumerate() {
        if f.is_test_line(line) {
            continue;
        }
        let bytes = code.as_bytes();
        for (method, kind) in ATOMIC_METHODS {
            let pat = format!(".{method}(");
            let mut from = 0;
            while let Some(pos) = code[from..].find(&pat) {
                let at = from + pos;
                from = at + pat.len();
                // Guard against longer method names sharing a prefix
                // (`.compare_exchange(` vs `.compare_exchange_weak(`): the
                // pattern includes the `(` so prefixes cannot collide.
                // Receiver field: the identifier run ending at `at`.
                let mut j = at;
                while j > 0 && is_ident_byte(bytes[j - 1]) {
                    j -= 1;
                }
                if j == at {
                    continue;
                }
                let field = code[j..at].to_owned();
                // Argument region: from the `(` to its match, spanning a
                // few lines for multi-line calls.
                let open = at + pat.len() - 1;
                let args = argument_text(f, line, open);
                let orderings: Vec<String> = ORDERING_NAMES
                    .iter()
                    .filter(|o| !word_hits(&args, o).is_empty())
                    .map(|o| (*o).to_owned())
                    .collect();
                if orderings.is_empty() {
                    // Not an atomic call (e.g. `Vec::swap`, mpsc `recv`).
                    continue;
                }
                out.push(AtomicSite {
                    file: file_idx,
                    line,
                    col: j,
                    span_len: at + pat.len() - j,
                    field,
                    kind: *kind,
                    orderings,
                });
            }
        }
    }
}

/// Text between `(` at (`line`, `open`) and its matching `)`.
fn argument_text(f: &SourceFile, line: usize, open: usize) -> String {
    let mut depth = 0i64;
    let mut out = String::new();
    for l in line..f.code.len().min(line + 8) {
        let from = if l == line { open } else { 0 };
        for (idx, ch) in f.code[l].char_indices() {
            if idx < from {
                continue;
            }
            match ch {
                '(' => depth += 1,
                ')' => {
                    depth -= 1;
                    if depth == 0 {
                        return out;
                    }
                }
                _ => {}
            }
            out.push(ch);
        }
        out.push(' ');
    }
    out
}

fn rule_atomic_pairing(ws: &Workspace) -> Vec<Diagnostic> {
    let mut sites = Vec::new();
    for (i, cf) in ws.files.iter().enumerate() {
        if !cf.graph {
            continue;
        }
        atomic_sites(&cf.src, i, &mut sites);
    }
    // Group by (crate, field name): a name-level approximation of "the
    // same atomic", good enough for the small per-crate state structs.
    let mut groups: HashMap<(String, String), Vec<&AtomicSite>> = HashMap::new();
    for s in &sites {
        let crate_name = ws.files[s.file].crate_name.clone();
        groups
            .entry((crate_name, s.field.clone()))
            .or_default()
            .push(s);
    }
    let sync_write = |s: &AtomicSite| {
        s.kind != AccessKind::Read
            && s.orderings
                .iter()
                .any(|o| o == "Release" || o == "AcqRel" || o == "SeqCst")
    };
    let sync_read = |s: &AtomicSite| {
        s.kind != AccessKind::Write
            && s.orderings
                .iter()
                .any(|o| o == "Acquire" || o == "AcqRel" || o == "SeqCst")
    };
    let mut out = Vec::new();
    for ((_crate, field), group) in &groups {
        let reads: Vec<_> = group
            .iter()
            .filter(|s| s.kind != AccessKind::Write)
            .collect();
        let writes: Vec<_> = group
            .iter()
            .filter(|s| s.kind != AccessKind::Read)
            .collect();
        let has_sync_write = group.iter().any(|s| sync_write(s));
        let has_sync_read = group.iter().any(|s| sync_read(s));
        if has_sync_write && !reads.is_empty() && !has_sync_read {
            let site = group.iter().find(|s| sync_write(s)).expect("checked above");
            let f = &ws.files[site.file].src;
            out.push(
                Diagnostic::error(
                    "atomic-pairing",
                    format!(
                        "Release-ordered write to `{field}` is never observed \
                         by an Acquire load"
                    ),
                    &f.rel,
                    site.line,
                    site.col,
                    &f.raw[site.line],
                    site.span_len,
                )
                .with_help(
                    "either upgrade the loads to Acquire or relax this write: \
                     a one-sided barrier synchronizes nothing",
                ),
            );
        }
        if has_sync_read && !writes.is_empty() && !has_sync_write {
            let site = group.iter().find(|s| sync_read(s)).expect("checked above");
            let f = &ws.files[site.file].src;
            out.push(
                Diagnostic::error(
                    "atomic-pairing",
                    format!(
                        "Acquire-ordered read of `{field}` pairs with no \
                         Release write"
                    ),
                    &f.rel,
                    site.line,
                    site.col,
                    &f.raw[site.line],
                    site.span_len,
                )
                .with_help(
                    "either order a write with Release or relax this load: \
                     Acquire without a Release publisher orders nothing",
                ),
            );
        }
    }
    out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    out
}

// ---------------------------------------------------------------------------
// poll-blocking
// ---------------------------------------------------------------------------

/// Tokens that block the calling thread. Deliberately excludes bare
/// parking_lot `.lock()` — short critical sections on the poll path are
/// accepted policy (the event ring takes one) — but flags the std-mutex
/// `lock().unwrap()` idiom, condvar waits, channel receives without a
/// timeout, joins, and sleeps.
pub(crate) const BLOCKING_TOKENS: &[(&str, &str)] = &[
    ("thread::sleep", "`thread::sleep`"),
    (".recv()", "blocking channel `.recv()`"),
    (".wait(", "condvar `.wait()`"),
    (".join()", "thread `.join()`"),
    (".lock().unwrap()", "blocking std `Mutex::lock()`"),
    (".lock().expect(", "blocking std `Mutex::lock()`"),
];

fn rule_poll_blocking(ws: &Workspace) -> Vec<Diagnostic> {
    let graph_files: Vec<&SourceFile> = ws
        .files
        .iter()
        .filter(|cf| cf.graph)
        .map(|cf| &cf.src)
        .collect();
    if graph_files.is_empty() {
        return Vec::new();
    }
    let graph = CallGraph::build(&graph_files);
    let mut reach = graph.reachable_from("poll_once");
    // The readiness-tier drain is reached through `poll_once` today, but
    // it is the part of the pass a rung doorbell lands in, so it stays a
    // root in its own right even if it grows another entry point (e.g. a
    // dedicated wakeup-service call).
    for (name, path) in graph.reachable_from("drain_ready") {
        reach.entry(name).or_insert(path);
    }
    // The adaptive re-selection decision logic runs inline on the send path
    // every `check_every` messages; its cost comparison must stay as
    // non-blocking as the poll loop. (The migration it may trigger opens a
    // new communication object and is allowed to block, like any connect.)
    for (name, path) in graph.reachable_from("reselect_candidate") {
        reach.entry(name).or_insert(path);
    }
    // The pool workers and the socket reactor are the poll loop's
    // multi-threaded form. A blocked worker takes one of the pool's few
    // threads from every adopted source; a blocked reactor stalls
    // readiness for every socket in the process. (Their intentional
    // waits — the worker's bounded park and the reactor's `epoll_wait` —
    // are not spelled with these tokens.)
    //
    // `deliver` (`Context::deliver`) is the worker's dispatch hand-off: past it run
    // application handlers, which may block — the same boundary the
    // single-threaded roots encode by ending at `poll_once` (dispatch
    // happens in `progress`, outside the rooted set). Paths through it
    // are therefore excluded; only the drain machinery is held to the
    // non-blocking rule.
    for (name, path) in graph.reachable_from("shard_worker_loop") {
        if path.iter().any(|hop| hop == "deliver") {
            continue;
        }
        reach.entry(name).or_insert(path);
    }
    for (name, path) in graph.reachable_from("reactor_loop") {
        reach.entry(name).or_insert(path);
    }
    // The striped bulk path: `striped_send` fans chunks across rails from
    // the caller's send, and `stripe_drain` ingests chunks inside message
    // dispatch (it runs on whatever thread delivers — a worker, the
    // reactor, or an inline `progress`). A block in either stalls every
    // rail of the transfer, so both are roots in their own right even
    // where they are also reached through `rsr`/dispatch today.
    for (name, path) in graph.reachable_from("striped_send") {
        reach.entry(name).or_insert(path);
    }
    for (name, path) in graph.reachable_from("stripe_drain") {
        reach.entry(name).or_insert(path);
    }
    // The bulk rendezvous path: `rsr_bulk` is the send-side entry (below
    // the cutoff it degenerates to `rsr`, above it registers the region
    // and ships the announce), and `bulk_pull_service` answers
    // `#bulk-get` requests inside message dispatch — on whatever thread
    // delivers the request. A block in either stalls the puller, which
    // is sitting on a deadline, so both are roots in their own right.
    //
    // Paths through `send_with_failover` are excluded: that is the plain
    // send machinery, which may open connections and tear down dead
    // links — allowed to block by the same policy that keeps `rsr`
    // itself out of this rule's roots. Likewise `connect_cached` under
    // the pull service: a route miss opens a communication object, and
    // connects are allowed to block. What remains rooted is the bulk
    // machinery proper — registry, announce build, pull bookkeeping,
    // and chunk fan-out over already-connected rails.
    for (name, path) in graph.reachable_from("rsr_bulk") {
        if path.iter().any(|hop| hop == "send_with_failover") {
            continue;
        }
        reach.entry(name).or_insert(path);
    }
    for (name, path) in graph.reachable_from("bulk_pull_service") {
        if path.iter().any(|hop| hop == "connect_cached") {
            continue;
        }
        reach.entry(name).or_insert(path);
    }
    let mut out = Vec::new();
    let mut seen = HashSet::new();
    for def in &graph.fns {
        if def.in_test || !reach.contains_key(&def.name) {
            continue;
        }
        let Some((start, end)) = def.span else {
            continue;
        };
        let f = graph_files[def.file];
        for line in start..=end.min(f.code.len() - 1) {
            if f.is_test_line(line) {
                continue;
            }
            for (token, label) in BLOCKING_TOKENS {
                let mut from = 0;
                while let Some(pos) = f.code[line][from..].find(token) {
                    let col = from + pos;
                    from = col + token.len();
                    if !seen.insert((f.rel.clone(), line, col)) {
                        continue;
                    }
                    let path = reach[&def.name].join(" -> ");
                    out.push(
                        Diagnostic::error(
                            "poll-blocking",
                            format!("{label} on the poll path"),
                            &f.rel,
                            line,
                            col,
                            &f.raw[line],
                            token.len(),
                        )
                        .with_help(format!(
                            "fn `{}` is reachable from the unified poll loop \
                             ({path}); polling must stay non-blocking (§3.2)",
                            def.name
                        )),
                    );
                }
            }
        }
    }
    out.sort_by(|a, b| (&a.file, a.line, a.col).cmp(&(&b.file, b.line, b.col)));
    out
}

// ---------------------------------------------------------------------------
// module-contract
// ---------------------------------------------------------------------------

/// Function table every communication module must provide — the Rust
/// rendering of the paper's §3.1 module interface (init/connect/send/
/// poll/descriptor become the trait methods below; send lives on the
/// `CommObject` the module hands out).
const MODULE_FNS: &[&str] = &[
    "method",
    "name",
    "cost_rank",
    "open",
    "applicable",
    "connect",
    "poll_cost_ns",
];

struct ImplBlock {
    file: usize,
    line: usize,
    col: usize,
    target: String,
    span: (usize, usize),
}

/// Finds `impl <Trait> for <Target>` blocks in a file's code view.
/// Test-only impls (scripted receivers, dead-source fixtures) are skipped,
/// matching every other rule's test exemption: the contract binds real
/// modules, not test doubles.
fn impl_blocks(f: &SourceFile, file_idx: usize, trait_name: &str, out: &mut Vec<ImplBlock>) {
    let pat = format!("{trait_name} for ");
    for (line, code) in f.code.iter().enumerate() {
        if f.is_test_line(line) {
            continue;
        }
        let Some(pos) = code.find(&pat) else { continue };
        if !code[..pos].contains("impl ") && !code[..pos].trim_end().ends_with("impl") {
            continue;
        }
        let after = &code[pos + pat.len()..];
        let target: String = after
            .trim_start()
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if target.is_empty() {
            continue;
        }
        // Span: brace-match from the block's `{`.
        let open = code[pos..].find('{').map(|o| pos + o);
        let span = match open {
            Some(c) => (line, brace_match(f, line, c)),
            None => {
                // `{` on a following line.
                let mut l = line + 1;
                let mut found = None;
                while l < f.code.len().min(line + 4) {
                    if let Some(c) = f.code[l].find('{') {
                        found = Some((line, brace_match(f, l, c)));
                        break;
                    }
                    l += 1;
                }
                match found {
                    Some(s) => s,
                    None => (line, line),
                }
            }
        };
        out.push(ImplBlock {
            file: file_idx,
            line,
            col: pos,
            target,
            span,
        });
    }
}

fn brace_match(f: &SourceFile, start_line: usize, start_col: usize) -> usize {
    let mut depth = 0i64;
    for l in start_line..f.code.len() {
        let from = if l == start_line { start_col } else { 0 };
        for (idx, ch) in f.code[l].char_indices() {
            if idx < from {
                continue;
            }
            match ch {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        return l;
                    }
                }
                _ => {}
            }
        }
    }
    f.code.len().saturating_sub(1)
}

/// True when the impl block defines `fn <name>`.
fn block_defines_fn(f: &SourceFile, span: (usize, usize), name: &str) -> bool {
    let pat = format!("fn {name}");
    (span.0..=span.1.min(f.code.len().saturating_sub(1)))
        .any(|l| !word_hits(&f.code[l], &pat).is_empty() || f.code[l].contains(&pat))
}

/// True when `fn supports_blocking` inside `span` returns the literal
/// `true` (rather than delegating).
fn supports_blocking_literal_true(f: &SourceFile, span: (usize, usize)) -> bool {
    for l in span.0..=span.1.min(f.code.len().saturating_sub(1)) {
        if !f.code[l].contains("fn supports_blocking") {
            continue;
        }
        let Some(open) = f.code[l].find('{').or_else(|| {
            (l < span.1).then_some(0) // brace on next line: scan from there
        }) else {
            return false;
        };
        let body_end = brace_match(f, l, open);
        return (l..=body_end.min(span.1)).any(|b| !word_hits(&f.code[b], "true").is_empty());
    }
    false
}

fn rule_module_contract(ws: &Workspace) -> Vec<Diagnostic> {
    // Crate-wide receiver/object maps: modules routinely reuse a shared
    // receiver type from another file (e.g. the queue transports).
    let mut receivers: HashMap<String, Vec<(String, bool)>> = HashMap::new(); // crate -> (type, overrides recv_timeout)
    let mut objects: HashMap<String, Vec<String>> = HashMap::new();
    let mut modules: Vec<ImplBlock> = Vec::new();
    for (i, cf) in ws.files.iter().enumerate() {
        if !cf.graph {
            continue;
        }
        let mut recv_blocks = Vec::new();
        impl_blocks(&cf.src, i, "CommReceiver", &mut recv_blocks);
        for b in recv_blocks {
            let overrides = block_defines_fn(&cf.src, b.span, "recv_timeout");
            receivers
                .entry(cf.crate_name.clone())
                .or_default()
                .push((b.target, overrides));
        }
        let mut obj_blocks = Vec::new();
        impl_blocks(&cf.src, i, "CommObject", &mut obj_blocks);
        for b in obj_blocks {
            objects
                .entry(cf.crate_name.clone())
                .or_default()
                .push(b.target);
        }
        impl_blocks(&cf.src, i, "CommModule", &mut modules);
    }

    let mut out = Vec::new();
    for m in &modules {
        let cf = &ws.files[m.file];
        let f = &cf.src;
        // (1) The trait's own function table must be fully implemented.
        let missing: Vec<&str> = MODULE_FNS
            .iter()
            .copied()
            .filter(|name| !block_defines_fn(f, m.span, name))
            .collect();
        if !missing.is_empty() {
            out.push(
                Diagnostic::error(
                    "module-contract",
                    format!(
                        "`impl CommModule for {}` is missing {}",
                        m.target,
                        missing
                            .iter()
                            .map(|n| format!("`fn {n}`"))
                            .collect::<Vec<_>>()
                            .join(", ")
                    ),
                    &f.rel,
                    m.line,
                    m.col,
                    &f.raw[m.line],
                    "CommModule".len(),
                )
                .with_help(
                    "the paper's module interface (§3.1) is a complete function \
                     table: init/connect/send/poll/descriptor all present",
                ),
            );
        }
        // (2) The module's file must wire up a receive path and a send
        // path: it has to reference some CommReceiver and CommObject type
        // known in its crate.
        let file_text = f.code.join("\n");
        let crate_receivers = receivers.get(&cf.crate_name).cloned().unwrap_or_default();
        let crate_objects = objects.get(&cf.crate_name).cloned().unwrap_or_default();
        let used_receivers: Vec<&(String, bool)> = crate_receivers
            .iter()
            .filter(|(t, _)| !word_hits(&file_text, t).is_empty())
            .collect();
        let uses_object = crate_objects
            .iter()
            .any(|t| !word_hits(&file_text, t).is_empty());
        if used_receivers.is_empty() {
            out.push(Diagnostic::error(
                "module-contract",
                format!(
                    "module `{}` references no `CommReceiver` type: the \
                         poll half of the function table is unwired",
                    m.target
                ),
                &f.rel,
                m.line,
                m.col,
                &f.raw[m.line],
                "CommModule".len(),
            ));
        }
        if !uses_object {
            out.push(Diagnostic::error(
                "module-contract",
                format!(
                    "module `{}` references no `CommObject` type: the \
                         send half of the function table is unwired",
                    m.target
                ),
                &f.rel,
                m.line,
                m.col,
                &f.raw[m.line],
                "CommModule".len(),
            ));
        }
        // (3) A module claiming blocking-capable receivers must actually
        // have a receiver with a real `recv_timeout`.
        if supports_blocking_literal_true(f, m.span)
            && !used_receivers.is_empty()
            && !used_receivers.iter().any(|(_, overrides)| *overrides)
        {
            out.push(
                Diagnostic::error(
                    "module-contract",
                    format!(
                        "module `{}` advertises `supports_blocking() == true` \
                         but none of its receivers override `recv_timeout`",
                        m.target
                    ),
                    &f.rel,
                    m.line,
                    m.col,
                    &f.raw[m.line],
                    "CommModule".len(),
                )
                .with_help(
                    "the default `recv_timeout` falls back to one non-blocking \
                     poll; a blocking-capable method must park properly",
                ),
            );
        }
    }
    out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn ws_one(rel: &str, text: &str, hot: bool, core: bool, graph: bool) -> Workspace {
        let src = SourceFile::parse(PathBuf::from(rel), rel.into(), text);
        Workspace {
            files: vec![ClassifiedFile {
                src,
                crate_name: "core".into(),
                hot_path: hot,
                core,
                graph,
            }],
        }
    }

    #[test]
    fn unsafe_requires_safety_comment() {
        let bad = ws_one(
            "a.rs",
            "fn f() {\n    unsafe { x() }\n}\n",
            false,
            false,
            false,
        );
        assert_eq!(rule_unsafe_safety(&bad).len(), 1);
        let good = ws_one(
            "a.rs",
            "fn f() {\n    // SAFETY: x is always valid here\n    unsafe { x() }\n}\n",
            false,
            false,
            false,
        );
        assert!(rule_unsafe_safety(&good).is_empty());
    }

    #[test]
    fn hot_path_panics_flagged_outside_tests_only() {
        let text =
            "fn f() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn t() { y.unwrap(); }\n}\n";
        let ws = ws_one("hot.rs", text, true, false, false);
        let diags = rule_hot_path_panic(&ws);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].line, 1);
        let cold = ws_one("cold.rs", text, false, false, false);
        assert!(rule_hot_path_panic(&cold).is_empty());
    }

    #[test]
    fn unwrap_or_is_not_unwrap() {
        let ws = ws_one("hot.rs", "fn f() { x.unwrap_or(0); }\n", true, false, false);
        assert!(rule_hot_path_panic(&ws).is_empty());
    }

    #[test]
    fn seqcst_needs_justification() {
        let bad = ws_one(
            "c.rs",
            "fn f() { x.store(1, Ordering::SeqCst); }\n",
            false,
            true,
            true,
        );
        assert_eq!(rule_seqcst_justify(&bad).len(), 1);
        let good = ws_one(
            "c.rs",
            "// SeqCst: the flag orders against the counter below\nfn f() { x.store(1, Ordering::SeqCst); }\n",
            false,
            true,
            true,
        );
        assert!(rule_seqcst_justify(&good).is_empty());
    }

    #[test]
    fn one_sided_release_is_flagged() {
        let ws = ws_one(
            "c.rs",
            "fn w() { self.flag.store(1, Ordering::Release); }\nfn r() { self.flag.load(Ordering::Relaxed); }\n",
            false,
            true,
            true,
        );
        let diags = rule_atomic_pairing(&ws);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("flag"));
    }

    #[test]
    fn matched_acquire_release_passes() {
        let ws = ws_one(
            "c.rs",
            "fn w() { self.flag.store(1, Ordering::Release); }\nfn r() { self.flag.load(Ordering::Acquire); }\n",
            false,
            true,
            true,
        );
        assert!(rule_atomic_pairing(&ws).is_empty());
    }

    #[test]
    fn relaxed_counters_pass() {
        let ws = ws_one(
            "c.rs",
            "fn w() { self.n.fetch_add(1, Ordering::Relaxed); }\nfn r() { self.n.load(Ordering::Relaxed); }\n",
            false,
            true,
            true,
        );
        assert!(rule_atomic_pairing(&ws).is_empty());
    }

    #[test]
    fn vec_swap_is_not_an_atomic() {
        let ws = ws_one("c.rs", "fn f() { v.swap(0, 1); }\n", false, true, true);
        assert!(rule_atomic_pairing(&ws).is_empty());
    }

    #[test]
    fn blocking_call_reachable_from_poll_once_is_flagged() {
        let ws = ws_one(
            "p.rs",
            "fn poll_once() {\n    helper();\n}\nfn helper() {\n    thread::sleep(d);\n}\nfn elsewhere() {\n    thread::sleep(d);\n}\n",
            false,
            true,
            true,
        );
        let diags = rule_poll_blocking(&ws);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 5);
        assert!(diags[0]
            .help
            .as_deref()
            .unwrap_or("")
            .contains("poll_once -> helper"));
    }

    #[test]
    fn blocking_call_reachable_from_the_ready_drain_is_flagged() {
        // `drain_ready` is a root independent of `poll_once`: a blocking
        // call below it is caught even when nothing links the two.
        let ws = ws_one(
            "p.rs",
            "fn drain_ready() {\n    visit();\n}\nfn visit() {\n    rx.recv();\n}\n",
            false,
            true,
            true,
        );
        let diags = rule_poll_blocking(&ws);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0]
            .help
            .as_deref()
            .unwrap_or("")
            .contains("drain_ready -> visit"));
    }

    #[test]
    fn blocking_call_reachable_from_reselection_is_flagged() {
        let ws = ws_one(
            "c.rs",
            "fn reselect_candidate() {\n    measure();\n}\nfn measure() {\n    handle.join();\n}\n",
            false,
            true,
            true,
        );
        let diags = rule_poll_blocking(&ws);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0]
            .help
            .as_deref()
            .unwrap_or("")
            .contains("reselect_candidate -> measure"));
    }

    #[test]
    fn blocking_call_reachable_from_the_shard_worker_is_flagged() {
        let ws = ws_one(
            "s.rs",
            "fn shard_worker_loop() {\n    service_token();\n}\nfn service_token() {\n    thread::sleep(d);\n}\n",
            false,
            true,
            true,
        );
        let diags = rule_poll_blocking(&ws);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0]
            .help
            .as_deref()
            .unwrap_or("")
            .contains("shard_worker_loop -> service_token"));
    }

    #[test]
    fn blocking_call_reachable_from_the_reactor_is_flagged() {
        let ws = ws_one(
            "r.rs",
            "fn reactor_loop() {\n    fire();\n}\nfn fire() {\n    handle.join();\n}\n",
            false,
            true,
            true,
        );
        let diags = rule_poll_blocking(&ws);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0]
            .help
            .as_deref()
            .unwrap_or("")
            .contains("reactor_loop -> fire"));
    }

    #[test]
    fn blocking_call_reachable_from_the_stripe_path_is_flagged() {
        let ws = ws_one(
            "t.rs",
            "fn stripe_drain() {\n    ingest();\n}\nfn ingest() {\n    thread::sleep(d);\n}\n",
            false,
            true,
            true,
        );
        let diags = rule_poll_blocking(&ws);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0]
            .help
            .as_deref()
            .unwrap_or("")
            .contains("stripe_drain -> ingest"));
    }

    #[test]
    fn blocking_call_reachable_from_the_bulk_pull_service_is_flagged() {
        // `bulk_pull_service` runs inside dispatch and is not called from
        // any other root here, so only its dedicated root reaches the
        // blocking call.
        let ws = ws_one(
            "b.rs",
            "fn bulk_pull_service() {\n    serve();\n}\nfn serve() {\n    done.wait(guard);\n}\n",
            false,
            true,
            true,
        );
        let diags = rule_poll_blocking(&ws);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0]
            .help
            .as_deref()
            .unwrap_or("")
            .contains("bulk_pull_service -> serve"));
    }

    #[test]
    fn blocking_call_reachable_from_rsr_bulk_is_flagged() {
        let ws = ws_one(
            "b.rs",
            "fn rsr_bulk() {\n    announce();\n}\nfn announce() {\n    thread::sleep(d);\n}\n",
            false,
            true,
            true,
        );
        let diags = rule_poll_blocking(&ws);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0]
            .help
            .as_deref()
            .unwrap_or("")
            .contains("rsr_bulk -> announce"));
    }

    #[test]
    fn complete_module_passes_partial_fails() {
        let full = "\
struct M; struct R; struct O;
impl CommReceiver for R {\n    fn poll(&mut self) {}\n    fn recv_timeout(&mut self) {}\n}
impl CommObject for O {\n    fn send(&mut self) {}\n}
impl CommModule for M {
    fn method(&self) {}
    fn name(&self) {}
    fn cost_rank(&self) {}
    fn open(&self) {}
    fn applicable(&self) {}
    fn connect(&self) { R; O; }
    fn poll_cost_ns(&self) {}
}
";
        let ws = ws_one("m.rs", full, false, false, true);
        assert!(
            rule_module_contract(&ws).is_empty(),
            "{:?}",
            rule_module_contract(&ws)
        );

        let partial = "\
struct M; struct R; struct O;
impl CommReceiver for R {\n    fn poll(&mut self) {}\n}
impl CommObject for O {\n    fn send(&mut self) {}\n}
impl CommModule for M {
    fn method(&self) {}
    fn connect(&self) { R; O; }
}
";
        let ws = ws_one("m.rs", partial, false, false, true);
        let diags = rule_module_contract(&ws);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("missing"));
        assert!(diags[0].message.contains("cost_rank"));
    }

    #[test]
    fn test_only_module_impls_are_exempt_from_the_contract() {
        // Test fixtures (dead-source modules, scripted receivers) are not
        // real communication modules; the contract must not bind them.
        let text = "\
fn real() {}
#[cfg(test)]
mod tests {
    struct M;
    impl CommModule for M {
        fn method(&self) {}
    }
}
";
        let ws = ws_one("m.rs", text, false, false, true);
        assert!(
            rule_module_contract(&ws).is_empty(),
            "{:?}",
            rule_module_contract(&ws)
        );
    }

    #[test]
    fn blocking_claim_needs_real_recv_timeout() {
        let text = "\
struct M; struct R; struct O;
impl CommReceiver for R {\n    fn poll(&mut self) {}\n}
impl CommObject for O {\n    fn send(&mut self) {}\n}
impl CommModule for M {
    fn method(&self) {}
    fn name(&self) {}
    fn cost_rank(&self) {}
    fn open(&self) {}
    fn applicable(&self) {}
    fn connect(&self) { R; O; }
    fn poll_cost_ns(&self) {}
    fn supports_blocking(&self) -> bool { true }
}
";
        let ws = ws_one("m.rs", text, false, false, true);
        let diags = rule_module_contract(&ws);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("supports_blocking"));
    }
}
