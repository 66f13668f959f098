//! One fixture per rule, plus one clean file, with exact-diagnostic
//! assertions.
//!
//! The fixtures under `tests/fixtures/` are data, not compiled code:
//! cargo only builds top-level `tests/*.rs` files as test targets. Each
//! test loads a fixture, classifies it by hand (hot-path / core / graph
//! flags chosen so the rule under test is in scope), and asserts the
//! precise findings — rule, 1-based line/column, and message — so any
//! drift in a rule's detection logic or wording fails loudly here.

use std::path::PathBuf;

use xtask::lint::{lint_workspace, ClassifiedFile, Diagnostic, SourceFile, Workspace};

/// Loads a fixture into a single-file workspace with the given flags.
fn fixture(name: &str, hot_path: bool, core: bool, graph: bool) -> Workspace {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("fixture {name} unreadable: {e}"));
    let rel = format!("tests/fixtures/{name}");
    let src = SourceFile::parse(path, rel, &text);
    Workspace {
        files: vec![ClassifiedFile {
            src,
            crate_name: "core".into(),
            hot_path,
            core,
            graph,
        }],
    }
}

fn render(diags: &[Diagnostic]) -> String {
    diags
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn clean_fixture_passes_every_rule() {
    // Classified as the strictest possible file: hot-path core code in
    // the call-graph scope. All six rules run; none may fire.
    let ws = fixture("clean.rs", true, true, true);
    let out = lint_workspace(&ws, None);
    assert!(
        out.errors.is_empty(),
        "unexpected findings:\n{}",
        render(&out.errors)
    );
    assert!(
        out.suppressed.is_empty(),
        "clean fixture must need no allows"
    );
    assert_eq!(out.files_scanned, 1);
}

#[test]
fn unsafe_without_safety_comment_is_flagged() {
    let ws = fixture("unsafe_no_safety.rs", false, false, false);
    let out = lint_workspace(&ws, Some("unsafe-safety"));
    assert_eq!(out.errors.len(), 1, "{}", render(&out.errors));
    let d = &out.errors[0];
    assert_eq!(d.rule, "unsafe-safety");
    assert_eq!((d.line, d.col), (5, 5), "anchor on the `unsafe` keyword");
    assert_eq!(d.message, "`unsafe` without a `// SAFETY:` comment");
    assert_eq!(d.span_len, "unsafe".len());
    assert!(d.help.as_deref().unwrap_or("").contains("SAFETY:"));
}

#[test]
fn hot_path_panics_flagged_except_in_test_code() {
    let ws = fixture("hot_path_unwrap.rs", true, false, false);
    let out = lint_workspace(&ws, Some("hot-path-panic"));
    // Three non-test sites; the `.unwrap()` inside `#[cfg(test)]` at the
    // bottom of the fixture is exempt.
    assert_eq!(out.errors.len(), 3, "{}", render(&out.errors));
    let lines: Vec<usize> = out.errors.iter().map(|d| d.line).collect();
    assert_eq!(lines, vec![5, 9, 13]);
    assert!(out.errors[0].message.contains("`.unwrap()`"));
    assert!(out.errors[1].message.contains("`.expect()`"));
    assert!(out.errors[2].message.contains("`panic!`"));
    for d in &out.errors {
        assert_eq!(d.rule, "hot-path-panic");
        assert!(
            d.message.ends_with("in hot-path non-test code"),
            "{}",
            d.message
        );
    }
}

#[test]
fn bare_seqcst_flagged_justified_seqcst_passes() {
    let ws = fixture("seqcst_unjustified.rs", false, true, true);
    let out = lint_workspace(&ws, Some("seqcst-justify"));
    // The fixture has two SeqCst sites; only the one without a
    // `// SeqCst:` comment may fire.
    assert_eq!(out.errors.len(), 1, "{}", render(&out.errors));
    let d = &out.errors[0];
    assert_eq!(d.rule, "seqcst-justify");
    assert_eq!((d.line, d.col), (6, 30), "anchor on the `SeqCst` token");
    assert_eq!(
        d.message,
        "`Ordering::SeqCst` without a `// SeqCst:` justification"
    );
}

#[test]
fn one_sided_release_store_is_flagged() {
    let ws = fixture("atomic_pairing.rs", false, false, true);
    let out = lint_workspace(&ws, Some("atomic-pairing"));
    assert_eq!(out.errors.len(), 1, "{}", render(&out.errors));
    let d = &out.errors[0];
    assert_eq!(d.rule, "atomic-pairing");
    assert_eq!(
        (d.line, d.col),
        (12, 14),
        "anchor on the store's receiver field"
    );
    assert!(
        d.message.contains("Release-ordered write to `ready`"),
        "{}",
        d.message
    );
    assert!(d.message.contains("never observed"), "{}", d.message);
}

#[test]
fn blocking_call_reachable_from_poll_once_is_flagged() {
    let ws = fixture("poll_blocking.rs", false, false, true);
    let out = lint_workspace(&ws, Some("poll-blocking"));
    // Only the sleep reachable through poll_once -> drain_inbound fires;
    // the identical sleep in `unrelated` (line 15) is out of scope.
    assert_eq!(out.errors.len(), 1, "{}", render(&out.errors));
    let d = &out.errors[0];
    assert_eq!(d.rule, "poll-blocking");
    assert_eq!(d.line, 11);
    assert_eq!(d.message, "`thread::sleep` on the poll path");
    let help = d.help.as_deref().unwrap_or("");
    assert!(
        help.contains("poll_once -> drain_inbound"),
        "call path in help: {help}"
    );
}

#[test]
fn opposite_lock_orders_are_flagged_with_both_witness_paths() {
    let ws = fixture("lock_order.rs", false, false, true);
    let out = lint_workspace(&ws, Some("lock-order"));
    // `forward` takes a then b, `backward` takes b then a — one pairwise
    // report. `consistent` (a then c, one direction only) must not add a
    // second finding.
    assert_eq!(out.errors.len(), 1, "{}", render(&out.errors));
    let d = &out.errors[0];
    assert_eq!(d.rule, "lock-order");
    assert_eq!(d.line, 14, "anchor on the first acquisition of the cycle");
    assert_eq!(
        d.message,
        "inconsistent lock order: `core.a` and `core.b` are each acquired \
         while the other is held"
    );
    let help = d.help.as_deref().unwrap_or("");
    assert!(help.contains("path `core.a` -> `core.b`"), "{help}");
    assert!(help.contains("path `core.b` -> `core.a`"), "{help}");
    assert!(
        help.contains("lock_order.rs:14") && help.contains("lock_order.rs:20"),
        "both witness sites in help: {help}"
    );
}

#[test]
fn lock_held_across_blocking_is_flagged_directly_and_via_callee() {
    let ws = fixture("lock_across_blocking.rs", false, false, true);
    let out = lint_workspace(&ws, Some("lock-across-blocking"));
    // Two findings: the sleep under the guard and the blocking callee.
    // `releases_first` scopes its guard before sleeping and is clean.
    assert_eq!(out.errors.len(), 2, "{}", render(&out.errors));
    let direct = &out.errors[0];
    assert_eq!(direct.rule, "lock-across-blocking");
    assert_eq!(direct.line, 13, "anchor on the acquisition");
    assert!(
        direct
            .message
            .contains("`core.queue` is held across a blocking call")
            && direct.message.contains("`thread::sleep`"),
        "{}",
        direct.message
    );
    let via_callee = &out.errors[1];
    assert_eq!(via_callee.line, 19);
    assert!(
        via_callee.message.contains("call path settle ->"),
        "callee path in message: {}",
        via_callee.message
    );
}

#[test]
fn partial_function_table_is_flagged_with_the_missing_fns() {
    let ws = fixture("partial_module.rs", false, false, true);
    let out = lint_workspace(&ws, Some("module-contract"));
    assert_eq!(out.errors.len(), 1, "{}", render(&out.errors));
    let d = &out.errors[0];
    assert_eq!(d.rule, "module-contract");
    assert_eq!(d.line, 18, "anchor on the impl header");
    assert!(
        d.message
            .contains("`impl CommModule for HalfModule` is missing"),
        "{}",
        d.message
    );
    for gone in [
        "`fn name`",
        "`fn cost_rank`",
        "`fn applicable`",
        "`fn poll_cost_ns`",
    ] {
        assert!(
            d.message.contains(gone),
            "missing list lacks {gone}: {}",
            d.message
        );
    }
    for present in ["`fn method`", "`fn open`", "`fn connect`"] {
        assert!(
            !d.message.contains(present),
            "implemented fn wrongly listed as missing: {}",
            d.message
        );
    }
}

/// The call-graph roots the `poll-blocking` and `hot-path-alloc` rules
/// name for the stripe and bulk engines exist in the workspace: a root
/// that no longer resolves would silently check nothing.
#[test]
fn the_stripe_and_bulk_lint_roots_resolve_in_the_workspace() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let ws = xtask::lint::scan_workspace(&root).unwrap();
    let files: Vec<&SourceFile> = ws
        .files
        .iter()
        .filter(|f| f.graph)
        .map(|f| &f.src)
        .collect();
    let graph = xtask::lint::callgraph::CallGraph::build(&files);
    for name in [
        "rsr_bulk",
        "bulk_pull_service",
        "stripe_drain",
        "striped_send",
    ] {
        let reach = graph.reachable_from(name);
        assert!(
            reach.contains_key(name),
            "lint root `{name}` does not resolve"
        );
        assert!(reach.len() > 1, "lint root `{name}` reaches nothing");
    }
}
