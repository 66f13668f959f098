//! Lightweight call-edge scan for reachability rules.
//!
//! Functions are linked *by name*: a token `foo(` or `.foo(` inside one
//! function's body creates an edge to every workspace function named
//! `foo`. Over-approximating dynamic dispatch this way is exactly what the
//! `poll-blocking` rule wants — `PollEngine::poll_once` calls
//! `receiver.poll()` through a trait object, and the name link pulls in
//! every `CommReceiver::poll` implementation, which is the set of
//! functions that must never block.

use super::source::SourceFile;
use std::collections::{HashMap, VecDeque};

/// One function definition found in the scanned files.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// Index of the file in the scan set.
    pub file: usize,
    /// 0-based line of the `fn` keyword.
    pub sig_line: usize,
    /// 0-based inclusive line range of signature + body. `None` for
    /// bodyless trait declarations.
    pub span: Option<(usize, usize)>,
    /// Defined inside test-only code.
    pub in_test: bool,
    /// Names this function's body calls.
    pub calls: Vec<String>,
}

/// Name-linked call graph over a set of files.
pub struct CallGraph {
    /// All discovered definitions.
    pub fns: Vec<FnDef>,
    by_name: HashMap<String, Vec<usize>>,
}

const KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "fn", "let", "in", "as", "move", "else",
    "unsafe", "impl", "where", "pub", "use", "mod", "crate", "self", "Self", "super", "dyn",
    "struct", "enum", "trait", "type", "const", "static", "ref", "mut", "break", "continue",
];

/// Names too generic to link on. Every type has a `new`/`default`/`clone`,
/// and std container/guard methods (`Vec::push`, `Option::take`, …) share
/// names with workspace functions (`EventRing::push`, `pool::take`), so
/// linking on them connects unrelated code and makes everything
/// "reachable". The cost of the cut is that a workspace fn *named* like a
/// std method never becomes a call-graph node — an accepted trade for a
/// name-linked scan.
const NOISE_NAMES: &[&str] = &[
    "new", "default", "clone", "push", "pop", "len", "is_empty", "insert", "remove", "get",
    "get_mut", "read", "write", "take", "next", "iter", "drain", "clear", "extend", "contains",
    "entry", "keys", "values", "flush", "resize", "min", "max",
];

impl CallGraph {
    /// Builds the graph from `files` (indices refer into this slice).
    pub fn build(files: &[&SourceFile]) -> CallGraph {
        let mut fns = Vec::new();
        for (fi, f) in files.iter().enumerate() {
            collect_fns(f, fi, &mut fns);
        }
        let mut by_name: HashMap<String, Vec<usize>> = HashMap::new();
        for (i, d) in fns.iter().enumerate() {
            by_name.entry(d.name.clone()).or_default().push(i);
        }
        CallGraph { fns, by_name }
    }

    /// Names of functions reachable from any non-test function named
    /// `root`, mapped to one sample call path (for diagnostics).
    pub fn reachable_from(&self, root: &str) -> HashMap<String, Vec<String>> {
        let mut paths: HashMap<String, Vec<String>> = HashMap::new();
        let mut queue = VecDeque::new();
        if self.by_name.contains_key(root) {
            paths.insert(root.to_owned(), vec![root.to_owned()]);
            queue.push_back(root.to_owned());
        }
        while let Some(name) = queue.pop_front() {
            let base = paths[&name].clone();
            for &di in self.by_name.get(&name).into_iter().flatten() {
                let def = &self.fns[di];
                if def.in_test {
                    continue;
                }
                for callee in &def.calls {
                    if !paths.contains_key(callee) && self.by_name.contains_key(callee) {
                        let mut p = base.clone();
                        p.push(callee.clone());
                        paths.insert(callee.clone(), p);
                        queue.push_back(callee.clone());
                    }
                }
            }
        }
        paths
    }
}

/// Scans one file for fn definitions, their spans, and their call sites.
fn collect_fns(f: &SourceFile, file_idx: usize, out: &mut Vec<FnDef>) {
    let mut line = 0;
    while line < f.code.len() {
        let Some((name, col)) = fn_decl_on(&f.code[line]) else {
            line += 1;
            continue;
        };
        // Find the body's `{` (or a `;` ending a bodyless declaration) at
        // bracket depth 0, starting after the fn name.
        let mut depth = 0i64; // (), [], <> are all "not the body brace"
        let mut body_start = None;
        let mut bodyless = false;
        'sig: for l in line..f.code.len() {
            let start_col = if l == line { col } else { 0 };
            for (c_idx, ch) in f.code[l].char_indices() {
                if c_idx < start_col {
                    continue;
                }
                match ch {
                    '(' | '[' => depth += 1,
                    ')' | ']' => depth -= 1,
                    '{' if depth == 0 => {
                        body_start = Some((l, c_idx));
                        break 'sig;
                    }
                    ';' if depth == 0 => {
                        bodyless = true;
                        break 'sig;
                    }
                    _ => {}
                }
            }
        }
        let span = match (body_start, bodyless) {
            (Some((bl, bc)), _) => {
                let end = match_braces(f, bl, bc);
                Some((line, end))
            }
            (None, _) => None,
        };
        let mut calls = Vec::new();
        if let Some((s, e)) = span {
            for l in s..=e.min(f.code.len() - 1) {
                collect_calls(&f.code[l], &mut calls);
            }
            // The definition itself matches the call pattern; drop it.
            calls.retain(|c| c != &name);
        }
        let end_line = span.map(|(_, e)| e).unwrap_or(line);
        out.push(FnDef {
            name,
            file: file_idx,
            sig_line: line,
            span,
            in_test: f.is_test_line(line),
            calls,
        });
        // Continue after the signature line (nested fns are still found
        // because we advance one line at a time past the signature).
        line += 1;
        let _ = end_line;
    }
}

/// If `code` declares a function, returns `(name, column after name)`.
fn fn_decl_on(code: &str) -> Option<(String, usize)> {
    let bytes = code.as_bytes();
    let mut i = 0;
    while let Some(pos) = code[i..].find("fn ") {
        let at = i + pos;
        let before_ok =
            at == 0 || !(bytes[at - 1].is_ascii_alphanumeric() || bytes[at - 1] == b'_');
        if before_ok {
            let rest = &code[at + 3..];
            let name: String = rest
                .trim_start()
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if !name.is_empty() {
                let consumed = at + 3 + (rest.len() - rest.trim_start().len()) + name.len();
                return Some((name, consumed));
            }
        }
        i = at + 3;
    }
    None
}

/// Matches braces starting at `(start_line, start_col)`; returns the
/// 0-based line of the closing brace.
fn match_braces(f: &SourceFile, start_line: usize, start_col: usize) -> usize {
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

/// Called names on one line of code — the same extraction (and stoplists)
/// the graph edges use, for rules that scan spans line by line.
pub(crate) fn calls_on(code: &str) -> Vec<String> {
    let mut out = Vec::new();
    collect_calls(code, &mut out);
    out
}

/// Extracts called names (`foo(`, `.foo(`, `foo::<T>(`-free form) on a line.
fn collect_calls(code: &str, out: &mut Vec<String>) {
    let chars: Vec<char> = code.chars().collect();
    for i in 0..chars.len() {
        if chars[i] != '(' {
            continue;
        }
        // Walk back over the identifier.
        let mut j = i;
        while j > 0 && (chars[j - 1].is_alphanumeric() || chars[j - 1] == '_') {
            j -= 1;
        }
        if j == i {
            continue;
        }
        let name: String = chars[j..i].iter().collect();
        if KEYWORDS.contains(&name.as_str())
            || NOISE_NAMES.contains(&name.as_str())
            || name.chars().next().is_some_and(char::is_numeric)
        {
            continue;
        }
        // Skip macro invocations `name!(` — the char before the ident run
        // cannot be checked here (we walked to j), so check `!` before `(`:
        // a macro looks like `name!(`, i.e. ident, '!', '(' — the ident run
        // would have stopped at '!', making name empty. Covered above.
        out.push(name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn parse(text: &str) -> SourceFile {
        SourceFile::parse(PathBuf::from("g.rs"), "g.rs".into(), text)
    }

    #[test]
    fn defs_and_edges_are_found() {
        let f = parse(
            "fn poll_once() {\n    helper();\n    x.poll();\n}\nfn helper() {\n    blockers();\n}\nfn poll() {}\nfn blockers() {}\nfn unrelated() {}\n",
        );
        let g = CallGraph::build(&[&f]);
        assert_eq!(g.fns.len(), 5);
        let reach = g.reachable_from("poll_once");
        assert!(reach.contains_key("helper"));
        assert!(reach.contains_key("poll"));
        assert!(reach.contains_key("blockers"));
        assert!(!reach.contains_key("unrelated"));
        assert_eq!(
            reach["blockers"],
            vec!["poll_once".to_owned(), "helper".into(), "blockers".into()]
        );
    }

    #[test]
    fn test_fns_do_not_extend_reachability() {
        let f = parse(
            "fn poll_once() {\n    probe();\n}\n#[cfg(test)]\nmod tests {\n    fn probe() {\n        sleeper();\n    }\n}\nfn sleeper() {}\n",
        );
        let g = CallGraph::build(&[&f]);
        let reach = g.reachable_from("poll_once");
        // probe is only defined in test code, so its body adds no edges.
        assert!(!reach.contains_key("sleeper"));
    }

    #[test]
    fn bodyless_trait_decls_are_spanless() {
        let f = parse("trait T {\n    fn poll(&mut self) -> Result<()>;\n}\n");
        let g = CallGraph::build(&[&f]);
        let d = g.fns.iter().find(|d| d.name == "poll").unwrap();
        assert!(d.span.is_none());
    }

    #[test]
    fn array_semicolons_do_not_end_signatures() {
        let f = parse("fn f(x: [u8; 4]) {\n    g();\n}\nfn g() {}\n");
        let g = CallGraph::build(&[&f]);
        let d = g.fns.iter().find(|d| d.name == "f").unwrap();
        assert!(d.span.is_some());
        assert_eq!(d.calls, vec!["g".to_owned()]);
    }
}
