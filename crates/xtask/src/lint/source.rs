//! Lexical source model shared by every lint rule.
//!
//! The scanner splits each file into three aligned per-line views:
//! `code` (comments removed, string/char contents blanked), `comment`
//! (comment text only), and a `test` mask covering `#[cfg(test)]` /
//! `#[test]` item bodies. Column positions are preserved in all views, so
//! a match in the `code` view can be reported against the raw line.
//!
//! This is a lexer, not a parser: it understands line and (nested) block
//! comments, cooked strings, raw strings (`r"…"`, `r#"…"#`, byte
//! variants), char literals, and lifetimes — enough to make token-level
//! rules reliable without a rustc dependency.

use std::path::{Path, PathBuf};

/// A `// lint:allow(<rule>) reason` annotation found in a comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    /// 0-based line the annotation sits on.
    pub line: usize,
    /// Rule name inside the parentheses.
    pub rule: String,
    /// Free-text justification after the closing parenthesis.
    pub reason: String,
}

/// One scanned source file.
pub struct SourceFile {
    /// Absolute path.
    pub path: PathBuf,
    /// Workspace-relative path used in diagnostics.
    pub rel: String,
    /// Raw text, split into lines.
    pub raw: Vec<String>,
    /// Code view: comments stripped, literal contents blanked.
    pub code: Vec<String>,
    /// Comment view: everything but comment text blanked.
    pub comment: Vec<String>,
    /// Per-line: inside a `#[cfg(test)]` or `#[test]` item body.
    pub test: Vec<bool>,
    /// All `lint:allow` annotations in the file.
    pub allows: Vec<Allow>,
}

impl SourceFile {
    /// Scans `text` into the aligned views.
    pub fn parse(path: PathBuf, rel: String, text: &str) -> SourceFile {
        let (code, comment) = split_code_comments(text);
        let raw: Vec<String> = text.lines().map(str::to_owned).collect();
        let test = mark_test_regions(&code);
        let allows = find_allows(&comment);
        SourceFile {
            path,
            rel,
            raw,
            code,
            comment,
            test,
            allows,
        }
    }

    /// Reads and scans a file from disk.
    pub fn load(path: &Path, root: &Path) -> std::io::Result<SourceFile> {
        let text = std::fs::read_to_string(path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        Ok(SourceFile::parse(path.to_path_buf(), rel, &text))
    }

    /// True when `line` (0-based) is inside test-only code.
    pub fn is_test_line(&self, line: usize) -> bool {
        self.test.get(line).copied().unwrap_or(false)
    }

    /// The `lint:allow` annotation covering `line` for `rule`, if any.
    /// An annotation covers its own line and the line directly below it
    /// (the "comment above" convention).
    pub fn allow_for(&self, rule: &str, line: usize) -> Option<&Allow> {
        self.allows
            .iter()
            .find(|a| a.rule == rule && (a.line == line || a.line + 1 == line))
    }
}

/// Splits source text into aligned (code, comment) line views.
fn split_code_comments(text: &str) -> (Vec<String>, Vec<String>) {
    let chars: Vec<char> = text.chars().collect();
    let mut code_lines = Vec::new();
    let mut comment_lines = Vec::new();
    let mut code = String::new();
    let mut comment = String::new();
    let mut i = 0;
    // Emit one position into both views; exactly one side carries text.
    macro_rules! emit {
        (code $c:expr) => {{
            code.push($c);
            comment.push(' ');
        }};
        (comment $c:expr) => {{
            code.push(' ');
            comment.push($c);
        }};
        (blank) => {{
            code.push(' ');
            comment.push(' ');
        }};
    }
    macro_rules! newline {
        () => {{
            code_lines.push(std::mem::take(&mut code));
            comment_lines.push(std::mem::take(&mut comment));
        }};
    }
    let mut prev_ident = false;
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        if c == '\n' {
            newline!();
            i += 1;
            prev_ident = false;
            continue;
        }
        // Line comment.
        if c == '/' && next == Some('/') {
            while i < chars.len() && chars[i] != '\n' {
                emit!(comment chars[i]);
                i += 1;
            }
            continue;
        }
        // Block comment (Rust nests them).
        if c == '/' && next == Some('*') {
            let mut depth = 0usize;
            while i < chars.len() {
                if chars[i] == '\n' {
                    newline!();
                    i += 1;
                    continue;
                }
                if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    depth += 1;
                    emit!(comment '/');
                    emit!(comment '*');
                    i += 2;
                    continue;
                }
                if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    emit!(comment '*');
                    emit!(comment '/');
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                    continue;
                }
                emit!(comment chars[i]);
                i += 1;
            }
            prev_ident = false;
            continue;
        }
        // Raw string: r"…", r#"…"#, with optional b prefix.
        if !prev_ident && (c == 'r' || (c == 'b' && next == Some('r'))) {
            let start = if c == 'b' { i + 1 } else { i };
            let mut j = start + 1;
            while chars.get(j) == Some(&'#') {
                j += 1;
            }
            if chars.get(j) == Some(&'"') {
                let hashes = j - (start + 1);
                // Prefix and opening quote are code.
                while i <= j {
                    emit!(code chars[i]);
                    i += 1;
                }
                // Contents blanked until `"` followed by `hashes` hashes.
                'raw: while i < chars.len() {
                    if chars[i] == '\n' {
                        newline!();
                        i += 1;
                        continue;
                    }
                    if chars[i] == '"' {
                        let mut k = 0;
                        while k < hashes && chars.get(i + 1 + k) == Some(&'#') {
                            k += 1;
                        }
                        if k == hashes {
                            for _ in 0..=hashes {
                                emit!(code chars[i]);
                                i += 1;
                            }
                            break 'raw;
                        }
                    }
                    emit!(blank);
                    i += 1;
                }
                prev_ident = false;
                continue;
            }
        }
        // Cooked string (including b"…").
        if c == '"' {
            emit!(code '"');
            i += 1;
            while i < chars.len() {
                match chars[i] {
                    '\\' => {
                        emit!(blank);
                        if i + 1 < chars.len() && chars[i + 1] != '\n' {
                            emit!(blank);
                        }
                        i += 2;
                    }
                    '"' => {
                        emit!(code '"');
                        i += 1;
                        break;
                    }
                    '\n' => {
                        newline!();
                        i += 1;
                    }
                    _ => {
                        emit!(blank);
                        i += 1;
                    }
                }
            }
            prev_ident = false;
            continue;
        }
        // Char literal vs lifetime.
        if c == '\'' {
            let is_char = match next {
                Some('\\') => true,
                Some(_) => chars.get(i + 2) == Some(&'\''),
                None => false,
            };
            if is_char {
                emit!(code '\'');
                i += 1;
                while i < chars.len() && chars[i] != '\'' {
                    if chars[i] == '\\' {
                        emit!(blank);
                        i += 1;
                    }
                    if i < chars.len() {
                        emit!(blank);
                        i += 1;
                    }
                }
                if i < chars.len() {
                    emit!(code '\'');
                    i += 1;
                }
                prev_ident = false;
                continue;
            }
            // Lifetime: fall through as plain code.
        }
        emit!(code c);
        prev_ident = c.is_alphanumeric() || c == '_';
        i += 1;
    }
    if !code.is_empty() || !comment.is_empty() || text.ends_with('\n') {
        // Final line without trailing newline still commits.
        if !text.ends_with('\n') {
            newline!();
        }
    }
    (code_lines, comment_lines)
}

/// Marks lines belonging to `#[cfg(test)]` / `#[test]` item bodies.
fn mark_test_regions(code: &[String]) -> Vec<bool> {
    let mut test = vec![false; code.len()];
    for start in 0..code.len() {
        let line = &code[start];
        let is_test_attr =
            line.contains("cfg(test)") || line.contains("#[test]") || line.contains("#[bench]");
        if !is_test_attr {
            continue;
        }
        // Find the item's opening brace, then match to its close. An item
        // with no brace of its own (a struct field, a literal's field, an
        // arm) ends at its `,` outside parentheses, brackets and generics,
        // or at a `}` that closes the braces around it.
        let mut depth = 0i64;
        let mut opened = false;
        let (mut nest, mut angle) = (0i64, 0i64);
        'scan: for (l, text) in code.iter().enumerate().skip(start) {
            let mut prev = ' ';
            for ch in text.chars() {
                let open = !opened && depth == 0;
                match ch {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' if open => {
                        test[l] |= !text.trim_start().starts_with('}');
                        break 'scan;
                    }
                    '}' => depth -= 1,
                    '(' | '[' => nest += 1,
                    ')' | ']' => nest -= 1,
                    '<' if prev.is_alphanumeric() || matches!(prev, '_' | ':') => angle += 1,
                    '>' if angle > 0 && !matches!(prev, '-' | '=') => angle -= 1,
                    ',' if open && nest == 0 && angle == 0 => {
                        test[l] = true;
                        break 'scan;
                    }
                    ';' if open && l > start => break 'scan,
                    _ => {}
                }
                prev = ch;
            }
            test[l] = true;
            if opened && depth <= 0 {
                break;
            }
        }
    }
    test
}

/// Extracts `lint:allow(<rule>) reason` annotations from the comment view.
fn find_allows(comment: &[String]) -> Vec<Allow> {
    let mut out = Vec::new();
    for (line, text) in comment.iter().enumerate() {
        let mut rest = text.as_str();
        while let Some(pos) = rest.find("lint:allow(") {
            let after = &rest[pos + "lint:allow(".len()..];
            if let Some(close) = after.find(')') {
                let rule = after[..close].trim().to_owned();
                // Prose like "use `lint:allow(<rule>)`" is not an
                // annotation; real rule names are kebab-case idents.
                let is_rule_name = !rule.is_empty()
                    && rule
                        .chars()
                        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-');
                if is_rule_name {
                    out.push(Allow {
                        line,
                        rule,
                        reason: after[close + 1..].trim().to_owned(),
                    });
                }
                rest = &after[close + 1..];
            } else {
                break;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> SourceFile {
        SourceFile::parse(PathBuf::from("x.rs"), "x.rs".into(), text)
    }

    #[test]
    fn comments_are_separated_from_code() {
        let f = parse("let x = 1; // unwrap() here is a comment\n");
        assert!(!f.code[0].contains("unwrap"));
        assert!(f.comment[0].contains("unwrap()"));
        assert!(f.code[0].contains("let x = 1;"));
    }

    #[test]
    fn string_contents_are_blanked() {
        let f = parse("let s = \"call unwrap() now\"; s.len();\n");
        assert!(!f.code[0].contains("unwrap"));
        assert!(f.code[0].contains("s.len()"));
        // Quotes survive so tokens do not merge across the literal.
        assert_eq!(f.code[0].matches('"').count(), 2);
    }

    #[test]
    fn raw_strings_and_escapes() {
        let f = parse("let a = r#\"panic!()\"#; let b = \"\\\"panic!\"; go();\n");
        assert!(!f.code[0].contains("panic"));
        assert!(f.code[0].contains("go()"));
    }

    #[test]
    fn block_comments_nest_and_span_lines() {
        let f = parse("a(); /* outer /* inner unwrap() */ still */ b();\nc();\n");
        assert!(f.code[0].contains("a()"));
        assert!(f.code[0].contains("b()"));
        assert!(!f.code[0].contains("unwrap"));
        assert!(f.code[1].contains("c()"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let f = parse("fn f<'a>(x: &'a str) -> &'a str { x }\nlet c = 'x';\n");
        assert!(f.code[0].contains("'a"));
        assert!(!f.code[1].contains('x'));
        assert!(f.code[1].starts_with("let c = '"));
    }

    #[test]
    fn cfg_test_bodies_are_marked() {
        let f = parse(
            "fn live() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn t() { y.unwrap(); }\n}\nfn live2() {}\n",
        );
        assert!(!f.is_test_line(0));
        assert!(f.is_test_line(1));
        assert!(f.is_test_line(3));
        assert!(f.is_test_line(4));
        assert!(!f.is_test_line(5));
    }

    #[test]
    fn a_cfg_test_field_or_arm_masks_only_itself() {
        let f = parse(
            "let o = Outbox {\n    a: 1,\n    #[cfg(test)]\n    b: f(x, y),\n    c: 2,\n};\nmatch k {\n    #[cfg(test)]\n    K::T => t(),\n    K::L => l(),\n}\n",
        );
        let marked: Vec<usize> = (0..11).filter(|&l| f.is_test_line(l)).collect();
        assert_eq!(marked, [2, 3, 7, 8]);
        // Commas in a test fn's generics or arguments do not end its mask.
        let f =
            parse("#[cfg(test)]\nfn h<A, B>(a: A,\n b: B) {\n    a.unwrap();\n}\nfn live() {}\n");
        let marked: Vec<usize> = (0..6).filter(|&l| f.is_test_line(l)).collect();
        assert_eq!(marked, [0, 1, 2, 3, 4]);
    }

    #[test]
    fn allows_are_parsed_with_reasons() {
        let f = parse("// lint:allow(hot-path-panic) scripted test double\nx.unwrap();\n");
        assert_eq!(f.allows.len(), 1);
        assert_eq!(f.allows[0].rule, "hot-path-panic");
        assert_eq!(f.allows[0].reason, "scripted test double");
        assert!(f.allow_for("hot-path-panic", 1).is_some());
        assert!(f.allow_for("unsafe-safety", 1).is_none());
        assert!(f.allow_for("hot-path-panic", 2).is_none());
    }
}
