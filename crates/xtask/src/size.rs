//! The size ratchet: counts what the simplicity aim tracks and compares
//! each count with the committed budget in `crates/xtask/size_budget.json`.
//!
//! A count over its budget fails, and so does a count more than
//! [`SLACK_PERCENT`] % under it: a deletion is locked in by lowering the
//! budget in the change that makes it. Counts:
//!
//! * non-test lines of `crates/core/src` + `crates/transports/src`, and of
//!   `context.rs` and `tcp.rs` on their own. A file's non-test lines are
//!   the lines before its first column-0 `mod tests` of any visibility
//!   ([`non_test_lines`]); everything before that cut counts, `#[cfg(test)]`
//!   items included;
//! * the methods of the `CommObject` trait;
//! * the allows `xtask lint` reports;
//! * every `.rs` line under `vendor/` and `crates/bench`.

use std::io;
use std::path::{Path, PathBuf};

/// How far under its budget a count may fall before the budget must follow.
pub const SLACK_PERCENT: u64 = 2;

/// The budget file, relative to the workspace root.
pub const BUDGET_FILE: &str = "crates/xtask/size_budget.json";

/// One measured count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Count {
    /// The key it has in the budget file.
    pub name: &'static str,
    /// What the tree holds today.
    pub value: u64,
}

/// Lines of `src` before its first column-0 `mod tests`, whatever the
/// module's visibility (`mod tests`, `pub mod tests`, `pub(crate) mod
/// tests`, …). An indented `mod tests` does not cut; a file without one
/// counts whole.
pub fn non_test_lines(src: &str) -> u64 {
    src.lines().take_while(|l| !is_test_module(l)).count() as u64
}

fn is_test_module(line: &str) -> bool {
    let rest = match line.strip_prefix("pub") {
        Some(r) if r.starts_with('(') => r.find(") ").map_or(r, |i| &r[i + 2..]),
        Some(r) => r.trim_start_matches(' '),
        None => line,
    };
    rest.strip_prefix("mod tests")
        .is_some_and(|r| !r.starts_with(|c: char| c.is_alphanumeric() || c == '_'))
}

/// Methods declared in the body of `trait_name` in `src`.
pub fn trait_methods(src: &str, trait_name: &str) -> u64 {
    let head = format!("pub trait {trait_name}");
    src.lines()
        .skip_while(|l| !l.starts_with(&head))
        .skip(1)
        .take_while(|l| !l.starts_with('}'))
        .filter(|l| l.starts_with("    fn "))
        .count() as u64
}

/// `.rs` files under `dir`, recursively, in path order.
fn rust_files(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d)? {
            let path = entry?.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "target") {
                    stack.push(path);
                }
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

fn sum_lines(root: &Path, dirs: &[&str], per_file: fn(&str) -> u64) -> io::Result<u64> {
    let mut total = 0;
    for dir in dirs {
        for path in rust_files(&root.join(dir))? {
            total += per_file(&std::fs::read_to_string(path)?);
        }
    }
    Ok(total)
}

/// Measures every count of the workspace at `root`.
pub fn measure(root: &Path) -> io::Result<Vec<Count>> {
    let file = |rel: &str| std::fs::read_to_string(root.join(rel));
    let all_lines = |src: &str| src.lines().count() as u64;
    let library = ["crates/core/src", "crates/transports/src"];
    Ok(vec![
        Count {
            name: "core_transports_lines",
            value: sum_lines(root, &library, non_test_lines)?,
        },
        Count {
            name: "context_rs_lines",
            value: non_test_lines(&file("crates/core/src/context.rs")?),
        },
        Count {
            name: "tcp_rs_lines",
            value: non_test_lines(&file("crates/transports/src/tcp.rs")?),
        },
        Count {
            name: "comm_object_methods",
            value: trait_methods(&file("crates/core/src/module.rs")?, "CommObject"),
        },
        Count {
            name: "lint_allows",
            value: crate::lint::run(root, None)?.suppressed.len() as u64,
        },
        Count {
            name: "vendor_lines",
            value: sum_lines(root, &["vendor"], all_lines)?,
        },
        Count {
            name: "bench_lines",
            value: sum_lines(root, &["crates/bench"], all_lines)?,
        },
    ])
}

/// Parses the budget file: one flat JSON object of names to counts.
pub fn parse_budget(text: &str) -> Result<Vec<(String, u64)>, String> {
    let body = text
        .trim()
        .strip_prefix('{')
        .and_then(|t| t.strip_suffix('}'))
        .ok_or("the budget is not one JSON object")?;
    body.split(',')
        .filter(|entry| !entry.trim().is_empty())
        .map(|entry| {
            let (key, value) = entry
                .split_once(':')
                .ok_or_else(|| format!("`{}` is not `\"name\": count`", entry.trim()))?;
            let key = key.trim().trim_matches('"').to_owned();
            let value = value
                .trim()
                .parse()
                .map_err(|_| format!("`{key}` has no integer count"))?;
            Ok((key, value))
        })
        .collect()
}

/// Judges one count against its budget: `None` when it holds, else why not.
pub fn judge(value: u64, budget: u64) -> Option<String> {
    if value > budget {
        Some(format!("over budget by {}", value - budget))
    } else if (budget - value) * 100 > budget * SLACK_PERCENT {
        Some(format!(
            "{} under budget (more than {SLACK_PERCENT} %): lower the budget",
            budget - value
        ))
    } else {
        None
    }
}

/// Every failure of `counts` against `budget`, one line each; a count the
/// budget does not name, or a budget entry nothing measures, fails too.
pub fn check(counts: &[Count], budget: &[(String, u64)]) -> Vec<String> {
    let mut failures = Vec::new();
    for c in counts {
        match budget.iter().find(|(k, _)| k == c.name) {
            None => failures.push(format!("{}: {} has no budget", c.name, c.value)),
            Some(&(_, b)) => {
                if let Some(why) = judge(c.value, b) {
                    failures.push(format!("{}: {} against {b}: {why}", c.name, c.value));
                }
            }
        }
    }
    for (k, _) in budget {
        if !counts.iter().any(|c| c.name == k) {
            failures.push(format!("{k}: budgeted but not measured"));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_cut_is_the_first_column_0_test_module_of_any_visibility() {
        for head in [
            "mod tests {",
            "pub mod tests {",
            "pub(crate) mod tests {",
            "pub(super) mod tests {",
            "pub(in crate::x) mod tests {",
            "mod tests;",
        ] {
            let src = format!("fn a() {{}}\n#[cfg(test)]\n{head}\n    fn t() {{}}\n}}\n");
            assert_eq!(non_test_lines(&src), 2, "{head}");
        }
    }

    #[test]
    fn only_a_column_0_module_named_tests_cuts() {
        let src =
            "fn a() {}\nmod tests_support {}\nmod testsx;\nmod outer {\n    mod tests {}\n}\n";
        assert_eq!(non_test_lines(src), 6);
        assert_eq!(non_test_lines("fn a() {}\n"), 1);
        assert_eq!(non_test_lines(""), 0);
    }

    #[test]
    fn cfg_test_items_before_the_cut_count() {
        let src = "\
fn a() {}
#[cfg(test)]
fn helper() {}
#[cfg(test)]
pub(crate) mod tests {
    #[test]
    fn t() {}
}
";
        // `a`, the helper with its attribute, and the module's attribute.
        assert_eq!(non_test_lines(src), 4);
    }

    #[test]
    fn trait_methods_counts_the_trait_body_only() {
        let src = "\
fn outside() {}
pub trait CommObject: Send {
    /// Doc.
    fn method(&self) -> u8;
    fn transfer(
        &self,
    ) -> u8 {
        fn nested() {}
        0
    }
}
impl X {
    fn after() {}
}
";
        assert_eq!(trait_methods(src, "CommObject"), 2);
        assert_eq!(trait_methods(src, "Missing"), 0);
    }

    #[test]
    fn a_count_holds_from_its_budget_down_to_the_slack() {
        assert_eq!(judge(100, 100), None);
        assert_eq!(judge(98, 100), None);
        assert!(judge(101, 100).unwrap().contains("over budget by 1"));
        assert!(judge(97, 100).unwrap().contains("lower the budget"));
        // A small budget: any drop is more than 2 %.
        assert!(judge(5, 6).is_some());
    }

    #[test]
    fn check_names_every_failure() {
        let counts = [
            Count {
                name: "a",
                value: 10,
            },
            Count {
                name: "b",
                value: 3,
            },
        ];
        let budget = parse_budget("{ \"a\": 9, \"c\": 1 }").unwrap();
        let failures = check(&counts, &budget);
        assert_eq!(failures.len(), 3, "{failures:?}");
        assert!(failures[0].starts_with("a: 10 against 9"));
        assert!(failures[1].starts_with("b: 3 has no budget"));
        assert!(failures[2].starts_with("c: budgeted"));
    }

    #[test]
    fn the_budget_parses_and_refuses_garbage() {
        assert_eq!(
            parse_budget("{\n  \"x\": 1,\n  \"y\": 22\n}\n").unwrap(),
            vec![("x".to_owned(), 1), ("y".to_owned(), 22)]
        );
        assert!(parse_budget("[1]").is_err());
        assert!(parse_budget("{\"x\": one}").is_err());
    }

    #[test]
    fn the_committed_budget_names_every_count() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let budget = std::fs::read_to_string(root.join(BUDGET_FILE)).unwrap();
        let budget = parse_budget(&budget).unwrap();
        let counts = measure(&root).unwrap();
        let names: Vec<&str> = counts.iter().map(|c| c.name).collect();
        let keys: Vec<&str> = budget.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, keys);
    }
}
