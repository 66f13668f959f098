//! CLI for the workspace invariant checkers.
//!
//! ```text
//! cargo run -p xtask -- lint  [--root PATH] [--rule NAME] [--json] [--github]
//!                             [--list-rules]
//! cargo run -p xtask -- model [--schedules N] [--seed S] [--threads T]
//!                             [--check NAME] [--schedule DIGITS] [--list-checks]
//! cargo run -p xtask -- size
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => run_lint(&args[1..]),
        Some("model") => run_model(&args[1..]),
        Some("size") => run_size(),
        Some("--help") | Some("-h") | None => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("xtask: unknown command `{other}`\n");
            eprint!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
nexus-lint: workspace invariant checker, bounded-interleaving model checker
and size ratchet

USAGE:
    cargo run -p xtask -- lint  [--root PATH] [--rule NAME] [--json] [--github]
                                [--list-rules]
    cargo run -p xtask -- model [--schedules N] [--seed S] [--threads T]
                                [--check NAME] [--schedule DIGITS] [--list-checks]
    cargo run -p xtask -- size

Exit code is non-zero when any invariant is violated.
";

/// Default workspace root: two levels above this crate's manifest.
fn default_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(|p| p.parent())
        .map(PathBuf::from)
        .unwrap_or(manifest)
}

/// Pulls the value of `--flag VALUE` out of `args`.
fn flag_value(args: &[String], flag: &str) -> Result<Option<String>, String> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == flag {
            return match it.next() {
                Some(v) => Ok(Some(v.clone())),
                None => Err(format!("`{flag}` needs a value")),
            };
        }
    }
    Ok(None)
}

fn run_lint(args: &[String]) -> ExitCode {
    if args.iter().any(|a| a == "--list-rules") {
        for r in xtask::lint::RULES {
            println!("{:<16} {}", r.name, r.description);
        }
        return ExitCode::SUCCESS;
    }
    let parsed = (|| -> Result<(PathBuf, Option<String>), String> {
        let root = flag_value(args, "--root")?
            .map(PathBuf::from)
            .unwrap_or_else(default_root);
        let rule = flag_value(args, "--rule")?;
        if let Some(r) = &rule {
            if xtask::lint::rules::find_rule(r).is_none() {
                return Err(format!("unknown rule `{r}` (try --list-rules)"));
            }
        }
        Ok((root, rule))
    })();
    let (root, rule) = match parsed {
        Ok(v) => v,
        Err(e) => {
            eprintln!("xtask lint: {e}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = match xtask::lint::run(&root, rule.as_deref()) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("xtask lint: cannot scan {}: {e}", root.display());
            return ExitCode::FAILURE;
        }
    };
    let json = args.iter().any(|a| a == "--json");
    let github = args.iter().any(|a| a == "--github");
    if json {
        // One machine-readable document on stdout, nothing else.
        let render = |ds: &[xtask::lint::Diagnostic]| {
            ds.iter().map(|d| d.to_json()).collect::<Vec<_>>().join(",")
        };
        println!(
            "{{\"files_scanned\":{},\"errors\":[{}],\"suppressed\":[{}]}}",
            outcome.files_scanned,
            render(&outcome.errors),
            render(&outcome.suppressed)
        );
        return if outcome.exit_code() == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    for d in &outcome.errors {
        println!("{d}");
    }
    if github {
        // Workflow commands alongside the human output: the runner strips
        // them from the log and pins each finding to its file/line.
        for d in &outcome.errors {
            println!("{}", d.to_github_annotation());
        }
    }
    if !outcome.suppressed.is_empty() {
        println!("allow inventory ({} suppressed):", outcome.suppressed.len());
        for d in &outcome.suppressed {
            println!("  {}:{} [{}] {}", d.file, d.line, d.rule, d.message);
        }
    }
    println!(
        "lint: {} file(s) scanned, {} error(s), {} allowed",
        outcome.files_scanned,
        outcome.errors.len(),
        outcome.suppressed.len()
    );
    if outcome.exit_code() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_model(args: &[String]) -> ExitCode {
    if args.iter().any(|a| a == "--list-checks") {
        for c in xtask::model::CHECKS {
            let kind = match c.kind {
                xtask::model::Kind::Systematic => "systematic",
                xtask::model::Kind::Randomized => "randomized",
            };
            println!("{:<20} [{kind}] {}", c.name, c.description);
        }
        return ExitCode::SUCCESS;
    }
    let parsed = (|| -> Result<xtask::model::ModelConfig, String> {
        let mut cfg = xtask::model::ModelConfig::default();
        if let Some(n) = flag_value(args, "--schedules")? {
            cfg.schedules = n.parse().map_err(|_| format!("bad --schedules `{n}`"))?;
        }
        if let Some(s) = flag_value(args, "--seed")? {
            cfg.seed = s.parse().map_err(|_| format!("bad --seed `{s}`"))?;
        }
        if let Some(t) = flag_value(args, "--threads")? {
            cfg.threads = t.parse().map_err(|_| format!("bad --threads `{t}`"))?;
        }
        if let Some(c) = flag_value(args, "--check")? {
            if xtask::model::find_check(&c).is_none() {
                return Err(format!("unknown check `{c}` (try --list-checks)"));
            }
            cfg.check = Some(c);
        }
        if let Some(s) = flag_value(args, "--schedule")? {
            if cfg.check.is_none() {
                return Err(
                    "`--schedule` needs `--check` (it replays one systematic check)".into(),
                );
            }
            cfg.schedule = Some(xtask::model::dpor::parse_schedule(&s)?);
        }
        Ok(cfg)
    })();
    let cfg = match parsed {
        Ok(c) => c,
        Err(e) => {
            eprintln!("xtask model: {e}");
            return ExitCode::FAILURE;
        }
    };
    match xtask::model::run(&cfg) {
        Ok(report) => {
            for (name, n) in &report.checks {
                println!("model: {name}: ok ({n} schedule(s))");
            }
            println!(
                "model: {} check(s), {} schedule(s) total, seed {}",
                report.checks.len(),
                report.total_schedules(),
                cfg.seed
            );
            ExitCode::SUCCESS
        }
        Err(failure) => {
            eprintln!("{failure}");
            ExitCode::FAILURE
        }
    }
}

fn run_size() -> ExitCode {
    use xtask::size;
    let root = default_root();
    let budget = std::fs::read_to_string(root.join(size::BUDGET_FILE))
        .map_err(|e| e.to_string())
        .and_then(|text| size::parse_budget(&text));
    let (budget, counts) = match (budget, size::measure(&root)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) => {
            eprintln!("xtask size: cannot read {}: {e}", size::BUDGET_FILE);
            return ExitCode::FAILURE;
        }
        (_, Err(e)) => {
            eprintln!("xtask size: cannot scan {}: {e}", root.display());
            return ExitCode::FAILURE;
        }
    };
    for c in &counts {
        let b = budget.iter().find(|(k, _)| k == c.name).map(|&(_, b)| b);
        println!(
            "{:<24} {:>7}  budget {:>7}",
            c.name,
            c.value,
            b.unwrap_or(0)
        );
    }
    let failures = size::check(&counts, &budget);
    for f in &failures {
        println!("size: {f}");
    }
    println!(
        "size: {} count(s), {} failure(s)",
        counts.len(),
        failures.len()
    );
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
