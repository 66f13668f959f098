//! Bounded-interleaving model checker for the lock-free trace layer and
//! the poll engine's readiness-doorbell protocol.
//!
//! A miniature `loom`: instead of instrumenting every atomic, it runs the
//! real structures under two exploration strategies —
//!
//! * **systematic** — sleep-set partial-order exploration of every
//!   inequivalent merge order of scripted op programs, executed
//!   sequentially (see [`dpor`]; validates eviction/sequencing/protocol
//!   logic deterministically, with no lucky seed);
//! * **randomized** — real OS threads whose op programs (op counts,
//!   values, pauses) are derived entirely from a schedule seed, released
//!   together through a barrier to maximize real contention.
//!
//! Every randomized failure carries the schedule seed that produced it;
//! replaying is
//! `cargo run -p xtask -- model --check <name> --seed <seed> --schedules 1`.
//! Randomized replays rerun the same op programs under OS scheduling, so
//! a failing seed is a *program*, not a single interleaving — rerun it a
//! few times (or raise `--schedules`) when hunting flaky interleavings.
//! Systematic failures instead carry the exact interleaving as a digit
//! string; `--schedule <digits>` replays that one schedule precisely.
//! The op-level models of this repo's historical races live in
//! [`programs`] and are pinned by the regression tests.

pub mod checks;
pub mod dpor;
pub mod programs;
pub mod rng;
pub mod socket;

pub use checks::{find_check, Check, CheckCtx, Kind, CHECKS};

use std::fmt;

/// Configuration for one model run.
pub struct ModelConfig {
    /// Randomized schedules per check.
    pub schedules: u64,
    /// Master seed; schedule `i` of each check derives from it (schedule
    /// 0 uses it directly, which is what makes `--seed` replay exact).
    pub seed: u64,
    /// Worker threads per randomized schedule.
    pub threads: usize,
    /// Restrict to one check by name.
    pub check: Option<String>,
    /// Replay exactly this interleaving (systematic checks only).
    pub schedule: Option<Vec<usize>>,
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig {
            schedules: 200,
            seed: 0x4E58_5553, // "NXUS"
            threads: 4,
            check: None,
            schedule: None,
        }
    }
}

/// An invariant violation, with everything needed to replay it.
#[derive(Debug)]
pub struct Failure {
    /// Which check failed.
    pub check: &'static str,
    /// The schedule seed that produced the violation.
    pub seed: u64,
    /// The exact interleaving, for systematic checks.
    pub schedule: Option<String>,
    /// The violated invariant.
    pub detail: String,
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "model check `{}` failed: {}", self.check, self.detail)?;
        match &self.schedule {
            Some(s) => write!(
                f,
                "replay with: cargo run -p xtask -- model --check {} --schedule {s}",
                self.check
            ),
            None => write!(
                f,
                "replay with: cargo run -p xtask -- model --check {} --seed {} --schedules 1",
                self.check, self.seed
            ),
        }
    }
}

/// Summary of a clean run.
#[derive(Debug)]
pub struct Report {
    /// `(check name, schedules executed)` per check.
    pub checks: Vec<(&'static str, u64)>,
}

impl Report {
    /// Total schedules executed across all checks.
    pub fn total_schedules(&self) -> u64 {
        self.checks.iter().map(|(_, n)| n).sum()
    }
}

/// Tags a check's seed stream by its name (FNV-1a).
fn name_tag(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Runs the configured checks; stops at the first violation.
pub fn run(cfg: &ModelConfig) -> Result<Report, Failure> {
    let mut report = Report { checks: Vec::new() };
    for check in CHECKS {
        if cfg.check.as_deref().is_some_and(|c| c != check.name) {
            continue;
        }
        match check.kind {
            Kind::Systematic => {
                let cx = CheckCtx {
                    seed: cfg.seed,
                    threads: 2,
                    schedule: cfg.schedule.clone(),
                };
                let n = (check.run)(&cx).map_err(|detail| Failure {
                    check: check.name,
                    seed: cfg.seed,
                    schedule: dpor::extract_schedule(&detail),
                    detail,
                })?;
                report.checks.push((check.name, n));
            }
            Kind::Randomized => {
                for i in 0..cfg.schedules {
                    // Schedule 0 replays `--seed` exactly; later schedules
                    // draw from the per-check derived stream.
                    let seed = if i == 0 {
                        cfg.seed
                    } else {
                        rng::derive(cfg.seed, name_tag(check.name), i)
                    };
                    let cx = CheckCtx {
                        seed,
                        threads: cfg.threads.max(2),
                        schedule: None,
                    };
                    (check.run)(&cx).map_err(|detail| Failure {
                        check: check.name,
                        seed,
                        schedule: None,
                        detail,
                    })?;
                }
                report.checks.push((check.name, cfg.schedules));
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_run_is_clean_at_small_scale() {
        let cfg = ModelConfig {
            schedules: 10,
            ..ModelConfig::default()
        };
        let report = run(&cfg).expect("trace structures hold their invariants");
        assert_eq!(report.checks.len(), CHECKS.len());
    }

    #[test]
    fn unknown_check_filter_runs_nothing() {
        let cfg = ModelConfig {
            check: Some("no-such-check".into()),
            schedules: 1,
            ..ModelConfig::default()
        };
        let report = run(&cfg).unwrap();
        assert!(report.checks.is_empty());
    }

    #[test]
    fn schedule_zero_uses_the_master_seed() {
        // Replaying with --seed S --schedules 1 must execute seed S.
        let cfg = ModelConfig {
            schedules: 1,
            seed: 12345,
            check: Some("ring-seq-order".into()),
            ..ModelConfig::default()
        };
        let report = run(&cfg).unwrap();
        assert_eq!(report.checks, vec![("ring-seq-order", 1)]);
    }
}
