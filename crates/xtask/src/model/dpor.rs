//! Systematic bounded exploration with sleep-set partial-order reduction.
//!
//! The randomized checks in [`super::checks`] find races by brute
//! contention: real threads, seeded programs, OS preemption. This module
//! is the complementary *systematic* tier: a spec describes per-thread op
//! programs over a shared state, and the explorer enumerates every
//! inequivalent interleaving — no seeds, no luck, and a violation is
//! reported as the exact schedule that produced it.
//!
//! ## Execution model
//!
//! * A **spec** is `footprints` (one `Vec<u64>` per thread: a footprint
//!   bitmask per op), an `init` that builds a fresh state, a `step` that
//!   executes one `(thread, op_index)` against the state, and a `check`
//!   run after every complete schedule.
//! * Execution is sequential and deterministic: ops are the atomicity
//!   granularity. Races *between* ops are exposed by splitting a logical
//!   operation into micro-ops (see [`super::programs`]); races *inside*
//!   the real structures stay the randomized tier's job.
//! * Two ops are **independent** iff their footprint masks are disjoint.
//!   That label is the spec author's promise that the ops commute on the
//!   state; the explorer prunes interleavings that only reorder
//!   independent ops (classic sleep sets, the reduction DPOR refines).
//!   Sleep sets keep at least one representative per Mazurkiewicz trace,
//!   so an end-of-schedule `check` over commuting ops loses nothing.
//! * There is no in-place backtracking: each complete schedule re-runs
//!   from a fresh `init`, so real structures (rings, doorbells, ready
//!   lists) can be explored without snapshot support.
//!
//! ## Schedules
//!
//! A schedule is the sequence of thread choices, encoded as a digit
//! string (`"0110"` = t0, t1, t1, t0). Failures embed it as a trailing
//! `[schedule NNN]` marker; `--schedule` replays exactly that
//! interleaving.

use std::fmt;

/// Cap on complete schedules per exploration: specs are meant to stay
/// tiny, and blowing through this means the spec grew, not the bug.
pub const SCHEDULE_LIMIT: u64 = 200_000;

/// Statistics from one exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Explored {
    /// Complete schedules executed and checked.
    pub schedules: u64,
    /// Subtrees skipped because every enabled thread was asleep (each is
    /// an interleaving class already covered by an explored sibling).
    pub pruned: u64,
}

/// A schedule that violated the spec's invariant.
#[derive(Debug)]
pub struct Violation {
    /// The thread-choice sequence that failed.
    pub schedule: Vec<usize>,
    /// The violated invariant, as reported by the spec's `check`.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [schedule {}]", self.detail, encode(&self.schedule))
    }
}

/// Renders a schedule as the digit string `--schedule` accepts.
pub fn encode(schedule: &[usize]) -> String {
    schedule
        .iter()
        .map(|&t| {
            debug_assert!(t < 10, "schedule encoding is single-digit per thread");
            char::from(b'0' + t as u8)
        })
        .collect()
}

/// Parses a `--schedule` digit string.
pub fn parse_schedule(s: &str) -> Result<Vec<usize>, String> {
    s.chars()
        .map(|c| {
            c.to_digit(10)
                .map(|d| d as usize)
                .ok_or_else(|| format!("bad schedule digit `{c}` in `{s}`"))
        })
        .collect()
}

/// Pulls the `[schedule NNN]` marker out of a failure detail, if any.
pub fn extract_schedule(detail: &str) -> Option<String> {
    let start = detail.rfind("[schedule ")?;
    let rest = &detail[start + "[schedule ".len()..];
    let end = rest.find(']')?;
    let digits = &rest[..end];
    (!digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit())).then(|| digits.to_string())
}

/// Explores every sleep-set-inequivalent interleaving of the spec's
/// programs, running `check` on the final state of each. Returns the
/// first violation with its schedule, or exploration statistics.
pub fn explore<S>(
    footprints: &[Vec<u64>],
    init: &dyn Fn() -> S,
    step: &dyn Fn(&mut S, usize, usize),
    check: &dyn Fn(&mut S) -> Result<(), String>,
) -> Result<Explored, Violation> {
    let mut stats = Explored {
        schedules: 0,
        pruned: 0,
    };
    let mut prefix = Vec::new();
    let mut pc = vec![0usize; footprints.len()];
    dfs(
        footprints,
        init,
        step,
        check,
        &mut prefix,
        &mut pc,
        &[],
        &mut stats,
    )?;
    Ok(stats)
}

#[allow(clippy::too_many_arguments)]
fn dfs<S>(
    footprints: &[Vec<u64>],
    init: &dyn Fn() -> S,
    step: &dyn Fn(&mut S, usize, usize),
    check: &dyn Fn(&mut S) -> Result<(), String>,
    prefix: &mut Vec<usize>,
    pc: &mut [usize],
    sleep: &[usize],
    stats: &mut Explored,
) -> Result<(), Violation> {
    let enabled: Vec<usize> = (0..footprints.len())
        .filter(|&t| pc[t] < footprints[t].len())
        .collect();
    if enabled.is_empty() {
        stats.schedules += 1;
        if stats.schedules > SCHEDULE_LIMIT {
            return Err(Violation {
                schedule: prefix.clone(),
                detail: format!("state space exceeds {SCHEDULE_LIMIT} schedules; shrink the spec"),
            });
        }
        let mut state = run_schedule(footprints, init, step, prefix);
        return check(&mut state).map_err(|detail| Violation {
            schedule: prefix.clone(),
            detail,
        });
    }
    let runnable: Vec<usize> = enabled
        .iter()
        .copied()
        .filter(|t| !sleep.contains(t))
        .collect();
    if runnable.is_empty() {
        // Every enabled thread is asleep: any continuation from here only
        // reorders independent ops of an already-explored sibling.
        stats.pruned += 1;
        return Ok(());
    }
    let mut explored: Vec<usize> = Vec::new();
    for &t in &runnable {
        let mask = footprints[t][pc[t]];
        // A sleeper stays asleep only while its next op is independent of
        // the op we are about to take; a conflict wakes it.
        let child_sleep: Vec<usize> = sleep
            .iter()
            .chain(explored.iter())
            .copied()
            .filter(|&u| footprints[u][pc[u]] & mask == 0)
            .collect();
        prefix.push(t);
        pc[t] += 1;
        dfs(
            footprints,
            init,
            step,
            check,
            prefix,
            pc,
            &child_sleep,
            stats,
        )?;
        pc[t] -= 1;
        prefix.pop();
        explored.push(t);
    }
    Ok(())
}

/// Executes one complete schedule from a fresh state.
fn run_schedule<S>(
    footprints: &[Vec<u64>],
    init: &dyn Fn() -> S,
    step: &dyn Fn(&mut S, usize, usize),
    schedule: &[usize],
) -> S {
    let mut state = init();
    let mut pc = vec![0usize; footprints.len()];
    for &t in schedule {
        step(&mut state, t, pc[t]);
        pc[t] += 1;
    }
    state
}

/// Replays exactly one schedule and checks it. The schedule must be a
/// complete, valid interleaving of the spec's programs.
pub fn replay<S>(
    footprints: &[Vec<u64>],
    init: &dyn Fn() -> S,
    step: &dyn Fn(&mut S, usize, usize),
    check: &dyn Fn(&mut S) -> Result<(), String>,
    schedule: &[usize],
) -> Result<(), String> {
    let mut want = vec![0usize; footprints.len()];
    for (i, &t) in schedule.iter().enumerate() {
        if t >= footprints.len() {
            return Err(format!(
                "schedule step {i} names thread {t}, but the spec has {} threads",
                footprints.len()
            ));
        }
        want[t] += 1;
        if want[t] > footprints[t].len() {
            return Err(format!(
                "schedule runs thread {t} {} times, but its program has {} ops",
                want[t],
                footprints[t].len()
            ));
        }
    }
    for (t, fp) in footprints.iter().enumerate() {
        if want[t] != fp.len() {
            return Err(format!(
                "schedule runs thread {t} {} of {} ops (incomplete schedule)",
                want[t],
                fp.len()
            ));
        }
    }
    let mut state = run_schedule(footprints, init, step, schedule);
    check(&mut state).map_err(|detail| format!("{detail} [schedule {}]", encode(schedule)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// Counting spec: every op appends its thread id; check always passes.
    fn count_interleavings(footprints: &[Vec<u64>]) -> Explored {
        explore(
            footprints,
            &Vec::<usize>::new,
            &|log: &mut Vec<usize>, t, _| log.push(t),
            &|_| Ok(()),
        )
        .expect("counting spec has no violations")
    }

    #[test]
    fn dependent_ops_enumerate_every_interleaving() {
        // 2 threads x 2 ops, all on one resource: C(4,2) = 6 schedules.
        let fps = vec![vec![1, 1], vec![1, 1]];
        let got = count_interleavings(&fps);
        assert_eq!(got.schedules, 6);
        assert_eq!(got.pruned, 0);
    }

    #[test]
    fn independent_ops_are_reduced_to_one_representative() {
        // 2 threads x 2 ops on disjoint resources: all 6 interleavings
        // are one Mazurkiewicz trace; sleep sets keep exactly 1.
        let fps = vec![vec![1, 1], vec![2, 2]];
        let got = count_interleavings(&fps);
        assert_eq!(got.schedules, 1);
        assert!(got.pruned > 0);
    }

    #[test]
    fn mixed_footprints_prune_but_keep_all_conflict_orders() {
        // Threads conflict on resource 4 only in their second op; the
        // reduction must still explore both orders of that conflict.
        let fps = vec![vec![1, 4], vec![2, 4]];
        let got = count_interleavings(&fps);
        assert!(got.schedules >= 2, "both conflict orders: {got:?}");
        assert!(got.schedules < 6, "some reduction happened: {got:?}");
    }

    #[test]
    fn a_violating_schedule_is_reported_and_replays() {
        // One resource; the invariant "thread 0 finished first" fails for
        // some interleaving, and the reported schedule must reproduce it.
        let fps = vec![vec![1], vec![1]];
        let spec_check = |log: &mut Vec<usize>| -> Result<(), String> {
            if log.first() == Some(&0) {
                Ok(())
            } else {
                Err("thread 1 won".into())
            }
        };
        let v = explore(
            &fps,
            &Vec::<usize>::new,
            &|log: &mut Vec<usize>, t, _| log.push(t),
            &spec_check,
        )
        .expect_err("some schedule violates");
        assert_eq!(encode(&v.schedule), "10");
        let replayed = replay(
            &fps,
            &Vec::<usize>::new,
            &|log: &mut Vec<usize>, t, _| log.push(t),
            &spec_check,
            &v.schedule,
        )
        .expect_err("replay reproduces the violation");
        assert!(replayed.contains("[schedule 10]"), "{replayed}");
    }

    #[test]
    fn replay_rejects_malformed_schedules() {
        let fps = vec![vec![1], vec![1]];
        let init = || Cell::new(0u64);
        let step = |c: &mut Cell<u64>, _: usize, _: usize| c.set(c.get() + 1);
        let ok = |_: &mut Cell<u64>| Ok(());
        let err = replay(&fps, &init, &step, &ok, &[0, 2]).unwrap_err();
        assert!(err.contains("names thread 2"), "{err}");
        let err = replay(&fps, &init, &step, &ok, &[0, 0]).unwrap_err();
        assert!(err.contains("thread 0 2 times"), "{err}");
        let err = replay(&fps, &init, &step, &ok, &[0]).unwrap_err();
        assert!(err.contains("incomplete"), "{err}");
        replay(&fps, &init, &step, &ok, &[1, 0]).unwrap();
    }

    #[test]
    fn schedule_markers_round_trip() {
        assert_eq!(parse_schedule("0110").unwrap(), vec![0, 1, 1, 0]);
        assert!(parse_schedule("01x0").is_err());
        assert_eq!(
            extract_schedule("missed wakeup: 1 of 2 [schedule 0110]").as_deref(),
            Some("0110")
        );
        assert_eq!(extract_schedule("no marker here"), None);
        assert_eq!(extract_schedule("[schedule abc]"), None);
    }
}
