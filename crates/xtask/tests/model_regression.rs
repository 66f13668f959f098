//! Regression tests replaying schedule seeds that found real races.
//!
//! A randomized seed is a *program* (op counts, values, pause lengths),
//! not a single interleaving — the OS still schedules the threads — so
//! each replay reruns the seed's program many times. Schedule 0 of a run
//! uses the master seed directly (that is the replay contract printed in
//! every failure message), and the remaining schedules hunt neighboring
//! programs derived from it.
//!
//! ## ring-seq-order
//!
//! Before `EventRing::push` drew its sequence number under the slot
//! lock (crates/core/src/trace.rs), two threads could claim seqs in one
//! order and insert into the ring in the other, so the `ring-seq-order`
//! model check failed with out-of-order sequences (e.g. "seq 85 stored
//! after seq 38"). The seeds below are the exact failing seeds captured
//! from those pre-fix runs:
//!
//! * `2217750873614213955` — derived under master seed 1
//! * `15921625141799859312` — derived under master seed 3
//!
//! ## doorbell
//!
//! The poll engine's readiness tier must clear a source's ready flag
//! with an Acquire-swap *before* polling it (crates/core/src/poll.rs,
//! `PollEngine::drain_ready`): a producer ringing mid-drain then
//! observes `false` and re-queues the token. Clearing *after* the drain
//! instead loses that ring — the producer saw `true`, queued nothing,
//! and the message strands behind an un-rung doorbell. The seeds below
//! were captured by running the `doorbell` check against exactly that
//! broken ordering (clear moved below the drain loop), where each failed
//! within 3000 schedules as "missed wakeup: retrieved N of M sent":
//!
//! * `4151209476244410783` — derived under master seed 1
//! * `11309951222947488521` — derived under master seed 3

use xtask::model::socket::{self, Kernel, Program, Start};
use xtask::model::{dpor, programs, run, ModelConfig};

/// Replays a captured seed as the master seed of a single-check run.
fn replay(check: &str, seed: u64, schedules: u64) {
    let cfg = ModelConfig {
        schedules,
        seed,
        threads: 4,
        check: Some(check.into()),
        schedule: None,
    };
    match run(&cfg) {
        Ok(report) => assert_eq!(report.checks, vec![(check, schedules)]),
        Err(failure) => panic!("regressed: {failure}"),
    }
}

#[test]
fn ring_seq_order_seed_from_master_1_stays_fixed() {
    replay("ring-seq-order", 2217750873614213955, 300);
}

#[test]
fn ring_seq_order_seed_from_master_3_stays_fixed() {
    replay("ring-seq-order", 15921625141799859312, 300);
}

#[test]
fn doorbell_seed_from_master_1_stays_fixed() {
    replay("doorbell", 4151209476244410783, 300);
}

#[test]
fn doorbell_seed_from_master_3_stays_fixed() {
    replay("doorbell", 11309951222947488521, 300);
}

// ---------------------------------------------------------------------------
// Systematic (DPOR) regressions
// ---------------------------------------------------------------------------
//
// The op-level models in `xtask::model::programs` encode the three
// historical races above at the micro-op granularity where each bug
// lived, plus a protocol variant the current design rules out (a TCP
// staging flush that releases its owner claim after the write instead of
// before it under the writer lock — `001120011112`: a frame staged
// between the write and the release lists nothing and strands). Unlike
// the seeds, these pins are *deterministic*: the sleep-set explorer
// re-finds each race by enumeration on every run — no lucky seed — and
// the exact violating interleaving is pinned as a schedule digit string.
// The fixed counterparts (micro-ops fused, as the production fixes did)
// must pass every schedule.
//
// `rearm` is a property of the model kernel, not of a model of our code:
// `xtask::model::socket` drives the shipped `reactor::SourceState`, and
// its broken run swaps the level-triggered `EPOLL_CTL_MOD` for one that
// only watches for new arrivals. Schedule `0122331333333`: the announced
// scan accepts the first peer, the second connects before the listener's
// re-arm, and that re-arm never announces it while the connection stays
// hot.

/// (model, pinned first violating schedule found by exploration)
const PINNED: &[(&str, &str)] = &[
    ("seq-ring", "0110"),
    ("ewma-first", "001101"),
    ("doorbell", "010111"),
    ("rearm", "0122331333333"),
    ("stage-flush", "001120011112"),
];

/// Explores (`schedule` `None`) or replays `model`; a violation is its
/// report, schedule marker included.
fn model_run(model: &str, broken: bool, schedule: Option<&[usize]>) -> Result<(), String> {
    let mirror = |explore: fn(bool) -> Result<dpor::Explored, dpor::Violation>,
                  replay: fn(bool, &[usize]) -> Result<(), String>| {
        match schedule {
            Some(s) => replay(broken, s),
            None => explore(broken).map(drop).map_err(|v| v.to_string()),
        }
    };
    match model {
        "seq-ring" => mirror(programs::explore_seq_ring, programs::replay_seq_ring),
        "ewma-first" => mirror(programs::explore_ewma_first, programs::replay_ewma_first),
        "doorbell" => mirror(programs::explore_doorbell, programs::replay_doorbell),
        "stage-flush" => mirror(programs::explore_stage_flush, programs::replay_stage_flush),
        "rearm" => {
            let kernel = if broken {
                Kernel::EdgeOnly
            } else {
                Kernel::Level
            };
            socket::run(Program::Rearm, kernel, Start::Cold, schedule).map(drop)
        }
        other => panic!("unknown model {other}"),
    }
}

#[test]
fn dpor_refinds_every_historical_race_deterministically() {
    for &(model, pinned) in PINNED {
        let v = model_run(model, true, None)
            .expect_err("the broken variant must be refuted by enumeration");
        assert_eq!(
            dpor::extract_schedule(&v).as_deref(),
            Some(pinned),
            "{model}: the explorer's first violation drifted: {v}"
        );
    }
}

#[test]
fn pinned_schedules_replay_to_the_same_violation() {
    for &(model, pinned) in PINNED {
        let schedule = dpor::parse_schedule(pinned).unwrap();
        let err = model_run(model, true, Some(&schedule))
            .expect_err("pinned schedule must still violate the broken model");
        assert!(
            err.contains(&format!("[schedule {pinned}]")),
            "{model}: {err}"
        );
        // Once the micro-ops are fused the way the production fix fused
        // them (or the kernel re-evaluates readiness), no schedule of the
        // model can violate at all.
        model_run(model, false, None).expect("the fixed variant passes every schedule");
    }
}
