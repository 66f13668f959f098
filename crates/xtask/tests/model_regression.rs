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
// lived, plus the protocol variants current designs rule out (a socket
// re-arm that does not re-evaluate readiness; a TCP staging flush that
// releases its owner claim after the write instead of before it under
// the writer lock — `001120011112`: a frame staged between the write and
// the release lists nothing and strands). Unlike the seeds, these pins
// are *deterministic*: the sleep-set
// explorer re-finds each race by enumeration on every run — no lucky
// seed — and the exact violating interleaving is pinned as a schedule
// digit string. The fixed counterparts (micro-ops fused, as the
// production fixes did) must pass every schedule.

/// (model, pinned first violating schedule found by exploration)
const PINNED: &[(&str, &str)] = &[
    ("seq-ring", "0110"),
    ("ewma-first", "001101"),
    ("doorbell", "010111"),
    ("rearm", "01223333333303"),
    ("stage-flush", "001120011112"),
];

fn explore(model: &str, broken: bool) -> Result<dpor::Explored, dpor::Violation> {
    match model {
        "seq-ring" => programs::explore_seq_ring(broken),
        "ewma-first" => programs::explore_ewma_first(broken),
        "doorbell" => programs::explore_doorbell(broken),
        "rearm" => programs::explore_rearm(broken),
        "stage-flush" => programs::explore_stage_flush(broken),
        other => panic!("unknown model {other}"),
    }
}

fn replay_schedule(model: &str, broken: bool, schedule: &[usize]) -> Result<(), String> {
    match model {
        "seq-ring" => programs::replay_seq_ring(broken, schedule),
        "ewma-first" => programs::replay_ewma_first(broken, schedule),
        "doorbell" => programs::replay_doorbell(broken, schedule),
        "rearm" => programs::replay_rearm(broken, schedule),
        "stage-flush" => programs::replay_stage_flush(broken, schedule),
        other => panic!("unknown model {other}"),
    }
}

#[test]
fn dpor_refinds_every_historical_race_deterministically() {
    for &(model, pinned) in PINNED {
        let v =
            explore(model, true).expect_err("the broken variant must be refuted by enumeration");
        assert_eq!(
            dpor::encode(&v.schedule),
            pinned,
            "{model}: the explorer's first violation drifted"
        );
    }
}

#[test]
fn pinned_schedules_replay_to_the_same_violation() {
    for &(model, pinned) in PINNED {
        let schedule = dpor::parse_schedule(pinned).unwrap();
        let err = replay_schedule(model, true, &schedule)
            .expect_err("pinned schedule must still violate the broken model");
        assert!(
            err.contains(&format!("[schedule {pinned}]")),
            "{model}: {err}"
        );
        // Once the micro-ops are fused the way the production fix fused
        // them, no schedule of the model can violate at all.
        explore(model, false).expect("the fixed variant passes every schedule");
    }
}
