//! Op-level models of the repo's historical races, for the systematic
//! explorer.
//!
//! Each model splits the once-buggy algorithm into the micro-ops whose
//! interleaving constituted the bug, so [`super::dpor`] re-finds the race
//! by enumeration — deterministically, with no lucky seed — and the fixed
//! counterpart (the micro-ops fused back into one atomic step, exactly
//! what the production fix did) passes every schedule. The regression
//! tests pin both directions plus the minimal violating schedule.
//!
//! * **seq-ring** — PR 2's `EventRing::push` race: the sequence number
//!   was claimed before the slot lock, so two threads could claim seqs
//!   in one order and insert in the other. Modeled as `reserve` /
//!   `commit` micro-ops; the fix draws the seq under the same lock that
//!   orders the insert (one fused op).
//! * **ewma-first** — PR 2's EWMA init race: a sample could fold against
//!   the pre-init average instead of becoming the first sample. Modeled
//!   as `claim` / `read` / `write` micro-ops; the fix makes the
//!   claim-or-fold decision and the update one atomic step.
//! * **doorbell** — PR 5's poll-engine ordering bug: clearing the ready
//!   flag *after* draining loses a ring that lands in between (the
//!   producer saw `true`, queued no token, and the message strands).
//!   The fix clears before draining, so a mid-drain ring re-queues.
//! * **stage-flush** — TCP write staging (`transports::tcp`,
//!   `Context::flush_listed`): a stager appends a frame under the writer
//!   lock and, if it took the owner claim (`listed`), puts the connection
//!   on its context's flush list once the lock is released; a dispatch
//!   round pops the entry and flushes; the backstop writes frames that
//!   were already staged at its previous tick. The flush must release the
//!   claim under the writer lock, before its write: released after it, a
//!   frame staged in between finds the claim still held, lists nothing,
//!   and is stranded once the claim goes.

use super::dpor::{self, Explored, Violation};

/// All ops in these models conflict: each one touches the shared
/// structure under test, so no interleaving may be pruned away.
const SHARED: u64 = 1;

// ---------------------------------------------------------------------------
// seq-ring
// ---------------------------------------------------------------------------

#[derive(Default)]
struct RingState {
    next_seq: u64,
    staged: [Option<u64>; 2],
    slots: Vec<u64>,
}

fn ring_footprints(broken: bool) -> Vec<Vec<u64>> {
    let per_thread = if broken {
        vec![SHARED, SHARED] // reserve, then commit — preemptible between
    } else {
        vec![SHARED] // reserve+commit fused
    };
    vec![per_thread.clone(), per_thread]
}

fn ring_step(broken: bool) -> impl Fn(&mut RingState, usize, usize) {
    move |st, t, op| {
        if broken {
            match op {
                0 => {
                    st.staged[t] = Some(st.next_seq);
                    st.next_seq += 1;
                }
                _ => st.slots.push(st.staged[t].expect("commit after reserve")),
            }
        } else {
            let seq = st.next_seq;
            st.next_seq += 1;
            st.slots.push(seq);
        }
    }
}

fn ring_check(st: &mut RingState) -> Result<(), String> {
    for w in st.slots.windows(2) {
        if w[0] >= w[1] {
            return Err(format!(
                "ring order broken: seq {} stored after seq {}",
                w[1], w[0]
            ));
        }
    }
    Ok(())
}

/// Explores the seq-ring model; `broken` selects the split micro-ops.
pub fn explore_seq_ring(broken: bool) -> Result<Explored, Violation> {
    dpor::explore(
        &ring_footprints(broken),
        &RingState::default,
        &ring_step(broken),
        &ring_check,
    )
}

/// Replays one schedule of the seq-ring model.
pub fn replay_seq_ring(broken: bool, schedule: &[usize]) -> Result<(), String> {
    dpor::replay(
        &ring_footprints(broken),
        &RingState::default,
        &ring_step(broken),
        &ring_check,
        schedule,
    )
}

// ---------------------------------------------------------------------------
// ewma-first
// ---------------------------------------------------------------------------

const LEVEL: f64 = 250.0;
const ALPHA: f64 = 0.25;

#[derive(Default)]
struct EwmaState {
    claimed: bool,
    /// Per-thread: did this thread's claim win the init?
    won_init: [bool; 2],
    /// Per-thread: the average read before writing (folders only).
    stash: [f64; 2],
    value: f64,
}

fn ewma_footprints(broken: bool) -> Vec<Vec<u64>> {
    let per_thread = if broken {
        vec![SHARED, SHARED, SHARED] // claim, read, write
    } else {
        vec![SHARED] // one atomic record
    };
    vec![per_thread.clone(), per_thread]
}

fn ewma_step(broken: bool) -> impl Fn(&mut EwmaState, usize, usize) {
    move |st, t, op| {
        if broken {
            match op {
                0 => {
                    st.won_init[t] = !st.claimed;
                    st.claimed = true;
                }
                1 => st.stash[t] = st.value,
                _ => {
                    st.value = if st.won_init[t] {
                        LEVEL
                    } else {
                        st.stash[t] * (1.0 - ALPHA) + LEVEL * ALPHA
                    };
                }
            }
        } else if !st.claimed {
            st.claimed = true;
            st.value = LEVEL;
        } else {
            st.value = st.value * (1.0 - ALPHA) + LEVEL * ALPHA;
        }
    }
}

fn ewma_check(st: &mut EwmaState) -> Result<(), String> {
    if st.value == LEVEL {
        Ok(())
    } else {
        Err(format!(
            "EWMA of a constant {LEVEL} is {}: a sample folded against an \
             uninitialized average",
            st.value
        ))
    }
}

/// Explores the EWMA first-sample model.
pub fn explore_ewma_first(broken: bool) -> Result<Explored, Violation> {
    dpor::explore(
        &ewma_footprints(broken),
        &EwmaState::default,
        &ewma_step(broken),
        &ewma_check,
    )
}

/// Replays one schedule of the EWMA first-sample model.
pub fn replay_ewma_first(broken: bool, schedule: &[usize]) -> Result<(), String> {
    dpor::replay(
        &ewma_footprints(broken),
        &EwmaState::default,
        &ewma_step(broken),
        &ewma_check,
        schedule,
    )
}

// ---------------------------------------------------------------------------
// doorbell
// ---------------------------------------------------------------------------

#[derive(Default)]
struct DoorState {
    /// The source's ready flag.
    flag: bool,
    /// Tokens queued on the engine's ready-list (at most one source).
    tokens: u32,
    /// Messages sitting in the source's inbox.
    queued: u64,
    sent: u64,
    received: u64,
    /// A popped token whose visit is mid-flight between its two micro-ops.
    visiting: bool,
}

impl DoorState {
    fn send(&mut self) {
        self.queued += 1;
        self.sent += 1;
        if !self.flag {
            self.flag = true;
            self.tokens += 1;
        }
    }
    fn drain(&mut self) {
        self.received += self.queued;
        self.queued = 0;
    }
}

fn door_footprints() -> Vec<Vec<u64>> {
    // Producer: two sends. Consumer: two visits of two micro-ops each.
    vec![vec![SHARED; 2], vec![SHARED; 4]]
}

fn door_step(broken: bool) -> impl Fn(&mut DoorState, usize, usize) {
    move |st, t, op| {
        if t == 0 {
            st.send();
            return;
        }
        let first_half = op % 2 == 0;
        if broken {
            // Buggy visit order: drain first, clear the flag after — a
            // send landing in between sees `true` and queues no token.
            if first_half {
                if st.tokens > 0 {
                    st.tokens -= 1;
                    st.visiting = true;
                    st.drain();
                }
            } else if st.visiting {
                st.flag = false;
                st.visiting = false;
            }
        } else {
            // Fixed order: clear before draining, so a mid-visit send
            // re-arms the flag and queues a fresh token.
            if first_half {
                if st.tokens > 0 {
                    st.tokens -= 1;
                    st.visiting = true;
                    st.flag = false;
                }
            } else if st.visiting {
                st.drain();
                st.visiting = false;
            }
        }
    }
}

fn door_check(st: &mut DoorState) -> Result<(), String> {
    // Quiescent drain: no producer is left, so every remaining message
    // must be reachable through a queued token.
    while st.tokens > 0 {
        st.tokens -= 1;
        st.flag = false;
        st.drain();
    }
    if st.received == st.sent {
        Ok(())
    } else {
        Err(format!(
            "missed wakeup: retrieved {} of {} sent ({} stranded behind an \
             un-rung doorbell)",
            st.received, st.sent, st.queued
        ))
    }
}

/// Explores the doorbell visit-ordering model.
pub fn explore_doorbell(broken: bool) -> Result<Explored, Violation> {
    dpor::explore(
        &door_footprints(),
        &DoorState::default,
        &door_step(broken),
        &door_check,
    )
}

/// Replays one schedule of the doorbell visit-ordering model.
pub fn replay_doorbell(broken: bool, schedule: &[usize]) -> Result<(), String> {
    dpor::replay(
        &door_footprints(),
        &DoorState::default,
        &door_step(broken),
        &door_check,
        schedule,
    )
}

// ---------------------------------------------------------------------------
// stage-flush
// ---------------------------------------------------------------------------

/// One connection's staging buffer and owner claim, and its owner
/// context's flush list.
#[derive(Default)]
struct StageState {
    /// Frames in the staging buffer.
    staged: u64,
    /// The owner claim: a context listed the connection and has not
    /// flushed it since.
    listed: bool,
    /// Entries on the owner context's flush list.
    owners: u64,
    /// Stager: the frame it just staged took the claim.
    needs_owner: bool,
    /// Flusher: holds a popped entry.
    holding: bool,
    /// Backstop: frames were staged at its first tick, so they are a full
    /// tick old at its second.
    aged: bool,
    sent: u64,
}

impl StageState {
    /// Stager, under the writer lock: append a frame; the first frame
    /// since the claim was released takes it.
    fn stage(&mut self) {
        self.staged += 1;
        self.sent += 1;
        self.needs_owner = !std::mem::replace(&mut self.listed, true);
    }

    /// Stager, the writer lock released: list the connection with its
    /// context if this frame took the claim.
    fn list(&mut self) {
        if std::mem::take(&mut self.needs_owner) {
            self.owners += 1;
        }
    }

    /// Flusher, under the list lock: pop an entry.
    fn pop(&mut self) {
        if self.owners > 0 {
            self.owners -= 1;
            self.holding = true;
        }
    }

    /// Any writer: everything staged reaches the socket.
    fn write(&mut self) {
        self.staged = 0;
    }
}

/// Ops per dispatch round of the flusher: pop, then the flush — one op
/// under the writer lock (release the claim, write), or, broken, the
/// write and then, after the lock, the release.
fn stage_round(broken: bool) -> usize {
    if broken {
        3
    } else {
        2
    }
}

fn stage_footprints(broken: bool) -> Vec<Vec<u64>> {
    // Stager: two frames, stage + list each. Flusher: two dispatch
    // rounds. Backstop: two ticks.
    vec![
        vec![SHARED; 4],
        vec![SHARED; 2 * stage_round(broken)],
        vec![SHARED; 2],
    ]
}

fn stage_step(broken: bool) -> impl Fn(&mut StageState, usize, usize) {
    move |st, t, op| match t {
        0 if op % 2 == 0 => st.stage(),
        0 => st.list(),
        1 => match op % stage_round(broken) {
            0 => st.pop(),
            1 if st.holding => {
                if !broken {
                    st.listed = false;
                    st.holding = false;
                }
                st.write();
            }
            2 if st.holding => {
                st.listed = false;
                st.holding = false;
            }
            _ => {}
        },
        // The backstop's `try_lock` finds the writer free between ops; a
        // tick that loses it is a tick that finds nothing aged.
        _ if op == 0 => st.aged = st.staged > 0,
        _ => {
            if st.aged {
                st.write();
            }
        }
    }
}

fn stage_check(st: &mut StageState) -> Result<(), String> {
    // Quiescence: nothing stages again. What is still staged must be
    // claimed and on a flush list, whose next round writes it.
    if st.staged == 0 || (st.listed && st.owners > 0) {
        Ok(())
    } else {
        Err(format!(
            "stranded: {} of {} staged frames unwritten, claim {}, {} flush-list \
             entries — no dispatch round will write them",
            st.staged,
            st.sent,
            if st.listed { "held" } else { "released" },
            st.owners
        ))
    }
}

/// Explores the staging owner protocol; `broken` releases the claim after
/// the flush's write instead of before it under the writer lock.
pub fn explore_stage_flush(broken: bool) -> Result<Explored, Violation> {
    dpor::explore(
        &stage_footprints(broken),
        &StageState::default,
        &stage_step(broken),
        &stage_check,
    )
}

/// Replays one schedule of the staging owner protocol.
pub fn replay_stage_flush(broken: bool, schedule: &[usize]) -> Result<(), String> {
    dpor::replay(
        &stage_footprints(broken),
        &StageState::default,
        &stage_step(broken),
        &stage_check,
        schedule,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_variants_pass_every_schedule() {
        for (name, got) in [
            ("seq-ring", explore_seq_ring(false)),
            ("ewma-first", explore_ewma_first(false)),
            ("doorbell", explore_doorbell(false)),
            ("stage-flush", explore_stage_flush(false)),
        ] {
            let stats = got.unwrap_or_else(|v| panic!("{name} fixed variant failed: {v}"));
            assert!(stats.schedules > 0, "{name} explored nothing");
        }
    }

    #[test]
    fn broken_variants_are_refuted_by_enumeration() {
        for (name, got) in [
            ("seq-ring", explore_seq_ring(true)),
            ("ewma-first", explore_ewma_first(true)),
            ("doorbell", explore_doorbell(true)),
            ("stage-flush", explore_stage_flush(true)),
        ] {
            let v = got.expect_err(name);
            // The reported schedule must reproduce the violation when
            // replayed on its own.
            let replayed = match name {
                "seq-ring" => replay_seq_ring(true, &v.schedule),
                "ewma-first" => replay_ewma_first(true, &v.schedule),
                "doorbell" => replay_doorbell(true, &v.schedule),
                _ => replay_stage_flush(true, &v.schedule),
            };
            replayed.expect_err(name);
        }
    }
}
