//! `nexus-lint`: machine-checked invariants for the multimethod runtime.
//!
//! Three engines, all free of external dependencies:
//!
//! * [`lint`] — a source-level analyzer that enforces the domain
//!   invariants `clippy` cannot see: `// SAFETY:` comments on `unsafe`,
//!   no panics on the send/poll hot paths, justified `SeqCst` orderings,
//!   compatible load/store ordering pairs, no blocking calls reachable
//!   from `PollEngine::poll_once` or the adaptive re-selection cost
//!   comparison, and complete communication-module
//!   function tables (the paper's §3.1 contract).
//! * [`model`] — a bounded-interleaving model checker (a mini `loom`)
//!   that hammers the lock-free trace structures (`LogHistogram`,
//!   `Ewma`, the event ring) with exhaustive two-thread schedules and
//!   seeded randomized N-thread schedules, failing with a replayable
//!   seed.
//! * [`size`] — the size ratchet: counts the library's non-test lines and
//!   the other tracked sizes against a committed budget.

pub mod lint;
pub mod model;
pub mod size;
