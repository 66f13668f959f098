//! # nexus-bench: regenerating every table and figure of the paper
//!
//! Each experiment of the SC '96 evaluation has a runner here and a binary
//! that prints the same rows/series the paper reports:
//!
//! | paper artifact | runner | binary |
//! |----------------|--------|--------|
//! | Fig. 4 (one-way time vs size; raw MPL / Nexus-MPL / Nexus-MPL+TCP) | [`fig4`] | `cargo run -p nexus-bench --bin fig4` |
//! | Fig. 6 (one-way time vs skip_poll, dual ping-pong, 0 B & 10 KB) | [`fig6`] | `cargo run -p nexus-bench --bin fig6` |
//! | Table 1 (coupled climate model, s/timestep) | [`table1`] | `cargo run -p nexus-bench --bin table1` |
//! | §4 MPICH-on-Nexus layering overhead (~6 %) | [`overhead`] | `cargo run -p nexus-bench --bin mpich_overhead` |
//! | §3.3 probe-cost differential (15 µs vs >100 µs) | [`pollcost`] | `cargo run -p nexus-bench --bin pollcost` |
//!
//! `cargo run -p nexus-bench --bin all` runs everything and is what
//! EXPERIMENTS.md records. [`ablation`] quantifies individual design
//! choices (lightweight startpoints, connection sharing, adaptive
//! skip_poll) via `--bin ablation`.
//!
//! `--bin gate` ([`harness`]) is the regression gate for the three tracked
//! files. Each file has a scenario table, and each row is gated as a ratio
//! to a reference measured beside it:
//!
//! | tracked file | table | rows | reference |
//! |--------------|-------|------|-----------|
//! | `BENCH_rsr.json` | [`rsrpath`] (`gate rsr`) | `Context::rsr` round trip: links × payload, idle sources, worker pool | bare queue `send` + `poll`, no `Context` |
//! | `BENCH_stripe.json` | [`patterns`] (`gate stripe`) | rail / fan / striped-scatter × links × payload | one-link rail, same payload |
//! | `BENCH_bulk.json` | [`bulkpath`] (`gate bulk`) | inline / pull-map / pull-wire × payload | `stripe-raw`, same links and payload |

#![warn(missing_docs)]

pub mod ablation;
pub mod bulkpath;
pub mod fig4;
pub mod fig6;
pub mod harness;
pub mod overhead;
pub mod patterns;
pub mod pollcost;
pub mod report;
pub mod rsrpath;
pub mod table1;
