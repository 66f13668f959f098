//! The collective patterns' gate table (`gate stripe`, tracked in
//! `BENCH_stripe.json`).
//!
//! The striped bulk path (core::stripe) claims that one logical transfer
//! can ride several method-heterogeneous links at once. CommBench's three
//! multi-link patterns exercise it over in-process queue rails: **rail**
//! (one destination, one `Context::rsr` striped across `links` rails),
//! **fan** (`Context::scatter` of one piece per link, each whole over one
//! method) and **striped-scatter** (fan with every piece striped across
//! its link's rails; pieces under the stripe cutoff pass whole). Every
//! pattern moves `payload` bytes per op, and every row divides by the
//! one-link rail at the same payload, on which `set_striped` declines.

use crate::harness::{Case, Fixture, Op, Pump, Table};

const NOTE: &str = "ratio = ns/op of the row over ns/op of the one-link rail at the same \
payload (one copying queue rail, on which set_striped declines, so the reference never \
stripes): the median of per-batch ratios, row and reference batches alternating in one loop. \
Every pattern moves payload bytes per op over in-process queue rails that impose exactly one \
copy per byte per hop. rail = one destination striped across links method-distinct rails; \
fan = Context::scatter of one piece per link over a single method; striped-scatter = scatter \
with every piece striped across links rails. allocs_per_op is absolute and budgeted at \
baseline x 1.25 + 0.5; its residue at 4 and 8 links is buffer-pool depth and the pool's \
1 MiB capacity cap, both deliberate bounds. What the ratio cannot see: a slowdown in the \
shared queue layer or in the one copy per hop moves row and reference alike; \
BENCHMARK.json's multimethod_mix covers that layer. This file guards the stripe machinery's \
cost over a plain send (chunk framing, reassembly, pooling); the multi-rail bandwidth shape \
is pinned by the simnet stripe model, and every claim about speed belongs in BENCHMARK.json.";

/// The three patterns, in sweep order.
pub(crate) const PATTERNS: [&str; 3] = ["rail", "fan", "striped-scatter"];

/// The pattern's fixture and op at `links`.
fn pattern(name: &str, links: usize, len: usize) -> Pump {
    match name {
        // `links` rails into ONE endpoint, striped.
        "rail" => Fixture::striped(links, 1).pump(Op::Rsr, len),
        // One rail, `links` endpoints, plain scatter.
        "fan" => Fixture::new(1, links, false).pump(Op::Scatter, len),
        // `links` rails AND `links` endpoints, each piece striped.
        "striped-scatter" => Fixture::striped(links, links).pump(Op::Scatter, len),
        other => panic!("unknown pattern {other}"),
    }
}

/// The table: pattern x links x payload, except the one-link rail, which
/// is every row's reference.
pub(crate) fn table() -> Table {
    let mut cases = Vec::new();
    for name in PATTERNS {
        for links in [1, 2, 4, 8] {
            for len in [4_096, 262_144, 4_194_304] {
                if name == "rail" && links == 1 {
                    continue;
                }
                cases.push(Case {
                    key: format!("{name} links={links} payload={len}"),
                    reference: format!("rail links=1 payload={len}"),
                    parallel: false,
                    build: Box::new(move || (pattern(name, links, len), pattern("rail", 1, len))),
                });
            }
        }
    }
    Table {
        note: NOTE,
        cases,
        same_run: |_| Ok(String::new()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::assert_gates;

    #[test]
    fn smoke_run_covers_every_pattern() {
        let t = table();
        assert_eq!(
            t.cases.len(),
            3 * 4 * 3 - 3,
            "the one-link rail is the reference"
        );
        for p in PATTERNS {
            let case = t
                .cases
                .iter()
                .find(|c| c.key == format!("{p} links=2 payload=4096"))
                .unwrap();
            assert_eq!(case.reference, "rail links=1 payload=4096");
            let (mut row, mut reference) = (case.build)();
            row(3);
            reference(3);
        }
    }

    #[test]
    fn json_roundtrip_through_parser() {
        crate::harness::assert_roundtrips(&table());
    }

    #[test]
    fn check_gates_ns_and_allocs_per_pattern() {
        // Another pattern at the same shape is another row.
        assert_gates(
            &table(),
            "rail links=2 payload=4096",
            "fan links=2 payload=4096",
        );
    }
}
