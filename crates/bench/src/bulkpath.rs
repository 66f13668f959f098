//! The eager/rendezvous bulk paths' gate table (`gate bulk`, tracked in
//! `BENCH_bulk.json`).
//!
//! The Mercury-style bulk protocol (core::bulk) claims that past a
//! per-link cutoff, shipping a small pull handle and letting the receiver
//! fetch the body beats copying it inline — and that over region-mapping
//! methods the fetch is zero-copy. The rows: **inline** (`rsr_bulk` at
//! the all-eager default over a copying rail), **pull-map** (cutoff 0
//! over a region-mapping rail: announce, `#bulk-get`, in-place borrow)
//! and **pull-wire** (the same rendezvous over copying rails, the region
//! streamed back in chunks). Every row divides by **stripe-raw** at the
//! same (links, payload): plain `Context::rsr` with `set_striped` over
//! the same copying rails. inline and pull-map share that reference at
//! one link, so where pull-map's ratio drops under inline's is the
//! rendezvous knee (`knee_bytes`).

use crate::harness::{Case, Fixture, Op, Pump, Row, Table};

const NOTE: &str = "ratio = ns/op of the row over ns/op of stripe-raw at the same links and \
payload (plain rsr, striped over the same copying queue rails; at one link set_striped \
declines and it is one plain copying send): the median of per-batch ratios, row and \
reference batches alternating in one loop. inline = rsr_bulk at the all-eager default over \
one copying rail; pull-map = rsr_bulk with cutoff 0 over a region-mapping rail (announce, \
get, in-place borrow); pull-wire = the same rendezvous over copying rails, the region \
streamed back in chunks. Every op asserts that regions and pulls drained. allocs_per_op is \
absolute and budgeted at baseline x 1.25 + 0.5 (pull-map steady state is 0). What the ratio \
cannot see: a slowdown in the shared queue layer or in the copying rails moves row and \
reference alike; BENCHMARK.json's multimethod_mix covers that layer. This file guards the \
bulk protocol's cost over the raw striped floor and its zero-copy, zero-allocation pull; the \
real-wire knee is pinned by the simnet bulk model, and every claim about speed belongs in \
BENCHMARK.json.";

/// The three gated paths, and the links each runs at.
const PATHS: [(&str, usize); 4] = [
    ("inline", 1),
    ("pull-map", 1),
    ("pull-wire", 1),
    ("pull-wire", 4),
];

/// The path's fixture and op.
fn path(name: &str, links: usize, len: usize) -> Pump {
    let fx = match name {
        // All-eager default: rsr_bulk degenerates to the inline path.
        "inline" => Fixture::new(links, 1, false),
        "pull-map" | "pull-wire" => {
            let fx = Fixture::new(links, 1, name == "pull-map");
            fx.tx.set_rendezvous(&fx.sp, 0);
            fx
        }
        "stripe-raw" => return Fixture::striped(links, 1).pump(Op::Rsr, len),
        other => panic!("unknown path {other}"),
    };
    fx.pump(Op::Bulk, len)
}

/// The table: every path at every payload, over stripe-raw.
pub(crate) fn table() -> Table {
    let mut cases = Vec::new();
    for (name, links) in PATHS {
        for len in [4_096, 262_144, 4_194_304] {
            cases.push(Case {
                key: format!("{name} links={links} payload={len}"),
                reference: format!("stripe-raw links={links} payload={len}"),
                parallel: false,
                build: Box::new(move || (path(name, links, len), path("stripe-raw", links, len))),
            });
        }
    }
    Table {
        note: NOTE,
        cases,
        same_run: |rows| {
            Ok(match knee_bytes(rows, "pull-map") {
                Some(k) => format!("pull-map knee vs inline (1 rail): {k} B"),
                None => "pull-map knee vs inline (1 rail): beyond the swept payloads".to_owned(),
            })
        },
    }
}

/// The measured rendezvous knee for one pull path: the smallest payload
/// at which its 1-rail ratio is no higher than inline's (both divide by
/// the same reference). `None` when the pull never catches up.
pub(crate) fn knee_bytes(rows: &[Row], pull: &str) -> Option<usize> {
    let ratio = |name: &str, len: usize| {
        rows.iter()
            .find(|r| r.key == format!("{name} links=1 payload={len}"))
            .and_then(|r| r.ratio)
    };
    rows.iter()
        .filter_map(|r| {
            let len = r
                .key
                .strip_prefix(pull)?
                .strip_prefix(" links=1 payload=")?;
            len.parse().ok()
        })
        .filter(
            |&len| matches!((ratio(pull, len), ratio("inline", len)), (Some(p), Some(e)) if p <= e),
        )
        .min()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::assert_gates;

    fn s(name: &str, len: usize, ratio: f64) -> Row {
        Row::new(&format!("{name} links=1 payload={len}"), Some(ratio), 0.0)
    }

    #[test]
    fn smoke_run_covers_every_scenario() {
        let t = table();
        assert_eq!(t.cases.len(), 4 * 3);
        for case in t.cases.iter().filter(|c| c.key.ends_with("payload=262144")) {
            assert!(case.reference.starts_with("stripe-raw"));
            let (mut row, mut reference) = (case.build)();
            row(2);
            reference(2);
        }
    }

    #[test]
    fn knee_is_the_smallest_winning_pull_payload() {
        let rows = vec![
            s("inline", 4_096, 1.0),
            s("inline", 65_536, 1.0),
            s("inline", 262_144, 1.1),
            s("pull-wire", 4_096, 5.0),
            s("pull-wire", 65_536, 0.9),
            s("pull-wire", 262_144, 0.4),
        ];
        assert_eq!(knee_bytes(&rows, "pull-wire"), Some(65_536));
        // A pull that never wins yields no knee.
        let never = vec![s("inline", 4_096, 1.0), s("pull-wire", 4_096, 5.0)];
        assert_eq!(knee_bytes(&never, "pull-wire"), None);
        assert_eq!(knee_bytes(&never, "pull-map"), None);
    }

    #[test]
    fn json_roundtrip_through_parser() {
        crate::harness::assert_roundtrips(&table());
    }

    #[test]
    fn check_gates_ns_and_allocs_per_scenario() {
        // Another path at the same shape is another row.
        assert_gates(
            &table(),
            "pull-wire links=1 payload=4096",
            "inline links=1 payload=4096",
        );
    }
}
