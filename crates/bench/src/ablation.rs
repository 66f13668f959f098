//! Ablations of the design choices DESIGN.md calls out.
//!
//! 1. **Heavyweight vs lightweight startpoints** (§3.1): the descriptor
//!    table makes startpoints "rather heavyweight"; the lightweight form
//!    omits it. Measures both wire sizes.
//! 2. **Communication-object sharing** (§3.1): objects are cached per
//!    (context, method); the ablation counts how many connections N
//!    startpoints to one context actually open.
//! 3. **Adaptive vs fixed skip_poll** (§6 future work, implemented):
//!    drives a bursty mpl traffic pattern and reports the expensive-probe
//!    count and delivery outcome for fixed skip 1, fixed skip 64, and the
//!    adaptive controller — the adaptive one should approach the low poll
//!    count of the large skip while staying responsive inside bursts.
//!    mpl is the probe-only fallback tier (the paper's `mpc_status`
//!    example): socket methods now ride the readiness doorbell and are
//!    visited per-arrival, so skip_poll no longer applies to them.

use nexus_rt::buffer::Buffer;
use nexus_rt::context::Fabric;
use nexus_rt::descriptor::MethodId;
use nexus_rt::poll::AdaptiveSkipPoll;
use nexus_transports::register_defaults;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Wire sizes of the two startpoint representations.
#[derive(Debug, Clone, Copy)]
pub struct StartpointSizes {
    /// Full representation (descriptor table attached).
    pub heavyweight_bytes: usize,
    /// Table omitted (receiver reconstructs it).
    pub lightweight_bytes: usize,
}

/// Measures startpoint wire sizes with the full default module set.
pub fn startpoint_sizes() -> StartpointSizes {
    let fabric = Fabric::new();
    register_defaults(&fabric);
    let ctx = fabric.create_context().unwrap();
    let ep = ctx.create_endpoint();
    let heavy = ctx.startpoint_to(ep).unwrap();
    let light = ctx.startpoint_to_lightweight(ep).unwrap();
    let sizes = StartpointSizes {
        heavyweight_bytes: heavy.wire_len(),
        lightweight_bytes: light.wire_len(),
    };
    fabric.shutdown();
    sizes
}

/// Connections opened for `n` startpoints to the same context.
pub fn connection_sharing(n: usize) -> usize {
    let fabric = Fabric::new();
    register_defaults(&fabric);
    let a = fabric.create_context().unwrap();
    let b = fabric.create_context().unwrap();
    b.register_handler("x", |_| {});
    let mut sps = Vec::new();
    for _ in 0..n {
        let ep = b.create_endpoint();
        sps.push(b.startpoint_to(ep).unwrap());
    }
    for sp in &sps {
        a.rsr(sp, "x", Buffer::new()).unwrap();
    }
    let conns = a.cached_connections();
    fabric.shutdown();
    conns
}

/// One row of the adaptive-skip_poll ablation.
#[derive(Debug, Clone)]
pub struct SkipAblationRow {
    /// Configuration label.
    pub label: &'static str,
    /// Expensive (mpl, probe-only) polls performed.
    pub probes: u64,
    /// Messages delivered (must equal the sent count).
    pub delivered: u64,
    /// Final skip value (enquiry).
    pub final_skip: u64,
}

/// Drives a bursty mpl workload under one polling configuration:
/// `bursts` bursts of `burst_len` messages, each followed by a long quiet
/// period of `quiet_polls` empty progress calls. mpl is the method that
/// still lives in the polled rotation, so skip_poll governs its probes.
fn run_skip_config(
    label: &'static str,
    cfg: Option<Option<AdaptiveSkipPoll>>, // None = skip 1; Some(None) = fixed 64; Some(Some(c)) = adaptive
    bursts: u32,
    burst_len: u32,
    quiet_polls: u32,
) -> SkipAblationRow {
    let fabric = Fabric::new();
    register_defaults(&fabric);
    let a = fabric.create_context().unwrap();
    let b = fabric.create_context().unwrap();
    match cfg {
        None => {}
        Some(None) => {
            b.set_skip_poll(MethodId::MPL, 64);
        }
        Some(Some(c)) => {
            b.set_adaptive_skip_poll(MethodId::MPL, c);
        }
    }
    let delivered = Arc::new(AtomicU64::new(0));
    {
        let d = Arc::clone(&delivered);
        b.register_handler("m", move |_| {
            d.fetch_add(1, Ordering::Relaxed);
        });
    }
    let ep = b.create_endpoint();
    let sp = b.startpoint_to(ep).unwrap();
    sp.set_method(MethodId::MPL);
    for _ in 0..bursts {
        let target = delivered.load(Ordering::Relaxed) + burst_len as u64;
        for _ in 0..burst_len {
            a.rsr(&sp, "m", Buffer::new()).unwrap();
        }
        // Drain the burst.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while delivered.load(Ordering::Relaxed) < target {
            let _ = b.progress();
            assert!(std::time::Instant::now() < deadline, "burst must drain");
        }
        // Quiet period: the poll loop keeps spinning with nothing to do.
        for _ in 0..quiet_polls {
            let _ = b.progress();
        }
    }
    let row = SkipAblationRow {
        label,
        probes: b.trace().snapshot_method(MethodId::MPL).polls,
        delivered: delivered.load(Ordering::Relaxed),
        final_skip: b.skip_poll(MethodId::MPL).unwrap_or(0),
    };
    fabric.shutdown();
    row
}

/// Runs the three polling configurations on the same workload.
pub fn skip_poll_ablation(bursts: u32, burst_len: u32, quiet_polls: u32) -> Vec<SkipAblationRow> {
    vec![
        run_skip_config("fixed skip 1", None, bursts, burst_len, quiet_polls),
        run_skip_config("fixed skip 64", Some(None), bursts, burst_len, quiet_polls),
        run_skip_config(
            "adaptive (1..256, grow_after 8)",
            Some(Some(AdaptiveSkipPoll {
                min: 1,
                max: 256,
                grow_after: 8,
                ..Default::default()
            })),
            bursts,
            burst_len,
            quiet_polls,
        ),
    ]
}

/// Formats the full ablation report.
pub fn format_report(
    sizes: StartpointSizes,
    conns_for: (usize, usize),
    skip_rows: &[SkipAblationRow],
) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "startpoint wire size: heavyweight {} B (6-method descriptor table), \
         lightweight {} B ({}x smaller — §3.1's optimization)\n",
        sizes.heavyweight_bytes,
        sizes.lightweight_bytes,
        sizes.heavyweight_bytes / sizes.lightweight_bytes.max(1)
    ));
    s.push_str(&format!(
        "connection sharing: {} startpoints to one context -> {} connection(s)\n\n",
        conns_for.0, conns_for.1
    ));
    s.push_str("adaptive skip_poll ablation (bursty mpl traffic, polled tier):\n");
    s.push_str(&crate::report::table(
        &["configuration", "mpl probes", "delivered", "final skip"],
        &skip_rows
            .iter()
            .map(|r| {
                vec![
                    r.label.to_owned(),
                    r.probes.to_string(),
                    r.delivered.to_string(),
                    r.final_skip.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    ));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lightweight_startpoints_are_much_smaller() {
        let s = startpoint_sizes();
        assert!(
            s.heavyweight_bytes >= 4 * s.lightweight_bytes,
            "{} vs {}",
            s.heavyweight_bytes,
            s.lightweight_bytes
        );
        assert_eq!(s.lightweight_bytes, 15, "fixed header only");
    }

    #[test]
    fn many_startpoints_share_one_connection() {
        assert_eq!(connection_sharing(10), 1);
    }

    #[test]
    fn adaptive_beats_skip_1_on_probes_and_loses_nothing() {
        let rows = skip_poll_ablation(3, 20, 2_000);
        let by = |l: &str| rows.iter().find(|r| r.label.starts_with(l)).unwrap();
        let fixed1 = by("fixed skip 1");
        let adaptive = by("adaptive");
        assert_eq!(fixed1.delivered, adaptive.delivered, "no message lost");
        assert!(
            adaptive.probes * 4 < fixed1.probes,
            "adaptive cuts expensive probes: {} vs {}",
            adaptive.probes,
            fixed1.probes
        );
        assert!(
            adaptive.final_skip > 1,
            "controller backed off during the final quiet period"
        );
    }
}
