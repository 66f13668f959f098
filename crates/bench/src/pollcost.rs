//! Live probe-cost measurement (§3.3's 15 µs vs >100 µs differential).
//!
//! The whole skip_poll story rests on one fact: probing some methods is
//! much more expensive than probing others. On the paper's SP2 that was
//! `mpc_status` (15 µs) vs `select` (>100 µs); on a modern Linux box our
//! in-process queues probe in nanoseconds while a TCP readiness scan costs
//! microseconds of syscalls — a similar two-orders-of-magnitude gap, which
//! is what the unified-poll design problem actually needs.

use crate::report;
use nexus_rt::buffer::Buffer;
use nexus_rt::context::{ContextId, ContextInfo, Fabric, NodeId, PartitionId};
use nexus_rt::descriptor::MethodId;
use nexus_rt::module::{CommModule, CommReceiver};
use nexus_transports::{register_defaults, MplModule, ShmemModule, TcpModule, UdpModule};
use std::time::Instant;

/// Measured empty-poll cost of one method.
#[derive(Debug, Clone)]
pub struct ProbeCost {
    /// Method name.
    pub name: &'static str,
    /// Mean cost of one empty poll, nanoseconds.
    pub ns_per_poll: f64,
    /// The module's own a-priori hint (used by enquiry/QoS policies).
    pub hint_ns: u64,
}

fn info() -> ContextInfo {
    ContextInfo {
        id: ContextId(0),
        node: NodeId(0),
        partition: PartitionId(0),
    }
}

fn measure(mut rx: Box<dyn CommReceiver>, iters: u32) -> f64 {
    // Warm-up.
    for _ in 0..1000 {
        let _ = rx.poll();
    }
    let start = Instant::now();
    for _ in 0..iters {
        let _ = rx.poll().unwrap();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Measures every transport's empty-poll cost. `tcp_conns` idle
/// connections are attached to the TCP receiver first, since a readiness
/// scan's cost grows with the descriptor set (exactly like `select`).
pub fn run(iters: u32, tcp_conns: usize) -> Vec<ProbeCost> {
    let mut out = Vec::new();

    let shmem = ShmemModule::new();
    let (_, rx) = shmem.open(&info()).unwrap();
    out.push(ProbeCost {
        name: "shmem",
        ns_per_poll: measure(rx, iters),
        hint_ns: shmem.poll_cost_ns(),
    });

    let mpl = MplModule::new();
    let (_, rx) = mpl.open(&info()).unwrap();
    out.push(ProbeCost {
        name: "mpl",
        ns_per_poll: measure(rx, iters),
        hint_ns: mpl.poll_cost_ns(),
    });

    let udp = UdpModule::new();
    let (_, rx) = udp.open(&info()).unwrap();
    out.push(ProbeCost {
        name: "udp",
        ns_per_poll: measure(rx, iters.min(200_000)),
        hint_ns: udp.poll_cost_ns(),
    });

    let tcp = TcpModule::new();
    let (desc, mut rx) = tcp.open(&info()).unwrap();
    // Attach idle connections so the scan has descriptors to visit.
    let mut objs = Vec::new();
    for _ in 0..tcp_conns {
        objs.push(tcp.connect(&info(), &desc).unwrap());
    }
    // Drain the accepts so the connections are registered.
    for _ in 0..1000 {
        let _ = rx.poll();
    }
    out.push(ProbeCost {
        name: "tcp",
        ns_per_poll: measure(rx, iters.min(100_000)),
        hint_ns: tcp.poll_cost_ns(),
    });
    drop(objs);
    out
}

/// Formats the measurement table.
pub fn format(rows: &[ProbeCost]) -> String {
    let cheap = rows
        .iter()
        .filter(|r| r.name == "mpl")
        .map(|r| r.ns_per_poll)
        .next()
        .unwrap_or(1.0);
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.to_owned(),
                format!("{:.0}", r.ns_per_poll),
                format!("{:.1}x", r.ns_per_poll / cheap),
                r.hint_ns.to_string(),
            ]
        })
        .collect();
    format!(
        "empty-poll cost per method (paper's SP2: mpc_status 15 us, select >100 us)\n{}",
        report::table(&["method", "ns/poll", "vs mpl", "model hint ns"], &body)
    )
}

/// Per-method costs as the runtime itself measured them: the poll-cost
/// EWMA fed by the receiving context's `PollEngine` timing sampled probes,
/// and the send-cost EWMA fed by the sender's timed transport sends (the
/// first and every 16th per link).
/// `hint_ns` is the module's a-priori constant (the role the paper's §3.3
/// numbers — `mpc_status` 15 µs, `select` >100 µs — play in selection).
#[derive(Debug, Clone)]
pub struct MeasuredCost {
    /// Method name.
    pub name: &'static str,
    /// Poll-cost EWMA on the receiving context, ns (None if never probed).
    pub poll_ewma_ns: Option<f64>,
    /// Probe samples behind the poll EWMA.
    pub poll_samples: u64,
    /// Send-cost EWMA on the sending context, ns (None if never sent).
    pub send_ewma_ns: Option<f64>,
    /// Timed sends behind the send EWMA.
    pub send_samples: u64,
    /// Sends, timed or not.
    pub sends: u64,
    /// Doorbell wakeups on the receiving context. Readiness-tier methods
    /// deliver through these instead of timed probes, so for them
    /// `poll_samples` is legitimately 0 and this is the activity signal.
    pub ready_wakeups: u64,
    /// The module's own a-priori poll-cost hint.
    pub hint_ns: u64,
}

/// The module's a-priori poll-cost hint for a well-known method.
fn hint_ns(m: MethodId) -> u64 {
    match m {
        MethodId::SHMEM => ShmemModule::new().poll_cost_ns(),
        MethodId::MPL => MplModule::new().poll_cost_ns(),
        MethodId::UDP => UdpModule::new().poll_cost_ns(),
        MethodId::TCP => TcpModule::new().poll_cost_ns(),
        _ => 0,
    }
}

/// Drives real RSR traffic over each reliable method, lets the receive
/// loop spin over the quiet sources, then reads the measured EWMAs back
/// through the enquiry API ([`nexus_rt::context::Context::method_cost_estimate`]).
///
/// Only the polled fallback tier (mpl) accumulates poll-cost samples:
/// shmem and tcp ride the readiness doorbell, are never probed while
/// idle, and surface their activity as `ready_wakeups` instead.
pub fn measured(msgs_per_method: u32, quiet_polls: u32) -> Vec<MeasuredCost> {
    let fabric = Fabric::new();
    register_defaults(&fabric);
    let a = fabric.create_context().unwrap();
    let b = fabric.create_context().unwrap();
    b.register_handler("m", |_| {});

    // UDP is unreliable, so only the methods where every RSR must arrive.
    let methods = [
        ("shmem", MethodId::SHMEM),
        ("mpl", MethodId::MPL),
        ("tcp", MethodId::TCP),
    ];
    for (_, m) in methods {
        let ep = b.create_endpoint();
        let sp = b.startpoint_to(ep).unwrap();
        sp.set_method(m);
        for _ in 0..msgs_per_method {
            a.rsr(&sp, "m", Buffer::new()).unwrap();
            let _ = b.progress();
        }
    }
    // Quiet passes: every enabled method's receiver gets probed empty,
    // so each poll-cost EWMA settles on that method's live probe cost.
    for _ in 0..quiet_polls {
        let _ = b.progress();
    }

    let out = methods
        .iter()
        .map(|&(name, m)| {
            let rx = b.method_cost_estimate(m); // poll side lives on the receiver
            let tx = a.method_cost_estimate(m); // send side lives on the sender
            MeasuredCost {
                name,
                poll_ewma_ns: rx.poll_cost_ns,
                poll_samples: rx.poll_samples,
                send_ewma_ns: tx.send_cost_ns,
                send_samples: tx.send_samples,
                sends: a.trace().snapshot_method(m).sends,
                ready_wakeups: b.trace().snapshot_method(m).ready_wakeups,
                hint_ns: hint_ns(m),
            }
        })
        .collect();
    fabric.shutdown();
    out
}

/// Formats the measured-EWMA table next to the a-priori hints.
pub fn format_measured(rows: &[MeasuredCost]) -> String {
    let opt = |v: Option<f64>| match v {
        Some(x) => format!("{x:.0}"),
        None => "-".to_owned(),
    };
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.to_owned(),
                opt(r.poll_ewma_ns),
                r.poll_samples.to_string(),
                opt(r.send_ewma_ns),
                r.send_samples.to_string(),
                r.sends.to_string(),
                r.ready_wakeups.to_string(),
                r.hint_ns.to_string(),
            ]
        })
        .collect();
    format!(
        "runtime-measured cost EWMAs (trace layer) vs a-priori hints\n\
         (readiness-tier methods show wakeups instead of probe samples)\n{}",
        report::table(
            &[
                "method",
                "poll EWMA ns",
                "probes",
                "send EWMA ns",
                "timed",
                "sends",
                "wakeups",
                "hint ns",
            ],
            &body
        )
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tcp_probe_is_much_more_expensive_than_queue_probe() {
        let rows = run(100_000, 4);
        let get = |n: &str| rows.iter().find(|r| r.name == n).unwrap().ns_per_poll;
        let mpl = get("mpl");
        let tcp = get("tcp");
        assert!(
            tcp > 10.0 * mpl,
            "the probe-cost differential that motivates skip_poll must \
             exist live: mpl {mpl:.0} ns vs tcp {tcp:.0} ns"
        );
    }

    #[test]
    fn format_lists_all_methods() {
        let rows = run(10_000, 1);
        let t = format(&rows);
        for m in ["shmem", "mpl", "udp", "tcp"] {
            assert!(t.contains(m));
        }
    }

    #[test]
    fn measured_ewmas_have_samples_for_every_driven_method() {
        let rows = measured(20, 500);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            if r.name == "mpl" {
                // Polled fallback tier: every 16th probe is timed.
                assert!(
                    r.poll_samples > 0 && r.poll_ewma_ns.is_some(),
                    "{} poll EWMA never fed",
                    r.name
                );
            } else {
                // Readiness tier: no timed probes, but the doorbell must
                // have fired for every delivered batch.
                assert_eq!(
                    r.poll_samples, 0,
                    "{} rides the doorbell; its visits must be untimed",
                    r.name
                );
                assert!(r.ready_wakeups > 0, "{} doorbell never rang", r.name);
            }
            // Every send is counted, and each link times its 1st and
            // 17th of the 20.
            assert_eq!((r.sends, r.send_samples), (20, 2), "{}", r.name);
            assert!(r.send_ewma_ns.is_some(), "{} send EWMA never fed", r.name);
        }
        let t = format_measured(&rows);
        for m in ["shmem", "mpl", "tcp"] {
            assert!(t.contains(m));
        }
    }
}
