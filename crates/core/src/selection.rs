//! Communication method selection.
//!
//! Upon receipt of a startpoint, a context must decide which of the methods
//! in the attached descriptor table to use (§3.2). The default automatic
//! rule is [`FirstApplicable`]: scan the table in order and take the first
//! method that is (a) implemented by a locally registered module and
//! (b) *applicable* per that module's method-specific criteria. Because
//! descriptor tables are ordered fastest-first by default, this realizes
//! the paper's "fastest first" policy. Manual selection is layered on top:
//! a startpoint can be pinned to a method, and users can reorder or edit
//! the descriptor table itself.

use crate::context::{ContextId, ContextInfo};
use crate::descriptor::{DescriptorTable, MethodId};
use crate::module::ModuleRegistry;
use crate::trace::Trace;
use std::collections::HashSet;
use std::sync::Arc;

/// A pluggable selection policy.
pub trait SelectionPolicy: Send + Sync {
    /// Chooses a method from `table` for communication initiated in
    /// `local`, or `None` if no method is usable.
    fn select(
        &self,
        local: &ContextInfo,
        table: &DescriptorTable,
        registry: &ModuleRegistry,
    ) -> Option<MethodId>;

    /// Policy name for enquiry output.
    fn name(&self) -> &'static str;
}

impl SelectionPolicy for std::sync::Arc<dyn SelectionPolicy> {
    fn select(
        &self,
        local: &ContextInfo,
        table: &DescriptorTable,
        registry: &ModuleRegistry,
    ) -> Option<MethodId> {
        (**self).select(local, table, registry)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }
}

/// Returns every method in `table` that is applicable from `local`, in
/// table order. This is the enquiry primitive behind all policies.
pub fn applicable_methods(
    local: &ContextInfo,
    table: &DescriptorTable,
    registry: &ModuleRegistry,
) -> Vec<MethodId> {
    table
        .entries()
        .iter()
        .filter(|desc| {
            registry
                .resolve(desc.method)
                .is_some_and(|m| m.applicable(local, desc))
        })
        .map(|desc| desc.method)
        .collect()
}

/// The default automatic policy: ordered scan, first applicable method wins.
#[derive(Debug, Default, Clone, Copy)]
pub struct FirstApplicable;

impl SelectionPolicy for FirstApplicable {
    fn select(
        &self,
        local: &ContextInfo,
        table: &DescriptorTable,
        registry: &ModuleRegistry,
    ) -> Option<MethodId> {
        table.entries().iter().find_map(|desc| {
            registry
                .resolve(desc.method)
                .filter(|m| m.applicable(local, desc))
                .map(|_| desc.method)
        })
    }

    fn name(&self) -> &'static str {
        "first-applicable"
    }
}

/// Wraps another policy, excluding a set of methods from consideration.
///
/// Used by forwarding nodes, which must not re-send a message over the
/// method it arrived on, and by applications that want to blacklist a
/// method temporarily (e.g. after repeated errors, per the instrument
/// scenarios in §1).
pub struct ExcludeMethods<P> {
    inner: P,
    excluded: HashSet<MethodId>,
}

impl<P: SelectionPolicy> ExcludeMethods<P> {
    /// Creates a policy that behaves like `inner` with `excluded` removed.
    pub fn new(inner: P, excluded: impl IntoIterator<Item = MethodId>) -> Self {
        ExcludeMethods {
            inner,
            excluded: excluded.into_iter().collect(),
        }
    }
}

impl<P: SelectionPolicy> SelectionPolicy for ExcludeMethods<P> {
    fn select(
        &self,
        local: &ContextInfo,
        table: &DescriptorTable,
        registry: &ModuleRegistry,
    ) -> Option<MethodId> {
        let mut filtered = DescriptorTable::new();
        for d in table.entries() {
            if !self.excluded.contains(&d.method) {
                filtered.push(d.clone());
            }
        }
        self.inner.select(local, &filtered, registry)
    }

    fn name(&self) -> &'static str {
        "exclude-methods"
    }
}

/// Measured cost estimate for one method, read from a context's
/// [`Trace`] layer.
///
/// This is the enquiry counterpart to the paper's §3.3 probe-cost
/// constants: instead of assuming mpc_status ≈ 15 µs and `select()`
/// over 100 µs, applications (and cost-aware policies) can ask what the
/// runtime has actually measured on this machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MethodCostEstimate {
    /// The method being estimated.
    pub method: MethodId,
    /// EWMA of the measured cost of probing this method's receiver in the
    /// unified polling function, in nanoseconds. `None` until the first
    /// probe.
    pub poll_cost_ns: Option<f64>,
    /// Probes behind `poll_cost_ns`.
    pub poll_samples: u64,
    /// Mean of the per-link send-cost EWMAs for this method, in
    /// nanoseconds. `None` until the first send.
    pub send_cost_ns: Option<f64>,
    /// Timed sends behind `send_cost_ns`, across all links: every send from
    /// a context with re-selection configured, else 1 in
    /// [`crate::trace::SAMPLE_EVERY`]; `MethodSnapshot::sends` counts all.
    pub send_samples: u64,
}

/// Enquiry: builds a [`MethodCostEstimate`] for `method` from `trace`.
/// Contexts expose this as `Context::method_cost_estimate`.
pub fn method_cost_estimate(trace: &Trace, method: MethodId) -> MethodCostEstimate {
    let (poll_cost_ns, poll_samples) = match trace.get_method(method) {
        Some(mt) => (mt.poll_cost_ns.value(), mt.poll_cost_ns.samples()),
        None => (None, 0),
    };
    let mut sum = 0.0;
    let mut links = 0u64;
    let mut send_samples = 0u64;
    for ((_, m), lt) in trace.link_entries() {
        if m != method {
            continue;
        }
        if let Some(v) = lt.send_cost_ns.value() {
            sum += v;
            links += 1;
        }
        send_samples += lt.send_cost_ns.samples();
    }
    MethodCostEstimate {
        method,
        poll_cost_ns,
        poll_samples,
        send_cost_ns: (links > 0).then(|| sum / links as f64),
        send_samples,
    }
}

/// Configuration of cost-driven live link re-selection.
///
/// The paper's selection rule runs once, when a startpoint is bound; the
/// adaptive extension sketched in §6 re-runs it continuously against
/// *measured* costs. A link watches the per-link send-cost EWMAs
/// (`core::trace`) and, when another applicable method has measured
/// cheaper than the link's current method by `margin` for `consecutive`
/// qualifying checks in a row, migrates the link's communication object
/// in place. The margin plus the consecutive-observation streak is the
/// hysteresis that keeps two methods with similar costs from flapping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReselectConfig {
    /// A candidate must beat the current method's measured cost by this
    /// factor (current / candidate > margin) to count as one observation.
    /// Must be > 1; e.g. 1.25 = "at least 25% cheaper".
    pub margin: f64,
    /// Consecutive qualifying checks before the link migrates.
    pub consecutive: u32,
    /// Minimum send samples behind both estimates before they are
    /// trusted for a migration decision.
    pub min_samples: u64,
    /// Run the check every Nth successful send on a link (sampling keeps
    /// the send hot path at a counter increment in the common case).
    pub check_every: u64,
}

impl Default for ReselectConfig {
    fn default() -> Self {
        ReselectConfig {
            margin: 1.25,
            consecutive: 3,
            min_samples: 8,
            check_every: 16,
        }
    }
}

/// One qualifying re-selection observation: a lower-ranked-but-cheaper
/// method beating the link's current method by the configured margin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReselectCandidate {
    /// The cheaper applicable method.
    pub method: MethodId,
    /// Measured cost of the link's current method (ns per send).
    pub current_cost_ns: f64,
    /// Measured cost of the candidate (ns per send).
    pub candidate_cost_ns: f64,
}

/// Scans the applicable methods of `table` for one whose *measured* send
/// cost beats the link's current method by `cfg.margin`, returning the
/// cheapest such candidate.
///
/// The current method's cost is the per-link send EWMA for
/// `(target, current)` when present (that is what this link actually
/// pays), falling back to the method-wide mean; candidates are judged by
/// the method-wide mean, since the link has no history on them yet.
/// Returns `None` while either side lacks `cfg.min_samples` measurements
/// — re-selection never acts on guesses, only on evidence.
pub fn reselect_candidate(
    local: &ContextInfo,
    target: ContextId,
    table: &DescriptorTable,
    registry: &ModuleRegistry,
    trace: &Trace,
    current: MethodId,
    cfg: &ReselectConfig,
) -> Option<ReselectCandidate> {
    let current_est = method_cost_estimate(trace, current);
    let (current_cost, current_samples) = match trace.get_link(target, current) {
        Some(lt) => (lt.send_cost_ns.value(), lt.send_cost_ns.samples()),
        None => (current_est.send_cost_ns, current_est.send_samples),
    };
    let current_cost = current_cost?;
    if current_samples < cfg.min_samples {
        return None;
    }
    let mut best: Option<ReselectCandidate> = None;
    for m in applicable_methods(local, table, registry) {
        if m == current {
            continue;
        }
        let est = method_cost_estimate(trace, m);
        let Some(cost) = est.send_cost_ns else {
            continue;
        };
        if est.send_samples < cfg.min_samples {
            continue;
        }
        if current_cost <= cost * cfg.margin.max(1.0) {
            continue;
        }
        if best.is_none_or(|b| cost < b.candidate_cost_ns) {
            best = Some(ReselectCandidate {
                method: m,
                current_cost_ns: current_cost,
                candidate_cost_ns: cost,
            });
        }
    }
    best
}

/// Estimator of currently available bandwidth for a method, in bytes/sec.
///
/// The paper sketches extending selection with network QoS parameters by
/// "looking at available network bandwidth rather than raw bandwidth".
/// This hook supplies that estimate; applications can wire it to real
/// measurements, and the benches wire it to simulated load.
pub type BandwidthEstimator = Arc<dyn Fn(MethodId) -> f64 + Send + Sync>;

/// QoS-aware policy: ordered scan, first applicable method whose *available*
/// bandwidth meets a floor; falls back to plain first-applicable if none
/// qualifies (connectivity beats QoS).
pub struct QosAware {
    /// Minimum acceptable available bandwidth in bytes/sec.
    pub min_bandwidth: f64,
    estimator: BandwidthEstimator,
}

impl QosAware {
    /// Creates a QoS policy with the given floor and estimator.
    pub fn new(min_bandwidth: f64, estimator: BandwidthEstimator) -> Self {
        QosAware {
            min_bandwidth,
            estimator,
        }
    }
}

impl SelectionPolicy for QosAware {
    fn select(
        &self,
        local: &ContextInfo,
        table: &DescriptorTable,
        registry: &ModuleRegistry,
    ) -> Option<MethodId> {
        let candidates = applicable_methods(local, table, registry);
        candidates
            .iter()
            .copied()
            .find(|&m| (self.estimator)(m) >= self.min_bandwidth)
            .or_else(|| candidates.first().copied())
    }

    fn name(&self) -> &'static str {
        "qos-aware"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{ContextId, ContextInfo, NodeId, PartitionId};
    use crate::descriptor::CommDescriptor;
    use crate::module::test_support::TestModule;

    fn info(ctx: u32, part: u32) -> ContextInfo {
        ContextInfo {
            id: ContextId(ctx),
            node: NodeId(ctx),
            partition: PartitionId(part),
        }
    }

    /// Registry with a partition-scoped "mpl" and an unrestricted "tcp",
    /// plus descriptor tables as a remote context in partition 1 would
    /// advertise them.
    fn setup() -> (ModuleRegistry, DescriptorTable) {
        let reg = ModuleRegistry::new();
        let mpl = TestModule::new(MethodId::MPL, "mpl", 10, true);
        let tcp = TestModule::new(MethodId::TCP, "tcp", 30, false);
        // Open the remote side so descriptors exist.
        let remote = info(9, 1);
        let (mpl_desc, _r1) = crate::module::CommModule::open(&mpl, &remote).unwrap();
        let (tcp_desc, _r2) = crate::module::CommModule::open(&tcp, &remote).unwrap();
        reg.register(std::sync::Arc::new(mpl));
        reg.register(std::sync::Arc::new(tcp));
        let table: DescriptorTable = [mpl_desc, tcp_desc].into_iter().collect();
        (reg, table)
    }

    #[test]
    fn first_applicable_prefers_table_order() {
        let (reg, table) = setup();
        // Same partition: MPL is applicable and listed first.
        let chosen = FirstApplicable.select(&info(1, 1), &table, &reg);
        assert_eq!(chosen, Some(MethodId::MPL));
    }

    #[test]
    fn first_applicable_skips_inapplicable_methods() {
        let (reg, table) = setup();
        // Different partition: MPL inapplicable, falls through to TCP.
        let chosen = FirstApplicable.select(&info(1, 2), &table, &reg);
        assert_eq!(chosen, Some(MethodId::TCP));
    }

    #[test]
    fn selection_respects_user_reordering() {
        let (reg, mut table) = setup();
        table.prioritize(MethodId::TCP);
        let chosen = FirstApplicable.select(&info(1, 1), &table, &reg);
        assert_eq!(chosen, Some(MethodId::TCP));
    }

    #[test]
    fn no_modules_means_no_selection() {
        let (_, table) = setup();
        let empty = ModuleRegistry::new();
        assert_eq!(FirstApplicable.select(&info(1, 1), &table, &empty), None);
    }

    #[test]
    fn deleting_a_descriptor_disables_the_method() {
        let (reg, mut table) = setup();
        table.remove(MethodId::MPL);
        let chosen = FirstApplicable.select(&info(1, 1), &table, &reg);
        assert_eq!(chosen, Some(MethodId::TCP));
    }

    #[test]
    fn exclude_methods_filters() {
        let (reg, table) = setup();
        let policy = ExcludeMethods::new(FirstApplicable, [MethodId::MPL]);
        assert_eq!(
            policy.select(&info(1, 1), &table, &reg),
            Some(MethodId::TCP)
        );
        let policy = ExcludeMethods::new(FirstApplicable, [MethodId::MPL, MethodId::TCP]);
        assert_eq!(policy.select(&info(1, 1), &table, &reg), None);
    }

    #[test]
    fn applicable_methods_lists_in_table_order() {
        let (reg, table) = setup();
        assert_eq!(
            applicable_methods(&info(1, 1), &table, &reg),
            vec![MethodId::MPL, MethodId::TCP]
        );
        assert_eq!(
            applicable_methods(&info(1, 2), &table, &reg),
            vec![MethodId::TCP]
        );
    }

    #[test]
    fn qos_policy_skips_saturated_methods() {
        let (reg, table) = setup();
        // MPL is "saturated" (low available bandwidth); TCP has headroom.
        let est: BandwidthEstimator = Arc::new(|m| {
            if m == MethodId::MPL {
                1_000.0
            } else {
                8_000_000.0
            }
        });
        let policy = QosAware::new(1_000_000.0, est);
        assert_eq!(
            policy.select(&info(1, 1), &table, &reg),
            Some(MethodId::TCP)
        );
    }

    #[test]
    fn qos_policy_falls_back_to_connectivity() {
        let (reg, table) = setup();
        let est: BandwidthEstimator = Arc::new(|_| 0.0);
        let policy = QosAware::new(1_000_000.0, est);
        // Nothing meets the floor, but we still pick the first applicable.
        assert_eq!(
            policy.select(&info(1, 1), &table, &reg),
            Some(MethodId::MPL)
        );
    }

    #[test]
    fn cost_estimate_reflects_trace_measurements() {
        use crate::context::ContextId;
        let trace = Trace::new();
        let empty = method_cost_estimate(&trace, MethodId::TCP);
        assert_eq!(empty.poll_cost_ns, None);
        assert_eq!(empty.send_cost_ns, None);
        assert_eq!(empty.poll_samples, 0);

        trace.method(MethodId::TCP).poll_cost_ns.record(120_000.0);
        // Two links using TCP, one using MPL (must be ignored).
        trace
            .link(ContextId(2), MethodId::TCP)
            .send_cost_ns
            .record(1_000.0);
        trace
            .link(ContextId(3), MethodId::TCP)
            .send_cost_ns
            .record(3_000.0);
        trace
            .link(ContextId(2), MethodId::MPL)
            .send_cost_ns
            .record(50.0);

        let est = method_cost_estimate(&trace, MethodId::TCP);
        assert_eq!(est.poll_cost_ns, Some(120_000.0));
        assert_eq!(est.poll_samples, 1);
        assert_eq!(est.send_cost_ns, Some(2_000.0), "mean across TCP links");
        assert_eq!(est.send_samples, 2);
    }

    /// Primes `n` send-cost samples of `cost` ns on a link EWMA.
    fn prime_link(trace: &Trace, target: ContextId, m: MethodId, cost: f64, n: u64) {
        let lt = trace.link(target, m);
        for _ in 0..n {
            lt.send_cost_ns.record(cost);
        }
    }

    #[test]
    fn reselect_candidate_requires_margin_and_samples() {
        let (reg, table) = setup();
        let trace = Trace::new();
        let local = info(1, 1);
        let target = ContextId(9);
        let cfg = ReselectConfig {
            margin: 1.25,
            consecutive: 3,
            min_samples: 8,
            check_every: 16,
        };
        // No measurements at all: no candidate.
        assert_eq!(
            reselect_candidate(&local, target, &table, &reg, &trace, MethodId::TCP, &cfg),
            None
        );
        // Current method measured, candidate not: still no candidate.
        prime_link(&trace, target, MethodId::TCP, 10_000.0, 8);
        assert_eq!(
            reselect_candidate(&local, target, &table, &reg, &trace, MethodId::TCP, &cfg),
            None
        );
        // Candidate measured but with too few samples: rejected.
        prime_link(&trace, target, MethodId::MPL, 1_000.0, 4);
        assert_eq!(
            reselect_candidate(&local, target, &table, &reg, &trace, MethodId::TCP, &cfg),
            None
        );
        // Enough samples and a 10x advantage: qualifies.
        prime_link(&trace, target, MethodId::MPL, 1_000.0, 4);
        let got = reselect_candidate(&local, target, &table, &reg, &trace, MethodId::TCP, &cfg)
            .expect("cheaper measured method qualifies");
        assert_eq!(got.method, MethodId::MPL);
        assert_eq!(got.current_cost_ns, 10_000.0);
        assert_eq!(got.candidate_cost_ns, 1_000.0);
    }

    #[test]
    fn reselect_candidate_respects_hysteresis_margin() {
        let (reg, table) = setup();
        let trace = Trace::new();
        let local = info(1, 1);
        let target = ContextId(9);
        let cfg = ReselectConfig::default();
        // MPL is cheaper, but only by 20% — inside the 1.25x margin.
        prime_link(&trace, target, MethodId::TCP, 1_200.0, 8);
        prime_link(&trace, target, MethodId::MPL, 1_000.0, 8);
        assert_eq!(
            reselect_candidate(&local, target, &table, &reg, &trace, MethodId::TCP, &cfg),
            None,
            "a marginal advantage must not trigger migration"
        );
    }

    #[test]
    fn reselect_candidate_ignores_inapplicable_methods() {
        let (reg, table) = setup();
        let trace = Trace::new();
        // From partition 2 the partition-scoped MPL is inapplicable, no
        // matter how cheap it has measured elsewhere.
        let local = info(1, 2);
        let target = ContextId(9);
        let cfg = ReselectConfig::default();
        prime_link(&trace, target, MethodId::TCP, 100_000.0, 8);
        prime_link(&trace, target, MethodId::MPL, 100.0, 8);
        assert_eq!(
            reselect_candidate(&local, target, &table, &reg, &trace, MethodId::TCP, &cfg),
            None
        );
    }

    #[test]
    fn unknown_method_in_table_is_ignored() {
        let (reg, mut table) = setup();
        table.push_front(CommDescriptor::new(MethodId(0x777), vec![]));
        let chosen = FirstApplicable.select(&info(1, 1), &table, &reg);
        assert_eq!(chosen, Some(MethodId::MPL));
    }
}
