//! Cost models of the simulated communication methods.
//!
//! Every quantitative effect in the paper's evaluation is a function of a
//! handful of per-method quantities: wire latency, wire bandwidth, probe
//! cost, per-message CPU overheads, and the cost of moving arrived data
//! from the "device" to user space. [`MethodModel`] captures exactly these,
//! and [`NetworkModel`] assembles the testbed (which methods exist, probe
//! order, partition scoping).
//!
//! Data ingestion is modeled in *chunks*: an arrived message of size `S`
//! needs `ceil(S / chunk_bytes)` ingestion steps, each costing
//! `chunk_copy_ns` plus whatever other probes the unified poll loop owes on
//! that pass. This is the mechanism behind the paper's observation that
//! "repeated kernel calls due to select slow the transfer of data from the
//! SP2 communication device to user space": with TCP in the poll rotation,
//! every ingestion step of a large MPL message also pays the select,
//! visibly reducing effective MPL bandwidth (Fig. 4, right panel).

use nexus_rt::descriptor::MethodId;

/// Cost model for one communication method.
#[derive(Debug, Clone)]
pub struct MethodModel {
    /// Which method this models.
    pub method: MethodId,
    /// Human-readable name for reports.
    pub name: &'static str,
    /// One-way wire latency (time of flight + switch/router traversal).
    pub latency_ns: u64,
    /// Wire bandwidth in bytes/sec; `None` = not the bottleneck (the
    /// ingestion path is). MPL uses `None`: its 36 MB/s is an end-to-end
    /// figure dominated by the device-to-user copy.
    pub wire_bw: Option<u64>,
    /// Probe cost of this method in the unified poll loop (`mpc_status` vs
    /// `select`).
    pub probe_ns: u64,
    /// Fixed per-message sender CPU (header construction, injection call).
    pub send_fixed_ns: u64,
    /// Additional sender CPU per byte (scaled by 1e9: cost = bytes *
    /// send_per_byte_e9 / 1e9 ns... stored directly as ns per byte in
    /// thousandths to keep integer math: ns = bytes * send_mills_per_byte /
    /// 1000).
    pub send_mills_per_byte: u64,
    /// Ingestion chunk size (device-to-user copy granularity).
    pub chunk_bytes: u64,
    /// CPU cost to copy one full chunk into user space.
    pub chunk_copy_ns: u64,
    /// Cost to ingest a header-only (zero-byte) message.
    pub header_ingest_ns: u64,
    /// Whether the method only works within one partition (MPL) or
    /// everywhere (TCP).
    pub partition_scoped: bool,
}

impl MethodModel {
    /// Sender CPU cost for a message of `size` bytes.
    pub fn send_cpu_ns(&self, size: u64) -> u64 {
        self.send_fixed_ns + size * self.send_mills_per_byte / 1000
    }

    /// Wire transfer time beyond latency for `size` bytes.
    pub fn wire_ns(&self, size: u64) -> u64 {
        match self.wire_bw {
            Some(bw) => size.saturating_mul(1_000_000_000) / bw.max(1),
            None => 0,
        }
    }

    /// Number of ingestion chunks for `size` bytes (zero-byte messages
    /// still need one ingestion step for the header).
    pub fn chunks(&self, size: u64) -> u64 {
        if size == 0 {
            1
        } else {
            size.div_ceil(self.chunk_bytes)
        }
    }

    /// Copy cost for the `i`-th chunk (the last chunk may be partial).
    pub fn chunk_cost_ns(&self, size: u64, chunk_idx: u64) -> u64 {
        let n = self.chunks(size);
        debug_assert!(chunk_idx < n);
        if size == 0 {
            return self.header_ingest_ns;
        }
        let full = self.chunk_copy_ns;
        if chunk_idx + 1 < n {
            full
        } else {
            let rem = size - (n - 1) * self.chunk_bytes;
            (full * rem / self.chunk_bytes).max(self.header_ingest_ns)
        }
    }

    /// End-to-end one-way wire+arrival time for `size` bytes (excludes
    /// sender CPU, visibility wait, and ingestion).
    pub fn arrival_delay_ns(&self, size: u64) -> u64 {
        self.latency_ns + self.wire_ns(size)
    }
}

/// The assembled testbed model: methods in probe (= fastest-first) order.
#[derive(Debug, Clone, Default)]
pub struct NetworkModel {
    methods: Vec<MethodModel>,
}

impl NetworkModel {
    /// Creates an empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a method. Order of addition = probe order = selection priority.
    pub fn add(&mut self, m: MethodModel) -> &mut Self {
        assert!(
            self.get(m.method).is_none(),
            "method {} already modeled",
            m.method
        );
        self.methods.push(m);
        self
    }

    /// The methods in probe order.
    pub fn methods(&self) -> &[MethodModel] {
        &self.methods
    }

    /// Looks up a method model.
    pub fn get(&self, id: MethodId) -> Option<&MethodModel> {
        self.methods.iter().find(|m| m.method == id)
    }

    /// Whether `method` can carry traffic between the given partitions.
    pub fn applicable(&self, method: MethodId, from_partition: u32, to_partition: u32) -> bool {
        match self.get(method) {
            Some(m) => !m.partition_scoped || from_partition == to_partition,
            None => false,
        }
    }

    /// Automatic selection: the first (fastest) applicable method, exactly
    /// like the core library's ordered descriptor-table scan.
    pub fn select(&self, from_partition: u32, to_partition: u32) -> Option<MethodId> {
        self.methods
            .iter()
            .find(|m| !m.partition_scoped || from_partition == to_partition)
            .map(|m| m.method)
    }
}

/// Computes the end of the simulated poll pass sequence; see
/// [`PollClock`].
#[derive(Debug, Clone)]
pub struct PollClock {
    /// skip_poll per method, same order as the model's methods.
    pub skips: Vec<u64>,
    /// Total pass count since node start (phase for skip counters).
    pub pass_counter: u64,
}

impl PollClock {
    /// Creates a clock with skip_poll = 1 for `n` methods.
    pub fn new(n: usize) -> Self {
        PollClock {
            skips: vec![1; n],
            pass_counter: 0,
        }
    }

    /// Whether method `idx` is probed on pass number `pass`.
    pub fn is_probed_on(&self, idx: usize, pass: u64) -> bool {
        pass.is_multiple_of(self.skips[idx].max(1))
    }

    /// Cost of pass number `pass` given per-method probe costs.
    pub fn pass_cost(&self, pass: u64, probe_ns: &[u64]) -> u64 {
        let mut c = 0;
        for (i, &p) in probe_ns.iter().enumerate() {
            if self.is_probed_on(i, pass) {
                c += p;
            }
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calib;

    #[test]
    fn send_cpu_scales_with_size() {
        let m = calib::mpl_model();
        assert!(m.send_cpu_ns(0) > 0);
        assert!(m.send_cpu_ns(100_000) > m.send_cpu_ns(0));
    }

    #[test]
    fn chunk_math() {
        let m = calib::mpl_model();
        assert_eq!(m.chunks(0), 1);
        assert_eq!(m.chunks(1), 1);
        assert_eq!(m.chunks(m.chunk_bytes), 1);
        assert_eq!(m.chunks(m.chunk_bytes + 1), 2);
        // Partial last chunk costs proportionally less.
        let full = m.chunk_cost_ns(2 * m.chunk_bytes, 0);
        let part = m.chunk_cost_ns(m.chunk_bytes + m.chunk_bytes / 4, 1);
        assert!(part < full);
        assert!(part > 0);
    }

    #[test]
    fn wire_time_only_for_bandwidth_limited_methods() {
        let mpl = calib::mpl_model();
        let tcp = calib::tcp_model();
        assert_eq!(mpl.wire_ns(1_000_000), 0, "MPL is ingestion-bound");
        assert!(tcp.wire_ns(1_000_000) > 0, "TCP is wire-bound");
        // 1 MB at 8 MB/s = 125 ms.
        assert_eq!(tcp.wire_ns(8_000_000), 1_000_000_000);
    }

    #[test]
    fn selection_respects_partitions() {
        let net = calib::sp2_network();
        assert_eq!(net.select(1, 1), Some(MethodId::MPL));
        assert_eq!(net.select(1, 2), Some(MethodId::TCP));
        assert!(net.applicable(MethodId::TCP, 1, 2));
        assert!(!net.applicable(MethodId::MPL, 1, 2));
        assert!(!net.applicable(MethodId::UDP, 1, 1), "not modeled");
    }

    #[test]
    #[should_panic(expected = "already modeled")]
    fn duplicate_method_panics() {
        let mut net = NetworkModel::new();
        net.add(calib::mpl_model());
        net.add(calib::mpl_model());
    }

    #[test]
    fn poll_clock_skip_arithmetic() {
        let mut clock = PollClock::new(2);
        clock.skips = vec![1, 5];
        let probes = vec![15_000, 100_000];
        // Pass 0 probes both; passes 1-4 probe only method 0.
        assert_eq!(clock.pass_cost(0, &probes), 115_000);
        assert_eq!(clock.pass_cost(1, &probes), 15_000);
        assert_eq!(clock.pass_cost(5, &probes), 115_000);
        assert!(clock.is_probed_on(1, 0));
        assert!(!clock.is_probed_on(1, 3));
        assert!(clock.is_probed_on(1, 10));
    }
}
