//! Cluster topology, link model and NIC contention.
//!
//! Matches the paper's testbed shape (§7.2): several machines, several
//! workers per machine, Ethernet between machines, fast local exchange
//! within a machine. Every node owns an egress NIC and an ingress NIC
//! modeled as FIFO servers: concurrent transfers through the same NIC
//! serialize. This is what makes a parameter server a *communication
//! hotspot* (all workers' traffic shares the PS's NICs) while decentralized
//! graphs spread load — the core systems effect behind Fig. 13.

use crate::events::SimTime;

/// Latency/bandwidth parameters for intra- and inter-machine transfers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkModel {
    /// One-way propagation latency within a machine (seconds).
    pub intra_latency: f64,
    /// One-way propagation latency between machines (seconds).
    pub inter_latency: f64,
    /// NIC bandwidth for intra-machine transfers (bytes/second).
    pub intra_bandwidth: f64,
    /// NIC bandwidth for inter-machine transfers (bytes/second).
    pub inter_bandwidth: f64,
    /// Latency of small control messages (tokens, ACKs, iteration
    /// inquiries), independent of size.
    pub control_latency: f64,
    /// Maximum extra random delivery delay per payload transfer (seconds),
    /// sampled deterministically per message. A non-zero jitter makes the
    /// network reorder messages — the failure mode §6.1 designs the
    /// rotating queues against ("we do not assume network preserves the
    /// message order").
    pub jitter: f64,
    /// Multiplier applied to payload sizes on the wire. The protocols ship
    /// the real (small) stand-in model; scaling the *simulated* transfer
    /// size reproduces the communication:compute ratio of the paper's
    /// full-size models (VGG11 is ~2e8 parameters) without paying their
    /// compute cost (the README's workload stand-in rationale).
    pub payload_scale: f64,
}

impl LinkModel {
    /// Parameters resembling the paper's cluster: 1 Gb/s Ethernet between
    /// machines, shared memory within a machine.
    pub fn ethernet_1gbps() -> Self {
        Self {
            intra_latency: 20e-6,
            inter_latency: 200e-6,
            intra_bandwidth: 8e9,   // ~shared-memory copy rate
            inter_bandwidth: 125e6, // 1 Gb/s
            control_latency: 100e-6,
            jitter: 0.0,
            payload_scale: 1.0,
        }
    }

    /// Returns a copy with the given per-message jitter bound.
    ///
    /// # Panics
    ///
    /// Panics if `jitter` is negative or NaN (the assertion below rejects
    /// NaN too, since `NaN >= 0.0` is false). Code that builds a
    /// [`LinkModel`] literal directly can still smuggle in a NaN; the
    /// experiment-level configuration validation catches that case and
    /// reports it as a configuration error instead of a panic.
    pub fn with_jitter(mut self, jitter: f64) -> Self {
        assert!(jitter >= 0.0, "jitter must be non-negative");
        self.jitter = jitter;
        self
    }

    /// Returns a copy with the given payload-size multiplier.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not positive.
    pub fn with_payload_scale(mut self, scale: f64) -> Self {
        assert!(scale > 0.0, "payload scale must be positive");
        self.payload_scale = scale;
        self
    }

    /// Checks the knobs a struct literal can smuggle past the builder
    /// assertions: the jitter bound must be finite and non-negative.
    ///
    /// # Errors
    ///
    /// Returns a static description of the first problem found.
    pub fn validate(&self) -> Result<(), &'static str> {
        if !self.jitter.is_finite() || self.jitter < 0.0 {
            return Err("jitter must be finite and non-negative");
        }
        Ok(())
    }
}

impl Default for LinkModel {
    fn default() -> Self {
        Self::ethernet_1gbps()
    }
}

/// Placement and speed description of the simulated cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    machine_of: Vec<usize>,
    base_compute: Vec<f64>,
    link: LinkModel,
    faults: crate::faults::FaultPlan,
}

impl ClusterSpec {
    /// `n` nodes spread round-robin over `machines` machines, all with the
    /// same per-iteration compute time.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `machines == 0`, or `base_compute <= 0`.
    pub fn uniform(n: usize, machines: usize, base_compute: f64, link: LinkModel) -> Self {
        assert!(n > 0 && machines > 0, "need nodes and machines");
        assert!(base_compute > 0.0, "compute time must be positive");
        Self {
            machine_of: (0..n).map(|i| i * machines / n).collect(),
            base_compute: vec![base_compute; n],
            link,
            faults: crate::faults::FaultPlan::default(),
        }
    }

    /// Explicit placement: `machine_sizes[m]` consecutive workers on
    /// machine `m` (the Fig. 21 uneven placement).
    ///
    /// # Panics
    ///
    /// Panics if any machine is empty or `base_compute <= 0`.
    pub fn with_machine_sizes(machine_sizes: &[usize], base_compute: f64, link: LinkModel) -> Self {
        assert!(!machine_sizes.is_empty(), "need at least one machine");
        assert!(machine_sizes.iter().all(|&s| s > 0), "empty machine");
        assert!(base_compute > 0.0, "compute time must be positive");
        let mut machine_of = Vec::new();
        for (m, &size) in machine_sizes.iter().enumerate() {
            machine_of.extend(std::iter::repeat_n(m, size));
        }
        let n = machine_of.len();
        Self {
            machine_of,
            base_compute: vec![base_compute; n],
            link,
            faults: crate::faults::FaultPlan::default(),
        }
    }

    /// Returns a copy carrying the given fault plan. The default plan is
    /// empty (no faults); engines read the plan from the spec, so fault
    /// injection rides along wherever a `ClusterSpec` already travels.
    #[must_use]
    pub fn with_faults(mut self, faults: crate::faults::FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// The fault plan (empty unless set via [`Self::with_faults`]).
    pub fn faults(&self) -> &crate::faults::FaultPlan {
        &self.faults
    }

    /// Overrides one node's base compute time.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or `seconds <= 0`.
    pub fn set_compute_time(&mut self, node: usize, seconds: f64) {
        assert!(node < self.len(), "node out of range");
        assert!(seconds > 0.0, "compute time must be positive");
        self.base_compute[node] = seconds;
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.machine_of.len()
    }

    /// Whether the cluster is empty (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.machine_of.is_empty()
    }

    /// Machine hosting `node`.
    pub fn machine_of(&self, node: usize) -> usize {
        self.machine_of[node]
    }

    /// Number of machines.
    pub fn n_machines(&self) -> usize {
        self.machine_of.iter().copied().max().map_or(0, |m| m + 1)
    }

    /// Base compute seconds per iteration for `node`.
    pub fn base_compute(&self, node: usize) -> f64 {
        self.base_compute[node]
    }

    /// The link model.
    pub fn link(&self) -> &LinkModel {
        &self.link
    }

    /// Whether two nodes share a machine.
    pub fn same_machine(&self, a: usize, b: usize) -> bool {
        self.machine_of[a] == self.machine_of[b]
    }

    /// Duration of one ring all-reduce among `members` (in the given
    /// logical ring order) exchanging `total_bytes` of payload:
    /// `2(g-1)` pipeline steps of `total_bytes / g` each, every step
    /// simultaneous across members and gated by the slowest hop. This is
    /// the analytic model shared by the ring all-reduce baseline (over
    /// all workers) and Prague's intra-group partial all-reduce.
    ///
    /// # Panics
    ///
    /// Panics if `members` has fewer than 2 nodes (nothing to reduce).
    pub fn ring_allreduce_time(&self, members: &[usize], total_bytes: f64) -> f64 {
        let g = members.len();
        assert!(g >= 2, "a ring all-reduce needs at least 2 members");
        let chunk = total_bytes / g as f64;
        let mut step_time = 0.0f64;
        for (i, &w) in members.iter().enumerate() {
            let next = members[(i + 1) % g];
            let (lat, bw) = if self.same_machine(w, next) {
                (self.link.intra_latency, self.link.intra_bandwidth)
            } else {
                (self.link.inter_latency, self.link.inter_bandwidth)
            };
            step_time = step_time.max(lat + chunk / bw);
        }
        2.0 * (g as f64 - 1.0) * step_time
    }

    /// Appends one extra node on its own new machine (used to host a
    /// parameter server, as the paper adds one machine for the PS).
    /// Returns the new node's index.
    pub fn push_server_node(&mut self, base_compute: f64) -> usize {
        assert!(base_compute > 0.0, "compute time must be positive");
        let machine = self.n_machines();
        self.machine_of.push(machine);
        self.base_compute.push(base_compute);
        self.machine_of.len() - 1
    }
}

/// Tracks NIC occupancy and computes transfer arrival times.
///
/// Each node has an egress and an ingress FIFO NIC. A transfer of `bytes`
/// from `a` to `b` occupies `a`'s egress for `bytes/bw`, propagates for the
/// link latency, then occupies `b`'s ingress for `bytes/bw`; the arrival
/// time is when the ingress completes. Control messages skip the NICs and
/// only pay `control_latency`.
#[derive(Debug, Clone, PartialEq)]
pub struct Network {
    spec: ClusterSpec,
    egress_free: Vec<SimTime>,
    ingress_free: Vec<SimTime>,
    machine_egress_free: Vec<SimTime>,
    machine_ingress_free: Vec<SimTime>,
    bytes_sent: u64,
    transfers: u64,
    jitter_state: u64,
}

impl Network {
    /// Creates an idle network for `spec`.
    pub fn new(spec: ClusterSpec) -> Self {
        let n = spec.len();
        let machines = spec.n_machines();
        Self {
            spec,
            egress_free: vec![0.0; n],
            ingress_free: vec![0.0; n],
            machine_egress_free: vec![0.0; machines],
            machine_ingress_free: vec![0.0; machines],
            bytes_sent: 0,
            transfers: 0,
            jitter_state: 0x4A17_7E4E_D1CE_5EED,
        }
    }

    /// The underlying cluster spec.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// Total payload bytes transferred so far.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Number of payload transfers so far.
    pub fn transfers(&self) -> u64 {
        self.transfers
    }

    /// Schedules a payload transfer of `bytes` from `a` to `b` starting no
    /// earlier than `now`; returns the arrival time at `b`.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` (self-delivery is local and free) or indices are
    /// out of range.
    pub fn transfer(&mut self, now: SimTime, a: usize, b: usize, bytes: u64) -> SimTime {
        assert!(a != b, "self transfers are local");
        assert!(a < self.spec.len() && b < self.spec.len(), "node range");
        let link = *self.spec.link();
        // Intra-machine copies use the worker's own port; inter-machine
        // traffic shares the hosting *machine*'s Ethernet NIC, as in the
        // paper's testbed (several workers per machine, one 1 Gb/s link).
        let (latency, bw, egress, ingress) = if self.spec.same_machine(a, b) {
            (
                link.intra_latency,
                link.intra_bandwidth,
                &mut self.egress_free[a],
                &mut self.ingress_free[b],
            )
        } else {
            (
                link.inter_latency,
                link.inter_bandwidth,
                &mut self.machine_egress_free[self.spec.machine_of(a)],
                &mut self.machine_ingress_free[self.spec.machine_of(b)],
            )
        };
        let tx_time = bytes as f64 * link.payload_scale / bw;
        let egress_start = now.max(*egress);
        let egress_end = egress_start + tx_time;
        *egress = egress_end;
        let ingress_start = (egress_end + latency).max(*ingress);
        let ingress_end = ingress_start + tx_time;
        *ingress = ingress_end;
        self.bytes_sent += (bytes as f64 * link.payload_scale) as u64;
        self.transfers += 1;
        ingress_end + self.next_jitter(link.jitter)
    }

    /// Deterministic per-message jitter in `[0, bound)`.
    fn next_jitter(&mut self, bound: f64) -> f64 {
        if bound <= 0.0 {
            return 0.0;
        }
        let draw = hop_util::rng::splitmix64(&mut self.jitter_state);
        bound * ((draw >> 11) as f64 * (1.0 / (1u64 << 53) as f64))
    }

    /// Arrival time of a small control message (tokens, ACKs) sent at
    /// `now` in latency class `lane` ([`Self::control_lane`] of its
    /// endpoints); bypasses NIC serialization.
    pub fn control_after(&self, now: SimTime, lane: usize) -> SimTime {
        let latency = self.spec.link().control_latency;
        match lane {
            0 => now + latency * 0.1,
            _ => now + latency,
        }
    }

    /// Latency class of a control message from `a` to `b`: 0 within a
    /// machine, 1 across machines. Each class has one fixed latency, so
    /// messages of one class sent as the clock advances arrive in send
    /// order and can share an [`EventQueue`](crate::EventQueue) FIFO lane.
    pub fn control_lane(&self, a: usize, b: usize) -> usize {
        usize::from(a != b && !self.spec.same_machine(a, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ClusterSpec {
        ClusterSpec::uniform(4, 2, 0.1, LinkModel::ethernet_1gbps())
    }

    #[test]
    fn round_robin_placement() {
        let s = spec();
        assert_eq!(s.machine_of(0), 0);
        assert_eq!(s.machine_of(1), 0);
        assert_eq!(s.machine_of(2), 1);
        assert_eq!(s.machine_of(3), 1);
        assert_eq!(s.n_machines(), 2);
        assert!(s.same_machine(0, 1));
        assert!(!s.same_machine(1, 2));
    }

    #[test]
    fn machine_sizes_placement() {
        let s = ClusterSpec::with_machine_sizes(&[3, 3, 2], 0.1, LinkModel::default());
        assert_eq!(s.len(), 8);
        assert_eq!(s.machine_of(2), 0);
        assert_eq!(s.machine_of(3), 1);
        assert_eq!(s.machine_of(7), 2);
    }

    #[test]
    fn intra_faster_than_inter() {
        let mut net = Network::new(spec());
        let intra = net.transfer(0.0, 0, 1, 1_000_000);
        let mut net2 = Network::new(spec());
        let inter = net2.transfer(0.0, 1, 2, 1_000_000);
        assert!(intra < inter, "intra {intra} vs inter {inter}");
    }

    #[test]
    fn ingress_contention_serializes() {
        // Two senders to the same receiver: the second arrival is pushed
        // back by the first's ingress occupancy.
        let mut net = Network::new(spec());
        let bytes = 10_000_000;
        let a1 = net.transfer(0.0, 0, 2, bytes);
        let a2 = net.transfer(0.0, 1, 2, bytes);
        let solo = Network::new(spec()).transfer(0.0, 1, 2, bytes);
        assert!(a2 > a1);
        assert!(a2 > solo, "contended {a2} vs solo {solo}");
    }

    #[test]
    fn egress_contention_serializes_broadcast() {
        let mut net = Network::new(spec());
        let bytes = 10_000_000;
        let first = net.transfer(0.0, 2, 0, bytes);
        let second = net.transfer(0.0, 2, 1, bytes);
        assert!(second > first);
    }

    #[test]
    fn transfer_accounting() {
        let mut net = Network::new(spec());
        net.transfer(0.0, 0, 1, 100);
        net.transfer(0.0, 0, 2, 50);
        assert_eq!(net.bytes_sent(), 150);
        assert_eq!(net.transfers(), 2);
    }

    #[test]
    fn control_messages_are_cheap_and_unserialized() {
        let net = Network::new(spec());
        let t = net.control_after(1.0, net.control_lane(0, 2));
        assert!(t > 1.0 && t < 1.01);
        let local = net.control_after(1.0, net.control_lane(0, 1));
        assert!(local < t);
        assert_eq!(
            [(0, 0), (0, 1), (0, 2)].map(|(a, b)| net.control_lane(a, b)),
            [0, 0, 1]
        );
    }

    #[test]
    fn server_node_gets_own_machine() {
        let mut s = spec();
        let ps = s.push_server_node(0.01);
        assert_eq!(ps, 4);
        assert_eq!(s.machine_of(ps), 2);
        assert_eq!(s.n_machines(), 3);
    }

    #[test]
    #[should_panic(expected = "self transfers")]
    fn rejects_self_transfer() {
        let mut net = Network::new(spec());
        net.transfer(0.0, 1, 1, 10);
    }
}

#[cfg(test)]
mod jitter_tests {
    use super::*;

    #[test]
    fn zero_jitter_is_exact() {
        let spec = ClusterSpec::uniform(2, 1, 0.1, LinkModel::ethernet_1gbps());
        let mut a = Network::new(spec.clone());
        let mut b = Network::new(spec);
        assert_eq!(a.transfer(0.0, 0, 1, 1000), b.transfer(0.0, 0, 1, 1000));
    }

    #[test]
    fn jitter_delays_and_can_reorder() {
        let link = LinkModel::ethernet_1gbps().with_jitter(0.5);
        let spec = ClusterSpec::uniform(3, 1, 0.1, link);
        let mut net = Network::new(spec.clone());
        let base = Network::new(ClusterSpec::uniform(3, 1, 0.1, LinkModel::ethernet_1gbps()))
            .transfer(0.0, 0, 1, 1000);
        let mut reordered = false;
        let mut prev = f64::NEG_INFINITY;
        for _ in 0..64 {
            let t = net.transfer(0.0, 0, 1, 8);
            assert!(t >= base - 1.0, "jitter must not deliver before physics");
            if t < prev {
                reordered = true;
            }
            prev = t;
        }
        assert!(reordered, "expected at least one reordering with jitter");
    }

    #[test]
    fn jitter_is_deterministic() {
        let link = LinkModel::ethernet_1gbps().with_jitter(0.2);
        let spec = ClusterSpec::uniform(2, 1, 0.1, link);
        let mut a = Network::new(spec.clone());
        let mut b = Network::new(spec);
        for _ in 0..10 {
            assert_eq!(a.transfer(0.0, 0, 1, 64), b.transfer(0.0, 0, 1, 64));
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn jitter_validates() {
        let _ = LinkModel::ethernet_1gbps().with_jitter(-0.1);
    }
}

#[cfg(test)]
mod payload_scale_tests {
    use super::*;

    #[test]
    fn scale_stretches_transfers() {
        let base = ClusterSpec::uniform(2, 2, 0.1, LinkModel::ethernet_1gbps());
        let scaled = ClusterSpec::uniform(
            2,
            2,
            0.1,
            LinkModel::ethernet_1gbps().with_payload_scale(100.0),
        );
        let t1 = Network::new(base).transfer(0.0, 0, 1, 1_000_000);
        let t100 = Network::new(scaled).transfer(0.0, 0, 1, 1_000_000);
        assert!(t100 > t1 * 50.0, "{t100} vs {t1}");
    }

    #[test]
    fn scale_counts_scaled_bytes() {
        let scaled = ClusterSpec::uniform(
            2,
            2,
            0.1,
            LinkModel::ethernet_1gbps().with_payload_scale(10.0),
        );
        let mut net = Network::new(scaled);
        net.transfer(0.0, 0, 1, 100);
        assert_eq!(net.bytes_sent(), 1000);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn scale_validates() {
        let _ = LinkModel::ethernet_1gbps().with_payload_scale(0.0);
    }

    #[test]
    fn ring_allreduce_time_scales_with_members_and_hops() {
        // 4 nodes on 2 machines (0,1 | 2,3).
        let spec = ClusterSpec::uniform(4, 2, 0.1, LinkModel::ethernet_1gbps());
        let link = *spec.link();
        let bytes = 1000.0;
        // Intra-machine pair: 2 steps of bytes/2 at intra speed.
        let intra = spec.ring_allreduce_time(&[0, 1], bytes);
        assert!((intra - 2.0 * (link.intra_latency + 500.0 / link.intra_bandwidth)).abs() < 1e-12);
        // Cross-machine pair is gated by the slower inter-machine hop.
        let inter = spec.ring_allreduce_time(&[0, 2], bytes);
        assert!((inter - 2.0 * (link.inter_latency + 500.0 / link.inter_bandwidth)).abs() < 1e-12);
        assert!(inter > intra);
        // A full 4-ring: 6 steps of bytes/4, slowest hop crosses machines.
        let full = spec.ring_allreduce_time(&[0, 1, 2, 3], bytes);
        assert!((full - 6.0 * (link.inter_latency + 250.0 / link.inter_bandwidth)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least 2 members")]
    fn ring_allreduce_time_rejects_singletons() {
        let spec = ClusterSpec::uniform(2, 1, 0.1, LinkModel::ethernet_1gbps());
        spec.ring_allreduce_time(&[0], 100.0);
    }
}
