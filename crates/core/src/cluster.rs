//! Multi-node scale-out: one more level of the same recursion.
//!
//! The paper stops at one server; this module extends UniNTT's
//! decomposition upward exactly the way the algorithm invites: the node
//! level is one more digit of the mixed-radix factorization, with the
//! datacenter network (InfiniBand/RoCE) as its exchange medium:
//!
//! ```text
//! N = T(nodes) · G(GPUs) · M(local)
//! node phase:  per-node UniNTT of size N/T (itself hierarchical)
//!              + fused boundary twiddle ω_N^{t·k}
//! exchange:    ONE cross-node all-to-all
//! outer phase: N/T² tiny size-T NTTs per node
//! ```
//!
//! Every node's machine simulates independently (node phases overlap);
//! the cluster clock advances to the slowest node plus the network time.
//! As in the single-node engine, the functional result is bit-checked
//! against the CPU reference and the network volume is exact.

use unintt_ff::TwoAdicField;
use unintt_gpu_sim::{
    alpha_beta_all_to_all_ns, FabricError, FieldSpec, KernelProfile, Machine, MachineConfig,
};
use unintt_ntt::Ntt;

use crate::{CommMode, RecoveryPolicy, ShardLayout, Sharded, UniNttEngine, UniNttOptions};

/// Datacenter network datasheet (node-to-node fabric).
#[derive(Clone, Debug, PartialEq)]
pub struct NetworkConfig {
    /// Per-node injection bandwidth in GB/s (e.g. 50 for 400G InfiniBand).
    pub per_node_bandwidth_gbps: f64,
    /// One-way latency in nanoseconds.
    pub latency_ns: f64,
    /// Achievable fraction of peak for large transfers.
    pub efficiency: f64,
}

impl NetworkConfig {
    /// 400 Gb/s InfiniBand NDR per node.
    pub fn infiniband_400g() -> Self {
        Self {
            per_node_bandwidth_gbps: 50.0,
            latency_ns: 5_000.0,
            efficiency: 0.85,
        }
    }

    /// 100 Gb/s Ethernet (RoCE) per node.
    pub fn ethernet_100g() -> Self {
        Self {
            per_node_bandwidth_gbps: 12.5,
            latency_ns: 10_000.0,
            efficiency: 0.8,
        }
    }

    /// α–β time for a cross-node all-to-all of `bytes_per_node`.
    ///
    /// Routed through [`unintt_gpu_sim::alpha_beta_all_to_all_ns`], the
    /// exact function the GPU fabric's crossbar arm charges with — one
    /// shared cost formula, so the two layers cannot drift apart in units
    /// (a regression test pins the charged nanoseconds).
    pub fn all_to_all_ns(&self, nodes: usize, bytes_per_node: u64) -> f64 {
        alpha_beta_all_to_all_ns(
            nodes,
            bytes_per_node,
            self.per_node_bandwidth_gbps,
            self.latency_ns,
            self.efficiency,
        )
    }
}

/// A cluster: `T` identical multi-GPU nodes joined by a network.
pub struct Cluster {
    nodes: Vec<Machine>,
    network: NetworkConfig,
    /// Time spent in cross-node communication (on top of node clocks).
    network_ns: f64,
    /// Cross-node wire time hidden behind the outer column NTTs by the
    /// overlapped schedule (already excluded from `network_ns`).
    network_hidden_ns: f64,
    /// Bytes injected into the node-to-node network, all nodes summed.
    network_bytes: u64,
}

impl Cluster {
    /// Builds a cluster of `num_nodes` machines of shape `node_cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `num_nodes` is not a power of two, or the node config is
    /// invalid.
    pub fn new(
        num_nodes: usize,
        node_cfg: MachineConfig,
        network: NetworkConfig,
        field: FieldSpec,
    ) -> Self {
        assert!(
            num_nodes.is_power_of_two(),
            "node count must be a power of two"
        );
        Self {
            nodes: (0..num_nodes)
                .map(|i| {
                    let mut node = Machine::new(node_cfg.clone(), field);
                    // Distinct telemetry tracks per node: concurrent node
                    // spans must not share a track.
                    node.set_label(format!("node{i}"));
                    node
                })
                .collect(),
            network,
            network_ns: 0.0,
            network_hidden_ns: 0.0,
            network_bytes: 0,
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The cluster makespan: slowest node plus accumulated network time.
    pub fn total_time_ns(&self) -> f64 {
        let node_max = self
            .nodes
            .iter()
            .map(Machine::max_clock_ns)
            .fold(0.0, f64::max);
        node_max + self.network_ns
    }

    /// Cross-node traffic in bytes (all nodes summed).
    pub fn network_bytes(&self) -> u64 {
        self.network_bytes
    }

    /// Cross-node wire time hidden behind compute by the overlapped
    /// schedule. Zero under [`CommMode::Blocking`].
    pub fn network_hidden_ns(&self) -> f64 {
        self.network_hidden_ns
    }

    /// Access to one node's machine.
    pub fn node(&self, i: usize) -> &Machine {
        &self.nodes[i]
    }

    /// Mutable access to one node's machine (to install fault plans or
    /// inspect traces).
    pub fn node_mut(&mut self, i: usize) -> &mut Machine {
        &mut self.nodes[i]
    }

    /// Nodes whose every GPU is still alive, in index order.
    pub fn healthy_nodes(&self) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&i| self.nodes[i].first_dead_device().is_none())
            .collect()
    }

    /// Charges a cross-node all-to-all among `nodes` participants (the
    /// degraded path exchanges among survivors only).
    fn charge_network_all_to_all_among(&mut self, nodes: usize, bytes_per_node: u64) {
        if nodes <= 1 {
            return;
        }
        self.network_ns += self.network.all_to_all_ns(nodes, bytes_per_node);
        self.network_bytes += Self::all_to_all_volume(nodes, bytes_per_node);
    }

    /// Charges a cross-node all-to-all whose wire time is pipelined
    /// against up to `hide_ns` of per-node compute: only the exposed
    /// remainder (latency plus un-hidden wire time) advances the cluster
    /// clock. The latency term is never hidable — the first chunk must
    /// arrive before any dependent compute can start.
    fn charge_network_all_to_all_overlapped(
        &mut self,
        nodes: usize,
        bytes_per_node: u64,
        hide_ns: f64,
    ) {
        if nodes <= 1 {
            return;
        }
        let total = self.network.all_to_all_ns(nodes, bytes_per_node);
        let wire = (total - self.network.latency_ns).max(0.0);
        let hidden = wire.min(hide_ns.max(0.0));
        self.network_ns += total - hidden;
        self.network_hidden_ns += hidden;
        self.network_bytes += Self::all_to_all_volume(nodes, bytes_per_node);
    }

    fn all_to_all_volume(nodes: usize, bytes_per_node: u64) -> u64 {
        (bytes_per_node * (nodes as u64 - 1) / nodes as u64) * nodes as u64
    }
}

/// Outcome of a fault-tolerant cluster run ([`ClusterNttEngine::forward_with_recovery`]).
#[derive(Clone, Debug)]
pub struct ClusterRunReport<F> {
    /// The transform result in natural order (bit-identical to the CPU
    /// reference whenever `Ok` is returned).
    pub output: Vec<F>,
    /// How many times the decomposition was re-derived over survivors.
    pub replans: u32,
    /// Nodes evicted mid-run by a permanent device loss, in eviction order.
    pub lost_nodes: Vec<usize>,
    /// How many nodes the final (successful) plan spanned.
    pub nodes_used: usize,
    /// Transient-fault retries charged per attempt (one entry per plan
    /// tried, including the successful final one), summed over every node
    /// machine. Serving layers surface these in their metrics.
    pub retries_per_attempt: Vec<u64>,
    /// GPU-fabric collective operations executed, summed over every node
    /// machine (all attempts included).
    pub collectives: u64,
    /// Communication bytes moved end to end: intra-node GPU-fabric
    /// injections on every node plus cross-node network traffic.
    pub comm_bytes: u64,
    /// Communication nanoseconds hidden behind compute by the overlapped
    /// schedule — GPU-fabric overlap inside the nodes plus network wire
    /// time pipelined against the outer column NTTs. Zero under
    /// [`CommMode::Blocking`].
    pub comm_hidden_ns: f64,
}

impl<F> ClusterRunReport<F> {
    /// Total transient retries over all attempts.
    pub fn total_retries(&self) -> u64 {
        self.retries_per_attempt.iter().sum()
    }

    /// Number of plan attempts (replans + the final successful one).
    pub fn attempts(&self) -> usize {
        self.retries_per_attempt.len()
    }
}

/// Records one cluster-level span on the shared `"cluster"` track. The
/// cluster clock is [`Cluster::total_time_ns`] (slowest node plus
/// network time); `root` is `None` exactly when telemetry is disabled.
fn obs_cluster_span(
    root: Option<u64>,
    cluster: &Cluster,
    name: &'static str,
    category: &'static str,
    parent_is_self: bool,
    t_start_ns: f64,
    attrs: impl FnOnce() -> Vec<(&'static str, unintt_telemetry::AttrValue)>,
) {
    if let Some(id) = root {
        unintt_telemetry::record_span(|| unintt_telemetry::Span {
            id: if parent_is_self {
                id
            } else {
                unintt_telemetry::fresh_id()
            },
            parent: if parent_is_self { None } else { Some(id) },
            name: name.to_string(),
            level: unintt_telemetry::SpanLevel::Cluster,
            category,
            track: String::from("cluster"),
            t_start_ns,
            t_end_ns: cluster.total_time_ns(),
            attrs: attrs(),
        });
    }
}

/// The cluster-scale UniNTT engine.
pub struct ClusterNttEngine<F: TwoAdicField> {
    log_n: u32,
    log_t: u32,
    node_engine: UniNttEngine<F>,
    outer: Ntt<F>,
    field_spec: FieldSpec,
    /// Kept so the decomposition can be re-derived over survivors after a
    /// permanent node loss.
    node_cfg: MachineConfig,
    opts: UniNttOptions,
}

impl<F: TwoAdicField> ClusterNttEngine<F> {
    /// Plans a size-`2^log_n` transform over a cluster of `num_nodes`
    /// machines of shape `node_cfg`.
    ///
    /// # Panics
    ///
    /// Panics under the node-engine's conditions, or if the per-node share
    /// is smaller than `num_nodes` (the chunked exchange needs
    /// `N/T ≥ T`).
    pub fn new(
        log_n: u32,
        num_nodes: usize,
        node_cfg: &MachineConfig,
        opts: UniNttOptions,
        field_spec: FieldSpec,
    ) -> Self {
        assert!(
            num_nodes.is_power_of_two(),
            "node count must be a power of two"
        );
        let log_t = num_nodes.trailing_zeros();
        assert!(
            log_n >= 2 * log_t,
            "transform of 2^{log_n} too small for 2^{log_t} nodes"
        );
        // Node-local results are chunked across nodes, so the node engine
        // runs with natural output ordering.
        let mut node_opts = opts;
        node_opts.natural_output = true;
        Self {
            log_n,
            log_t,
            node_engine: UniNttEngine::new(log_n - log_t, node_cfg, node_opts, field_spec),
            outer: Ntt::new(log_t),
            field_spec,
            node_cfg: node_cfg.clone(),
            opts,
        }
    }

    /// Transform size.
    pub fn n(&self) -> usize {
        1 << self.log_n
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        1 << self.log_t
    }

    /// `(per-node transform size, GPUs per node)` for the current plan.
    fn node_shape(&self) -> (usize, usize) {
        (
            self.n() / self.num_nodes(),
            self.node_engine.plan().num_gpus(),
        )
    }

    /// The fused node-boundary twiddle kernel (tail of the node phase).
    fn node_twiddle_profile(&self) -> KernelProfile {
        let (r, gpus) = self.node_shape();
        let mut profile = KernelProfile::named("node-boundary-twiddle");
        profile.field_muls = r as u64 / gpus as u64;
        profile.blocks = (r as u64 / 256).max(1);
        profile
    }

    /// The outer size-T column-NTT kernel (phase 3).
    fn cluster_outer_profile(&self) -> KernelProfile {
        let (r, gpus) = self.node_shape();
        let mut profile = KernelProfile::named("cluster-outer-ntt");
        profile.field_muls = (r as u64 / 2) * self.log_t as u64 / gpus as u64;
        profile.global_bytes_read = (r * self.field_spec.elem_bytes) as u64;
        profile.global_bytes_written = (r * self.field_spec.elem_bytes) as u64;
        profile.blocks = (r as u64 / 256).max(1);
        profile
    }

    /// Charges the cross-node all-to-all. Under [`CommMode::Overlapped`]
    /// the chunked transfer is pipelined against the outer column NTTs,
    /// so only the un-hidden remainder lands on the cluster clock; both
    /// the functional and cost-only paths route through here so they
    /// charge identically.
    fn charge_cluster_exchange(&self, cluster: &mut Cluster) {
        let t = self.num_nodes();
        let bytes = ((self.n() / t) * self.field_spec.elem_bytes) as u64;
        if self.opts.comm_mode == CommMode::Overlapped {
            let hide = cluster.nodes[0]
                .model()
                .kernel_cost(&self.cluster_outer_profile())
                .total_ns;
            cluster.charge_network_all_to_all_overlapped(t, bytes, hide);
        } else {
            cluster.charge_network_all_to_all_among(t, bytes);
        }
    }

    /// Forward NTT across the cluster.
    ///
    /// Input: `node_shards[t]` holds the node-cyclic sub-sequence
    /// `x[j·T + t]` in host memory; each node distributes it across its
    /// GPUs internally. Output: `X[k1·(N/T) + k2]` lands on node
    /// `k2 / (N/T²)` — the node-level block-cyclic order, matching the
    /// single-node engine's convention one level up.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches.
    pub fn forward(&self, cluster: &mut Cluster, node_shards: &mut [Vec<F>]) {
        let t = self.num_nodes();
        assert_eq!(cluster.num_nodes(), t, "cluster does not match the plan");
        assert_eq!(node_shards.len(), t, "need one shard per node");
        let r = self.n() / t; // per-node transform size
        assert!(
            node_shards.iter().all(|s| s.len() == r),
            "every node shard must hold 2^{} elements",
            self.log_n - self.log_t
        );

        let root = unintt_telemetry::reserve_span_id();
        let t_begin = cluster.total_time_ns();

        // Phase 1 (parallel across nodes): each node runs the full
        // single-node UniNTT on its sub-sequence, then applies the fused
        // node-boundary twiddle ω_N^{t·k2}.
        let omega = F::two_adic_generator(self.log_n);
        let gpus = self.node_engine.plan().num_gpus();
        for (node_idx, (machine, shard)) in cluster
            .nodes
            .iter_mut()
            .zip(node_shards.iter_mut())
            .enumerate()
        {
            let mut data = Sharded::distribute(shard, gpus, ShardLayout::Cyclic);
            self.node_engine.forward(machine, &mut data);
            *shard = data.collect();

            // Boundary twiddle, charged as one fused-scale kernel.
            let step = omega.pow(node_idx as u64);
            let mut cur = F::ONE;
            for v in shard.iter_mut() {
                *v *= cur;
                cur *= step;
            }
            let profile = self.node_twiddle_profile();
            let mut unused = ();
            machine.on_device(0, &mut unused, |ctx, _| {
                ctx.launch(&profile);
            });
        }

        obs_cluster_span(
            root,
            cluster,
            "node-phase",
            "phase",
            false,
            t_begin,
            Vec::new,
        );

        // Phase 2: one cross-node all-to-all (chunk transpose).
        let chunk = r / t;
        let old: Vec<Vec<F>> = node_shards.to_vec();
        for (dst, shard) in node_shards.iter_mut().enumerate() {
            for (src, old_shard) in old.iter().enumerate() {
                shard[src * chunk..(src + 1) * chunk]
                    .copy_from_slice(&old_shard[dst * chunk..(dst + 1) * chunk]);
            }
        }
        let t0 = cluster.total_time_ns();
        let pre = root.map(|_| (cluster.network_bytes, cluster.network_hidden_ns));
        self.charge_cluster_exchange(cluster);
        if let Some((pre_bytes, pre_hidden)) = pre {
            obs_cluster_span(
                root,
                cluster,
                "cluster-exchange",
                "interconnect",
                false,
                t0,
                || {
                    vec![
                        ("bytes", (cluster.network_bytes - pre_bytes).into()),
                        (
                            "hidden_comm_ns",
                            (cluster.network_hidden_ns - pre_hidden).into(),
                        ),
                    ]
                },
            );
        }

        // Phase 3: size-T NTTs down the received columns, on each node.
        let t0 = cluster.total_time_ns();
        for (machine, shard) in cluster.nodes.iter_mut().zip(node_shards.iter_mut()) {
            let mut col = vec![F::ZERO; t];
            for j in 0..chunk {
                for (src, slot) in col.iter_mut().enumerate() {
                    *slot = shard[src * chunk + j];
                }
                self.outer.forward(&mut col);
                for (k1, &v) in col.iter().enumerate() {
                    shard[k1 * chunk + j] = v;
                }
            }
            let profile = self.cluster_outer_profile();
            let mut unused = ();
            machine.on_device(0, &mut unused, |ctx, _| {
                ctx.launch(&profile);
            });
        }
        obs_cluster_span(root, cluster, "outer-phase", "phase", false, t0, Vec::new);
        let nodes = t;
        obs_cluster_span(
            root,
            cluster,
            "cluster-forward",
            "transform",
            true,
            t_begin,
            || vec![("nodes", nodes.into())],
        );
    }

    /// Fault-tolerant forward NTT with degraded re-planning.
    ///
    /// Takes the input in natural host order and returns the transform in
    /// natural order, surviving permanent device losses inside node
    /// machines: when a node's engine reports [`FabricError::DeviceLost`],
    /// the node is evicted, the mixed-radix decomposition is re-derived
    /// over the largest power-of-two subset of healthy nodes, and the run
    /// replays from the last completed checkpoint. With the simulated
    /// fault model only the node phase (level 0 → 1) can fail — the
    /// cross-node exchange is charged analytically — so a replan resumes
    /// from the level-0 checkpoint, i.e. the input itself; transient drops
    /// and corrupted transfers are absorbed *within* a plan by the node
    /// engines' retry/checksum machinery and never reach this level.
    ///
    /// Simulated time accumulates across replans on every surviving
    /// machine, so the recovery overhead of a policy is directly visible
    /// in [`Cluster::total_time_ns`].
    ///
    /// # Errors
    ///
    /// Returns the final [`FabricError`] when no healthy node subset can
    /// complete the transform (all nodes lost, or a transient fault
    /// outlived `policy.max_retries`).
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` differs from the planned transform size or
    /// the cluster does not match the plan.
    pub fn forward_with_recovery(
        &self,
        cluster: &mut Cluster,
        input: &[F],
        policy: &RecoveryPolicy,
    ) -> Result<ClusterRunReport<F>, FabricError> {
        assert_eq!(input.len(), self.n(), "input length mismatch");
        assert_eq!(
            cluster.num_nodes(),
            self.num_nodes(),
            "cluster does not match the plan"
        );
        let mut survivors = cluster.healthy_nodes();
        let mut replans = 0u32;
        let mut lost_nodes = Vec::new();
        let mut retries_per_attempt = Vec::new();
        let mut last_err = None;
        loop {
            let mut t = 0usize;
            if !survivors.is_empty() {
                t = 1;
                while t * 2 <= survivors.len() {
                    t *= 2;
                }
            }
            if t == 0 {
                return Err(last_err.unwrap_or(FabricError::DeviceLost {
                    device: 0,
                    seq: cluster.nodes.first().map_or(0, Machine::collective_seq),
                }));
            }
            // Checkpoint level 0: the input vector. Every replan re-derives
            // the plan over the survivor prefix and replays from here.
            let plan = if t == self.num_nodes() {
                None
            } else {
                Some(Self::new(
                    self.log_n,
                    t,
                    &self.node_cfg,
                    self.opts,
                    self.field_spec,
                ))
            };
            let plan = plan.as_ref().unwrap_or(self);
            let retries_before = Self::cluster_retries(cluster);
            let attempt = plan.try_forward_active(cluster, &survivors[..t], input, policy);
            retries_per_attempt.push(Self::cluster_retries(cluster) - retries_before);
            match attempt {
                Ok(output) => {
                    let mut collectives = 0u64;
                    let mut comm_bytes = cluster.network_bytes;
                    let mut comm_hidden_ns = cluster.network_hidden_ns;
                    for machine in &cluster.nodes {
                        let stats = machine.stats();
                        collectives += stats.collectives;
                        comm_bytes += stats.interconnect_bytes_sent;
                        comm_hidden_ns += stats.comm_hidden_ns;
                    }
                    return Ok(ClusterRunReport {
                        output,
                        replans,
                        lost_nodes,
                        nodes_used: t,
                        retries_per_attempt,
                        collectives,
                        comm_bytes,
                        comm_hidden_ns,
                    });
                }
                Err((Some(node), e)) => {
                    lost_nodes.push(node);
                    survivors.retain(|&i| i != node);
                    replans += 1;
                    last_err = Some(e);
                }
                Err((None, e)) => return Err(e),
            }
        }
    }

    /// Transient retries charged so far across every node machine.
    fn cluster_retries(cluster: &Cluster) -> u64 {
        cluster.nodes.iter().map(|m| m.stats().retries).sum()
    }

    /// One attempt of the three cluster phases over the `active` node
    /// subset (which must have exactly `self.num_nodes()` entries).
    /// Returns `Err((Some(node), e))` when `node` suffered a permanent
    /// device loss (recoverable by eviction), `Err((None, e))` for
    /// non-recoverable fabric errors.
    fn try_forward_active(
        &self,
        cluster: &mut Cluster,
        active: &[usize],
        input: &[F],
        policy: &RecoveryPolicy,
    ) -> Result<Vec<F>, (Option<usize>, FabricError)> {
        let t = self.num_nodes();
        debug_assert_eq!(active.len(), t);
        let r = self.n() / t;
        let mut shards = self.distribute(input);
        let root = unintt_telemetry::reserve_span_id();
        let t_begin = cluster.total_time_ns();

        // Level 0 → 1: per-node UniNTT + fused boundary twiddle.
        let omega = F::two_adic_generator(self.log_n);
        let gpus = self.node_engine.plan().num_gpus();
        for (slot, (&node, shard)) in active.iter().zip(shards.iter_mut()).enumerate() {
            let machine = &mut cluster.nodes[node];
            let mut data = Sharded::distribute(shard, gpus, ShardLayout::Cyclic);
            if let Err(e) = self.node_engine.try_forward(machine, &mut data, policy) {
                return match e {
                    FabricError::DeviceLost { .. } => Err((Some(node), e)),
                    other => Err((None, other)),
                };
            }
            *shard = data.collect();

            let step = omega.pow(slot as u64);
            let mut cur = F::ONE;
            for v in shard.iter_mut() {
                *v *= cur;
                cur *= step;
            }
            let profile = self.node_twiddle_profile();
            let mut unused = ();
            machine.on_device(0, &mut unused, |ctx, _| {
                ctx.launch(&profile);
            });
        }

        obs_cluster_span(
            root,
            cluster,
            "node-phase",
            "phase",
            false,
            t_begin,
            Vec::new,
        );

        // Level 1 → 2: cross-node all-to-all among the survivors only
        // (`self` is the survivor-subset plan here, so the exchange helper
        // charges among exactly `t` participants).
        let chunk = r / t;
        let old: Vec<Vec<F>> = shards.to_vec();
        for (dst, shard) in shards.iter_mut().enumerate() {
            for (src, old_shard) in old.iter().enumerate() {
                shard[src * chunk..(src + 1) * chunk]
                    .copy_from_slice(&old_shard[dst * chunk..(dst + 1) * chunk]);
            }
        }
        let t0 = cluster.total_time_ns();
        let pre = root.map(|_| (cluster.network_bytes, cluster.network_hidden_ns));
        self.charge_cluster_exchange(cluster);
        if let Some((pre_bytes, pre_hidden)) = pre {
            obs_cluster_span(
                root,
                cluster,
                "cluster-exchange",
                "interconnect",
                false,
                t0,
                || {
                    vec![
                        ("bytes", (cluster.network_bytes - pre_bytes).into()),
                        (
                            "hidden_comm_ns",
                            (cluster.network_hidden_ns - pre_hidden).into(),
                        ),
                    ]
                },
            );
        }

        // Level 2 → 3: size-T outer NTTs on each surviving node.
        let t0 = cluster.total_time_ns();
        for (&node, shard) in active.iter().zip(shards.iter_mut()) {
            let machine = &mut cluster.nodes[node];
            let mut col = vec![F::ZERO; t];
            for j in 0..chunk {
                for (src, slot) in col.iter_mut().enumerate() {
                    *slot = shard[src * chunk + j];
                }
                self.outer.forward(&mut col);
                for (k1, &v) in col.iter().enumerate() {
                    shard[k1 * chunk + j] = v;
                }
            }
            let profile = self.cluster_outer_profile();
            let mut unused = ();
            machine.on_device(0, &mut unused, |ctx, _| {
                ctx.launch(&profile);
            });
        }
        obs_cluster_span(root, cluster, "outer-phase", "phase", false, t0, Vec::new);
        obs_cluster_span(
            root,
            cluster,
            "cluster-attempt",
            "transform",
            true,
            t_begin,
            || vec![("nodes", active.len().into())],
        );
        Ok(self.collect(&shards))
    }

    /// Reassembles the cluster output into the natural-order host vector.
    pub fn collect(&self, node_shards: &[Vec<F>]) -> Vec<F> {
        let t = self.num_nodes();
        let r = self.n() / t;
        let chunk = r / t;
        let mut out = vec![F::ZERO; self.n()];
        // Node `c` position k1·chunk + j holds X[k1·R + c·chunk + j].
        for (c, shard) in node_shards.iter().enumerate() {
            for (pos, &v) in shard.iter().enumerate() {
                let (k1, j) = (pos / chunk, pos % chunk);
                out[k1 * r + c * chunk + j] = v;
            }
        }
        out
    }

    /// Distributes a host vector into the node-cyclic input layout.
    pub fn distribute(&self, input: &[F]) -> Vec<Vec<F>> {
        let t = self.num_nodes();
        assert_eq!(input.len(), self.n(), "input length mismatch");
        let mut shards = vec![Vec::with_capacity(input.len() / t); t];
        for (i, &v) in input.iter().enumerate() {
            shards[i % t].push(v);
        }
        shards
    }

    /// Cost-only forward transform for large-size sweeps.
    pub fn simulate_forward(&self, cluster: &mut Cluster) {
        let root = unintt_telemetry::reserve_span_id();
        let t_begin = cluster.total_time_ns();
        let twiddle = self.node_twiddle_profile();
        let outer = self.cluster_outer_profile();
        for machine in cluster.nodes.iter_mut() {
            self.node_engine.simulate_forward(machine, 1);
            let mut unused = ();
            machine.on_device(0, &mut unused, |ctx, _| {
                ctx.launch(&twiddle);
                ctx.launch(&outer);
            });
        }
        obs_cluster_span(
            root,
            cluster,
            "node-phase",
            "phase",
            false,
            t_begin,
            Vec::new,
        );
        let t0 = cluster.total_time_ns();
        let pre = root.map(|_| (cluster.network_bytes, cluster.network_hidden_ns));
        self.charge_cluster_exchange(cluster);
        if let Some((pre_bytes, pre_hidden)) = pre {
            obs_cluster_span(
                root,
                cluster,
                "cluster-exchange",
                "interconnect",
                false,
                t0,
                || {
                    vec![
                        ("bytes", (cluster.network_bytes - pre_bytes).into()),
                        (
                            "hidden_comm_ns",
                            (cluster.network_hidden_ns - pre_hidden).into(),
                        ),
                    ]
                },
            );
        }
        let nodes = cluster.num_nodes();
        obs_cluster_span(
            root,
            cluster,
            "cluster-forward",
            "transform",
            true,
            t_begin,
            || vec![("nodes", nodes.into())],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use unintt_ff::{Field, Goldilocks};
    use unintt_gpu_sim::presets;

    fn random_vec(n: usize, seed: u64) -> Vec<Goldilocks> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| Goldilocks::random(&mut rng)).collect()
    }

    fn reference(input: &[Goldilocks]) -> Vec<Goldilocks> {
        let ntt = Ntt::<Goldilocks>::new(input.len().trailing_zeros());
        let mut out = input.to_vec();
        ntt.forward(&mut out);
        out
    }

    #[test]
    fn cluster_forward_matches_reference() {
        let fs = FieldSpec::goldilocks();
        for nodes in [1usize, 2, 4] {
            for gpus in [1usize, 4] {
                let log_n = 12u32;
                let node_cfg = presets::a100_nvlink(gpus);
                let engine = ClusterNttEngine::<Goldilocks>::new(
                    log_n,
                    nodes,
                    &node_cfg,
                    UniNttOptions::tuned_for(&fs),
                    fs,
                );
                let mut cluster =
                    Cluster::new(nodes, node_cfg, NetworkConfig::infiniband_400g(), fs);
                let input = random_vec(1 << log_n, nodes as u64);
                let mut shards = engine.distribute(&input);
                engine.forward(&mut cluster, &mut shards);
                assert_eq!(
                    engine.collect(&shards),
                    reference(&input),
                    "nodes={nodes} gpus={gpus}"
                );
                if nodes > 1 {
                    assert!(cluster.network_bytes() > 0);
                    assert!(cluster.total_time_ns() > 0.0);
                }
            }
        }
    }

    #[test]
    fn network_volume_is_exact() {
        let fs = FieldSpec::goldilocks();
        let nodes = 4usize;
        let log_n = 14u32;
        let node_cfg = presets::a100_nvlink(4);
        let engine = ClusterNttEngine::<Goldilocks>::new(
            log_n,
            nodes,
            &node_cfg,
            UniNttOptions::tuned_for(&fs),
            fs,
        );
        let mut cluster = Cluster::new(nodes, node_cfg, NetworkConfig::infiniband_400g(), fs);
        let input = random_vec(1 << log_n, 1);
        let mut shards = engine.distribute(&input);
        engine.forward(&mut cluster, &mut shards);
        // Each node sends (T-1)/T of its R-element shard once.
        let r_bytes = (1u64 << (log_n - 2)) * 8;
        assert_eq!(cluster.network_bytes(), r_bytes * 3 / 4 * nodes as u64);
    }

    #[test]
    fn simulate_matches_functional_clock() {
        let fs = FieldSpec::goldilocks();
        let nodes = 4usize;
        let log_n = 14u32;
        let node_cfg = presets::a100_nvlink(4);
        let engine = ClusterNttEngine::<Goldilocks>::new(
            log_n,
            nodes,
            &node_cfg,
            UniNttOptions::tuned_for(&fs),
            fs,
        );

        let mut real = Cluster::new(
            nodes,
            node_cfg.clone(),
            NetworkConfig::infiniband_400g(),
            fs,
        );
        let input = random_vec(1 << log_n, 2);
        let mut shards = engine.distribute(&input);
        engine.forward(&mut real, &mut shards);

        let mut sim = Cluster::new(nodes, node_cfg, NetworkConfig::infiniband_400g(), fs);
        engine.simulate_forward(&mut sim);

        let (rt, st) = (real.total_time_ns(), sim.total_time_ns());
        assert!((rt - st).abs() < 1e-6 * rt, "real={rt} sim={st}");
        assert_eq!(real.network_bytes(), sim.network_bytes());
    }

    #[test]
    fn network_model_scales() {
        let net = NetworkConfig::infiniband_400g();
        assert_eq!(net.all_to_all_ns(1, 1 << 30), 0.0);
        let t2 = net.all_to_all_ns(2, 1 << 30);
        let t8 = net.all_to_all_ns(8, 1 << 30);
        assert!(t8 > t2, "more nodes exchange a larger fraction");
        let eth = NetworkConfig::ethernet_100g();
        assert!(eth.all_to_all_ns(4, 1 << 30) > net.all_to_all_ns(4, 1 << 30));
    }

    #[test]
    fn network_cost_is_pinned_to_shared_alpha_beta() {
        // The network charge must equal the shared α–β formula in
        // unintt-gpu-sim, and its absolute value is pinned so neither
        // layer can drift in units without this test noticing.
        let net = NetworkConfig::infiniband_400g();
        let got = net.all_to_all_ns(4, 1 << 30);
        assert_eq!(
            got,
            alpha_beta_all_to_all_ns(4, 1 << 30, 50.0, 5_000.0, 0.85)
        );
        // 4 nodes × 1 GiB: egress 3/4 GiB per node at 50 GB/s × 0.85
        // = 805306368 B / 42.5 B/ns + 5 µs latency.
        let expected = 5_000.0 + (1u64 << 30) as f64 * 0.75 / 42.5;
        assert_eq!(got, expected);
        assert!((got - 18_953_385.129).abs() < 0.01, "charged {got} ns");
    }

    #[test]
    fn overlapped_cluster_hides_network_time() {
        let fs = FieldSpec::goldilocks();
        let node_cfg = presets::a100_nvlink(4);
        let log_n = 22u32;
        let mut opts = UniNttOptions::tuned_for(&fs);
        let over_engine = ClusterNttEngine::<Goldilocks>::new(log_n, 4, &node_cfg, opts, fs);
        opts.comm_mode = CommMode::Blocking;
        let block_engine = ClusterNttEngine::<Goldilocks>::new(log_n, 4, &node_cfg, opts, fs);

        let mut over = Cluster::new(4, node_cfg.clone(), NetworkConfig::infiniband_400g(), fs);
        over_engine.simulate_forward(&mut over);
        let mut block = Cluster::new(4, node_cfg, NetworkConfig::infiniband_400g(), fs);
        block_engine.simulate_forward(&mut block);

        assert!(over.network_hidden_ns() > 0.0, "wire time must be hidden");
        assert_eq!(block.network_hidden_ns(), 0.0);
        assert!(
            over.total_time_ns() < block.total_time_ns(),
            "overlap must shorten the makespan: over={} block={}",
            over.total_time_ns(),
            block.total_time_ns()
        );
        assert_eq!(over.network_bytes(), block.network_bytes());
    }

    #[test]
    fn recovery_without_faults_matches_reference() {
        let fs = FieldSpec::goldilocks();
        let node_cfg = presets::a100_nvlink(4);
        let engine = ClusterNttEngine::<Goldilocks>::new(
            12,
            4,
            &node_cfg,
            UniNttOptions::tuned_for(&fs),
            fs,
        );
        let mut cluster = Cluster::new(4, node_cfg, NetworkConfig::infiniband_400g(), fs);
        let input = random_vec(1 << 12, 11);
        let report = engine
            .forward_with_recovery(&mut cluster, &input, &RecoveryPolicy::default())
            .unwrap();
        assert_eq!(report.output, reference(&input));
        assert_eq!(report.replans, 0);
        assert!(report.lost_nodes.is_empty());
        assert_eq!(report.nodes_used, 4);
        assert_eq!(report.retries_per_attempt, vec![0]);
        assert_eq!(report.total_retries(), 0);
        assert_eq!(report.attempts(), 1);
        // Communication totals (satellite observability): GPU-fabric
        // collectives ran on every node, bytes cover fabric + network, and
        // the default overlapped schedule hid some network wire time.
        assert!(report.collectives > 0);
        assert!(report.comm_bytes > cluster.network_bytes());
        assert!(report.comm_hidden_ns > 0.0);
        assert_eq!(
            report.comm_hidden_ns,
            cluster.network_hidden_ns()
                + (0..4)
                    .map(|i| cluster.node(i).stats().comm_hidden_ns)
                    .sum::<f64>()
        );
    }

    #[test]
    fn transient_drops_are_reported_per_attempt() {
        use unintt_gpu_sim::{FaultEvent, FaultKind, FaultPlan};
        let fs = FieldSpec::goldilocks();
        let node_cfg = presets::a100_nvlink(4);
        let engine = ClusterNttEngine::<Goldilocks>::new(
            12,
            2,
            &node_cfg,
            UniNttOptions::tuned_for(&fs),
            fs,
        );
        let mut cluster = Cluster::new(2, node_cfg, NetworkConfig::infiniband_400g(), fs);
        // Two dropped collectives on node 0: absorbed by the policy's
        // retries within the single attempt, and surfaced in the report.
        cluster.node_mut(0).set_fault_plan(FaultPlan::scripted(vec![
            FaultEvent {
                seq: 0,
                kind: FaultKind::Drop,
            },
            FaultEvent {
                seq: 2,
                kind: FaultKind::Drop,
            },
        ]));
        let input = random_vec(1 << 12, 21);
        let report = engine
            .forward_with_recovery(&mut cluster, &input, &RecoveryPolicy::default())
            .unwrap();
        assert_eq!(report.output, reference(&input));
        assert_eq!(report.replans, 0, "drops never evict a node");
        assert_eq!(report.attempts(), 1);
        assert_eq!(report.retries_per_attempt.len(), 1);
        assert!(
            report.total_retries() >= 2,
            "both injected drops must surface as retries: {:?}",
            report.retries_per_attempt
        );
    }

    #[test]
    fn recovery_skips_pre_dead_node() {
        let fs = FieldSpec::goldilocks();
        let node_cfg = presets::a100_nvlink(4);
        let engine = ClusterNttEngine::<Goldilocks>::new(
            12,
            4,
            &node_cfg,
            UniNttOptions::tuned_for(&fs),
            fs,
        );
        let mut cluster = Cluster::new(4, node_cfg, NetworkConfig::infiniband_400g(), fs);
        cluster.node_mut(2).fail_device(1);
        let input = random_vec(1 << 12, 12);
        let report = engine
            .forward_with_recovery(&mut cluster, &input, &RecoveryPolicy::default())
            .unwrap();
        assert_eq!(report.output, reference(&input));
        // Three healthy nodes -> largest power-of-two subset is two.
        assert_eq!(report.nodes_used, 2);
        assert_eq!(
            report.replans, 0,
            "pre-dead nodes are excluded, not replanned"
        );
    }

    #[test]
    fn mid_run_node_loss_replans_and_recovers() {
        use unintt_gpu_sim::{FaultEvent, FaultKind, FaultPlan};
        let fs = FieldSpec::goldilocks();
        let node_cfg = presets::a100_nvlink(4);
        let engine = ClusterNttEngine::<Goldilocks>::new(
            12,
            4,
            &node_cfg,
            UniNttOptions::tuned_for(&fs),
            fs,
        );
        let mut cluster = Cluster::new(4, node_cfg, NetworkConfig::infiniband_400g(), fs);
        // Node 1 loses GPU 3 at its first collective.
        cluster
            .node_mut(1)
            .set_fault_plan(FaultPlan::scripted(vec![FaultEvent {
                seq: 0,
                kind: FaultKind::DeviceLoss { device: 3 },
            }]));
        let input = random_vec(1 << 12, 13);
        let report = engine
            .forward_with_recovery(&mut cluster, &input, &RecoveryPolicy::default())
            .unwrap();
        assert_eq!(
            report.output,
            reference(&input),
            "degraded result must stay exact"
        );
        assert_eq!(report.replans, 1);
        assert_eq!(report.lost_nodes, vec![1]);
        assert_eq!(report.nodes_used, 2);
        assert_eq!(
            report.attempts(),
            2,
            "one failed attempt plus the successful replay"
        );
        assert!(!cluster.node(1).is_alive(3));
    }

    #[test]
    fn all_nodes_lost_reports_error() {
        use unintt_gpu_sim::{FaultEvent, FaultKind, FaultPlan};
        let fs = FieldSpec::goldilocks();
        let node_cfg = presets::a100_nvlink(2);
        let engine = ClusterNttEngine::<Goldilocks>::new(
            12,
            2,
            &node_cfg,
            UniNttOptions::tuned_for(&fs),
            fs,
        );
        let mut cluster = Cluster::new(2, node_cfg, NetworkConfig::infiniband_400g(), fs);
        for i in 0..2 {
            cluster
                .node_mut(i)
                .set_fault_plan(FaultPlan::scripted(vec![FaultEvent {
                    seq: 0,
                    kind: FaultKind::DeviceLoss { device: 0 },
                }]));
        }
        let input = random_vec(1 << 12, 14);
        let err = engine
            .forward_with_recovery(&mut cluster, &input, &RecoveryPolicy::default())
            .unwrap_err();
        assert!(matches!(
            err,
            unintt_gpu_sim::FabricError::DeviceLost { .. }
        ));
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn undersized_transform_rejected() {
        let fs = FieldSpec::goldilocks();
        let _ = ClusterNttEngine::<Goldilocks>::new(
            3,
            4,
            &presets::a100_nvlink(2),
            UniNttOptions::tuned_for(&fs),
            fs,
        );
    }
}
