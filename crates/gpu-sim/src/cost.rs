//! The analytical cost model.
//!
//! Kernel time follows a roofline: the charged time is the *maximum* of the
//! compute, global-memory, shared-memory and shuffle components (GPUs
//! overlap these pipelines), plus a fixed launch overhead. Collective time
//! follows the standard α–β (latency–bandwidth) model specialized per
//! topology.

use crate::config::{FieldSpec, GpuConfig, InterconnectConfig, MachineConfig, Topology};
use crate::device::KernelProfile;
use crate::trace::Category;

/// Cost model for one machine and one field.
#[derive(Clone, Debug)]
pub struct CostModel {
    gpu: GpuConfig,
    interconnect: InterconnectConfig,
    num_gpus: usize,
    field: FieldSpec,
}

/// Breakdown of a single kernel's cost.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KernelCost {
    /// Total charged nanoseconds (roofline max + launch).
    pub total_ns: f64,
    /// Which component dominated.
    pub bottleneck: Category,
    /// The roofline components, in ns.
    pub compute_ns: f64,
    /// Global-memory component.
    pub global_mem_ns: f64,
    /// Shared-memory component.
    pub shared_mem_ns: f64,
    /// Shuffle component.
    pub shuffle_ns: f64,
    /// Launch overhead.
    pub launch_ns: f64,
}

impl CostModel {
    /// Builds the model from a machine config and a field spec.
    pub fn new(machine: &MachineConfig, field: FieldSpec) -> Self {
        Self {
            gpu: machine.gpu.clone(),
            interconnect: machine.interconnect.clone(),
            num_gpus: machine.num_gpus,
            field,
        }
    }

    /// The field spec in force.
    pub fn field(&self) -> FieldSpec {
        self.field
    }

    /// The GPU datasheet in force.
    pub fn gpu(&self) -> &GpuConfig {
        &self.gpu
    }

    /// Number of GPUs in the machine.
    pub fn num_gpus(&self) -> usize {
        self.num_gpus
    }

    /// Charges one kernel described by `profile`.
    pub fn kernel_cost(&self, profile: &KernelProfile) -> KernelCost {
        let g = &self.gpu;
        let clock_hz = g.clock_ghz * 1e9;

        // Occupancy: a grid smaller than the SM count leaves SMs idle.
        let occupancy = if profile.blocks == 0 {
            1.0
        } else {
            (profile.blocks as f64 / g.sm_count as f64).min(1.0)
        };
        let effective_sms = g.sm_count as f64 * occupancy;

        // Compute: field ops converted to limb-multiply units.
        let limb_units = profile.field_muls as f64 * self.field.mul_cost
            + profile.field_adds as f64 * self.field.add_cost;
        let compute_ns = if limb_units > 0.0 {
            limb_units / (effective_sms * g.limb_muls_per_cycle_per_sm * clock_hz) * 1e9
        } else {
            0.0
        };

        // Global memory: bandwidth derated by the coalescing efficiency,
        // plus one latency if anything was touched.
        let bytes = profile.global_bytes_read + profile.global_bytes_written;
        let global_mem_ns = if bytes > 0 {
            let eff_bw = g.global_mem_bandwidth_gbps * 1e9 * profile.coalescing_efficiency;
            bytes as f64 / eff_bw * 1e9 + g.global_mem_latency_ns
        } else {
            0.0
        };

        // Shared memory: accesses weighted by the bank-conflict degree.
        let shared_mem_ns = if profile.shared_accesses > 0 {
            let bytes = profile.shared_accesses as f64
                * self.field.elem_bytes as f64
                * profile.bank_conflict_degree;
            let bw = g.shared_mem_bytes_per_cycle_per_sm * effective_sms * clock_hz;
            bytes / bw * 1e9
        } else {
            0.0
        };

        // Warp shuffles.
        let shuffle_ns = if profile.shuffle_ops > 0 {
            profile.shuffle_ops as f64 / (g.shuffles_per_cycle_per_sm * effective_sms * clock_hz)
                * 1e9
        } else {
            0.0
        };

        let launch_ns = g.kernel_launch_overhead_ns;

        let components = [
            (Category::Compute, compute_ns),
            (Category::GlobalMem, global_mem_ns),
            (Category::SharedMem, shared_mem_ns),
            (Category::Shuffle, shuffle_ns),
        ];
        let (bottleneck, max_ns) =
            components
                .iter()
                .copied()
                .fold((Category::Compute, 0.0f64), |acc, (c, v)| {
                    if v > acc.1 {
                        (c, v)
                    } else {
                        acc
                    }
                });

        KernelCost {
            total_ns: max_ns + launch_ns,
            bottleneck,
            compute_ns,
            global_mem_ns,
            shared_mem_ns,
            shuffle_ns,
            launch_ns,
        }
    }

    /// Time for an all-to-all where every device exchanges its share of
    /// `bytes_per_device` (the full resident shard size) with every other
    /// device. Each device keeps `1/D` locally and sends `(D-1)/D`.
    ///
    /// The per-topology schedule lives in [`crate::fabric`]: this is the
    /// latency + bottleneck-link wire time of the link-level graph, and on
    /// the full-crossbar topology it equals the shared
    /// [`crate::fabric::alpha_beta_all_to_all_ns`] charge.
    pub fn all_to_all_ns(&self, bytes_per_device: u64) -> f64 {
        let (lat, wire) =
            crate::fabric::all_to_all_split(&self.interconnect, self.num_gpus, bytes_per_device);
        lat + wire
    }

    /// Time for an all-gather: every device ends with all `D` shards of
    /// `bytes_per_device` each, i.e. receives `(D-1)` shards.
    pub fn all_gather_ns(&self, bytes_per_device: u64) -> f64 {
        let d = self.num_gpus;
        if d <= 1 {
            return 0.0;
        }
        let ic = &self.interconnect;
        let ingress = bytes_per_device as f64 * (d as f64 - 1.0);
        match ic.topology {
            Topology::AllToAll => {
                ic.latency_ns + ingress / (ic.per_gpu_bandwidth_gbps * 1e9 * ic.efficiency) * 1e9
            }
            Topology::Ring => {
                let step = ic.latency_ns
                    + bytes_per_device as f64 / (ic.per_gpu_bandwidth_gbps * 1e9 * ic.efficiency)
                        * 1e9;
                step * (d as f64 - 1.0)
            }
            Topology::HostBounce => {
                let per_dev =
                    2.0 * ingress / (ic.per_gpu_bandwidth_gbps * 1e9 * ic.efficiency) * 1e9;
                let host_total = 2.0 * ingress * d as f64
                    / (ic.host_aggregate_bandwidth_gbps * 1e9 * ic.efficiency)
                    * 1e9;
                ic.latency_ns + per_dev.max(host_total)
            }
            Topology::Hierarchical => {
                // Staged gather: intra-node gather, node-level exchange over
                // the uplinks, intra-node broadcast of the remote shards.
                let g = ic.gpus_per_node.max(1).min(d);
                let nodes = d / g;
                let link_bw = ic.per_gpu_bandwidth_gbps * 1e9 * ic.efficiency;
                if nodes <= 1 {
                    return ic.latency_ns + ingress / link_bw * 1e9;
                }
                let intra_in = bytes_per_device as f64 * (g as f64 - 1.0) / link_bw * 1e9;
                let node_bytes = bytes_per_device as f64 * g as f64 * (nodes as f64 - 1.0);
                let inter = node_bytes / (ic.inter_node_bandwidth_gbps * 1e9 * ic.efficiency) * 1e9;
                let remote_in = node_bytes / link_bw * 1e9;
                2.0 * ic.latency_ns + ic.inter_node_latency_ns + intra_in + inter + remote_in
            }
        }
    }

    /// Fabric latency a machine-wide barrier adds (none on one GPU).
    pub fn barrier_ns(&self) -> f64 {
        if self.num_gpus > 1 {
            self.interconnect.latency_ns
        } else {
            0.0
        }
    }

    /// Time for a `ceil(log2 D)`-round binomial tree of `bytes`-sized
    /// point-to-point transfers (reduce-to-root, broadcast); zero on one
    /// GPU.
    pub fn tree_ns(&self, bytes: u64) -> f64 {
        if self.num_gpus <= 1 {
            return 0.0;
        }
        (self.num_gpus as f64).log2().ceil() * self.p2p_ns(bytes)
    }

    /// Time for a point-to-point transfer of `bytes` (worst-case pair:
    /// cross-node on hierarchical fabrics).
    pub fn p2p_ns(&self, bytes: u64) -> f64 {
        let ic = &self.interconnect;
        let wire = bytes as f64 / (ic.per_gpu_bandwidth_gbps * 1e9 * ic.efficiency) * 1e9;
        match ic.topology {
            Topology::AllToAll | Topology::Ring => ic.latency_ns + wire,
            Topology::HostBounce => ic.latency_ns + 2.0 * wire,
            Topology::Hierarchical => {
                let g = ic.gpus_per_node.max(1).min(self.num_gpus);
                if g >= self.num_gpus {
                    return ic.latency_ns + wire;
                }
                let inter_wire =
                    bytes as f64 / (ic.inter_node_bandwidth_gbps * 1e9 * ic.efficiency) * 1e9;
                ic.latency_ns + ic.inter_node_latency_ns + wire + inter_wire
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    fn profile(bytes: u64, muls: u64) -> KernelProfile {
        KernelProfile {
            name: "test",
            blocks: 1024,
            field_muls: muls,
            field_adds: 2 * muls,
            global_bytes_read: bytes,
            global_bytes_written: bytes,
            coalescing_efficiency: 1.0,
            shared_accesses: 0,
            bank_conflict_degree: 1.0,
            shuffle_ops: 0,
        }
    }

    fn model(gpus: usize) -> CostModel {
        CostModel::new(&presets::a100_nvlink(gpus), FieldSpec::goldilocks())
    }

    #[test]
    fn memory_bound_kernel_scales_with_bytes() {
        let m = model(1);
        let c1 = m.kernel_cost(&profile(1 << 24, 0));
        let c2 = m.kernel_cost(&profile(1 << 25, 0));
        assert_eq!(c1.bottleneck, Category::GlobalMem);
        let t1 = c1.total_ns - c1.launch_ns;
        let t2 = c2.total_ns - c2.launch_ns;
        assert!(t2 > 1.8 * t1 && t2 < 2.2 * t1, "t1={t1} t2={t2}");
    }

    #[test]
    fn poor_coalescing_slows_kernel() {
        let m = model(1);
        let mut bad = profile(1 << 24, 0);
        bad.coalescing_efficiency = 0.25;
        let good_t = m.kernel_cost(&profile(1 << 24, 0)).global_mem_ns;
        let bad_t = m.kernel_cost(&bad).global_mem_ns;
        assert!(bad_t > 3.5 * good_t, "good={good_t} bad={bad_t}");
    }

    #[test]
    fn compute_bound_with_expensive_field() {
        let machine = presets::a100_nvlink(1);
        let cheap = CostModel::new(&machine, FieldSpec::goldilocks());
        let pricey = CostModel::new(&machine, FieldSpec::bn254_fr());
        let p = profile(1 << 20, 1 << 24);
        assert!(pricey.kernel_cost(&p).compute_ns > 10.0 * cheap.kernel_cost(&p).compute_ns);
    }

    #[test]
    fn occupancy_penalizes_tiny_grids() {
        let m = model(1);
        let mut small = profile(0, 1 << 20);
        small.blocks = 1;
        let mut big = profile(0, 1 << 20);
        big.blocks = 1 << 16;
        assert!(
            m.kernel_cost(&small).compute_ns > 50.0 * m.kernel_cost(&big).compute_ns,
            "1-block grid must be heavily penalized"
        );
    }

    #[test]
    fn all_to_all_zero_for_single_gpu() {
        assert_eq!(model(1).all_to_all_ns(1 << 30), 0.0);
    }

    #[test]
    fn ring_slower_than_switch() {
        let bytes = 1u64 << 28;
        let switch = CostModel::new(&presets::a100_nvlink(8), FieldSpec::goldilocks());
        let mut ring_cfg = presets::a100_nvlink(8);
        ring_cfg.interconnect.topology = Topology::Ring;
        let ring = CostModel::new(&ring_cfg, FieldSpec::goldilocks());
        assert!(ring.all_to_all_ns(bytes) > switch.all_to_all_ns(bytes));
    }

    #[test]
    fn host_bounce_much_slower_than_nvlink() {
        let bytes = 1u64 << 28;
        let nvlink = CostModel::new(&presets::a100_nvlink(4), FieldSpec::goldilocks());
        let pcie = CostModel::new(&presets::rtx4090_pcie(4), FieldSpec::goldilocks());
        assert!(pcie.all_to_all_ns(bytes) > 10.0 * nvlink.all_to_all_ns(bytes));
    }

    #[test]
    fn all_to_all_charge_pinned_to_shared_alpha_beta() {
        // Regression pin for the shared cost function: a100_nvlink(8) with
        // 2^27-byte shards charges 9 µs latency plus
        // (2^27 · 7/8) B / (600 GB/s · 0.8) = 244 667.733… ns of wire.
        let m = model(8);
        let ns = m.all_to_all_ns(1 << 27);
        let expected = 9000.0 + 117_440_512.0 / 480.0;
        assert!((ns - expected).abs() < 1e-6, "{ns} vs {expected}");
        let shared = crate::fabric::alpha_beta_all_to_all_ns(8, 1 << 27, 600.0, 9000.0, 0.8);
        assert!(
            (ns - shared).abs() < 1e-9,
            "cost model must route through the shared α–β function"
        );
    }

    #[test]
    fn hierarchical_between_switch_and_pcie() {
        let bytes = 1u64 << 28;
        let switch = model(8);
        let pod = CostModel::new(&presets::a100_superpod(2, 4), FieldSpec::goldilocks());
        let pcie = CostModel::new(&presets::rtx4090_pcie(8), FieldSpec::goldilocks());
        assert!(pod.all_to_all_ns(bytes) > switch.all_to_all_ns(bytes));
        assert!(pcie.all_to_all_ns(bytes) > pod.all_to_all_ns(bytes));
        assert!(pod.all_gather_ns(bytes) > switch.all_gather_ns(bytes));
        assert!(pod.p2p_ns(bytes) > switch.p2p_ns(bytes));
    }

    #[test]
    fn all_gather_grows_with_device_count() {
        let bytes = 1u64 << 26;
        assert!(model(8).all_gather_ns(bytes) > model(2).all_gather_ns(bytes));
    }

    #[test]
    fn p2p_includes_latency() {
        let m = model(2);
        assert!(m.p2p_ns(0) >= 9000.0);
    }
}
