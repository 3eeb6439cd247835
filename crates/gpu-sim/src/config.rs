//! Machine description: GPUs, interconnect, and the field cost spec.
//!
//! These types are the simulator's "datasheet" layer. They deliberately
//! mirror the parameters one reads off an NVIDIA whitepaper (SM count,
//! clock, HBM bandwidth, NVLink bandwidth) so that the presets in
//! [`crate::presets`] are auditable against public numbers.

/// Static description of a single GPU.
#[derive(Clone, Debug, PartialEq)]
pub struct GpuConfig {
    /// Marketing name, e.g. `"A100-SXM4-80GB"`.
    pub name: String,
    /// Number of streaming multiprocessors.
    pub sm_count: u32,
    /// Threads per warp (32 on every shipping NVIDIA part).
    pub warp_size: u32,
    /// Maximum threads per thread block.
    pub max_threads_per_block: u32,
    /// Shared memory available to one thread block, in bytes.
    pub shared_mem_per_block: u64,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// Peak global-memory (HBM/GDDR) bandwidth in GB/s.
    pub global_mem_bandwidth_gbps: f64,
    /// Global-memory access latency in nanoseconds.
    pub global_mem_latency_ns: f64,
    /// Shared-memory bandwidth per SM in bytes per cycle.
    pub shared_mem_bytes_per_cycle_per_sm: f64,
    /// Warp-shuffle operations retired per cycle per SM.
    pub shuffles_per_cycle_per_sm: f64,
    /// 64-bit integer multiply-add throughput per cycle per SM
    /// (the unit the [`FieldSpec`] multiplies against).
    pub limb_muls_per_cycle_per_sm: f64,
    /// Fixed kernel-launch overhead in nanoseconds.
    pub kernel_launch_overhead_ns: f64,
    /// Device memory capacity in bytes.
    pub memory_bytes: u64,
}

/// How the GPUs in a machine talk to each other.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Topology {
    /// Fully connected switch fabric (NVSwitch): every pair of GPUs enjoys
    /// full per-GPU bandwidth simultaneously.
    AllToAll,
    /// Directed ring (NVLink bridges without a switch): collectives run in
    /// `D-1` pipelined steps.
    Ring,
    /// No peer-to-peer links: all traffic bounces through host memory over
    /// PCIe and contends for the host's aggregate bandwidth.
    HostBounce,
    /// Two-level hierarchy: nodes of NVLink-connected GPUs joined by a
    /// shared inter-node fabric (InfiniBand / RoCE). Collectives run as a
    /// staged gather → exchange → scatter: intra-node reshuffle at NVLink
    /// rate, one uplink transfer per node, intra-node scatter.
    Hierarchical,
}

/// Interconnect datasheet.
#[derive(Clone, Debug, PartialEq)]
pub struct InterconnectConfig {
    /// Fabric shape.
    pub topology: Topology,
    /// Per-GPU injection bandwidth into the fabric, GB/s
    /// (e.g. 600 for A100 NVSwitch, 32 for PCIe 4.0 x16).
    pub per_gpu_bandwidth_gbps: f64,
    /// One-way message latency in nanoseconds.
    pub latency_ns: f64,
    /// For [`Topology::HostBounce`]: aggregate host-memory bandwidth cap in
    /// GB/s shared by all devices. Ignored for peer-to-peer topologies.
    pub host_aggregate_bandwidth_gbps: f64,
    /// Achievable fraction of peak bandwidth for large transfers (NCCL bus
    /// efficiency, typically 0.7–0.9).
    pub efficiency: f64,
    /// For [`Topology::Hierarchical`]: GPUs per node (must divide
    /// `num_gpus`). `0` means "all GPUs in one node" and is the default so
    /// single-node configs serialize unchanged.
    pub gpus_per_node: usize,
    /// For [`Topology::Hierarchical`]: per-node uplink bandwidth into the
    /// inter-node fabric, GB/s (e.g. 50 for 400G InfiniBand).
    pub inter_node_bandwidth_gbps: f64,
    /// For [`Topology::Hierarchical`]: one-way inter-node latency in ns.
    pub inter_node_latency_ns: f64,
}

/// A complete multi-GPU machine.
#[derive(Clone, Debug, PartialEq)]
pub struct MachineConfig {
    /// Number of GPUs.
    pub num_gpus: usize,
    /// Per-GPU datasheet (homogeneous machines only, as in the paper).
    pub gpu: GpuConfig,
    /// Inter-GPU fabric.
    pub interconnect: InterconnectConfig,
}

impl MachineConfig {
    /// Validates invariants (nonzero counts, positive rates).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_gpus == 0 {
            return Err("machine must have at least one GPU".into());
        }
        if self.gpu.sm_count == 0 || self.gpu.warp_size == 0 {
            return Err("GPU must have nonzero SM count and warp size".into());
        }
        if !self.gpu.warp_size.is_power_of_two() {
            return Err("warp size must be a power of two".into());
        }
        for (name, v) in [
            ("clock_ghz", self.gpu.clock_ghz),
            (
                "global_mem_bandwidth_gbps",
                self.gpu.global_mem_bandwidth_gbps,
            ),
            (
                "limb_muls_per_cycle_per_sm",
                self.gpu.limb_muls_per_cycle_per_sm,
            ),
            (
                "per_gpu_bandwidth_gbps",
                self.interconnect.per_gpu_bandwidth_gbps,
            ),
            ("efficiency", self.interconnect.efficiency),
        ] {
            if v <= 0.0 || !v.is_finite() {
                return Err(format!("{name} must be positive and finite, got {v}"));
            }
        }
        if self.interconnect.efficiency > 1.0 {
            return Err("interconnect efficiency cannot exceed 1.0".into());
        }
        if self.interconnect.topology == Topology::Hierarchical {
            let g = self.interconnect.gpus_per_node;
            if g > 0 && !self.num_gpus.is_multiple_of(g) {
                return Err(format!(
                    "gpus_per_node ({g}) must divide num_gpus ({})",
                    self.num_gpus
                ));
            }
            let multi_node = g > 0 && g < self.num_gpus;
            let bw = self.interconnect.inter_node_bandwidth_gbps;
            if multi_node && (bw <= 0.0 || !bw.is_finite()) {
                return Err(format!(
                    "hierarchical topology needs a positive inter_node_bandwidth_gbps, got {bw}"
                ));
            }
        }
        Ok(())
    }
}

/// Per-field cost parameters: how expensive one field op is in "limb
/// multiply" units, and how wide an element is on the wire.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FieldSpec {
    /// Element width in bytes (8 for Goldilocks, 32 for BN254-Fr).
    pub elem_bytes: usize,
    /// Cost of one field multiplication in limb-multiply units
    /// (≈1 for Goldilocks, ≈20 for 4-limb Montgomery).
    pub mul_cost: f64,
    /// Cost of one field addition in the same units.
    pub add_cost: f64,
    /// Short name for reports.
    pub name: &'static str,
}

impl FieldSpec {
    /// Cost spec for the 64-bit Goldilocks field.
    pub const fn goldilocks() -> Self {
        Self {
            elem_bytes: 8,
            mul_cost: 1.0,
            add_cost: 0.15,
            name: "Goldilocks",
        }
    }

    /// Cost spec for a 254-bit 4-limb Montgomery field (BN254-Fr): a CIOS
    /// multiply is ~16 limb products plus reduction overhead.
    pub const fn bn254_fr() -> Self {
        Self {
            elem_bytes: 32,
            mul_cost: 22.0,
            add_cost: 1.0,
            name: "BN254-Fr",
        }
    }

    /// Cost spec for the 31-bit BabyBear field (half-width limb products).
    pub const fn babybear() -> Self {
        Self {
            elem_bytes: 4,
            mul_cost: 0.5,
            add_cost: 0.1,
            name: "BabyBear",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn presets_validate() {
        for cfg in [
            presets::a100_nvlink(8),
            presets::a100_nvlink(1),
            presets::v100_nvlink_ring(4),
            presets::rtx4090_pcie(2),
            presets::a100_superpod(2, 4),
        ] {
            cfg.validate()
                .expect("preset must be internally consistent");
        }
    }

    #[test]
    fn hierarchical_validation() {
        let mut cfg = presets::a100_superpod(2, 4);
        cfg.validate().expect("superpod preset must validate");
        cfg.interconnect.gpus_per_node = 3; // does not divide 8
        assert!(cfg.validate().is_err());
        cfg.interconnect.gpus_per_node = 4;
        cfg.interconnect.inter_node_bandwidth_gbps = 0.0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn zero_gpus_rejected() {
        let mut cfg = presets::a100_nvlink(2);
        cfg.num_gpus = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn bad_efficiency_rejected() {
        let mut cfg = presets::a100_nvlink(2);
        cfg.interconnect.efficiency = 1.5;
        assert!(cfg.validate().is_err());
        cfg.interconnect.efficiency = 0.0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn non_power_of_two_warp_rejected() {
        let mut cfg = presets::a100_nvlink(2);
        cfg.gpu.warp_size = 33;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn field_specs_are_sane() {
        let g = FieldSpec::goldilocks();
        let b = FieldSpec::bn254_fr();
        assert!(b.mul_cost > g.mul_cost, "wide fields cost more");
        assert_eq!(b.elem_bytes, 32);
        assert_eq!(g.elem_bytes, 8);
    }

    #[test]
    fn config_clone_eq() {
        let cfg = presets::a100_nvlink(4);
        assert_eq!(cfg.clone(), cfg);
    }
}
