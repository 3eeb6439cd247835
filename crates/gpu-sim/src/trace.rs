//! Cost accounting: categories, hierarchy levels, and accumulated stats.

/// Where simulated time is spent.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Category {
    /// Arithmetic (field butterflies, twiddle products).
    Compute,
    /// Global-memory (HBM) traffic.
    GlobalMem,
    /// Shared-memory traffic within a thread block.
    SharedMem,
    /// Register-shuffle exchanges within a warp.
    Shuffle,
    /// Kernel-launch overhead.
    Launch,
    /// Inter-GPU communication.
    Interconnect,
    /// Fault handling: detection timeouts, chunk retransmissions, and
    /// recovery backoff. The fault-category share of total time is the
    /// recovery overhead of a run.
    Fault,
}

impl Category {
    /// All categories, in display order.
    pub const ALL: [Category; 7] = [
        Category::Compute,
        Category::GlobalMem,
        Category::SharedMem,
        Category::Shuffle,
        Category::Launch,
        Category::Interconnect,
        Category::Fault,
    ];

    /// The hierarchy level this category's hardware lives at.
    pub fn level(self) -> Level {
        match self {
            Category::Shuffle => Level::Warp,
            Category::SharedMem => Level::Block,
            Category::Compute | Category::GlobalMem | Category::Launch => Level::Device,
            Category::Interconnect | Category::Fault => Level::MultiGpu,
        }
    }

    /// Stable lowercase name (also what [`core::fmt::Display`] prints);
    /// `&'static` so telemetry can attach it without allocating.
    pub fn as_str(self) -> &'static str {
        match self {
            Category::Compute => "compute",
            Category::GlobalMem => "global-mem",
            Category::SharedMem => "shared-mem",
            Category::Shuffle => "shuffle",
            Category::Launch => "launch",
            Category::Interconnect => "interconnect",
            Category::Fault => "fault",
        }
    }
}

impl core::fmt::Display for Category {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The four levels of the multi-GPU hierarchy the paper optimizes across.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Level {
    /// 32 lanes exchanging through registers.
    Warp,
    /// Warps in a thread block exchanging through shared memory.
    Block,
    /// Thread blocks on one GPU exchanging through global memory.
    Device,
    /// GPUs exchanging through the interconnect.
    MultiGpu,
}

impl Level {
    /// All levels, innermost first.
    pub const ALL: [Level; 4] = [Level::Warp, Level::Block, Level::Device, Level::MultiGpu];
}

impl core::fmt::Display for Level {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            Level::Warp => "warp",
            Level::Block => "block",
            Level::Device => "device",
            Level::MultiGpu => "multi-gpu",
        };
        f.write_str(s)
    }
}

/// One collective operation as seen by the machine: what ran, how many
/// bytes crossed the fabric, over how many links, and how much of the
/// communication time an overlapped schedule hid behind compute.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CollectiveEvent {
    /// Operation name (`"all-to-all"`, `"all-to-all-overlapped"`, …).
    pub op: &'static str,
    /// Total bytes moved across the fabric by all participants.
    pub bytes: u64,
    /// Number of fabric links the schedule occupied.
    pub links_used: u32,
    /// Wall (simulated) time charged for the operation, ns.
    pub time_ns: f64,
    /// Communication nanoseconds hidden behind caller-supplied compute
    /// (0 for blocking collectives).
    pub hidden_ns: f64,
}

/// Accumulated simulation statistics (per device, mergeable).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Stats {
    /// Simulated nanoseconds charged, by bottleneck category. Each kernel's
    /// full roofline time lands on the single category that dominated it.
    pub time_ns: TimeByCategory,
    /// Raw (overlap-ignoring) component nanoseconds: every kernel adds each
    /// of its pipeline components here, whether or not it was the
    /// bottleneck. Use for "where does the work live" breakdowns; sums to
    /// more than the makespan by construction.
    pub raw_time_ns: TimeByCategory,
    /// Bytes read from global memory.
    pub global_bytes_read: u64,
    /// Bytes written to global memory.
    pub global_bytes_written: u64,
    /// Bytes this device injected into the inter-GPU fabric.
    pub interconnect_bytes_sent: u64,
    /// Bytes re-sent after checksum-detected corruption.
    pub interconnect_bytes_retransmitted: u64,
    /// Interconnect nanoseconds hidden behind compute by overlapped
    /// collectives (already *excluded* from `time_ns.interconnect`; the
    /// raw, overlap-blind charge is in `raw_time_ns.interconnect`).
    pub comm_hidden_ns: f64,
    /// Kernel launches.
    pub kernels_launched: u64,
    /// Collective operations participated in.
    pub collectives: u64,
    /// Injected faults observed by this device.
    pub faults_injected: u64,
    /// Collective attempts retried after transient failures.
    pub retries: u64,
    /// Field multiplications executed.
    pub field_muls: u64,
    /// Field additions executed.
    pub field_adds: u64,
    /// Warp-shuffle operations.
    pub shuffle_ops: u64,
    /// Shared-memory accesses (bank-conflict-weighted accesses are charged
    /// in time, this counts raw accesses).
    pub shared_accesses: u64,
}

/// Nanoseconds indexed by [`Category`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TimeByCategory {
    /// See [`Category::Compute`].
    pub compute: f64,
    /// See [`Category::GlobalMem`].
    pub global_mem: f64,
    /// See [`Category::SharedMem`].
    pub shared_mem: f64,
    /// See [`Category::Shuffle`].
    pub shuffle: f64,
    /// See [`Category::Launch`].
    pub launch: f64,
    /// See [`Category::Interconnect`].
    pub interconnect: f64,
    /// See [`Category::Fault`].
    pub fault: f64,
}

impl TimeByCategory {
    /// Mutable access by category.
    pub fn get_mut(&mut self, cat: Category) -> &mut f64 {
        match cat {
            Category::Compute => &mut self.compute,
            Category::GlobalMem => &mut self.global_mem,
            Category::SharedMem => &mut self.shared_mem,
            Category::Shuffle => &mut self.shuffle,
            Category::Launch => &mut self.launch,
            Category::Interconnect => &mut self.interconnect,
            Category::Fault => &mut self.fault,
        }
    }

    /// Read access by category.
    pub fn get(&self, cat: Category) -> f64 {
        match cat {
            Category::Compute => self.compute,
            Category::GlobalMem => self.global_mem,
            Category::SharedMem => self.shared_mem,
            Category::Shuffle => self.shuffle,
            Category::Launch => self.launch,
            Category::Interconnect => self.interconnect,
            Category::Fault => self.fault,
        }
    }

    /// Total across categories.
    pub fn total(&self) -> f64 {
        Category::ALL.iter().map(|&c| self.get(c)).sum()
    }

    /// Element-wise maximum (used when merging per-device critical paths).
    pub fn max_merge(&mut self, other: &Self) {
        for cat in Category::ALL {
            let m = self.get(cat).max(other.get(cat));
            *self.get_mut(cat) = m;
        }
    }

    /// Nanoseconds aggregated to hierarchy levels.
    pub fn by_level(&self) -> [(Level, f64); 4] {
        let mut out = [
            (Level::Warp, 0.0),
            (Level::Block, 0.0),
            (Level::Device, 0.0),
            (Level::MultiGpu, 0.0),
        ];
        for cat in Category::ALL {
            let idx = match cat.level() {
                Level::Warp => 0,
                Level::Block => 1,
                Level::Device => 2,
                Level::MultiGpu => 3,
            };
            out[idx].1 += self.get(cat);
        }
        out
    }
}

impl Stats {
    /// Creates empty stats.
    pub fn new() -> Self {
        Self::default()
    }

    /// Merges another device's stats: counters sum, per-category times take
    /// the maximum (devices run concurrently, so the per-category critical
    /// path is the max across symmetric devices).
    pub fn merge_concurrent(&mut self, other: &Stats) {
        self.time_ns.max_merge(&other.time_ns);
        self.raw_time_ns.max_merge(&other.raw_time_ns);
        self.global_bytes_read += other.global_bytes_read;
        self.global_bytes_written += other.global_bytes_written;
        self.interconnect_bytes_sent += other.interconnect_bytes_sent;
        self.interconnect_bytes_retransmitted += other.interconnect_bytes_retransmitted;
        self.comm_hidden_ns = self.comm_hidden_ns.max(other.comm_hidden_ns);
        self.kernels_launched += other.kernels_launched;
        self.collectives += other.collectives;
        self.faults_injected += other.faults_injected;
        self.retries += other.retries;
        self.field_muls += other.field_muls;
        self.field_adds += other.field_adds;
        self.shuffle_ops += other.shuffle_ops;
        self.shared_accesses += other.shared_accesses;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn category_level_mapping() {
        assert_eq!(Category::Shuffle.level(), Level::Warp);
        assert_eq!(Category::SharedMem.level(), Level::Block);
        assert_eq!(Category::GlobalMem.level(), Level::Device);
        assert_eq!(Category::Interconnect.level(), Level::MultiGpu);
    }

    #[test]
    fn time_by_category_accessors() {
        let mut t = TimeByCategory::default();
        *t.get_mut(Category::Compute) += 5.0;
        *t.get_mut(Category::Interconnect) += 7.0;
        assert_eq!(t.get(Category::Compute), 5.0);
        assert_eq!(t.total(), 12.0);
    }

    #[test]
    fn by_level_aggregates_device_categories() {
        let t = TimeByCategory {
            compute: 1.0,
            global_mem: 2.0,
            launch: 3.0,
            shuffle: 10.0,
            ..TimeByCategory::default()
        };
        let by = t.by_level();
        assert_eq!(by[0], (Level::Warp, 10.0));
        assert_eq!(by[2], (Level::Device, 6.0));
    }

    #[test]
    fn merge_concurrent_sums_counters_maxes_times() {
        let mut a = Stats::new();
        a.global_bytes_read = 100;
        a.time_ns.compute = 5.0;
        let mut b = Stats::new();
        b.global_bytes_read = 50;
        b.time_ns.compute = 9.0;
        a.merge_concurrent(&b);
        assert_eq!(a.global_bytes_read, 150);
        assert_eq!(a.time_ns.compute, 9.0);
    }

    #[test]
    fn display_strings() {
        assert_eq!(Level::MultiGpu.to_string(), "multi-gpu");
        assert_eq!(Category::GlobalMem.to_string(), "global-mem");
    }
}
