//! NCCL-style collectives over the simulated fabric.
//!
//! Each collective does two things: *functionally* moves the data between
//! the per-device shards (so downstream computation is bit-exact), and
//! charges α–β time from [`crate::cost::CostModel`] to every participant.
//! All collectives imply a clock synchronization first, as NCCL kernels do.
//!
//! # Faults
//!
//! Every collective consumes one sequence number from the machine's
//! monotone collective counter and consults the installed [`FaultPlan`]
//! (if any). Argument bugs and injected faults both surface as typed
//! [`FabricError`]s instead of panics:
//!
//! * **Drop** — atomic: no data moves, a detection timeout (one modeled
//!   collective duration) is charged as fault time, and
//!   [`FabricError::CollectiveDropped`] is returned. Retrying is safe.
//! * **Corrupt** — the collective *succeeds* with one damaged chunk.
//!   [`Machine::all_to_all_checked`] detects this by per-chunk checksum
//!   and re-requests only the bad chunks (charged as fault time +
//!   retransmitted bytes); the plain variant delivers it silently.
//! * **Delay / Straggler** — the collective succeeds; extra time is
//!   charged (once, or persistently on the slow device).
//! * **DeviceLoss** — the device dies; this and every later collective
//!   return [`FabricError::DeviceLost`] until the caller re-plans.
//!
//! [`FaultPlan`]: crate::fault::FaultPlan

use std::hash::{Hash, Hasher};

use crate::device::KernelProfile;
use crate::fault::{CollectiveReport, FabricError, FaultKind};
use crate::machine::Machine;
use crate::timeline::TraceEvent;
use crate::trace::{Category, CollectiveEvent};

/// Order-sensitive checksum of one chunk (std SipHash with fixed keys:
/// deterministic across runs and platforms for `Hash`-stable types).
fn chunk_checksum<T: Hash>(chunk: &[T]) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for x in chunk {
        x.hash(&mut h);
    }
    h.finish()
}

/// Caller-supplied compute to interleave with an overlapped collective.
///
/// `producers` are the kernels that *generate* the outgoing data (e.g.
/// the final local butterfly pass of a distributed NTT): their work time
/// is sliced evenly across the chunks and each chunk is injected into
/// the fabric as soon as its slice completes. `consumers` are the
/// kernels that *use* the received data (e.g. the outer NTT): each
/// consumer slice starts as soon as its chunk has landed. Launch
/// overheads are charged once per kernel, not once per chunk — the
/// pipeline models a captured graph replayed per chunk, not `chunks`
/// separate host launches.
#[derive(Clone, Copy, Debug)]
pub struct OverlapCompute<'a> {
    /// Kernels producing the outgoing chunks (sliced before injection).
    pub producers: &'a [KernelProfile],
    /// Kernels consuming the arriving chunks (sliced after arrival).
    pub consumers: &'a [KernelProfile],
    /// Number of pipeline chunks (clamped to ≥ 1; `1` degenerates to the
    /// blocking order compute → transfer → compute).
    pub chunks: u32,
}

/// Timing outcome of one overlapped collective.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OverlapReport {
    /// Fault/repair outcome of the underlying exchange.
    pub collective: CollectiveReport,
    /// End-to-end pipeline time: producers, transfer, and consumers with
    /// all overlap applied (what the makespan advanced by).
    pub elapsed_ns: f64,
    /// The full (blocking-equivalent) communication charge the pipeline
    /// was working to hide.
    pub comm_ns: f64,
    /// Communication nanoseconds actually hidden behind compute.
    pub hidden_comm_ns: f64,
}

impl Machine {
    /// Synchronizes clocks and charges `ns` of interconnect time plus
    /// `egress_bytes` to every alive device, then logs one
    /// [`CollectiveEvent`] for the operation.
    fn charge_collective(&mut self, op: &'static str, ns: f64, egress_bytes: u64, links_used: u32) {
        self.barrier();
        let mut participants = 0u64;
        for d in self.devices_mut().iter_mut().filter(|d| d.alive) {
            d.timeline.push(TraceEvent {
                name: "collective",
                start_ns: d.clock_ns,
                duration_ns: ns,
                category: Category::Interconnect,
                queue: 0,
            });
            d.clock_ns += ns;
            *d.stats.time_ns.get_mut(Category::Interconnect) += ns;
            *d.stats.raw_time_ns.get_mut(Category::Interconnect) += ns;
            d.stats.interconnect_bytes_sent += egress_bytes;
            d.stats.collectives += 1;
            participants += 1;
        }
        self.record_collective_event(CollectiveEvent {
            op,
            bytes: egress_bytes * participants,
            links_used,
            time_ns: ns,
            hidden_ns: 0.0,
        });
    }

    /// Fails fast if a device has already died.
    fn ensure_all_alive(&self) -> Result<(), FabricError> {
        match self.first_dead_device() {
            Some(device) => Err(FabricError::DeviceLost {
                device,
                seq: self.collective_seq(),
            }),
            None => Ok(()),
        }
    }

    /// Handles the fault kinds common to every collective. Returns the
    /// fault back for collective-specific handling (corruption, delay)
    /// when the collective should proceed.
    fn apply_pre_fault(
        &mut self,
        seq: u64,
        fault: Option<FaultKind>,
        base_ns: f64,
    ) -> Result<Option<FaultKind>, FabricError> {
        match fault {
            Some(FaultKind::Drop) => {
                // The fabric waits out one modeled completion window
                // before declaring the collective dead.
                self.charge_fault_ns("collective-timeout", base_ns);
                Err(FabricError::CollectiveDropped { seq })
            }
            Some(FaultKind::DeviceLoss { device }) => {
                self.charge_fault_ns("device-loss-detect", base_ns);
                self.fail_device(device);
                Err(FabricError::DeviceLost { device, seq })
            }
            Some(FaultKind::ClusterLoss) => {
                // The whole machine drops out at once; detection costs the
                // same window as a single loss, but afterwards no healthy
                // device remains, so no local re-plan can succeed.
                self.charge_fault_ns("cluster-loss-detect", base_ns);
                for device in 0..self.num_devices() {
                    self.fail_device(device);
                }
                Err(FabricError::DeviceLost { device: 0, seq })
            }
            Some(FaultKind::Straggler { device, factor }) => {
                self.degrade_device(device, factor);
                Ok(None)
            }
            other => Ok(other),
        }
    }

    /// Charges the post-completion cost of a transient delay fault.
    fn apply_delay_fault(&mut self, fault: Option<FaultKind>, base_ns: f64) {
        if let Some(FaultKind::Delay { factor }) = fault {
            self.charge_fault_ns("collective-delay", (factor - 1.0).max(0.0) * base_ns);
        }
    }

    fn validate_equal_shards<T>(&self, shards: &[Vec<T>]) -> Result<usize, FabricError> {
        let d = self.num_devices();
        if shards.len() != d {
            return Err(FabricError::ShardCountMismatch {
                expected: d,
                got: shards.len(),
            });
        }
        let len = shards[0].len();
        if !shards.iter().all(|s| s.len() == len) {
            return Err(FabricError::UnequalShardLengths);
        }
        Ok(len)
    }

    /// All-to-all (NCCL `ncclAllToAll`): shard `d` is split into `D` equal
    /// chunks and chunk `c` of device `d` is delivered to device `c`, where
    /// it lands as chunk `d`.
    ///
    /// Viewing the global array as a `D×D` grid of chunks, this is the chunk
    /// transpose at the heart of every distributed four-step NTT.
    ///
    /// # Errors
    ///
    /// [`FabricError::ShardCountMismatch`] / [`UnequalShardLengths`] /
    /// [`IndivisibleShard`] on argument bugs;
    /// [`CollectiveDropped`] / [`DeviceLost`] on injected faults. An
    /// injected *corruption* is **not** an error here — it silently
    /// damages one chunk; use [`Machine::all_to_all_checked`] to detect
    /// and repair it.
    ///
    /// [`UnequalShardLengths`]: FabricError::UnequalShardLengths
    /// [`IndivisibleShard`]: FabricError::IndivisibleShard
    /// [`CollectiveDropped`]: FabricError::CollectiveDropped
    /// [`DeviceLost`]: FabricError::DeviceLost
    pub fn all_to_all<T: Copy + Send>(
        &mut self,
        shards: &mut [Vec<T>],
        elem_bytes: usize,
    ) -> Result<CollectiveReport, FabricError> {
        let (report, _snapshot) = self.all_to_all_core(shards, elem_bytes, false)?;
        Ok(report)
    }

    /// [`Machine::all_to_all`] plus per-chunk checksum verification: every
    /// received chunk is checked against a checksum of what the sender
    /// dispatched, and mismatching chunks are re-requested point-to-point
    /// (charged as fault time and counted as retransmitted bytes). The
    /// returned report says how much was repaired.
    ///
    /// # Errors
    ///
    /// As [`Machine::all_to_all`].
    pub fn all_to_all_checked<T: Copy + Send + Hash>(
        &mut self,
        shards: &mut [Vec<T>],
        elem_bytes: usize,
    ) -> Result<CollectiveReport, FabricError> {
        let (mut report, snapshot) = self.all_to_all_core(shards, elem_bytes, true)?;
        let Some(old) = snapshot else {
            return Ok(report); // single device: nothing moved
        };
        let d = self.num_devices();
        let chunk = shards[0].len() / d;
        let chunk_bytes = (chunk * elem_bytes) as u64;
        for dst in 0..d {
            for src in 0..d {
                let received = &shards[dst][src * chunk..(src + 1) * chunk];
                let sent = &old[src][dst * chunk..(dst + 1) * chunk];
                if chunk_checksum(received) != chunk_checksum(sent) {
                    // Re-request the damaged chunk from its sender.
                    shards[dst][src * chunk..(src + 1) * chunk].copy_from_slice(sent);
                    let ns = self.model().p2p_ns(chunk_bytes);
                    self.charge_fault_ns("chunk-retransmit", ns);
                    self.record_retransmission(src, chunk_bytes);
                    self.devices_mut()[src]
                        .stats
                        .interconnect_bytes_retransmitted += chunk_bytes;
                    report.retransmitted_chunks += 1;
                    report.retransmitted_bytes += chunk_bytes;
                }
            }
        }
        Ok(report)
    }

    /// Shared body of the plain and checksummed all-to-all. Returns the
    /// pre-exchange snapshot when `keep_snapshot` (for checksum repair).
    #[allow(clippy::type_complexity)]
    fn all_to_all_core<T: Copy + Send>(
        &mut self,
        shards: &mut [Vec<T>],
        elem_bytes: usize,
        keep_snapshot: bool,
    ) -> Result<(CollectiveReport, Option<Vec<Vec<T>>>), FabricError> {
        let d = self.num_devices();
        let len = self.validate_equal_shards(shards)?;
        if d <= 1 {
            return Ok((CollectiveReport::default(), None));
        }
        if len % d != 0 {
            return Err(FabricError::IndivisibleShard { len, devices: d });
        }
        self.ensure_all_alive()?;
        let chunk = len / d;
        let bytes_per_device = (len * elem_bytes) as u64;
        let base_ns = self.model().all_to_all_ns(bytes_per_device);

        let (seq, fault) = self.take_fault_decision();
        let fault = self.apply_pre_fault(seq, fault, base_ns)?;

        // Functional exchange.
        let old: Vec<Vec<T>> = shards.to_vec();
        for (dst_dev, shard) in shards.iter_mut().enumerate() {
            for src_dev in 0..d {
                shard[src_dev * chunk..(src_dev + 1) * chunk]
                    .copy_from_slice(&old[src_dev][dst_dev * chunk..(dst_dev + 1) * chunk]);
            }
        }

        // In-flight corruption: one element of the (src → dst) chunk is
        // overwritten by a neighbouring element from another chunk. The
        // position is a pure function of the sequence number.
        if let Some(FaultKind::Corrupt { src, dst }) = fault {
            let off = (crate::fault::splitmix64(seq ^ 0xc0ff_ee00) % chunk as u64) as usize;
            let pos = src * chunk + off;
            let other = (pos + chunk) % len;
            shards[dst][pos] = shards[dst][other];
        }

        // Timing.
        self.charge_all_to_all(bytes_per_device);
        self.apply_delay_fault(fault, base_ns);

        let report = CollectiveReport {
            seq,
            injected: fault,
            ..CollectiveReport::default()
        };
        Ok((report, keep_snapshot.then_some(old)))
    }

    /// Charges the time and bytes of an all-to-all of `bytes_per_device`
    /// without moving any data. Cost-only simulations (large-size sweeps)
    /// use this to stay in lock-step with the functional path; it is
    /// fault-blind and consumes no collective sequence number.
    pub fn charge_all_to_all(&mut self, bytes_per_device: u64) {
        let d = self.num_devices();
        if d <= 1 {
            return;
        }
        let (lat, wire) = self.fabric_mut().record_all_to_all(bytes_per_device);
        let links = self.fabric().links_used_all_to_all();
        let egress = bytes_per_device * (d as u64 - 1) / d as u64;
        self.charge_collective("all-to-all", lat + wire, egress, links);
    }

    /// Shared engine of the overlapped all-to-all: records the transfer
    /// on the fabric graph, software-pipelines producer slices → chunk
    /// transfers → consumer slices, and charges every alive device the
    /// resulting schedule. Communication is charged in full to
    /// `raw_time_ns.interconnect`; only the *exposed* part (what the
    /// pipeline failed to hide) lands on `time_ns.interconnect`, and the
    /// difference accumulates in [`crate::Stats::comm_hidden_ns`].
    ///
    /// Returns `(elapsed_ns, comm_ns, hidden_ns)`, maxed over devices.
    fn run_overlap_pipeline(
        &mut self,
        op: &'static str,
        bytes_per_device: u64,
        compute: &OverlapCompute<'_>,
    ) -> (f64, f64, f64) {
        let d = self.num_devices();
        let chunks = compute.chunks.max(1) as usize;
        self.barrier();

        let prod_costs: Vec<crate::cost::KernelCost> = compute
            .producers
            .iter()
            .map(|p| self.model().kernel_cost(p))
            .collect();
        let cons_costs: Vec<crate::cost::KernelCost> = compute
            .consumers
            .iter()
            .map(|p| self.model().kernel_cost(p))
            .collect();

        let (lat, wire) = self.fabric_mut().record_all_to_all(bytes_per_device);
        let links = self.fabric().links_used_all_to_all();
        let comm_ns = lat + wire;
        let egress = bytes_per_device * (d as u64 - 1) / d as u64;

        // Work/launch split of a kernel list at straggler factor `s`.
        // Launch overhead is paid once per kernel; only the work part is
        // sliced across chunks (graph replay, not per-chunk launches).
        let split = |costs: &[crate::cost::KernelCost], s: f64| -> (f64, f64) {
            let mut work = 0.0;
            let mut launch = 0.0;
            for c in costs {
                work += (c.total_ns - c.launch_ns) * s;
                launch += c.launch_ns * s;
            }
            (work, launch)
        };

        // Chunk k of the send buffer is ready once the *slowest* alive
        // device has produced slices 0..=k (the fabric is shared).
        let dev_info: Vec<(bool, f64)> = self
            .devices_mut()
            .iter()
            .map(|dev| (dev.alive, dev.speed_factor))
            .collect();
        let mut avail = vec![0.0f64; chunks];
        for &(alive, s) in &dev_info {
            if !alive {
                continue;
            }
            let (work, launch) = split(&prod_costs, s);
            for (k, a) in avail.iter_mut().enumerate() {
                let t = launch + work * (k as f64 + 1.0) / chunks as f64;
                if t > *a {
                    *a = t;
                }
            }
        }

        // Chunk transfers serialize on the shared fabric; each arrives
        // one fabric latency after its wire slice completes.
        let wire_chunk = wire / chunks as f64;
        let mut arrivals = vec![0.0f64; chunks];
        let mut x = 0.0f64;
        for (k, arr) in arrivals.iter_mut().enumerate() {
            x = x.max(avail[k]) + wire_chunk;
            *arr = x + lat;
        }

        let mut elapsed_max = 0.0f64;
        let mut hidden_max = 0.0f64;
        for dev in self.devices_mut().iter_mut().filter(|dev| dev.alive) {
            let s = dev.speed_factor;
            let (cons_work, cons_launch) = split(&cons_costs, s);
            let elapsed = if cons_work + cons_launch > 0.0 {
                let slice = cons_work / chunks as f64;
                let mut done = 0.0f64;
                for &arr in &arrivals {
                    done = done.max(arr) + slice;
                }
                done + cons_launch
            } else {
                arrivals.last().copied().unwrap_or(0.0)
            };

            // Charge the interleaved kernels exactly as a plain launch
            // would: same counters, same bottleneck/raw accounting.
            let mut compute_total = 0.0;
            for (profile, cost) in compute
                .producers
                .iter()
                .zip(&prod_costs)
                .chain(compute.consumers.iter().zip(&cons_costs))
            {
                let st = &mut dev.stats;
                st.kernels_launched += 1;
                st.field_muls += profile.field_muls;
                st.field_adds += profile.field_adds;
                st.global_bytes_read += profile.global_bytes_read;
                st.global_bytes_written += profile.global_bytes_written;
                st.shuffle_ops += profile.shuffle_ops;
                st.shared_accesses += profile.shared_accesses;
                *st.time_ns.get_mut(cost.bottleneck) += (cost.total_ns - cost.launch_ns) * s;
                *st.time_ns.get_mut(Category::Launch) += cost.launch_ns * s;
                st.raw_time_ns.compute += cost.compute_ns * s;
                st.raw_time_ns.global_mem += cost.global_mem_ns * s;
                st.raw_time_ns.shared_mem += cost.shared_mem_ns * s;
                st.raw_time_ns.shuffle += cost.shuffle_ns * s;
                st.raw_time_ns.launch += cost.launch_ns * s;
                compute_total += cost.total_ns * s;
            }

            let exposed = (elapsed - compute_total).max(0.0);
            let hidden = (comm_ns - exposed).clamp(0.0, comm_ns);
            let st = &mut dev.stats;
            *st.time_ns.get_mut(Category::Interconnect) += exposed;
            *st.raw_time_ns.get_mut(Category::Interconnect) += comm_ns;
            st.comm_hidden_ns += hidden;
            st.interconnect_bytes_sent += egress;
            st.collectives += 1;
            dev.timeline.push(TraceEvent {
                name: "overlapped-collective",
                start_ns: dev.clock_ns,
                duration_ns: elapsed,
                category: Category::Interconnect,
                queue: 0,
            });
            dev.clock_ns += elapsed;
            elapsed_max = elapsed_max.max(elapsed);
            hidden_max = hidden_max.max(hidden);
        }
        let alive = self.alive_devices() as u64;
        self.record_collective_event(CollectiveEvent {
            op,
            bytes: egress * alive,
            links_used: links,
            time_ns: elapsed_max,
            hidden_ns: hidden_max,
        });
        (elapsed_max, comm_ns, hidden_max)
    }

    /// Charges `compute`'s kernels at their ordinary (non-pipelined)
    /// cost on every alive device — the degenerate path when there is no
    /// fabric to overlap against.
    fn charge_overlap_compute_flat(&mut self, compute: &OverlapCompute<'_>) {
        let profiles: Vec<KernelProfile> = compute
            .producers
            .iter()
            .chain(compute.consumers.iter())
            .copied()
            .collect();
        for dev in 0..self.num_devices() {
            if !self.is_alive(dev) {
                continue;
            }
            self.on_device(dev, &mut (), |ctx, _| {
                for p in &profiles {
                    ctx.launch(p);
                }
            });
        }
    }

    /// Charges the time of an overlapped all-to-all of `bytes_per_device`
    /// plus its interleaved compute, without moving any data. The
    /// cost-only twin of [`Machine::all_to_all_overlapped`], exactly as
    /// [`Machine::charge_all_to_all`] is the twin of
    /// [`Machine::all_to_all`]; fault-blind, consumes no sequence number.
    ///
    /// With `chunks == 1` the schedule degenerates to the blocking order
    /// (produce, transfer, consume) and charges identical time to
    /// launching the kernels normally around a blocking all-to-all.
    pub fn charge_all_to_all_overlapped(
        &mut self,
        bytes_per_device: u64,
        compute: &OverlapCompute<'_>,
    ) -> OverlapReport {
        if self.num_devices() <= 1 {
            self.charge_overlap_compute_flat(compute);
            return OverlapReport::default();
        }
        let (elapsed, comm, hidden) =
            self.run_overlap_pipeline("all-to-all-overlapped", bytes_per_device, compute);
        OverlapReport {
            collective: CollectiveReport::default(),
            elapsed_ns: elapsed,
            comm_ns: comm,
            hidden_comm_ns: hidden,
        }
    }

    /// All-to-all with communication–compute overlap: functionally
    /// identical to [`Machine::all_to_all_checked`] (same chunk
    /// transpose, same deterministic corruption position, same
    /// checksum-repair semantics when `verify_checksums` is set), but
    /// charged as a software pipeline that interleaves chunk transfers
    /// with the caller's producer/consumer kernels. After the exchange
    /// completes — and any repairs have landed — `consume_chunk(device,
    /// k, shard)` runs for every pipeline chunk `k` on every device, so
    /// the caller can apply the consumer transformation whose cost the
    /// pipeline already charged.
    ///
    /// # Errors
    ///
    /// As [`Machine::all_to_all`]. Drops are atomic: no data moves, no
    /// pipeline time is charged beyond the detection timeout, and no
    /// consumer closure runs, so retrying is always safe.
    pub fn all_to_all_overlapped<T, C>(
        &mut self,
        shards: &mut [Vec<T>],
        elem_bytes: usize,
        compute: &OverlapCompute<'_>,
        verify_checksums: bool,
        mut consume_chunk: C,
    ) -> Result<OverlapReport, FabricError>
    where
        T: Copy + Send + Hash,
        C: FnMut(usize, usize, &mut Vec<T>),
    {
        let d = self.num_devices();
        let len = self.validate_equal_shards(shards)?;
        let pipeline_chunks = compute.chunks.max(1) as usize;
        if d <= 1 {
            self.charge_overlap_compute_flat(compute);
            for (dev, shard) in shards.iter_mut().enumerate() {
                for k in 0..pipeline_chunks {
                    consume_chunk(dev, k, shard);
                }
            }
            return Ok(OverlapReport::default());
        }
        if len % d != 0 {
            return Err(FabricError::IndivisibleShard { len, devices: d });
        }
        self.ensure_all_alive()?;
        let chunk = len / d;
        let bytes_per_device = (len * elem_bytes) as u64;
        let base_ns = self.model().all_to_all_ns(bytes_per_device);

        let (seq, fault) = self.take_fault_decision();
        let fault = self.apply_pre_fault(seq, fault, base_ns)?;

        // Functional exchange + in-flight corruption, byte-identical to
        // the blocking path: overlap changes *when* things happen, never
        // *what* data lands where.
        let old: Vec<Vec<T>> = shards.to_vec();
        for (dst_dev, shard) in shards.iter_mut().enumerate() {
            for src_dev in 0..d {
                shard[src_dev * chunk..(src_dev + 1) * chunk]
                    .copy_from_slice(&old[src_dev][dst_dev * chunk..(dst_dev + 1) * chunk]);
            }
        }
        if let Some(FaultKind::Corrupt { src, dst }) = fault {
            let off = (crate::fault::splitmix64(seq ^ 0xc0ff_ee00) % chunk as u64) as usize;
            let pos = src * chunk + off;
            let other = (pos + chunk) % len;
            shards[dst][pos] = shards[dst][other];
        }

        // Timing: the pipelined schedule instead of a blocking charge.
        let (elapsed, comm, hidden) =
            self.run_overlap_pipeline("all-to-all-overlapped", bytes_per_device, compute);
        let mut report = CollectiveReport {
            seq,
            injected: fault,
            ..CollectiveReport::default()
        };

        // Checksum verification + repair run before any consumer slice
        // touches the data, exactly as in the blocking checked variant.
        if verify_checksums {
            let chunk_bytes = (chunk * elem_bytes) as u64;
            for dst in 0..d {
                for src in 0..d {
                    let received = &shards[dst][src * chunk..(src + 1) * chunk];
                    let sent = &old[src][dst * chunk..(dst + 1) * chunk];
                    if chunk_checksum(received) != chunk_checksum(sent) {
                        shards[dst][src * chunk..(src + 1) * chunk].copy_from_slice(sent);
                        let ns = self.model().p2p_ns(chunk_bytes);
                        self.charge_fault_ns("chunk-retransmit", ns);
                        self.record_retransmission(src, chunk_bytes);
                        self.devices_mut()[src]
                            .stats
                            .interconnect_bytes_retransmitted += chunk_bytes;
                        report.retransmitted_chunks += 1;
                        report.retransmitted_bytes += chunk_bytes;
                    }
                }
            }
        }
        self.apply_delay_fault(fault, base_ns);

        for (dev, shard) in shards.iter_mut().enumerate() {
            for k in 0..pipeline_chunks {
                consume_chunk(dev, k, shard);
            }
        }
        Ok(OverlapReport {
            collective: report,
            elapsed_ns: elapsed,
            comm_ns: comm,
            hidden_comm_ns: hidden,
        })
    }

    /// All-gather: every device ends with the concatenation of all shards
    /// (device order). Returns the gathered copies.
    ///
    /// # Errors
    ///
    /// [`FabricError::ShardCountMismatch`] / [`UnequalShardLengths`] on
    /// argument bugs; [`CollectiveDropped`] / [`DeviceLost`] on injected
    /// faults. Injected corruption damages one element of one device's
    /// gathered copy (silently — gathers carry no checksums here).
    ///
    /// [`UnequalShardLengths`]: FabricError::UnequalShardLengths
    /// [`CollectiveDropped`]: FabricError::CollectiveDropped
    /// [`DeviceLost`]: FabricError::DeviceLost
    pub fn all_gather<T: Copy + Send>(
        &mut self,
        shards: &[Vec<T>],
        elem_bytes: usize,
    ) -> Result<Vec<Vec<T>>, FabricError> {
        let d = self.num_devices();
        let len = self.validate_equal_shards(shards)?;

        let mut gathered = Vec::with_capacity(len * d);
        for s in shards {
            gathered.extend_from_slice(s);
        }
        let mut out = vec![gathered; d];

        if d > 1 {
            self.ensure_all_alive()?;
            let bytes_per_device = (len * elem_bytes) as u64;
            let base_ns = self.model().all_gather_ns(bytes_per_device);
            let (seq, fault) = self.take_fault_decision();
            let fault = self.apply_pre_fault(seq, fault, base_ns)?;
            if let Some(FaultKind::Corrupt { src, dst }) = fault {
                if len > 0 && out[dst].len() > 1 {
                    let pos = src * len
                        + (crate::fault::splitmix64(seq ^ 0xc0ff_ee01) % len as u64) as usize;
                    let other = (pos + 1) % out[dst].len();
                    out[dst][pos] = out[dst][other];
                }
            }
            let egress = bytes_per_device * (d as u64 - 1);
            self.charge_collective("all-gather", base_ns, egress, d as u32);
            self.apply_delay_fault(fault, base_ns);
        }
        Ok(out)
    }

    /// [`Machine::all_gather`] plus per-source checksum verification:
    /// every gathered segment is checked against the shard its source
    /// dispatched, and damaged segments are re-requested point-to-point
    /// (charged as fault time and counted as retransmitted bytes). The
    /// returned report says what was injected and how much was repaired.
    ///
    /// # Errors
    ///
    /// As [`Machine::all_gather`].
    pub fn all_gather_checked<T: Copy + Send + Hash>(
        &mut self,
        shards: &[Vec<T>],
        elem_bytes: usize,
    ) -> Result<(Vec<Vec<T>>, CollectiveReport), FabricError> {
        let seq = self.collective_seq();
        let mut out = self.all_gather(shards, elem_bytes)?;
        let d = self.num_devices();
        let mut report = CollectiveReport::default();
        if d <= 1 {
            return Ok((out, report));
        }
        report.seq = seq;
        report.injected = self
            .fault_log()
            .iter()
            .rev()
            .find(|e| e.seq == seq)
            .map(|e| e.kind);
        let len = shards[0].len();
        let seg_bytes = (len * elem_bytes) as u64;
        let sums: Vec<u64> = shards.iter().map(|s| chunk_checksum(s)).collect();
        for row in out.iter_mut() {
            for src in 0..d {
                let seg = &row[src * len..(src + 1) * len];
                if chunk_checksum(seg) != sums[src] {
                    row[src * len..(src + 1) * len].copy_from_slice(&shards[src]);
                    let ns = self.model().p2p_ns(seg_bytes);
                    self.charge_fault_ns("chunk-retransmit", ns);
                    self.record_retransmission(src, seg_bytes);
                    self.devices_mut()[src]
                        .stats
                        .interconnect_bytes_retransmitted += seg_bytes;
                    report.retransmitted_chunks += 1;
                    report.retransmitted_bytes += seg_bytes;
                }
            }
        }
        Ok((out, report))
    }

    /// Tree reduction to device 0 using a caller-supplied combiner
    /// (e.g. field addition, curve-point addition). Returns the reduced
    /// value; time is `ceil(log2 D)` point-to-point rounds of the full
    /// buffer.
    ///
    /// # Errors
    ///
    /// [`FabricError::ShardCountMismatch`] if `values.len()` differs from
    /// the device count; [`CollectiveDropped`] / [`DeviceLost`] on
    /// injected faults. Injected corruption is ignored (reductions are
    /// assumed end-to-end verified by their small size).
    ///
    /// [`CollectiveDropped`]: FabricError::CollectiveDropped
    /// [`DeviceLost`]: FabricError::DeviceLost
    pub fn reduce_to_root<T: Clone + Send>(
        &mut self,
        values: &[T],
        elem_bytes: usize,
        combine: impl Fn(&T, &T) -> T,
    ) -> Result<T, FabricError> {
        let d = self.num_devices();
        if values.len() != d {
            return Err(FabricError::ShardCountMismatch {
                expected: d,
                got: values.len(),
            });
        }
        let mut acc = values[0].clone();
        for v in &values[1..] {
            acc = combine(&acc, v);
        }
        if d > 1 {
            self.ensure_all_alive()?;
            let rounds = (d as f64).log2().ceil();
            let base_ns = rounds * self.model().p2p_ns(elem_bytes as u64);
            let (seq, fault) = self.take_fault_decision();
            let fault = self.apply_pre_fault(seq, fault, base_ns)?;
            self.charge_collective("reduce-to-root", base_ns, elem_bytes as u64, d as u32 - 1);
            self.apply_delay_fault(fault, base_ns);
        }
        Ok(acc)
    }

    /// [`Machine::reduce_to_root`] with checksummed contributions: a
    /// corrupted transfer is detected at the combining end by checksum
    /// and the damaged contribution is re-requested (charged as fault
    /// time plus retransmitted bytes), so the reduced value is always
    /// computed from pristine inputs.
    ///
    /// # Errors
    ///
    /// As [`Machine::reduce_to_root`].
    pub fn reduce_to_root_checked<T: Clone + Send>(
        &mut self,
        values: &[T],
        elem_bytes: usize,
        combine: impl Fn(&T, &T) -> T,
    ) -> Result<(T, CollectiveReport), FabricError> {
        let seq = self.collective_seq();
        let acc = self.reduce_to_root(values, elem_bytes, combine)?;
        let mut report = CollectiveReport::default();
        if self.num_devices() <= 1 {
            return Ok((acc, report));
        }
        report.seq = seq;
        report.injected = self
            .fault_log()
            .iter()
            .rev()
            .find(|e| e.seq == seq)
            .map(|e| e.kind);
        if let Some(FaultKind::Corrupt { src, .. }) = report.injected {
            let bytes = elem_bytes as u64;
            let ns = self.model().p2p_ns(bytes);
            self.charge_fault_ns("chunk-retransmit", ns);
            self.record_retransmission(src, bytes);
            self.devices_mut()[src]
                .stats
                .interconnect_bytes_retransmitted += bytes;
            report.retransmitted_chunks += 1;
            report.retransmitted_bytes += bytes;
        }
        Ok((acc, report))
    }

    /// Broadcast from device 0: returns one copy per device; time is a
    /// `ceil(log2 D)`-round binomial tree.
    ///
    /// # Errors
    ///
    /// [`CollectiveDropped`] / [`DeviceLost`] on injected faults.
    /// Injected corruption is ignored, as for reductions.
    ///
    /// [`CollectiveDropped`]: FabricError::CollectiveDropped
    /// [`DeviceLost`]: FabricError::DeviceLost
    pub fn broadcast<T: Clone + Send>(
        &mut self,
        value: &T,
        elem_bytes: usize,
    ) -> Result<Vec<T>, FabricError> {
        let d = self.num_devices();
        if d > 1 {
            self.ensure_all_alive()?;
            let rounds = (d as f64).log2().ceil();
            let base_ns = rounds * self.model().p2p_ns(elem_bytes as u64);
            let (seq, fault) = self.take_fault_decision();
            let fault = self.apply_pre_fault(seq, fault, base_ns)?;
            self.charge_collective("broadcast", base_ns, elem_bytes as u64, d as u32 - 1);
            self.apply_delay_fault(fault, base_ns);
        }
        Ok(vec![value.clone(); d])
    }

    /// Host → device transfer (PCIe staging of inputs). Charges only the
    /// target device.
    pub fn host_to_device_ns(&mut self, device: usize, bytes: u64) {
        // PCIe 4.0 x16 effective rate, the host link on every preset.
        const HOST_LINK_GBPS: f64 = 25.0;
        let ns = bytes as f64 / (HOST_LINK_GBPS * 1e9) * 1e9;
        let dev = &mut self.devices_mut()[device];
        dev.clock_ns += ns;
        *dev.stats.time_ns.get_mut(Category::Interconnect) += ns;
    }
}

#[cfg(test)]
mod tests {
    use super::{OverlapCompute, OverlapReport};
    use crate::config::FieldSpec;
    use crate::device::KernelProfile;
    use crate::fault::{FabricError, FaultEvent, FaultKind, FaultPlan, FaultRates};
    use crate::machine::Machine;
    use crate::presets;
    use crate::trace::Category;

    fn machine(gpus: usize) -> Machine {
        Machine::new(presets::a100_nvlink(gpus), FieldSpec::goldilocks())
    }

    fn scripted(machine: &mut Machine, seq: u64, kind: FaultKind) {
        machine.set_fault_plan(FaultPlan::scripted(vec![FaultEvent { seq, kind }]));
    }

    #[test]
    fn all_to_all_is_chunk_transpose() {
        let d = 4;
        let mut m = machine(d);
        let chunk = 3;
        // shard[dev][c*chunk + i] = dev*100 + c*10 + i
        let mut shards: Vec<Vec<u64>> = (0..d)
            .map(|dev| {
                (0..d * chunk)
                    .map(|j| (dev * 100 + (j / chunk) * 10 + j % chunk) as u64)
                    .collect()
            })
            .collect();
        m.all_to_all(&mut shards, 8).unwrap();
        for (dev, shard) in shards.iter().enumerate() {
            for c in 0..d {
                for i in 0..chunk {
                    // After exchange: device `dev` chunk `c` came from
                    // device `c` chunk `dev`.
                    assert_eq!(shard[c * chunk + i], (c * 100 + dev * 10 + i) as u64);
                }
            }
        }
        assert!(m.max_clock_ns() > 0.0);
        assert!(m.stats().interconnect_bytes_sent > 0);
    }

    #[test]
    fn all_to_all_involution() {
        let d = 8;
        let mut m = machine(d);
        let mut shards: Vec<Vec<u64>> = (0..d)
            .map(|dev| (0..64).map(|j| (dev * 64 + j) as u64).collect())
            .collect();
        let original = shards.clone();
        m.all_to_all(&mut shards, 8).unwrap();
        assert_ne!(shards, original);
        m.all_to_all(&mut shards, 8).unwrap();
        assert_eq!(shards, original, "all-to-all must be an involution");
    }

    #[test]
    fn all_to_all_single_device_noop() {
        let mut m = machine(1);
        let mut shards = vec![vec![1u64, 2, 3, 4]];
        m.all_to_all(&mut shards, 8).unwrap();
        assert_eq!(shards[0], vec![1, 2, 3, 4]);
        assert_eq!(m.max_clock_ns(), 0.0);
    }

    #[test]
    fn all_gather_concatenates_in_device_order() {
        let mut m = machine(3);
        let shards = vec![vec![1u64], vec![2], vec![3]];
        let gathered = m.all_gather(&shards, 8).unwrap();
        assert_eq!(gathered.len(), 3);
        for g in gathered {
            assert_eq!(g, vec![1, 2, 3]);
        }
    }

    #[test]
    fn reduce_to_root_combines_all() {
        let mut m = machine(4);
        let values = vec![1u64, 10, 100, 1000];
        let sum = m.reduce_to_root(&values, 8, |a, b| a + b).unwrap();
        assert_eq!(sum, 1111);
        assert!(m.max_clock_ns() > 0.0);
    }

    #[test]
    fn broadcast_replicates() {
        let mut m = machine(4);
        let copies = m.broadcast(&42u64, 8).unwrap();
        assert_eq!(copies, vec![42; 4]);
    }

    #[test]
    fn all_to_all_indivisible_is_typed_error() {
        let mut m = machine(4);
        let mut shards: Vec<Vec<u64>> = (0..4).map(|_| vec![0; 6]).collect();
        assert_eq!(
            m.all_to_all(&mut shards, 8),
            Err(FabricError::IndivisibleShard { len: 6, devices: 4 })
        );
    }

    #[test]
    fn shard_count_mismatch_is_typed_error() {
        let mut m = machine(4);
        let mut shards: Vec<Vec<u64>> = (0..3).map(|_| vec![0; 4]).collect();
        assert_eq!(
            m.all_to_all(&mut shards, 8),
            Err(FabricError::ShardCountMismatch {
                expected: 4,
                got: 3
            })
        );
        assert_eq!(
            m.all_gather(&shards, 8),
            Err(FabricError::ShardCountMismatch {
                expected: 4,
                got: 3
            })
        );
    }

    #[test]
    fn collective_time_grows_with_bytes() {
        let mut m1 = machine(4);
        let mut small: Vec<Vec<u64>> = (0..4).map(|_| vec![0; 1 << 10]).collect();
        m1.all_to_all(&mut small, 8).unwrap();
        let t_small = m1.max_clock_ns();

        let mut m2 = machine(4);
        let mut big: Vec<Vec<u64>> = (0..4).map(|_| vec![0; 1 << 16]).collect();
        m2.all_to_all(&mut big, 8).unwrap();
        assert!(m2.max_clock_ns() > t_small);
    }

    #[test]
    fn dropped_collective_moves_no_data_and_charges_timeout() {
        let mut m = machine(4);
        scripted(&mut m, 0, FaultKind::Drop);
        let mut shards: Vec<Vec<u64>> = (0..4)
            .map(|dev| (0..8).map(|j| (dev * 8 + j) as u64).collect())
            .collect();
        let before = shards.clone();
        let err = m.all_to_all(&mut shards, 8).unwrap_err();
        assert_eq!(err, FabricError::CollectiveDropped { seq: 0 });
        assert_eq!(shards, before, "drop must be atomic");
        assert!(m.stats().time_ns.get(Category::Fault) > 0.0);
        // The retry (seq 1) is clean and completes.
        m.all_to_all(&mut shards, 8).unwrap();
        assert_ne!(shards, before);
        assert_eq!(m.fault_log().len(), 1);
    }

    #[test]
    fn corruption_is_silent_plain_but_repaired_checked() {
        let kind = FaultKind::Corrupt { src: 2, dst: 1 };
        let make_shards = || -> Vec<Vec<u64>> {
            (0..4)
                .map(|dev| (0..16).map(|j| (dev * 1000 + j) as u64).collect())
                .collect()
        };
        // Expected result of a clean exchange.
        let mut clean = make_shards();
        machine(4).all_to_all(&mut clean, 8).unwrap();

        // Plain: corruption lands in the (src=2 → dst=1) chunk.
        let mut m = machine(4);
        scripted(&mut m, 0, kind);
        let mut shards = make_shards();
        m.all_to_all(&mut shards, 8).unwrap();
        assert_ne!(shards, clean, "corruption should damage the data");

        // Checked: detected, repaired, and billed.
        let mut m = machine(4);
        scripted(&mut m, 0, kind);
        let mut shards = make_shards();
        let report = m.all_to_all_checked(&mut shards, 8).unwrap();
        assert_eq!(shards, clean, "checksum repair must restore the data");
        assert_eq!(report.retransmitted_chunks, 1);
        assert!(report.retransmitted_bytes > 0);
        assert!(m.stats().interconnect_bytes_retransmitted > 0);
        assert!(m.stats().time_ns.get(Category::Fault) > 0.0);
    }

    #[test]
    fn cluster_loss_kills_every_device_at_once() {
        let mut m = machine(4);
        scripted(&mut m, 1, FaultKind::ClusterLoss);
        let mut shards: Vec<Vec<u64>> = (0..4).map(|_| vec![7u64; 8]).collect();
        m.all_to_all(&mut shards, 8).unwrap();
        let err = m.all_to_all(&mut shards, 8).unwrap_err();
        assert!(matches!(err, FabricError::DeviceLost { .. }));
        assert_eq!(m.alive_devices(), 0, "the whole machine must be dead");
        // No local re-plan can succeed: every later collective fails too.
        assert!(matches!(
            m.all_to_all(&mut shards, 8),
            Err(FabricError::DeviceLost { .. })
        ));
    }

    #[test]
    fn checked_clean_run_retransmits_nothing() {
        let mut m = machine(4);
        let mut shards: Vec<Vec<u64>> = (0..4)
            .map(|dev| (0..16).map(|j| (dev * 16 + j) as u64).collect())
            .collect();
        let report = m.all_to_all_checked(&mut shards, 8).unwrap();
        assert_eq!(report.retransmitted_chunks, 0);
        assert_eq!(m.stats().time_ns.get(Category::Fault), 0.0);
    }

    #[test]
    fn device_loss_fails_this_and_later_collectives() {
        let mut m = machine(4);
        scripted(&mut m, 1, FaultKind::DeviceLoss { device: 2 });
        let mut shards: Vec<Vec<u64>> = (0..4).map(|_| vec![7u64; 8]).collect();
        m.all_to_all(&mut shards, 8).unwrap();
        let err = m.all_to_all(&mut shards, 8).unwrap_err();
        assert_eq!(err, FabricError::DeviceLost { device: 2, seq: 1 });
        assert!(!m.is_alive(2));
        assert_eq!(m.alive_devices(), 3);
        // Every later collective keeps failing until the caller re-plans.
        assert!(matches!(
            m.all_to_all(&mut shards, 8),
            Err(FabricError::DeviceLost { device: 2, .. })
        ));
    }

    #[test]
    fn delay_charges_extra_fault_time() {
        let mut clean = machine(4);
        let mut shards: Vec<Vec<u64>> = (0..4).map(|_| vec![0u64; 1 << 10]).collect();
        clean.all_to_all(&mut shards, 8).unwrap();
        let t_clean = clean.max_clock_ns();

        let mut m = machine(4);
        scripted(&mut m, 0, FaultKind::Delay { factor: 5.0 });
        let mut shards: Vec<Vec<u64>> = (0..4).map(|_| vec![0u64; 1 << 10]).collect();
        m.all_to_all(&mut shards, 8).unwrap();
        assert!(m.max_clock_ns() > t_clean);
        assert!(m.stats().time_ns.get(Category::Fault) > 0.0);
    }

    #[test]
    fn straggler_slows_subsequent_kernels() {
        use crate::device::KernelProfile;
        let run = |straggle: bool| -> f64 {
            let mut m = machine(2);
            if straggle {
                scripted(
                    &mut m,
                    0,
                    FaultKind::Straggler {
                        device: 0,
                        factor: 3.0,
                    },
                );
            }
            let mut shards: Vec<Vec<u64>> = (0..2).map(|_| vec![0u64; 8]).collect();
            m.all_to_all(&mut shards, 8).unwrap();
            m.parallel_phase(&mut shards, |ctx, _, _| {
                let mut p = KernelProfile::named("work");
                p.global_bytes_read = 1 << 24;
                ctx.launch(&p);
            });
            m.max_clock_ns()
        };
        assert!(run(true) > run(false));
    }

    fn overlap_profiles() -> (KernelProfile, KernelProfile) {
        let mut prod = KernelProfile::named("producer");
        prod.blocks = 4096;
        prod.global_bytes_read = 1 << 26;
        prod.global_bytes_written = 1 << 26;
        let mut cons = KernelProfile::named("consumer");
        cons.blocks = 4096;
        cons.global_bytes_read = 1 << 26;
        cons.global_bytes_written = 1 << 26;
        cons.field_muls = 1 << 20;
        (prod, cons)
    }

    #[test]
    fn blocking_collectives_record_events() {
        let mut m = machine(4);
        let mut shards: Vec<Vec<u64>> = (0..4).map(|_| vec![0u64; 16]).collect();
        m.all_to_all(&mut shards, 8).unwrap();
        let _ = m.all_gather(&shards, 8).unwrap();
        let ev = m.collective_events();
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].op, "all-to-all");
        assert_eq!(ev[1].op, "all-gather");
        assert!(ev[0].links_used > 0);
        assert!(ev[0].bytes > 0);
        assert_eq!(ev[0].hidden_ns, 0.0);
    }

    #[test]
    fn overlapped_single_chunk_matches_blocking_schedule() {
        let (prod, cons) = overlap_profiles();
        let bytes = ((1 << 16) * 8) as u64;

        let blocking = {
            let mut m = machine(4);
            let mut shards: Vec<Vec<u64>> = (0..4).map(|_| vec![0u64; 2]).collect();
            m.parallel_phase(&mut shards, |ctx, _, _| {
                ctx.launch(&prod);
            });
            m.charge_all_to_all(bytes);
            m.parallel_phase(&mut shards, |ctx, _, _| {
                ctx.launch(&cons);
            });
            m
        };
        let overlapped = {
            let mut m = machine(4);
            let compute = OverlapCompute {
                producers: &[prod],
                consumers: &[cons],
                chunks: 1,
            };
            m.charge_all_to_all_overlapped(bytes, &compute);
            m
        };

        let (b, o) = (blocking.max_clock_ns(), overlapped.max_clock_ns());
        assert!((b - o).abs() < 1e-6 * b, "blocking {b} vs overlapped-1 {o}");
        assert_eq!(
            blocking.stats().kernels_launched,
            overlapped.stats().kernels_launched
        );
        assert_eq!(
            blocking.stats().interconnect_bytes_sent,
            overlapped.stats().interconnect_bytes_sent
        );
        assert!(overlapped.stats().comm_hidden_ns < 1e-6);
    }

    #[test]
    fn overlap_hides_communication_with_many_chunks() {
        let (prod, cons) = overlap_profiles();
        let bytes = (1 << 24) as u64;
        let run = |chunks: u32| -> (Machine, OverlapReport) {
            let mut m = machine(8);
            let compute = OverlapCompute {
                producers: &[prod],
                consumers: &[cons],
                chunks,
            };
            let rep = m.charge_all_to_all_overlapped(bytes, &compute);
            (m, rep)
        };
        let (m1, r1) = run(1);
        let (m8, r8) = run(8);
        assert!(m8.max_clock_ns() < m1.max_clock_ns());
        assert!(r8.hidden_comm_ns > 0.0);
        assert!(r1.hidden_comm_ns.abs() < 1e-6);
        // The raw (overlap-blind) interconnect charge is identical: overlap
        // changes the exposed time, not the work done.
        let (s1, s8) = (m1.stats(), m8.stats());
        assert!((s1.raw_time_ns.interconnect - s8.raw_time_ns.interconnect).abs() < 1e-9);
        // Hidden time is exactly what left the bottleneck account.
        assert!(
            (s8.raw_time_ns.interconnect - s8.time_ns.interconnect - s8.comm_hidden_ns).abs()
                < 1e-6
        );
        assert_eq!(m8.collective_events().len(), 1);
        assert_eq!(m8.collective_events()[0].op, "all-to-all-overlapped");
        assert!(m8.collective_events()[0].hidden_ns > 0.0);
    }

    #[test]
    fn overlapped_exchange_is_bit_identical_to_blocking() {
        let d = 4;
        let make = || -> Vec<Vec<u64>> {
            (0..d)
                .map(|dev| (0..16).map(|j| (dev * 1000 + j) as u64).collect())
                .collect()
        };
        let mut blocking = make();
        machine(d).all_to_all(&mut blocking, 8).unwrap();

        let (prod, cons) = overlap_profiles();
        let compute = OverlapCompute {
            producers: &[prod],
            consumers: &[cons],
            chunks: 4,
        };
        let mut m = machine(d);
        let mut shards = make();
        let mut calls = Vec::new();
        m.all_to_all_overlapped(&mut shards, 8, &compute, true, |dev, k, _| {
            calls.push((dev, k));
        })
        .unwrap();
        assert_eq!(shards, blocking);
        assert_eq!(calls.len(), d * 4);
        assert_eq!(calls[0], (0, 0));
    }

    #[test]
    fn overlapped_corruption_repaired_and_drop_atomic() {
        let (prod, cons) = overlap_profiles();
        let compute = OverlapCompute {
            producers: &[prod],
            consumers: &[cons],
            chunks: 4,
        };
        let make = || -> Vec<Vec<u64>> {
            (0..4)
                .map(|dev| (0..16).map(|j| (dev * 1000 + j) as u64).collect())
                .collect()
        };
        let mut clean = make();
        machine(4).all_to_all(&mut clean, 8).unwrap();

        let mut m = machine(4);
        scripted(&mut m, 0, FaultKind::Corrupt { src: 2, dst: 1 });
        let mut shards = make();
        let rep = m
            .all_to_all_overlapped(&mut shards, 8, &compute, true, |_, _, _| {})
            .unwrap();
        assert_eq!(shards, clean, "checksum repair must restore the data");
        assert_eq!(rep.collective.retransmitted_chunks, 1);
        assert!(m.stats().interconnect_bytes_retransmitted > 0);

        let mut m = machine(4);
        scripted(&mut m, 0, FaultKind::Drop);
        let mut shards = make();
        let before = shards.clone();
        let mut calls = 0;
        let err = m
            .all_to_all_overlapped(&mut shards, 8, &compute, true, |_, _, _| calls += 1)
            .unwrap_err();
        assert_eq!(err, FabricError::CollectiveDropped { seq: 0 });
        assert_eq!(shards, before, "drop must be atomic");
        assert_eq!(calls, 0, "no consumer closure may run on a drop");
        // The retry (seq 1) is clean and completes.
        m.all_to_all_overlapped(&mut shards, 8, &compute, true, |_, _, _| {})
            .unwrap();
        assert_eq!(shards, clean);
    }

    #[test]
    fn random_plan_replays_identically() {
        let run = || {
            let mut m = machine(4);
            m.set_fault_plan(FaultPlan::random(99, FaultRates::transfers_only(0.2)));
            let mut shards: Vec<Vec<u64>> = (0..4)
                .map(|dev| (0..16).map(|j| (dev * 16 + j) as u64).collect())
                .collect();
            let mut outcomes = Vec::new();
            for _ in 0..20 {
                outcomes.push(
                    m.all_to_all_checked(&mut shards, 8)
                        .map(|r| r.retransmitted_chunks),
                );
            }
            (outcomes, m.fault_log().to_vec(), m.max_clock_ns(), shards)
        };
        assert_eq!(run(), run());
    }
}
