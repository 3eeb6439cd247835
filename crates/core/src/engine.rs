//! The UniNTT hierarchical execution engine.
//!
//! ## Algebra
//!
//! With `N = G·M` (`G` GPUs) and input distributed **cyclically**
//! (`x[i2·G + i1]` on GPU `i1`), the DFT factors as
//!
//! ```text
//! X[k1·M + k2] = Σ_{i1} ω_G^{i1·k1} · ω_N^{i1·k2} · Inner(i1, k2)
//! Inner(i1, k2) = Σ_{i2} x[i2·G + i1] · ω_M^{i2·k2}
//! ```
//!
//! which the engine executes as three phases:
//!
//! 1. **Local phase** (every GPU, no communication): a size-`M` NTT over
//!    the local shard — itself executed as the planned hierarchy of fused
//!    global-memory passes, shared-memory tiles, and warp shuffles — with
//!    the boundary twiddle `ω_N^{i1·k2}` fused into the final pass (O1).
//! 2. **Exchange**: exactly one all-to-all. The pack/unpack is fused into
//!    the neighboring kernels' addressing (O4) — the "overhead-free" part:
//!    no standalone transpose pass ever touches memory.
//! 3. **Outer phase**: `M/G` independent size-`G` NTTs per GPU, now fully
//!    local.
//!
//! The forward output is left in the documented
//! [`ShardLayout::BlockCyclic`] order (evaluation-domain consumers are
//! order-oblivious); [`UniNttOptions::natural_output`] adds the extra
//! all-to-all that restores natural blocks. The inverse transform retraces
//! the same three phases backwards, so `inverse(forward(x)) == x` exactly.
//!
//! ## Communication–compute overlap
//!
//! Under [`CommMode::Overlapped`] (the default) the exchange is charged as
//! a software pipeline instead of a blocking transfer: the exchange-
//! adjacent kernels — the final (twiddle-fused) local pass on one side and
//! the outer stage on the other — are sliced across
//! [`UniNttOptions::comm_chunks`] pipeline chunks and interleaved with the
//! chunked all-to-all, so wire time hides behind butterfly work. The data
//! movement, fault injection points, and checksum-repair semantics are
//! bit-identical to [`CommMode::Blocking`]; only the charged schedule
//! changes. The `natural_output` reordering exchange stays blocking in
//! both modes (it has no adjacent compute to hide behind).
//!
//! Functional correctness is independent of every optimization switch:
//! options change only the charged [`unintt_gpu_sim::KernelProfile`]s.

use std::sync::OnceLock;

use unintt_ff::TwoAdicField;
use unintt_gpu_sim::{
    FabricError, FieldSpec, KernelProfile, Machine, MachineConfig, OverlapCompute,
};
use unintt_ntt::{Direction, Ntt};

use crate::profiles;
use crate::{CommMode, DecompositionPlan, RecoveryPolicy, ShardLayout, Sharded, UniNttOptions};

/// Records one engine phase span on the machine's track, parented to the
/// reserved transform root. `root` is `None` exactly when telemetry is
/// disabled, so the disabled path never evaluates `attrs`.
fn obs_phase(
    root: Option<u64>,
    machine: &Machine,
    name: &'static str,
    category: &'static str,
    t_start_ns: f64,
    attrs: impl FnOnce() -> Vec<(&'static str, unintt_telemetry::AttrValue)>,
) {
    if let Some(parent) = root {
        unintt_telemetry::record_span(|| unintt_telemetry::Span {
            id: unintt_telemetry::fresh_id(),
            parent: Some(parent),
            name: name.to_string(),
            level: unintt_telemetry::SpanLevel::Fabric,
            category,
            track: machine.label().to_string(),
            t_start_ns,
            t_end_ns: machine.max_clock_ns(),
            attrs: attrs(),
        });
    }
}

/// Records the transform's root span (recorded last, after its phases,
/// under the id reserved up front).
fn obs_root(
    root: Option<u64>,
    machine: &Machine,
    name: &'static str,
    t_start_ns: f64,
    attrs: impl FnOnce() -> Vec<(&'static str, unintt_telemetry::AttrValue)>,
) {
    if let Some(id) = root {
        unintt_telemetry::record_span(|| unintt_telemetry::Span {
            id,
            parent: None,
            name: name.to_string(),
            level: unintt_telemetry::SpanLevel::Fabric,
            category: "transform",
            track: machine.label().to_string(),
            t_start_ns,
            t_end_ns: machine.max_clock_ns(),
            attrs: attrs(),
        });
    }
}

/// Raw-vs-exposed-vs-hidden interconnect annotations for an exchange
/// span, from the stats delta across the exchange.
fn exchange_attrs(
    pre: &unintt_gpu_sim::Stats,
    post: &unintt_gpu_sim::Stats,
    overlapped: bool,
) -> Vec<(&'static str, unintt_telemetry::AttrValue)> {
    vec![
        (
            "mode",
            if overlapped { "overlapped" } else { "blocking" }.into(),
        ),
        (
            "raw_comm_ns",
            (post.raw_time_ns.interconnect - pre.raw_time_ns.interconnect).into(),
        ),
        (
            "exposed_comm_ns",
            (post.time_ns.interconnect - pre.time_ns.interconnect).into(),
        ),
        (
            "hidden_comm_ns",
            (post.comm_hidden_ns - pre.comm_hidden_ns).into(),
        ),
    ]
}

/// The UniNTT multi-GPU NTT engine.
#[derive(Clone, Debug)]
pub struct UniNttEngine<F: TwoAdicField> {
    plan: DecompositionPlan,
    opts: UniNttOptions,
    field_spec: FieldSpec,
    // Twiddle tables are built lazily: cost-only simulations
    // (`simulate_forward`) never pay for them, and a 2^28 engine stays
    // cheap to construct.
    local: OnceLock<Ntt<F>>,
    outer: OnceLock<Ntt<F>>,
}

impl<F: TwoAdicField> UniNttEngine<F> {
    /// Plans and precomputes an engine for size `2^log_n` on `machine_cfg`.
    ///
    /// # Panics
    ///
    /// Panics if the GPU count is not a power of two, `log_n` exceeds the
    /// field's two-adicity, or the shard would be smaller than the GPU
    /// count (needed by the block-cyclic output layout).
    pub fn new(
        log_n: u32,
        machine_cfg: &MachineConfig,
        opts: UniNttOptions,
        field_spec: FieldSpec,
    ) -> Self {
        let plan = DecompositionPlan::plan(log_n, machine_cfg, field_spec.elem_bytes);
        assert!(
            plan.log_m >= plan.log_g,
            "shard of 2^{} elements is smaller than the 2^{} GPUs (block-cyclic layout needs log_m >= log_g)",
            plan.log_m,
            plan.log_g
        );
        Self {
            local: OnceLock::new(),
            outer: OnceLock::new(),
            plan,
            opts,
            field_spec,
        }
    }

    /// The decomposition plan in force.
    pub fn plan(&self) -> &DecompositionPlan {
        &self.plan
    }

    /// The optimization switches in force.
    pub fn options(&self) -> &UniNttOptions {
        &self.opts
    }

    /// Transform size.
    pub fn n(&self) -> usize {
        self.plan.n()
    }

    /// Whether the multi-GPU exchange runs as a software pipeline.
    fn overlapped(&self) -> bool {
        self.plan.num_gpus() > 1 && self.opts.comm_mode == CommMode::Overlapped
    }

    /// Pipeline depth for the overlapped exchange: the explicit
    /// [`UniNttOptions::comm_chunks`] if set, else the planner's choice.
    fn comm_chunks(&self) -> u32 {
        if self.opts.comm_chunks > 0 {
            self.opts.comm_chunks
        } else {
            self.plan.default_comm_chunks()
        }
    }

    /// The kernels the overlapped exchange interleaves with. The local
    /// side is the exchange-adjacent tail of the local phase (final
    /// twiddle-fused pass, plus the standalone twiddle/pack kernels when
    /// O1/O4 are off); the outer side is the whole outer phase. Forward
    /// streams local → fabric → outer; inverse streams outer → fabric →
    /// local. [`Self::charge_local`] skips exactly this local-side set
    /// when overlap is on, so the totals never double-charge.
    fn exchange_compute_profiles(
        &self,
        direction: Direction,
        per_launch: u64,
    ) -> (Vec<KernelProfile>, Vec<KernelProfile>) {
        let (plan, opts, fs) = (&self.plan, &self.opts, self.field_spec);
        debug_assert!(plan.num_gpus() > 1);
        let radix = *plan
            .device_passes
            .last()
            .expect("plans always have at least one device pass");
        let mut local_side = vec![profiles::local_pass_profile(
            plan,
            opts,
            fs,
            radix,
            per_launch,
            opts.fuse_twiddle,
        )];
        if !opts.fuse_twiddle {
            local_side.push(profiles::twiddle_kernel_profile(plan, opts, fs, per_launch));
        }
        if !opts.fuse_exchange {
            local_side.push(profiles::pack_kernel_profile(plan, fs, per_launch));
        }
        let mut outer_side = Vec::new();
        if !opts.fuse_exchange {
            outer_side.push(profiles::pack_kernel_profile(plan, fs, per_launch));
        }
        outer_side.push(profiles::outer_stage_profile(plan, opts, fs, per_launch));
        match direction {
            Direction::Forward => (local_side, outer_side),
            Direction::Inverse => (outer_side, local_side),
        }
    }

    /// The lazily-built local (size-M) NTT context.
    fn local(&self) -> &Ntt<F> {
        self.local.get_or_init(|| Ntt::new(self.plan.log_m))
    }

    /// The lazily-built outer (size-G) NTT context.
    fn outer(&self) -> &Ntt<F> {
        self.outer.get_or_init(|| Ntt::new(self.plan.log_g))
    }

    /// The per-device boundary-twiddle step `ω_N^{±dev}`: on device `dev`
    /// the fused twiddle for output `k2` is `step^k2`, applied by a running
    /// product (the on-the-fly generation the O2 optimization models).
    fn boundary_step(&self, dev: usize, direction: Direction) -> F {
        let omega = F::two_adic_generator(self.plan.log_n);
        let root = match direction {
            Direction::Forward => omega,
            Direction::Inverse => omega.inverse().expect("roots of unity are nonzero"),
        };
        root.pow(dev as u64)
    }

    /// Forward NTT of a single vector. See the module docs for layout
    /// semantics: input [`ShardLayout::Cyclic`], output
    /// [`ShardLayout::BlockCyclic`] (or natural blocks when requested).
    ///
    /// # Panics
    ///
    /// Panics if the input layout or size does not match, or if
    /// `machine.num_devices()` differs from the plan.
    pub fn forward(&self, machine: &mut Machine, data: &mut Sharded<F>) {
        let mut batch = [std::mem::replace(
            data,
            Sharded::from_shards(vec![vec![F::ZERO]], ShardLayout::Cyclic),
        )];
        self.forward_batch(machine, &mut batch);
        *data = std::mem::replace(
            &mut batch[0],
            Sharded::from_shards(vec![vec![F::ZERO]], ShardLayout::Cyclic),
        );
    }

    /// Inverse NTT of a single vector (exact inverse of [`Self::forward`]).
    pub fn inverse(&self, machine: &mut Machine, data: &mut Sharded<F>) {
        let mut batch = [std::mem::replace(
            data,
            Sharded::from_shards(vec![vec![F::ZERO]], ShardLayout::BlockCyclic),
        )];
        self.inverse_batch(machine, &mut batch);
        *data = std::mem::replace(
            &mut batch[0],
            Sharded::from_shards(vec![vec![F::ZERO]], ShardLayout::BlockCyclic),
        );
    }

    /// Forward NTT of a batch of equally-sized vectors.
    ///
    /// With [`UniNttOptions::batching`] the batch shares each pass and a
    /// single (larger) all-to-all; without it every vector pays its own
    /// kernels and collectives.
    pub fn forward_batch(&self, machine: &mut Machine, batch: &mut [Sharded<F>]) {
        self.try_forward_batch(machine, batch, &RecoveryPolicy::none())
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Fault-tolerant [`Self::forward_batch`]: dropped collectives are
    /// retried up to `policy.max_retries` times with exponential backoff
    /// (charged as simulated fault time), and with
    /// [`RecoveryPolicy::verify_checksums`] corrupted chunks are detected
    /// and re-requested. Permanent failures (device loss, retry budget
    /// exhausted) surface as [`FabricError`]s — multi-machine callers
    /// re-plan around them ([`crate::ClusterNttEngine`]).
    ///
    /// # Errors
    ///
    /// [`FabricError::CollectiveDropped`] once retries are exhausted;
    /// [`FabricError::DeviceLost`] on device loss.
    pub fn try_forward_batch(
        &self,
        machine: &mut Machine,
        batch: &mut [Sharded<F>],
        policy: &RecoveryPolicy,
    ) -> Result<(), FabricError> {
        self.check_batch(machine, batch, ShardLayout::Cyclic);
        let g = self.plan.num_gpus();
        let root = unintt_telemetry::reserve_span_id();
        let t_begin = machine.max_clock_ns();

        // Phase 1: local hierarchical NTT + fused boundary twiddle.
        self.local_phase(machine, batch, Direction::Forward);
        obs_phase(root, machine, "local-phase", "phase", t_begin, Vec::new);

        if g > 1 {
            // Phase 2: the single all-to-all (pipelined against the
            // adjacent passes when overlap is on).
            let overlap = self.overlapped().then_some(Direction::Forward);
            let t0 = machine.max_clock_ns();
            let pre = root.map(|_| machine.stats());
            self.exchange(machine, batch, policy, overlap)?;
            if let Some(pre) = pre {
                let post = machine.stats();
                obs_phase(root, machine, "exchange", "interconnect", t0, || {
                    exchange_attrs(&pre, &post, overlap.is_some())
                });
            }
            // Phase 3: outer size-G NTTs.
            let t0 = machine.max_clock_ns();
            self.outer_phase(machine, batch, Direction::Forward);
            obs_phase(root, machine, "outer-phase", "phase", t0, Vec::new);
        }
        for item in batch.iter_mut() {
            item.set_layout(ShardLayout::BlockCyclic);
        }

        if self.opts.natural_output {
            if g > 1 {
                let t0 = machine.max_clock_ns();
                let pre = root.map(|_| machine.stats());
                self.exchange(machine, batch, policy, None)?;
                if let Some(pre) = pre {
                    let post = machine.stats();
                    obs_phase(root, machine, "natural-reorder", "interconnect", t0, || {
                        exchange_attrs(&pre, &post, false)
                    });
                }
            }
            // For g == 1 the block-cyclic and natural layouts coincide, so
            // only the stamp changes.
            for item in batch.iter_mut() {
                item.set_layout(ShardLayout::NaturalBlocks);
            }
        }
        let b = batch.len();
        obs_root(root, machine, "unintt-forward", t_begin, || {
            vec![("batch", b.into()), ("path", "functional".into())]
        });
        Ok(())
    }

    /// Inverse NTT of a batch (exact inverse of [`Self::forward_batch`]).
    pub fn inverse_batch(&self, machine: &mut Machine, batch: &mut [Sharded<F>]) {
        self.try_inverse_batch(machine, batch, &RecoveryPolicy::none())
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Fault-tolerant [`Self::inverse_batch`]; see
    /// [`Self::try_forward_batch`] for the recovery semantics.
    ///
    /// # Errors
    ///
    /// As [`Self::try_forward_batch`].
    pub fn try_inverse_batch(
        &self,
        machine: &mut Machine,
        batch: &mut [Sharded<F>],
        policy: &RecoveryPolicy,
    ) -> Result<(), FabricError> {
        let g = self.plan.num_gpus();
        let expected = if self.opts.natural_output {
            ShardLayout::NaturalBlocks
        } else {
            ShardLayout::BlockCyclic
        };
        self.check_batch(machine, batch, expected);
        let root = unintt_telemetry::reserve_span_id();
        let t_begin = machine.max_clock_ns();

        if self.opts.natural_output {
            // The chunk transpose is an involution: natural → block-cyclic.
            if g > 1 {
                let t0 = machine.max_clock_ns();
                let pre = root.map(|_| machine.stats());
                self.exchange(machine, batch, policy, None)?;
                if let Some(pre) = pre {
                    let post = machine.stats();
                    obs_phase(root, machine, "natural-reorder", "interconnect", t0, || {
                        exchange_attrs(&pre, &post, false)
                    });
                }
            }
            for item in batch.iter_mut() {
                item.set_layout(ShardLayout::BlockCyclic);
            }
        }

        if g > 1 {
            // Undo phase 3, then undo the exchange (pipelined against the
            // outer producers and local consumers when overlap is on).
            let t0 = machine.max_clock_ns();
            self.outer_phase(machine, batch, Direction::Inverse);
            obs_phase(root, machine, "outer-phase", "phase", t0, Vec::new);
            let overlap = self.overlapped().then_some(Direction::Inverse);
            let t0 = machine.max_clock_ns();
            let pre = root.map(|_| machine.stats());
            self.exchange(machine, batch, policy, overlap)?;
            if let Some(pre) = pre {
                let post = machine.stats();
                obs_phase(root, machine, "exchange", "interconnect", t0, || {
                    exchange_attrs(&pre, &post, overlap.is_some())
                });
            }
        }
        // Undo phase 1 (boundary twiddle then local inverse NTT).
        let t0 = machine.max_clock_ns();
        self.local_phase(machine, batch, Direction::Inverse);
        obs_phase(root, machine, "local-phase", "phase", t0, Vec::new);
        for item in batch.iter_mut() {
            item.set_layout(ShardLayout::Cyclic);
        }
        let b = batch.len();
        obs_root(root, machine, "unintt-inverse", t_begin, || {
            vec![("batch", b.into()), ("path", "functional".into())]
        });
        Ok(())
    }

    /// Fault-tolerant [`Self::forward`] for a single vector.
    ///
    /// # Errors
    ///
    /// As [`Self::try_forward_batch`]. On error the vector's contents are
    /// unspecified (mid-transform); re-run from the caller's checkpoint.
    pub fn try_forward(
        &self,
        machine: &mut Machine,
        data: &mut Sharded<F>,
        policy: &RecoveryPolicy,
    ) -> Result<(), FabricError> {
        let mut batch = [std::mem::replace(
            data,
            Sharded::from_shards(vec![vec![F::ZERO]], ShardLayout::Cyclic),
        )];
        let res = self.try_forward_batch(machine, &mut batch, policy);
        *data = std::mem::replace(
            &mut batch[0],
            Sharded::from_shards(vec![vec![F::ZERO]], ShardLayout::Cyclic),
        );
        res
    }

    /// Fault-tolerant [`Self::inverse`] for a single vector.
    ///
    /// # Errors
    ///
    /// As [`Self::try_forward`].
    pub fn try_inverse(
        &self,
        machine: &mut Machine,
        data: &mut Sharded<F>,
        policy: &RecoveryPolicy,
    ) -> Result<(), FabricError> {
        let mut batch = [std::mem::replace(
            data,
            Sharded::from_shards(vec![vec![F::ZERO]], ShardLayout::BlockCyclic),
        )];
        let res = self.try_inverse_batch(machine, &mut batch, policy);
        *data = std::mem::replace(
            &mut batch[0],
            Sharded::from_shards(vec![vec![F::ZERO]], ShardLayout::BlockCyclic),
        );
        res
    }

    fn check_batch(&self, machine: &Machine, batch: &[Sharded<F>], layout: ShardLayout) {
        assert!(!batch.is_empty(), "batch must not be empty");
        assert_eq!(
            machine.num_devices(),
            self.plan.num_gpus(),
            "machine does not match the engine's plan"
        );
        for item in batch {
            assert_eq!(item.len(), self.n(), "vector size does not match engine");
            assert_eq!(
                item.num_gpus(),
                self.plan.num_gpus(),
                "vector sharded over wrong GPU count"
            );
            assert_eq!(item.layout(), layout, "unexpected input layout");
        }
    }

    /// Phase 1 (forward) / its inverse: the local size-M transform with the
    /// boundary twiddle, plus all cost charges.
    fn local_phase(&self, machine: &mut Machine, batch: &mut [Sharded<F>], direction: Direction) {
        let g = self.plan.num_gpus();
        let b = batch.len() as u64;
        let local = self.local();
        let engine = self;
        // Under overlap the exchange-adjacent kernels are charged inside
        // the exchange pipeline, not here.
        let skip_exchange_adjacent = self.overlapped();

        // Regroup: one Vec of per-device mutable shard refs per phase call.
        let mut per_device: Vec<Vec<&mut Vec<F>>> = (0..g).map(|_| Vec::new()).collect();
        for item in batch.iter_mut() {
            for (dev, shard) in item.shards_mut().iter_mut().enumerate() {
                per_device[dev].push(shard);
            }
        }

        machine.parallel_phase(&mut per_device, |ctx, dev, shards| {
            // Functional work.
            for shard in shards.iter_mut() {
                match direction {
                    Direction::Forward => {
                        local.forward(shard);
                        if g > 1 {
                            let step = engine.boundary_step(dev, Direction::Forward);
                            let mut cur = F::ONE;
                            for v in shard.iter_mut() {
                                *v *= cur;
                                cur *= step;
                            }
                        }
                    }
                    Direction::Inverse => {
                        if g > 1 {
                            let step = engine.boundary_step(dev, Direction::Inverse);
                            let mut cur = F::ONE;
                            for v in shard.iter_mut() {
                                *v *= cur;
                                cur *= step;
                            }
                        }
                        local.inverse(shard);
                    }
                }
            }

            // Cost charges.
            engine.charge_local(ctx, b, direction, skip_exchange_adjacent);
        });
    }

    /// Charges the cost of one local phase for a batch of `b` vectors.
    ///
    /// With `skip_exchange_adjacent` the exchange-adjacent kernels (final
    /// twiddle-fused pass, standalone twiddle, pack) are left out: the
    /// overlapped exchange charges them inside its pipeline instead, via
    /// [`Self::exchange_compute_profiles`].
    fn charge_local(
        &self,
        ctx: &mut unintt_gpu_sim::DeviceCtx<'_>,
        b: u64,
        direction: Direction,
        skip_exchange_adjacent: bool,
    ) {
        let g = self.plan.num_gpus();
        let (plan, opts, fs) = (&self.plan, &self.opts, self.field_spec);
        let launches = if opts.batching { 1 } else { b };
        let per_launch = if opts.batching { b } else { 1 };
        for _ in 0..launches {
            let passes = plan.num_device_passes();
            for (i, &radix) in plan.device_passes.iter().enumerate() {
                let last = i + 1 == passes;
                if skip_exchange_adjacent && last {
                    continue;
                }
                let fuse_here = opts.fuse_twiddle && g > 1 && last;
                let p = profiles::local_pass_profile(plan, opts, fs, radix, per_launch, fuse_here);
                ctx.launch(&p);
            }
            if !opts.fuse_twiddle && g > 1 && !skip_exchange_adjacent {
                ctx.launch(&profiles::twiddle_kernel_profile(
                    plan, opts, fs, per_launch,
                ));
            }
            if !opts.fuse_exchange && g > 1 && !skip_exchange_adjacent {
                // Standalone pack (forward) / unpack (inverse) pass.
                ctx.launch(&profiles::pack_kernel_profile(plan, fs, per_launch));
            }
            if direction == Direction::Inverse && !opts.fuse_twiddle {
                // 1/N scale: fused into the last pass when twiddles are
                // fused, otherwise a standalone kernel.
                ctx.launch(&profiles::scale_kernel_profile(plan, fs, per_launch));
            }
        }
    }

    /// Charges the cost of one outer phase for a batch of `b` vectors.
    fn charge_outer(&self, ctx: &mut unintt_gpu_sim::DeviceCtx<'_>, b: u64) {
        let (plan, opts, fs) = (&self.plan, &self.opts, self.field_spec);
        let launches = if opts.batching { 1 } else { b };
        let per_launch = if opts.batching { b } else { 1 };
        for _ in 0..launches {
            if !opts.fuse_exchange {
                ctx.launch(&profiles::pack_kernel_profile(plan, fs, per_launch));
            }
            ctx.launch(&profiles::outer_stage_profile(plan, opts, fs, per_launch));
        }
    }

    /// Charges the cost of the multi-GPU exchange(s) for a batch of `b`
    /// vectors without moving data (blocking schedule).
    fn charge_exchange(&self, machine: &mut Machine, b: u64) {
        let shard_bytes = (self.plan.shard_len() * self.field_spec.elem_bytes) as u64;
        if self.opts.batching {
            machine.charge_all_to_all(b * shard_bytes);
        } else {
            for _ in 0..b {
                machine.charge_all_to_all(shard_bytes);
            }
        }
    }

    /// Charges the overlapped exchange(s) for a batch of `b` vectors
    /// without moving data: the cost-only twin of the pipelined exchange,
    /// including the interleaved producer/consumer kernels whose charges
    /// moved out of [`Self::charge_local`] / [`Self::charge_outer`].
    fn charge_exchange_overlapped(&self, machine: &mut Machine, b: u64, direction: Direction) {
        let shard_bytes = (self.plan.shard_len() * self.field_spec.elem_bytes) as u64;
        let per_launch = if self.opts.batching { b } else { 1 };
        let (producers, consumers) = self.exchange_compute_profiles(direction, per_launch);
        let compute = OverlapCompute {
            producers: &producers,
            consumers: &consumers,
            chunks: self.comm_chunks(),
        };
        if self.opts.batching {
            machine.charge_all_to_all_overlapped(b * shard_bytes, &compute);
        } else {
            for _ in 0..b {
                machine.charge_all_to_all_overlapped(shard_bytes, &compute);
            }
        }
    }

    /// Coset forward NTT: evaluates the coefficient vector on `shift·H`
    /// instead of `H` — the low-degree-extension call every ZKP prover
    /// makes. The coefficient scaling `cᵢ ← cᵢ·shiftⁱ` is fused into the
    /// first local pass (pure ALU when O1 is on, a standalone pass when
    /// off). Layout semantics are identical to [`Self::forward`].
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Self::forward`], or if
    /// `shift` is zero.
    pub fn coset_forward(&self, machine: &mut Machine, data: &mut Sharded<F>, shift: F) {
        assert!(!shift.is_zero(), "coset shift must be nonzero");
        self.scale_phase(machine, data, shift);
        self.forward(machine, data);
    }

    /// Inverse of [`Self::coset_forward`]: recovers coefficients from
    /// evaluations on `shift·H`.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Self::inverse`], or if
    /// `shift` is zero.
    pub fn coset_inverse(&self, machine: &mut Machine, data: &mut Sharded<F>, shift: F) {
        let shift_inv = shift.inverse().expect("coset shift must be nonzero");
        self.inverse(machine, data);
        self.scale_phase(machine, data, shift_inv);
    }

    /// Coset forward NTT of a batch: one fused scale phase plus one
    /// batched transform (shared passes and collectives under O5).
    pub fn coset_forward_batch(&self, machine: &mut Machine, batch: &mut [Sharded<F>], shift: F) {
        assert!(!shift.is_zero(), "coset shift must be nonzero");
        self.scale_phase_batch(machine, batch, shift);
        self.forward_batch(machine, batch);
    }

    /// Fault-tolerant twin of [`Self::coset_forward_batch`]: the scale
    /// phase is collective-free, the transform runs under `policy`.
    ///
    /// # Errors
    ///
    /// Returns the [`FabricError`] that outlived the policy's retries.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Self::coset_forward_batch`].
    pub fn try_coset_forward_batch(
        &self,
        machine: &mut Machine,
        batch: &mut [Sharded<F>],
        shift: F,
        policy: &RecoveryPolicy,
    ) -> Result<(), FabricError> {
        assert!(!shift.is_zero(), "coset shift must be nonzero");
        self.scale_phase_batch(machine, batch, shift);
        self.try_forward_batch(machine, batch, policy)
    }

    /// Scales element `i` of the cyclic-distributed vector by `shift^i`:
    /// device `dev` holds elements `j·G + dev`, so its factors form the
    /// geometric sequence `shift^dev · (shift^G)^j` — generated on the fly.
    fn scale_phase(&self, machine: &mut Machine, data: &mut Sharded<F>, shift: F) {
        let mut batch = [std::mem::replace(
            data,
            Sharded::from_shards(vec![vec![F::ZERO]], ShardLayout::Cyclic),
        )];
        self.scale_phase_batch(machine, &mut batch, shift);
        *data = std::mem::replace(
            &mut batch[0],
            Sharded::from_shards(vec![vec![F::ZERO]], ShardLayout::Cyclic),
        );
    }

    fn scale_phase_batch(&self, machine: &mut Machine, batch: &mut [Sharded<F>], shift: F) {
        let g = self.plan.num_gpus();
        let b = batch.len() as u64;
        let engine = self;

        let mut per_device: Vec<Vec<&mut Vec<F>>> = (0..g).map(|_| Vec::new()).collect();
        for item in batch.iter_mut() {
            for (dev, shard) in item.shards_mut().iter_mut().enumerate() {
                per_device[dev].push(shard);
            }
        }
        machine.parallel_phase(&mut per_device, |ctx, dev, shards| {
            let step = shift.pow(g as u64);
            for shard in shards.iter_mut() {
                let mut cur = shift.pow(dev as u64);
                for v in shard.iter_mut() {
                    *v *= cur;
                    cur *= step;
                }
            }
            engine.charge_scale_batch(ctx, b);
        });
    }

    /// Charges coset-scale kernels for a batch of `b` vectors, honoring
    /// the batching flag (one fused launch vs `b` separate ones).
    fn charge_scale_batch(&self, ctx: &mut unintt_gpu_sim::DeviceCtx<'_>, b: u64) {
        let launches = if self.opts.batching { 1 } else { b };
        let per_launch = if self.opts.batching { b } else { 1 };
        for _ in 0..launches {
            self.charge_scale(ctx, per_launch);
        }
    }

    /// Charges the coset-scale cost for a batch of `b` vectors.
    fn charge_scale(&self, ctx: &mut unintt_gpu_sim::DeviceCtx<'_>, b: u64) {
        let (plan, fs) = (&self.plan, self.field_spec);
        if self.opts.fuse_twiddle {
            ctx.launch(&profiles::fused_scale_profile(plan, fs, b));
        } else {
            ctx.launch(&profiles::scale_kernel_profile(plan, fs, b));
        }
    }

    /// Cost-only twin of [`Self::coset_forward`] /
    /// [`Self::coset_forward_batch`].
    pub fn simulate_coset_forward(&self, machine: &mut Machine, batch: u64) {
        let mut dummy: Vec<()> = vec![(); self.plan.num_gpus()];
        machine.parallel_phase(&mut dummy, |ctx, _, _| {
            self.charge_scale_batch(ctx, batch);
        });
        self.simulate_forward(machine, batch);
    }

    /// Cost-only forward transform: charges exactly the kernels and
    /// collectives [`Self::forward_batch`] would, without touching data.
    ///
    /// Used by the benchmark harness for transform sizes whose functional
    /// execution would not fit in host memory or time budgets. The
    /// equivalence of the two paths is enforced by tests.
    pub fn simulate_forward(&self, machine: &mut Machine, batch: u64) {
        assert!(batch > 0, "batch must be positive");
        let g = self.plan.num_gpus();
        let overlapped = self.overlapped();
        let root = unintt_telemetry::reserve_span_id();
        let t_begin = machine.max_clock_ns();
        let mut dummy: Vec<()> = vec![(); g];
        machine.parallel_phase(&mut dummy, |ctx, _, _| {
            self.charge_local(ctx, batch, Direction::Forward, overlapped);
        });
        obs_phase(root, machine, "local-phase", "phase", t_begin, Vec::new);
        if g > 1 {
            let t0 = machine.max_clock_ns();
            let pre = root.map(|_| machine.stats());
            if overlapped {
                self.charge_exchange_overlapped(machine, batch, Direction::Forward);
            } else {
                self.charge_exchange(machine, batch);
            }
            if let Some(pre) = pre {
                let post = machine.stats();
                obs_phase(root, machine, "exchange", "interconnect", t0, || {
                    exchange_attrs(&pre, &post, overlapped)
                });
            }
            let t0 = machine.max_clock_ns();
            machine.parallel_phase(&mut dummy, |ctx, _, _| {
                if !overlapped {
                    self.charge_outer(ctx, batch);
                }
            });
            obs_phase(root, machine, "outer-phase", "phase", t0, Vec::new);
            if self.opts.natural_output {
                let t0 = machine.max_clock_ns();
                let pre = root.map(|_| machine.stats());
                self.charge_exchange(machine, batch);
                if let Some(pre) = pre {
                    let post = machine.stats();
                    obs_phase(root, machine, "natural-reorder", "interconnect", t0, || {
                        exchange_attrs(&pre, &post, false)
                    });
                }
            }
        }
        obs_root(root, machine, "unintt-forward", t_begin, || {
            vec![("batch", batch.into()), ("path", "simulate".into())]
        });
    }

    /// Cost-only inverse transform, mirroring [`Self::inverse_batch`].
    pub fn simulate_inverse(&self, machine: &mut Machine, batch: u64) {
        assert!(batch > 0, "batch must be positive");
        let g = self.plan.num_gpus();
        let overlapped = self.overlapped();
        let root = unintt_telemetry::reserve_span_id();
        let t_begin = machine.max_clock_ns();
        let mut dummy: Vec<()> = vec![(); g];
        if g > 1 {
            if self.opts.natural_output {
                let t0 = machine.max_clock_ns();
                let pre = root.map(|_| machine.stats());
                self.charge_exchange(machine, batch);
                if let Some(pre) = pre {
                    let post = machine.stats();
                    obs_phase(root, machine, "natural-reorder", "interconnect", t0, || {
                        exchange_attrs(&pre, &post, false)
                    });
                }
            }
            let t0 = machine.max_clock_ns();
            machine.parallel_phase(&mut dummy, |ctx, _, _| {
                if !overlapped {
                    self.charge_outer(ctx, batch);
                }
            });
            obs_phase(root, machine, "outer-phase", "phase", t0, Vec::new);
            let t0 = machine.max_clock_ns();
            let pre = root.map(|_| machine.stats());
            if overlapped {
                self.charge_exchange_overlapped(machine, batch, Direction::Inverse);
            } else {
                self.charge_exchange(machine, batch);
            }
            if let Some(pre) = pre {
                let post = machine.stats();
                obs_phase(root, machine, "exchange", "interconnect", t0, || {
                    exchange_attrs(&pre, &post, overlapped)
                });
            }
        }
        let t0 = machine.max_clock_ns();
        machine.parallel_phase(&mut dummy, |ctx, _, _| {
            self.charge_local(ctx, batch, Direction::Inverse, overlapped);
        });
        obs_phase(root, machine, "local-phase", "phase", t0, Vec::new);
        obs_root(root, machine, "unintt-inverse", t_begin, || {
            vec![("batch", batch.into()), ("path", "simulate".into())]
        });
    }

    /// Phase 3 (forward) / its inverse: size-G NTTs down the received
    /// columns, plus cost charges.
    fn outer_phase(&self, machine: &mut Machine, batch: &mut [Sharded<F>], direction: Direction) {
        let g = self.plan.num_gpus();
        debug_assert!(g > 1);
        let b = batch.len() as u64;
        let c_len = self.plan.shard_len() / g;
        let outer = self.outer();
        let engine = self;

        let mut per_device: Vec<Vec<&mut Vec<F>>> = (0..g).map(|_| Vec::new()).collect();
        for item in batch.iter_mut() {
            for (dev, shard) in item.shards_mut().iter_mut().enumerate() {
                per_device[dev].push(shard);
            }
        }

        // Under overlap the outer kernels are charged inside the exchange
        // pipeline; this phase then runs functionally for free.
        let charge = !self.overlapped();
        machine.parallel_phase(&mut per_device, |ctx, _dev, shards| {
            let mut col = vec![F::ZERO; g];
            for shard in shards.iter_mut() {
                for t in 0..c_len {
                    for (src, slot) in col.iter_mut().enumerate() {
                        *slot = shard[src * c_len + t];
                    }
                    match direction {
                        Direction::Forward => outer.forward(&mut col),
                        Direction::Inverse => outer.inverse(&mut col),
                    }
                    for (k1, &v) in col.iter().enumerate() {
                        shard[k1 * c_len + t] = v;
                    }
                }
            }

            if charge {
                engine.charge_outer(ctx, b);
            }
        });
    }

    /// One all-to-all under the recovery policy: transient drops are
    /// retried with exponential backoff (charged as simulated fault
    /// time); with checksums on, corrupted chunks are repaired inside the
    /// collective. Drops are atomic — no data moves on a failed attempt —
    /// so retrying the same buffers is always safe; under overlap a retry
    /// re-runs the whole pipeline (the blocking attempt only charged the
    /// detection timeout).
    fn exchange_step(
        &self,
        machine: &mut Machine,
        shards: &mut [Vec<F>],
        policy: &RecoveryPolicy,
        compute: Option<&OverlapCompute<'_>>,
    ) -> Result<(), FabricError> {
        let elem_bytes = self.field_spec.elem_bytes;
        let mut attempt = 0;
        loop {
            let res = match compute {
                Some(c) => machine
                    .all_to_all_overlapped(
                        shards,
                        elem_bytes,
                        c,
                        policy.verify_checksums,
                        |_, _, _| {},
                    )
                    .map(|_| ()),
                None if policy.verify_checksums => {
                    machine.all_to_all_checked(shards, elem_bytes).map(|_| ())
                }
                None => machine.all_to_all(shards, elem_bytes).map(|_| ()),
            };
            match res {
                Ok(()) => return Ok(()),
                Err(e) if e.is_transient() && attempt < policy.max_retries => {
                    machine.charge_fault_ns("retry-backoff", policy.backoff_ns(attempt));
                    machine.count_retry();
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// The multi-GPU exchange: one all-to-all carrying the whole batch
    /// (batching on) or one per vector (batching off). With
    /// `overlap = Some(direction)` the exchange is charged as a software
    /// pipeline interleaved with the exchange-adjacent kernels of that
    /// direction; with `None` it blocks (used by the `natural_output`
    /// reordering, which has no compute to hide behind).
    fn exchange(
        &self,
        machine: &mut Machine,
        batch: &mut [Sharded<F>],
        policy: &RecoveryPolicy,
        overlap: Option<Direction>,
    ) -> Result<(), FabricError> {
        let g = self.plan.num_gpus();
        let m = self.plan.shard_len();
        let per_launch = if self.opts.batching {
            batch.len() as u64
        } else {
            1
        };
        let profile_lists =
            overlap.map(|direction| self.exchange_compute_profiles(direction, per_launch));
        let compute = profile_lists.as_ref().map(|(prod, cons)| OverlapCompute {
            producers: prod,
            consumers: cons,
            chunks: self.comm_chunks(),
        });
        let compute = compute.as_ref();

        if self.opts.batching && batch.len() > 1 {
            // Pack chunk-major so one all-to-all carries every vector:
            // combined chunk c = [item0 chunk c | item1 chunk c | …].
            let b = batch.len();
            let chunk = m / g;
            let mut combined: Vec<Vec<F>> = (0..g)
                .map(|dev| {
                    let mut buf = Vec::with_capacity(b * m);
                    for c in 0..g {
                        for item in batch.iter() {
                            buf.extend_from_slice(&item.shards()[dev][c * chunk..(c + 1) * chunk]);
                        }
                    }
                    buf
                })
                .collect();
            self.exchange_step(machine, &mut combined, policy, compute)?;
            for (dev, buf) in combined.into_iter().enumerate() {
                // Received layout: for src in 0..g, for item, chunk data.
                let mut offset = 0;
                for src in 0..g {
                    for item in batch.iter_mut() {
                        item.shards_mut()[dev][src * chunk..(src + 1) * chunk]
                            .copy_from_slice(&buf[offset..offset + chunk]);
                        offset += chunk;
                    }
                }
            }
        } else {
            for item in batch.iter_mut() {
                self.exchange_step(machine, item.shards_mut(), policy, compute)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use unintt_ff::{Bn254Fr, Field, Goldilocks};
    use unintt_gpu_sim::presets;

    fn random_vec<F: Field>(n: usize, seed: u64) -> Vec<F> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| F::random(&mut rng)).collect()
    }

    fn reference_forward<F: TwoAdicField>(input: &[F]) -> Vec<F> {
        let ntt = Ntt::<F>::new(input.len().trailing_zeros());
        let mut out = input.to_vec();
        ntt.forward(&mut out);
        out
    }

    fn run_forward<F: TwoAdicField>(
        log_n: u32,
        gpus: usize,
        opts: UniNttOptions,
        field_spec: FieldSpec,
        input: &[F],
    ) -> (Vec<F>, Machine) {
        let cfg = presets::a100_nvlink(gpus);
        let engine = UniNttEngine::<F>::new(log_n, &cfg, opts, field_spec);
        let mut machine = Machine::new(cfg, field_spec);
        let mut data = Sharded::distribute(input, gpus, ShardLayout::Cyclic);
        engine.forward(&mut machine, &mut data);
        (data.collect(), machine)
    }

    #[test]
    fn forward_matches_reference_goldilocks() {
        for gpus in [1usize, 2, 4, 8] {
            for log_n in [6u32, 8, 10, 12] {
                let input = random_vec::<Goldilocks>(1 << log_n, log_n as u64);
                let expected = reference_forward(&input);
                let (actual, _) = run_forward(
                    log_n,
                    gpus,
                    UniNttOptions::full(),
                    FieldSpec::goldilocks(),
                    &input,
                );
                assert_eq!(actual, expected, "gpus={gpus} log_n={log_n}");
            }
        }
    }

    #[test]
    fn forward_matches_reference_bn254() {
        let log_n = 10u32;
        let input = random_vec::<Bn254Fr>(1 << log_n, 3);
        let expected = reference_forward(&input);
        for gpus in [2usize, 8] {
            let (actual, _) = run_forward(
                log_n,
                gpus,
                UniNttOptions::full(),
                FieldSpec::bn254_fr(),
                &input,
            );
            assert_eq!(actual, expected, "gpus={gpus}");
        }
    }

    #[test]
    fn natural_output_matches_reference_too() {
        let log_n = 10u32;
        let input = random_vec::<Goldilocks>(1 << log_n, 7);
        let expected = reference_forward(&input);
        let mut opts = UniNttOptions::full();
        opts.natural_output = true;
        let (actual, _) = run_forward(log_n, 4, opts, FieldSpec::goldilocks(), &input);
        assert_eq!(actual, expected);
    }

    #[test]
    fn options_never_change_results() {
        let log_n = 9u32;
        let input = random_vec::<Goldilocks>(1 << log_n, 11);
        let expected = reference_forward(&input);
        let mut all = vec![UniNttOptions::full(), UniNttOptions::none()];
        all.extend((1..=5).map(UniNttOptions::ablate));
        for opts in all {
            let (actual, _) = run_forward(log_n, 4, opts, FieldSpec::goldilocks(), &input);
            assert_eq!(actual, expected, "opts={opts:?}");
        }
    }

    #[test]
    fn roundtrip_exact() {
        for gpus in [1usize, 4] {
            let log_n = 11u32;
            let input = random_vec::<Goldilocks>(1 << log_n, 13);
            let cfg = presets::a100_nvlink(gpus);
            let fs = FieldSpec::goldilocks();
            let engine = UniNttEngine::<Goldilocks>::new(log_n, &cfg, UniNttOptions::full(), fs);
            let mut machine = Machine::new(cfg, fs);
            let mut data = Sharded::distribute(&input, gpus, ShardLayout::Cyclic);
            engine.forward(&mut machine, &mut data);
            engine.inverse(&mut machine, &mut data);
            assert_eq!(data.layout(), ShardLayout::Cyclic);
            assert_eq!(data.collect(), input, "gpus={gpus}");
        }
    }

    #[test]
    fn roundtrip_with_natural_output() {
        let log_n = 10u32;
        let input = random_vec::<Goldilocks>(1 << log_n, 17);
        let cfg = presets::a100_nvlink(8);
        let fs = FieldSpec::goldilocks();
        let mut opts = UniNttOptions::full();
        opts.natural_output = true;
        let engine = UniNttEngine::<Goldilocks>::new(log_n, &cfg, opts, fs);
        let mut machine = Machine::new(cfg, fs);
        let mut data = Sharded::distribute(&input, 8, ShardLayout::Cyclic);
        engine.forward(&mut machine, &mut data);
        assert_eq!(data.layout(), ShardLayout::NaturalBlocks);
        engine.inverse(&mut machine, &mut data);
        assert_eq!(data.collect(), input);
    }

    #[test]
    fn batch_matches_individual() {
        let log_n = 8u32;
        let gpus = 4usize;
        let cfg = presets::a100_nvlink(gpus);
        let fs = FieldSpec::goldilocks();
        let engine = UniNttEngine::<Goldilocks>::new(log_n, &cfg, UniNttOptions::full(), fs);

        let inputs: Vec<Vec<Goldilocks>> =
            (0..5).map(|i| random_vec(1 << log_n, 100 + i)).collect();

        let mut machine = Machine::new(cfg, fs);
        let mut batch: Vec<Sharded<Goldilocks>> = inputs
            .iter()
            .map(|x| Sharded::distribute(x, gpus, ShardLayout::Cyclic))
            .collect();
        engine.forward_batch(&mut machine, &mut batch);

        for (input, out) in inputs.iter().zip(&batch) {
            assert_eq!(out.collect(), reference_forward(input));
        }
    }

    #[test]
    fn batch_roundtrip() {
        let log_n = 8u32;
        let gpus = 4usize;
        let cfg = presets::a100_nvlink(gpus);
        let fs = FieldSpec::goldilocks();
        let engine = UniNttEngine::<Goldilocks>::new(log_n, &cfg, UniNttOptions::full(), fs);
        let inputs: Vec<Vec<Goldilocks>> =
            (0..3).map(|i| random_vec(1 << log_n, 200 + i)).collect();
        let mut machine = Machine::new(cfg, fs);
        let mut batch: Vec<Sharded<Goldilocks>> = inputs
            .iter()
            .map(|x| Sharded::distribute(x, gpus, ShardLayout::Cyclic))
            .collect();
        engine.forward_batch(&mut machine, &mut batch);
        engine.inverse_batch(&mut machine, &mut batch);
        for (input, out) in inputs.iter().zip(&batch) {
            assert_eq!(&out.collect(), input);
        }
    }

    #[test]
    fn ablations_cost_more_than_full() {
        let log_n = 20u32;
        let gpus = 8usize;
        let input = random_vec::<Goldilocks>(1 << log_n, 23);
        let (_, full_machine) = run_forward(
            log_n,
            gpus,
            UniNttOptions::full(),
            FieldSpec::goldilocks(),
            &input,
        );
        let full_time = full_machine.max_clock_ns();
        for which in [1u32, 2, 3, 4] {
            let (_, m) = run_forward(
                log_n,
                gpus,
                UniNttOptions::ablate(which),
                FieldSpec::goldilocks(),
                &input,
            );
            assert!(
                m.max_clock_ns() > full_time,
                "ablation {which} should slow the engine: full={full_time} ablated={}",
                m.max_clock_ns()
            );
        }
    }

    #[test]
    fn single_all_to_all_in_default_mode() {
        let log_n = 16u32;
        let input = random_vec::<Goldilocks>(1 << log_n, 29);
        let (_, machine) = run_forward(
            log_n,
            8,
            UniNttOptions::full(),
            FieldSpec::goldilocks(),
            &input,
        );
        // One collective per device.
        assert_eq!(machine.stats().collectives, 8);
    }

    #[test]
    fn simulate_charges_exactly_what_run_charges() {
        for gpus in [1usize, 8] {
            for natural in [false, true] {
                for batch_len in [1usize, 3] {
                    let log_n = 14u32;
                    let cfg = presets::a100_nvlink(gpus);
                    let fs = FieldSpec::goldilocks();
                    let mut opts = UniNttOptions::full();
                    opts.natural_output = natural;
                    let engine = UniNttEngine::<Goldilocks>::new(log_n, &cfg, opts, fs);

                    let mut real = Machine::new(cfg.clone(), fs);
                    let mut batch: Vec<Sharded<Goldilocks>> = (0..batch_len)
                        .map(|i| {
                            Sharded::distribute(
                                &random_vec::<Goldilocks>(1 << log_n, i as u64),
                                gpus,
                                ShardLayout::Cyclic,
                            )
                        })
                        .collect();
                    engine.forward_batch(&mut real, &mut batch);
                    engine.inverse_batch(&mut real, &mut batch);

                    let mut sim = Machine::new(cfg, fs);
                    engine.simulate_forward(&mut sim, batch_len as u64);
                    engine.simulate_inverse(&mut sim, batch_len as u64);

                    let (rt, st) = (real.max_clock_ns(), sim.max_clock_ns());
                    assert!(
                        (rt - st).abs() < 1e-6 * rt.max(1.0),
                        "clock mismatch gpus={gpus} natural={natural} b={batch_len}: real={rt} sim={st}"
                    );
                    assert_eq!(
                        real.stats().kernels_launched,
                        sim.stats().kernels_launched,
                        "kernel count mismatch gpus={gpus} natural={natural} b={batch_len}"
                    );
                    assert_eq!(
                        real.stats().interconnect_bytes_sent,
                        sim.stats().interconnect_bytes_sent,
                        "bytes mismatch gpus={gpus} natural={natural} b={batch_len}"
                    );
                }
            }
        }
    }

    #[test]
    fn overlapped_and_blocking_outputs_bit_identical() {
        let log_n = 12u32;
        let gpus = 8usize;
        let input = random_vec::<Goldilocks>(1 << log_n, 31);
        let mut blocking = UniNttOptions::full();
        blocking.comm_mode = CommMode::Blocking;
        let (b_out, b_machine) =
            run_forward(log_n, gpus, blocking, FieldSpec::goldilocks(), &input);
        let (o_out, o_machine) = run_forward(
            log_n,
            gpus,
            UniNttOptions::full(),
            FieldSpec::goldilocks(),
            &input,
        );
        assert_eq!(o_out, b_out, "overlap must not change any output bit");
        // Overlap reschedules work, it never adds or removes any: same
        // kernels, same bytes on the wire.
        assert_eq!(
            b_machine.stats().kernels_launched,
            o_machine.stats().kernels_launched
        );
        assert_eq!(
            b_machine.stats().interconnect_bytes_sent,
            o_machine.stats().interconnect_bytes_sent
        );
    }

    #[test]
    fn overlapped_roundtrip_exact() {
        let log_n = 11u32;
        let input = random_vec::<Goldilocks>(1 << log_n, 33);
        let cfg = presets::a100_nvlink(8);
        let fs = FieldSpec::goldilocks();
        let engine = UniNttEngine::<Goldilocks>::new(log_n, &cfg, UniNttOptions::full(), fs);
        assert!(engine.overlapped(), "full() must default to overlap");
        let mut machine = Machine::new(cfg, fs);
        let mut data = Sharded::distribute(&input, 8, ShardLayout::Cyclic);
        engine.forward(&mut machine, &mut data);
        engine.inverse(&mut machine, &mut data);
        assert_eq!(data.collect(), input);
        assert!(machine.stats().comm_hidden_ns >= 0.0);
    }

    #[test]
    fn overlap_hides_exchange_time_at_scale() {
        let log_n = 24u32;
        let gpus = 8;
        let cfg = presets::a100_nvlink(gpus);
        let fs = FieldSpec::goldilocks();
        let mut blocking_opts = UniNttOptions::full();
        blocking_opts.comm_mode = CommMode::Blocking;
        let eb = UniNttEngine::<Goldilocks>::new(log_n, &cfg, blocking_opts, fs);
        let mut mb = Machine::new(cfg.clone(), fs);
        eb.simulate_forward(&mut mb, 1);
        let eo = UniNttEngine::<Goldilocks>::new(log_n, &cfg, UniNttOptions::full(), fs);
        let mut mo = Machine::new(cfg, fs);
        eo.simulate_forward(&mut mo, 1);
        assert!(
            mo.max_clock_ns() < mb.max_clock_ns(),
            "overlap must beat blocking at 2^24: {} vs {}",
            mo.max_clock_ns(),
            mb.max_clock_ns()
        );
        assert!(mo.stats().comm_hidden_ns > 0.0);
        // The raw (overlap-blind) interconnect charge is unchanged — only
        // the exposed time shrinks.
        assert!(
            (mb.stats().raw_time_ns.interconnect - mo.stats().raw_time_ns.interconnect).abs()
                < 1e-6
        );
        assert_eq!(mb.stats().kernels_launched, mo.stats().kernels_launched);
    }

    #[test]
    fn single_chunk_overlap_matches_blocking_clock() {
        // chunks = 1 degenerates to the blocking schedule exactly, so the
        // two modes must charge the same makespan.
        let log_n = 20u32;
        let cfg = presets::a100_nvlink(8);
        let fs = FieldSpec::goldilocks();
        let mut blocking_opts = UniNttOptions::full();
        blocking_opts.comm_mode = CommMode::Blocking;
        let mut one_chunk = UniNttOptions::full();
        one_chunk.comm_chunks = 1;
        let eb = UniNttEngine::<Goldilocks>::new(log_n, &cfg, blocking_opts, fs);
        let eo = UniNttEngine::<Goldilocks>::new(log_n, &cfg, one_chunk, fs);
        let mut mb = Machine::new(cfg.clone(), fs);
        eb.simulate_forward(&mut mb, 1);
        eb.simulate_inverse(&mut mb, 1);
        let mut mo = Machine::new(cfg, fs);
        eo.simulate_forward(&mut mo, 1);
        eo.simulate_inverse(&mut mo, 1);
        let (b, o) = (mb.max_clock_ns(), mo.max_clock_ns());
        assert!((b - o).abs() < 1e-6 * b, "blocking {b} vs one-chunk {o}");
    }

    #[test]
    fn overlapped_recovery_matches_clean_run() {
        use unintt_gpu_sim::{FaultEvent, FaultKind, FaultPlan};
        let log_n = 10u32;
        let gpus = 4usize;
        let cfg = presets::a100_nvlink(gpus);
        let fs = FieldSpec::goldilocks();
        let engine = UniNttEngine::<Goldilocks>::new(log_n, &cfg, UniNttOptions::full(), fs);
        let input = random_vec::<Goldilocks>(1 << log_n, 37);

        let mut clean = Machine::new(cfg.clone(), fs);
        let mut expected = Sharded::distribute(&input, gpus, ShardLayout::Cyclic);
        engine.forward(&mut clean, &mut expected);

        // A dropped then a corrupted exchange, both under overlap: the
        // retry and the checksum repair must compose with the pipeline.
        let mut m = Machine::new(cfg, fs);
        m.set_fault_plan(FaultPlan::scripted(vec![
            FaultEvent {
                seq: 0,
                kind: FaultKind::Drop,
            },
            FaultEvent {
                seq: 1,
                kind: FaultKind::Corrupt { src: 2, dst: 1 },
            },
        ]));
        let mut data = Sharded::distribute(&input, gpus, ShardLayout::Cyclic);
        engine
            .try_forward(&mut m, &mut data, &RecoveryPolicy::default())
            .unwrap();
        assert_eq!(data.collect(), expected.collect());
        assert!(m.stats().retries > 0, "the drop must have been retried");
        assert!(
            m.stats().interconnect_bytes_retransmitted > 0,
            "the corruption must have been repaired by retransmission"
        );
    }

    #[test]
    #[should_panic(expected = "unexpected input layout")]
    fn wrong_layout_rejected() {
        let cfg = presets::a100_nvlink(4);
        let fs = FieldSpec::goldilocks();
        let engine = UniNttEngine::<Goldilocks>::new(8, &cfg, UniNttOptions::full(), fs);
        let mut machine = Machine::new(cfg, fs);
        let input = random_vec::<Goldilocks>(256, 1);
        let mut data = Sharded::distribute(&input, 4, ShardLayout::NaturalBlocks);
        engine.forward(&mut machine, &mut data);
    }
}

#[cfg(test)]
mod coset_tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use unintt_ff::{Field, Goldilocks, PrimeField};
    use unintt_gpu_sim::presets;

    fn random_vec(n: usize, seed: u64) -> Vec<Goldilocks> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| Goldilocks::random(&mut rng)).collect()
    }

    #[test]
    fn coset_forward_matches_cpu_library() {
        let log_n = 10u32;
        let gpus = 4usize;
        let fs = FieldSpec::goldilocks();
        let cfg = presets::a100_nvlink(gpus);
        let engine =
            UniNttEngine::<Goldilocks>::new(log_n, &cfg, UniNttOptions::tuned_for(&fs), fs);
        let mut machine = Machine::new(cfg, fs);

        let coeffs = random_vec(1 << log_n, 1);
        let shift = Goldilocks::GENERATOR;

        let expected = {
            let ntt = Ntt::<Goldilocks>::new(log_n);
            let mut v = coeffs.clone();
            unintt_ntt::coset_ntt(&ntt, &mut v, shift);
            v
        };

        let mut data = Sharded::distribute(&coeffs, gpus, ShardLayout::Cyclic);
        engine.coset_forward(&mut machine, &mut data, shift);
        assert_eq!(data.collect(), expected);

        engine.coset_inverse(&mut machine, &mut data, shift);
        assert_eq!(data.collect(), coeffs);
    }

    #[test]
    fn coset_with_unit_shift_is_plain_forward() {
        let log_n = 8u32;
        let gpus = 8usize;
        let fs = FieldSpec::goldilocks();
        let cfg = presets::a100_nvlink(gpus);
        let engine =
            UniNttEngine::<Goldilocks>::new(log_n, &cfg, UniNttOptions::tuned_for(&fs), fs);

        let input = random_vec(1 << log_n, 2);
        let mut m1 = Machine::new(cfg.clone(), fs);
        let mut d1 = Sharded::distribute(&input, gpus, ShardLayout::Cyclic);
        engine.coset_forward(&mut m1, &mut d1, Goldilocks::ONE);

        let mut m2 = Machine::new(cfg, fs);
        let mut d2 = Sharded::distribute(&input, gpus, ShardLayout::Cyclic);
        engine.forward(&mut m2, &mut d2);

        assert_eq!(d1.collect(), d2.collect());
        // The coset path costs strictly more (the fused scale).
        assert!(m1.max_clock_ns() > m2.max_clock_ns());
    }

    #[test]
    fn simulate_coset_matches_functional() {
        let log_n = 12u32;
        let gpus = 8usize;
        let fs = FieldSpec::goldilocks();
        let cfg = presets::a100_nvlink(gpus);
        let engine =
            UniNttEngine::<Goldilocks>::new(log_n, &cfg, UniNttOptions::tuned_for(&fs), fs);

        let mut real = Machine::new(cfg.clone(), fs);
        let input = random_vec(1 << log_n, 3);
        let mut data = Sharded::distribute(&input, gpus, ShardLayout::Cyclic);
        engine.coset_forward(&mut real, &mut data, Goldilocks::GENERATOR);

        let mut sim = Machine::new(cfg, fs);
        engine.simulate_coset_forward(&mut sim, 1);

        let (rt, st) = (real.max_clock_ns(), sim.max_clock_ns());
        assert!((rt - st).abs() < 1e-6 * rt, "real={rt} sim={st}");
        assert_eq!(real.stats().kernels_launched, sim.stats().kernels_launched);
    }

    #[test]
    fn coset_batch_matches_individual_and_simulate() {
        let log_n = 10u32;
        let gpus = 4usize;
        let fs = FieldSpec::goldilocks();
        let cfg = presets::a100_nvlink(gpus);
        let engine =
            UniNttEngine::<Goldilocks>::new(log_n, &cfg, UniNttOptions::tuned_for(&fs), fs);
        let shift = Goldilocks::GENERATOR;
        let inputs: Vec<Vec<Goldilocks>> = (0..5).map(|i| random_vec(1 << log_n, i)).collect();

        // Individual transforms (separate machine) as the reference.
        let mut expected = Vec::new();
        for input in &inputs {
            let mut m = Machine::new(cfg.clone(), fs);
            let mut d = Sharded::distribute(input, gpus, ShardLayout::Cyclic);
            engine.coset_forward(&mut m, &mut d, shift);
            expected.push(d.collect());
        }

        // Batched.
        let mut real = Machine::new(cfg.clone(), fs);
        let mut batch: Vec<Sharded<Goldilocks>> = inputs
            .iter()
            .map(|x| Sharded::distribute(x, gpus, ShardLayout::Cyclic))
            .collect();
        engine.coset_forward_batch(&mut real, &mut batch, shift);
        for (out, exp) in batch.iter().zip(&expected) {
            assert_eq!(&out.collect(), exp);
        }

        // Cost-only twin.
        let mut sim = Machine::new(cfg, fs);
        engine.simulate_coset_forward(&mut sim, 5);
        let (rt, st) = (real.max_clock_ns(), sim.max_clock_ns());
        assert!((rt - st).abs() < 1e-6 * rt, "real={rt} sim={st}");
        assert_eq!(real.stats().kernels_launched, sim.stats().kernels_launched);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_shift_rejected() {
        let fs = FieldSpec::goldilocks();
        let cfg = presets::a100_nvlink(2);
        let engine = UniNttEngine::<Goldilocks>::new(6, &cfg, UniNttOptions::tuned_for(&fs), fs);
        let mut machine = Machine::new(cfg, fs);
        let input = random_vec(64, 4);
        let mut data = Sharded::distribute(&input, 2, ShardLayout::Cyclic);
        engine.coset_forward(&mut machine, &mut data, Goldilocks::ZERO);
    }
}
