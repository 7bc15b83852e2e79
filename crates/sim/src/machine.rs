//! The stream processor scoreboard: issues stream operations onto the
//! memory system and the cluster array, enforcing data dependencies,
//! SRF capacity and stream-descriptor-register availability.
//!
//! The model has one memory pipeline and one cluster array (matching the
//! two-column execution plots of Figure 7); software pipelining across
//! strips emerges from the dependence structure: while the clusters run
//! strip *i*'s kernel, the memory unit gathers strip *i+1* and scatters
//! strip *i−1*, exactly as in Figure 5 — provided enough stream
//! descriptor registers are free, which is where [`SdrPolicy`] bites.

use merrimac_arch::{MachineConfig, OpCosts};
use merrimac_kernel::interp::{InterpError, Interpreter, StreamData};
use merrimac_kernel::BatchWidth;

use crate::cache::CacheAccessStats;
use crate::counters::{Counters, PhaseCycles};
use crate::memsys::{MemOpCost, MemSystem};
use crate::parallel::PartitionSummary;
use crate::program::{AccessKind, BufferId, Memory, RegionId, StreamOp, StreamProgram};
use crate::sdr::{SdrFile, SdrPolicy};
use crate::srf::SrfAllocator;
use crate::timeline::{Timeline, Unit};

/// Simulation failure.
#[derive(Debug)]
pub enum SimError {
    Interp(InterpError),
    /// A single buffer exceeds SRF capacity — no schedule can run it.
    SrfImpossible(String),
    /// A strip's kernel working set (its live input streams plus the
    /// output streams that must be allocated to issue the kernel) cannot
    /// fit in the SRF, so the scoreboard would wedge at kernel issue.
    /// Detected up front so callers get a diagnostic naming the strip
    /// size instead of a deadlock.
    StripSrfOverflow {
        /// Label of the kernel op that can never issue.
        label: String,
        /// Strip size (kernel iterations) that produced the working set.
        strip_iterations: u64,
        /// SRF words per cluster the working set needs.
        needed_words_per_cluster: usize,
        /// SRF words per cluster the machine has.
        capacity_words_per_cluster: usize,
    },
    /// Invalid configuration rejected before any simulation ran.
    Config(String),
    /// A multi-node configuration outside the modeled network, rejected
    /// at build time like the other preflight errors.
    NodesOutOfRange {
        nodes: usize,
        total: usize,
    },
    /// The scoreboard wedged (a bug or an impossible program).
    Deadlock(String),
    /// The parallel engine's phase-A kernel counters disagree with the
    /// phase-B scoreboard replay of the same program: an engine bug,
    /// reported instead of returning inconsistent counters. Both arrays
    /// are `[srf_refs, lrf_refs, hardware_flops, hardware_ops,
    /// kernel_iterations]`.
    CounterMismatch {
        phase_a: [u64; 5],
        scoreboard: [u64; 5],
    },
    /// Program shape error (e.g. iterations not divisible by unroll).
    Program(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Interp(e) => write!(f, "kernel execution failed: {e}"),
            SimError::SrfImpossible(s) => write!(f, "SRF cannot hold buffer: {s}"),
            SimError::StripSrfOverflow {
                label,
                strip_iterations,
                needed_words_per_cluster,
                capacity_words_per_cluster,
            } => write!(
                f,
                "strip size {strip_iterations} is un-runnable: kernel '{label}' needs \
                 {needed_words_per_cluster} SRF words/cluster for its live streams but the \
                 machine has {capacity_words_per_cluster}; reduce strip_iterations"
            ),
            SimError::Config(s) => write!(f, "invalid configuration: {s}"),
            SimError::NodesOutOfRange { nodes, total } => write!(
                f,
                "multi-node preflight: {nodes} node(s) requested but the modeled network \
                 supports 1..={total}"
            ),
            SimError::Deadlock(s) => write!(f, "scoreboard deadlock: {s}"),
            SimError::CounterMismatch {
                phase_a,
                scoreboard,
            } => write!(
                f,
                "engine bug: phase-A kernel counters {phase_a:?} disagree with the \
                 scoreboard's {scoreboard:?}"
            ),
            SimError::Program(s) => write!(f, "malformed program: {s}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<InterpError> for SimError {
    fn from(e: InterpError) -> Self {
        SimError::Interp(e)
    }
}

/// Report of one program run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Total run time in cycles.
    pub cycles: u64,
    pub timeline: Timeline,
    pub counters: Counters,
    /// Busy cycles by stream-operation class (gather/load/kernel/
    /// scatter-add/store).
    pub phases: PhaseCycles,
    /// Peak stream descriptor registers in use.
    pub sdr_peak: usize,
    /// Peak SRF words per cluster.
    pub srf_peak_words_per_cluster: usize,
    /// Cycles the memory unit sat idle with work ready but no SDR free.
    pub sdr_stall_cycles: u64,
    /// How the strip partitioner classified this program (parallelized
    /// vs serial fallback, with a typed reason).
    pub partition: PartitionSummary,
    /// Aggregate stream-cache behaviour over the whole run. For
    /// partitioned runs this is the deterministic strip-order merge of
    /// the per-strip shard stats.
    pub cache_stats: CacheAccessStats,
}

impl RunReport {
    /// Seconds at the configured clock.
    pub fn seconds(&self, cfg: &MachineConfig) -> f64 {
        cfg.cycles_to_seconds(self.cycles)
    }
}

/// Per-op functional results captured by the parallel phase-A pass
/// ([`StreamProcessor::run_parallel`]): the few facts the timing
/// scoreboard needs that come from *executing* an op rather than from
/// its static description.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct OpRecord {
    /// SRF words a kernel op moved (records consumed + outputs written).
    pub kernel_srf_words: u64,
    /// Memory-system cost of this op, computed in phase A against the
    /// op's strip shard. `Some` for every memory op of a partitioned
    /// program; the timing pass consumes it instead of re-running the
    /// (stateful, serial) cache model.
    pub mem_cost: Option<MemOpCost>,
}

/// How the scoreboard obtains functional results while scheduling.
#[derive(Clone, Copy)]
pub(crate) enum ExecMode<'a> {
    /// Execute each op functionally as it issues (the classic path).
    Inline,
    /// Functional execution already happened (parallel per-strip pass);
    /// compute only costs and timing. Region data must already be in
    /// its final state — every cost function is address-based, so the
    /// schedule and cycle counts are bitwise-identical to [`Inline`].
    Precomputed(&'a [OpRecord]),
}

/// Which functional engine executes kernel dataflow graphs.
///
/// The batched SoA engine ([`merrimac_kernel::batch`], executing the
/// compiled tape in vectorizable lanes of 8/16 iterations) is the
/// default. The scalar bytecode tape and the graph-walking
/// [`Interpreter`] remain as bisection oracles, selected with
/// [`StreamProcessor::with_engine`]. All three produce
/// bitwise-identical outputs, consumed counts and final registers —
/// proven differentially by `tests/tape_equivalence.rs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelEngine {
    /// Batched SoA execution of the compiled tape, 8/16 lanes per
    /// batch ([`BatchWidth`]).
    #[default]
    Batch,
    /// Flat bytecode tape, one scalar iteration at a time.
    Tape,
    /// Reference graph-walking interpreter.
    Interp,
}

impl KernelEngine {
    /// The engine a value of `MERRIMAC_KERNEL_ENGINE` names, if any.
    /// This is the single place the value grammar lives; typed rejection
    /// of malformed values happens in `merrimac_bench`'s
    /// `RunSpec::from_env_overrides`, which calls this.
    pub fn parse(value: &str) -> Option<Self> {
        match value {
            "batch" => Some(KernelEngine::Batch),
            "tape" => Some(KernelEngine::Tape),
            "interp" => Some(KernelEngine::Interp),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            KernelEngine::Batch => "batch",
            KernelEngine::Tape => "tape",
            KernelEngine::Interp => "interp",
        }
    }
}

impl std::fmt::Display for KernelEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Run a kernel op's dataflow graph: unroll check, input reshape,
/// execution on the selected engine. Returns the output streams and the
/// SRF words moved (inputs consumed + outputs written). Shared between
/// the inline scoreboard and the parallel per-strip executor so the two
/// paths cannot drift.
#[allow(clippy::too_many_arguments)]
pub(crate) fn kernel_functional(
    label: &str,
    kernel: &crate::kernelc::CompiledKernel,
    input_data: Vec<StreamData>,
    params: &[f64],
    iterations: u64,
    engine: KernelEngine,
    batch: BatchWidth,
) -> Result<(Vec<StreamData>, u64), SimError> {
    let unroll = kernel.opt.unroll as u64;
    if !iterations.is_multiple_of(unroll) {
        return Err(SimError::Program(format!(
            "kernel '{label}': {iterations} iterations not divisible by unroll {unroll}"
        )));
    }
    // Reshape every-iteration inputs to the unrolled record length —
    // skipped entirely when every input already matches the unrolled
    // signature (unroll = 1, or pre-shaped buffers), so the common case
    // moves no stream and re-validates nothing.
    let all_match = input_data
        .iter()
        .zip(&kernel.ir.inputs)
        .all(|(d, sig)| sig.record_len as usize == d.record_len);
    let shaped = if all_match {
        input_data
    } else {
        let mut shaped = Vec::with_capacity(input_data.len());
        for (d, sig) in input_data.into_iter().zip(&kernel.ir.inputs) {
            if sig.record_len as usize != d.record_len {
                if d.data.len() % sig.record_len as usize != 0 {
                    return Err(SimError::Program(format!(
                        "kernel '{label}': input not reshapeable to {} words",
                        sig.record_len
                    )));
                }
                shaped.push(StreamData::new(sig.record_len as usize, d.data));
            } else {
                shaped.push(d);
            }
        }
        shaped
    };
    let unrolled_iters = iterations / unroll;
    let out = match engine {
        KernelEngine::Batch => {
            kernel
                .tape
                .run_batched(&shaped, params, unrolled_iters as usize, batch)?
        }
        KernelEngine::Tape => kernel.tape.run(&shaped, params, unrolled_iters as usize)?,
        KernelEngine::Interp => {
            Interpreter::new(&kernel.ir).run(&shaped, params, unrolled_iters as usize)?
        }
    };
    let mut srf_words = 0u64;
    for (s, d) in out.records_consumed.iter().zip(&shaped) {
        srf_words += (*s * d.record_len) as u64;
    }
    for o in &out.outputs {
        srf_words += o.data.len() as u64;
    }
    Ok((out.outputs, srf_words))
}

/// The word range a store of `len` words at word `start` writes in
/// `region`, or a typed error when it leaves the region.
pub(crate) fn store_range(
    label: &str,
    memory: &Memory,
    region: RegionId,
    start: usize,
    len: usize,
) -> Result<std::ops::Range<usize>, SimError> {
    if region.0 >= memory.num_regions() {
        return Err(SimError::Program(format!(
            "store '{label}': region {} is outside memory ({} regions)",
            region.0,
            memory.num_regions()
        )));
    }
    let words = memory.data(region).len();
    if start.saturating_add(len) > words {
        return Err(SimError::Program(format!(
            "store '{label}': words {start}..{} are outside region {} ({words} words)",
            start.saturating_add(len),
            region.0
        )));
    }
    Ok(start..start + len)
}

/// A scatter-add's source must hold one record of the op's
/// `record_len` per index; anything else is a typed program error
/// rather than a short or misaligned read.
pub(crate) fn check_scatter_source(
    label: &str,
    data: &StreamData,
    record_len: usize,
    indices: &[u32],
) -> Result<(), SimError> {
    if data.record_len != record_len {
        return Err(SimError::Program(format!(
            "scatter-add '{label}': source records are {} words, op records are {record_len}",
            data.record_len
        )));
    }
    if data.num_records() != indices.len() {
        return Err(SimError::Program(format!(
            "scatter-add '{label}': {} records vs {} indices",
            data.num_records(),
            indices.len()
        )));
    }
    Ok(())
}

/// Default [`StreamProcessor::strip_lookahead`]: one strip of prefetch,
/// the double-buffering discipline of the paper's stream scheduler
/// (Figure 5).
pub const DEFAULT_STRIP_LOOKAHEAD: usize = 1;

/// A Merrimac node ready to execute stream programs.
#[derive(Debug, Clone)]
pub struct StreamProcessor {
    pub cfg: MachineConfig,
    pub costs: OpCosts,
    pub policy: SdrPolicy,
    /// How many strips ahead of the oldest incomplete strip the memory
    /// unit may prefetch. One strip of lookahead is the double-buffering
    /// discipline of the paper's stream scheduler (Figure 5); unbounded
    /// lookahead can deadlock the SRF allocator, exactly the hazard
    /// static stream scheduling exists to prevent.
    pub strip_lookahead: usize,
    /// Which functional engine executes kernel dataflow graphs
    /// (default batch). Simulated results are bitwise-identical under
    /// all three; only host wall-clock differs.
    pub kernel_engine: KernelEngine,
    /// Lane width of the batched engine ([`KernelEngine::Batch`];
    /// default 8). Results are bitwise-identical at either width.
    pub tape_batch: BatchWidth,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpState {
    Waiting,
    Running { end: u64 },
    Done { end: u64 },
}

impl StreamProcessor {
    pub fn new(cfg: MachineConfig) -> Self {
        Self {
            cfg,
            costs: OpCosts::default(),
            policy: SdrPolicy::Eager,
            strip_lookahead: DEFAULT_STRIP_LOOKAHEAD,
            kernel_engine: KernelEngine::default(),
            tape_batch: BatchWidth::default(),
        }
    }

    pub fn with_policy(mut self, policy: SdrPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Select the functional kernel-execution engine (batch, tape or
    /// the reference interpreter).
    pub fn with_engine(mut self, engine: KernelEngine) -> Self {
        self.kernel_engine = engine;
        self
    }

    /// Select the lane width of the batched engine.
    pub fn with_batch_width(mut self, width: BatchWidth) -> Self {
        self.tape_batch = width;
        self
    }

    pub fn with_costs(mut self, costs: OpCosts) -> Self {
        self.costs = costs;
        self
    }

    /// Preflight: reject programs the scoreboard can never complete.
    ///
    /// A kernel op can only issue once every input stream is live in the
    /// SRF and every output stream has been allocated, so the sum of the
    /// per-cluster shares of its inputs and outputs is a hard floor on
    /// SRF occupancy at issue time. If that floor exceeds the per-cluster
    /// capacity the kernel can never issue and the scoreboard would
    /// deadlock — the classic symptom of a strip sized past what the SRF
    /// can double-buffer. Detecting it here turns an opaque
    /// [`SimError::Deadlock`] into a [`SimError::StripSrfOverflow`]
    /// naming the offending strip size.
    pub fn validate_program(&self, program: &StreamProgram) -> Result<(), SimError> {
        // Declared access intents must cover every op touching the
        // region: an op of a kind the intent forbids is a contract
        // violation, not a partitioner fallback.
        for lop in &program.ops {
            if let Some((region, kind)) = lop.op.region_use() {
                if let Some(intent) = program.declared_intent(region) {
                    if !intent.permits(kind) {
                        return Err(SimError::Program(format!(
                            "op '{}' performs a {kind} on region {} declared {intent}",
                            lop.label, region.0
                        )));
                    }
                }
            }
        }
        // Per-buffer allocation shares, from each buffer's producer op
        // (allocation happens when the producer issues and uses the
        // worst-case capacity, spread across clusters).
        let mut share = vec![0usize; program.buffers.len()];
        for lop in &program.ops {
            for b in produced_buffers(&lop.op) {
                let words = buffer_capacity_words(program, &lop.op, b);
                share[b.0] = words.div_ceil(self.cfg.clusters);
            }
        }
        for lop in &program.ops {
            if let StreamOp::Kernel {
                inputs,
                outputs,
                iterations,
                ..
            } = &lop.op
            {
                let mut seen: Vec<usize> = Vec::new();
                let mut needed = 0usize;
                for b in inputs.iter().chain(outputs) {
                    if !seen.contains(&b.0) {
                        seen.push(b.0);
                        needed += share[b.0];
                    }
                }
                if needed > self.cfg.srf_words_per_cluster {
                    return Err(SimError::StripSrfOverflow {
                        label: lop.label.clone(),
                        strip_iterations: *iterations,
                        needed_words_per_cluster: needed,
                        capacity_words_per_cluster: self.cfg.srf_words_per_cluster,
                    });
                }
            }
        }
        Ok(())
    }

    /// Reject region accesses that leave their region, against the
    /// memory the program is about to run on: every gather and
    /// scatter-add index and every load's record range must lie inside
    /// the region. Checked once per run, so neither the serial
    /// scoreboard nor the per-strip executors index out of bounds.
    /// (A store's extent depends on its source buffer's run-time length
    /// and is checked where it is applied, by [`store_range`].)
    pub(crate) fn check_region_bounds(
        &self,
        program: &StreamProgram,
        memory: &Memory,
    ) -> Result<(), SimError> {
        for lop in &program.ops {
            let (region, record_len, end) = match &lop.op {
                StreamOp::Gather {
                    region,
                    record_len,
                    indices,
                    ..
                }
                | StreamOp::ScatterAdd {
                    region,
                    record_len,
                    indices,
                    ..
                } => (
                    *region,
                    *record_len,
                    indices.iter().max().map_or(0, |&m| m as usize + 1),
                ),
                StreamOp::Load {
                    region,
                    record_len,
                    start,
                    records,
                    ..
                } => (*region, *record_len, start.saturating_add(*records)),
                StreamOp::Kernel { .. } | StreamOp::Store { .. } => continue,
            };
            let words = (region.0 < memory.num_regions()).then(|| memory.data(region).len());
            if words.is_none_or(|w| end.saturating_mul(record_len) > w) {
                return Err(SimError::Program(format!(
                    "{} '{}': record {} is outside region {} ({} words)",
                    lop.op.mnemonic(),
                    lop.label,
                    end.saturating_sub(1),
                    region.0,
                    words.unwrap_or(0)
                )));
            }
        }
        Ok(())
    }

    /// The scoreboard: schedules ops onto the memory pipeline and the
    /// cluster array. In [`ExecMode::Inline`] it also executes each op
    /// functionally as it issues; in [`ExecMode::Precomputed`] the data
    /// movement already happened and only costs/timing are computed.
    /// The caller has already run [`StreamProcessor::validate_program`].
    pub(crate) fn schedule(
        &self,
        memory: &mut Memory,
        program: &StreamProgram,
        mode: ExecMode,
    ) -> Result<RunReport, SimError> {
        self.schedule_with(memory, program, mode, &Plan::new(program)?)
    }

    /// [`StreamProcessor::schedule`] against an explicit static plan.
    pub(crate) fn schedule_with(
        &self,
        memory: &mut Memory,
        program: &StreamProgram,
        mode: ExecMode,
        plan: &Plan,
    ) -> Result<RunReport, SimError> {
        let n_ops = program.ops.len();
        let n_bufs = program.buffers.len();
        let deps = &plan.deps;
        let mut consumers = vec![0usize; n_bufs];
        for lop in &program.ops {
            for b in consumed_buffers(&lop.op) {
                consumers[b.0] += 1;
            }
        }

        // Oldest strip that still has unfinished work bounds the prefetch
        // window. Strip ids are ranked densely; a rank's remaining-op
        // count only falls, so the oldest incomplete rank only advances.
        let mut strip_ids: Vec<usize> = program.ops.iter().map(|lop| lop.strip).collect();
        strip_ids.sort_unstable();
        strip_ids.dedup();
        let strip_rank: Vec<usize> = program
            .ops
            .iter()
            .map(|lop| strip_ids.partition_point(|&s| s < lop.strip))
            .collect();
        let mut strip_left = vec![0usize; strip_ids.len()];
        for &r in &strip_rank {
            strip_left[r] += 1;
        }
        let mut oldest_rank = 0usize;

        // ---- dynamic state ----------------------------------------------
        let mut state = vec![OpState::Waiting; n_ops];
        let mut buffers: Vec<Option<StreamData>> = vec![None; n_bufs];
        let mut buffer_released = vec![false; n_bufs];
        let mut consumers_left = consumers.clone();
        let mut srf = SrfAllocator::new(&self.cfg);
        let mut sdr = SdrFile::new(self.cfg.stream_descriptor_registers);
        // SDRs held by memory op i awaiting a late (naive-policy) release:
        // maps buffer -> count of SDRs released when that buffer dies.
        let mut sdr_held_on_buffer: Vec<usize> = vec![0; n_bufs];
        let mut releases_at_completion: Vec<bool> = vec![false; n_ops];
        let mut memsys = MemSystem::new(&self.cfg);
        let mut timeline = Timeline::default();
        let mut counters = Counters::default();
        let mut phases = PhaseCycles::default();
        let mut mem_free_at: u64 = 0;
        let mut kernel_free_at: u64 = 0;
        let mut now: u64 = 0;
        let mut done_count = 0usize;
        let mut sdr_stall_cycles = 0u64;
        // Every op before `first_open` is done; `running` holds `(op, end)`
        // for the ops issued but not yet completed (at most one per unit
        // unless an op costs zero cycles).
        let mut first_open = 0usize;
        let mut running: Vec<(usize, u64)> = Vec::new();

        // Release a buffer's SRF space and any naive-policy SDRs parked
        // on it.
        macro_rules! release_buffer {
            ($b:expr, $sdr:ident) => {{
                let b: usize = $b;
                if !buffer_released[b] {
                    buffer_released[b] = true;
                    srf.release(b);
                    for _ in 0..sdr_held_on_buffer[b] {
                        $sdr.release();
                    }
                    sdr_held_on_buffer[b] = 0;
                }
            }};
        }

        // Mark op completion effects.
        macro_rules! complete_op {
            ($i:expr, $end:expr) => {{
                let i: usize = $i;
                state[i] = OpState::Done { end: $end };
                done_count += 1;
                strip_left[strip_rank[i]] -= 1;
                // Consumption bookkeeping: each buffer this op consumed
                // loses one consumer; at zero the buffer dies.
                for b in consumed_buffers(&program.ops[i].op) {
                    consumers_left[b.0] -= 1;
                    if consumers_left[b.0] == 0 {
                        release_buffer!(b.0, sdr);
                    }
                }
                // Buffers produced but never consumed die immediately.
                for b in produced_buffers(&program.ops[i].op) {
                    if consumers[b.0] == 0 {
                        release_buffer!(b.0, sdr);
                    }
                }
            }};
        }

        while done_count < n_ops {
            // Finish anything that completed by `now`.
            // (Completion is processed when time advances; see below.)

            let mut started_something = false;
            let mut mem_blocked_on_sdr = false;

            while oldest_rank < strip_left.len() && strip_left[oldest_rank] == 0 {
                oldest_rank += 1;
            }
            let window_end = strip_ids
                .get(oldest_rank)
                .map_or(usize::MAX, |s| s.saturating_add(self.strip_lookahead));

            // Lowest-index startable op wins. Ops before `first_open` are
            // done; with non-decreasing strip ids, every op after the
            // first one past the window is past it too.
            for i in first_open..n_ops {
                let lop = &program.ops[i];
                if lop.strip > window_end {
                    if plan.strips_monotone {
                        break;
                    }
                    continue;
                }
                if state[i] != OpState::Waiting {
                    continue;
                }
                let is_mem = lop.op.is_memory();
                let unit_free = if is_mem {
                    mem_free_at <= now
                } else {
                    kernel_free_at <= now
                };
                if !unit_free {
                    continue;
                }
                let ready = deps[i].iter().all(|&d| match state[d] {
                    OpState::Done { end } => end <= now,
                    _ => false,
                });
                if !ready {
                    continue;
                }
                // Resources: SRF for produced buffers.
                let mut allocated: Vec<usize> = Vec::new();
                let mut srf_ok = true;
                for b in produced_buffers(&lop.op) {
                    let words = buffer_capacity_words(program, &lop.op, b);
                    if words > srf.capacity_words_per_cluster() * self.cfg.clusters {
                        return Err(SimError::SrfImpossible(format!(
                            "buffer {} needs {} words",
                            program.buffers[b.0].name, words
                        )));
                    }
                    match srf.alloc(b.0, words) {
                        Ok(()) => allocated.push(b.0),
                        Err(_) => {
                            srf_ok = false;
                            break;
                        }
                    }
                }
                if !srf_ok {
                    for b in allocated {
                        srf.release(b);
                    }
                    continue;
                }
                // SDR for memory ops.
                if is_mem && !sdr.try_alloc() {
                    for b in &allocated {
                        srf.release(*b);
                    }
                    mem_blocked_on_sdr = true;
                    continue;
                }

                // ---- start the op: functional execution + cost ----------
                let (cost_cycles, unit) = match &lop.op {
                    StreamOp::Gather {
                        region,
                        record_len,
                        indices,
                        dst,
                    } => {
                        let cost = match mode {
                            ExecMode::Inline => {
                                memsys.gather_cost(memory, *region, *record_len, indices, false)
                            }
                            ExecMode::Precomputed(recs) => {
                                recs[i].mem_cost.expect("precomputed gather cost")
                            }
                        };
                        if matches!(mode, ExecMode::Inline) {
                            let mut data = Vec::with_capacity(indices.len() * record_len);
                            let src = memory.data(*region);
                            for &idx in indices.iter() {
                                let s = idx as usize * record_len;
                                data.extend_from_slice(&src[s..s + record_len]);
                            }
                            buffers[dst.0] = Some(StreamData::new(*record_len, data));
                        }
                        counters.mem_refs += cost.words;
                        counters.dram_words += cost.dram_words;
                        counters.cache_hits += cost.cache.hits;
                        counters.cache_misses += cost.cache.misses;
                        (self.cfg.memory_op_startup + cost.cycles, Unit::Memory)
                    }
                    StreamOp::Load {
                        region,
                        record_len,
                        start,
                        records,
                        dst,
                    } => {
                        let cost = match mode {
                            ExecMode::Inline => memsys.sequential_cost(
                                memory,
                                *region,
                                *record_len,
                                *start,
                                *records,
                                false,
                            ),
                            ExecMode::Precomputed(recs) => {
                                recs[i].mem_cost.expect("precomputed load cost")
                            }
                        };
                        if matches!(mode, ExecMode::Inline) {
                            let s = start * record_len;
                            let data = memory.data(*region)[s..s + records * record_len].to_vec();
                            buffers[dst.0] = Some(StreamData::new(*record_len, data));
                        }
                        counters.mem_refs += cost.words;
                        counters.dram_words += cost.dram_words;
                        counters.cache_hits += cost.cache.hits;
                        counters.cache_misses += cost.cache.misses;
                        (self.cfg.memory_op_startup + cost.cycles, Unit::Memory)
                    }
                    StreamOp::ScatterAdd {
                        src,
                        region,
                        record_len,
                        indices,
                    } => {
                        if matches!(mode, ExecMode::Inline) {
                            let data = buffers[src.0]
                                .as_ref()
                                .expect("scatter-add source produced")
                                .clone();
                            check_scatter_source(&lop.label, &data, *record_len, indices)?;
                            let dst = memory.data_mut(*region);
                            for (r, &idx) in indices.iter().enumerate() {
                                let base = idx as usize * *record_len;
                                for f in 0..*record_len {
                                    dst[base + f] += data.record(r)[f];
                                }
                            }
                        }
                        let cost = match mode {
                            ExecMode::Inline => {
                                memsys.scatter_add_cost(memory, *region, *record_len, indices)
                            }
                            ExecMode::Precomputed(recs) => {
                                recs[i].mem_cost.expect("precomputed scatter-add cost")
                            }
                        };
                        counters.mem_refs += cost.words;
                        counters.dram_words += cost.dram_words;
                        counters.cache_hits += cost.cache.hits;
                        counters.cache_misses += cost.cache.misses;
                        (self.cfg.memory_op_startup + cost.cycles, Unit::Memory)
                    }
                    StreamOp::Store {
                        src,
                        region,
                        record_len,
                        start,
                    } => {
                        let cost = match mode {
                            ExecMode::Inline => {
                                let data = buffers[src.0]
                                    .as_ref()
                                    .expect("store source produced")
                                    .clone();
                                let records = data.num_records();
                                let words = store_range(
                                    &lop.label,
                                    memory,
                                    *region,
                                    start * record_len,
                                    data.data.len(),
                                )?;
                                memory.data_mut(*region)[words].copy_from_slice(&data.data);
                                memsys.sequential_cost(
                                    memory,
                                    *region,
                                    *record_len,
                                    *start,
                                    records,
                                    true,
                                )
                            }
                            ExecMode::Precomputed(recs) => {
                                recs[i].mem_cost.expect("precomputed store cost")
                            }
                        };
                        counters.mem_refs += cost.words;
                        counters.dram_words += cost.dram_words;
                        counters.cache_hits += cost.cache.hits;
                        counters.cache_misses += cost.cache.misses;
                        (self.cfg.memory_op_startup + cost.cycles, Unit::Memory)
                    }
                    StreamOp::Kernel {
                        kernel,
                        inputs,
                        outputs,
                        params,
                        iterations,
                        max_cluster_iterations,
                    } => {
                        let unroll = kernel.opt.unroll as u64;
                        if iterations % unroll != 0 {
                            return Err(SimError::Program(format!(
                                "kernel '{}': {} iterations not divisible by unroll {}",
                                lop.label, iterations, unroll
                            )));
                        }
                        let unrolled_iters = iterations / unroll;
                        let srf_words = match mode {
                            ExecMode::Inline => {
                                let input_data: Vec<StreamData> = inputs
                                    .iter()
                                    .map(|b| {
                                        buffers[b.0]
                                            .as_ref()
                                            .expect("kernel input produced")
                                            .clone()
                                    })
                                    .collect();
                                let (outs, srf_words) = kernel_functional(
                                    &lop.label,
                                    kernel,
                                    input_data,
                                    params,
                                    *iterations,
                                    self.kernel_engine,
                                    self.tape_batch,
                                )?;
                                for (o, b) in outs.into_iter().zip(outputs) {
                                    buffers[b.0] = Some(o);
                                }
                                srf_words
                            }
                            ExecMode::Precomputed(recs) => recs[i].kernel_srf_words,
                        };
                        counters.srf_refs += srf_words;
                        counters.lrf_refs += kernel.stats.lrf_refs * unrolled_iters;
                        counters.hardware_flops += kernel.stats.hardware_flops * unrolled_iters;
                        counters.hardware_ops += kernel.stats.hardware_ops * unrolled_iters;
                        counters.kernel_iterations += iterations;
                        let c = crate::cluster::kernel_cost(
                            &self.cfg,
                            kernel,
                            *iterations,
                            *max_cluster_iterations,
                        );
                        (c.cycles, Unit::Kernel)
                    }
                };

                let end = now + cost_cycles;
                state[i] = OpState::Running { end };
                running.push((i, end));
                match &lop.op {
                    StreamOp::Gather { .. } => phases.gather += cost_cycles,
                    StreamOp::Load { .. } => phases.load += cost_cycles,
                    StreamOp::Kernel { .. } => phases.kernel += cost_cycles,
                    StreamOp::ScatterAdd { .. } => phases.scatter_add += cost_cycles,
                    StreamOp::Store { .. } => phases.store += cost_cycles,
                }
                timeline.record(unit, now, end, &lop.label, lop.strip);
                match unit {
                    Unit::Memory => {
                        mem_free_at = end;
                        // SDR retirement policy: the naive allocator parks
                        // the register on the produced SRF stream and only
                        // frees it when that stream dies; the eager one
                        // (and ops with no produced stream) free it at
                        // operation completion.
                        if self.policy == SdrPolicy::Naive {
                            if let Some(b) = produced_buffers(&lop.op).first() {
                                sdr_held_on_buffer[b.0] += 1;
                            } else {
                                releases_at_completion[i] = true;
                            }
                        } else {
                            releases_at_completion[i] = true;
                        }
                    }
                    Unit::Kernel => kernel_free_at = end,
                }
                started_something = true;
                break; // rescan from the top (unit states changed)
            }

            if started_something {
                continue;
            }

            // Advance time to the next completion.
            match running.iter().map(|&(_, end)| end).min() {
                Some(t) => {
                    if mem_blocked_on_sdr && mem_free_at <= now {
                        sdr_stall_cycles += t - now;
                    }
                    now = t;
                    // Complete everything ending at or before `now`, in
                    // ascending op index.
                    running.sort_unstable();
                    let mut still_running = Vec::with_capacity(running.len());
                    for &(i, end) in &running {
                        if end <= now {
                            if releases_at_completion[i] {
                                sdr.release();
                            }
                            complete_op!(i, end);
                        } else {
                            still_running.push((i, end));
                        }
                    }
                    running = still_running;
                    while first_open < n_ops && matches!(state[first_open], OpState::Done { .. }) {
                        first_open += 1;
                    }
                }
                None => {
                    return Err(SimError::Deadlock(format!(
                        "{} of {} ops done, nothing running",
                        done_count, n_ops
                    )));
                }
            }
        }

        Ok(RunReport {
            cycles: timeline.makespan(),
            timeline,
            counters,
            phases,
            sdr_peak: sdr.peak(),
            srf_peak_words_per_cluster: srf.peak_words_per_cluster(),
            sdr_stall_cycles,
            // The caller (`run_parallel`) overwrites these with the
            // partitioner's verdict and, for partitioned runs, the
            // merged per-strip shard stats.
            partition: PartitionSummary::default(),
            cache_stats: memsys.stats(),
        })
    }
}

/// The static half of the scoreboard, computed once per program.
pub(crate) struct Plan {
    /// Ops each op waits on (see [`op_dependences`]).
    pub(crate) deps: Vec<Vec<usize>>,
    /// Strip ids never decrease in op order, so the issue scan may stop
    /// at the first op past the lookahead window.
    pub(crate) strips_monotone: bool,
}

impl Plan {
    pub(crate) fn new(program: &StreamProgram) -> Result<Self, SimError> {
        Ok(Self {
            deps: op_dependences(program)?,
            strips_monotone: program.ops.windows(2).all(|w| w[0].strip <= w[1].strip),
        })
    }
}

/// Op-level dependences in one pass over the program: the producer of
/// every buffer an op consumes, plus region hazards tracked per region
/// as the last writer and the readers since that write. A read depends
/// on the last writer (RAW); a write on the last writer (WAW) and on
/// every read since it (WAR). Each access adds at most one RAW/WAW edge
/// and each read at most one WAR edge, so the edge count is linear in
/// ops.
///
/// These edges have the same transitive closure as the all-pairs hazard
/// relation (every earlier op with a RAW, WAR or WAW conflict). An op
/// issues only once its dependences are done, so a done dependence
/// implies its own dependences finished no later; both relations
/// therefore make the same ops ready at every scoreboard step.
pub(crate) fn op_dependences(program: &StreamProgram) -> Result<Vec<Vec<usize>>, SimError> {
    let mut producer: Vec<Option<usize>> = vec![None; program.buffers.len()];
    for (i, lop) in program.ops.iter().enumerate() {
        for b in produced_buffers(&lop.op) {
            if producer[b.0].replace(i).is_some() {
                return Err(SimError::Program(format!(
                    "buffer {} has two producers",
                    program.buffers[b.0].name
                )));
            }
        }
    }
    let n_regions = program
        .ops
        .iter()
        .filter_map(|lop| lop.op.region_use())
        .map(|(r, _)| r.0 + 1)
        .max()
        .unwrap_or(0);
    let mut last_writer: Vec<Option<usize>> = vec![None; n_regions];
    let mut readers: Vec<Vec<usize>> = vec![Vec::new(); n_regions];
    let mut deps: Vec<Vec<usize>> = Vec::with_capacity(program.ops.len());
    for (i, lop) in program.ops.iter().enumerate() {
        let mut d = Vec::new();
        for b in consumed_buffers(&lop.op) {
            match producer[b.0] {
                Some(p) => d.push(p),
                None => {
                    return Err(SimError::Program(format!(
                        "buffer {} consumed but never produced",
                        program.buffers[b.0].name
                    )))
                }
            }
        }
        if let Some((region, kind)) = lop.op.region_use() {
            let r = region.0;
            d.extend(last_writer[r]);
            if kind == AccessKind::Read {
                readers[r].push(i);
            } else {
                d.append(&mut readers[r]);
                last_writer[r] = Some(i);
            }
        }
        deps.push(d);
    }
    Ok(deps)
}

/// Buffers an op produces.
pub fn produced_buffers(op: &StreamOp) -> Vec<BufferId> {
    match op {
        StreamOp::Gather { dst, .. } | StreamOp::Load { dst, .. } => vec![*dst],
        StreamOp::Kernel { outputs, .. } => outputs.clone(),
        _ => vec![],
    }
}

/// Buffers an op consumes.
fn consumed_buffers(op: &StreamOp) -> Vec<BufferId> {
    match op {
        StreamOp::Kernel { inputs, .. } => inputs.clone(),
        StreamOp::ScatterAdd { src, .. } | StreamOp::Store { src, .. } => vec![*src],
        _ => vec![],
    }
}

/// Worst-case SRF words a produced buffer can hold.
pub fn buffer_capacity_words(program: &StreamProgram, op: &StreamOp, b: BufferId) -> usize {
    match op {
        StreamOp::Gather {
            indices,
            record_len,
            ..
        } => indices.len() * record_len,
        StreamOp::Load {
            records,
            record_len,
            ..
        } => records * record_len,
        StreamOp::Kernel {
            kernel,
            iterations,
            outputs,
            ..
        } => {
            let record_len = program.buffers[b.0].record_len;
            // Writes per unrolled iteration to this output stream.
            let out_idx = outputs
                .iter()
                .position(|o| *o == b)
                .expect("output belongs to kernel");
            let writes = kernel
                .ir
                .writes
                .iter()
                .filter(|w| w.stream as usize == out_idx)
                .count()
                .max(1);
            let unrolled = (*iterations as usize).div_ceil(kernel.opt.unroll as usize);
            unrolled * writes * record_len
        }
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernelc::{CompiledKernel, KernelOpt};
    use crate::program::{ProgramBuilder, RegionId};
    use merrimac_kernel::ir::StreamMode;
    use merrimac_kernel::KernelBuilder;
    use std::sync::Arc;

    /// y = x*x kernel.
    fn square_kernel(cfg: &MachineConfig, opt: KernelOpt) -> Arc<CompiledKernel> {
        let mut b = KernelBuilder::new("square");
        let s = b.input("x", 1, StreamMode::EveryIteration);
        let o = b.output("y", 1);
        let x = b.read(s, 0);
        let y = b.mul(x, x);
        b.write(o, &[y]);
        Arc::new(CompiledKernel::compile(
            b.build(),
            cfg,
            &OpCosts::default(),
            opt,
        ))
    }

    fn run_square(n: usize) -> (Vec<f64>, RunReport) {
        let cfg = MachineConfig::default();
        let mut mem = Memory::new();
        let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let src = mem.region("xs", xs);
        let out = mem.region("ys", vec![0.0; n]);
        let k = square_kernel(&cfg, KernelOpt::default());
        let mut pb = ProgramBuilder::new();
        let bx = pb.buffer("x", 1);
        let by = pb.buffer("y", 1);
        pb.load("load x", src, 1, 0, n, bx);
        pb.kernel(
            "square",
            k,
            vec![bx],
            vec![by],
            vec![],
            n as u64,
            (n as u64).div_ceil(16),
        );
        pb.store("store y", by, out, 1, 0);
        let program = pb.build();
        let proc = StreamProcessor::new(cfg);
        let report = proc.run_parallel(&mut mem, &program, 1).expect("runs");
        (mem.data(out).to_vec(), report)
    }

    #[test]
    fn functional_execution_is_exact() {
        let (ys, _) = run_square(100);
        for (i, y) in ys.iter().enumerate() {
            assert_eq!(*y, (i * i) as f64);
        }
    }

    #[test]
    fn counters_track_traffic() {
        let (_, r) = run_square(64);
        assert_eq!(r.counters.kernel_iterations, 64);
        // load 64 + store 64 words.
        assert_eq!(r.counters.mem_refs, 128);
        // SRF references count the kernel-side stream I/O (64 in + 64
        // out); the memory-transfer side is the MEM count.
        assert_eq!(r.counters.srf_refs, 128);
        assert!(r.counters.lrf_refs > 0);
        assert!(r.cycles > 0);
    }

    #[test]
    fn phase_cycles_partition_unit_busy_time() {
        let (_, r) = run_square(256);
        assert_eq!(
            r.phases.memory(),
            r.timeline.busy(crate::timeline::Unit::Memory),
            "memory phases must sum to the memory unit's busy time"
        );
        assert_eq!(
            r.phases.kernel,
            r.timeline.busy(crate::timeline::Unit::Kernel)
        );
        assert!(r.phases.load > 0 && r.phases.store > 0 && r.phases.kernel > 0);
        assert_eq!(r.phases.gather, 0);
        assert_eq!(r.phases.scatter_add, 0);
    }

    #[test]
    fn oversized_kernel_working_set_is_rejected_up_front() {
        // One kernel whose input + output streams exceed the whole SRF:
        // previously this wedged the scoreboard; now the preflight names
        // the strip size.
        let cfg = MachineConfig::default();
        let capacity = cfg.srf_words_per_cluster * cfg.clusters;
        let n = capacity / 2 + cfg.clusters; // in + out > capacity
        let mut mem = Memory::new();
        let src = mem.region("xs", vec![1.0; n]);
        let out = mem.region("ys", vec![0.0; n]);
        let k = square_kernel(&cfg, KernelOpt::default());
        let mut pb = ProgramBuilder::new();
        let bx = pb.buffer("x", 1);
        let by = pb.buffer("y", 1);
        pb.load("load x", src, 1, 0, n, bx);
        pb.kernel(
            "square huge",
            k,
            vec![bx],
            vec![by],
            vec![],
            n as u64,
            (n as u64).div_ceil(16),
        );
        pb.store("store y", by, out, 1, 0);
        let program = pb.build();
        let err = StreamProcessor::new(cfg)
            .run_parallel(&mut mem, &program, 1)
            .expect_err("must be rejected");
        match &err {
            SimError::StripSrfOverflow {
                strip_iterations,
                needed_words_per_cluster,
                capacity_words_per_cluster,
                ..
            } => {
                assert_eq!(*strip_iterations, n as u64);
                assert!(needed_words_per_cluster > capacity_words_per_cluster);
            }
            other => panic!("expected StripSrfOverflow, got {other:?}"),
        }
        // The diagnostic must name the strip size.
        assert!(err.to_string().contains(&n.to_string()), "{err}");
    }

    #[test]
    fn scatter_add_accumulates() {
        let cfg = MachineConfig::default();
        let mut mem = Memory::new();
        let vals = mem.region("vals", vec![1.0, 2.0, 3.0, 4.0]);
        let acc = mem.region("acc", vec![0.0; 2]);
        let mut pb = ProgramBuilder::new();
        let bv = pb.buffer("v", 1);
        pb.load("load", vals, 1, 0, 4, bv);
        pb.scatter_add("scatter", bv, acc, 1, Arc::new(vec![0, 1, 0, 1]));
        let program = pb.build();
        StreamProcessor::new(cfg)
            .run_parallel(&mut mem, &program, 1)
            .unwrap();
        assert_eq!(mem.data(acc), &[4.0, 6.0]);
    }

    #[test]
    fn strip_pipelining_overlaps_memory_and_compute() {
        // Two strips: gather(1) should overlap kernel(0).
        let cfg = MachineConfig::default();
        let k = square_kernel(&cfg, KernelOpt::default());
        let n = 4096usize;
        let mut mem = Memory::new();
        let xs = mem.region("xs", (0..2 * n).map(|i| i as f64).collect());
        let out = mem.region("out", vec![0.0; 2 * n]);
        let mut pb = ProgramBuilder::new();
        for strip in 0..2 {
            pb.strip(strip);
            let bx = pb.buffer(&format!("x{strip}"), 1);
            let by = pb.buffer(&format!("y{strip}"), 1);
            let idx: Vec<u32> = (0..n as u32)
                .map(|i| i + (strip as u32) * n as u32)
                .collect();
            pb.gather(format!("gather {strip}"), xs, 1, Arc::new(idx), bx);
            pb.kernel(
                format!("kernel {strip}"),
                k.clone(),
                vec![bx],
                vec![by],
                vec![],
                n as u64,
                (n as u64).div_ceil(16),
            );
            pb.store(format!("store {strip}"), by, out, 1, strip * n);
        }
        let program = pb.build();
        let r = StreamProcessor::new(cfg)
            .run_parallel(&mut mem, &program, 1)
            .unwrap();
        assert!(
            r.timeline.overlap() > 0,
            "expected memory/compute overlap, got none:\n{}",
            r.timeline.render(24)
        );
        // Functional correctness across strips.
        assert_eq!(mem.data(out)[2 * n - 1], ((2 * n - 1) * (2 * n - 1)) as f64);
    }

    #[test]
    fn naive_sdr_policy_hurts_overlap_when_registers_scarce() {
        let cfg = MachineConfig {
            stream_descriptor_registers: 2,
            ..MachineConfig::default()
        };
        let k = square_kernel(&cfg, KernelOpt::default());
        let n = 4096usize;
        let strips = 6;
        let build = || {
            let mut mem = Memory::new();
            let xs = mem.region("xs", (0..strips * n).map(|i| i as f64).collect());
            let out = mem.region("out", vec![0.0; strips * n]);
            let mut pb = ProgramBuilder::new();
            for strip in 0..strips {
                pb.strip(strip);
                let bx = pb.buffer(&format!("x{strip}"), 1);
                let by = pb.buffer(&format!("y{strip}"), 1);
                let idx: Vec<u32> = (0..n as u32)
                    .map(|i| i + (strip as u32) * n as u32)
                    .collect();
                pb.gather(format!("gather {strip}"), xs, 1, Arc::new(idx), bx);
                pb.kernel(
                    format!("kernel {strip}"),
                    k.clone(),
                    vec![bx],
                    vec![by],
                    vec![],
                    n as u64,
                    (n as u64).div_ceil(16),
                );
                pb.store(format!("store {strip}"), by, out, 1, strip * n);
            }
            (mem, pb.build())
        };
        let (mut m1, p1) = build();
        let naive = StreamProcessor::new(cfg.clone())
            .with_policy(SdrPolicy::Naive)
            .run_parallel(&mut m1, &p1, 1)
            .unwrap();
        let (mut m2, p2) = build();
        let eager = StreamProcessor::new(cfg)
            .with_policy(SdrPolicy::Eager)
            .run_parallel(&mut m2, &p2, 1)
            .unwrap();
        assert!(
            eager.cycles <= naive.cycles,
            "eager {} should not exceed naive {}",
            eager.cycles,
            naive.cycles
        );
        // Both policies must compute identical results.
        assert_eq!(m1.data(RegionId(1)), m2.data(RegionId(1)));
    }

    /// The all-pairs hazard relation [`op_dependences`] reduces: buffer
    /// producers plus every earlier op with a RAW, WAR or WAW conflict.
    fn all_pairs_dependences(program: &StreamProgram) -> Vec<Vec<usize>> {
        let mut producer = vec![usize::MAX; program.buffers.len()];
        for (i, lop) in program.ops.iter().enumerate() {
            for b in produced_buffers(&lop.op) {
                producer[b.0] = i;
            }
        }
        let access = |op: &StreamOp| match op.region_use() {
            Some((r, AccessKind::Read)) => (Some(r.0), None),
            Some((r, _)) => (None, Some(r.0)),
            None => (None, None),
        };
        let mut deps = vec![Vec::new(); program.ops.len()];
        for (i, lop) in program.ops.iter().enumerate() {
            for b in consumed_buffers(&lop.op) {
                deps[i].push(producer[b.0]);
            }
            let (read, write) = access(&lop.op);
            for (j, other) in program.ops.iter().enumerate().take(i) {
                let (oread, owrite) = access(&other.op);
                let raw = read.is_some() && read == owrite;
                let war = write.is_some() && write == oread;
                let waw = write.is_some() && write == owrite;
                if raw || war || waw {
                    deps[i].push(j);
                }
            }
        }
        deps
    }

    /// Transitive closure of a dependence relation whose edges all point
    /// to earlier ops: `closure[i][j]` iff op `i` transitively waits on `j`.
    fn closure(deps: &[Vec<usize>]) -> Vec<Vec<bool>> {
        let mut reach: Vec<Vec<bool>> = Vec::with_capacity(deps.len());
        for (i, ds) in deps.iter().enumerate() {
            let mut row = vec![false; deps.len()];
            for &d in ds {
                assert!(d < i, "dependence {i} -> {d} points forward");
                row[d] = true;
                for (j, r) in reach[d].iter().enumerate() {
                    row[j] |= r;
                }
            }
            reach.push(row);
        }
        reach
    }

    /// A random program over three one-word-record regions: groups of
    /// read (load/gather) → optional square kernel → sink (scatter-add/
    /// store). Group `g` runs in strip `g + jitter`, so strip ids are
    /// usually non-monotone; SDR count, policy and lookahead vary too.
    fn random_program(seed: u64) -> (StreamProcessor, Memory, StreamProgram) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let cfg = MachineConfig {
            stream_descriptor_registers: rng.gen_range(1..5),
            ..MachineConfig::default()
        };
        let policy = if rng.gen_range(0..2) == 0 {
            SdrPolicy::Eager
        } else {
            SdrPolicy::Naive
        };
        let k = square_kernel(&cfg, KernelOpt::default());
        let words = 48usize;
        let mut mem = Memory::new();
        let regions: Vec<_> = (0..3)
            .map(|r| {
                mem.region(
                    &format!("r{r}"),
                    (0..words).map(|i| (i + r) as f64).collect(),
                )
            })
            .collect();
        let mut pb = ProgramBuilder::new();
        for g in 0..rng.gen_range(1..14) {
            pb.strip(g + rng.gen_range(0..3));
            let n = rng.gen_range(1..12usize);
            let src = regions[rng.gen_range(0..3)];
            let bx = pb.buffer(&format!("x{g}"), 1);
            if rng.gen_range(0..2) == 0 {
                pb.load(
                    format!("load {g}"),
                    src,
                    1,
                    rng.gen_range(0..words - n + 1),
                    n,
                    bx,
                );
            } else {
                let idx: Vec<u32> = (0..n).map(|_| rng.gen_range(0..words as u32)).collect();
                pb.gather(format!("gather {g}"), src, 1, Arc::new(idx), bx);
            }
            let out = if rng.gen_range(0..3) == 0 {
                bx
            } else {
                let by = pb.buffer(&format!("y{g}"), 1);
                pb.kernel(
                    format!("kernel {g}"),
                    k.clone(),
                    vec![bx],
                    vec![by],
                    vec![],
                    n as u64,
                    (n as u64).div_ceil(16),
                );
                by
            };
            let dst = regions[rng.gen_range(0..3)];
            if rng.gen_range(0..2) == 0 {
                let idx: Vec<u32> = (0..n).map(|_| rng.gen_range(0..words as u32)).collect();
                pb.scatter_add(format!("scatter {g}"), out, dst, 1, Arc::new(idx));
            } else {
                pb.store(
                    format!("store {g}"),
                    out,
                    dst,
                    1,
                    rng.gen_range(0..words - n + 1),
                );
            }
        }
        let mut proc = StreamProcessor::new(cfg).with_policy(policy);
        proc.strip_lookahead = rng.gen_range(1..4);
        (proc, mem, pb.build())
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(300))]

        /// The linear dependences have the all-pairs relation's closure,
        /// and replaying a program with them (and the window-bounded
        /// issue scan) matches replaying it with the all-pairs relation
        /// and a full scan: same timeline, counters, peaks, stalls,
        /// region data, or the same error.
        #[test]
        fn prop_linear_dependences_match_all_pairs_oracle(seed in 0u64..u64::MAX) {
            let (proc, mem, program) = random_program(seed);
            let linear = Plan::new(&program).expect("well-formed");
            let oracle = all_pairs_dependences(&program);
            proptest::prop_assert!(closure(&linear.deps) == closure(&oracle));
            let run = |plan: &Plan| {
                let mut m = mem.clone();
                let r = proc.schedule_with(&mut m, &program, ExecMode::Inline, plan);
                let data: Vec<Vec<u64>> = (0..m.num_regions())
                    .map(|r| m.data(RegionId(r)).iter().map(|v| v.to_bits()).collect())
                    .collect();
                (r, data)
            };
            let (fast, fast_data) = run(&linear);
            let (slow, slow_data) = run(&Plan {
                deps: oracle,
                strips_monotone: false,
            });
            match (fast, slow) {
                (Ok(a), Ok(b)) => {
                    proptest::prop_assert_eq!(&a.timeline, &b.timeline);
                    proptest::prop_assert_eq!(a.counters, b.counters);
                    proptest::prop_assert_eq!(a.phases, b.phases);
                    proptest::prop_assert_eq!(
                        (a.sdr_peak, a.srf_peak_words_per_cluster, a.sdr_stall_cycles),
                        (b.sdr_peak, b.srf_peak_words_per_cluster, b.sdr_stall_cycles)
                    );
                    proptest::prop_assert_eq!(a.cache_stats, b.cache_stats);
                    proptest::prop_assert!(fast_data == slow_data);
                }
                (Err(a), Err(b)) => proptest::prop_assert_eq!(a.to_string(), b.to_string()),
                (a, b) => proptest::prop_assert!(false, "outcomes differ: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn dependence_edges_stay_linear_in_ops() {
        // 2000 strips, each gathering a shared table, squaring, scatter-
        // adding into one accumulator and storing its own output slice.
        // All-pairs hazards would give every scatter-add and store an
        // edge to each earlier one (~4M edges); the linear build keeps
        // one WAW edge per write.
        let cfg = MachineConfig::default();
        let k = square_kernel(&cfg, KernelOpt::default());
        let (strips, n) = (2000usize, 4usize);
        let mut mem = Memory::new();
        let xs = mem.region("xs", vec![1.0; n]);
        let acc = mem.region("acc", vec![0.0; n]);
        let out = mem.region("out", vec![0.0; strips * n]);
        let mut pb = ProgramBuilder::new();
        for strip in 0..strips {
            pb.strip(strip);
            let bx = pb.buffer(&format!("x{strip}"), 1);
            let by = pb.buffer(&format!("y{strip}"), 1);
            pb.gather(
                format!("gather {strip}"),
                xs,
                1,
                Arc::new(vec![0, 1, 2, 3]),
                bx,
            );
            pb.kernel(
                format!("kernel {strip}"),
                k.clone(),
                vec![bx],
                vec![by],
                vec![],
                4,
                1,
            );
            pb.scatter_add(
                format!("scatter {strip}"),
                by,
                acc,
                1,
                Arc::new(vec![0, 1, 2, 3]),
            );
            pb.store(format!("store {strip}"), by, out, 1, strip * n);
        }
        let program = pb.build();
        let plan = Plan::new(&program).expect("well-formed");
        assert!(plan.strips_monotone);
        let edges: usize = plan.deps.iter().map(Vec::len).sum();
        let ops = program.ops.len();
        assert!(edges <= 2 * ops, "{edges} dependence edges for {ops} ops");
    }
}
