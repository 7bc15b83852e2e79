//! Host benchmark of the StreamMD reproduction.
//!
//! Four workloads drive the program only through its public entry
//! points and time it from outside:
//!
//! | workload          | timed operation                                   | threads × callers | loop |
//! |-------------------|---------------------------------------------------|-------------------|------|
//! | `paper-step`      | force step of all four variants, fresh app each   | 1 × 1             | closed |
//! | `water-8192-step` | `variable` + `expanded` step, fresh app each      | 2 × 1             | closed |
//! | `traj-900`        | `fixed` then `variable` `MerrimacDriver` trajectory | 2 × 1           | closed |
//! | `campaign-mix`    | one job of a `CampaignService` batch              | 1 × 2 workers     | batch at t = 0, batches back to back |
//!
//! Untraced operations call the program as a user would
//! (`StreamMdApp::run_step`, `MerrimacDriver::run`, `CampaignService`)
//! and give the end-to-end metrics. A traced run alternates untraced and
//! traced operations: the traced ones call the pieces of a step one by
//! one (neighbour list, program build, admission analysis, execution)
//! with a span around each, plus extra calls that isolate layout, kernel
//! compile, validate, partition and the engine; the spans give the
//! per-layer metrics. `campaign-mix` decomposes the steps of its LJ
//! fluid only, so each per-layer figure describes one dataset. The
//! tracing overhead is reported twice: the spans' own cost per traced
//! operation, and the traced minus the untraced median call, which also
//! holds the extra isolating calls.
//!
//! Every operation's output is checked outside the timed region: the
//! first operation of each (workload, variant) against the reference
//! force engine, every later one bitwise against the first.
//!
//! Which end-to-end metric a faster layer should move, and where it
//! should not:
//!
//! | layer metric | should move | should not move |
//! |---|---|---|
//! | `sim.kernelc.s` | `op_s.p50` on `paper-step`; `steps_per_s` on `traj-900` | `water-8192-step` |
//! | `sim.engine.s`, `sim.engine.speedup_2t` | `op_s.p50`, `interactions_per_s` on `water-8192-step`; `paper-step` by its engine share | |
//! | `analysis.s` | `water-8192-step`; `op_s.p50` of `campaign-mix` misses | |
//! | `md.neighbor.s` | `water-8192-step`; rebuild steps of `traj-900` | |
//! | `core.layout.s`, `core.app.build.s` | `steps_per_s` on `traj-900`; `campaign-mix` misses | |
//! | `core.driver.integrate.s` | `traj-900` | every other workload |
//! | `campaign.hit_ratio`, `campaign.build.s` | `steps_per_s` (jobs/s) on `campaign-mix` | every other workload |
//! | overlay and merge memory | `peak_rss_mb` on `water-8192-step` | |
//!
//! `sim_cycles` and every `sim.*` count are simulated, so no host change
//! may move them.

pub mod trace;

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use md_sim::atomic::compute_forces_atomic;
use md_sim::force::compute_forces;
use md_sim::neighbor::{NeighborList, NeighborListParams};
use md_sim::system::WaterBox;
use md_sim::vec3::Vec3;
use md_sim::water::WaterModel;
use merrimac_analysis::Severity;
use merrimac_bench::{Dataset, DatasetId};
use merrimac_campaign::{CacheStatus, CampaignService, Job, JobSpec};
use merrimac_sim::{partition_program, CompiledKernel, Counters, StreamProcessor};
use streammd::kernels::workload_kernel;
use streammd::layout::build_layout;
use streammd::{MerrimacDriver, StepOutcome, StreamMdApp, Variant, Workload as Model};

use trace::Trace;

/// The paper dataset's seed, used when no `--seed` is given.
pub const DEFAULT_SEED: u64 = merrimac_bench::SEED;

/// Variants of the campaign jobs.
const PAIR_VARIANTS: [Variant; 2] = [Variant::Variable, Variant::Fixed];

/// Variants of a `water-8192-step` operation.
const WATER_STEP_VARIANTS: [Variant; 2] = [Variant::Variable, Variant::Expanded];

/// Variants of a `traj-900` operation, in order.
const TRAJ_VARIANTS: [Variant; 2] = [Variant::Fixed, Variant::Variable];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperStep,
    WaterStep,
    Traj,
    Campaign,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperStep,
        Workload::WaterStep,
        Workload::Traj,
        Workload::Campaign,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperStep => "paper-step",
            Workload::WaterStep => "water-8192-step",
            Workload::Traj => "traj-900",
            Workload::Campaign => "campaign-mix",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Engine threads per caller and concurrent callers (campaign
    /// workers); their product is the host cores the workload needs.
    pub fn threads_workers(self) -> (usize, usize) {
        match self {
            Workload::PaperStep => (1, 1),
            Workload::WaterStep | Workload::Traj => (2, 1),
            Workload::Campaign => (1, 2),
        }
    }

    /// How operations are issued.
    pub fn loop_kind(self) -> &'static str {
        match self {
            Workload::Campaign => "one batch submitted at t = 0, batches back to back",
            _ => "closed loop, one caller",
        }
    }
}

/// Input sizes. [`Scale::FULL`] is the benchmark; [`Scale::TINY`] is
/// the smoke test's.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Molecules of the paper box (`paper-step`, `traj-900`, `campaign-mix`).
    pub paper_molecules: usize,
    /// Molecules of `water-8192-step`.
    pub water_molecules: usize,
    /// MD steps per trajectory.
    pub traj_steps: usize,
    /// Particles of the campaign's LJ fluid.
    pub lj_particles: usize,
    /// Copies of each (dataset, variant) job in a campaign batch.
    pub campaign_copies: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        paper_molecules: 900,
        water_molecules: 8192,
        traj_steps: 5,
        lj_particles: 4096,
        campaign_copies: 3,
        setups: 3,
    };

    pub const TINY: Scale = Scale {
        paper_molecules: 64,
        water_molecules: 64,
        traj_steps: 2,
        lj_particles: 64,
        campaign_copies: 1,
        setups: 1,
    };
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// What a run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed operation.
    pub failures: Vec<String>,
    pub end_to_end: Vec<Metric>,
    /// Filled by traced runs only.
    pub per_layer: Vec<Metric>,
    /// Human-readable lines: sample counts, aliases, overhead.
    pub notes: Vec<String>,
    pub trace: Option<Trace>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// What a (workload, variant) produced; every repetition must
/// reproduce the first one bitwise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fingerprint {
    pub cycles: u64,
    pub counters: Counters,
    pub sdr_stall_cycles: u64,
    /// FNV-1a over the bits of the forces (or trajectory energies).
    pub bits: u64,
}

impl Fingerprint {
    fn of_step(out: &StepOutcome) -> Self {
        Self {
            cycles: out.perf.cycles,
            counters: out.report.counters,
            sdr_stall_cycles: out.report.sdr_stall_cycles,
            bits: fnv(out.forces.iter().flat_map(|f| [f.x, f.y, f.z])),
        }
    }
}

fn fnv(values: impl Iterator<Item = f64>) -> u64 {
    values.fold(0xcbf2_9ce4_8422_2325, |h, v| {
        (h ^ v.to_bits()).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The output check: the first fingerprint of each key becomes the
/// expectation unless one was set beforehand with [`Checker::expect`].
#[derive(Debug, Default)]
pub struct Checker {
    expected: BTreeMap<String, Fingerprint>,
}

impl Checker {
    /// Fix the expected fingerprint of `key` up front.
    pub fn expect(&mut self, key: impl Into<String>, fp: Fingerprint) {
        self.expected.insert(key.into(), fp);
    }

    /// The expectation recorded for `key`, if any.
    pub fn expected(&self, key: &str) -> Option<&Fingerprint> {
        self.expected.get(key)
    }

    /// Compare `fp` with the expectation for `key`, or make it the
    /// expectation if there is none yet.
    pub fn check(&mut self, key: &str, fp: Fingerprint) -> Result<(), String> {
        match self.expected.get(key) {
            None => {
                self.expected.insert(key.to_string(), fp);
                Ok(())
            }
            Some(want) if *want == fp => Ok(()),
            Some(want) => Err(format!(
                "{key}: repetition differs from the first (cycles {} vs {}, forces/energies hash {:#x} vs {:#x}, counters equal: {})",
                fp.cycles,
                want.cycles,
                fp.bits,
                want.bits,
                fp.counters == want.counters
            )),
        }
    }
}

/// Forces must match the reference engine within 1e-8·max|F|.
fn check_reference(
    label: &str,
    system: &WaterBox,
    list: &NeighborList,
    got: &[Vec3],
) -> Result<(), String> {
    let want = match Model::of_model(system.model()) {
        Model::Water => compute_forces(system, list).forces,
        _ => compute_forces_atomic(system, list).forces,
    };
    if got.len() != want.len() {
        return Err(format!(
            "{label}: {} forces, reference has {}",
            got.len(),
            want.len()
        ));
    }
    let scale = want.iter().map(|f| f.norm()).fold(0.0f64, f64::max);
    let worst = got
        .iter()
        .zip(&want)
        .map(|(g, w)| (*g - *w).max_abs())
        .fold(0.0f64, f64::max);
    if worst <= 1e-8 * scale {
        Ok(())
    } else {
        Err(format!(
            "{label}: force error {worst:.3e} exceeds 1e-8 x max|F| = {:.3e}",
            1e-8 * scale
        ))
    }
}

/// Neighbour parameters with the cutoff capped so the list radius stays
/// inside half the box (only the tiny smoke-test boxes need the cap).
fn params(system: &WaterBox, cutoff: f64, skin: f64) -> NeighborListParams {
    NeighborListParams {
        cutoff: cutoff.min(0.45 * system.pbc().side() - skin),
        skin,
        rebuild_interval: 10,
    }
}

fn water(molecules: usize, seed: u64) -> WaterBox {
    WaterBox::builder().molecules(molecules).seed(seed).build()
}

fn dataset(id: DatasetId, system: WaterBox, cutoff: f64, skin: f64) -> Arc<Dataset> {
    let list = NeighborList::build(&system, params(&system, cutoff, skin));
    Arc::new(Dataset { id, system, list })
}

/// The inputs of one run: one dataset, or two for `campaign-mix`
/// (water and LJ fluid).
fn generate(w: Workload, scale: &Scale, seed: u64) -> Vec<Arc<Dataset>> {
    let paper = scale.paper_molecules;
    match w {
        Workload::PaperStep => vec![dataset(
            DatasetId::Small(paper),
            water(paper, seed),
            1.0,
            0.0,
        )],
        Workload::WaterStep => {
            let n = scale.water_molecules;
            vec![dataset(DatasetId::Small(n), water(n, seed), 1.0, 0.0)]
        }
        Workload::Traj => vec![dataset(
            DatasetId::Small(paper),
            water(paper, seed),
            0.9,
            0.1,
        )],
        Workload::Campaign => {
            let n = scale.lj_particles;
            let lj = WaterBox::builder()
                .molecules(n)
                .model(WaterModel::lj_atom())
                .density(21.0)
                .seed(seed)
                .build();
            vec![
                dataset(DatasetId::Small(paper), water(paper, seed), 1.0, 0.0),
                dataset(DatasetId::Lj(n), lj, 1.0, 0.0),
            ]
        }
    }
}

/// Span/count recorder that does nothing on untraced operations.
struct Spans<'a>(Option<&'a mut Trace>);

impl Spans<'_> {
    fn begin(&mut self, layer: &str, v: Option<Variant>) {
        if let Some(t) = self.trace() {
            t.begin(named(layer, v));
        }
    }

    fn end(&mut self) {
        if let Some(t) = self.trace() {
            t.end();
        }
    }

    fn count(&mut self, name: &str, v: Option<Variant>, value: f64) {
        if let Some(t) = self.trace() {
            t.count(named(name, v), value);
        }
    }

    fn trace(&mut self) -> Option<&mut Trace> {
        self.0.as_deref_mut()
    }
}

fn named(layer: &str, v: Option<Variant>) -> String {
    match v {
        Some(v) => format!("{layer}.{}", v.name()),
        None => layer.to_string(),
    }
}

/// A StreamMD app with the admission gate on.
fn app(threads: usize, p: NeighborListParams) -> StreamMdApp {
    StreamMdApp::builder()
        .threads(threads)
        .neighbor(p)
        .analyze()
        .build()
        .expect("the benchmark's app settings are valid")
}

/// One force step as the program composes it: `StreamMdApp::run_step`
/// (neighbour list built inside) or `run_step_with_list`.
fn force_step(
    app: &StreamMdApp,
    system: &WaterBox,
    list: Option<&NeighborList>,
    v: Variant,
) -> Result<StepOutcome, String> {
    match list {
        Some(l) => app.run_step_with_list(system, l, v),
        None => app.run_step(system, v),
    }
    .map_err(|e| format!("{v}: {e}"))
}

/// A traced force step: the pieces of `StreamMdApp::run_step` called one
/// by one (neighbour list unless given, program build, static analysis
/// as the admission gate does it, execution), each in its own span. It
/// also calls layout, kernel compile, validate, partition and the engine
/// on their own, so their times can be taken out of the calls that
/// contain them; `engine_1t` adds a 1-thread engine call for the
/// speed-up.
fn traced_step(
    app: &StreamMdApp,
    system: &WaterBox,
    list: Option<&NeighborList>,
    v: Variant,
    engine_1t: bool,
    t: &mut Trace,
) -> Result<StepOutcome, String> {
    let built;
    let list = match list {
        Some(l) => l,
        None => {
            t.begin("md.neighbor");
            built = NeighborList::build(system, app.neighbor);
            t.count("md.neighbor.pairs", built.num_pairs() as f64);
            t.end();
            &built
        }
    };
    let name = |layer: &str| named(layer, Some(v));
    t.begin(name("core.app.build"));
    let step = app.build_step_program(system, list, v);
    t.count(name("core.app.build.ops"), step.program.ops.len() as f64);
    t.end();
    // The largest strip stands in for the strip size the app chose
    // (exact for full strips; `variable` fills strips greedily, so its
    // extra layout is nearly, not exactly, the build's).
    let strip = step
        .layout
        .strips
        .iter()
        .map(|s| s.iterations)
        .max()
        .unwrap_or(1);
    t.begin(name("core.layout"));
    std::hint::black_box(build_layout(system, list, v, app.block_l, strip as usize));
    t.count(name("core.layout.strips"), step.layout.strips.len() as f64);
    t.count(
        name("core.layout.iterations"),
        step.layout.total_iterations() as f64,
    );
    t.end();
    t.begin(name("sim.kernelc"));
    let kernel = workload_kernel(Model::of_model(system.model()), v, app.block_l);
    std::hint::black_box(CompiledKernel::compile(
        kernel,
        &app.cfg,
        &app.costs,
        app.kernel_opt,
    ));
    t.end();
    t.begin(name("analysis"));
    let diags = app.analyze_built(&step);
    let of = |s: Severity| diags.iter().filter(|d| d.severity == s).count();
    let (errors, warnings) = (of(Severity::Error), of(Severity::Warn));
    t.count(name("analysis.errors"), errors as f64);
    t.count(name("analysis.warnings"), warnings as f64);
    t.end();
    if errors > 0 {
        return Err(format!(
            "{v}: static analysis rejected the program ({errors} errors)"
        ));
    }
    let proc = StreamProcessor::new(app.cfg.clone())
        .with_costs(app.costs.clone())
        .with_policy(app.policy)
        .with_engine(app.engine)
        .with_batch_width(app.tape_batch);
    t.begin(name("sim.validate"));
    let valid = proc.validate_program(&step.program);
    t.end();
    valid.map_err(|e| format!("{v}: {e}"))?;
    t.begin(name("sim.partition"));
    let parallel = partition_program(&step.program).is_parallel();
    t.count(name("sim.partition.parallel"), f64::from(u8::from(parallel)));
    t.end();
    let mut runs = vec![("sim.run_parallel", app.threads)];
    if engine_1t {
        runs.push(("sim.run_parallel_1t", 1));
    }
    for (layer, threads) in runs {
        let mut mem = step.memory.clone();
        t.begin(name(layer));
        let report = proc.run_parallel(&mut mem, &step.program, threads);
        t.end();
        report.map_err(|e| format!("{v}: {e}"))?;
    }
    t.begin(name("core.app.run"));
    let out = app
        .run_step_program(system, &step)
        .map_err(|e| format!("{v}: {e}"));
    t.end();
    let out = out?;
    let c = &out.report.counters;
    t.count(name("sim.cycles"), out.perf.cycles as f64);
    t.count(name("sim.mem_refs"), c.mem_refs as f64);
    t.count(name("sim.hardware_flops"), c.hardware_flops as f64);
    let useful = out.perf.solution_flops as f64 / c.hardware_flops as f64;
    t.count(name("sim.useful_flop_ratio"), useful);
    t.count(
        name("sim.sdr_stall_cycles"),
        out.report.sdr_stall_cycles as f64,
    );
    Ok(out)
}

/// What one timed operation produced.
#[derive(Debug, Default)]
struct OpStats {
    /// Latency samples: the operation itself, or each job of a batch.
    latencies: Vec<f64>,
    /// Host seconds the operation took.
    seconds: f64,
    /// Force steps: variant steps, MD steps, or jobs.
    steps: u64,
    /// Real pair interactions evaluated.
    interactions: u64,
    /// Simulated cycles of the operation (mean per job for a batch).
    cycles: f64,
    /// Campaign jobs.
    jobs: Vec<JobTimes>,
}

/// One campaign job's cache status and timings.
#[derive(Debug, Clone, Copy)]
struct JobTimes {
    /// The job's (dataset, variant) key, numbered the same in every batch.
    key: usize,
    cache: Option<CacheStatus>,
    /// Seconds in the worker.
    wall: f64,
    /// Seconds from submission to result.
    latency: f64,
    /// A hit that started after its key's miss had returned, so its
    /// worker time is the run alone, not a wait for the build.
    clean_hit: bool,
}

/// A step's outcome waiting for its check, which runs after the clock
/// stops.
struct Pending {
    key: String,
    dataset: usize,
    /// Forces to compare with the reference engine, if the operation
    /// exposes them.
    forces: Option<Vec<Vec3>>,
    fp: Fingerprint,
}

/// Runs one workload's operations and checks their outputs.
struct Runner<'a> {
    w: Workload,
    scale: Scale,
    datasets: Vec<Arc<Dataset>>,
    checker: &'a mut Checker,
    /// Keys already compared with the reference engine.
    referenced: BTreeSet<String>,
}

impl Runner<'_> {
    /// One timed operation and its output check.
    fn op(&mut self, sp: &mut Spans) -> Result<OpStats, String> {
        let (st, pending) = match self.w {
            Workload::PaperStep | Workload::WaterStep => self.step_op(sp)?,
            Workload::Traj => self.traj_op(sp)?,
            Workload::Campaign => self.campaign_op(sp)?,
        };
        for p in pending {
            let ds = &self.datasets[p.dataset];
            if self.referenced.insert(p.key.clone()) {
                let forces = match p.forces {
                    Some(f) => f,
                    // The driver does not expose its forces: check a
                    // step of its app on the starting state instead.
                    None => force_step(
                        &app(self.w.threads_workers().0, ds.list.params),
                        &ds.system,
                        Some(&ds.list),
                        variant_of(&p.key),
                    )?
                    .forces,
                };
                check_reference(&p.key, &ds.system, &ds.list, &forces)?;
            }
            self.checker.check(&p.key, p.fp)?;
        }
        Ok(st)
    }

    fn step_op(&mut self, sp: &mut Spans) -> Result<(OpStats, Vec<Pending>), String> {
        let variants: &[Variant] = match self.w {
            Workload::PaperStep => &Variant::ALL,
            _ => &WATER_STEP_VARIANTS,
        };
        let (threads, _) = self.w.threads_workers();
        let ds = &self.datasets[0];
        let mut outs = Vec::new();
        let t0 = Instant::now();
        sp.begin("op", None);
        for &v in variants {
            sp.begin("core.step", Some(v));
            let app = app(threads, ds.list.params);
            let out = match sp.trace() {
                Some(t) => traced_step(&app, &ds.system, None, v, threads > 1, t),
                None => force_step(&app, &ds.system, None, v),
            };
            sp.end();
            outs.push((v, out));
        }
        sp.end();
        let seconds = t0.elapsed().as_secs_f64();
        let mut st = OpStats {
            latencies: vec![seconds],
            seconds,
            ..OpStats::default()
        };
        let mut pending = Vec::new();
        for (v, out) in outs {
            let out = out?;
            st.steps += 1;
            st.interactions += out.dataset.interactions as u64;
            st.cycles += out.perf.cycles as f64;
            pending.push(Pending {
                key: v.name().to_string(),
                dataset: 0,
                fp: Fingerprint::of_step(&out),
                forces: Some(out.forces),
            });
        }
        Ok((st, pending))
    }

    fn traj_op(&mut self, sp: &mut Spans) -> Result<(OpStats, Vec<Pending>), String> {
        let ds = &self.datasets[0];
        let app = app(self.w.threads_workers().0, ds.list.params);
        let mut reports = Vec::new();
        let t0 = Instant::now();
        sp.begin("op", None);
        for v in TRAJ_VARIANTS {
            let mut state = ds.system.clone();
            sp.begin("core.driver.run", Some(v));
            let report = MerrimacDriver::new(app.clone(), v).run(&mut state, self.scale.traj_steps);
            if let Ok(r) = &report {
                sp.count("core.driver.rebuilds", Some(v), r.rebuilds as f64);
            }
            sp.end();
            reports.push((v, report));
        }
        let seconds = t0.elapsed().as_secs_f64();
        if let Some(t) = sp.trace() {
            // The trajectory is one opaque call: decompose its force
            // evaluation on the starting state.
            for v in TRAJ_VARIANTS {
                t.begin(named("core.step", Some(v)));
                let out = traced_step(&app, &ds.system, None, v, false, t);
                t.end();
                out?;
            }
        }
        sp.end();
        let pairs = ds.list.num_pairs() as u64;
        let mut st = OpStats {
            latencies: vec![seconds],
            seconds,
            ..OpStats::default()
        };
        let mut pending = Vec::new();
        for (v, report) in reports {
            let report = report.map_err(|e| format!("{v}: {e}"))?;
            let evaluations = report.steps.len() as u64 + 1;
            st.steps += report.steps.len() as u64;
            st.interactions += pairs * evaluations;
            st.cycles += report.total_force_cycles as f64;
            let per_step = report.steps.iter().flat_map(|s| {
                [
                    s.force_cycles as f64,
                    f64::from(u8::from(s.rebuilt_list)),
                    s.kinetic,
                    s.temperature,
                ]
            });
            pending.push(Pending {
                key: v.name().to_string(),
                dataset: 0,
                forces: None,
                fp: Fingerprint {
                    cycles: report.total_force_cycles,
                    counters: report.total_counters,
                    sdr_stall_cycles: 0,
                    bits: fnv(per_step),
                },
            });
        }
        Ok((st, pending))
    }

    fn campaign_op(&mut self, sp: &mut Spans) -> Result<(OpStats, Vec<Pending>), String> {
        let (_, workers) = self.w.threads_workers();
        let datasets = &self.datasets;
        let keys: Vec<(usize, Variant)> = (0..datasets.len())
            .flat_map(|d| PAIR_VARIANTS.map(|v| (d, v)))
            .collect();
        // Per job: its key and when it was submitted.
        let mut meta = Vec::new();
        sp.begin("op", None);
        let t0 = Instant::now();
        let mut svc = CampaignService::new(workers);
        // One copy of every key per round, so copies of a key are far
        // apart in the queue and a hit seldom waits for its key's build.
        for _ in 0..self.scale.campaign_copies {
            for (key, &(d, v)) in keys.iter().enumerate() {
                let id = svc.submit(Job::new(JobSpec::new(datasets[d].clone(), v).threads(1)));
                debug_assert_eq!(id.0 as usize, meta.len());
                meta.push((key, Instant::now()));
            }
        }
        let mut results = Vec::with_capacity(meta.len());
        while results.len() < meta.len() {
            match svc.poll_result() {
                Some(r) => results.push((Instant::now(), r)),
                None => std::thread::sleep(Duration::from_micros(100)),
            }
        }
        let seconds = t0.elapsed().as_secs_f64();
        let summary = svc.finish();
        if let Some(t) = sp.trace() {
            for (at, r) in &results {
                let (key, submitted) = meta[r.id.0 as usize];
                t.record(named("campaign.job", Some(keys[key].1)), submitted, *at);
            }
            // Jobs run inside the workers: decompose each variant's step
            // outside the service, on the LJ fluid only (the water box's
            // steps are decomposed on `paper-step`), so every per-layer
            // figure describes one dataset.
            let lj = datasets.len() - 1;
            let ds = &datasets[lj];
            let app = app(1, ds.list.params);
            for v in PAIR_VARIANTS {
                t.begin(named("core.step", Some(v)));
                let out = traced_step(&app, &ds.system, Some(&ds.list), v, false, t);
                t.end();
                out?;
            }
        }
        sp.end();
        if summary.metrics.failed > 0 {
            return Err(format!(
                "campaign: {} of {} jobs failed",
                summary.metrics.failed, summary.metrics.jobs
            ));
        }
        // When each key's miss returned.
        let mut miss_done = vec![None; keys.len()];
        for (at, r) in &results {
            if r.cache == Some(CacheStatus::Miss) {
                miss_done[meta[r.id.0 as usize].0] = Some(*at);
            }
        }
        let mut st = OpStats {
            seconds,
            ..OpStats::default()
        };
        let mut pending = Vec::new();
        for (at, r) in results {
            let (key, submitted) = meta[r.id.0 as usize];
            let (d, v) = keys[key];
            let out = r.result.map_err(|e| format!("{}: {e:?}", r.label))?;
            let latency = at.duration_since(submitted).as_secs_f64();
            let started = at.checked_sub(Duration::from_secs_f64(r.wall_seconds));
            let clean_hit = r.cache == Some(CacheStatus::Hit)
                && matches!((started, miss_done[key]), (Some(s), Some(m)) if s >= m);
            st.latencies.push(latency);
            st.jobs.push(JobTimes {
                key,
                cache: r.cache,
                wall: r.wall_seconds,
                latency,
                clean_hit,
            });
            st.steps += 1;
            st.interactions += out.dataset.interactions as u64;
            st.cycles += out.perf.cycles as f64;
            pending.push(Pending {
                key: format!("{}/{}", datasets[d].id, v.name()),
                dataset: d,
                fp: Fingerprint::of_step(&out),
                forces: Some(out.forces),
            });
        }
        st.cycles /= st.steps as f64;
        Ok((st, pending))
    }
}

/// The variant a check key ends with.
fn variant_of(key: &str) -> Variant {
    let name = key.rsplit('/').next().unwrap_or(key);
    Variant::ALL
        .into_iter()
        .find(|v| v.name() == name)
        .expect("check keys end with a variant name")
}

fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile; 0 for no samples.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics with their units, in output order.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("op_s.p50", "s"),
    ("steps_per_s", "1/s"),
    ("interactions_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("sim_cycles", "cycles"),
];

/// Per-layer metrics reported per variant, with units and the variants
/// some workload reports them for (the 1-to-2-thread engine speed-up
/// only runs on `water-8192-step`, `MerrimacDriver` only on `traj-900`).
const PER_VARIANT: [(&str, &str, &[Variant]); 23] = [
    ("core.layout.s", "s", &Variant::ALL),
    ("core.layout.strips", "count", &Variant::ALL),
    ("core.layout.iterations", "count", &Variant::ALL),
    ("sim.kernelc.s", "s", &Variant::ALL),
    ("core.app.build.s", "s", &Variant::ALL),
    ("core.app.build.ops", "count", &Variant::ALL),
    ("analysis.s", "s", &Variant::ALL),
    ("analysis.errors", "count", &Variant::ALL),
    ("analysis.warnings", "count", &Variant::ALL),
    ("sim.validate.s", "s", &Variant::ALL),
    ("sim.partition.s", "s", &Variant::ALL),
    ("sim.partition.parallel", "bool", &Variant::ALL),
    ("sim.engine.s", "s", &Variant::ALL),
    ("sim.engine.speedup_2t", "ratio", &WATER_STEP_VARIANTS),
    ("core.app.extract.s", "s", &Variant::ALL),
    ("core.driver.force.s", "s", &TRAJ_VARIANTS),
    ("core.driver.integrate.s", "s", &TRAJ_VARIANTS),
    ("core.driver.rebuild_share", "ratio", &TRAJ_VARIANTS),
    ("sim.cycles", "cycles", &Variant::ALL),
    ("sim.mem_refs", "count", &Variant::ALL),
    ("sim.hardware_flops", "count", &Variant::ALL),
    ("sim.useful_flop_ratio", "ratio", &Variant::ALL),
    ("sim.sdr_stall_cycles", "cycles", &Variant::ALL),
];

/// Per-layer metrics without a variant, with units.
const UNSPLIT: [(&str, &str); 9] = [
    ("md.neighbor.s", "s"),
    ("md.neighbor.pairs", "count"),
    ("campaign.build.s", "s"),
    ("campaign.run.s", "s"),
    ("campaign.queue_wait.s", "s"),
    ("campaign.hit_ratio", "ratio"),
    ("campaign.misses", "count"),
    ("trace.span_cost_s", "s"),
    ("trace.traced_minus_untraced_s", "s"),
];

/// Every per-layer metric name with its unit, in output order. A traced
/// run reports all of them; a layer that does not run on the workload,
/// or a variant the workload does not use, reads 0. Every name is
/// non-zero on some workload.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        UNSPLIT.iter().map(|(n, u)| (n.to_string(), *u)).collect();
    for v in Variant::ALL {
        out.extend(
            PER_VARIANT
                .iter()
                .filter(|(_, _, vs)| vs.contains(&v))
                .map(|(n, u, _)| (format!("{n}.{}", v.name()), *u)),
        );
    }
    out
}

/// Run `w`: `scale.setups` set-ups (input generation plus one cold
/// operation each), then timed operations until `seconds` have passed.
/// With `traced`, operations alternate untraced and traced; the
/// end-to-end metrics come from the untraced ones, the per-layer
/// metrics from the traced ones.
pub fn run(
    w: Workload,
    scale: Scale,
    seed: u64,
    seconds: f64,
    traced: bool,
    checker: &mut Checker,
) -> Outcome {
    let mut outcome = Outcome::default();
    let mut setups = Vec::new();
    let mut r = Runner {
        w,
        scale,
        datasets: Vec::new(),
        checker,
        referenced: BTreeSet::new(),
    };
    for _ in 0..scale.setups.max(1) {
        drop(std::mem::take(&mut r.datasets));
        let t0 = Instant::now();
        r.datasets = generate(w, &scale, seed);
        let generated = t0.elapsed().as_secs_f64();
        if let Some(st) = record(&mut outcome, r.op(&mut Spans(None))) {
            setups.push(generated + st.seconds);
        }
    }

    let mut trace = traced.then(Trace::new);
    let (mut plain, mut spanned) = (Vec::<OpStats>::new(), Vec::<OpStats>::new());
    // Whole-call seconds (extra layer calls and checks included) of
    // untraced and traced operations.
    let (mut plain_calls, mut spanned_calls) = (Vec::new(), Vec::new());
    let start = Instant::now();
    for i in 0u64.. {
        let done = start.elapsed().as_secs_f64() >= seconds;
        if done && !plain.is_empty() && (!traced || !spanned.is_empty()) {
            break;
        }
        // A run that keeps failing stops once its time is up.
        if done && outcome.failed > 0 {
            break;
        }
        let tracing = traced && i % 2 == 1;
        let mut sp = Spans(None);
        if tracing {
            let t = trace.as_mut().expect("a traced run has a trace");
            t.next_op();
            sp = Spans(Some(t));
        }
        let t0 = Instant::now();
        let res = r.op(&mut sp);
        let call = t0.elapsed().as_secs_f64();
        if let Some(st) = record(&mut outcome, res) {
            if tracing {
                spanned.push(st);
                spanned_calls.push(call);
            } else {
                plain.push(st);
                plain_calls.push(call);
            }
        }
    }

    outcome.end_to_end = end_to_end(&setups, &plain);
    let latencies: Vec<f64> = plain
        .iter()
        .flat_map(|o| o.latencies.iter().copied())
        .collect();
    let p90 = if latencies.len() >= 100 {
        format!("op_s.p90 = {:.6} s", quantile(&latencies, 0.9))
    } else {
        format!(
            "op_s.p90 omitted: {} latency samples, fewer than 100",
            latencies.len()
        )
    };
    let q = |p: f64| quantile(&latencies, p);
    outcome.notes.push(format!(
        "samples: {} set-ups, {} timed operations, {} latency samples \
         (min {:.6}, p25 {:.6}, p75 {:.6}, max {:.6} s); {p90}",
        setups.len(),
        plain.len(),
        latencies.len(),
        q(0.0),
        q(0.25),
        q(0.75),
        q(1.0)
    ));
    outcome.notes.push(format!(
        "failed_ratio = {} ({} of {} operations)",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    ));
    if let Some(t) = &trace {
        // The spans' own cost: what this run recorded per traced
        // operation, priced by timing the recorder on its own.
        let (per_span, per_count) = Trace::unit_costs(10_000);
        let counts: usize = t.spans().iter().map(|s| s.args.len()).sum();
        let span_cost = (t.spans().len() as f64 * per_span + counts as f64 * per_count)
            / spanned.len().max(1) as f64;
        // Traced minus untraced call: the spans plus the extra calls
        // that isolate the layers.
        let (with, without) = (median(&spanned_calls), median(&plain_calls));
        let extra = with - without;
        outcome.notes.push(format!(
            "tracing overhead: spans {span_cost:.6} s per traced operation ({} spans at {:.0} ns, \
             {counts} counts at {:.0} ns, over {} traced operations); traced {with:.6} s - untraced \
             {without:.6} s = {extra:.6} s per operation (medians of {} traced and {} untraced \
             calls; the extra layer calls are most of it)",
            t.spans().len(),
            per_span * 1e9,
            per_count * 1e9,
            spanned.len(),
            spanned.len(),
            plain.len()
        ));
        let jobs: Vec<JobTimes> = plain
            .iter()
            .chain(&spanned)
            .flat_map(|o| o.jobs.iter().copied())
            .collect();
        let batches = plain.len() + spanned.len();
        if !jobs.is_empty() {
            let hits = jobs.iter().filter(|j| j.cache == Some(CacheStatus::Hit));
            outcome.notes.push(format!(
                "campaign: {} of {} cache hits started after their key's build returned; \
                 campaign.run.s and campaign.build.s use only those",
                hits.clone().filter(|j| j.clean_hit).count(),
                hits.count()
            ));
        }
        outcome.per_layer = per_layer(t, &jobs, batches, scale.traj_steps, span_cost, extra);
    }
    outcome.trace = trace;
    outcome
}

/// Count one operation; keep its statistics, or its failure.
fn record(outcome: &mut Outcome, res: Result<OpStats, String>) -> Option<OpStats> {
    outcome.attempted += 1;
    res.map_err(|e| {
        outcome.failed += 1;
        outcome.failures.push(e);
    })
    .ok()
}

fn end_to_end(setups: &[f64], ops: &[OpStats]) -> Vec<Metric> {
    let latencies: Vec<f64> = ops
        .iter()
        .flat_map(|o| o.latencies.iter().copied())
        .collect();
    let busy: f64 = ops.iter().map(|o| o.seconds).sum();
    let steps: u64 = ops.iter().map(|o| o.steps).sum();
    let interactions: u64 = ops.iter().map(|o| o.interactions).sum();
    let values = [
        median(setups),
        median(&latencies),
        steps as f64 / busy,
        interactions as f64 / busy,
        peak_rss_mb(),
        ops.first().map_or(0.0, |o| o.cycles),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|((name, unit), value)| metric(*name, unit, value))
        .collect()
}

/// Per-layer metrics from the traced operations' spans and counts, and
/// the campaign jobs' cache status and timings.
fn per_layer(
    t: &Trace,
    jobs: &[JobTimes],
    batches: usize,
    traj_steps: usize,
    span_cost: f64,
    traced_minus_untraced: f64,
) -> Vec<Metric> {
    let spans = t.durations();
    let counts = t.counts();
    let time = |name: &str| spans.get(name).map(|v| median(v));
    let count = |name: &str| counts.get(name).map_or(0.0, |v| median(v));
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    let neighbor = time("md.neighbor").unwrap_or(0.0);
    values.insert("md.neighbor.s".into(), neighbor);
    values.insert("md.neighbor.pairs".into(), count("md.neighbor.pairs"));

    if !jobs.is_empty() {
        // Run and build times differ by key (dataset, variant): take each
        // key's median, then the mean over keys. Only clean hits time
        // the run alone.
        let keys: BTreeSet<usize> = jobs.iter().map(|j| j.key).collect();
        let (mut runs, mut builds) = (Vec::new(), Vec::new());
        for key in keys {
            let walls = |keep: &dyn Fn(&JobTimes) -> bool| -> Vec<f64> {
                jobs.iter()
                    .filter(|j| j.key == key && keep(j))
                    .map(|j| j.wall)
                    .collect()
            };
            let hits = walls(&|j| j.clean_hit);
            let misses = walls(&|j| j.cache == Some(CacheStatus::Miss));
            if hits.is_empty() {
                continue;
            }
            runs.push(median(&hits));
            if !misses.is_empty() {
                builds.push(median(&misses) - median(&hits));
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        let status = |want| jobs.iter().filter(|j| j.cache == Some(want)).count() as f64;
        let waits: Vec<f64> = jobs.iter().map(|j| j.latency - j.wall).collect();
        let (hits, misses) = (status(CacheStatus::Hit), status(CacheStatus::Miss));
        values.insert("campaign.run.s".into(), mean(&runs));
        values.insert("campaign.build.s".into(), mean(&builds));
        values.insert("campaign.queue_wait.s".into(), median(&waits));
        values.insert("campaign.hit_ratio".into(), hits / (hits + misses));
        values.insert("campaign.misses".into(), misses / batches as f64);
    }
    values.insert("trace.span_cost_s".into(), span_cost);
    values.insert(
        "trace.traced_minus_untraced_s".into(),
        traced_minus_untraced,
    );

    for v in Variant::ALL {
        let s = v.name();
        let t = |layer: &str| time(&format!("{layer}.{s}"));
        let c = |name: &str| count(&format!("{name}.{s}"));
        let mut put = |name: &str, value: f64| {
            values.insert(format!("{name}.{s}"), value);
        };
        let layout = t("core.layout").unwrap_or(0.0);
        let kernelc = t("sim.kernelc").unwrap_or(0.0);
        let analysis = t("analysis").unwrap_or(0.0);
        let validate = t("sim.validate").unwrap_or(0.0);
        let partition = t("sim.partition").unwrap_or(0.0);
        put("core.layout.s", layout);
        put("sim.kernelc.s", kernelc);
        put("analysis.s", analysis);
        put("sim.validate.s", validate);
        put("sim.partition.s", partition);
        for n in [
            "core.layout.strips",
            "core.layout.iterations",
            "core.app.build.ops",
            "analysis.errors",
            "analysis.warnings",
            "sim.partition.parallel",
            "sim.cycles",
            "sim.mem_refs",
            "sim.hardware_flops",
            "sim.useful_flop_ratio",
            "sim.sdr_stall_cycles",
        ] {
            put(n, c(n));
        }
        if let Some(build) = t("core.app.build") {
            put("core.app.build.s", build - layout - kernelc);
        }
        if let Some(engine) = t("sim.run_parallel") {
            put("sim.engine.s", engine - validate - partition);
            if let Some(one) = t("sim.run_parallel_1t") {
                put("sim.engine.speedup_2t", one / engine);
            }
            if let Some(run) = t("core.app.run") {
                put("core.app.extract.s", run - engine);
            }
        }
        if let Some(traj) = t("core.driver.run") {
            let force =
                t("core.app.build").unwrap_or(0.0) + analysis + t("core.app.run").unwrap_or(0.0);
            let rebuilds = c("core.driver.rebuilds");
            let steps = traj_steps.max(1) as f64;
            put("core.driver.force.s", force);
            put(
                "core.driver.integrate.s",
                (traj - (steps + 1.0) * force - rebuilds * neighbor) / steps,
            );
            put("core.driver.rebuild_share", rebuilds * neighbor / traj);
        }
    }
    per_layer_names()
        .into_iter()
        .map(|(name, unit)| {
            let value = values.get(&name).copied().unwrap_or(0.0);
            metric(name, unit, value)
        })
        .collect()
}
