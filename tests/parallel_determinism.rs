//! Property tests for the parallel execution engine's determinism
//! contract: for every variant and any molecule count, running the
//! StreamMD step with N worker threads must produce forces that are
//! **bitwise-identical** to the serial run, and identical cycle,
//! counter and locality metrics — parallelism is a host-side
//! implementation detail, invisible in every simulated observable.
//!
//! The same holds for every host execution setting, and the CI matrix
//! extends the sweep here: `MERRIMAC_HOST_THREADS`, `MERRIMAC_NODES`,
//! `MERRIMAC_KERNEL_ENGINE` and `MERRIMAC_TAPE_BATCH` are read through
//! `RunSpec::from_env_overrides` and join the bitwise sweep of
//! [`env_overrides_join_the_bitwise_sweep`].

use md_sim::neighbor::{NeighborList, NeighborListParams};
use md_sim::system::WaterBox;
use merrimac_bench::{run, Dataset, RunSpec};
use merrimac_sim::{BatchWidth, KernelEngine};
use proptest::prelude::*;
use streammd::{StepOutcome, StreamMdApp, Variant};

fn run_case(molecules: usize, seed: u64, strip: usize, threads: usize) {
    let system = WaterBox::builder().molecules(molecules).seed(seed).build();
    let params = NeighborListParams {
        cutoff: (0.45 * system.pbc().side()).min(1.0),
        skin: 0.0,
        rebuild_interval: 1,
    };
    let list = NeighborList::build(&system, params);
    // The strip is set on the built app's field, past the builder: the
    // sampled strips include sizes (997) whose *full* strip would
    // overflow the SRF, but these boxes are small enough that the layout
    // clamps every strip to the available work — the run-time preflight
    // stays green. The builder's dataset-independent validation would
    // reject them.
    let mut app = StreamMdApp::builder()
        .neighbor(params)
        .build()
        .expect("default app builds");
    app.strip_iterations = Some(strip);
    for v in Variant::ALL {
        let mut serial_app = app.clone();
        serial_app.threads = 1;
        let serial = serial_app
            .run_step_with_list(&system, &list, v)
            .unwrap_or_else(|e| panic!("{v} serial: {e}"));
        let mut parallel_app = app.clone();
        parallel_app.threads = threads;
        let parallel = parallel_app
            .run_step_with_list(&system, &list, v)
            .unwrap_or_else(|e| panic!("{v} x{threads}: {e}"));
        // Forces bitwise-identical: Vec3 equality is exact f64 equality.
        assert_eq!(
            serial.forces, parallel.forces,
            "{v} molecules={molecules} seed={seed} strip={strip} threads={threads}: forces diverged"
        );
        // Every simulated observable identical.
        assert_eq!(serial.perf.cycles, parallel.perf.cycles, "{v}: cycles");
        assert_eq!(serial.perf.seconds, parallel.perf.seconds, "{v}: seconds");
        assert_eq!(
            serial.report.counters, parallel.report.counters,
            "{v}: counters"
        );
        assert_eq!(
            serial.perf.locality, parallel.perf.locality,
            "{v}: locality split"
        );
        assert_eq!(serial.perf.overlap, parallel.perf.overlap, "{v}: overlap");
        assert_eq!(
            serial.report.sdr_peak, parallel.report.sdr_peak,
            "{v}: SDR peak"
        );
        assert_eq!(
            serial.report.srf_peak_words_per_cluster, parallel.report.srf_peak_words_per_cluster,
            "{v}: SRF peak"
        );
        assert_eq!(serial.iterations, parallel.iterations, "{v}: iterations");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn prop_parallel_is_bitwise_serial(
        molecules in prop::sample::select(vec![27usize, 48, 64]),
        seed in 0u64..10_000,
        strip in prop::sample::select(vec![150usize, 301, 997]),
        threads in prop::sample::select(vec![2usize, 4, 7]),
    ) {
        run_case(molecules, seed, strip, threads);
    }
}

#[test]
fn parallel_determinism_at_216_molecules() {
    // The headline configuration from the engine's acceptance bar.
    // (Strip 301 keeps the fixed variant's per-strip SRF footprint small
    // enough to double-buffer at this molecule count.)
    run_case(216, 42, 301, 4);
}

/// Run `spec`, returning its outcome and a label naming its settings.
fn run_labeled(spec: RunSpec) -> (String, StepOutcome) {
    let what = format!(
        "{} threads={} nodes={} engine={} width={}",
        spec.variant, spec.threads, spec.nodes, spec.engine, spec.tape_batch
    );
    let out = run(spec).unwrap_or_else(|e| panic!("{what}: {e}"));
    (what, out)
}

/// Every host setting — thread count, kernel engine, batch width, node
/// count — reproduces the reference configuration (1 thread, batch
/// engine, width 8, 1 node) bitwise. The environment's `MERRIMAC_*`
/// overrides join the sweep, parsed by the one checked front door: a
/// malformed value fails here with its typed error.
#[test]
fn env_overrides_join_the_bitwise_sweep() {
    let ds = Dataset::small(64);
    let overridden = ds
        .spec(Variant::Variable)
        .from_env_overrides()
        .unwrap_or_else(|e| panic!("{e}"));
    let mut settings = vec![
        (4, KernelEngine::Batch, BatchWidth::W8),
        (1, KernelEngine::Batch, BatchWidth::W16),
        (1, KernelEngine::Tape, BatchWidth::W8),
        (1, KernelEngine::Interp, BatchWidth::W8),
    ];
    let from_env = (overridden.threads, overridden.engine, overridden.tape_batch);
    if !settings.contains(&from_env) {
        settings.push(from_env);
    }
    for v in Variant::ALL {
        let (_, reference) = run_labeled(ds.spec(v));
        for &(threads, engine, width) in &settings {
            let (what, out) =
                run_labeled(ds.spec(v).threads(threads).engine(engine).tape_batch(width));
            assert_eq!(reference.forces, out.forces, "{what}: forces");
            assert_eq!(reference.perf.cycles, out.perf.cycles, "{what}: cycles");
            assert_eq!(
                reference.report.counters, out.report.counters,
                "{what}: counters"
            );
            assert_eq!(reference.iterations, out.iterations, "{what}: iterations");
        }
        // The node count rewrites the step's timing (halo exchange), so
        // across nodes the forces are the invariant.
        if overridden.nodes > 1 {
            let (what, out) = run_labeled(RunSpec {
                variant: v,
                ..overridden
            });
            assert_eq!(reference.forces, out.forces, "{what}: forces");
        }
    }
}
