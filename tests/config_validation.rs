//! The un-runnable-configuration diagnostic, end to end.
//!
//! The ROADMAP pathology: the fixed variant with `strip_iterations(997)`
//! on the 216-molecule box used to wedge the simulated scoreboard — a
//! full 997-block strip needs more SRF words per cluster for the
//! kernel's live streams than the machine has, so the kernel could never
//! issue and the run died as an opaque `Deadlock`. Both layers of the
//! fix are pinned here: the builder rejects the strip at `build()` time,
//! and (for configurations smuggled past the builder by mutating the
//! app's public fields directly) the simulator's preflight turns the
//! deadlock into a `StripSrfOverflow` naming the strip size.

use md_sim::neighbor::{NeighborList, NeighborListParams};
use md_sim::system::WaterBox;
use streammd::{MerrimacDriver, SimError, StreamMdApp, Variant};

fn box_216() -> (WaterBox, NeighborList) {
    let system = WaterBox::builder().molecules(216).seed(42).build();
    let params = NeighborListParams {
        cutoff: (0.45 * system.pbc().side()).min(1.0),
        skin: 0.0,
        rebuild_interval: 10,
    };
    let list = NeighborList::build(&system, params);
    (system, list)
}

#[test]
fn builder_rejects_strip_997_naming_the_strip() {
    let err = StreamMdApp::builder()
        .strip_iterations(997)
        .build()
        .expect_err("a 997-block fixed strip cannot fit the SRF");
    match &err {
        SimError::StripSrfOverflow {
            strip_iterations,
            needed_words_per_cluster,
            capacity_words_per_cluster,
            ..
        } => {
            assert_eq!(*strip_iterations, 997);
            assert!(needed_words_per_cluster > capacity_words_per_cluster);
        }
        other => panic!("expected StripSrfOverflow, got {other:?}"),
    }
    let msg = err.to_string();
    assert!(msg.contains("997"), "diagnostic must name the strip: {msg}");
    assert!(
        msg.contains("strip_iterations"),
        "diagnostic must point at the knob: {msg}"
    );
}

#[test]
fn unchecked_field_path_gets_the_diagnostic_at_run_time() {
    // Smuggle the bad strip past the builder by mutating the app's
    // public fields directly; the simulator preflight must still refuse
    // with the named diagnostic instead of deadlocking.
    let (system, list) = box_216();
    let mut app = StreamMdApp::builder()
        .neighbor(list.params)
        .build()
        .expect("default app builds");
    app.strip_iterations = Some(997);
    let err = app
        .run_step_with_list(&system, &list, Variant::Fixed)
        .expect_err("fixed/997/216 molecules is un-runnable");
    let msg = err.to_string();
    assert!(
        matches!(err, SimError::StripSrfOverflow { .. }),
        "expected StripSrfOverflow, got {err:?}"
    );
    assert!(msg.contains("997"), "diagnostic must name the strip: {msg}");
    assert!(
        !msg.to_lowercase().contains("deadlock"),
        "must diagnose the cause, not the symptom: {msg}"
    );
}

#[test]
fn same_strip_is_fine_for_the_compact_variants() {
    // The rejection is per-footprint, not a blanket strip cap: 997
    // iterations of the expanded or variable variant fit comfortably.
    let (system, list) = box_216();
    let app = StreamMdApp::builder()
        .neighbor(list.params)
        .strip_iterations(997)
        .variants(&[Variant::Expanded, Variant::Variable])
        .build()
        .expect("builds for the compact variants");
    for v in [Variant::Expanded, Variant::Variable] {
        let out = app.run_step_with_list(&system, &list, v).unwrap();
        assert!(out.perf.cycles > 0, "{v}");
    }
}

#[test]
fn box_too_small_for_the_cutoff_is_a_config_error() {
    // The default neighbour list (cutoff 1.0) needs a box edge of at
    // least twice its radius; 216 molecules give a ~1.86 nm box. Both
    // the one-step and the trajectory entry points must refuse with a
    // typed error instead of panicking inside the list build.
    let mut system = WaterBox::builder().molecules(216).seed(42).build();
    let app = StreamMdApp::builder().build().expect("default app builds");
    assert!(2.0 * app.neighbor.list_radius() > system.pbc().side());
    let err = app
        .run_step(&system, Variant::Variable)
        .expect_err("cutoff too large for the box");
    assert!(matches!(err, SimError::Config(_)), "got {err:?}");
    assert!(err.to_string().contains("minimum image"), "{err}");
    let err = MerrimacDriver::new(app, Variant::Fixed)
        .run(&mut system, 2)
        .expect_err("cutoff too large for the box");
    assert!(matches!(err, SimError::Config(_)), "got {err:?}");
}
