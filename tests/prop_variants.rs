//! Property tests across the whole stack: random water boxes, random
//! cutoffs, random strip sizes — every variant must reproduce the
//! reference forces and conserve momentum.

use md_sim::force::compute_forces;
use md_sim::neighbor::{NeighborList, NeighborListParams};
use md_sim::system::WaterBox;
use md_sim::vec3::Vec3;
use proptest::prelude::*;
use streammd::{StreamMdApp, Variant};

fn run_case(molecules: usize, seed: u64, cutoff_frac: f64, strip: usize, l: usize) {
    let system = WaterBox::builder().molecules(molecules).seed(seed).build();
    let cutoff = (cutoff_frac * system.pbc().side()).clamp(0.3, 1.0);
    let params = NeighborListParams {
        cutoff,
        skin: 0.0,
        rebuild_interval: 1,
    };
    let list = NeighborList::build(&system, params);
    let reference = compute_forces(&system, &list);
    let scale = reference
        .forces
        .iter()
        .map(|f| f.norm())
        .fold(1.0f64, f64::max);
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
    app.block_l = l;
    for v in Variant::ALL {
        let out = app
            .run_step_with_list(&system, &list, v)
            .unwrap_or_else(|e| panic!("{v}: {e}"));
        for (i, (got, want)) in out.forces.iter().zip(&reference.forces).enumerate() {
            let err = (*got - *want).max_abs();
            assert!(
                err < 1e-8 * scale,
                "{v} molecules={molecules} seed={seed} cutoff={cutoff:.2} strip={strip} L={l} site {i}: err {err:.2e}"
            );
        }
        let net: Vec3 = out.forces.iter().copied().sum();
        assert!(net.max_abs() < 1e-5 * scale, "{v}: net force {net:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn prop_variants_match_reference(
        molecules in prop::sample::select(vec![27usize, 48, 64, 96]),
        seed in 0u64..10_000,
        cutoff_frac in 0.30f64..0.46,
        strip in prop::sample::select(vec![19usize, 128, 997]),
        l in prop::sample::select(vec![3usize, 8, 13]),
    ) {
        run_case(molecules, seed, cutoff_frac, strip, l);
    }
}

#[test]
fn smallest_interesting_system() {
    // Two molecules, one interaction.
    run_case(8, 77, 0.45, 4, 8);
}

#[test]
fn degenerate_no_interaction_system() {
    // A cutoff so small nothing interacts: all variants must return zero
    // forces without crashing on empty streams.
    let system = WaterBox::builder().molecules(27).seed(5).build();
    let params = NeighborListParams {
        cutoff: 0.05,
        skin: 0.0,
        rebuild_interval: 1,
    };
    let list = NeighborList::build(&system, params);
    let app = StreamMdApp::builder().neighbor(params).build().unwrap();
    for v in Variant::ALL {
        let out = app
            .run_step_with_list(&system, &list, v)
            .unwrap_or_else(|e| panic!("{v}: {e}"));
        for f in &out.forces {
            assert_eq!(*f, Vec3::ZERO, "{v} produced forces with an empty list");
        }
    }
}
