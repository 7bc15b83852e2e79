//! End-to-end simulated multi-node execution: the spatial decomposition
//! runs every strip on its owning node over the folded-Clos topology,
//! and the acceptance contract is that the total forces are
//! **bitwise-identical at any node count and any host thread count**
//! (the cross-node reduction replays in canonical global strip order;
//! see `streammd::multinode`).
//!
//! The CI host-thread matrix extends here: `MERRIMAC_NODES` adds one
//! extra node count to the identity sweep, so one matrix job covers a
//! multi-node configuration.

use md_sim::neighbor::{NeighborList, NeighborListParams};
use md_sim::system::WaterBox;
use merrimac_bench::RunSpec;
use streammd::multinode::MultiNodeOutcome;
use streammd::{SimConfigBuilder, SimError, Variant};

fn setup(molecules: usize) -> (WaterBox, NeighborList) {
    let system = WaterBox::builder().molecules(molecules).seed(7).build();
    let params = NeighborListParams {
        cutoff: (0.45 * system.pbc().side()).min(1.0),
        skin: 0.0,
        rebuild_interval: 10,
    };
    let list = NeighborList::build(&system, params);
    (system, list)
}

fn run_nodes(
    system: &WaterBox,
    list: &NeighborList,
    variant: Variant,
    nodes: usize,
    threads: usize,
) -> MultiNodeOutcome {
    SimConfigBuilder::new()
        .neighbor(list.params)
        .variants(&[variant])
        .threads(threads)
        .nodes(nodes)
        .build()
        .unwrap_or_else(|e| panic!("{variant} nodes={nodes}: {e}"))
        .run_step_multinode(system, list, variant)
        .unwrap_or_else(|e| panic!("{variant} nodes={nodes} threads={threads}: {e}"))
}

/// Acceptance: bitwise-identical total forces for N ∈ {1, 2, 8} (plus
/// the CI matrix's `MERRIMAC_NODES`) and across host threads within
/// each node count.
#[test]
fn forces_bitwise_identical_across_nodes_and_threads() {
    let (system, list) = setup(64);
    let mut node_counts = vec![1usize, 2, 8];
    // `MERRIMAC_NODES` is parsed through the one checked front door
    // (`RunSpec::from_env_overrides`), so a malformed matrix entry fails
    // loudly here instead of being silently ignored.
    let overridden = RunSpec::new(&system, &list, Variant::Variable)
        .from_env_overrides()
        .unwrap_or_else(|e| panic!("{e}"));
    if !node_counts.contains(&overridden.nodes) {
        node_counts.push(overridden.nodes);
    }
    for variant in [Variant::Variable, Variant::Fixed] {
        let reference = run_nodes(&system, &list, variant, 1, 2);
        for &nodes in &node_counts {
            for threads in [1usize, 4] {
                let m = run_nodes(&system, &list, variant, nodes, threads);
                assert_eq!(
                    reference.outcome.forces, m.outcome.forces,
                    "{variant}: forces diverged at nodes={nodes} threads={threads}"
                );
            }
        }
    }
}

/// The per-node partial force images must sum (elementwise) to the
/// canonical total up to floating-point association — every strip runs
/// on exactly one node and nothing is dropped or double-counted.
#[test]
fn node_partials_cover_the_canonical_reduction() {
    let (system, list) = setup(64);
    let m = run_nodes(&system, &list, Variant::Variable, 4, 2);
    let words = m.per_node[0].forces.len();
    let mut summed = vec![0.0f64; words];
    for node in &m.per_node {
        for (acc, &w) in summed.iter_mut().zip(&node.forces) {
            *acc += w;
        }
    }
    let n_sites = system.num_molecules() * 3;
    for site in 0..n_sites {
        let canonical = m.outcome.forces[site];
        for (axis, c) in [canonical.x, canonical.y, canonical.z]
            .into_iter()
            .enumerate()
        {
            let s = summed[site * 3 + axis];
            assert!(
                (s - c).abs() <= 1e-9 * c.abs().max(1.0),
                "site {site} axis {axis}: node sum {s} vs canonical {c}"
            );
        }
    }
    // Every strip landed on exactly one node.
    let assigned: usize = m.per_node.iter().map(|n| n.strips.len()).sum();
    assert_eq!(assigned, m.outcome.report.partition.strips as usize);
    let owned: usize = m.per_node.iter().map(|n| n.owned_molecules).sum();
    assert_eq!(owned, system.num_molecules());
}

/// One node is exactly the single-processor step: same cycles, no
/// communication.
#[test]
fn single_node_degenerates_to_the_canonical_step() {
    let (system, list) = setup(64);
    let m = run_nodes(&system, &list, Variant::Variable, 1, 2);
    assert_eq!(m.breakdown.step_cycles, m.outcome.report.cycles);
    assert_eq!(m.breakdown.comm_cycles_max, 0);
    assert_eq!(m.breakdown.halo_in_words, 0);
    assert_eq!(m.breakdown.force_out_words, 0);
    assert!((m.efficiency() - 1.0).abs() < 1e-12);
    assert_eq!(m.outcome.perf.phases.multinode, Some(m.breakdown));
}

/// Beyond one node the halo exchange must appear: positions in, partial
/// forces out, both phases priced into the step.
#[test]
fn multi_node_steps_pay_for_the_halo_exchange() {
    let (system, list) = setup(64);
    let m = run_nodes(&system, &list, Variant::Variable, 8, 2);
    assert_eq!(m.per_node.len(), 8);
    assert!(m.breakdown.halo_in_words > 0, "no halo imported");
    assert!(m.breakdown.force_out_words > 0, "no forces returned");
    assert!(m.breakdown.comm_cycles_max > 0);
    assert!(m.breakdown.step_cycles > m.breakdown.compute_cycles_max);
    assert!(m.breakdown.imbalance() >= 0.0);
    // Distributing strips cannot make the busiest node slower than the
    // whole program on one node.
    assert!(m.breakdown.compute_cycles_max <= m.outcome.report.cycles);
    // The summary reflects the multi-node step, not the canonical run.
    assert_eq!(m.outcome.perf.cycles, m.breakdown.step_cycles);
}

/// Builder preflight: out-of-range node counts are typed errors, in the
/// same family as the SRF strip overflow.
#[test]
fn builder_rejects_node_counts_outside_the_network() {
    for nodes in [0usize, 8193] {
        let err = SimConfigBuilder::new().nodes(nodes).build().unwrap_err();
        match err {
            SimError::NodesOutOfRange { nodes: n, total } => {
                assert_eq!(n, nodes);
                assert_eq!(total, 8192);
            }
            other => panic!("expected NodesOutOfRange, got {other}"),
        }
        assert!(err.to_string().contains("8192"), "{err}");
    }
}
