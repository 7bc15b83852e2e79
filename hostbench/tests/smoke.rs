//! The benchmark's own smoke test: every workload at a tiny size
//! (64 molecules, 2 MD steps, 4 campaign jobs), untraced and traced.
//!
//! Run with `cargo test --release --manifest-path hostbench/Cargo.toml`.

use merrimac_hostbench::{per_layer_names, run, Checker, Metric, Scale, Workload, END_TO_END};

fn assert_named(workload: &str, got: &[Metric], want: &[(String, &str)]) {
    let names: Vec<(&str, &str)> = got.iter().map(|m| (m.name.as_str(), m.unit)).collect();
    let want: Vec<(&str, &str)> = want.iter().map(|(n, u)| (n.as_str(), *u)).collect();
    assert_eq!(names, want, "{workload}: metric names or units");
    for m in got {
        assert!(!m.unit.is_empty(), "{workload}: {} has no unit", m.name);
        assert!(m.value.is_finite(), "{workload}: {} = {}", m.name, m.value);
    }
}

#[test]
fn every_workload_emits_every_metric_with_its_unit() {
    let end_to_end: Vec<(String, &str)> = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), *u))
        .collect();
    for w in Workload::ALL {
        for traced in [false, true] {
            let out = run(w, Scale::TINY, 7, 0.0, traced, &mut Checker::default());
            let label = format!("{} (traced: {traced})", w.name());
            assert!(out.correct(), "{label}: {:?}", out.failures);
            assert!(
                out.attempted >= 2,
                "{label}: set-up plus at least one timed operation"
            );
            assert_named(&label, &out.end_to_end, &end_to_end);
            for m in &out.end_to_end {
                assert!(m.value > 0.0, "{label}: {} must never be 0", m.name);
            }
            if traced {
                assert_named(&label, &out.per_layer, &per_layer_names());
                let trace = out.trace.as_ref().expect("a traced run keeps its spans");
                assert!(trace.spans().iter().any(|s| s.parent.is_some() && s.op > 0));
                assert!(!trace.self_times().is_empty());
                assert!(out.notes.iter().any(|n| n.starts_with("tracing overhead")));
            } else {
                assert!(out.per_layer.is_empty() && out.trace.is_none(), "{label}");
            }
        }
    }
}

#[test]
fn a_wrong_expected_cycle_count_fails_the_output_check() {
    let mut learned = Checker::default();
    let out = run(
        Workload::PaperStep,
        Scale::TINY,
        7,
        0.0,
        false,
        &mut learned,
    );
    assert!(out.correct(), "{:?}", out.failures);
    let mut wrong = *learned.expected("expanded").expect("expanded ran");
    wrong.cycles += 1;

    let mut checker = Checker::default();
    checker.expect("expanded", wrong);
    let out = run(
        Workload::PaperStep,
        Scale::TINY,
        7,
        0.0,
        false,
        &mut checker,
    );
    assert!(!out.correct());
    assert!(out.failed >= 1 && out.failed <= out.attempted);
    assert!(
        out.failures[0].starts_with("expanded:"),
        "{:?}",
        out.failures
    );
}
