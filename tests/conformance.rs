//! Tier-2 entry point for the cost-model conformance harness.
//!
//! The always-on test runs the reduced (`--quick`) sweep — the same
//! grid the CI conformance job uses — and asserts every claim passes.
//! The `#[ignore]`d test runs the full sweep (`cargo test --release
//! --test conformance -- --ignored`), matching `cargo run -p
//! conformance` exactly.

use std::collections::BTreeSet;

fn assert_report_shape(report: &conformance::Report) {
    // ≥ 5 distinct stages must have fitted exponents (the acceptance
    // floor for the harness).
    let stages: BTreeSet<&str> = report.exponents.iter().map(|e| e.stage.as_str()).collect();
    assert!(
        stages.len() >= 5,
        "fitted exponents cover only {:?}",
        stages
    );
    // The acceptance-critical claims are present: W-in-p at fixed c,
    // and the √c replication gain.
    assert!(report.exponents.iter().any(|e| e.id == "full-to-band.W.p"));
    assert!(report.exponents.iter().any(|e| e.id == "streaming-mm.W.p"));
    assert!(report.ratios.iter().any(|r| r.id == "streaming-mm.gain.c4"));
    assert!(!report.oracles.is_empty(), "oracle suite did not run");
    // The JSON document round-trips the verdict fields.
    let json = report.to_json();
    assert!(json.contains("\"schema\": \"ca-symm-eig/conformance/v2\""));
    assert!(json.contains("\"measured_exponent\""));
    assert!(json.contains("\"measured\""));
}

#[test]
fn quick_conformance_suite_passes() {
    let report = conformance::run(true, |_| {});
    assert_report_shape(&report);
    let failures: Vec<String> = report
        .exponents
        .iter()
        .filter(|e| !e.pass)
        .map(|e| {
            format!(
                "{}: measured {:+.3} vs paper {:+.2} (tol ±{:.2})",
                e.id, e.measured_exponent, e.paper_exponent, e.tolerance
            )
        })
        .chain(report.ratios.iter().filter(|r| !r.pass).map(|r| {
            format!(
                "{}: ratio ×{:.3} outside [{:.2}, {:.2}]",
                r.id, r.measured, r.lo, r.hi
            )
        }))
        .chain(report.oracles.iter().filter(|o| !o.pass).map(|o| {
            format!(
                "oracle {}: resid {:.2e} orth {:.2e} λ-err {:.2e} (tol {:.2e})",
                o.matrix, o.residual, o.orthogonality, o.eigenvalue_error, o.tolerance
            )
        }))
        .collect();
    assert!(
        report.pass,
        "{} conformance claims failed:\n{}",
        report.failed,
        failures.join("\n")
    );
}

#[test]
#[ignore = "full sweep (minutes in debug); run with --release -- --ignored"]
fn full_conformance_suite_passes() {
    let report = conformance::run(false, |_| {});
    assert_report_shape(&report);
    assert!(report.pass, "{} conformance claims failed", report.failed);
}

/// EXPERIMENTS.md quotes the committed full-tier report by claim id, so
/// a row cannot land (or go) without regenerating it with
/// `cargo run --release -p conformance`.
#[test]
fn committed_report_lists_exactly_the_claims() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/CONFORMANCE.json");
    let json = std::fs::read_to_string(path).expect("CONFORMANCE.json is committed");
    assert!(
        json.contains("\"quick\": false"),
        "the committed report is the full tier"
    );
    let committed: BTreeSet<&str> = json
        .split("\"id\": \"")
        .skip(1)
        .map(|rest| &rest[..rest.find('"').unwrap()])
        .collect();
    let defined: BTreeSet<&str> = conformance::claims::exponent_claims()
        .iter()
        .map(|c| c.id)
        .chain(conformance::claims::ratio_claims().iter().map(|r| r.id))
        .collect();
    assert_eq!(committed, defined, "regenerate CONFORMANCE.json");
}
