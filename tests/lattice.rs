//! The one oracle over the configuration lattice: every configuration of
//! a search reports the scalar CPU pipeline's hits bit for bit
//! (`common::lattice`). Each test draws its lattice and then checks that
//! it visited every axis value, so a lattice that stops reaching a
//! configuration fails here instead of silently testing less. Among them:
//! the global pool (threads 0) and eight workers, every plan, the resumed
//! driver on each pool size, and the one-shot and fused scans of up to
//! seven models of up to 100 states.

mod common;

use common::lattice::{
    check, check_scan, database, Driver, Faults, Lattice, Plan, Point, ScanLattice, Shape, Visit,
};
use hmmer3_warp::cpu::{msv_filter_scalar, Backend};
use hmmer3_warp::prelude::*;
use proptest::{Strategy, TestRng};
use std::collections::{BTreeMap, BTreeSet};

/// Draw `cases` points, check each, and demand that together they visit
/// every class of every axis in `axes`.
fn sweep<S: Strategy>(
    name: &str,
    lattice: S,
    cases: usize,
    check: impl Fn(&S::Value),
    visits: impl Fn(&S::Value) -> Vec<Visit>,
    axes: &[(&str, usize)],
) {
    let mut rng = TestRng::for_test(name);
    let mut visited: BTreeMap<&str, BTreeSet<String>> = BTreeMap::new();
    for _ in 0..cases {
        let point = lattice.generate(&mut rng);
        check(&point);
        for (axis, class) in visits(&point) {
            visited.entry(axis).or_default().insert(class);
        }
    }
    for &(axis, classes) in axes {
        let seen = visited.remove(axis).unwrap_or_default();
        assert_eq!(
            seen.len(),
            classes,
            "{name}: axis {axis} visited only {seen:?}"
        );
    }
    assert!(visited.is_empty(), "{name}: undeclared axes {visited:?}");
}

#[test]
fn every_lattice_point_reports_the_scalar_cpu_hits() {
    sweep(
        "lattice",
        Lattice::default(),
        Lattice::CASES,
        check,
        |p| p.visits(),
        &Lattice::axes(),
    );
}

#[test]
fn every_scan_point_reports_per_model_scalar_hits() {
    sweep(
        "scan-lattice",
        ScanLattice::default(),
        ScanLattice::CASES,
        check_scan,
        |p| p.visits(),
        &ScanLattice::axes(),
    );
}

/// The hostile inputs at the model sizes of the probe that found them
/// harmless (M = 1, 2, 48, 120; a Latin square gives every plan × driver
/// pair once): the reference answer from the resident drivers, and from
/// the FASTA driver the typed refusal of the record with no residues.
/// The consensus repeat saturates the byte MSV.
#[test]
fn hostile_inputs_get_the_reference_answer_or_a_typed_refusal() {
    let plans = [
        Plan::Cpu,
        Plan::K40,
        Plan::K40_FULL,
        Plan::pool(2, Faults::None),
    ];
    let drivers = [
        Driver::Resident,
        Driver::Fasta { cap: 100 },
        Driver::Packed { cap: 100 },
        Driver::Resumed {
            cap: 5_000,
            kill_after: 2,
            backend: Backend::Scalar,
            threads: 2,
        },
    ];
    for (i, m) in [1, 2, 48, 120].into_iter().enumerate() {
        for (j, driver) in drivers.into_iter().enumerate() {
            check(&Point {
                m,
                seed: 7,
                shape: Shape::Hostile,
                plan: plans[(i + j) % plans.len()],
                driver,
                ..Point::default()
            });
        }
    }
    let model = synthetic_model(48, 7, &BuildParams::default());
    let msv = MsvProfile::from_profile(&Profile::config(&model, &NullModel::new()));
    let db = database(Shape::Hostile, &model, 7);
    let repeat = db.seqs.iter().find(|s| s.name == "saturating").unwrap();
    assert!(msv_filter_scalar(&msv, &repeat.residues).overflow);
}
