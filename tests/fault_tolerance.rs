//! The device pool's recovery journal: transient launch
//! failures, kernel timeouts and fatal device loss, up to and including
//! every device, are retried, redistributed or degraded to the CPU, and
//! the journal says which. That faults never change the hits or the
//! funnel is the lattice's fault axis (`common::lattice`); the last two
//! tests pin named points of it.

mod common;

use common::lattice::{check, Driver, Faults, Plan, Point};
use hmmer3_warp::cpu::Backend;
use hmmer3_warp::pipeline::SearchReport;
use hmmer3_warp::prelude::*;

fn fixture() -> (Pipeline, SeqDb) {
    let model = synthetic_model(70, 11, &BuildParams::default());
    let pipe = Pipeline::prepare(&model, PipelineConfig::default(), 0x5_eac4);
    let mut spec = DbGenSpec::envnr_like().scaled(2e-4);
    spec.homolog_fraction = 0.02;
    let db = generate(&spec, Some(&model), 9);
    (pipe, db)
}

/// One search on a pool of `n_devices` K40s under `faults`.
fn ft_search(pipe: &Pipeline, db: &SeqDb, n_devices: usize, faults: FaultPlan) -> SearchReport {
    let injector = FaultInjector::new(faults, n_devices);
    let pool = FtSweep {
        injector: Some(&injector),
        ..FtSweep::fault_free(n_devices)
    };
    let dev = DeviceSpec::tesla_k40();
    let plan = ExecPlan::Devices { dev, pool };
    pipe.search_traced(db, &plan, &Trace::off()).unwrap()
}

#[test]
fn one_of_four_devices_dies_mid_sweep_without_changing_results() {
    let (pipe, db) = fixture();
    let clean = pipe.search(&db, &ExecPlan::Cpu).unwrap();
    assert!(!clean.hits.is_empty(), "fixture must produce hits");
    // Device 2 is lost on its second kernel launch — mid-sweep, with work
    // already done and more still queued on it.
    let faulted = ft_search(&pipe, &db, 4, FaultPlan::none().kill_device(2, 1));
    assert_eq!(faulted.recovery.lost_devices, vec![2]);
    assert!(faulted.recovery.redistributed_seqs > 0, "work must move");
    assert!(!faulted.degraded_to_cpu);
    assert_eq!(faulted.result.hits, clean.hits);
}

#[test]
fn losing_every_device_degrades_to_cpu_bit_identically() {
    let (pipe, db) = fixture();
    let clean = pipe.search(&db, &ExecPlan::Cpu).unwrap();
    // The pool dies in MSV (device 1 on the partition it inherits), or
    // in Viterbi after each device ran its MSV partition.
    let in_msv = FaultPlan::none().kill_device(0, 0).kill_device(1, 1);
    let in_viterbi = FaultPlan::none().kill_device(0, 1).kill_device(1, 1);
    for faults in [in_msv, in_viterbi] {
        let report = ft_search(&pipe, &db, 2, faults);
        assert!(report.degraded_to_cpu);
        assert_eq!(report.recovery.lost_devices.len(), 2);
        assert_eq!(report.result.hits, clean.hits);
    }
}

#[test]
fn transient_fault_storms_are_retried_without_score_drift() {
    let (pipe, db) = fixture();
    let clean = pipe.search(&db, &ExecPlan::Cpu).unwrap();
    // Transient faults spread over devices and launches; each is
    // retryable and must be absorbed by the policy without escalating.
    let storm = FaultPlan::none()
        .transient(0, 0, FaultKind::LaunchTransient, 1)
        .transient(1, 1, FaultKind::KernelTimeout, 1)
        .transient(2, 0, FaultKind::LaunchTransient, 1);
    let report = ft_search(&pipe, &db, 3, storm);
    assert!(
        report.recovery.retries >= 3,
        "retries: {}",
        report.recovery.retries
    );
    assert!(report.recovery.lost_devices.is_empty());
    assert!(!report.degraded_to_cpu);
    assert_eq!(report.result.hits, clean.hits);
}

#[test]
fn device_count_does_not_change_results() {
    for devices in [1, 2, 5] {
        check(&Point {
            plan: Plan::pool(devices, Faults::None),
            ..Point::default()
        });
    }
}

#[test]
fn killed_and_resumed_checkpointed_sweep_reports_identical_hits() {
    let plan = Plan::pool(
        3,
        Faults::Kill {
            device: 2,
            launch: 1,
        },
    );
    let driver = Driver::Resumed {
        cap: 12_000,
        kill_after: 1,
        backend: Backend::detect(),
        threads: 1,
    };
    check(&Point {
        m: 70,
        seed: 11,
        plan,
        driver,
        ..Point::default()
    });
}
