//! The device pool's recovery journal: transient launch
//! failures, kernel timeouts and fatal device loss, up to and including
//! every device, are retried, redistributed or degraded to the CPU, and
//! the journal says which. That faults never change the hits or the
//! funnel is the lattice's fault axis (`common::lattice`); two tests
//! pin named points of it.

mod common;

use common::lattice::{check, Driver, Faults, Plan, Point};
use hmmer3_warp::core::multi_gpu::partition;
use hmmer3_warp::cpu::Backend;
use hmmer3_warp::pipeline::{
    search_chunks, ChunkProgress, Hit, SearchReport, StreamError, StreamOptions,
};
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
fn a_pool_that_dies_mid_stage_keeps_the_stage_journal() {
    let (pipe, db) = fixture();
    let clean = pipe.search(&db, &ExecPlan::Cpu).unwrap();
    // MSV over three devices: device 0 retries its partition once;
    // device 1 dies on its partition, which splits over devices 0 and 2;
    // device 2 dies on the first half, which goes back to device 0; and
    // device 0 dies on the second half, with no survivor to take it.
    let faults = FaultPlan::none()
        .transient(0, 0, FaultKind::LaunchTransient, 1)
        .kill_device(1, 0)
        .kill_device(2, 0)
        .kill_device(0, 3);
    let report = ft_search(&pipe, &db, 3, faults);
    let ids: Vec<u32> = (0..db.len() as u32).collect();
    let of_1 = &partition(&ids, 3)[1];
    let first_half = &partition(of_1, 2)[0];
    assert!(report.degraded_to_cpu);
    assert_eq!(report.recovery.retries, 1);
    assert_eq!(report.recovery.lost_devices, vec![1, 2, 0]);
    assert_eq!(
        report.recovery.redistributed_seqs,
        of_1.len() + first_half.len()
    );
    assert_eq!(report.result.hits, clean.hits);
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

/// A five-chunk FASTA stream over two K40s under `faults`: the merged
/// report, and `(lost_devices, redistributed_seqs)` of the recovery
/// journal after each chunk.
fn stream_on_two(faults: FaultPlan) -> (Vec<Hit>, bool, Vec<(u64, u64)>) {
    let model = synthetic_model(48, 5, &BuildParams::default());
    let pipe = Pipeline::prepare(&model, PipelineConfig::default(), 5);
    let mut spec = DbGenSpec::envnr_like().scaled(1e-4);
    spec.homolog_fraction = 0.02;
    let db = generate(&spec, Some(&model), 5);
    let text = hmmer3_warp::seqdb::fasta::render(&db);
    let chunks = common::fasta_chunks(&text, db.total_residues() / 4 + 1).unwrap();
    assert_eq!(chunks.len(), 5);
    let injector = FaultInjector::new(faults, 2);
    let pool = FtSweep {
        injector: Some(&injector),
        ..FtSweep::fault_free(2)
    };
    let plan = ExecPlan::Devices {
        dev: DeviceSpec::tesla_k40(),
        pool,
    };
    let trace = Trace::on();
    let journal = |trace: &Trace| {
        let tel = trace.snapshot().unwrap();
        tel.at_path("pipeline/recovery").map_or((0, 0), |rec| {
            (
                rec.counter("lost_devices"),
                rec.counter("redistributed_seqs"),
            )
        })
    };
    let mut after = Vec::new();
    let mut observe = |_: &ChunkProgress| {
        after.push(journal(&trace));
        Ok(())
    };
    let opts = StreamOptions {
        observer: Some(&mut observe),
        ..StreamOptions::default()
    };
    let chunks = chunks.into_iter().map(Ok::<_, StreamError>);
    let report = search_chunks(&pipe, chunks, Some(db.len()), &plan, opts, &trace).unwrap();
    // The observer runs before each chunk: drop the empty journal before
    // the first, add the one after the last.
    after.remove(0);
    after.push(journal(&trace));
    (report.result.hits, report.degraded_to_cpu, after)
}

#[test]
fn a_device_lost_in_one_chunk_stays_lost_for_the_rest_of_the_stream() {
    let (clean, degraded, journal) = stream_on_two(FaultPlan::none());
    assert!(!clean.is_empty(), "fixture must produce hits");
    assert!(!degraded);
    assert_eq!(journal, vec![(0, 0); 5]);

    // Device 1 dies at its first launch: lost once, its share of the
    // first chunk redistributed once, and never launched on again.
    let (hits, degraded, journal) = stream_on_two(FaultPlan::none().kill_device(1, 0));
    let (lost, moved) = journal[0];
    assert_eq!(lost, 1);
    assert!(moved > 0, "the first chunk's work must move");
    assert_eq!(journal, vec![(1, moved); 5]);
    assert!(!degraded);
    assert_eq!(hits, clean);

    // Both die in the first chunk: every later chunk goes straight to
    // the host.
    let both = FaultPlan::none().kill_device(0, 0).kill_device(1, 0);
    let (hits, degraded, journal) = stream_on_two(both);
    assert_eq!(journal, vec![(2, journal[0].1); 5]);
    assert!(degraded);
    assert_eq!(hits, clean);
}
