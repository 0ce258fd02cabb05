//! Acceptance tests for fault-tolerant sweep orchestration, driven
//! entirely through the public API (`hmmer3_warp::prelude`).
//!
//! The contract under test: injected device faults — transient launch
//! failures, kernel timeouts, and fatal device loss up to and including
//! *every* device — never change the reported hits or the funnel
//! counters. Recovery (retry, redistribution to survivors, CPU
//! degradation) must be invisible in the results, and a killed
//! checkpointed sweep must resume to bit-identical output.

mod common;

use common::{fasta_chunks, sweep_chunks};
use hmmer3_warp::pipeline::SearchReport;
use hmmer3_warp::prelude::*;
use hmmer3_warp::seqdb::{content_hash, fasta};

fn fixture() -> (Pipeline, SeqDb) {
    let model = synthetic_model(70, 11, &BuildParams::default());
    let pipe = Pipeline::prepare(&model, PipelineConfig::default(), 0x5_eac4);
    let mut spec = DbGenSpec::envnr_like().scaled(2e-4);
    spec.homolog_fraction = 0.02;
    let db = generate(&spec, Some(&model), 9);
    (pipe, db)
}

/// One fault-tolerant search through the driver every plan shares.
fn ft_search(pipe: &Pipeline, db: &SeqDb, dev: &DeviceSpec, sweep: &FtSweep) -> SearchReport {
    let plan = ExecPlan::FaultTolerant {
        dev: dev.clone(),
        sweep: *sweep,
    };
    pipe.search_traced(db, &plan, &Pipeline::env_trace())
        .unwrap()
}

/// Funnel counters, excluding wall time (which legitimately varies).
fn funnel(r: &hmmer3_warp::pipeline::PipelineResult) -> Vec<(String, usize, usize, u64)> {
    r.stages
        .iter()
        .map(|s| (s.name.clone(), s.seqs_in, s.seqs_out, s.residues_in))
        .collect()
}

#[test]
fn one_of_four_devices_dies_mid_sweep_without_changing_results() {
    let (pipe, db) = fixture();
    let dev = DeviceSpec::tesla_k40();
    let clean = ft_search(&pipe, &db, &dev, &FtSweep::fault_free(4));
    assert!(!clean.result.hits.is_empty(), "fixture must produce hits");

    // Device 2 is lost on its second kernel launch — mid-sweep, with work
    // already done and more still queued on it.
    let inj = FaultInjector::new(FaultPlan::none().kill_device(2, 1), 4);
    let sweep = FtSweep {
        n_devices: 4,
        policy: RetryPolicy::no_wait(),
        injector: Some(&inj),
    };
    let faulted = ft_search(&pipe, &db, &dev, &sweep);

    assert_eq!(faulted.recovery.lost_devices, vec![2]);
    assert!(faulted.recovery.redistributed_seqs > 0, "work must move");
    assert!(!faulted.degraded_to_cpu);
    assert_eq!(faulted.result.hits, clean.result.hits);
    assert_eq!(funnel(&faulted.result), funnel(&clean.result));
}

#[test]
fn losing_every_device_degrades_to_cpu_bit_identically() {
    let (pipe, db) = fixture();
    let dev = DeviceSpec::tesla_k40();
    let clean = ft_search(&pipe, &db, &dev, &FtSweep::fault_free(2));

    let plan = FaultPlan::none().kill_device(0, 0).kill_device(1, 1);
    let inj = FaultInjector::new(plan, 2);
    let sweep = FtSweep {
        n_devices: 2,
        policy: RetryPolicy::no_wait(),
        injector: Some(&inj),
    };
    let report = ft_search(&pipe, &db, &dev, &sweep);

    assert!(report.degraded_to_cpu);
    assert_eq!(report.recovery.lost_devices.len(), 2);
    assert_eq!(report.result.hits, clean.result.hits);
    assert_eq!(funnel(&report.result), funnel(&clean.result));
}

#[test]
fn transient_fault_storms_are_retried_without_score_drift() {
    let (pipe, db) = fixture();
    let dev = DeviceSpec::tesla_k40();
    let clean = ft_search(&pipe, &db, &dev, &FtSweep::fault_free(3));

    // Several transient faults spread over devices and launches; each is
    // retryable and must be absorbed by the policy without escalating.
    let plan = FaultPlan::none()
        .transient(0, 0, FaultKind::LaunchTransient, 1)
        .transient(1, 1, FaultKind::KernelTimeout, 1)
        .transient(2, 0, FaultKind::LaunchTransient, 1);
    let inj = FaultInjector::new(plan, 3);
    let sweep = FtSweep {
        n_devices: 3,
        policy: RetryPolicy::no_wait(),
        injector: Some(&inj),
    };
    let report = ft_search(&pipe, &db, &dev, &sweep);

    assert!(
        report.recovery.retries >= 3,
        "retries: {}",
        report.recovery.retries
    );
    assert!(report.recovery.lost_devices.is_empty());
    assert!(!report.degraded_to_cpu);
    assert_eq!(report.result.hits, clean.result.hits);
    assert_eq!(funnel(&report.result), funnel(&clean.result));
}

#[test]
fn device_count_does_not_change_results() {
    let (pipe, db) = fixture();
    let dev = DeviceSpec::tesla_k40();
    let base = ft_search(&pipe, &db, &dev, &FtSweep::fault_free(1));
    for n in [2, 5] {
        let more = ft_search(&pipe, &db, &dev, &FtSweep::fault_free(n));
        assert_eq!(more.result.hits, base.result.hits, "n_devices = {n}");
        assert_eq!(funnel(&more.result), funnel(&base.result));
    }
}

#[test]
fn killed_and_resumed_checkpointed_sweep_reports_identical_hits() {
    let (pipe, db) = fixture();
    let text = fasta::render(&db);
    let chunks: Vec<SeqDb> = fasta_chunks(&text, 12_000).unwrap();
    assert!(
        chunks.len() >= 3,
        "need several chunks, got {}",
        chunks.len()
    );
    let baseline = sweep_chunks(&pipe, chunks.clone(), db.len(), &ExecPlan::Cpu, None).unwrap();

    let dir = std::env::temp_dir().join(format!("h3w-ft-accept-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("sweep.ckpt");
    let _ = std::fs::remove_file(&ckpt);

    // Simulate a kill after the first chunk: feed only a prefix of the
    // chunk stream, leaving the checkpoint behind.
    let prefix: Vec<SeqDb> = chunks.iter().take(1).cloned().collect();
    sweep_chunks(
        &pipe,
        prefix,
        db.len(),
        &ExecPlan::Cpu,
        Some((&ckpt, content_hash(&db))),
    )
    .unwrap();
    let saved = StreamCheckpoint::load(&ckpt).unwrap();
    assert_eq!(saved.chunks_done, 1);

    // Restart with the full stream; the resumed sweep must be
    // bit-identical to an uninterrupted one.
    let resumed = sweep_chunks(
        &pipe,
        chunks,
        db.len(),
        &ExecPlan::Cpu,
        Some((&ckpt, content_hash(&db))),
    )
    .unwrap();
    assert_eq!(resumed.hits, baseline.hits);
    assert_eq!(funnel(&resumed), funnel(&baseline));

    let _ = std::fs::remove_dir_all(&dir);
}
