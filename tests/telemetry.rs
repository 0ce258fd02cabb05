//! Telemetry-consistency suite (DESIGN.md §8): for every `ExecPlan`, the
//! `--profile` span tree must agree with the `StageStats` funnel exactly,
//! and arming the trace must never change a single reported hit.

mod common;

use hmmer3_warp::pipeline::{StageStats, Telemetry};
use hmmer3_warp::prelude::*;

fn setup(m: usize, scale: f64, seed: u64) -> (Pipeline, SeqDb) {
    let model = synthetic_model(m, seed, &BuildParams::default());
    let pipe = Pipeline::prepare(&model, PipelineConfig::default(), seed ^ 1);
    let mut spec = DbGenSpec::envnr_like().scaled(scale);
    spec.homolog_fraction = 0.03;
    let db = generate(&spec, Some(&model), seed ^ 2);
    (pipe, db)
}

/// Assert the telemetry tree of a traced run mirrors its StageStats
/// funnel, then return the telemetry and stages for plan-specific checks.
fn check_consistency(pipe: &Pipeline, db: &SeqDb, plan: &ExecPlan) -> (Telemetry, [StageStats; 3]) {
    // Baseline: profiling off, twice over (search() and an explicitly
    // disarmed trace) — identical hits, no telemetry.
    let plain = pipe.search(db, plan).unwrap();
    let off = pipe.search_traced(db, plan, &Trace::off()).unwrap();
    assert!(off.telemetry.is_none(), "disarmed trace must snapshot None");
    assert_eq!(off.result.hits, plain.hits);

    // Profiling on: bit-identical hits, stage-exact telemetry.
    let trace = Trace::on();
    let report = pipe.search_traced(db, plan, &trace).unwrap();
    assert_eq!(report.result.hits, plain.hits, "profiling changed hits");
    let tel = report.telemetry.expect("armed trace must snapshot");
    for st in &report.result.stages {
        let node = tel
            .at_path(&format!("pipeline/{}", st.name))
            .unwrap_or_else(|| panic!("no telemetry node for stage {:?}", st.name));
        assert_eq!(node.counter("seqs_in"), st.seqs_in as u64, "{}", st.name);
        assert_eq!(node.counter("seqs_out"), st.seqs_out as u64, "{}", st.name);
        assert_eq!(node.counter("residues_in"), st.residues_in, "{}", st.name);
        assert!(node.counter("real_cells") >= st.residues_in, "{}", st.name);
        assert!(
            (node.seconds - st.time_s).abs() <= 1e-12,
            "{}: telemetry {} s vs stats {} s",
            st.name,
            node.seconds,
            st.time_s
        );
    }
    let hits = tel.at_path("pipeline/hits").expect("hits node");
    assert_eq!(hits.counter("reported"), report.result.hits.len() as u64);
    // The whole-run span encloses the stage times.
    let root = tel.at_path("pipeline").expect("pipeline span");
    assert_eq!(root.span_count, 1);
    let staged: f64 = report.result.stages.iter().map(|s| s.time_s).sum();
    assert!(root.seconds >= staged * 0.5, "span should cover the stages");
    (tel, report.result.stages)
}

#[test]
fn cpu_plan_telemetry_matches_stage_stats() {
    let (pipe, db) = setup(60, 2e-4, 11);
    let (tel, _) = check_consistency(&pipe, &db, &ExecPlan::Cpu);
    // The host batch scheduler surfaces its occupancy accounting.
    let batch = tel.at_path("pipeline/batch").expect("batch node");
    assert!(batch.counter("batches") > 0);
    assert!(batch.counter("slot_rows") > 0);
    assert!(batch.counter("slot_rows") <= batch.counter("loop_rows") * 4);
    // The pool node mirrors this search's fan-outs: one child per worker.
    let pool = tel.at_path("pipeline/pool").expect("pool node");
    assert_eq!(pool.counter("workers"), pipe.pool().threads() as u64);
    assert!(pool.counter("tasks") > 0);
    assert!(tel.at_path("pipeline/pool/worker0").is_some());
}

/// Every device-pool shape reports packing, per-stage kernel counters
/// and a clean recovery journal; returns the telemetry for shape-specific
/// checks.
fn check_device_pool(pipe: &Pipeline, db: &SeqDb, plan: &ExecPlan) -> Telemetry {
    let (tel, stages) = check_consistency(pipe, db, plan);
    let pack = tel.at_path("pipeline/pack").expect("pack node");
    assert_eq!(pack.counter("seqs"), db.len() as u64);
    for st in stages.iter().filter(|st| !st.name.ends_with("(host)")) {
        let kernel = tel.at_path(&format!("pipeline/{}/device", st.name));
        let launched = kernel.map_or(0, |k| k.counter("sequences"));
        assert_eq!(launched, st.seqs_in as u64, "{}", st.name);
    }
    let rec = tel.at_path("pipeline/recovery").expect("recovery node");
    let faults = ["retries", "lost_devices", "cpu_fallbacks"].map(|c| rec.counter(c));
    assert_eq!(faults, [0; 3]);
    tel
}

/// The `Device` shorthand: a pool of one K40.
#[test]
fn device_plan_telemetry_matches_stage_stats() {
    let (pipe, db) = setup(60, 2e-4, 12);
    let dev = DeviceSpec::tesla_k40();
    let tel = check_device_pool(&pipe, &db, &ExecPlan::Device { dev });
    let kernel = tel
        .at_path("pipeline/MSV (GPU)/device")
        .expect("device counters");
    assert_eq!(kernel.counter("sequences"), db.len() as u64);
    assert!(kernel.counter("rows") > 0);
    assert!(kernel.counter("shuffles") > 0);
}

/// One Fermi with Forward on the device.
#[test]
fn device_full_plan_telemetry_matches_stage_stats() {
    let (pipe, db) = setup(60, 2e-4, 13);
    let pool = FtSweep {
        forward_on_device: true,
        ..FtSweep::fault_free(1)
    };
    let dev = DeviceSpec::gtx_580();
    check_device_pool(&pipe, &db, &ExecPlan::Devices { dev, pool });
}

/// Three fault-free K40s.
#[test]
fn fault_free_ft_plan_reports_clean_recovery_counters() {
    let (pipe, db) = setup(60, 2e-4, 14);
    let dev = DeviceSpec::tesla_k40();
    let pool = FtSweep::fault_free(3);
    check_device_pool(&pipe, &db, &ExecPlan::Devices { dev, pool });
}

#[test]
fn injected_faults_surface_in_recovery_counters() {
    let (pipe, db) = setup(60, 2e-4, 15);
    let dev = DeviceSpec::tesla_k40();
    let clean = pipe.search(&db, &ExecPlan::Cpu).unwrap();

    // One device dies after its first launch: retries + a lost device.
    let inj = FaultInjector::new(FaultPlan::none().kill_device(1, 1), 4);
    let trace = Trace::on();
    let report = pipe
        .search_traced(
            &db,
            &ExecPlan::Devices {
                dev: dev.clone(),
                pool: FtSweep {
                    injector: Some(&inj),
                    ..FtSweep::fault_free(4)
                },
            },
            &trace,
        )
        .unwrap();
    assert_eq!(report.result.hits, clean.hits);
    let tel = report.telemetry.unwrap();
    let rec = tel.at_path("pipeline/recovery").expect("recovery node");
    assert_eq!(rec.counter("retries"), report.recovery.retries as u64);
    assert_eq!(
        rec.counter("redistributed_seqs"),
        report.recovery.redistributed_seqs as u64
    );
    assert!(
        rec.counter("redistributed_seqs") >= 1,
        "a dead device's work must be redistributed"
    );
    assert_eq!(rec.counter("lost_devices"), 1);
    assert_eq!(rec.counter("cpu_fallbacks"), 0);

    // Total device loss: the run degrades to the CPU path and says so.
    let plan = FaultPlan::none().kill_device(0, 0).kill_device(1, 1);
    let inj = FaultInjector::new(plan, 2);
    let trace = Trace::on();
    let report = pipe
        .search_traced(
            &db,
            &ExecPlan::Devices {
                dev,
                pool: FtSweep {
                    injector: Some(&inj),
                    ..FtSweep::fault_free(2)
                },
            },
            &trace,
        )
        .unwrap();
    assert!(report.degraded_to_cpu);
    assert_eq!(report.result.hits, clean.hits);
    let tel = report.telemetry.unwrap();
    let rec = tel.at_path("pipeline/recovery").expect("recovery node");
    assert_eq!(rec.counter("lost_devices"), 2);
    assert_eq!(rec.counter("cpu_fallbacks"), 1);
}

#[test]
fn chunked_traced_search_accumulates_the_whole_database() {
    let (pipe, db) = setup(60, 3e-4, 16);
    let single = pipe.search(&db, &ExecPlan::Cpu).unwrap();

    let text = hmmer3_warp::seqdb::fasta::render(&db);
    let cap = db.total_residues() / 3 + 1;
    let chunks: Vec<SeqDb> = common::fasta_chunks(&text, cap).unwrap();
    assert!(
        chunks.len() > 1,
        "workload should split into several chunks"
    );

    let trace = Trace::on();
    let merged = hmmer3_warp::pipeline::search_chunks(
        &pipe,
        chunks
            .into_iter()
            .map(Ok::<_, hmmer3_warp::pipeline::StreamError>),
        Some(db.len()),
        &ExecPlan::Cpu,
        hmmer3_warp::pipeline::StreamOptions::default(),
        &trace,
    )
    .unwrap()
    .result;
    assert_eq!(merged.hits.len(), single.hits.len());
    let tel = trace.snapshot().expect("trace armed");

    // Counters are monotonic, so the per-chunk funnels sum to the whole
    // database in one tree.
    let stage0 = tel
        .at_path(&format!("pipeline/{}", merged.stages[0].name))
        .expect("stage-1 node");
    assert_eq!(stage0.counter("seqs_in"), db.len() as u64);
    assert_eq!(stage0.counter("residues_in"), db.total_residues());
    let hits = tel.at_path("pipeline/hits").expect("hits node");
    assert_eq!(hits.counter("reported"), merged.hits.len() as u64);

    // The funnel table renders every visited stage.
    let table = tel.render_funnel();
    for st in &merged.stages {
        assert!(table.contains(&st.name), "funnel table missing {}", st.name);
    }
}

#[test]
fn telemetry_json_round_trips_the_funnel_counts() {
    let (pipe, db) = setup(50, 1e-4, 17);
    let trace = Trace::on();
    let report = pipe.search_traced(&db, &ExecPlan::Cpu, &trace).unwrap();
    let json = report.telemetry.unwrap().to_json();
    // Spot-check the JSON serialization carries the exact funnel counts
    // (the CLI's --profile-json contract).
    assert!(json.contains("\"pipeline\""));
    assert!(json.contains(&format!("\"seqs_in\": {}", report.result.stages[0].seqs_in)));
    assert!(json.contains(&format!("\"reported\": {}", report.result.hits.len())));
}
