//! The paper's quantitative and structural claims, asserted as tests
//! (scaled workloads; the figure harnesses in `crates/bench` produce the
//! full-size numbers recorded in EXPERIMENTS.md).

use hmmer3_warp::core::layout::{best_config, Stage};
use hmmer3_warp::core::multi_gpu::partition;
use hmmer3_warp::core::stats_model::DbAggregates;
use hmmer3_warp::core::tiered::{auto_mem_config, model_stage_time, run_msv_device, Effort};
use hmmer3_warp::prelude::*;
use hmmer3_warp::simt::OccLimit;

fn nominal_agg() -> DbAggregates {
    DbAggregates {
        n_seqs: 1_000_000,
        total_residues: 200_000_000,
        total_words: 34_000_000,
        code_rows: [200_000_000 / 26; 26],
    }
}

/// §IV: "device occupancy is 100% for models of size less than 400"
/// (MSV, shared config, Kepler).
#[test]
fn claim_msv_full_occupancy_below_400() {
    let dev = DeviceSpec::tesla_k40();
    for m in [48, 100, 200, 399] {
        let (_, occ) = best_config(Stage::Msv, m, MemConfig::Shared, &dev).unwrap();
        assert!(occ.occupancy >= 0.99, "m={m}: {}", occ.occupancy);
    }
}

/// §IV: "the optimal speedup strategy would switch between shared and
/// global memory configurations based on a threshold of size 1002 for
/// MSV" — shared wins at and below 1002, global above.
#[test]
fn claim_msv_config_switch_near_1002() {
    let dev = DeviceSpec::tesla_k40();
    let agg = nominal_agg();
    for m in [200usize, 400, 800] {
        assert_eq!(
            auto_mem_config(Stage::Msv, m, &dev, &agg),
            Some(MemConfig::Shared),
            "m={m}"
        );
    }
    for m in [1528usize, 2405] {
        assert_eq!(
            auto_mem_config(Stage::Msv, m, &dev, &agg),
            Some(MemConfig::Global),
            "m={m}"
        );
    }
}

/// §IV: P7Viterbi "device peak occupancy is limited to 50%" with
/// "available registers per SM/SMX ... main limiting factor", and
/// occupancy "decreases rapidly for models of size greater than 200".
#[test]
fn claim_viterbi_register_cap_and_decay() {
    let dev = DeviceSpec::tesla_k40();
    let (_, small) = best_config(Stage::Viterbi, 48, MemConfig::Shared, &dev).unwrap();
    assert!((small.occupancy - 0.5).abs() < 0.02);
    assert_eq!(small.limit, OccLimit::Registers);
    let occ_of = |m| {
        [MemConfig::Shared, MemConfig::Global]
            .into_iter()
            .filter_map(|mem| best_config(Stage::Viterbi, m, mem, &dev))
            .map(|(_, o)| o.occupancy)
            .fold(0.0f64, f64::max)
    };
    assert!(occ_of(400) < occ_of(200));
    assert!(occ_of(800) < 0.30);
}

/// §IV-A: multi-GPU scaling is "almost linear" (Fermi, 4 devices), under
/// Fig. 11's even split: each device times a quarter of the aggregates
/// (modelled, unvalidated: EXPERIMENTS E22).
#[test]
fn claim_multi_gpu_near_linear() {
    let dev = DeviceSpec::gtx_580();
    let time = |agg: &DbAggregates| {
        let mem = auto_mem_config(Stage::Msv, 400, &dev, agg).unwrap();
        let modelled = model_stage_time(Stage::Msv, 400, &dev, mem, agg, &Effort::default());
        modelled.unwrap().2.total_s
    };
    let agg = nominal_agg();
    let s = time(&agg) / time(&agg.scaled(0.25));
    assert!(s > 3.5 && s < 4.1, "scaling {s}");
}

/// §IV-A: the Fermi path works without shuffles (shared-memory
/// reductions) and still produces identical scores.
#[test]
fn claim_fermi_portability() {
    let model = synthetic_model(64, 580, &BuildParams::default());
    let bg = NullModel::new();
    let p = Profile::config(&model, &bg);
    let msv = MsvProfile::from_profile(&p);
    let db = generate(&DbGenSpec::envnr_like().scaled(5e-6), Some(&model), 3);
    let packed = PackedDb::from_db(&db);
    let kepler = run_msv_device(&msv, &packed, &DeviceSpec::tesla_k40(), None).unwrap();
    let fermi = run_msv_device(&msv, &packed, &DeviceSpec::gtx_580(), None).unwrap();
    assert_eq!(fermi.run.stats.shuffles, 0);
    assert!(kepler.run.stats.shuffles > 0);
    for (a, b) in kepler.hits.iter().zip(&fermi.hits) {
        assert_eq!(a.xj, b.xj);
    }
}

/// §II / Fig. 1: on a background-dominated database with HMMER3 default
/// thresholds, ≈ 2% of sequences pass MSV and ≈ 0.1% pass Viterbi.
#[test]
fn claim_pipeline_funnel_rates() {
    let model = synthetic_model(120, 99, &BuildParams::default());
    let pipe = Pipeline::prepare(&model, PipelineConfig::default(), 9);
    let spec = DbGenSpec::envnr_like().scaled(1.2e-3); // ≈ 7.9 K seqs, hom 0.05%
    let db = generate(&spec, Some(&model), 10);
    let res = pipe.search(&db, &ExecPlan::Cpu).unwrap();
    let funnel = res.funnel();
    assert!(
        funnel[1] > 0.008 && funnel[1] < 0.05,
        "MSV pass {:.3}% should be near 2%",
        funnel[1] * 100.0
    );
    assert!(
        funnel[2] < 0.01,
        "Viterbi pass {:.3}% should be near 0.1%",
        funnel[2] * 100.0
    );
}

/// Partitioning preserves the database exactly: every sequence lands on
/// exactly one device, and one device gets it in order.
#[test]
fn claim_partition_is_exact_cover() {
    let model = synthetic_model(30, 7, &BuildParams::default());
    let db = generate(&DbGenSpec::swissprot_like().scaled(1e-4), Some(&model), 8);
    let all: Vec<u32> = (0..db.len() as u32).collect();
    assert_eq!(partition(&all, 1), std::slice::from_ref(&all));
    for n in [2usize, 4, 7] {
        let mut ids: Vec<u32> = partition(&all, n).concat();
        ids.sort_unstable();
        assert_eq!(ids, all, "{n} devices");
    }
}
