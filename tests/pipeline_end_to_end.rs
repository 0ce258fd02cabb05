//! End-to-end pipeline invariants across the whole workspace.

mod common;

use common::lattice::{check, Plan, Point};
use hmmer3_warp::cpu::Backend;
use hmmer3_warp::prelude::*;

fn setup(m: usize, hom: f64, scale: f64, seed: u64) -> (Pipeline, SeqDb) {
    let model = synthetic_model(m, seed, &BuildParams::default());
    let pipe = Pipeline::prepare(&model, PipelineConfig::default(), seed ^ 1);
    let mut spec = DbGenSpec::swissprot_like().scaled(scale);
    spec.homolog_fraction = hom;
    let db = generate(&spec, Some(&model), seed ^ 2);
    (pipe, db)
}

/// Bit-exact filters: the simulated Kepler and Fermi devices report the
/// CPU plan's hits and funnel (named points of `common::lattice`).
#[test]
fn cpu_and_gpu_pipelines_are_hit_identical() {
    for plan in [Plan::K40, Plan::GTX580] {
        check(&Point {
            m: 70,
            seed: 41,
            plan,
            ..Point::default()
        });
    }
}

/// The reference configuration itself, searched twice.
#[test]
fn pipeline_is_deterministic() {
    check(&Point {
        m: 50,
        seed: 42,
        backend: Backend::Scalar,
        ..Point::default()
    });
}

#[test]
fn filters_lose_nothing_vs_max_sensitivity_at_report_thresholds() {
    // HMMER's design claim: the default filter cascade does not drop
    // anything the full Forward pipeline would confidently report.
    let model = synthetic_model(60, 43, &BuildParams::default());
    let filtered = Pipeline::prepare(&model, PipelineConfig::default(), 5);
    let maxs = Pipeline::prepare(&model, PipelineConfig::max_sensitivity(), 5);
    let mut spec = DbGenSpec::envnr_like().scaled(3e-4);
    spec.homolog_fraction = 0.02;
    let db = generate(&spec, Some(&model), 44);
    let a = filtered.search(&db, &ExecPlan::Cpu).unwrap();
    let b = maxs.search(&db, &ExecPlan::Cpu).unwrap();
    // Every *strong* hit of the unfiltered pipeline is found by the
    // filtered one (weak borderline hits near the f3 threshold may differ,
    // as in HMMER itself).
    let filtered_ids: Vec<u32> = a.hits.iter().map(|h| h.seqid).collect();
    for h in b.hits.iter().filter(|h| h.evalue < 1e-6) {
        assert!(
            filtered_ids.contains(&h.seqid),
            "strong hit {} (E={:.2e}) lost by the filters",
            h.name,
            h.evalue
        );
    }
}

#[test]
fn evalues_scale_with_database_size() {
    let (pipe, db) = setup(60, 0.05, 1e-4, 45);
    let res = pipe.search(&db, &ExecPlan::Cpu).unwrap();
    for h in &res.hits {
        let expect = h.pvalue * db.len() as f64;
        assert!((h.evalue - expect).abs() <= 1e-12 * expect.max(1.0));
    }
    // Hits are sorted ascending by E-value.
    for w in res.hits.windows(2) {
        assert!(w[0].evalue <= w[1].evalue);
    }
}

#[test]
fn stage_times_and_residue_workloads_are_monotone() {
    let (pipe, db) = setup(80, 0.02, 2e-4, 46);
    let res = pipe.search(&db, &ExecPlan::Cpu).unwrap();
    // Workload funnel: each stage sees at most the previous stage's
    // residues.
    assert_eq!(res.stages[0].residues_in, db.total_residues());
    assert!(res.stages[1].residues_in <= res.stages[0].residues_in);
    assert!(res.stages[2].residues_in <= res.stages[1].residues_in);
    // Sequence funnel likewise.
    assert!(res.stages[0].seqs_out <= res.stages[0].seqs_in);
    assert_eq!(res.stages[1].seqs_in, res.stages[0].seqs_out);
    assert_eq!(res.stages[2].seqs_in, res.stages[1].seqs_out);
}
