//! Multi-query search — scan a database with many models (hmmscan-style)
//! in one **fused** sweep that amortizes the database traversal over
//! every model.
//!
//! This is the workload §IV's Pfam statistics are about: "about 98.9% of
//! Pfam database have size less than 1002", so a family sweep spends
//! nearly all of its time in configurations where small-model packing
//! pays (the CUDAMPF++ shape: pack several profiles into one pass to
//! exhaust execution resources). The fused path runs on the CPU tier:
//! models are binned by stripe count ([`h3w_cpu::model_packs`]), the byte
//! filters score every (model, sequence) pair in one pass over the
//! database ([`h3w_cpu::msv_multi_outcomes`]), and each model's survivor
//! id list — thresholded by the same `Pipeline::survivors` step a
//! single-model search uses, with the model's own calibration — is
//! concatenated with the others into one flat (model, sequence) task
//! list per late stage, on one scan-level pool. Hits, E-values, and
//! funnel counts are **bit-identical** to running [`Pipeline::search`]
//! once per model — the fused path is a pure throughput optimization.
//!
//! [`scan`] is the one-shot entry (`hmmscan`): [`prepare_scan`], then
//! [`scan_prepared`] fused, plus the per-family telemetry. A resident
//! service prepares once and calls [`scan_prepared`] many times; its
//! `fused = false` arm runs one independent [`Pipeline::search`] per
//! model, the shape the fused sweep must reproduce.
//! [`best_hits_per_target`] inverts results to the hmmscan view (for each
//! target, which families match?).

use crate::config::{ConfigError, PipelineConfig};
use crate::report::{Hit, StageStats};
use crate::run::{ExecPlan, Pipeline};
use h3w_core::fault::SweepError;
use h3w_cpu::{
    fused_pack_width, model_pack_stats, msv_multi_outcomes, FwdWorkspace, PoolHandle, StripedMsv,
    ThreadPool, VitWorkspace,
};
use h3w_hmm::alphabet::Residue;
use h3w_hmm::msvprofile::MsvProfile;
use h3w_hmm::plan7::CoreModel;
use h3w_seqdb::SeqDb;
use h3w_trace::{Telemetry, Trace};
use std::time::Instant;

/// Why a multi-model [`scan`] failed.
#[derive(Debug)]
pub enum ScanError {
    /// A per-model sweep failed.
    Sweep(SweepError),
    /// The configuration was rejected (bad thresholds or thread count).
    Config(ConfigError),
}

impl std::fmt::Display for ScanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScanError::Sweep(e) => write!(f, "family sweep failed: {e}"),
            ScanError::Config(e) => write!(f, "scan configuration rejected: {e}"),
        }
    }
}

impl std::error::Error for ScanError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScanError::Sweep(e) => Some(e),
            ScanError::Config(e) => Some(e),
        }
    }
}

impl From<SweepError> for ScanError {
    fn from(e: SweepError) -> Self {
        ScanError::Sweep(e)
    }
}

impl From<ConfigError> for ScanError {
    fn from(e: ConfigError) -> Self {
        ScanError::Config(e)
    }
}

/// Hits of one query model against the database.
#[derive(Debug, Clone)]
pub struct FamilyResult {
    /// Model name.
    pub family: String,
    /// Model length.
    pub m: usize,
    /// Reported hits (best E-value first).
    pub hits: Vec<Hit>,
    /// Funnel: sequences passing (MSV, Viterbi).
    pub passed: (usize, usize),
    /// The full three-stage funnel record. Counts are per family; on the
    /// fused path the stage times are the fused sweep's aggregate wall
    /// time (one traversal serves every family, so per-family time has no
    /// meaningful attribution).
    pub stages: Vec<StageStats>,
}

/// A family match from the per-target view.
#[derive(Debug, Clone, PartialEq)]
pub struct TargetMatch {
    /// Family (model) name.
    pub family: String,
    /// Forward score in nats.
    pub score: f32,
    /// E-value against this database.
    pub evalue: f64,
}

/// A completed [`scan`]: per-family results plus the telemetry snapshot
/// when the trace was armed.
#[derive(Debug)]
pub struct ScanReport {
    /// Per-family results, in model order.
    pub results: Vec<FamilyResult>,
    /// The scan telemetry tree (`None` when the trace was disabled).
    pub telemetry: Option<Telemetry>,
}

/// Search every model against the database on the fused CPU path: one
/// pass over the database feeds every model (see the module docs).
/// Results come back in model order regardless of thread count, and are
/// bit-identical to per-model [`Pipeline::search`] runs at every pack
/// width, backend, and pool size. With an armed `trace` (`hmmscan
/// --profile`) per-family funnel counters land under
/// `scan/families/<name>` and the model-packing schedule under
/// `scan/packs`; tracing never changes scores or hits.
pub fn scan(
    models: &[CoreModel],
    db: &SeqDb,
    config: PipelineConfig,
    seed: u64,
    trace: &Trace,
) -> Result<ScanReport, ScanError> {
    config.validate()?;
    let whole = trace.span("scan");
    let pipes = prepare_scan(models, config, seed);
    let results = scan_prepared(&pipes, db, config, true, trace)?;
    if trace.is_on() {
        for fr in &results {
            let base = format!("scan/families/{}", fr.family);
            trace.add(&base, "m", fr.m as u64);
            trace.add(&base, "hits", fr.hits.len() as u64);
            for st in &fr.stages {
                let path = format!("{base}/{}", st.name);
                trace.add(&path, "seqs_in", st.seqs_in as u64);
                trace.add(&path, "seqs_out", st.seqs_out as u64);
                trace.add(&path, "residues_in", st.residues_in);
                trace.add_secs(&path, st.time_s);
            }
        }
    }
    drop(whole);
    Ok(ScanReport {
        results,
        telemetry: trace.snapshot(),
    })
}

/// Prepare one pipeline per model under the scan conventions: the
/// per-model seed split (`seed ^ (qi << 17)`) and
/// `threads: 0` so the pipes defer to whichever pool the scan fans out
/// on instead of spawning their own. Preparation — Gumbel calibration —
/// is the expensive once-per-model half of a scan; resident services
/// prepare a model library once and [`scan_prepared`] with it many
/// times. The fan-out is over models: each model's calibration sweeps,
/// pooled when a pipeline is prepared on its own, run inline on the
/// worker that took the model (the pool never nests). Calibration cost
/// grows with the model and the pool shards indices contiguously, so the
/// models are dispatched largest first (ties by index): a library sorted
/// by size would otherwise start its largest model last and finish it
/// alone. Seeds are keyed on the model's own index, so the order changes
/// no `Calibration` bit.
pub fn prepare_scan(models: &[CoreModel], config: PipelineConfig, seed: u64) -> Vec<Pipeline> {
    let pipe_cfg = PipelineConfig {
        threads: 0,
        ..config
    };
    let mut order: Vec<usize> = (0..models.len()).collect();
    order.sort_by_key(|&qi| std::cmp::Reverse(models[qi].len()));
    let prepared = ThreadPool::global().map_collect(order.len(), |j| {
        let qi = order[j];
        Pipeline::prepare(&models[qi], pipe_cfg, seed ^ ((qi as u64) << 17))
    });
    let mut pipes: Vec<Option<Pipeline>> = models.iter().map(|_| None).collect();
    for (qi, pipe) in order.into_iter().zip(prepared) {
        pipes[qi] = Some(pipe);
    }
    pipes
        .into_iter()
        .map(|p| p.expect("order is a permutation of the model indices"))
        .collect()
}

/// Scan the database with pipelines built by [`prepare_scan`], skipping
/// the per-call calibration cost. `fused = true` drives the one-traversal
/// fused sweep; `fused = false` fans independent per-pipe searches across
/// the global pool. `config` must be the config the pipes were prepared
/// with (its thresholds and thread count are read from it). The first failing
/// model of the unfused arm (in model order — deterministic at every
/// thread count) reports its error.
pub fn scan_prepared(
    pipes: &[Pipeline],
    db: &SeqDb,
    config: PipelineConfig,
    fused: bool,
    trace: &Trace,
) -> Result<Vec<FamilyResult>, ScanError> {
    config.validate()?;
    if fused {
        Ok(scan_fused(pipes, db, config, trace))
    } else {
        let results: Vec<Result<FamilyResult, SweepError>> =
            ThreadPool::global().map_collect(pipes.len(), |qi| {
                let res = pipes[qi].search(db, &ExecPlan::Cpu)?;
                Ok(FamilyResult {
                    family: pipes[qi].profile.name.clone(),
                    m: pipes[qi].profile.m,
                    passed: (res.stages[0].seqs_out, res.stages[1].seqs_out),
                    stages: res.stages.to_vec(),
                    hits: res.hits,
                })
            });
        let collected: Result<Vec<FamilyResult>, SweepError> = results.into_iter().collect();
        Ok(collected?)
    }
}

/// The fused CPU path over prepared pipelines: drive the three funnel
/// stages over flattened (model, sequence) work items so each stage is
/// one pool fan-out for the whole scan instead of one per model.
///
/// Equivalence to per-model `search` holds stage by stage: stage 1 is
/// the fused multi-profile byte sweep (bit-identical to the per-model
/// batched sweep — slots are independent), stages 2 and 3 run the same
/// per-sequence kernels the host stages run, and the survivor lists come
/// from the same thresholding step with each model's own calibration.
fn scan_fused(
    pipes: &[Pipeline],
    db: &SeqDb,
    config: PipelineConfig,
    trace: &Trace,
) -> Vec<FamilyResult> {
    let n = db.len();
    let scan_pool = PoolHandle::with_threads(config.threads);
    let pool = scan_pool.pool();
    // One late stage: every model's survivor list concatenated,
    // model-major, into one flat (model, sequence) task list (the
    // deterministic list the fan-out runs on), and the scores handed
    // back per model, aligned with that model's list.
    fn fan_out<W: Send>(
        pool: &ThreadPool,
        pipes: &[Pipeline],
        db: &SeqDb,
        ids: &[Vec<u32>],
        workspace: impl Fn() -> W + Sync,
        score: impl Fn(&Pipeline, &[Residue], &mut W) -> f32 + Sync,
    ) -> Vec<Vec<f32>> {
        let tasks: Vec<(usize, u32)> = ids
            .iter()
            .enumerate()
            .flat_map(|(m, ids)| ids.iter().map(move |&i| (m, i)))
            .collect();
        let mut flat = pool
            .map_collect_init(tasks.len(), workspace, |ws, k| {
                let (m, i) = tasks[k];
                score(&pipes[m], &db.seqs[i as usize].residues, ws)
            })
            .into_iter();
        ids.iter()
            .map(|ids| flat.by_ref().take(ids.len()).collect())
            .collect()
    }

    // Stage 1: every model against every sequence in one DB traversal.
    let t0 = Instant::now();
    let refs: Vec<(&StripedMsv, &MsvProfile)> =
        pipes.iter().map(|p| (&p.striped_msv, &p.msv)).collect();
    let msv_scores: Vec<Vec<f32>> = msv_multi_outcomes(pool, &refs, &db.seqs, 0)
        .iter()
        .map(|per_seq| per_seq.iter().map(|o| o.score).collect())
        .collect();
    let ids1: Vec<Vec<u32>> = pipes
        .iter()
        .zip(&msv_scores)
        .map(|(pipe, scores)| {
            let pvalue = |s, len| pipe.msv_pvalue(s, len);
            Pipeline::survivors(db, 0..n as u32, scores, pvalue, config.f1).0
        })
        .collect();
    let msv_time = t0.elapsed().as_secs_f64();

    // Stage 2: Viterbi over every model's stage-1 survivors.
    let t1 = Instant::now();
    let vit_scores = fan_out(
        pool,
        pipes,
        db,
        &ids1,
        VitWorkspace::default,
        |pipe, seq, ws| pipe.striped_vit.run_into(&pipe.vit, seq, ws).0.score,
    );
    let (ids2, vit_scores): (Vec<Vec<u32>>, Vec<Vec<f32>>) = pipes
        .iter()
        .zip(ids1.iter().zip(&vit_scores))
        .map(|(pipe, (ids, scores))| {
            let pvalue = |s, len| pipe.vit_pvalue(s, len);
            Pipeline::survivors(db, ids.iter().copied(), scores, pvalue, config.f2)
        })
        .unzip();
    let vit_time = t1.elapsed().as_secs_f64();

    // Stage 3: Forward over the remainder, same flattened shape. The
    // striped odds-space kernel scores a slot identically at any batch
    // width, so single-pair scoring here matches `search`'s batched
    // sweep bit for bit.
    let t2 = Instant::now();
    let fwd_scores = fan_out(
        pool,
        pipes,
        db,
        &ids2,
        FwdWorkspace::default,
        |pipe, seq, ws| pipe.striped_fwd.run_into(&pipe.profile, seq, ws),
    );
    let fwd_time = t2.elapsed().as_secs_f64();

    if trace.is_on() {
        if let Some(first) = pipes.first() {
            let qs: Vec<usize> = pipes.iter().map(|p| p.striped_msv.active_q()).collect();
            let width = first.backend().preferred_batch_width();
            let pack_width = fused_pack_width(pool.threads(), width);
            let stats = model_pack_stats(&qs, pack_width);
            trace.add("scan/packs", "models", stats.models);
            trace.add("scan/packs", "packs", stats.packs);
            trace.add("scan/packs", "width", stats.width as u64);
            trace.add("scan/packs", "slots", stats.slots);
            trace.add("scan/packs", "workers", pool.threads() as u64);
        }
        let pairs = |ids: &[Vec<u32>]| ids.iter().map(Vec::len).sum::<usize>() as u64;
        trace.add("scan/stages", "vit_pairs", pairs(&ids1));
        trace.add("scan/stages", "fwd_pairs", pairs(&ids2));
    }

    // Assemble per family through the same hit assembly `search` uses.
    pipes
        .iter()
        .enumerate()
        .map(|(mi, pipe)| {
            let (n1, n2) = (ids1[mi].len(), ids2[mi].len());
            let stages = [
                StageStats::new("MSV", n, n1, msv_time).with_residues(db.total_residues()),
                StageStats::new("P7Viterbi", n1, n2, vit_time)
                    .with_residues(Pipeline::residues_of(db, &ids1[mi])),
                StageStats::new("Forward", n2, n2, fwd_time)
                    .with_residues(Pipeline::residues_of(db, &ids2[mi])),
            ];
            let res = pipe.assemble(
                db,
                &msv_scores[mi],
                &ids2[mi],
                &vit_scores[mi],
                &fwd_scores[mi],
                stages,
            );
            FamilyResult {
                family: pipe.profile.name.clone(),
                m: pipe.profile.m,
                passed: (n1, n2),
                stages: res.stages.to_vec(),
                hits: res.hits,
            }
        })
        .collect()
}

/// Invert family results into the per-target view: for each target that
/// matched anything, the families that hit it, best first.
pub fn best_hits_per_target(results: &[FamilyResult]) -> Vec<(u32, Vec<TargetMatch>)> {
    use std::collections::BTreeMap;
    let mut by_target: BTreeMap<u32, Vec<TargetMatch>> = BTreeMap::new();
    for fr in results {
        for h in &fr.hits {
            by_target.entry(h.seqid).or_default().push(TargetMatch {
                family: fr.family.clone(),
                score: h.fwd_score,
                evalue: h.evalue,
            });
        }
    }
    let mut out: Vec<(u32, Vec<TargetMatch>)> = by_target.into_iter().collect();
    for (_, v) in &mut out {
        v.sort_by(|a, b| a.evalue.total_cmp(&b.evalue));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use h3w_hmm::build::{synthetic_model, BuildParams};
    use h3w_seqdb::gen::{generate, sample_homolog, DbGenSpec};
    use h3w_seqdb::DigitalSeq;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The one-shot fused scan's per-family results.
    fn scan_results(
        families: &[CoreModel],
        db: &SeqDb,
        config: PipelineConfig,
        seed: u64,
    ) -> Result<Vec<FamilyResult>, ScanError> {
        scan(families, db, config, seed, &Trace::off()).map(|r| r.results)
    }

    #[test]
    fn scan_attributes_targets_to_the_right_family() {
        // Three distinct families; a database whose homologs come from
        // family 0 and family 2 only.
        let families: Vec<CoreModel> = (0..3)
            .map(|i| synthetic_model(50, 1000 + i, &BuildParams::default()))
            .collect();
        let mut db = generate(&DbGenSpec::envnr_like().scaled(2e-4), None, 77);
        let mut rng = StdRng::seed_from_u64(5);
        for (tag, fam) in [(0usize, &families[0]), (2, &families[2])] {
            for j in 0..6 {
                db.seqs.push(DigitalSeq {
                    name: format!("fam{tag}hom{j}"),
                    desc: String::new(),
                    residues: sample_homolog(&mut rng, fam, 25),
                });
            }
        }
        let results = scan_results(&families, &db, PipelineConfig::default(), 9).unwrap();
        assert_eq!(results.len(), 3);
        let hits_of =
            |i: usize| -> Vec<&str> { results[i].hits.iter().map(|h| h.name.as_str()).collect() };
        // Family 0 finds its own homologs, not family 2's.
        let h0 = hits_of(0);
        assert!(
            h0.iter().filter(|n| n.starts_with("fam0")).count() >= 4,
            "{h0:?}"
        );
        assert_eq!(
            h0.iter().filter(|n| n.starts_with("fam2")).count(),
            0,
            "{h0:?}"
        );
        let h2 = hits_of(2);
        assert!(
            h2.iter().filter(|n| n.starts_with("fam2")).count() >= 4,
            "{h2:?}"
        );
        // Family 1 planted nothing.
        assert!(results[1].hits.len() <= 1, "{:?}", hits_of(1));
    }

    #[test]
    fn bad_configs_are_rejected_up_front() {
        let families = [synthetic_model(40, 7000, &BuildParams::default())];
        let db = generate(&DbGenSpec::envnr_like().scaled(1e-5), None, 47);
        let pipes = prepare_scan(&families, PipelineConfig::default(), 19);
        let bad = PipelineConfig {
            f2: -1.0,
            ..Default::default()
        };
        let rejected = |r: Result<Vec<FamilyResult>, ScanError>| {
            matches!(
                r,
                Err(ScanError::Config(ConfigError::Threshold {
                    field: "f2",
                    ..
                }))
            )
        };
        assert!(rejected(scan_prepared(
            &pipes,
            &db,
            bad,
            true,
            &Trace::off()
        )));
        assert!(rejected(scan_results(&families, &db, bad, 19)));
    }

    #[test]
    fn traced_scan_records_per_family_funnels_and_pack_schedule() {
        let families: Vec<CoreModel> = (0..3)
            .map(|i| synthetic_model(40 + 8 * i, 6000 + i as u64, &BuildParams::default()))
            .collect();
        let mut spec = DbGenSpec::envnr_like().scaled(8e-5);
        spec.homolog_fraction = 0.05;
        let db = generate(&spec, Some(&families[0]), 41);
        let trace = Trace::on();
        let report = scan(&families, &db, PipelineConfig::default(), 7, &trace).unwrap();
        let tel = report.telemetry.expect("armed trace yields telemetry");
        let packs = tel.at_path("scan/packs").expect("pack schedule node");
        assert_eq!(packs.counter("models"), families.len() as u64);
        assert!(packs.counter("packs") >= 1);
        for fr in &report.results {
            let node = tel
                .at_path(&format!("scan/families/{}", fr.family))
                .unwrap_or_else(|| panic!("missing node for {}", fr.family));
            assert_eq!(node.counter("m"), fr.m as u64);
            assert_eq!(node.counter("hits"), fr.hits.len() as u64);
            for st in &fr.stages {
                let sn = tel
                    .at_path(&format!("scan/families/{}/{}", fr.family, st.name))
                    .unwrap_or_else(|| panic!("missing stage node {}", st.name));
                assert_eq!(sn.counter("seqs_in"), st.seqs_in as u64);
                assert_eq!(sn.counter("seqs_out"), st.seqs_out as u64);
            }
        }
    }

    #[test]
    fn per_target_inversion_sorts_by_evalue() {
        let results = vec![
            FamilyResult {
                family: "A".into(),
                m: 10,
                hits: vec![Hit {
                    seqid: 3,
                    name: "t3".into(),
                    msv_score: 1.0,
                    vit_score: 2.0,
                    fwd_score: 30.0,
                    pvalue: 1e-9,
                    evalue: 1e-6,
                    posterior: None,
                }],
                passed: (1, 1),
                stages: Vec::new(),
            },
            FamilyResult {
                family: "B".into(),
                m: 12,
                hits: vec![Hit {
                    seqid: 3,
                    name: "t3".into(),
                    msv_score: 1.0,
                    vit_score: 2.0,
                    fwd_score: 50.0,
                    pvalue: 1e-12,
                    evalue: 1e-9,
                    posterior: None,
                }],
                passed: (1, 1),
                stages: Vec::new(),
            },
        ];
        let per_target = best_hits_per_target(&results);
        assert_eq!(per_target.len(), 1);
        let (seqid, matches) = &per_target[0];
        assert_eq!(*seqid, 3);
        assert_eq!(matches[0].family, "B"); // lower E-value first
        assert_eq!(matches[1].family, "A");
    }
}
