//! Multi-query search — scan a database with many models (hmmscan-style)
//! in one **fused** funnel that amortizes each stage's fan-out over every
//! model.
//!
//! The fused scan is the search's own stage sequence
//! (`Pipeline::funnel`) run over every model at once: each stage is one
//! `h3w_cpu::outcomes_batched` fan-out over (model, length-binned batch)
//! tasks on one scan-level pool, each model's survivors are thresholded
//! by the same `Pipeline::survivors` step a single-model search uses,
//! with the model's own calibration, and each model's hits are ranked by
//! the same hit assembly. Hits, E-values, and funnel counts are
//! **bit-identical** to running [`Pipeline::search`] once per model — the
//! fused path is a pure throughput optimization.
//!
//! [`scan`] is the one-shot entry (`hmmscan`): [`prepare_scan`], then
//! [`scan_prepared`] fused, plus the per-family telemetry. A resident
//! service prepares once and calls [`scan_prepared`] many times; its
//! `fused = false` arm runs one independent [`Pipeline::search`] per
//! model, the shape the fused sweep must reproduce.
//! [`best_hits_per_target`] inverts results to the hmmscan view (for each
//! target, which families match?).

use crate::config::{ConfigError, PipelineConfig};
use crate::report::{Hit, PipelineResult, StageStats};
use crate::run::{ExecPlan, Pipeline};
use h3w_core::tiered::SweepError;
use h3w_cpu::PoolHandle;
use h3w_hmm::plan7::CoreModel;
use h3w_seqdb::SeqDb;
use h3w_trace::{Telemetry, Trace};

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
    /// fused path the stage times are the fused stage's aggregate wall
    /// time (one fan-out serves every family, so per-family time has no
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
/// fan-out per stage feeds every model (see the module docs). Results
/// come back in model order regardless of thread count, and are
/// bit-identical to per-model [`Pipeline::search`] runs at every backend
/// and pool size. With an armed `trace` (`hmmscan --profile`) per-family
/// funnel counters land under `scan/families/<name>`; tracing never
/// changes scores or hits.
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
/// times. The fan-out is over models, on the pool `config.threads`
/// sizes: each model's calibration sweeps, pooled when a pipeline is
/// prepared on its own, run inline on the worker that took the model
/// (the pool never nests). Calibration cost grows with the model and the
/// pool shards indices contiguously, so the models are dispatched
/// largest first (ties by index): a library sorted by size would
/// otherwise start its largest model last and finish it alone. Seeds are
/// keyed on the model's own index, so the order changes no
/// `Calibration` bit.
pub fn prepare_scan(models: &[CoreModel], config: PipelineConfig, seed: u64) -> Vec<Pipeline> {
    let pipe_cfg = PipelineConfig {
        threads: 0,
        ..config
    };
    let mut order: Vec<usize> = (0..models.len()).collect();
    order.sort_by_key(|&qi| std::cmp::Reverse(models[qi].len()));
    let pool = PoolHandle::with_threads(config.threads);
    let mut prepared = pool.pool().map_collect(order.len(), |j| {
        let qi = order[j];
        (
            qi,
            Pipeline::prepare(&models[qi], pipe_cfg, seed ^ ((qi as u64) << 17)),
        )
    });
    // Scatter back into model order.
    prepared.sort_unstable_by_key(|&(qi, _)| qi);
    prepared.into_iter().map(|(_, pipe)| pipe).collect()
}

/// Scan the database with pipelines built by [`prepare_scan`], skipping
/// the per-call calibration cost, on the pool `config.threads` sizes.
/// `fused = true` runs the search's stage sequence over every model at
/// once; `fused = false` fans independent per-pipe searches across the
/// pool. `config` must be the config the pipes were prepared with; the
/// thresholds are each pipe's own, as in [`Pipeline::search`]. The first
/// failing model of the unfused arm (in model order — deterministic at
/// every thread count) reports its error.
pub fn scan_prepared(
    pipes: &[Pipeline],
    db: &SeqDb,
    config: PipelineConfig,
    fused: bool,
    trace: &Trace,
) -> Result<Vec<FamilyResult>, ScanError> {
    config.validate()?;
    let pool = PoolHandle::with_threads(config.threads);
    let results: Vec<PipelineResult> = if fused {
        let refs: Vec<&Pipeline> = pipes.iter().collect();
        let results = Pipeline::funnel(&refs, db, ExecPlan::Cpu.stage_labels(), |stage, sels| {
            Ok(Pipeline::host_stage(pool.pool(), &refs, stage, db, sels))
        })?;
        if trace.is_on() {
            let pairs = |s: usize| results.iter().map(|r| r.stages[s].seqs_in as u64).sum();
            trace.add("scan/stages", "vit_pairs", pairs(1));
            trace.add("scan/stages", "fwd_pairs", pairs(2));
        }
        results
    } else {
        let searched = pool
            .pool()
            .map_collect(pipes.len(), |qi| pipes[qi].search(db, &ExecPlan::Cpu));
        searched.into_iter().collect::<Result<_, SweepError>>()?
    };
    let families = pipes.iter().zip(results).map(|(pipe, res)| FamilyResult {
        family: pipe.profile.name.clone(),
        m: pipe.profile.m,
        passed: (res.stages[0].seqs_out, res.stages[1].seqs_out),
        stages: res.stages.to_vec(),
        hits: res.hits,
    });
    Ok(families.collect())
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
        let prepared = scan_prepared(&pipes, &db, bad, true, &Trace::off());
        assert!(rejected(prepared));
        assert!(rejected(scan_results(&families, &db, bad, 19)));
    }

    #[test]
    fn traced_scan_records_per_family_funnels() {
        let families: Vec<CoreModel> = (0..3)
            .map(|i| synthetic_model(40 + 8 * i, 6000 + i as u64, &BuildParams::default()))
            .collect();
        let mut spec = DbGenSpec::envnr_like().scaled(8e-5);
        spec.homolog_fraction = 0.05;
        let db = generate(&spec, Some(&families[0]), 41);
        let trace = Trace::on();
        let report = scan(&families, &db, PipelineConfig::default(), 7, &trace).unwrap();
        let tel = report.telemetry.expect("armed trace yields telemetry");
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
    fn prepare_scan_fans_out_on_the_configured_pool() {
        // With `threads: 1` no job reaches the global pool. Other tests
        // dispatch there too, so retry until one attempt runs alone.
        let families = [20, 28].map(|m| synthetic_model(m, 7100, &BuildParams::default()));
        let config = PipelineConfig {
            threads: 1,
            ..Default::default()
        };
        let global = h3w_cpu::ThreadPool::global();
        let start = std::time::Instant::now();
        while start.elapsed().as_secs() < 30 {
            let before = global.stats().jobs;
            prepare_scan(&families, config, 3);
            if global.stats().jobs == before {
                return;
            }
        }
        panic!("prepare_scan dispatched on the global pool");
    }

    #[test]
    fn per_target_inversion_sorts_by_evalue() {
        let family = |name: &str, fwd_score, pvalue, evalue| FamilyResult {
            family: name.into(),
            m: 10,
            hits: vec![Hit {
                seqid: 3,
                name: "t3".into(),
                msv_score: 1.0,
                vit_score: 2.0,
                fwd_score,
                pvalue,
                evalue,
                posterior: None,
            }],
            passed: (1, 1),
            stages: Vec::new(),
        };
        let results = [
            family("A", 30.0, 1e-9, 1e-6),
            family("B", 50.0, 1e-12, 1e-9),
        ];
        let per_target = best_hits_per_target(&results);
        assert_eq!(per_target.len(), 1);
        let (seqid, matches) = &per_target[0];
        assert_eq!(*seqid, 3);
        assert_eq!(matches[0].family, "B"); // lower E-value first
        assert_eq!(matches[1].family, "A");
    }
}
