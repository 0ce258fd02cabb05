//! The hmmsearch task pipeline (Fig. 1): MSV → P7Viterbi → Forward.
//!
//! [`Pipeline`] owns every representation of one query model (float
//! profile, 8-bit MSV tables, 16-bit Viterbi tables, striped CPU filters)
//! plus its score calibration. [`Pipeline::search`] is the one entry
//! point for sweeps of a resident database: an [`ExecPlan`] picks where
//! each stage runs — the multi-core striped CPU baseline or a pool of
//! simulated GPUs (`crate::orchestrator`), whose pool of one with Forward
//! on the host is the paper's deployment — while the stage sequencing,
//! thresholding, and funnel accounting are written exactly once. Every
//! device stage of every device plan goes through that one pool.
//!
//! **A stage is ids → scores.** The funnel carries its survivors in one
//! shape: an ascending list of `u32` sequence ids. Every stage, on every
//! plan, takes the ids that reached it and returns one score per id, in
//! that order, with its (measured or modeled) seconds: the host stages
//! hand the list to `h3w_cpu::outcomes_batched`, the device stages
//! launch over the zero-copy `PackedDb::subset` of it and read the
//! scores back in subset order. Between stages, `Pipeline::survivors` is
//! the one thresholding step: ids and their scores in, the ids under the
//! stage's P-value cut-off (and their scores) out. Nothing of database
//! length exists after stage 1.
//!
//! **One stage sequence for one model or many.** `Pipeline::funnel` is
//! that sequence over a set of pipelines: a search runs it over its one
//! pipeline, with each stage on its plan's tier; the fused scan
//! (`crate::multi`) runs it over every model of a library, each stage
//! one host fan-out over (model, batch) tasks. Device plans are
//! single-model.
//!
//! [`Pipeline::search_traced`] is the same driver with a caller-supplied
//! [`Trace`] for funnel telemetry (`hmmsearch --profile`); tracing is
//! zero-cost when the trace is disabled and never changes scores or hits
//! when enabled.

use crate::config::PipelineConfig;
use crate::orchestrator::DevicePool;
use crate::report::{Hit, PipelineResult, StageStats};
use h3w_core::tiered::SweepError;
use h3w_cpu::striped_fwd::StripedFwd;
use h3w_cpu::striped_msv::StripedMsv;
use h3w_cpu::striped_vit::StripedVit;
use h3w_cpu::{
    batch_schedule_stats, outcomes_batched, posterior_decode_with, Backend, BatchKernel,
    PoolHandle, ThreadPool,
};
use h3w_hmm::calibrate::{self, Calibration};
use h3w_hmm::msvprofile::MsvProfile;
use h3w_hmm::plan7::CoreModel;
use h3w_hmm::profile::Profile;
use h3w_hmm::vitprofile::VitProfile;
use h3w_hmm::NullModel;
use h3w_seqdb::{DigitalSeq, SeqDb};
use h3w_simt::DeviceSpec;
use h3w_trace::{Telemetry, Trace};
use std::sync::Arc;
use std::time::Instant;

/// Lengths covered by the precomputed `null1(L)` table; longer targets
/// fall back to the closed-form evaluation.
const NULL1_TABLE_LEN: usize = 16384;

/// A funnel stage (its index into a stage-label array).
#[derive(Clone, Copy)]
pub(crate) enum Stage {
    Msv,
    Vit,
    Fwd,
}

/// One stage over every pipe of a funnel: per pipe, one score per id
/// that reached it; and the stage's (measured or modeled) seconds.
pub(crate) type StageOut = (Vec<Vec<f32>>, f64);

/// Where a [`Pipeline::search`] runs each stage.
///
/// Every plan funnels through the same driver: identical thresholding,
/// identical survivor lists, identical hit assembly. Because the CPU and
/// device filters are bit-exact, the reported hits are plan-invariant;
/// only the stage labels and (measured vs modeled) stage times differ.
#[derive(Debug, Clone)]
pub enum ExecPlan {
    /// The multi-core striped CPU baseline.
    Cpu,
    /// MSV + Viterbi on one simulated device, Forward on the host — the
    /// paper's deployment: an [`ExecPlan::Devices`] pool of one.
    Device {
        /// The simulated device.
        dev: DeviceSpec,
    },
    /// The device stages over a pool of simulated devices, the database
    /// partitioned across them (`crate::orchestrator`).
    Devices {
        /// The simulated device every pool member is (§IV-A).
        dev: DeviceSpec,
        /// Pool size.
        n_devices: usize,
        /// Run Forward on the pool too (§VI future work); otherwise it
        /// stays on the host, as in the paper's deployment.
        forward_on_device: bool,
    },
}

impl ExecPlan {
    /// The one device-plan shape: the device, pool size and Forward tier
    /// a plan runs its device stages on (`Device { dev }` is a pool of
    /// one with Forward on the host), `None` for the CPU plan.
    pub(crate) fn device_pool(&self) -> Option<(&DeviceSpec, usize, bool)> {
        match self {
            ExecPlan::Cpu => None,
            ExecPlan::Device { dev } => Some((dev, 1, false)),
            ExecPlan::Devices {
                dev,
                n_devices,
                forward_on_device,
            } => Some((dev, *n_devices, *forward_on_device)),
        }
    }

    /// The labels a search under this plan gives its three stages, and
    /// the one place they are decided: `MSV` / `P7Viterbi` / `Forward`
    /// on the host; on a device pool `(GPU)` for one device and
    /// `(multi-GPU)` for more, with Forward's tier, `(host)` or `(GPU)`.
    pub fn stage_labels(&self) -> [&'static str; 3] {
        let Some((_, n_devices, forward_on_device)) = self.device_pool() else {
            return ["MSV", "P7Viterbi", "Forward"];
        };
        let multi = (n_devices > 1) as usize;
        [
            ["MSV (GPU)", "MSV (multi-GPU)"][multi],
            ["P7Viterbi (GPU)", "P7Viterbi (multi-GPU)"][multi],
            ["Forward (host)", "Forward (GPU)"][forward_on_device as usize],
        ]
    }
}

/// A completed [`Pipeline::search_traced`]: results and (when the trace
/// was armed) the telemetry snapshot.
#[derive(Debug)]
pub struct SearchReport {
    /// Hits and funnel counters — plan-invariant.
    pub result: PipelineResult,
    /// The per-run telemetry tree (`None` when the trace was disabled).
    pub telemetry: Option<Telemetry>,
}

/// A fully prepared query: profile, quantized tables, striped filters,
/// calibration.
///
/// All P-values are computed on **null-corrected** scores
/// (`raw − null1(L)`, HMMER's bit-score numerator), which makes the
/// calibrated distributions length-stable across the database.
pub struct Pipeline {
    /// The null model used for per-length score correction.
    pub bg: NullModel,
    /// Search profile in nats.
    pub profile: Profile,
    /// 8-bit MSV score system.
    pub msv: MsvProfile,
    /// 16-bit Viterbi score system.
    pub vit: VitProfile,
    /// Striped CPU MSV filter.
    pub striped_msv: StripedMsv,
    /// Striped CPU Viterbi filter.
    pub striped_vit: StripedVit,
    /// Striped odds-space Forward filter (stage 3 and posterior decoding).
    pub striped_fwd: StripedFwd,
    /// Fitted score distributions.
    pub cal: Calibration,
    /// Stage thresholds.
    pub config: PipelineConfig,
    /// SIMD backend the striped filters dispatched to.
    backend: Backend,
    /// `null1(L)` for `L ∈ 0..NULL1_TABLE_LEN`, hoisting the per-call
    /// `NullModel` clone out of [`Pipeline::corrected`].
    null1: Vec<f32>,
    /// The thread pool every host sweep fans out on: the shared global
    /// pool when `config.threads == 0`, a dedicated pool otherwise.
    pool: PoolHandle,
}

impl Pipeline {
    /// Prepare a query model: configure, quantize, stripe and calibrate
    /// (deterministic given `seed`). The SIMD backend is auto-detected
    /// (`H3W_SIMD_BACKEND` overrides).
    pub fn prepare(core: &CoreModel, config: PipelineConfig, seed: u64) -> Pipeline {
        Self::prepare_with_backend(core, config, seed, Backend::detect())
    }

    /// [`Pipeline::prepare`] with an explicit SIMD backend (downgraded to
    /// scalar if unavailable on this host) — for benchmarking and
    /// cross-backend equivalence tests.
    pub fn prepare_with_backend(
        core: &CoreModel,
        config: PipelineConfig,
        seed: u64,
        backend: Backend,
    ) -> Pipeline {
        let bg = NullModel::new();
        let profile = Profile::config(core, &bg);
        // Length-indexed null1 table: one NullModel walk at prepare time
        // replaces a clone + set_length on every corrected() call.
        let null1: Vec<f32> = {
            let mut b = bg.clone();
            (0..NULL1_TABLE_LEN)
                .map(|len| {
                    b.set_length(len);
                    b.null1_score(len)
                })
                .collect()
        };
        let msv = MsvProfile::from_profile(&profile);
        let vit = VitProfile::from_profile(&profile);
        let striped_msv = StripedMsv::with_backend(&msv, backend);
        let striped_vit = StripedVit::with_backend(&vit, backend);
        let backend = striped_msv.backend();
        let striped_fwd = StripedFwd::with_backend(&profile, backend);
        let mut pipe = Pipeline {
            bg,
            profile,
            msv,
            vit,
            striped_msv,
            striped_vit,
            striped_fwd,
            // Fitted by calibrate() just below; the stages it runs read
            // no location.
            cal: Calibration {
                mu_msv: 0.0,
                mu_vit: 0.0,
                tau_fwd: 0.0,
                lambda: calibrate::LAMBDA,
            },
            config,
            backend,
            null1,
            pool: PoolHandle::with_threads(config.threads),
        };
        pipe.calibrate(seed);
        pipe
    }

    /// Fit every stage's score distribution on one deterministic draw
    /// of random background sequences, scored through the host stages
    /// [`Pipeline::search`] runs (same kernels, same pool), so the
    /// locations always describe the production score stream and the
    /// most expensive step of preparing a query uses every core the
    /// pipeline has. Inside another pool task (`prepare_scan`'s
    /// per-model fan-out) the sweeps run inline, as all nested fan-outs
    /// do.
    fn calibrate(&mut self, seed: u64) {
        let sample = SeqDb {
            name: "calibration".into(),
            seqs: calibrate::sample(seed, calibrate::DEFAULT_N, calibrate::DEFAULT_LEN)
                .into_iter()
                .map(|residues| DigitalSeq {
                    residues,
                    ..Default::default()
                })
                .collect(),
        };
        let corrected = |raw: Vec<f32>| -> Vec<f32> {
            raw.into_iter()
                .map(|s| self.corrected(s, calibrate::DEFAULT_LEN))
                .collect()
        };
        let msv = corrected(self.host_stage_one(Stage::Msv, &sample, None).0);
        let vit = corrected(self.host_stage_one(Stage::Vit, &sample, None).0);
        let fwd = corrected(self.host_stage_one(Stage::Fwd, &sample, None).0);
        self.cal = Calibration::fit(&msv, &vit, &fwd);
    }

    /// The SIMD backend the striped filters dispatched to (shared by the
    /// MSV and Viterbi filters; see `h3w_cpu::Backend::detect`).
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// The thread pool this pipeline's host sweeps fan out on (the shared
    /// global pool unless `config.threads` asked for a dedicated one).
    pub fn pool(&self) -> &ThreadPool {
        self.pool.pool()
    }

    /// Null-corrected score: `raw − null1(len)` (nats). Table lookup for
    /// lengths under `NULL1_TABLE_LEN` (16,384); identical closed form beyond.
    pub fn corrected(&self, raw: f32, len: usize) -> f32 {
        let null1 = match self.null1.get(len) {
            Some(&v) => v,
            None => {
                let p1 = len as f32 / (len as f32 + 1.0);
                len as f32 * p1.ln() + (1.0 - p1).ln()
            }
        };
        raw - null1
    }

    /// P-value of a null-corrected MSV filter score for a target of
    /// length `len`.
    pub fn msv_pvalue(&self, raw: f32, len: usize) -> f64 {
        calibrate::gumbel_pvalue(self.corrected(raw, len), self.cal.mu_msv, self.cal.lambda)
    }

    /// P-value of a null-corrected Viterbi filter score.
    pub fn vit_pvalue(&self, raw: f32, len: usize) -> f64 {
        calibrate::gumbel_pvalue(self.corrected(raw, len), self.cal.mu_vit, self.cal.lambda)
    }

    /// P-value of a null-corrected Forward score.
    pub fn fwd_pvalue(&self, raw: f32, len: usize) -> f64 {
        calibrate::exp_pvalue(self.corrected(raw, len), self.cal.tau_fwd, self.cal.lambda)
    }

    /// Recover and render the optimal alignment behind a reported hit
    /// (hmmsearch's alignment blocks). Runs the full-memory Viterbi
    /// traceback — intended for the handful of reported hits, not for
    /// database sweeps.
    pub fn align_hit(
        &self,
        core: &h3w_hmm::CoreModel,
        db: &SeqDb,
        hit: &Hit,
    ) -> (h3w_cpu::Alignment, String) {
        let seq = &db.seqs[hit.seqid as usize].residues;
        let aln = h3w_cpu::viterbi_trace(&self.profile, seq);
        let mut text = String::new();
        for seg in &aln.segments {
            text.push_str(&seg.render(&self.profile, core, seq));
            text.push('\n');
        }
        (aln, text)
    }

    /// Decode the domain structure of a reported hit (posterior-decoded
    /// homology regions, HMMER's post-Forward step). Reuses the posterior
    /// already computed for the null2 correction when the hit carries one,
    /// decoding from scratch only otherwise.
    pub fn domains_for_hit(&self, db: &SeqDb, hit: &Hit) -> Vec<h3w_cpu::Domain> {
        let decoded;
        let post = match hit.posterior.as_deref() {
            Some(p) => p,
            None => {
                let seq = &db.seqs[hit.seqid as usize].residues;
                decoded = posterior_decode_with(&self.profile, &self.striped_fwd, seq);
                &decoded
            }
        };
        h3w_cpu::find_domains(post, 0.5, 3)
    }

    /// Sweep a database under an execution plan. **The** entry point:
    /// every deployment (CPU baseline, a device pool of any size, with or
    /// without Forward on it) runs through one stage-sequencing driver, so
    /// the funnel logic and its telemetry hooks exist exactly once.
    ///
    /// Reported hits are plan-invariant (the filters are bit-exact across
    /// backends); stage labels and times reflect the plan.
    pub fn search(&self, db: &SeqDb, plan: &ExecPlan) -> Result<PipelineResult, SweepError> {
        self.search_traced(db, plan, &Trace::off())
            .map(|r| r.result)
    }

    /// [`Pipeline::search`] with a caller-supplied telemetry trace and
    /// the full report (telemetry snapshot).
    ///
    /// With a disabled trace every hook is a no-op (no clock reads, no
    /// allocation). With an enabled trace the accounting passes run
    /// outside the timed stage bodies, so scores, survivor lists, hits
    /// and measured stage times are identical either way.
    pub fn search_traced(
        &self,
        db: &SeqDb,
        plan: &ExecPlan,
        trace: &Trace,
    ) -> Result<SearchReport, SweepError> {
        let whole = trace.span("pipeline");
        // Pool occupancy/steal accounting is a snapshot delta taken
        // outside every timed region; with a disabled trace it costs
        // nothing at all.
        let pool_before = trace.is_on().then(|| self.pool().stats());

        let labels = plan.stage_labels();
        let devices = DevicePool::new(plan, db, trace)?;

        // Each stage on the plan's pool when it owns the stage, on the
        // host otherwise.
        let mut results = Self::funnel(&[self], db, labels, |stage, sels| {
            let (scores, secs) = match devices.as_ref() {
                Some(pool) if pool.owns(stage) => pool.stage(self, stage, sels[0], trace)?,
                _ if matches!(stage, Stage::Msv) => self.msv_stage_host(db, trace),
                _ => self.host_stage_one(stage, db, sels[0]),
            };
            Ok((vec![scores], secs))
        })?;
        // One pipe in, one result out.
        let result = results.swap_remove(0);
        if trace.is_on() {
            // Funnel telemetry is recorded *from* the stage records, so
            // the `--profile` tree and the StageStats report can never
            // disagree. real_cells = DP cells per residue row × residues.
            let cells_per_row = [
                self.striped_msv.real_cells_per_row() as u64,
                self.striped_vit.real_cells_per_row() as u64,
                self.striped_fwd.real_cells_per_row(),
            ];
            // Analytic memory traffic per residue row from the striped
            // table/DP geometry — the ApHMM-style bandwidth accounting:
            // bytes_moved / seconds estimates each stage's demand.
            let bytes_per_row = [
                self.striped_msv.bytes_per_row(),
                self.striped_vit.bytes_per_row(),
                self.striped_fwd.bytes_per_row(),
            ];
            for ((st, cells), bytes) in result.stages.iter().zip(cells_per_row).zip(bytes_per_row) {
                let path = format!("pipeline/{}", st.name);
                trace.add(&path, "seqs_in", st.seqs_in as u64);
                trace.add(&path, "seqs_out", st.seqs_out as u64);
                trace.add(&path, "residues_in", st.residues_in);
                trace.add(&path, "real_cells", st.residues_in * cells);
                trace.add(&path, "bytes_moved", st.residues_in * bytes);
                trace.add_secs(&path, st.time_s);
            }
        }
        trace.add("pipeline/hits", "reported", result.hits.len() as u64);
        if let Some(before) = pool_before {
            // Per-worker spans and occupancy/steal counters for this
            // search's fan-outs (the `--profile` pool table).
            self.pool()
                .stats()
                .delta(&before)
                .record_into(trace, "pipeline/pool");
        }
        drop(whole);
        Ok(SearchReport {
            result,
            telemetry: trace.snapshot(),
        })
    }

    /// The funnel's one stage sequence, over one pipeline (a search) or
    /// many (a scan). Each stage scores every pipe's list in one `stage`
    /// call — given the stage and one selection per pipe, it returns one
    /// score per listed id per pipe and the stage's seconds. Stage 1
    /// lists every sequence (`None`); a stage no pipe reaches does not
    /// run. Between stages [`Pipeline::survivors`] thresholds each pipe
    /// on its own calibration and config, and [`Pipeline::assemble`]
    /// ranks each pipe's hits. Returns one result per pipe, in order.
    pub(crate) fn funnel(
        pipes: &[&Pipeline],
        db: &SeqDb,
        labels: [&str; 3],
        mut stage: impl FnMut(Stage, &[Option<&[u32]>]) -> Result<StageOut, SweepError>,
    ) -> Result<Vec<PipelineResult>, SweepError> {
        let n = db.len();
        let (msv, msv_s) = stage(Stage::Msv, &vec![None; pipes.len()])?;
        let mut reached = |next, ids: &[Vec<u32>]| {
            if ids.iter().all(Vec::is_empty) {
                return Ok((vec![Vec::new(); ids.len()], 0.0));
            }
            let sels: Vec<Option<&[u32]>> = ids.iter().map(|ids| Some(&ids[..])).collect();
            stage(next, &sels)
        };
        let ids1: Vec<Vec<u32>> = pipes
            .iter()
            .zip(&msv)
            .map(|(p, scores)| {
                let pvalue = |s, len| p.msv_pvalue(s, len);
                Self::survivors(db, 0..n as u32, scores, pvalue, p.config.f1).0
            })
            .collect();
        let (vit, vit_s) = reached(Stage::Vit, &ids1)?;
        let (ids2, vit): (Vec<Vec<u32>>, Vec<Vec<f32>>) = pipes
            .iter()
            .zip(ids1.iter().zip(&vit))
            .map(|(p, (ids, scores))| {
                let pvalue = |s, len| p.vit_pvalue(s, len);
                Self::survivors(db, ids.iter().copied(), scores, pvalue, p.config.f2)
            })
            .unzip();
        let (fwd, fwd_s) = reached(Stage::Fwd, &ids2)?;
        let results = pipes.iter().enumerate().map(|(m, p)| {
            let (n1, n2) = (ids1[m].len(), ids2[m].len());
            let stages = [
                StageStats::new(labels[0], n, n1, msv_s).with_residues(db.total_residues()),
                StageStats::new(labels[1], n1, n2, vit_s)
                    .with_residues(Self::residues_of(db, &ids1[m])),
                StageStats::new(labels[2], n2, n2, fwd_s)
                    .with_residues(Self::residues_of(db, &ids2[m])),
            ];
            p.assemble(db, &msv[m], &ids2[m], &vit[m], &fwd[m], stages)
        });
        Ok(results.collect())
    }

    /// The funnel's one thresholding step: of `ids` (with `scores`
    /// aligned to them), keep the sequences whose `pvalue(score, length)`
    /// is under `cut`. Returns the surviving ids, still ascending, and
    /// their scores.
    fn survivors(
        db: &SeqDb,
        ids: impl IntoIterator<Item = u32>,
        scores: &[f32],
        pvalue: impl Fn(f32, usize) -> f64,
        cut: f64,
    ) -> (Vec<u32>, Vec<f32>) {
        ids.into_iter()
            .zip(scores.iter().copied())
            .filter(|&(id, s)| pvalue(s, db.seqs[id as usize].len()) < cut)
            .unzip()
    }

    /// A host stage over every pipe of `pipes`, each on its own selection
    /// (`None` = every sequence), in one length-binned fan-out on `pool`
    /// (`h3w_cpu::outcomes_batched`): one score per listed id per pipe,
    /// and the measured seconds.
    pub(crate) fn host_stage(
        pool: &ThreadPool,
        pipes: &[&Pipeline],
        stage: Stage,
        db: &SeqDb,
        sels: &[Option<&[u32]>],
    ) -> StageOut {
        fn sweep<K: BatchKernel>(
            pool: &ThreadPool,
            kernels: impl Iterator<Item = K>,
            sels: &[Option<&[u32]>],
            db: &SeqDb,
            score: impl Fn(&K::Output) -> f32,
        ) -> StageOut {
            let kernels: Vec<(K, Option<&[u32]>)> = kernels.zip(sels.iter().copied()).collect();
            let t = Instant::now();
            let out = outcomes_batched(pool, &kernels, &db.seqs, 0);
            let secs = t.elapsed().as_secs_f64();
            let scores = out.iter().map(|o| o.iter().map(&score).collect()).collect();
            (scores, secs)
        }
        let pipes = pipes.iter();
        match stage {
            Stage::Msv => {
                let kernels = pipes.map(|p| (&p.striped_msv, &p.msv));
                sweep(pool, kernels, sels, db, |o| o.score)
            }
            Stage::Vit => {
                let kernels = pipes.map(|p| (&p.striped_vit, &p.vit));
                sweep(pool, kernels, sels, db, |o| o.0.score)
            }
            Stage::Fwd => {
                let kernels = pipes.map(|p| (&p.striped_fwd, &p.profile));
                sweep(pool, kernels, sels, db, |&s| s)
            }
        }
    }

    /// One host stage of this pipeline alone, on its own pool (also
    /// calibration's, and a device plan's host Forward).
    fn host_stage_one(&self, stage: Stage, db: &SeqDb, ids: Option<&[u32]>) -> (Vec<f32>, f64) {
        let (mut scores, secs) = Self::host_stage(self.pool(), &[self], stage, db, &[ids]);
        (scores.swap_remove(0), secs)
    }

    /// Host stage 1: MSV through the batched interleaved kernel. Returns
    /// `(scores, seconds)`. Telemetry accounting (batch-schedule shape,
    /// dropout counts) runs outside the timed region and only when the
    /// trace is armed.
    fn msv_stage_host(&self, db: &SeqDb, trace: &Trace) -> (Vec<f32>, f64) {
        let (scores, secs) = self.host_stage_one(Stage::Msv, db, None);
        if trace.is_on() {
            let width = self.backend.preferred_batch_width();
            let lens: Vec<usize> = db.seqs.iter().map(|s| s.len()).collect();
            let stats = batch_schedule_stats(&lens, None, width);
            trace.add("pipeline/batch", "batches", stats.batches);
            trace.add("pipeline/batch", "slots_filled", stats.seqs);
            trace.add("pipeline/batch", "slot_rows", stats.slot_rows);
            trace.add("pipeline/batch", "loop_rows", stats.loop_rows);
            trace.add(
                "pipeline/batch",
                "early_finish_dropouts",
                stats.early_finish,
            );
            // An overflowed pass, and only one, scores +∞.
            let overflow = scores
                .iter()
                .filter(|&&s| s == MsvProfile::overflow_score())
                .count();
            trace.add("pipeline/batch", "overflow_dropouts", overflow as u64);
        }
        (scores, secs)
    }

    /// Total residues of the listed sequences (the denominator for
    /// per-stage cell rates).
    fn residues_of(db: &SeqDb, ids: &[u32]) -> u64 {
        ids.iter().map(|&i| db.seqs[i as usize].len() as u64).sum()
    }

    /// Turn the funnel's outputs into the ranked hit list: `msv` is the
    /// dense stage-1 score vector, `ids` the stage-3 survivor list with
    /// its Viterbi (`vit`) and Forward (`fwd`) scores aligned to it.
    fn assemble(
        &self,
        db: &SeqDb,
        msv: &[f32],
        ids: &[u32],
        vit: &[f32],
        fwd: &[f32],
        stages: [StageStats; 3],
    ) -> PipelineResult {
        let n = db.len();
        let mut hits = Vec::new();
        for ((&id, &vit_score), &fwd_raw) in ids.iter().zip(vit).zip(fwd) {
            let i = id as usize;
            let mut fwd_sc = fwd_raw;
            // A non-finite Forward score cannot be ranked or reported
            // honestly; drop the sequence rather than panic downstream.
            if !fwd_sc.is_finite() {
                continue;
            }
            // Optional biased-composition correction (HMMER's null2),
            // computed from the posterior decoding of this survivor. The
            // posterior rides along on the hit so domain reporting never
            // re-decodes it.
            let mut posterior = None;
            if self.config.null2 {
                let post =
                    posterior_decode_with(&self.profile, &self.striped_fwd, &db.seqs[i].residues);
                fwd_sc -= h3w_cpu::null2_correction(&self.bg, &db.seqs[i].residues, &post);
                posterior = Some(Arc::new(post));
            }
            let p = self.fwd_pvalue(fwd_sc, db.seqs[i].len());
            if !p.is_finite() || p >= self.config.f3 {
                continue;
            }
            let evalue = p * n as f64;
            if evalue <= self.config.report_evalue {
                hits.push(Hit {
                    seqid: id,
                    name: db.seqs[i].name.clone(),
                    msv_score: msv[i],
                    vit_score,
                    fwd_score: fwd_sc,
                    pvalue: p,
                    evalue,
                    posterior,
                });
            }
        }
        hits.sort_by(|a, b| a.evalue.total_cmp(&b.evalue));
        PipelineResult::new(stages, hits, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h3w_core::tiered::{run_msv_device, run_vit_device};
    use h3w_hmm::build::{synthetic_model, BuildParams};
    use h3w_seqdb::gen::{generate, DbGenSpec};
    use h3w_seqdb::PackedDb;

    fn setup(hom_frac: f64, scale: f64) -> (Pipeline, SeqDb) {
        let core = synthetic_model(80, 42, &BuildParams::default());
        let pipe = Pipeline::prepare(&core, PipelineConfig::default(), 7);
        let mut spec = DbGenSpec::envnr_like().scaled(scale);
        spec.homolog_fraction = hom_frac;
        let db = generate(&spec, Some(&core), 3);
        (pipe, db)
    }

    #[test]
    fn background_pass_rates_track_thresholds() {
        // Null P-values are uniform ⇒ ≈ f1 of background passes MSV.
        let (pipe, db) = setup(0.0, 0.0008); // ~5200 background seqs
        let res = pipe.search(&db, &ExecPlan::Cpu).unwrap();
        let rate1 = res.stages[0].seqs_out as f64 / res.stages[0].seqs_in as f64;
        assert!(
            rate1 > 0.005 && rate1 < 0.05,
            "MSV pass rate {rate1} should be near f1 = 0.02"
        );
        let rate12 = res.stages[1].seqs_out as f64 / db.len() as f64;
        assert!(rate12 < 0.01, "Viterbi survivors {rate12} should be ≲ 0.1%");
        // Expected false positives ≈ f3 × N ≈ 0.05; allow Poisson noise.
        assert!(
            res.hits.len() <= 2,
            "too many background hits: {}",
            res.hits.len()
        );
    }

    #[test]
    fn homologs_are_found_with_low_evalues() {
        let (pipe, db) = setup(0.02, 0.0004);
        let n_hom = db.seqs.iter().filter(|s| s.name.starts_with("hom")).count();
        assert!(n_hom >= 20, "want enough homologs, got {n_hom}");
        let res = pipe.search(&db, &ExecPlan::Cpu).unwrap();
        assert!(!res.hits.is_empty());
        // Every reported hit should be a planted homolog (no false
        // positives at these E-values on this scale), and most planted
        // homologs should be recovered.
        // A stray background hit or two is Poisson-expected at f3·N; the
        // hit list must still be overwhelmingly planted homologs.
        let fp = res.hits.iter().filter(|h| h.name.starts_with("bg")).count();
        assert!(
            fp <= 2 && fp * 20 <= res.hits.len(),
            "too many false positives ({fp} of {})",
            res.hits.len()
        );
        let recovered = res.hits.len() as f64 / n_hom as f64;
        assert!(recovered > 0.6, "recovered only {recovered}");
    }

    /// A pool of one is the single-device kernel call: `ExecPlan::Device`'s
    /// MSV and Viterbi times and its MSV kernel counters are those of a
    /// direct launch over the packed database and over the MSV survivors,
    /// bit for bit. Every sequence passes MSV here, so both launches
    /// (~1,300 warps) outnumber a K40's resident warp slots and their
    /// modeled imbalance, a greedy schedule in launch order, sees a pool
    /// that reordered or split them.
    #[test]
    fn a_pool_of_one_is_the_single_device_launch() {
        let core = synthetic_model(80, 42, &BuildParams::default());
        let pipe = Pipeline::prepare(&core, PipelineConfig::max_sensitivity(), 7);
        let db = generate(&DbGenSpec::envnr_like().scaled(0.0002), Some(&core), 3);
        let dev = DeviceSpec::tesla_k40();
        let plan = ExecPlan::Device { dev: dev.clone() };
        let report = pipe.search_traced(&db, &plan, &Trace::on()).unwrap();
        let packed = PackedDb::from_db(&db);
        let msv = run_msv_device(&pipe.msv, &packed, &dev, None).unwrap();
        let scores: Vec<f32> = msv.hits.iter().map(|h| h.score).collect();
        let pvalue = |s, len| pipe.msv_pvalue(s, len);
        let all = 0..db.len() as u32;
        let (ids, _) = Pipeline::survivors(&db, all, &scores, pvalue, pipe.config.f1);
        assert!(ids.len() > 1_000, "Viterbi sees {} sequences", ids.len());
        let vit = run_vit_device(&pipe.vit, &packed.subset(&ids), &dev, None).unwrap();
        let times = report.result.stages.map(|st| st.time_s.to_bits());
        assert_eq!(
            times[..2],
            [msv.run.time, vit.run.time].map(|t| t.total_s.to_bits())
        );
        let direct = Trace::on();
        msv.run.stats.record_into(&direct, "msv");
        let counters = |tel: Option<Telemetry>, path: &str| {
            tel.unwrap().at_path(path).unwrap().counters.clone()
        };
        assert_eq!(
            counters(report.telemetry, "pipeline/MSV (GPU)/device"),
            counters(direct.snapshot(), "msv")
        );
    }

    /// A library caller's pool of no devices is a typed error, not a panic.
    #[test]
    fn an_empty_device_pool_is_a_typed_error() {
        let (pipe, db) = setup(0.0, 0.00001);
        let plan = ExecPlan::Devices {
            dev: DeviceSpec::tesla_k40(),
            n_devices: 0,
            forward_on_device: false,
        };
        assert_eq!(pipe.search(&db, &plan).unwrap_err(), SweepError::NoDevices);
    }

    #[test]
    fn null1_table_matches_clone_path() {
        // The precomputed table (and the closed-form fallback past its
        // end) must be bit-identical to the original clone + set_length
        // evaluation it replaced.
        let (pipe, _) = setup(0.0, 0.00001);
        for len in [1usize, 2, 5, 100, 350, 4096, 16383, 16384, 16385, 100_000] {
            let mut b = pipe.bg.clone();
            b.set_length(len);
            let want = 0.5f32 - b.null1_score(len);
            let got = pipe.corrected(0.5, len);
            assert_eq!(got.to_bits(), want.to_bits(), "len {len}: {got} vs {want}");
        }
    }

    #[test]
    fn max_sensitivity_is_a_superset() {
        let core = synthetic_model(50, 9, &BuildParams::default());
        let filt = Pipeline::prepare(&core, PipelineConfig::default(), 7);
        let maxs = Pipeline::prepare(&core, PipelineConfig::max_sensitivity(), 7);
        let mut spec = DbGenSpec::envnr_like().scaled(0.0002);
        spec.homolog_fraction = 0.03;
        let db = generate(&spec, Some(&core), 4);
        let a = filt.search(&db, &ExecPlan::Cpu).unwrap();
        let b = maxs.search(&db, &ExecPlan::Cpu).unwrap();
        let af: Vec<u32> = a.hits.iter().map(|h| h.seqid).collect();
        let bf: Vec<u32> = b.hits.iter().map(|h| h.seqid).collect();
        for id in &af {
            assert!(
                bf.contains(id),
                "filtered pipeline found {id} but --max lost it"
            );
        }
        assert!(bf.len() >= af.len());
    }
}

#[cfg(test)]
mod align_tests {
    use super::*;
    use h3w_hmm::build::{synthetic_model, BuildParams};
    use h3w_seqdb::gen::{generate, DbGenSpec};

    #[test]
    fn reported_hits_can_be_aligned_and_rendered() {
        let core = synthetic_model(40, 4242, &BuildParams::default());
        let pipe = Pipeline::prepare(&core, PipelineConfig::default(), 7);
        let mut spec = DbGenSpec::swissprot_like().scaled(1e-4);
        spec.homolog_fraction = 0.2;
        let db = generate(&spec, Some(&core), 5);
        let res = pipe.search(&db, &ExecPlan::Cpu).unwrap();
        assert!(!res.hits.is_empty());
        for hit in res.hits.iter().take(3) {
            let (aln, text) = pipe.align_hit(&core, &db, hit);
            assert!(!aln.segments.is_empty(), "hit {} has no segments", hit.name);
            assert!(aln.score.is_finite());
            assert!(text.contains("model") && text.contains("target"));
            // Hits are strong homologs: the alignment should cover most of
            // the model.
            let span: usize = aln
                .segments
                .iter()
                .map(|s| s.k_end - s.k_start + 1)
                .max()
                .unwrap();
            assert!(span >= 20, "span {span} too short for a real hit");
        }
    }
}

#[cfg(test)]
mod null2_tests {
    use super::*;
    use h3w_hmm::alphabet::BACKGROUND_F;
    use h3w_hmm::plan7::{CoreModel as CM, Node, NodeTrans};
    use h3w_seqdb::gen::{generate, DbGenSpec};
    use h3w_seqdb::DigitalSeq;

    /// A low-complexity (poly-L) family model.
    fn poly_l_model() -> CM {
        let mut mat = [0.004f32; 20];
        mat[9] = 1.0 - 0.004 * 19.0;
        let node = Node {
            mat,
            ins: BACKGROUND_F,
            t: NodeTrans::conserved(),
        };
        CM {
            name: "polyL".into(),
            nodes: vec![node; 30],
            consensus: vec![9; 30],
        }
    }

    #[test]
    fn null2_suppresses_low_complexity_false_positives() {
        let model = poly_l_model();
        let mut db = generate(&DbGenSpec::envnr_like().scaled(5e-5), None, 9);
        // Plant poly-L junk targets (not homologs in any meaningful sense —
        // they merely share the bias).
        for j in 0..5 {
            let mut res = vec![9u8; 60];
            res.extend(h3w_hmm::calibrate::random_seq(
                &mut rand::SeedableRng::seed_from_u64(j),
                60,
            ));
            db.seqs.push(DigitalSeq {
                name: format!("junk{j}"),
                desc: String::new(),
                residues: res,
            });
        }
        let plain = Pipeline::prepare(&model, PipelineConfig::default(), 7);
        let cfg = PipelineConfig {
            null2: true,
            ..Default::default()
        };
        let corrected = Pipeline::prepare(&model, cfg, 7);
        let raw_hits = plain.search(&db, &ExecPlan::Cpu).unwrap();
        let cor_hits = corrected.search(&db, &ExecPlan::Cpu).unwrap();
        let junk =
            |r: &PipelineResult| r.hits.iter().filter(|h| h.name.starts_with("junk")).count();
        assert!(
            junk(&raw_hits) >= 3,
            "uncorrected pipeline should be fooled ({} junk hits)",
            junk(&raw_hits)
        );
        assert!(
            junk(&cor_hits) < junk(&raw_hits),
            "null2 should suppress junk: {} vs {}",
            junk(&cor_hits),
            junk(&raw_hits)
        );
        // null2 hits carry the posterior used for the correction; domain
        // reporting reuses it and must match a from-scratch decode.
        assert!(raw_hits.hits.iter().all(|h| h.posterior.is_none()));
        for h in &cor_hits.hits {
            let post = h.posterior.as_deref().expect("null2 hit lacks posterior");
            assert_eq!(
                *post,
                h3w_cpu::posterior_decode(&corrected.profile, &db.seqs[h.seqid as usize].residues)
            );
            let doms = corrected.domains_for_hit(&db, h);
            let mut bare = h.clone();
            bare.posterior = None;
            assert_eq!(doms, corrected.domains_for_hit(&db, &bare));
        }
    }
}
