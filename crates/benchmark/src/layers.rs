//! Every call the benchmark makes into the repository's crates.
//!
//! This file is the pinned API list (see the README): a refactor of the
//! crates that keeps these calls compiling and their results unchanged
//! keeps the benchmark, and nothing outside this file names a crate of
//! the repository. Each function is one measured step, called from
//! `workloads.rs` inside a span; none of them reads a clock unless it is
//! a probe whose whole point is a rate.

use crate::json::{self, Json};
use crate::stats::median;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use h3w_core::tiered::{run_msv_device, run_vit_device, StageRun};
use h3w_cpu::{
    batch_schedule_stats, fwd_sweep_batched, msv_sweep_batched, vit_sweep, Backend, PoolStats,
    ThreadPool,
};
use h3w_hmm::background::NullModel;
use h3w_hmm::build::{synthetic_model, BuildParams};
use h3w_hmm::hmmio::{read_hmm_many, write_hmm};
use h3w_hmm::msvprofile::MsvProfile;
use h3w_hmm::profile::Profile;
use h3w_hmm::vitprofile::VitProfile;
use h3w_pipeline::{
    best_hits_per_target, prepare_scan, scan_prepared, search_source, ExecPlan, Hit,
    PipelineConfig, StageStats, Trace,
};
use h3w_seqdb::{fasta, gen_chunks, DbGenSpec, DiskDb, DiskDbWriter, FastaFileSource, SeqSource};
use h3w_serve::{Client, Response, ServeConfig, Server, WireHit};
use h3w_simt::DeviceSpec;

pub use h3w_hmm::plan7::CoreModel;
pub use h3w_pipeline::{FamilyResult, Pipeline, PipelineResult};
pub use h3w_seqdb::{PackedDb, SeqDb};
pub use h3w_serve::ResidentDb;

/// Calibration seed `hmmsearch` and `h3w-serve` hardwire.
const SEARCH_SEED: u64 = h3w_serve::QUERY_SEED;
/// Calibration seed `hmmscan` hardwires.
const SCAN_SEED: u64 = 0x5ca9;

fn err<E: std::fmt::Display>(what: &str) -> impl Fn(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

// ---------------------------------------------------------------- host

/// SIMD backend the striped kernels dispatch to on this host.
pub fn simd_backend() -> &'static str {
    Backend::detect().name()
}

/// Width of the global pool every sweep fans out on (`H3W_THREADS`).
pub fn pool_threads() -> usize {
    ThreadPool::global().threads()
}

/// High-water resident set of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    h3w_trace::peak_rss_bytes().unwrap_or(0) as f64 / (1 << 20) as f64
}

/// A snapshot of the global pool's cumulative counters.
pub struct PoolMark(PoolStats);

/// What the global pool did since a [`PoolMark`].
pub struct PoolUse {
    /// Worker-seconds spent inside tasks.
    pub busy_s: f64,
    /// Parallel jobs dispatched.
    pub jobs: u64,
    /// Jobs run inline on the caller (nested or single-item).
    pub inline_jobs: u64,
    /// Tasks a worker took from another worker's shard.
    pub steals: u64,
}

/// Snapshot the global pool.
pub fn pool_mark() -> PoolMark {
    PoolMark(ThreadPool::global().stats())
}

/// Pool activity since `mark`.
pub fn pool_since(mark: &PoolMark) -> PoolUse {
    let d = ThreadPool::global().stats().delta(&mark.0);
    PoolUse {
        busy_s: d.busy_seconds(),
        jobs: d.jobs,
        inline_jobs: d.inline_jobs,
        steals: d.steals(),
    }
}

// -------------------------------------------------------------- models

/// A seeded synthetic Plan-7 model of `m` columns.
pub fn synthetic(m: usize, seed: u64) -> CoreModel {
    synthetic_model(m, seed, &BuildParams::default())
}

/// Columns of a model.
pub fn columns(model: &CoreModel) -> usize {
    model.len()
}

/// HMMER3 ASCII text of one model (no calibration lines: the program
/// calibrates in `prepare`, as it does for a freshly built query).
pub fn model_text(model: &CoreModel) -> String {
    write_hmm(model, None)
}

/// Write `models` back to back into one `.hmm` file.
pub fn write_models(path: &Path, models: &[CoreModel]) -> Result<(), String> {
    let text: String = models.iter().map(model_text).collect();
    std::fs::write(path, text).map_err(err("write .hmm"))
}

/// Read and parse every model of an `.hmm` file.
pub fn read_models(path: &Path) -> Result<Vec<CoreModel>, String> {
    let text = std::fs::read_to_string(path).map_err(err("read .hmm"))?;
    let files = read_hmm_many(&text).map_err(err("parse .hmm"))?;
    Ok(files.into_iter().map(|f| f.model).collect())
}

/// Mean seconds per model of `Profile::config` plus the two quantized
/// profile builds: the part of `prepare` that is not calibration.
pub fn profile_build_secs(models: &[CoreModel]) -> f64 {
    let bg = NullModel::new();
    let start = Instant::now();
    for core in models {
        let profile = Profile::config(core, &bg);
        std::hint::black_box(MsvProfile::from_profile(&profile));
        std::hint::black_box(VitProfile::from_profile(&profile));
    }
    start.elapsed().as_secs_f64() / models.len().max(1) as f64
}

/// `Pipeline::prepare` as `hmmsearch` calls it.
pub fn prepare(core: &CoreModel) -> Pipeline {
    Pipeline::prepare(core, PipelineConfig::default(), SEARCH_SEED)
}

/// The oracle's pipeline: same model and seed on the scalar backend.
pub fn prepare_scalar(core: &CoreModel) -> Pipeline {
    Pipeline::prepare_with_backend(
        core,
        PipelineConfig::default(),
        SEARCH_SEED,
        Backend::Scalar,
    )
}

/// A pipeline with a dedicated one-thread pool (the 1-thread arm of
/// `pool.speedup_nproc`).
pub fn prepare_one_thread(core: &CoreModel) -> Pipeline {
    let config = PipelineConfig::builder()
        .threads(1)
        .build()
        .expect("threads(1) is a valid configuration");
    Pipeline::prepare(core, config, SEARCH_SEED)
}

/// `prepare_scan` as `hmmscan` calls it.
pub fn prepare_library(models: &[CoreModel]) -> Vec<Pipeline> {
    prepare_scan(models, PipelineConfig::default(), SCAN_SEED)
}

/// The scan oracle's pipeline for model `qi`: the per-model seed split
/// `hmmscan --no-fused` uses, prepared on its own.
pub fn prepare_library_member(core: &CoreModel, qi: usize) -> Pipeline {
    Pipeline::prepare(
        core,
        PipelineConfig::default(),
        SCAN_SEED ^ ((qi as u64) << 17),
    )
}

// ----------------------------------------------------------- databases

/// Length distribution of a generated database.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    /// Swissprot-like: mean 374 residues, broad spread.
    Swissprot,
    /// Env_nr-like: mean 197 residues.
    Envnr,
}

/// One generated database and what generating and writing it cost.
pub struct Generated {
    /// The database, resident (the oracle sweeps it in one pass).
    pub db: SeqDb,
    /// Seconds inside the generator.
    pub gen_s: f64,
    /// Seconds inside `DiskDbWriter` (0 when no `.h3wdb` was asked for).
    pub diskdb_write_s: f64,
}

/// Generate `background` background sequences followed by, for each
/// `(model, count)` family, exactly `count` homologs of that model, and
/// stream them to a FASTA file and/or a packed `.h3wdb` as asked.
///
/// Homolog counts are exact rather than a per-sequence probability so
/// that the Viterbi/Forward share of the work does not vary with the
/// seed; names are prefixed per family so they stay unique.
pub fn generate_db(
    preset: Preset,
    background: usize,
    families: &[(&CoreModel, usize)],
    seed: u64,
    fasta_path: Option<&Path>,
    h3wdb_path: Option<&Path>,
) -> Result<Generated, String> {
    const GEN_CHUNK: u64 = 1 << 20;
    let base = match preset {
        Preset::Swissprot => DbGenSpec::swissprot_like(),
        Preset::Envnr => DbGenSpec::envnr_like(),
    };
    let mut out = Generated {
        db: SeqDb::new(base.name.clone()),
        gen_s: 0.0,
        diskdb_write_s: 0.0,
    };
    let mut fasta_out = match fasta_path {
        Some(p) => Some(std::io::BufWriter::new(
            std::fs::File::create(p).map_err(err("create FASTA"))?,
        )),
        None => None,
    };
    let mut disk_out = match h3wdb_path {
        Some(p) => Some(DiskDbWriter::create(p, &base.name).map_err(err("create .h3wdb"))?),
        None => None,
    };
    let streams = std::iter::once((None, background, String::new())).chain(
        families
            .iter()
            .enumerate()
            .map(|(f, &(model, count))| (Some(model), count, format!("f{f}."))),
    );
    for (stream, (model, n_seqs, prefix)) in streams.enumerate() {
        let spec = DbGenSpec {
            n_seqs,
            homolog_fraction: 1.0,
            ..base.clone()
        };
        let mut chunks = gen_chunks(&spec, model, seed.wrapping_add(stream as u64), GEN_CHUNK);
        loop {
            let start = Instant::now();
            let Some(mut chunk) = chunks.next() else {
                break;
            };
            out.gen_s += start.elapsed().as_secs_f64();
            for seq in &mut chunk.seqs {
                seq.name.insert_str(0, &prefix);
            }
            if let Some(w) = fasta_out.as_mut() {
                w.write_all(fasta::render(&chunk).as_bytes())
                    .map_err(err("write FASTA"))?;
            }
            if let Some(w) = disk_out.as_mut() {
                let start = Instant::now();
                for seq in &chunk.seqs {
                    w.push(seq).map_err(err("write .h3wdb"))?;
                }
                out.diskdb_write_s += start.elapsed().as_secs_f64();
            }
            out.db.seqs.append(&mut chunk.seqs);
        }
    }
    if let Some(mut w) = fasta_out {
        w.flush().map_err(err("flush FASTA"))?;
    }
    if let Some(w) = disk_out {
        let start = Instant::now();
        w.finish().map_err(err("seal .h3wdb"))?;
        out.diskdb_write_s += start.elapsed().as_secs_f64();
    }
    Ok(out)
}

/// Sequences and residues of a database.
pub fn db_size(db: &SeqDb) -> (usize, u64) {
    (db.len(), db.total_residues())
}

/// Every `stride`-th sequence of `db` (at least one).
pub fn subsample(db: &SeqDb, stride: usize) -> SeqDb {
    let mut sub = SeqDb::new(db.name.clone());
    sub.seqs = db.seqs.iter().step_by(stride.max(1)).cloned().collect();
    sub
}

/// Concatenate chunks back into one database.
pub fn concat(chunks: Vec<SeqDb>) -> SeqDb {
    let mut db = SeqDb::new(chunks.first().map_or("", |c| c.name.as_str()));
    for mut chunk in chunks {
        db.seqs.append(&mut chunk.seqs);
    }
    db
}

/// `DiskDb::load(..).to_seqdb()`: what `cli::load_seqdb` does for a
/// packed database.
pub fn load_h3wdb(path: &Path) -> Result<SeqDb, String> {
    Ok(DiskDb::load(path).map_err(err("load .h3wdb"))?.to_seqdb())
}

/// Read a FASTA file whole and `fasta::parse` it, as `hmmscan` does.
pub fn parse_fasta_file(path: &Path) -> Result<SeqDb, String> {
    let text = std::fs::read_to_string(path).map_err(err("read FASTA"))?;
    fasta::parse(&path.display().to_string(), &text).map_err(err("parse FASTA"))
}

/// `FastaFileSource::open`: the validating first pass of a streamed sweep.
pub fn open_fasta(path: &Path) -> Result<FastaFileSource, String> {
    FastaFileSource::open(path).map_err(err("open FASTA"))
}

/// Drain `source.chunks(max_residues)` with no search behind it.
pub fn drain_chunks(source: &FastaFileSource, max_residues: u64) -> Result<Vec<SeqDb>, String> {
    source
        .chunks(max_residues)
        .collect::<Result<Vec<SeqDb>, _>>()
        .map_err(err("chunk FASTA"))
}

/// `ResidentDb::load` with the default shard size, as `h3w-serve` starts.
pub fn load_resident(path: &Path) -> Result<Arc<ResidentDb>, String> {
    ResidentDb::load(path, 0)
        .map(Arc::new)
        .map_err(err("load resident database"))
}

/// `PackedDb::from_db` and its padding waste.
pub fn pack(db: &SeqDb) -> (PackedDb, f64) {
    let packed = PackedDb::from_db(db);
    let waste = packed.waste_fraction();
    (packed, waste)
}

// ------------------------------------------------------------ searches

/// `Pipeline::search` on the CPU plan.
pub fn search_cpu(pipe: &Pipeline, db: &SeqDb) -> Result<PipelineResult, String> {
    pipe.search(db, &ExecPlan::Cpu).map_err(err("search"))
}

/// `Pipeline::search` with MSV and Viterbi on the simulated Tesla K40.
pub fn search_device(pipe: &Pipeline, db: &SeqDb) -> Result<PipelineResult, String> {
    let plan = ExecPlan::Device {
        dev: DeviceSpec::tesla_k40(),
    };
    pipe.search(db, &plan).map_err(err("device search"))
}

/// `search_source` over a FASTA file in bounded chunks.
pub fn search_stream(
    pipe: &Pipeline,
    source: &FastaFileSource,
    max_residues: u64,
) -> Result<PipelineResult, String> {
    search_source(pipe, source, &ExecPlan::Cpu, max_residues, &Trace::off())
        .map_err(err("streamed search"))
}

/// Median seconds of `search_traced` with the program's own trace on and
/// off, over `pairs` alternating pairs: `(on, off)`.
pub fn search_traced_pair(pipe: &Pipeline, db: &SeqDb, pairs: usize) -> Result<(f64, f64), String> {
    let timed = |trace: &Trace| -> Result<f64, String> {
        let start = Instant::now();
        pipe.search_traced(db, &ExecPlan::Cpu, trace)
            .map_err(err("traced search"))?;
        Ok(start.elapsed().as_secs_f64())
    };
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for _ in 0..pairs.max(1) {
        off.push(timed(&Trace::off())?);
        on.push(timed(&Trace::on())?);
    }
    Ok((median(&on), median(&off)))
}

/// `scan_prepared(fused = true)` as `hmmscan` runs it.
pub fn scan_fused(pipes: &[Pipeline], db: &SeqDb) -> Result<Vec<FamilyResult>, String> {
    scan_prepared(pipes, db, PipelineConfig::default(), true, &Trace::off()).map_err(err("scan"))
}

/// One model's share of an unfused scan: its own `Pipeline::search`,
/// reshaped the way `scan_prepared(fused = false)` reshapes it.
pub fn scan_member(pipe: &Pipeline, db: &SeqDb) -> Result<FamilyResult, String> {
    let res = search_cpu(pipe, db)?;
    Ok(FamilyResult {
        family: pipe.profile.name.clone(),
        m: pipe.profile.m,
        passed: (res.stages[0].seqs_out, res.stages[1].seqs_out),
        stages: res.stages.to_vec(),
        hits: res.hits,
    })
}

/// The `hmmsearch` report.
pub fn render_search(result: &PipelineResult) -> String {
    result.render()
}

/// The `hmmscan` report: per-family summary, then per-target
/// assignments from `best_hits_per_target`.
pub fn render_scan(results: &[FamilyResult], db: &SeqDb) -> String {
    use std::fmt::Write;
    let mut out = String::from("# per-family summary\n");
    for fr in results {
        let _ = writeln!(
            out,
            "{:<24} M={:<5} msv_pass={:<6} vit_pass={:<5} hits={}",
            fr.family,
            fr.m,
            fr.passed.0,
            fr.passed.1,
            fr.hits.len()
        );
    }
    out.push_str("\n# per-target assignments (best family first)\n");
    for (seqid, matches) in best_hits_per_target(results) {
        let _ = write!(out, "{:<24}", db.seqs[seqid as usize].name);
        for m in matches.iter().take(4) {
            let _ = write!(out, "  {} (E={:.2e})", m.family, m.evalue);
        }
        out.push('\n');
    }
    out
}

// ------------------------------------------------------- hit identity

/// One line per hit, in reported order: sequence id, name, Forward
/// score bits, E-value bits.
fn canon<'a>(hits: impl Iterator<Item = (u32, &'a str, f32, f64)>) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for (seqid, name, fwd, evalue) in hits {
        let (fwd, evalue) = (fwd.to_bits(), evalue.to_bits());
        let _ = writeln!(out, "{seqid}\t{name}\t{fwd:08x}\t{evalue:016x}");
    }
    out
}

/// A hit list as text. Two lists are the same list exactly when their
/// texts are equal.
pub fn canon_hits(hits: &[Hit]) -> String {
    canon(
        hits.iter()
            .map(|h| (h.seqid, h.name.as_str(), h.fwd_score, h.evalue)),
    )
}

fn canon_wire(hits: &[WireHit]) -> String {
    canon(
        hits.iter()
            .map(|h| (h.seqid, h.name.as_str(), h.fwd_score, h.evalue)),
    )
}

/// [`canon_hits`] for every family of a scan, under a header per family.
pub fn canon_families(results: &[FamilyResult]) -> String {
    let mut out = String::new();
    for fr in results {
        out.push_str(&format!("# {} M={}\n", fr.family, fr.m));
        out.push_str(&canon_hits(&fr.hits));
    }
    out
}

/// The funnel and the program-reported stage times of one call.
#[derive(Debug, Clone, Copy, Default)]
pub struct Funnel {
    /// `StageStats.time_s` of MSV, Viterbi, Forward (measured on CPU
    /// plans, modeled for device stages).
    pub stage_s: [f64; 3],
    /// Sequences (or model-sequence pairs) entering stage 1.
    pub seqs_in: u64,
    /// Survivors of the MSV filter.
    pub survivors_msv: u64,
    /// Survivors of the Viterbi filter.
    pub survivors_vit: u64,
    /// Reported hits.
    pub hits: u64,
}

impl Funnel {
    fn add(&mut self, stages: &[StageStats], hits: usize) {
        for (total, st) in self.stage_s.iter_mut().zip(stages) {
            *total += st.time_s;
        }
        self.seqs_in += stages[0].seqs_in as u64;
        self.survivors_msv += stages[0].seqs_out as u64;
        self.survivors_vit += stages[1].seqs_out as u64;
        self.hits += hits as u64;
    }

    /// The funnel of one search.
    pub fn of_search(result: &PipelineResult) -> Funnel {
        let mut f = Funnel::default();
        f.add(&result.stages, result.hits.len());
        f
    }

    /// The funnel of a fused scan: counts summed over families. The fused
    /// sweep times each stage once for the whole scan and reports that
    /// time on every family, so stage times are taken once, not summed.
    pub fn of_scan(results: &[FamilyResult]) -> Funnel {
        let mut f = Funnel::default();
        for fr in results {
            f.add(&fr.stages, fr.hits.len());
        }
        if let Some(first) = results.first() {
            for (total, st) in f.stage_s.iter_mut().zip(&first.stages) {
                *total = st.time_s;
            }
        }
        f
    }
}

// ---------------------------------------------------------- cpu probes

fn gcells(cells: u64, secs: f64) -> f64 {
    cells as f64 / secs.max(1e-12) / 1e9
}

/// Single-thread `StripedMsv::run_into` over `db`: the bare kernel rate
/// in real Gcell/s (`M` cells per residue), the ceiling the sweep is
/// placed against.
pub fn msv_kernel_gcells_per_s(pipe: &Pipeline, db: &SeqDb) -> f64 {
    let mut dp = Vec::new();
    let start = Instant::now();
    for seq in &db.seqs {
        std::hint::black_box(pipe.striped_msv.run_into(&pipe.msv, &seq.residues, &mut dp));
    }
    let secs = start.elapsed().as_secs_f64();
    gcells(pipe.msv.m as u64 * db.total_residues(), secs)
}

/// What one `msv_sweep_batched` over a whole database measured.
pub struct MsvSweep {
    /// Real Gcell/s on the global pool at the auto batch width.
    pub gcells_per_s: f64,
    /// Useful slot rows over attempted slot rows of the batch schedule.
    pub lane_occupancy: f64,
    /// `bytes_per_row` x rows / time: computed cache traffic, not DRAM.
    pub computed_gbytes_per_s: f64,
}

/// `msv_sweep_batched` over `db` on the global pool, auto width.
pub fn msv_sweep(pipe: &Pipeline, db: &SeqDb) -> MsvSweep {
    let (outcomes, timing) = msv_sweep_batched(ThreadPool::global(), &pipe.msv, db, 0);
    std::hint::black_box(outcomes);
    let lens: Vec<usize> = db.seqs.iter().map(|s| s.len()).collect();
    let width = pipe.backend().preferred_batch_width();
    MsvSweep {
        gcells_per_s: timing.cells_per_sec / 1e9,
        lane_occupancy: batch_schedule_stats(&lens, None, width).occupancy(),
        computed_gbytes_per_s: (pipe.striped_msv.bytes_per_row() * db.total_residues()) as f64
            / timing.seconds.max(1e-12)
            / 1e9,
    }
}

/// `vit_sweep` over `db`: real Gcell/s and Lazy-F passes per row (an
/// exact count for a fixed database).
pub fn vit_sweep_probe(pipe: &Pipeline, db: &SeqDb) -> (f64, f64) {
    let (outcomes, timing, lazy) = vit_sweep(ThreadPool::global(), &pipe.vit, db);
    std::hint::black_box(outcomes);
    (
        timing.cells_per_sec / 1e9,
        lazy.total_passes as f64 / lazy.rows.max(1) as f64,
    )
}

/// `fwd_sweep_batched` over `db`: real Gcell/s.
pub fn fwd_sweep_gcells_per_s(pipe: &Pipeline, db: &SeqDb) -> f64 {
    let (scores, timing) = fwd_sweep_batched(ThreadPool::global(), &pipe.profile, db, 0);
    std::hint::black_box(scores);
    timing.cells_per_sec / 1e9
}

// ------------------------------------------------------- device probes

/// One device stage as the simulator ran and modeled it.
pub struct DeviceStage {
    /// Host seconds the simulation took.
    pub wall_s: f64,
    /// Achieved occupancy of the launch.
    pub occupancy: f64,
    /// Counted events.
    pub instructions: u64,
    /// DP rows executed.
    pub rows: u64,
    /// Warp shuffles.
    pub shuffles: u64,
    /// Global-memory bytes.
    pub gmem_bytes: u64,
    /// `__syncthreads` barriers.
    pub barriers: u64,
    /// Extra shared-memory cycles lost to bank conflicts.
    pub smem_conflict_extra: u64,
    /// Shared-memory hazards the tracker saw.
    pub hazards: u64,
}

fn device_stage(wall_s: f64, run: &StageRun) -> DeviceStage {
    DeviceStage {
        wall_s,
        occupancy: run.occupancy.occupancy,
        instructions: run.stats.instructions,
        rows: run.stats.rows,
        shuffles: run.stats.shuffles,
        gmem_bytes: run.stats.gmem_bytes,
        barriers: run.stats.barriers,
        smem_conflict_extra: run.stats.smem_conflict_extra,
        hazards: run.stats.hazards,
    }
}

/// `run_msv_device` over a packed database on the Tesla K40 model.
pub fn msv_device(pipe: &Pipeline, packed: &PackedDb) -> Result<DeviceStage, String> {
    let start = Instant::now();
    let run = run_msv_device(&pipe.msv, packed, &DeviceSpec::tesla_k40(), None)
        .map_err(err("run_msv_device"))?;
    Ok(device_stage(start.elapsed().as_secs_f64(), &run.run))
}

/// `run_vit_device` over a packed database on the Tesla K40 model.
pub fn vit_device(pipe: &Pipeline, packed: &PackedDb) -> Result<DeviceStage, String> {
    let start = Instant::now();
    let run = run_vit_device(&pipe.vit, packed, &DeviceSpec::tesla_k40(), None)
        .map_err(err("run_vit_device"))?;
    Ok(device_stage(start.elapsed().as_secs_f64(), &run.run))
}

// --------------------------------------------------------------- serve

/// An in-process `h3w-serve` on an ephemeral localhost port.
pub struct ServerHandle {
    addr: std::net::SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<Result<String, String>>,
}

/// `Server::bind` + `run` on a thread over a resident database, default
/// configuration (2 query slots, no deadline, global pool).
pub fn start_server(db: Arc<ResidentDb>) -> Result<ServerHandle, String> {
    let server = Server::bind(ServeConfig::default(), db).map_err(err("bind"))?;
    let addr = server.local_addr();
    let shutdown = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&shutdown);
    let thread = std::thread::spawn(move || server.run(&flag).map_err(|e| e.to_string()));
    Ok(ServerHandle {
        addr,
        shutdown,
        thread,
    })
}

impl ServerHandle {
    /// Open one client connection.
    pub fn connect(&self) -> Result<Connection, String> {
        Client::connect(self.addr)
            .map(Connection)
            .map_err(err("connect"))
    }

    /// Drain and join the server; returns its final metrics document.
    pub fn stop(self) -> Result<String, String> {
        self.shutdown.store(true, Ordering::SeqCst);
        self.thread
            .join()
            .map_err(|_| "server thread panicked".to_string())?
    }
}

/// One client connection (one request in flight).
pub struct Connection(Client);

/// Service counters read from the metrics document.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeCounters {
    /// Queries answered with hits.
    pub ok: u64,
    /// Queries shed by admission control.
    pub shed: u64,
    /// Queries that missed their deadline.
    pub deadline: u64,
    /// Panics, internal errors and bad requests.
    pub errors: u64,
}

impl Connection {
    /// One `search` request; the reply's hits as [`canon_hits`] text.
    pub fn search(&mut self, hmm_text: &str) -> Result<String, String> {
        match self.0.search(hmm_text, 0).map_err(err("search request"))? {
            Response::Hits { hits, .. } => Ok(canon_wire(&hits)),
            Response::Error { kind, msg } => Err(format!("server refused: {kind}: {msg}")),
            other => Err(format!("unexpected reply: {other:?}")),
        }
    }

    /// One `ping` round trip.
    pub fn ping(&mut self) -> Result<(), String> {
        match self.0.ping() {
            Ok(true) => Ok(()),
            Ok(false) => Err("ping was not answered with a pong".to_string()),
            Err(e) => Err(format!("ping: {e}")),
        }
    }

    /// Fetch the metrics document and read its counters.
    pub fn counters(&mut self) -> Result<ServeCounters, String> {
        let doc = json::parse(&self.0.metrics().map_err(err("metrics request"))?)
            .map_err(err("metrics document"))?;
        let counters = doc.get("counters").unwrap_or(&Json::Null);
        let count = |key: &str| counters.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64;
        Ok(ServeCounters {
            ok: count("served_ok"),
            shed: count("shed"),
            deadline: count("deadline_missed"),
            errors: count("panics") + count("internal_errors") + count("bad_requests"),
        })
    }
}

/// The whole resident database as one `SeqDb` (the in-process arm of
/// `serve.tax_s` sweeps what the server's shards hold).
pub fn resident_as_seqdb(db: &ResidentDb) -> SeqDb {
    concat(db.shards.clone())
}

/// Columns of a prepared pipeline's model.
pub fn pipeline_columns(pipe: &Pipeline) -> usize {
    pipe.profile.m
}
