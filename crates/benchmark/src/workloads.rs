//! The five workloads: how each builds its inputs and reference hits
//! (`setup`), what one operation is (`Operation::run`, always "bytes on
//! disk to ranked hits rendered to a string", as the CLIs do), and which
//! extra timed probes place its layers (`Operation::probes`).
//!
//! Scale 1.0 is the size ISSUE 11 names for each workload; the default
//! scale ([`DEFAULT_SCALE`]) is what fits the benchmark contract's total
//! time cap with at least five timed repetitions per run.

use crate::json::Json;
use crate::layers::{self, CoreModel, FamilyResult, Funnel, Pipeline, Preset, ResidentDb, SeqDb};
use crate::metrics::{DEVICE, SCAN, SEARCH, SERVE, STREAM};
use crate::spans::Spans;
use crate::stats::{median, percentile};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Scale every phase runs at unless `--scale` says otherwise: a quarter
/// of the issue's sizes, so one operation is 0.3-1.2 s and a contract
/// run (three set-ups, a warm-up, 10 s of repetitions) stays near 16 s.
pub const DEFAULT_SCALE: f64 = 0.25;

const SWISSPROT_SEQS: f64 = 459_565.0;
const ENVNR_SEQS: f64 = 6_549_721.0;
/// The paper's Pfam model sizes (section IV).
const LIBRARY_SIZES: [usize; 8] = [48, 100, 200, 400, 800, 1002, 1528, 2405];
/// Library sizes whose first model gets homologs in the scanned database.
const LIBRARY_FAMILIES: [usize; 4] = [100, 400, 1002, 2405];
const HOT_SIZES: [usize; 4] = [100, 200, 400, 800];
const QUERY_M: usize = 400;

/// Write `models` to `path` and read them back: `.hmm` text rounds the
/// parameters, and the oracle must score the model the program will
/// read, not the one the generator held in memory.
fn write_and_reload(path: &Path, models: &[CoreModel]) -> Result<Vec<CoreModel>, String> {
    layers::write_models(path, models)?;
    layers::read_models(path)
}

fn scaled(full: f64, scale: f64, floor: usize) -> usize {
    ((full * scale).round() as usize).max(floor)
}

/// SplitMix64: the benchmark's own order generator, so the request order
/// depends on `--seed` and nothing else.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Named numbers one phase hands to the next (and to the result file).
#[derive(Debug, Default, Clone)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    /// Record `name = value`; recording a name twice is a bug.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(self.get(name).is_none(), "metric {name} recorded twice");
        self.0.push((name.to_string(), value));
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Every `(name, value)`, in recording order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.0.iter().map(|(n, v)| (n.as_str(), *v))
    }

    /// As a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj(self.0.iter().map(|(n, v)| (n.clone(), Json::Num(*v))))
    }

    /// From a JSON object of numbers.
    pub fn from_json(j: &Json) -> Metrics {
        let pairs = j.as_object().unwrap_or(&[]);
        Metrics(
            pairs
                .iter()
                .filter_map(|(k, v)| v.as_f64().map(|v| (k.clone(), v)))
                .collect(),
        )
    }
}

/// What `setup` reports besides the files it wrote.
pub struct SetupReport {
    /// Input facts: `seqs`, `residues`, `models`, `stage1_mres`, ...
    pub input: Metrics,
    /// Per-layer metrics measured while generating and writing.
    pub layers: Metrics,
}

impl SetupReport {
    /// The facts every workload reports about its generated inputs.
    /// `passes` is how many times stage 1 sweeps the database in one
    /// operation (models of a scan, requests of a serve loop).
    fn of(gen: &layers::Generated, models: &[CoreModel], passes: usize) -> SetupReport {
        let (seqs, residues) = layers::db_size(&gen.db);
        let mres = residues as f64 / 1e6;
        let columns: usize = models.iter().map(layers::columns).sum();
        let mut input = Metrics::default();
        input.set("seqs", seqs as f64);
        input.set("residues", residues as f64);
        input.set("models", models.len() as f64);
        input.set("model_columns", columns as f64);
        input.set("stage1_mres", mres * passes as f64);
        let mut layer = Metrics::default();
        layer.set("seqdb.gen_mres_per_s", mres / gen.gen_s.max(1e-12));
        if gen.diskdb_write_s > 0.0 {
            let rate = mres / gen.diskdb_write_s;
            layer.set("seqdb.diskdb_write_mres_per_s", rate);
        }
        SetupReport {
            input,
            layers: layer,
        }
    }
}

/// The reference hit lists `setup` stored, keyed by section.
pub struct Reference {
    dir: PathBuf,
    sections: BTreeMap<String, String>,
}

const REFERENCE_FILE: &str = "reference.txt";
const SECTION_MARK: &str = "== ";

impl Reference {
    fn write(dir: &Path, sections: &[(String, String)]) -> Result<(), String> {
        let hits: usize = sections.iter().map(|(_, text)| hit_lines(text)).sum();
        // An empty reference would make "equal to the reference" vacuous.
        if hits < 10 {
            return Err(format!(
                "reference has only {hits} hits; the workload needs at least 10"
            ));
        }
        let mut out = String::new();
        for (key, text) in sections {
            out.push_str(SECTION_MARK);
            out.push_str(key);
            out.push('\n');
            out.push_str(text);
        }
        std::fs::write(dir.join(REFERENCE_FILE), out).map_err(|e| format!("write reference: {e}"))
    }

    fn read(dir: &Path) -> Result<Reference, String> {
        let text = std::fs::read_to_string(dir.join(REFERENCE_FILE))
            .map_err(|e| format!("read reference (run setup first): {e}"))?;
        let mut sections = BTreeMap::new();
        let mut key: Option<String> = None;
        for line in text.split_inclusive('\n') {
            match line.strip_prefix(SECTION_MARK) {
                Some(k) => {
                    let k = k.trim_end().to_string();
                    sections.insert(k.clone(), String::new());
                    key = Some(k);
                }
                None => {
                    let k = key.as_ref().ok_or("reference file has no section header")?;
                    sections.get_mut(k).expect("section exists").push_str(line);
                }
            }
        }
        Ok(Reference {
            dir: dir.to_path_buf(),
            sections,
        })
    }

    /// 0 when `got` is exactly the stored list for `key`, else 1 (and
    /// `got` is left beside the reference as `mismatch.<key>.txt`).
    fn mismatch(&self, key: &str, got: &str) -> u64 {
        if self.sections.get(key).map(String::as_str) == Some(got) {
            return 0;
        }
        let _ = std::fs::write(self.dir.join(format!("mismatch.{key}.txt")), got);
        1
    }
}

fn hit_lines(canon: &str) -> usize {
    canon.lines().filter(|l| !l.starts_with('#')).count()
}

/// One timed operation's outcome.
#[derive(Debug)]
pub struct Outcome {
    /// Wall of the operation, bytes on disk to rendered report.
    pub wall_s: f64,
    /// Hit lists compared against the reference.
    pub attempted: u64,
    /// Of those, how many errored or differed.
    pub failed: u64,
}

/// A workload opened on a set-up directory.
pub trait Operation {
    /// Run the operation once. Spans are recorded under an `op` root when
    /// the recorder is on; `layer` receives what the call itself reports
    /// (funnel counts, stage times, pool use).
    fn run(&mut self, spans: &mut Spans, layer: &mut Metrics) -> Result<Outcome, String>;

    /// Timed probes that are not part of the operation (bare kernels,
    /// subsample sweeps, the 1-thread arm), each its own root span. Runs
    /// after a traced [`Operation::run`] and may use what it left behind.
    fn probes(&mut self, spans: &mut Spans, layer: &mut Metrics) -> Result<(), String>;
}

/// Build `workload`'s inputs and reference hits in `dir`.
pub fn setup(workload: &str, dir: &Path, seed: u64, scale: f64) -> Result<SetupReport, String> {
    match workload {
        SEARCH => setup_single(dir, seed, SingleQuery::search(scale)),
        STREAM => setup_single(dir, seed, SingleQuery::stream(scale)),
        DEVICE => setup_single(dir, seed, SingleQuery::device(scale)),
        SCAN => setup_scan(dir, seed, scale),
        SERVE => setup_serve(dir, seed, scale),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// Open `workload` on the directory `setup` filled.
pub fn open(workload: &str, dir: &Path) -> Result<Box<dyn Operation>, String> {
    let reference = Reference::read(dir)?;
    let dir = dir.to_path_buf();
    Ok(match workload {
        SEARCH | DEVICE => Box::new(SearchOp {
            dir,
            reference,
            device: workload == DEVICE,
            kept: None,
        }),
        STREAM => Box::new(StreamOp::open(dir, reference)?),
        SCAN => Box::new(ScanOp {
            dir,
            reference,
            kept: None,
        }),
        SERVE => Box::new(ServeOp::open(dir, reference)?),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

/// Time `body` as the operation: an `op` root span when tracing, and the
/// wall either way.
fn timed_op<T>(
    spans: &mut Spans,
    body: impl FnOnce(&mut Spans) -> Result<T, String>,
) -> Result<(T, f64), String> {
    let start = Instant::now();
    let out = spans.time("op", body)?;
    Ok((out, start.elapsed().as_secs_f64()))
}

fn set_funnel(layer: &mut Metrics, f: &Funnel) {
    layer.set("pipeline.survivors_msv", f.survivors_msv as f64);
    layer.set("pipeline.survivors_vit", f.survivors_vit as f64);
    layer.set("pipeline.hits", f.hits as f64);
    layer.set(
        "pipeline.msv_pass_frac",
        f.survivors_msv as f64 / f.seqs_in.max(1) as f64,
    );
}

/// Stage times and the part of `call_s` no stage (nor `other_s`) owns.
fn set_stages(layer: &mut Metrics, f: &Funnel, call_s: f64, other_s: f64) {
    layer.set("pipeline.stage_msv_s", f.stage_s[0]);
    layer.set("pipeline.stage_vit_s", f.stage_s[1]);
    layer.set("pipeline.stage_fwd_s", f.stage_s[2]);
    let gap = call_s - f.stage_s.iter().sum::<f64>() - other_s;
    layer.set("pipeline.unattributed_s", gap);
    layer.set("pipeline.unattributed_frac", gap / call_s.max(1e-12));
}

/// The spans every batch operation has, for a query of `models` models.
fn set_query_spans(layer: &mut Metrics, spans: &Spans, models: usize) {
    layer.set("hmm.read_hmm_s", spans.secs("hmm.read_hmm"));
    layer.set("pipeline.prepare_s", spans.secs("pipeline.prepare"));
    layer.set(
        "pipeline.prepare_per_model_ms",
        spans.secs("pipeline.prepare") * 1e3 / models as f64,
    );
    layer.set("pipeline.render_s", spans.secs("pipeline.render"));
}

fn set_pool(layer: &mut Metrics, pool: &layers::PoolUse, call_s: f64) {
    let threads = layers::pool_threads() as f64;
    layer.set(
        "pool.busy_frac",
        pool.busy_s / (threads * call_s).max(1e-12),
    );
    layer.set("pool.jobs", pool.jobs as f64);
    layer.set("pool.inline_jobs", pool.inline_jobs as f64);
    layer.set("pool.steals", pool.steals as f64);
}

/// The MSV, Viterbi and Forward sweep probes over a resident database:
/// the bare kernel on 1 in 16 sequences, the batched MSV sweep over all
/// of it, Viterbi on 1 in 50 and Forward on 1 in 500.
fn sweep_probes(spans: &mut Spans, layer: &mut Metrics, pipe: &Pipeline, db: &SeqDb) {
    let sixteenth = layers::subsample(db, 16);
    let kernel = spans.time("cpu.msv_kernel", |_| {
        layers::msv_kernel_gcells_per_s(pipe, &sixteenth)
    });
    layer.set("cpu.msv_kernel_gcells_per_s", kernel);
    let sweep = spans.time("cpu.msv_sweep", |_| layers::msv_sweep(pipe, db));
    layer.set("cpu.msv_sweep_gcells_per_s", sweep.gcells_per_s);
    layer.set("cpu.msv_lane_occupancy", sweep.lane_occupancy);
    layer.set("cpu.msv_computed_gbytes_per_s", sweep.computed_gbytes_per_s);
    let fiftieth = layers::subsample(db, 50);
    let (vit, passes) = spans.time("cpu.vit_sweep", |_| {
        layers::vit_sweep_probe(pipe, &fiftieth)
    });
    layer.set("cpu.vit_sweep_gcells_per_s", vit);
    layer.set("cpu.vit_lazyf_passes_per_row", passes);
    let sparse = layers::subsample(db, 500);
    let fwd = spans.time("cpu.fwd_sweep", |_| {
        layers::fwd_sweep_gcells_per_s(pipe, &sparse)
    });
    layer.set("cpu.fwd_sweep_gcells_per_s", fwd);
}

// ------------------------------------------ single-query workloads

const QUERY_FILE: &str = "query.hmm";
const H3WDB_FILE: &str = "db.h3wdb";
const FASTA_FILE: &str = "db.fasta";
const HITS_KEY: &str = "hits";

/// The shape shared by the three one-model workloads.
struct SingleQuery {
    preset: Preset,
    background: usize,
    homologs: usize,
    packed: bool,
    /// Streaming chunk bound in residues (`stream_envnr` only).
    chunk_residues: Option<u64>,
}

impl SingleQuery {
    /// Swissprot-like x0.5, homolog fraction 0.001, packed on disk.
    fn search(scale: f64) -> SingleQuery {
        let background = scaled(SWISSPROT_SEQS * 0.5, scale, 2000);
        SingleQuery {
            preset: Preset::Swissprot,
            background,
            homologs: scaled(background as f64, 0.001, 12),
            packed: true,
            chunk_residues: None,
        }
    }

    /// Env_nr-like x0.05 as FASTA, swept in 8 Mres chunks (scaled with
    /// the database so the chunk count stays near eight).
    fn stream(scale: f64) -> SingleQuery {
        let background = scaled(ENVNR_SEQS * 0.05, scale, 4000);
        SingleQuery {
            preset: Preset::Envnr,
            background,
            homologs: scaled(background as f64, 0.0005, 12),
            packed: false,
            chunk_residues: Some(scaled(8e6, scale, 100_000) as u64),
        }
    }

    /// Swissprot-like x0.004 for the simulated device.
    fn device(scale: f64) -> SingleQuery {
        SingleQuery {
            preset: Preset::Swissprot,
            background: scaled(SWISSPROT_SEQS * 0.004, scale, 48),
            homologs: 12,
            packed: true,
            chunk_residues: None,
        }
    }
}

fn setup_single(dir: &Path, seed: u64, shape: SingleQuery) -> Result<SetupReport, String> {
    let query = layers::synthetic(QUERY_M, seed.wrapping_mul(1000));
    let query = write_and_reload(&dir.join(QUERY_FILE), &[query])?.swap_remove(0);
    let (fasta, h3wdb) = if shape.packed {
        (None, Some(dir.join(H3WDB_FILE)))
    } else {
        (Some(dir.join(FASTA_FILE)), None)
    };
    let gen = layers::generate_db(
        shape.preset,
        shape.background,
        &[(&query, shape.homologs)],
        seed,
        fasta.as_deref(),
        h3wdb.as_deref(),
    )?;
    // The oracle: scalar backend, one pass over the resident database.
    let reference = layers::search_cpu(&layers::prepare_scalar(&query), &gen.db)?;
    Reference::write(
        dir,
        &[(HITS_KEY.to_string(), layers::canon_hits(&reference.hits))],
    )?;

    let mut report = SetupReport::of(&gen, std::slice::from_ref(&query), 1);
    if let Some(chunk) = shape.chunk_residues {
        report.input.set("chunk_residues", chunk as f64);
    }
    Ok(report)
}

/// `search_swissprot` and `device_k40`: read the `.hmm`, prepare, load
/// the packed database, one `Pipeline::search`, render.
struct SearchOp {
    dir: PathBuf,
    reference: Reference,
    device: bool,
    /// The last operation's pipeline and database, for the probes. Dropped
    /// before the next operation is timed, as a CLI run never frees them.
    kept: Option<(Pipeline, SeqDb, CoreModel)>,
}

impl Operation for SearchOp {
    fn run(&mut self, spans: &mut Spans, layer: &mut Metrics) -> Result<Outcome, String> {
        self.kept = None;
        let (dir, device) = (&self.dir, self.device);
        let ((pipe, db, query, result, text, pool), wall_s) = timed_op(spans, |s| {
            let mut models = s.time("hmm.read_hmm", |_| {
                layers::read_models(&dir.join(QUERY_FILE))
            })?;
            let query = models.swap_remove(0);
            let pipe = s.time("pipeline.prepare", |_| layers::prepare(&query));
            let db = s.time("seqdb.load", |_| layers::load_h3wdb(&dir.join(H3WDB_FILE)))?;
            let mark = layers::pool_mark();
            let result = s.time("pipeline.search", |_| {
                if device {
                    layers::search_device(&pipe, &db)
                } else {
                    layers::search_cpu(&pipe, &db)
                }
            })?;
            let pool = layers::pool_since(&mark);
            let text = s.time("pipeline.render", |_| layers::render_search(&result));
            Ok((pipe, db, query, result, text, pool))
        })?;
        std::hint::black_box(text);

        if spans.is_on() {
            let funnel = Funnel::of_search(&result);
            set_funnel(layer, &funnel);
            set_query_spans(layer, spans, 1);
            let (_, residues) = layers::db_size(&db);
            let search_s = spans.secs("pipeline.search");
            layer.set("seqdb.load_s", spans.secs("seqdb.load"));
            layer.set(
                "seqdb.load_mres_per_s",
                residues as f64 / 1e6 / spans.secs("seqdb.load").max(1e-12),
            );
            layer.set("pipeline.search_s", search_s);
            if device {
                // Device stage times are modeled, not measured: they are
                // the paper's claim and repeat exactly.
                layer.set("simt.modeled_msv_s", funnel.stage_s[0]);
                layer.set("simt.modeled_vit_s", funnel.stage_s[1]);
                layer.set(
                    "simt.modeled_device_s",
                    funnel.stage_s[0] + funnel.stage_s[1],
                );
            } else {
                set_stages(layer, &funnel, search_s, 0.0);
                set_pool(layer, &pool, search_s);
            }
        }
        let failed = self
            .reference
            .mismatch(HITS_KEY, &layers::canon_hits(&result.hits));
        self.kept = Some((pipe, db, query));
        Ok(Outcome {
            wall_s,
            attempted: 1,
            failed,
        })
    }

    fn probes(&mut self, spans: &mut Spans, layer: &mut Metrics) -> Result<(), String> {
        let (pipe, db, query) = self.kept.as_ref().ok_or("probes need a finished run")?;
        if self.device {
            return device_probes(spans, layer, pipe, db);
        }
        let build = spans.time("hmm.profile_build", |_| {
            layers::profile_build_secs(std::slice::from_ref(query))
        });
        layer.set("hmm.profile_build_s", build);
        sweep_probes(spans, layer, pipe, db);

        if layers::pool_threads() > 1 {
            let single = layers::prepare_one_thread(query);
            spans.time("pool.one_thread_search", |_| {
                layers::search_cpu(&single, db)
            })?;
            let at_t = layer.get("pipeline.search_s").ok_or("run before probes")?;
            layer.set(
                "pool.speedup_nproc",
                spans.secs("pool.one_thread_search") / at_t.max(1e-12),
            );
        }
        let (on, off) = spans.time("trace.overhead_pairs", |_| {
            layers::search_traced_pair(pipe, db, 3)
        })?;
        layer.set("trace.overhead_frac", on / off.max(1e-12) - 1.0);
        Ok(())
    }
}

fn device_probes(
    spans: &mut Spans,
    layer: &mut Metrics,
    pipe: &Pipeline,
    db: &SeqDb,
) -> Result<(), String> {
    let (_, residues) = layers::db_size(db);
    let (packed, waste) = spans.time("seqdb.pack", |_| layers::pack(db));
    let pack_s = spans.secs("seqdb.pack");
    layer.set("seqdb.pack_s", pack_s);
    layer.set(
        "seqdb.pack_mres_per_s",
        residues as f64 / 1e6 / pack_s.max(1e-12),
    );
    layer.set("seqdb.pack_waste_frac", waste);

    let msv = spans.time("core.msv_device", |_| layers::msv_device(pipe, &packed))?;
    let (fiftieth, _) = layers::pack(&layers::subsample(db, 50));
    let vit = spans.time("core.vit_device", |_| layers::vit_device(pipe, &fiftieth))?;
    layer.set("core.msv_device_wall_s", msv.wall_s);
    layer.set("core.vit_device_wall_s", vit.wall_s);
    let cells = layers::pipeline_columns(pipe) as f64 * residues as f64;
    layer.set("simt.sim_mcells_per_s", cells / 1e6 / msv.wall_s.max(1e-12));
    layer.set("simt.occupancy_msv", msv.occupancy);
    layer.set(
        "simt.instructions_per_row",
        msv.instructions as f64 / msv.rows.max(1) as f64,
    );
    layer.set("simt.shuffles", msv.shuffles as f64);
    layer.set("simt.gmem_bytes", msv.gmem_bytes as f64);
    // The barrier and conflict claims cover both kernels.
    let barriers = (msv.barriers + vit.barriers) as f64;
    layer.set("simt.barriers", barriers);
    layer.set(
        "simt.barriers_per_row",
        barriers / (msv.rows + vit.rows).max(1) as f64,
    );
    layer.set(
        "simt.smem_conflict_extra",
        (msv.smem_conflict_extra + vit.smem_conflict_extra) as f64,
    );
    layer.set("simt.hazards", (msv.hazards + vit.hazards) as f64);
    Ok(())
}

/// `stream_envnr`: read the `.hmm`, prepare, open the FASTA file (its
/// validating pass), `search_source` in bounded chunks, render.
struct StreamOp {
    dir: PathBuf,
    reference: Reference,
    chunk_residues: u64,
    kept: Option<Pipeline>,
    /// Stage times of the last traced operation.
    stage_s: [f64; 3],
}

impl StreamOp {
    fn open(dir: PathBuf, reference: Reference) -> Result<StreamOp, String> {
        let setup = crate::json::read_file(&dir.join(crate::phases::SETUP_FILE))?;
        let chunk_residues = setup
            .get("input")
            .ok_or("setup.json has no input")?
            .num_at("chunk_residues")? as u64;
        Ok(StreamOp {
            dir,
            reference,
            chunk_residues,
            kept: None,
            stage_s: [0.0; 3],
        })
    }
}

impl Operation for StreamOp {
    fn run(&mut self, spans: &mut Spans, layer: &mut Metrics) -> Result<Outcome, String> {
        self.kept = None;
        let (dir, chunk) = (&self.dir, self.chunk_residues);
        let ((pipe, result, text, pool), wall_s) = timed_op(spans, |s| {
            let models = s.time("hmm.read_hmm", |_| {
                layers::read_models(&dir.join(QUERY_FILE))
            })?;
            let pipe = s.time("pipeline.prepare", |_| layers::prepare(&models[0]));
            let source = s.time("seqdb.fasta_open", |_| {
                layers::open_fasta(&dir.join(FASTA_FILE))
            })?;
            let mark = layers::pool_mark();
            let result = s.time("pipeline.stream", |_| {
                layers::search_stream(&pipe, &source, chunk)
            })?;
            let pool = layers::pool_since(&mark);
            let text = s.time("pipeline.render", |_| layers::render_search(&result));
            Ok((pipe, result, text, pool))
        })?;
        std::hint::black_box(text);

        if spans.is_on() {
            let funnel = Funnel::of_search(&result);
            set_funnel(layer, &funnel);
            set_query_spans(layer, spans, 1);
            layer.set("seqdb.fasta_open_s", spans.secs("seqdb.fasta_open"));
            layer.set("pipeline.stream_s", spans.secs("pipeline.stream"));
            set_pool(layer, &pool, spans.secs("pipeline.stream"));
            // What the call spends outside its stages is chunking plus the
            // gap; `probes` measures chunking and closes the account.
            self.stage_s = funnel.stage_s;
        }
        let failed = self
            .reference
            .mismatch(HITS_KEY, &layers::canon_hits(&result.hits));
        self.kept = Some(pipe);
        Ok(Outcome {
            wall_s,
            attempted: 1,
            failed,
        })
    }

    fn probes(&mut self, spans: &mut Spans, layer: &mut Metrics) -> Result<(), String> {
        let pipe = self.kept.as_ref().ok_or("probes need a finished run")?;
        // Decode + chunking with no search behind it: what the streamed
        // call spends outside its three stages.
        let source = layers::open_fasta(&self.dir.join(FASTA_FILE))?;
        let chunks = spans.time("seqdb.chunk", |_| {
            layers::drain_chunks(&source, self.chunk_residues)
        })?;
        let chunk_s = spans.secs("seqdb.chunk");
        let n_chunks = chunks.len();
        let db = layers::concat(chunks);
        let (_, residues) = layers::db_size(&db);
        layer.set("seqdb.chunk_s", chunk_s);
        layer.set(
            "seqdb.chunk_mres_per_s",
            residues as f64 / 1e6 / chunk_s.max(1e-12),
        );
        layer.set("seqdb.chunks", n_chunks as f64);
        let stream_s = layer.get("pipeline.stream_s").ok_or("run before probes")?;
        let funnel = Funnel {
            stage_s: self.stage_s,
            ..Funnel::default()
        };
        set_stages(layer, &funnel, stream_s, chunk_s);
        sweep_probes(spans, layer, pipe, &db);
        Ok(())
    }
}

// ------------------------------------------------------ scan_library

const LIBRARY_FILE: &str = "library.hmm";
const FAMILIES_KEY: &str = "families";

fn setup_scan(dir: &Path, seed: u64, scale: f64) -> Result<SetupReport, String> {
    let per_size = scaled(4.0, scale, 1);
    let models: Vec<CoreModel> = LIBRARY_SIZES
        .iter()
        .flat_map(|&m| {
            (0..per_size).map(move |k| layers::synthetic(m, seed.wrapping_mul(1000) + k as u64))
        })
        .collect();
    let models = write_and_reload(&dir.join(LIBRARY_FILE), &models)?;
    let families: Vec<(&CoreModel, usize)> = models
        .iter()
        .step_by(per_size)
        .filter(|m| LIBRARY_FAMILIES.contains(&layers::columns(m)))
        .map(|m| (m, 6))
        .collect();
    let gen = layers::generate_db(
        Preset::Swissprot,
        scaled(SWISSPROT_SEQS * 0.02, scale, 160),
        &families,
        seed,
        Some(&dir.join(FASTA_FILE)),
        None,
    )?;
    // The oracle: each model prepared and searched on its own, unfused.
    let reference: Vec<FamilyResult> = models
        .iter()
        .enumerate()
        .map(|(qi, m)| layers::scan_member(&layers::prepare_library_member(m, qi), &gen.db))
        .collect::<Result<_, _>>()?;
    Reference::write(
        dir,
        &[(FAMILIES_KEY.to_string(), layers::canon_families(&reference))],
    )?;

    Ok(SetupReport::of(&gen, &models, models.len()))
}

/// `scan_library`: `read_hmm_many`, `prepare_scan`, `fasta::parse`,
/// `scan_prepared(fused)`, per-target report.
struct ScanOp {
    dir: PathBuf,
    reference: Reference,
    kept: Option<(Vec<CoreModel>, Vec<Pipeline>, SeqDb)>,
}

impl Operation for ScanOp {
    fn run(&mut self, spans: &mut Spans, layer: &mut Metrics) -> Result<Outcome, String> {
        self.kept = None;
        let dir = &self.dir;
        let ((models, pipes, db, results, text, pool), wall_s) = timed_op(spans, |s| {
            let models = s.time("hmm.read_hmm", |_| {
                layers::read_models(&dir.join(LIBRARY_FILE))
            })?;
            let pipes = s.time("pipeline.prepare", |_| layers::prepare_library(&models));
            let db = s.time("seqdb.fasta_parse", |_| {
                layers::parse_fasta_file(&dir.join(FASTA_FILE))
            })?;
            let mark = layers::pool_mark();
            let results = s.time("pipeline.scan", |_| layers::scan_fused(&pipes, &db))?;
            let pool = layers::pool_since(&mark);
            let text = s.time("pipeline.render", |_| layers::render_scan(&results, &db));
            Ok((models, pipes, db, results, text, pool))
        })?;
        std::hint::black_box(text);

        if spans.is_on() {
            let funnel = Funnel::of_scan(&results);
            set_funnel(layer, &funnel);
            let (_, residues) = layers::db_size(&db);
            let scan_s = spans.secs("pipeline.scan");
            set_query_spans(layer, spans, models.len());
            layer.set(
                "seqdb.fasta_parse_mres_per_s",
                residues as f64 / 1e6 / spans.secs("seqdb.fasta_parse").max(1e-12),
            );
            layer.set("pipeline.scan_s", scan_s);
            set_stages(layer, &funnel, scan_s, 0.0);
            set_pool(layer, &pool, scan_s);
        }
        let failed = self
            .reference
            .mismatch(FAMILIES_KEY, &layers::canon_families(&results));
        self.kept = Some((models, pipes, db));
        Ok(Outcome {
            wall_s,
            attempted: 1,
            failed,
        })
    }

    fn probes(&mut self, spans: &mut Spans, layer: &mut Metrics) -> Result<(), String> {
        let (models, pipes, db) = self.kept.as_ref().ok_or("probes need a finished run")?;
        let build = spans.time("hmm.profile_build", |_| layers::profile_build_secs(models));
        layer.set("hmm.profile_build_s", build);
        // The two ends of the model axis: one stripe, and tables past L1.
        for (m, name) in [
            (48, "cpu.msv_kernel_gcells_per_s_m48"),
            (2405, "cpu.msv_kernel_gcells_per_s_m2405"),
        ] {
            let pipe = pipes
                .iter()
                .find(|p| layers::pipeline_columns(p) == m)
                .ok_or("library lacks an expected model size")?;
            let rate = spans.time("cpu.msv_kernel", |_| {
                layers::msv_kernel_gcells_per_s(pipe, db)
            });
            layer.set(name, rate);
        }
        Ok(())
    }
}

// ------------------------------------------------------- serve_mixed

const REQUESTS_FILE: &str = "requests.txt";

fn model_file(idx: usize) -> String {
    format!("model_{idx:03}.hmm")
}

fn setup_serve(dir: &Path, seed: u64, scale: f64) -> Result<SetupReport, String> {
    let requests = scaled(240.0, scale, 40);
    let fresh = requests / 4;
    // Fresh sizes are a fixed ladder over 100..=800 so the prepare work
    // per run does not depend on the seed; the seed picks the models
    // themselves and the order they arrive in.
    let sizes = HOT_SIZES
        .iter()
        .copied()
        .chain((0..fresh).map(|i| 100 + i * 700 / (fresh - 1).max(1)));
    let models: Vec<CoreModel> = sizes
        .enumerate()
        .map(|(i, m)| {
            let model = layers::synthetic(m, seed.wrapping_mul(1000) + i as u64);
            Ok(write_and_reload(&dir.join(model_file(i)), &[model])?.swap_remove(0))
        })
        .collect::<Result<_, String>>()?;

    let mut rng = SplitMix(seed ^ 0x5e7e_0de7);
    let mut order: Vec<usize> = (HOT_SIZES.len()..models.len()).collect();
    order.extend((0..requests - fresh).map(|_| rng.below(HOT_SIZES.len())));
    rng.shuffle(&mut order);
    let listing: String = order.iter().map(|i| format!("{i}\n")).collect();
    std::fs::write(dir.join(REQUESTS_FILE), listing).map_err(|e| format!("write requests: {e}"))?;

    let families: Vec<(&CoreModel, usize)> =
        models[..HOT_SIZES.len()].iter().map(|m| (m, 6)).collect();
    let h3wdb = dir.join(H3WDB_FILE);
    let gen = layers::generate_db(
        Preset::Swissprot,
        scaled(SWISSPROT_SEQS * 0.01, scale, 160),
        &families,
        seed,
        None,
        Some(&h3wdb),
    )?;
    // The server starts by loading what was just written; doing it here
    // both validates the file and puts that cost where set-up time sees it.
    let start = Instant::now();
    layers::load_resident(&h3wdb)?;
    let resident_load_s = start.elapsed().as_secs_f64();

    // The oracle: a one-shot in-process search per model.
    let sections: Vec<(String, String)> = models
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let result = layers::search_cpu(&layers::prepare(m), &gen.db)?;
            Ok((i.to_string(), layers::canon_hits(&result.hits)))
        })
        .collect::<Result<_, String>>()?;
    Reference::write(dir, &sections)?;

    let mut report = SetupReport::of(&gen, &models, requests);
    report.input.set("requests", requests as f64);
    report.input.set("fresh_requests", fresh as f64);
    report.layers.set("seqdb.resident_load_s", resident_load_s);
    Ok(report)
}

/// `serve_mixed`: a fresh in-process server per operation (so its
/// prepared-pipeline cache starts empty every time), one closed-loop
/// client, every request timed and its hits compared.
struct ServeOp {
    dir: PathBuf,
    reference: Reference,
    db: Arc<ResidentDb>,
    /// `(model index, request text)` in arrival order.
    requests: Vec<(usize, String)>,
    /// Median latency of [`TAX_MODEL`]'s requests in the last traced run.
    tax_model_p50_s: Option<f64>,
}

/// The hot model `serve.tax_s` is taken on: the M=400 one, the size the
/// one-query workloads use.
const TAX_MODEL: usize = 2;

impl ServeOp {
    fn open(dir: PathBuf, reference: Reference) -> Result<ServeOp, String> {
        let db = layers::load_resident(&dir.join(H3WDB_FILE))?;
        let listing = std::fs::read_to_string(dir.join(REQUESTS_FILE))
            .map_err(|e| format!("read requests: {e}"))?;
        let requests = listing
            .lines()
            .map(|line| {
                let idx: usize = line.parse().map_err(|_| "bad request line".to_string())?;
                let text = std::fs::read_to_string(dir.join(model_file(idx)))
                    .map_err(|e| format!("read model {idx}: {e}"))?;
                Ok((idx, text))
            })
            .collect::<Result<_, String>>()?;
        Ok(ServeOp {
            dir,
            reference,
            db,
            requests,
            tax_model_p50_s: None,
        })
    }
}

fn is_fresh(model_idx: usize) -> bool {
    model_idx >= HOT_SIZES.len()
}

impl Operation for ServeOp {
    fn run(&mut self, spans: &mut Spans, layer: &mut Metrics) -> Result<Outcome, String> {
        let server = layers::start_server(Arc::clone(&self.db))?;
        let mut conn = server.connect()?;
        let (requests, reference) = (&self.requests, &self.reference);
        let mut latencies = Vec::with_capacity(requests.len());
        let (failed, wall_s) = timed_op(spans, |s| {
            let mut failed = 0;
            for (idx, text) in requests {
                let start = Instant::now();
                let reply = s.time("serve.request", |_| conn.search(text));
                latencies.push((*idx, start.elapsed().as_secs_f64()));
                failed += match reply {
                    Ok(canon) => reference.mismatch(&idx.to_string(), &canon),
                    Err(_) => 1,
                };
            }
            Ok(failed)
        })?;
        let counters = conn.counters()?;
        drop(conn);
        server.stop()?;

        if spans.is_on() {
            let pick = |keep: &dyn Fn(usize) -> bool| -> Vec<f64> {
                let kept = latencies.iter().filter(|(idx, _)| keep(*idx));
                kept.map(|(_, secs)| *secs).collect()
            };
            let all = pick(&|_| true);
            let fresh = pick(&is_fresh);
            layer.set("serve.latency_p50_s", median(&all));
            layer.set("serve.latency_p95_s", percentile(&all, 0.95));
            layer.set("serve.hot_latency_p50_s", median(&pick(&|i| !is_fresh(i))));
            layer.set("serve.fresh_latency_p50_s", median(&fresh));
            layer.set("serve.fresh_frac", fresh.len() as f64 / all.len() as f64);
            layer.set("serve.ok", counters.ok as f64);
            layer.set("serve.shed", counters.shed as f64);
            layer.set("serve.deadline", counters.deadline as f64);
            layer.set("serve.errors", counters.errors as f64);
            let tax_model = pick(&|i| i == TAX_MODEL);
            self.tax_model_p50_s = (!tax_model.is_empty()).then(|| median(&tax_model));
        }
        Ok(Outcome {
            wall_s,
            attempted: requests.len() as u64,
            failed,
        })
    }

    fn probes(&mut self, spans: &mut Spans, layer: &mut Metrics) -> Result<(), String> {
        let server = layers::start_server(Arc::clone(&self.db))?;
        let mut conn = server.connect()?;
        conn.ping()?;
        let mut rtts = Vec::with_capacity(200);
        spans.time("serve.pings", |_| -> Result<(), String> {
            for _ in 0..200 {
                let start = Instant::now();
                conn.ping()?;
                rtts.push(start.elapsed().as_secs_f64());
            }
            Ok(())
        })?;
        layer.set("serve.ping_rtt_us", median(&rtts) * 1e6);
        spans.time("serve.metrics", |_| conn.counters())?;
        layer.set("serve.metrics_s", spans.secs("serve.metrics"));
        drop(conn);
        server.stop()?;

        // The in-process arm: one hot model over the same database, with
        // no socket, framing, admission or shard merge around it.
        let hot: Vec<CoreModel> = (0..HOT_SIZES.len())
            .map(|i| Ok(layers::read_models(&self.dir.join(model_file(i)))?.swap_remove(0)))
            .collect::<Result<_, String>>()?;
        let build = spans.time("hmm.profile_build", |_| layers::profile_build_secs(&hot));
        layer.set("hmm.profile_build_s", build);
        let pipe = spans.time("pipeline.prepare", |_| layers::prepare(&hot[TAX_MODEL]));
        layer.set(
            "pipeline.prepare_per_model_ms",
            spans.secs("pipeline.prepare") * 1e3,
        );
        let whole = layers::resident_as_seqdb(&self.db);
        let mut direct = Vec::new();
        spans.time("serve.in_process_search", |_| -> Result<(), String> {
            for _ in 0..7 {
                let start = Instant::now();
                layers::search_cpu(&pipe, &whole)?;
                direct.push(start.elapsed().as_secs_f64());
            }
            Ok(())
        })?;
        // Taken against that model's own requests: hot latency varies with
        // the model's size, and the in-process arm has one size.
        let served = self
            .tax_model_p50_s
            .ok_or("no request for the tax model in the traced run")?;
        layer.set("serve.tax_s", served - median(&direct));
        Ok(())
    }
}
