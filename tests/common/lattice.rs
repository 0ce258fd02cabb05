//! The configuration lattice and its one oracle.
//!
//! The system's contract is that a search reports the scalar CPU
//! pipeline's hits, bit for bit, under every configuration. A [`Point`]
//! is one configuration: model size, database shape, config, SIMD
//! backend, thread count, execution plan, driver and trace. [`check`]
//! runs a point against its reference — the same model and seed prepared
//! on the scalar backend with one thread and searched resident on the CPU
//! plan with tracing off — and demands the same hits (ids, names, score
//! and E-value bits), the same funnel and the same timeless report, with
//! three carve-outs: a pool with Forward on the device sums Forward with
//! the flogsum table (same ids and funnel, scores within 0.15 nats), a
//! checkpointed sweep drops posteriors, and a device run reports a CPU
//! fallback exactly when its whole pool died.
//! [`ScanPoint`] / [`check_scan`] are the same for the multi-model scan.
//!
//! [`Lattice`] and [`ScanLattice`] draw points; `tests/lattice.rs` runs
//! them and checks that every axis value was visited. The named suites
//! pin single points.

use hmmer3_warp::core::fault::MAX_RETRIES;
use hmmer3_warp::cpu::Backend;
use hmmer3_warp::pipeline::{
    scan, scan_prepared, search_chunks, search_source, FamilyResult, Hit, PipelineResult,
    StageStats, StreamError, StreamOptions,
};
use hmmer3_warp::prelude::*;
use hmmer3_warp::seqdb::fasta::{self, FastaError};
use hmmer3_warp::seqdb::{DiskDbWriter, FastaFileSource, SeqSource, SourceError};
use proptest::{Strategy, TestRng};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One database shape: PR 20's four funnels, the empty database, and the
/// hostile inputs that break real tools.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape {
    /// Background with planted homologs: every stage has work.
    Mix,
    /// Background only, `f1 = 1e-12`: nothing passes MSV.
    NoMsvSurvivor,
    /// The mix with `f2 = 0`: nothing passes Viterbi.
    NoVitSurvivor,
    /// One homolog.
    Single,
    /// No sequences at all.
    Empty,
    /// A small mix with degenerate sequences in it (see [`database`]).
    Hostile,
}

impl Shape {
    const ALL: [Shape; 6] = [
        Shape::Mix,
        Shape::NoMsvSurvivor,
        Shape::NoVitSurvivor,
        Shape::Single,
        Shape::Empty,
        Shape::Hostile,
    ];
}

/// Where a search runs its stages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Plan {
    Cpu,
    /// MSV and Viterbi, and Forward if `forward`, over a pool of `devices`
    /// simulated `spec`s under `faults`.
    Device {
        spec: Spec,
        devices: usize,
        forward: bool,
        faults: Faults,
    },
}

/// A simulated device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Spec {
    /// Tesla K40 (Kepler, shuffles).
    K40,
    /// GTX 580 (Fermi, no shuffles).
    Gtx580,
}

impl Plan {
    /// The paper's deployment: one fault-free K40, Forward on the host.
    pub const K40: Plan = Plan::one(Spec::K40, false);
    /// The same on a GTX 580.
    pub const GTX580: Plan = Plan::one(Spec::Gtx580, false);
    /// All three stages on one K40.
    pub const K40_FULL: Plan = Plan::one(Spec::K40, true);

    const fn one(spec: Spec, forward: bool) -> Plan {
        Plan::Device {
            spec,
            devices: 1,
            forward,
            faults: Faults::None,
        }
    }

    /// A pool of `devices` K40s under `faults`, Forward on the host.
    pub const fn pool(devices: usize, faults: Faults) -> Plan {
        Plan::Device {
            spec: Spec::K40,
            devices,
            forward: false,
            faults,
        }
    }
}

/// The fault plan a device pool runs under.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Faults {
    None,
    /// `device` is lost at its `launch`-th kernel launch.
    Kill {
        device: usize,
        launch: u64,
    },
    /// Every other device (from device 0) sees a transient fault at its
    /// first launch for `persist` attempts: within [`MAX_RETRIES`] it is
    /// retried, past it the device is condemned.
    Storm {
        persist: u32,
    },
    /// Every device is lost at its `launch`-th launch: at 0 the pool
    /// dies in MSV; at 1 a device that launched once there dies in
    /// Viterbi.
    AllLost {
        launch: u64,
    },
}

/// How the database reaches the pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Driver {
    /// `Pipeline::search_traced` over the resident database.
    Resident,
    /// `search_source` over a `FastaFileSource` of the database rendered
    /// to a FASTA file, as `hmmsearch --chunk` streams it.
    Fasta { cap: u64 },
    /// `search_source` over the `DiskDb::load` of the `.h3wdb` that
    /// `DiskDbWriter` (what `dbgen` runs) writes of the database.
    Packed { cap: u64 },
    /// `search_chunks`, checkpointed, killed after `kill_after` chunks and
    /// resumed by a pipeline prepared on `backend` with `threads`.
    Resumed {
        cap: u64,
        kill_after: usize,
        backend: Backend,
        threads: usize,
    },
}

/// One configuration of a single-model search.
#[derive(Debug, Clone)]
pub struct Point {
    /// Model length.
    pub m: usize,
    /// Seeds the model, the database and the calibration.
    pub seed: u64,
    pub shape: Shape,
    pub null2: bool,
    pub backend: Backend,
    /// `PipelineConfig::threads` (0 = the global pool).
    pub threads: usize,
    pub plan: Plan,
    pub driver: Driver,
    pub trace: bool,
}

impl Default for Point {
    /// A 48-state model over the homolog mix, native backend, one thread,
    /// CPU plan, resident, untraced.
    fn default() -> Point {
        Point {
            m: 48,
            seed: 1,
            shape: Shape::Mix,
            null2: false,
            backend: Backend::detect(),
            threads: 1,
            plan: Plan::Cpu,
            driver: Driver::Resident,
            trace: false,
        }
    }
}

const THREADS: [usize; 5] = [0, 1, 2, 4, 8];

/// Draws from `0..n` without replacement and reshuffles when spent, so
/// any `n` consecutive draws visit every value.
struct Deck {
    n: usize,
    left: Vec<usize>,
}

impl Deck {
    fn new(n: usize) -> Deck {
        Deck {
            n,
            left: Vec::new(),
        }
    }

    fn draw(&mut self, rng: &mut TestRng) -> usize {
        if self.left.is_empty() {
            self.left = (0..self.n).collect();
            for i in (1..self.n).rev() {
                self.left.swap(i, rng.gen_range(0..=i));
            }
        }
        self.left.pop().expect("a refilled deck is not empty")
    }
}

/// Plan slots of the (plan, driver) deck: the device plan takes five, so
/// its device, device-count, Forward and fault-plan axes are covered as
/// soon as every pair is.
const PLAN_SLOTS: usize = 6;
const DRIVERS: usize = 4;

/// The lattice of [`Point`]s. Every axis is dealt from a shuffled deck,
/// so [`Lattice::CASES`] draws visit every axis value and every
/// (plan, driver) pair.
pub struct Lattice {
    decks: RefCell<[Deck; 12]>,
}

impl Lattice {
    /// Two passes through the (plan, driver) deck: one covers every
    /// axis value, the second mixes them again.
    pub const CASES: usize = 2 * PLAN_SLOTS * DRIVERS;
}

impl Default for Lattice {
    fn default() -> Lattice {
        let backends = Backend::all_available().len();
        Lattice {
            decks: RefCell::new(
                [PLAN_SLOTS * DRIVERS, 4, 6, 2, backends, 5, 2, 2, 5, 2, 6, 5].map(Deck::new),
            ),
        }
    }
}

fn draw_cap(rng: &mut TestRng) -> u64 {
    // One residue per chunk now and then: every sequence its own chunk.
    if rng.gen_range(0..8) == 0 {
        1
    } else {
        rng.gen_range(100..=5_000)
    }
}

impl Strategy for Lattice {
    type Value = Point;

    fn generate(&self, rng: &mut TestRng) -> Point {
        let mut decks = self.decks.borrow_mut();
        let [pair, m, shape, null2, backend, threads, trace, spec, devices, forward, faults, resumed] =
            &mut *decks;
        let pair = pair.draw(rng);
        let backends = Backend::all_available();
        let plan = match pair % PLAN_SLOTS {
            0 => Plan::Cpu,
            _ => {
                let devices = 1 + devices.draw(rng);
                let faults = match faults.draw(rng) {
                    0 => Faults::None,
                    1 => Faults::Kill {
                        device: rng.gen_range(0..devices),
                        launch: rng.gen_range(0..3),
                    },
                    2 => Faults::Storm {
                        persist: rng.gen_range(1..=MAX_RETRIES),
                    },
                    3 => Faults::Storm {
                        persist: rng.gen_range(MAX_RETRIES + 1..=2 * MAX_RETRIES),
                    },
                    k => Faults::AllLost {
                        launch: k as u64 - 4,
                    },
                };
                Plan::Device {
                    spec: [Spec::K40, Spec::Gtx580][spec.draw(rng)],
                    devices,
                    forward: forward.draw(rng) == 1,
                    faults,
                }
            }
        };
        let driver = match pair / PLAN_SLOTS {
            0 => Driver::Resident,
            1 => Driver::Fasta { cap: draw_cap(rng) },
            2 => Driver::Packed { cap: draw_cap(rng) },
            _ => Driver::Resumed {
                cap: draw_cap(rng),
                kill_after: rng.gen_range(1..=3),
                backend: backends[rng.gen_range(0..backends.len())],
                threads: THREADS[resumed.draw(rng)],
            },
        };
        Point {
            m: match m.draw(rng) {
                0 => 1,
                1 => 2,
                2 => rng.gen_range(24..=80),
                _ => rng.gen_range(112..=128),
            },
            seed: rng.gen_range(1..1_000),
            shape: Shape::ALL[shape.draw(rng)],
            null2: null2.draw(rng) == 1,
            backend: backends[backend.draw(rng)],
            threads: THREADS[threads.draw(rng)],
            plan,
            driver,
            trace: trace.draw(rng) == 1,
        }
    }
}

/// One axis value a point visits: `(axis, class)`.
pub type Visit = (&'static str, String);

impl Point {
    /// The axis values this point visits (see [`Lattice::axes`]).
    pub fn visits(&self) -> Vec<Visit> {
        let m = match self.m {
            1 | 2 => self.m.to_string(),
            24..=80 => "24..80".into(),
            _ => "~120".into(),
        };
        let plan = format!("{:?}", self.plan);
        let plan = plan.split(' ').next().unwrap_or_default().to_string();
        let driver = format!("{:?}", self.driver);
        let driver = driver.split(' ').next().unwrap_or_default().to_string();
        let mut visits = vec![
            ("m", m),
            ("shape", format!("{:?}", self.shape)),
            ("null2", self.null2.to_string()),
            ("backend", self.backend.to_string()),
            ("threads", self.threads.to_string()),
            ("trace", self.trace.to_string()),
            ("pair", format!("{plan}/{driver}")),
            ("plan", plan),
            ("driver", driver),
        ];
        if let Plan::Device {
            spec,
            devices,
            forward,
            faults,
        } = self.plan
        {
            let faults = match faults {
                Faults::Storm { persist } if persist <= MAX_RETRIES => {
                    "storm within retries".into()
                }
                Faults::Storm { .. } => "storm past retries".into(),
                Faults::Kill { .. } => "Kill".into(),
                faults => format!("{faults:?}"),
            };
            visits.extend([
                ("device", format!("{spec:?}")),
                ("devices", devices.to_string()),
                ("forward on device", forward.to_string()),
                ("faults", faults),
            ]);
        }
        if let Driver::Resumed { threads, .. } = self.driver {
            visits.push(("resumed threads", threads.to_string()));
        }
        visits
    }
}

impl Lattice {
    /// Every axis [`Point::visits`] reports, with its number of classes
    /// on this host.
    pub fn axes() -> [(&'static str, usize); 14] {
        [
            ("m", 4),
            ("shape", 6),
            ("null2", 2),
            ("backend", Backend::all_available().len()),
            ("threads", 5),
            ("trace", 2),
            ("pair", 2 * DRIVERS),
            ("plan", 2),
            ("driver", DRIVERS),
            ("device", 2),
            ("devices", 5),
            ("forward on device", 2),
            ("faults", 6),
            ("resumed threads", 5),
        ]
    }
}

impl Plan {
    /// The fault injector this plan's pool runs under; each sweep gets a
    /// fresh one (an injector counts launches).
    fn injector(&self) -> Option<FaultInjector> {
        let Plan::Device {
            devices, faults, ..
        } = *self
        else {
            return None;
        };
        let plan = match faults {
            Faults::None => return None,
            Faults::Kill { device, launch } => FaultPlan::none().kill_device(device, launch),
            Faults::Storm { persist } => (0..devices).step_by(2).fold(FaultPlan::none(), |p, d| {
                let kind = [FaultKind::LaunchTransient, FaultKind::KernelTimeout][d / 2 % 2];
                p.transient(d, 0, kind, persist)
            }),
            Faults::AllLost { launch } => {
                (0..devices).fold(FaultPlan::none(), |p, d| p.kill_device(d, launch))
            }
        };
        Some(FaultInjector::new(plan, devices))
    }

    /// The plan as the pipeline takes it; a fault-free pool of one with
    /// Forward on the host goes through the `Device { dev }` shorthand.
    fn exec<'a>(&self, injector: Option<&'a FaultInjector>) -> ExecPlan<'a> {
        let Plan::Device {
            spec,
            devices,
            forward,
            faults,
        } = *self
        else {
            return ExecPlan::Cpu;
        };
        let dev = match spec {
            Spec::K40 => DeviceSpec::tesla_k40(),
            Spec::Gtx580 => DeviceSpec::gtx_580(),
        };
        if (devices, forward, faults) == (1, false, Faults::None) {
            return ExecPlan::Device { dev };
        }
        let pool = FtSweep {
            n_devices: devices,
            injector,
            forward_on_device: forward,
        };
        ExecPlan::Devices { dev, pool }
    }
}

/// The database of a point's shape. Hostile inputs go in among a small
/// mix: an empty sequence, a length-1 one, one of all-ambiguity codes
/// (20–25), one of the model's consensus repeated until the byte MSV
/// saturates with two same-length background ones for the length binning
/// to batch it with and a short one beside it, and one of 16,500 residues
/// — longer than every drawable chunk cap and than the 16,384-entry
/// `null1` table.
pub fn database(shape: Shape, model: &CoreModel, seed: u64) -> SeqDb {
    let mut spec = DbGenSpec::envnr_like().scaled(3e-5);
    spec.homolog_fraction = 0.05;
    match shape {
        Shape::Mix | Shape::NoVitSurvivor => generate(&spec, Some(model), seed),
        Shape::NoMsvSurvivor => generate(&spec, None, seed),
        Shape::Single => {
            spec.n_seqs = 1;
            spec.homolog_fraction = 1.0;
            generate(&spec, Some(model), seed)
        }
        Shape::Empty => SeqDb::new("empty"),
        Shape::Hostile => {
            spec.n_seqs /= 4;
            let mut db = generate(&spec, Some(model), seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut random =
                |len: usize| -> Vec<u8> { (0..len).map(|_| rng.gen_range(0u8..20)).collect() };
            let repeat: Vec<u8> = model
                .consensus
                .iter()
                .cycle()
                .take(1_200)
                .copied()
                .collect();
            let hostile = [
                ("empty", Vec::new()),
                ("single-residue", random(1)),
                ("ambiguous", (0..90).map(|i| 20 + (i % 6) as u8).collect()),
                ("saturating", repeat),
                ("beside-a", random(1_200)),
                ("beside-b", random(1_200)),
                ("short", random(3)),
                ("past-null1-table", random(16_500)),
            ];
            for (k, (name, residues)) in hostile.into_iter().enumerate() {
                let at = (k * db.len() / 8).min(db.len());
                db.seqs.insert(
                    at,
                    DigitalSeq {
                        name: name.into(),
                        desc: String::new(),
                        residues,
                    },
                );
            }
            db
        }
    }
}

/// A point's pipeline: its model, config and shape thresholds on
/// `backend` with `threads` workers.
fn prepare(p: &Point, model: &CoreModel, backend: Backend, threads: usize) -> Pipeline {
    let config = PipelineConfig {
        null2: p.null2,
        threads,
        ..PipelineConfig::default()
    };
    let mut pipe = Pipeline::prepare_with_backend(model, config, p.seed, backend);
    // Past the builder: `validate` admits neither cut-off.
    match p.shape {
        Shape::NoMsvSurvivor => pipe.config.f1 = 1e-12,
        Shape::NoVitSurvivor => pipe.config.f2 = 0.0,
        _ => {}
    }
    pipe
}

/// Check one point against its reference; panics with the point on any
/// difference.
pub fn check(p: &Point) {
    let model = synthetic_model(p.m, p.seed, &BuildParams::default());
    let db = database(p.shape, &model, p.seed);
    let mut want = prepare(p, &model, Backend::Scalar, 1)
        .search(&db, &ExecPlan::Cpu)
        .expect("the CPU plan cannot fail");
    let Some(got) = run(p, &model, &db) else {
        return;
    };
    if matches!(p.driver, Driver::Resumed { .. }) {
        // Checkpoints do not persist posteriors.
        for h in &mut want.hits {
            h.posterior = None;
        }
    }
    assert_eq!(got.db_size, want.db_size, "{p:?}: E-value scale");
    assert_eq!(funnel(&got.stages), funnel(&want.stages), "{p:?}: funnel");
    // Every driver names the stages as its plan does.
    let injector = p.plan.injector();
    let labels = p.plan.exec(injector.as_ref()).stage_labels();
    let names: Vec<&str> = got.stages.iter().map(|st| st.name.as_str()).collect();
    assert_eq!(names, labels, "{p:?}: stage labels");
    if matches!(p.plan, Plan::Device { forward: true, .. }) {
        // The device Forward sums with the flogsum table, within its
        // bias of the host's odds-space filter.
        let by_id = |r: &PipelineResult| {
            let mut hits: Vec<(u32, f32)> = r.hits.iter().map(|h| (h.seqid, h.fwd_score)).collect();
            hits.sort_by_key(|h| h.0);
            hits
        };
        let (got, want) = (by_id(&got), by_id(&want));
        let close = |(g, w): (&(u32, f32), &(u32, f32))| g.0 == w.0 && (g.1 - w.1).abs() < 0.15;
        let same = got.len() == want.len() && got.iter().zip(&want).all(close);
        assert!(same, "{p:?}: hits {got:?} vs {want:?}");
        return;
    }
    assert_eq!(hit_bits(&got.hits), hit_bits(&want.hits), "{p:?}: hits");
    let posteriors = |r: &PipelineResult| {
        r.hits
            .iter()
            .map(|h| h.posterior.clone())
            .collect::<Vec<_>>()
    };
    assert!(posteriors(&got) == posteriors(&want), "{p:?}: posteriors");
    // The report differs only in the stage labels, checked above.
    for (w, g) in want.stages.iter_mut().zip(&got.stages) {
        w.name.clone_from(&g.name);
    }
    assert_eq!(timeless(&got), timeless(&want), "{p:?}: report");
}

/// Run a point's driver. `None` when a FASTA driver refused the database
/// (a record with no residues) with the typed error it must give.
fn run(p: &Point, model: &CoreModel, db: &SeqDb) -> Option<PipelineResult> {
    let pipe = prepare(p, model, p.backend, p.threads);
    if let Plan::Device {
        devices, faults, ..
    } = p.plan
    {
        // Only a resident search reports the recovery journal.
        let injector = p.plan.injector();
        let ft = p.plan.exec(injector.as_ref());
        let report = pipe
            .search_traced(db, &ft, &Trace::off())
            .expect("device search");
        let lost = report.recovery.lost_devices.len();
        assert_eq!(
            report.degraded_to_cpu,
            lost == devices,
            "{p:?}: {lost} lost"
        );
        if faults == Faults::None {
            assert_eq!((report.recovery.retries, lost), (0, 0), "{p:?}");
        }
    }
    let trace = if p.trace { Trace::on() } else { Trace::off() };
    let injector = p.plan.injector();
    let plan = p.plan.exec(injector.as_ref());
    let result = match p.driver {
        Driver::Resident => {
            let report = pipe
                .search_traced(db, &plan, &trace)
                .expect("resident search");
            assert_eq!(report.telemetry.is_some(), p.trace, "{p:?}: telemetry");
            report.result
        }
        Driver::Fasta { cap } => {
            let path = temp_path("fa");
            std::fs::write(&path, fasta::render(db)).expect("write FASTA");
            let source = FastaFileSource::open(&path).expect("open FASTA");
            let streamed = search_source(&pipe, &source, &plan, cap, &trace);
            let _ = std::fs::remove_file(&path);
            let has_empty = db.seqs.iter().any(|s| s.is_empty());
            match streamed {
                Ok(result) => {
                    assert!(!has_empty, "{p:?}: an empty record was accepted");
                    result
                }
                Err(e) => {
                    assert!(
                        has_empty
                            && matches!(
                                e,
                                StreamError::Source(SourceError::Fasta(
                                    FastaError::EmptyRecord { .. }
                                ))
                            )
                            && e.to_string().contains("has no residues"),
                        "{p:?}: {e}"
                    );
                    return None;
                }
            }
        }
        Driver::Packed { cap } => {
            let path = temp_path("h3wdb");
            let mut writer = DiskDbWriter::create(&path, &db.name).expect("create .h3wdb");
            for s in &db.seqs {
                writer.push(s).expect("write .h3wdb");
            }
            writer.finish().expect("seal .h3wdb");
            let disk = DiskDb::load(&path).expect("own file loads");
            let _ = std::fs::remove_file(&path);
            search_source(&pipe, &disk, &plan, cap, &trace).expect("packed stream")
        }
        Driver::Resumed {
            cap,
            kill_after,
            backend,
            threads,
        } => {
            let chunks: Vec<SeqDb> = SeqSource::chunks(db, cap)
                .collect::<Result<_, _>>()
                .expect("a resident database chunks");
            let ckpt = temp_path("ckpt");
            let sweep = |pipe: &Pipeline, upto: usize| {
                let injector = p.plan.injector();
                let options = StreamOptions {
                    checkpoint: Some((ckpt.as_path(), content_hash(db))),
                    observer: None,
                };
                search_chunks(
                    pipe,
                    chunks[..upto].iter().map(Ok::<_, StreamError>),
                    Some(db.len()),
                    &p.plan.exec(injector.as_ref()),
                    options,
                    &trace,
                )
            };
            sweep(&pipe, kill_after.min(chunks.len())).expect("killed sweep");
            let resumed = prepare(p, model, backend, threads);
            let report = sweep(&resumed, chunks.len()).expect("resumed sweep");
            let _ = std::fs::remove_file(&ckpt);
            report.result
        }
    };
    Some(result)
}

/// A fresh path in the temp directory, for one driver's file.
fn temp_path(ext: &str) -> PathBuf {
    static FILES: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "h3w-lattice-{}-{}.{ext}",
        std::process::id(),
        FILES.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Per-stage `(seqs_in, seqs_out, residues_in)`.
fn funnel(stages: &[StageStats]) -> Vec<(usize, usize, u64)> {
    stages
        .iter()
        .map(|s| (s.seqs_in, s.seqs_out, s.residues_in))
        .collect()
}

/// What a hit reports, as bits.
fn hit_bits(hits: &[Hit]) -> Vec<(u32, &str, [u32; 3], [u64; 2])> {
    hits.iter()
        .map(|h| {
            let scores = [h.msv_score, h.vit_score, h.fwd_score].map(f32::to_bits);
            (
                h.seqid,
                h.name.as_str(),
                scores,
                [h.pvalue, h.evalue].map(f64::to_bits),
            )
        })
        .collect()
}

/// The rendered report without its wall-clock fields.
fn timeless(r: &PipelineResult) -> String {
    r.render()
        .lines()
        .map(|line| line.split("  time ").next().unwrap_or(line))
        .collect::<Vec<_>>()
        .join("\n")
}

/// How a multi-model scan is driven.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScanDriver {
    /// `scan`: prepares on the detected backend, fused sweep.
    OneShot,
    /// `scan_prepared(.., fused = true, ..)`.
    Fused,
    /// `scan_prepared(.., fused = false, ..)`.
    Unfused,
}

/// One configuration of a multi-model scan.
#[derive(Debug, Clone)]
pub struct ScanPoint {
    /// Model lengths, in library order.
    pub sizes: Vec<usize>,
    pub seed: u64,
    /// The prepared drivers' backend (`OneShot` detects its own).
    pub backend: Backend,
    /// The scan's `PipelineConfig::threads` (0 = the global pool).
    pub threads: usize,
    pub driver: ScanDriver,
    pub trace: bool,
}

/// The lattice of [`ScanPoint`]s: 3–7 models of 24–100 states with at
/// least one size repeated, driver × threads × trace (and backend on the prepared
/// drivers) dealt from shuffled decks.
pub struct ScanLattice {
    decks: RefCell<[Deck; 4]>,
}

impl ScanLattice {
    /// Three passes through the driver deck: covers every thread count,
    /// and the backends over the six prepared-driver cases.
    pub const CASES: usize = 9;

    /// Every axis [`ScanPoint::visits`] reports, with its number of
    /// classes on this host.
    pub fn axes() -> [(&'static str, usize); 4] {
        let backends = Backend::all_available().len();
        [
            ("driver", 3),
            ("threads", 5),
            ("trace", 2),
            ("backend", backends),
        ]
    }
}

impl Default for ScanLattice {
    fn default() -> ScanLattice {
        let backends = Backend::all_available().len();
        ScanLattice {
            decks: RefCell::new([3, 5, 2, backends].map(Deck::new)),
        }
    }
}

impl Strategy for ScanLattice {
    type Value = ScanPoint;

    fn generate(&self, rng: &mut TestRng) -> ScanPoint {
        let mut decks = self.decks.borrow_mut();
        let [driver, threads, trace, backend] = &mut *decks;
        let driver =
            [ScanDriver::OneShot, ScanDriver::Fused, ScanDriver::Unfused][driver.draw(rng)];
        let backends = Backend::all_available();
        let backend = match driver {
            ScanDriver::OneShot => Backend::detect(),
            _ => backends[backend.draw(rng)],
        };
        let mut sizes: Vec<usize> = (0..rng.gen_range(3..=7))
            .map(|_| rng.gen_range(24..=100))
            .collect();
        sizes[1] = sizes[0];
        ScanPoint {
            sizes,
            seed: rng.gen_range(1..1_000),
            backend,
            threads: THREADS[threads.draw(rng)],
            driver,
            trace: trace.draw(rng) == 1,
        }
    }
}

impl ScanPoint {
    /// The axis values this point visits (see [`ScanLattice::axes`]).
    pub fn visits(&self) -> Vec<Visit> {
        let mut visits = vec![
            ("driver", format!("{:?}", self.driver)),
            ("threads", self.threads.to_string()),
            ("trace", self.trace.to_string()),
        ];
        if self.driver != ScanDriver::OneShot {
            visits.push(("backend", self.backend.to_string()));
        }
        visits
    }
}

/// Check one scan point against per-model scalar searches under the
/// scan's seed split (`seed ^ (qi << 17)`); panics with the point on any
/// difference.
pub fn check_scan(p: &ScanPoint) {
    let models: Vec<CoreModel> = p
        .sizes
        .iter()
        .enumerate()
        .map(|(i, &m)| synthetic_model(m, p.seed + i as u64, &BuildParams::default()))
        .collect();
    let mut spec = DbGenSpec::envnr_like().scaled(3e-5);
    spec.homolog_fraction = 0.05;
    let db = generate(&spec, Some(&models[0]), p.seed);
    let config = PipelineConfig {
        threads: p.threads,
        ..PipelineConfig::default()
    };
    let seed_of = |qi: usize| p.seed ^ ((qi as u64) << 17);
    let trace = if p.trace { Trace::on() } else { Trace::off() };
    let got: Vec<FamilyResult> = match p.driver {
        ScanDriver::OneShot => {
            let report = scan(&models, &db, config, p.seed, &trace).expect("scan");
            assert_eq!(report.telemetry.is_some(), p.trace, "{p:?}: telemetry");
            report.results
        }
        ScanDriver::Fused | ScanDriver::Unfused => {
            let pipes: Vec<Pipeline> = models
                .iter()
                .enumerate()
                .map(|(qi, model)| {
                    let config = PipelineConfig::default();
                    Pipeline::prepare_with_backend(model, config, seed_of(qi), p.backend)
                })
                .collect();
            let fused = p.driver == ScanDriver::Fused;
            scan_prepared(&pipes, &db, config, fused, &trace).expect("scan_prepared")
        }
    };
    assert_eq!(got.len(), models.len(), "{p:?}");
    let reference = PipelineConfig {
        threads: 1,
        ..PipelineConfig::default()
    };
    for (qi, (fr, model)) in got.iter().zip(&models).enumerate() {
        let want = Pipeline::prepare_with_backend(model, reference, seed_of(qi), Backend::Scalar)
            .search(&db, &ExecPlan::Cpu)
            .expect("the CPU plan cannot fail");
        assert_eq!(
            (fr.family.as_str(), fr.m),
            (model.name.as_str(), model.len()),
            "{p:?}"
        );
        assert_eq!(
            hit_bits(&fr.hits),
            hit_bits(&want.hits),
            "{p:?}: family {qi} hits"
        );
        assert_eq!(
            fr.passed,
            (want.stages[0].seqs_out, want.stages[1].seqs_out),
            "{p:?}: family {qi}"
        );
        assert_eq!(
            funnel(&fr.stages),
            funnel(&want.stages),
            "{p:?}: family {qi} funnel"
        );
    }
}
