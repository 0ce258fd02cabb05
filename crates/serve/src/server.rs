//! The daemon: accept loop, fair bounded admission, per-query deadlines,
//! panic isolation, graceful drain.
//!
//! ## Failure containment
//!
//! Every failure a query can provoke maps to a typed wire error and
//! leaves the process serving:
//!
//! - malformed frame / unparsable HMM → [`ErrorKind::BadRequest`];
//! - admission queue full → [`ErrorKind::Overloaded`] (shed, counted);
//! - deadline expiry (queued *or* mid-sweep, checked at shard
//!   boundaries) → [`ErrorKind::DeadlineExceeded`];
//! - a panicking query (poisoned model, engine bug, injected chaos) is
//!   caught at the query boundary → [`ErrorKind::Internal`]; the worker
//!   slot is released and the daemon keeps serving;
//! - SIGTERM flips the drain flag: new queries get
//!   [`ErrorKind::ShuttingDown`], in-flight queries finish, the final
//!   metrics document is flushed, the process exits 0.
//!
//! ## Bit-identity
//!
//! A served query prepares its pipeline with [`crate::QUERY_SEED`] (the
//! same seed the `hmmsearch` binary uses) and sweeps the resident shards
//! with E-values scaled by the full database size — the response is
//! bitwise identical to a one-shot `hmmsearch` over the same FASTA.

use crate::protocol::{
    write_frame, ErrorKind, ProtocolError, Request, Response, WireHit, MAX_FRAME,
};
use crate::resident::ResidentDb;
use crate::QUERY_SEED;
use h3w_pipeline::{
    search_chunks, ChunkProgress, ExecPlan, Pipeline, PipelineConfig, StreamError, StreamOptions,
    Trace,
};
use h3w_seqdb::diskdb::fnv1a;
use h3w_seqdb::DbFormatError;
use h3w_trace::json_string;
use std::collections::{HashMap, VecDeque};
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Why the server could not start or keep running.
#[derive(Debug)]
pub enum ServeError {
    /// Could not bind the listen address.
    Bind {
        /// The requested address.
        addr: String,
        /// OS-level detail.
        msg: String,
    },
    /// The packed database failed to load/validate.
    Db(DbFormatError),
    /// Invalid server configuration.
    Config(String),
    /// Listener-level I/O failure.
    Io(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Bind { addr, msg } => write!(f, "cannot listen on {addr}: {msg}"),
            ServeError::Db(e) => write!(f, "database: {e}"),
            ServeError::Config(msg) => write!(f, "configuration: {msg}"),
            ServeError::Io(msg) => write!(f, "listener: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<DbFormatError> for ServeError {
    fn from(e: DbFormatError) -> ServeError {
        ServeError::Db(e)
    }
}

/// Deliberate fault hooks for chaos testing. All off by default; wired
/// to `h3w-serve --chaos-*` flags so the CI chaos job can provoke the
/// failure paths on demand.
#[derive(Debug, Clone, Default)]
pub struct ChaosConfig {
    /// Panic inside any query whose model has this name (exercises the
    /// panic-isolation boundary).
    pub panic_model: Option<String>,
    /// Sleep this long at every shard boundary (makes deadlines and
    /// drains observable on tiny test databases).
    pub slow_shard_ms: u64,
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Concurrent query slots.
    pub workers: usize,
    /// Bounded admission queue capacity; a query arriving with the
    /// queue full is shed with [`ErrorKind::Overloaded`].
    pub queue_depth: usize,
    /// Default per-query deadline in ms (0 = none) when the request
    /// doesn't carry its own.
    pub default_deadline_ms: u64,
    /// Where every query's stages run: the CPU plan (the default) or a
    /// pool of simulated devices, the database partitioned across them.
    pub plan: ExecPlan,
    /// Chaos hooks.
    pub chaos: ChaosConfig,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_depth: 8,
            default_deadline_ms: 0,
            plan: ExecPlan::Cpu,
            chaos: ChaosConfig::default(),
        }
    }
}

/// Service counters. Monotonic since startup; snapshot via the METRICS
/// request or the final drain flush.
#[derive(Debug, Default)]
struct Counters {
    connections: std::sync::atomic::AtomicU64,
    accepted: std::sync::atomic::AtomicU64,
    served_ok: std::sync::atomic::AtomicU64,
    shed: std::sync::atomic::AtomicU64,
    deadline_missed: std::sync::atomic::AtomicU64,
    panics: std::sync::atomic::AtomicU64,
    internal_errors: std::sync::atomic::AtomicU64,
    bad_requests: std::sync::atomic::AtomicU64,
}

fn bump(c: &std::sync::atomic::AtomicU64) {
    c.fetch_add(1, Ordering::Relaxed);
}

/// FIFO admission: `workers` concurrent slots plus a bounded wait queue.
/// Tickets keep ordering fair — a queued query runs strictly before any
/// query that arrived after it (no barging), and leaves the queue early
/// if its deadline expires or the server starts draining.
struct Admission {
    workers: usize,
    depth: usize,
    state: Mutex<AdmState>,
    cv: Condvar,
}

#[derive(Default)]
struct AdmState {
    running: usize,
    queue: VecDeque<u64>,
    next_ticket: u64,
}

#[derive(Debug)]
enum AdmitReject {
    Overloaded,
    DeadlineExpired,
    Draining,
}

struct AdmitGuard {
    adm: Arc<Admission>,
}

impl Drop for AdmitGuard {
    fn drop(&mut self) {
        let mut s = self.adm.lock();
        s.running -= 1;
        drop(s);
        self.adm.cv.notify_all();
    }
}

impl Admission {
    fn new(workers: usize, depth: usize) -> Arc<Admission> {
        Arc::new(Admission {
            workers,
            depth,
            state: Mutex::new(AdmState::default()),
            cv: Condvar::new(),
        })
    }

    /// The admission state. Nothing that can panic runs under this lock,
    /// so a poisoned one (which cannot occur) is used as it stands.
    fn lock(&self) -> std::sync::MutexGuard<'_, AdmState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn admit(
        self: &Arc<Self>,
        deadline: Option<Instant>,
        draining: &AtomicBool,
    ) -> Result<AdmitGuard, AdmitReject> {
        let mut s = self.lock();
        if draining.load(Ordering::SeqCst) {
            return Err(AdmitReject::Draining);
        }
        if s.running < self.workers && s.queue.is_empty() {
            s.running += 1;
            return Ok(AdmitGuard {
                adm: Arc::clone(self),
            });
        }
        if s.queue.len() >= self.depth {
            return Err(AdmitReject::Overloaded);
        }
        let ticket = s.next_ticket;
        s.next_ticket += 1;
        s.queue.push_back(ticket);
        loop {
            if draining.load(Ordering::SeqCst) {
                s.queue.retain(|&t| t != ticket);
                self.cv.notify_all();
                return Err(AdmitReject::Draining);
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                s.queue.retain(|&t| t != ticket);
                self.cv.notify_all();
                return Err(AdmitReject::DeadlineExpired);
            }
            if s.queue.front() == Some(&ticket) && s.running < self.workers {
                s.queue.pop_front();
                s.running += 1;
                return Ok(AdmitGuard {
                    adm: Arc::clone(self),
                });
            }
            // Timed wait so queued deadlines and the drain flag are
            // polled even without release notifications.
            s = self
                .cv
                .wait_timeout(s, Duration::from_millis(10))
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    fn depths(&self) -> (usize, usize) {
        let s = self.lock();
        (s.queue.len(), s.running)
    }
}

struct ServerInner {
    cfg: ServeConfig,
    db: Arc<ResidentDb>,
    counters: Counters,
    admission: Arc<Admission>,
    /// Service-wide funnel: every query's telemetry is absorbed here, so
    /// the metrics document carries the aggregate MSV→Viterbi→Forward
    /// funnel across the daemon's lifetime.
    funnel: Trace,
    draining: AtomicBool,
    /// Prepared pipelines keyed by the FNV-1a of the query HMM text —
    /// repeat queries skip quantization + calibration. Preparation is
    /// deterministic ([`QUERY_SEED`]), so a racing double-prepare is
    /// harmless.
    pipelines: Mutex<HashMap<u64, Arc<Pipeline>>>,
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    local: SocketAddr,
    inner: Arc<ServerInner>,
}

enum QueryError {
    BadRequest(String),
    Deadline,
    Engine(String),
}

impl Server {
    /// Bind the listen address and assemble the service state. The
    /// database is already resident; this does no per-query work.
    pub fn bind(cfg: ServeConfig, db: Arc<ResidentDb>) -> Result<Server, ServeError> {
        if cfg.workers == 0 {
            return Err(ServeError::Config("workers must be >= 1".to_string()));
        }
        if matches!(cfg.plan, ExecPlan::Devices { n_devices: 0, .. }) {
            return Err(ServeError::Config("device count must be >= 1".to_string()));
        }
        let listener = TcpListener::bind(&cfg.addr).map_err(|e| ServeError::Bind {
            addr: cfg.addr.clone(),
            msg: e.to_string(),
        })?;
        let local = listener
            .local_addr()
            .map_err(|e| ServeError::Io(e.to_string()))?;
        let admission = Admission::new(cfg.workers, cfg.queue_depth);
        Ok(Server {
            listener,
            local,
            inner: Arc::new(ServerInner {
                cfg,
                db,
                counters: Counters::default(),
                admission,
                funnel: Trace::on(),
                draining: AtomicBool::new(false),
                pipelines: Mutex::new(HashMap::new()),
            }),
        })
    }

    /// The bound address (resolves `:0` to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// Serve until `shutdown` goes true (wire it to
    /// [`crate::sig::termination_requested`] for SIGTERM/SIGINT), then
    /// drain: stop accepting, refuse queued/new work with
    /// [`ErrorKind::ShuttingDown`], let in-flight queries finish, and
    /// return the final metrics document.
    pub fn run(self, shutdown: &AtomicBool) -> Result<String, ServeError> {
        self.listener
            .set_nonblocking(true)
            .map_err(|e| ServeError::Io(e.to_string()))?;
        let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while !shutdown.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    bump(&self.inner.counters.connections);
                    let inner = Arc::clone(&self.inner);
                    conns.push(std::thread::spawn(move || handle_conn(&inner, stream)));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                // Transient accept failures (per-connection resets,
                // fd pressure) must not kill the daemon.
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
            conns.retain(|h| !h.is_finished());
        }
        // Drain: wake queued admits so they refuse, let running queries
        // finish, then join every connection thread (each notices the
        // drain flag at its next read-poll tick and exits).
        self.inner.draining.store(true, Ordering::SeqCst);
        self.inner.admission.cv.notify_all();
        for h in conns {
            let _ = h.join();
        }
        Ok(self.inner.metrics_json())
    }
}

impl ServerInner {
    fn metrics_json(&self) -> String {
        let (waiting, running) = self.admission.depths();
        let c = &self.counters;
        let ld = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Relaxed);
        let bins: Vec<String> = self
            .db
            .bins
            .iter()
            .map(|b| {
                format!(
                    "{{\"min_len\":{},\"max_len\":{},\"count\":{}}}",
                    b.min_len, b.max_len, b.count
                )
            })
            .collect();
        let funnel = self
            .funnel
            .snapshot()
            .map_or_else(|| "null".to_string(), |t| t.to_json());
        format!(
            "{{\"db\":{{\"name\":{},\"seqs\":{},\"residues\":{},\"content_hash\":\"{:016x}\",\
             \"shards\":{},\"length_bins\":[{}]}},\
             \"queue\":{{\"workers\":{},\"capacity\":{},\"waiting\":{},\"running\":{}}},\
             \"counters\":{{\"connections\":{},\"accepted\":{},\"served_ok\":{},\"shed\":{},\
             \"deadline_missed\":{},\"panics\":{},\"internal_errors\":{},\"bad_requests\":{}}},\
             \"draining\":{},\"funnel\":{}}}",
            json_string(&self.db.name),
            self.db.total_seqs,
            self.db.total_residues,
            self.db.content_hash,
            self.db.shards.len(),
            bins.join(","),
            self.cfg.workers,
            self.cfg.queue_depth,
            waiting,
            running,
            ld(&c.connections),
            ld(&c.accepted),
            ld(&c.served_ok),
            ld(&c.shed),
            ld(&c.deadline_missed),
            ld(&c.panics),
            ld(&c.internal_errors),
            ld(&c.bad_requests),
            self.draining.load(Ordering::SeqCst),
            funnel,
        )
    }
}

/// Per-connection loop: frames in, responses out, until EOF, transport
/// error, or drain. Read timeouts let the loop poll the drain flag.
fn handle_conn(inner: &Arc<ServerInner>, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(25)));
    loop {
        let payload = match read_frame_polling(&mut stream, &inner.draining) {
            Ok(Some(p)) => p,
            Ok(None) | Err(_) => return,
        };
        let resp = match Request::decode(&payload) {
            Ok(req) => dispatch(inner, req),
            Err(e) => {
                bump(&inner.counters.bad_requests);
                Response::Error {
                    kind: ErrorKind::BadRequest,
                    msg: e.to_string(),
                }
            }
        };
        if write_frame(&mut stream, &resp.encode()).is_err() {
            return;
        }
    }
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// [`crate::protocol::read_frame`] specialized to the server side: reads
/// push through timeouts so a slow client cannot desynchronize the stream,
/// until the server drains. Then a timeout between frames (zero header
/// bytes read) ends the connection cleanly, and one mid-frame abandons it
/// as [`ProtocolError::Truncated`], so a stalled client cannot hold the
/// drain open.
fn read_frame_polling(
    stream: &mut TcpStream,
    draining: &AtomicBool,
) -> Result<Option<Vec<u8>>, ProtocolError> {
    let mut len_buf = [0u8; 4];
    let mut got = 0usize;
    while got < 4 {
        let stop = match stream.read(&mut len_buf[got..]) {
            Ok(0) => true,
            Ok(n) => {
                got += n;
                false
            }
            Err(e) if is_timeout(&e) => draining.load(Ordering::SeqCst),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => false,
            Err(e) => return Err(ProtocolError::Io(e.to_string())),
        };
        if stop {
            return if got == 0 {
                Ok(None)
            } else {
                Err(ProtocolError::Truncated)
            };
        }
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(ProtocolError::FrameTooLarge(len));
    }
    let mut payload = vec![0u8; len];
    let mut got = 0usize;
    while got < len {
        match stream.read(&mut payload[got..]) {
            Ok(0) => return Err(ProtocolError::Truncated),
            Ok(n) => got += n,
            Err(e) if is_timeout(&e) && draining.load(Ordering::SeqCst) => {
                return Err(ProtocolError::Truncated)
            }
            Err(e) if is_timeout(&e) || e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ProtocolError::Io(e.to_string())),
        }
    }
    Ok(Some(payload))
}

fn dispatch(inner: &Arc<ServerInner>, req: Request) -> Response {
    match req {
        Request::Ping => Response::Pong,
        Request::Metrics => Response::Metrics(inner.metrics_json()),
        Request::Search {
            deadline_ms,
            hmm_text,
        } => handle_search(inner, deadline_ms, &hmm_text),
    }
}

fn handle_search(inner: &Arc<ServerInner>, deadline_ms: u32, hmm_text: &str) -> Response {
    if inner.draining.load(Ordering::SeqCst) {
        return Response::Error {
            kind: ErrorKind::ShuttingDown,
            msg: "server is draining".to_string(),
        };
    }
    let ms = if deadline_ms > 0 {
        u64::from(deadline_ms)
    } else {
        inner.cfg.default_deadline_ms
    };
    let deadline = (ms > 0).then(|| Instant::now() + Duration::from_millis(ms));
    let guard = match inner.admission.admit(deadline, &inner.draining) {
        Ok(g) => g,
        Err(AdmitReject::Overloaded) => {
            bump(&inner.counters.shed);
            return Response::Error {
                kind: ErrorKind::Overloaded,
                msg: format!(
                    "admission queue full ({} slots, {} queued)",
                    inner.cfg.workers, inner.cfg.queue_depth
                ),
            };
        }
        Err(AdmitReject::DeadlineExpired) => {
            bump(&inner.counters.deadline_missed);
            return Response::Error {
                kind: ErrorKind::DeadlineExceeded,
                msg: format!("deadline ({ms} ms) expired while queued"),
            };
        }
        Err(AdmitReject::Draining) => {
            return Response::Error {
                kind: ErrorKind::ShuttingDown,
                msg: "server is draining".to_string(),
            };
        }
    };
    bump(&inner.counters.accepted);
    // The panic boundary: whatever a query does, the worker slot is
    // released (guard drop) and the connection gets a typed error.
    let outcome = catch_unwind(AssertUnwindSafe(|| run_query(inner, hmm_text, deadline)));
    drop(guard);
    match outcome {
        Ok(Ok(hits)) => {
            bump(&inner.counters.served_ok);
            Response::Hits { hits }
        }
        Ok(Err(QueryError::BadRequest(msg))) => {
            bump(&inner.counters.bad_requests);
            Response::Error {
                kind: ErrorKind::BadRequest,
                msg,
            }
        }
        Ok(Err(QueryError::Deadline)) => {
            bump(&inner.counters.deadline_missed);
            Response::Error {
                kind: ErrorKind::DeadlineExceeded,
                msg: format!("deadline ({ms} ms) expired mid-sweep"),
            }
        }
        Ok(Err(QueryError::Engine(msg))) => {
            bump(&inner.counters.internal_errors);
            Response::Error {
                kind: ErrorKind::Internal,
                msg,
            }
        }
        Err(panic) => {
            bump(&inner.counters.panics);
            Response::Error {
                kind: ErrorKind::Internal,
                msg: format!("query panicked: {}", panic_message(&panic)),
            }
        }
    }
}

fn panic_message(panic: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Execute one admitted query: fetch the prepared pipeline (parse and
/// prepare it on a miss), then sweep the resident shards through the
/// streamed-sweep driver (`search_chunks`) — the same driver behind
/// `hmmsearch --chunk` — with deadline checks and chaos injection in the
/// chunk observer. Shards are borrowed, never cloned; the merged hit list
/// is bit-identical to a single-pass sweep of the whole database.
fn run_query(
    inner: &Arc<ServerInner>,
    hmm_text: &str,
    deadline: Option<Instant>,
) -> Result<Vec<WireHit>, QueryError> {
    // The cache is keyed on the request text, so a hit skips the parse:
    // the same bytes already parsed and passed the chaos check.
    let key = fnv1a(hmm_text.as_bytes());
    // The cache lock only guards a map lookup or insert, which cannot
    // panic, so it is never poisoned; a poisoned one is used as is.
    let cache = || {
        inner
            .pipelines
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    };
    let cached = cache().get(&key).cloned();
    let pipe = match cached {
        Some(p) => p,
        None => {
            let parsed = h3w_hmm::hmmio::read_hmm(hmm_text)
                .map_err(|e| QueryError::BadRequest(format!("query HMM: {e}")))?;
            if let Some(name) = &inner.cfg.chaos.panic_model {
                if *name == parsed.model.name {
                    // The injected chaos panic, on purpose: `handle_search`
                    // catches it, which is what the chaos suite checks.
                    panic!("chaos: injected panic for model {name:?}");
                }
            }
            // Prepare outside the lock (quantization + calibration is
            // the expensive part). Deterministic, so a racing duplicate
            // is identical and the entry dedups. Every pipeline runs on
            // the global pool, which `H3W_THREADS` sizes: a pool of its
            // own would live, workers and all, as long as its entry.
            let config = PipelineConfig::default();
            let p = Arc::new(Pipeline::prepare(&parsed.model, config, QUERY_SEED));
            Arc::clone(cache().entry(key).or_insert(p))
        }
    };
    let trace = Trace::on();
    let chaos_ms = inner.cfg.chaos.slow_shard_ms;
    let mut observer = |_: &ChunkProgress| {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return Err("deadline".to_string());
        }
        if chaos_ms > 0 {
            std::thread::sleep(Duration::from_millis(chaos_ms));
        }
        Ok(())
    };
    let options = StreamOptions {
        checkpoint: None,
        observer: Some(&mut observer),
    };
    let report = search_chunks(
        &pipe,
        inner.db.shards.iter().map(Ok::<_, StreamError>),
        Some(inner.db.total_seqs),
        &inner.cfg.plan,
        options,
        &trace,
    )
    .map_err(|e| match e {
        StreamError::Cancelled(_) => QueryError::Deadline,
        other => QueryError::Engine(other.to_string()),
    })?;
    if let Some(tel) = trace.snapshot() {
        inner.funnel.absorb(&tel);
    }
    Ok(report
        .result
        .hits
        .into_iter()
        .map(|h| WireHit {
            seqid: h.seqid,
            name: h.name,
            msv_score: h.msv_score,
            vit_score: h.vit_score,
            fwd_score: h.fwd_score,
            pvalue: h.pvalue,
            evalue: h.evalue,
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::resident::tests::resident;
    use h3w_hmm::build::{synthetic_model, BuildParams};
    use h3w_hmm::hmmio::write_hmm;
    use h3w_seqdb::gen::{generate, DbGenSpec};
    use h3w_seqdb::SeqDb;

    fn fixture() -> (String, SeqDb) {
        let core = synthetic_model(60, 42, &BuildParams::default());
        let mut spec = DbGenSpec::swissprot_like().scaled(2e-4);
        spec.homolog_fraction = 0.05;
        let db = generate(&spec, Some(&core), 3);
        (write_hmm(&core, None), db)
    }

    fn start(
        cfg: ServeConfig,
        db: &SeqDb,
        shard_residues: u64,
    ) -> (SocketAddr, Arc<AtomicBool>, std::thread::JoinHandle<String>) {
        let resident = Arc::new(resident(db, shard_residues));
        let server = Server::bind(cfg, resident).unwrap();
        let addr = server.local_addr();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || server.run(&flag).unwrap());
        (addr, stop, handle)
    }

    #[test]
    fn admission_is_fifo_bounded_and_fair() {
        let adm = Admission::new(1, 1);
        let draining = AtomicBool::new(false);
        let first = adm.admit(None, &draining).unwrap();
        // One waiter fits in the queue...
        let adm2 = Arc::clone(&adm);
        let waiter = std::thread::spawn(move || {
            let draining = AtomicBool::new(false);
            adm2.admit(None, &draining).is_ok()
        });
        while adm.depths().0 == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // ...the next arrival is shed.
        assert!(matches!(
            adm.admit(None, &draining),
            Err(AdmitReject::Overloaded)
        ));
        drop(first); // release the slot: the queued waiter runs
        assert!(waiter.join().unwrap());
    }

    #[test]
    fn queued_admit_honors_deadline_and_drain() {
        let adm = Admission::new(1, 4);
        let draining = AtomicBool::new(false);
        let slot = adm.admit(None, &draining).unwrap();
        let t0 = Instant::now();
        let deadline = Some(t0 + Duration::from_millis(40));
        assert!(matches!(
            adm.admit(deadline, &draining),
            Err(AdmitReject::DeadlineExpired)
        ));
        assert!(t0.elapsed() >= Duration::from_millis(40));
        assert_eq!(adm.depths().0, 0, "expired waiter left the queue");
        // A drain kicks a queued waiter out with Draining.
        let adm2 = Arc::clone(&adm);
        let drain_flag = Arc::new(AtomicBool::new(false));
        let df = Arc::clone(&drain_flag);
        let waiter =
            std::thread::spawn(move || matches!(adm2.admit(None, &df), Err(AdmitReject::Draining)));
        while adm.depths().0 == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        drain_flag.store(true, Ordering::SeqCst);
        adm.cv.notify_all();
        assert!(waiter.join().unwrap());
        drop(slot);
    }

    #[test]
    fn served_hits_match_the_library_exactly() {
        let (hmm_text, db) = fixture();
        // Library ground truth: single-pass CPU sweep.
        let parsed = h3w_hmm::hmmio::read_hmm(&hmm_text).unwrap();
        let pipe = Pipeline::prepare(&parsed.model, PipelineConfig::default(), QUERY_SEED);
        let gold = pipe.search(&db, &ExecPlan::Cpu).unwrap();
        assert!(!gold.hits.is_empty(), "fixture should produce hits");

        let (addr, stop, handle) = start(ServeConfig::default(), &db, 4000);
        let mut client = Client::connect(addr).unwrap();
        assert!(client.ping().unwrap());
        let resp = client.search(&hmm_text, 0).unwrap();
        let Response::Hits { hits } = resp else {
            panic!("expected hits, got {resp:?}");
        };
        assert_eq!(hits.len(), gold.hits.len());
        for (wire, gold) in hits.iter().zip(&gold.hits) {
            assert_eq!(wire.seqid, gold.seqid);
            assert_eq!(wire.name, gold.name);
            assert_eq!(wire.fwd_score.to_bits(), gold.fwd_score.to_bits());
            assert_eq!(wire.pvalue.to_bits(), gold.pvalue.to_bits());
            assert_eq!(wire.evalue.to_bits(), gold.evalue.to_bits());
        }

        // Metrics reflect the served query and carry the funnel.
        let metrics = client.metrics().unwrap();
        assert!(metrics.contains("\"served_ok\":1"), "metrics: {metrics}");
        assert!(metrics.contains("\"funnel\":"), "metrics: {metrics}");

        stop.store(true, Ordering::SeqCst);
        let final_metrics = handle.join().unwrap();
        assert!(final_metrics.contains("\"draining\":true"));
    }

    #[test]
    fn bad_hmm_text_is_refused_typed() {
        let (_, db) = fixture();
        let (addr, stop, handle) = start(ServeConfig::default(), &db, 0);
        let mut client = Client::connect(addr).unwrap();
        let resp = client.search("not an hmm at all", 0).unwrap();
        assert!(
            matches!(
                resp,
                Response::Error {
                    kind: ErrorKind::BadRequest,
                    ..
                }
            ),
            "got {resp:?}"
        );
        // The daemon still serves after the refusal.
        assert!(client.ping().unwrap());
        stop.store(true, Ordering::SeqCst);
        handle.join().unwrap();
    }

    #[test]
    fn chaos_panic_is_isolated_and_the_daemon_keeps_serving() {
        let (hmm_text, db) = fixture();
        let parsed = h3w_hmm::hmmio::read_hmm(&hmm_text).unwrap();
        let mut cfg = ServeConfig::default();
        cfg.chaos.panic_model = Some(parsed.model.name.clone());
        let (addr, stop, handle) = start(cfg, &db, 0);
        let mut client = Client::connect(addr).unwrap();
        let resp = client.search(&hmm_text, 0).unwrap();
        let Response::Error { kind, msg } = resp else {
            panic!("expected an error, got {resp:?}");
        };
        assert_eq!(kind, ErrorKind::Internal);
        assert!(msg.contains("panicked"), "msg: {msg}");
        // Same connection, next request: still alive.
        let metrics = client.metrics().unwrap();
        assert!(metrics.contains("\"panics\":1"), "metrics: {metrics}");
        stop.store(true, Ordering::SeqCst);
        handle.join().unwrap();
    }

    #[test]
    fn deadline_zero_budget_expires_mid_sweep() {
        let (hmm_text, db) = fixture();
        let cfg = ServeConfig {
            chaos: ChaosConfig {
                panic_model: None,
                slow_shard_ms: 30,
            },
            ..ServeConfig::default()
        };
        // Small shards: several deadline checkpoints per query.
        let (addr, stop, handle) = start(cfg, &db, 2000);
        let mut client = Client::connect(addr).unwrap();
        let resp = client.search(&hmm_text, 1).unwrap();
        assert!(
            matches!(
                resp,
                Response::Error {
                    kind: ErrorKind::DeadlineExceeded,
                    ..
                }
            ),
            "got {resp:?}"
        );
        // The slot was released; an undeadlined query still completes.
        let resp = client.search(&hmm_text, 0).unwrap();
        assert!(matches!(resp, Response::Hits { .. }), "got {resp:?}");
        stop.store(true, Ordering::SeqCst);
        handle.join().unwrap();
    }
}
