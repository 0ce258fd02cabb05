//! Chaos tests of the `h3w-serve` daemon binary: bit-identity with the
//! one-shot `hmmsearch` tool, load shedding, deadlines, panic isolation,
//! corrupted-database startup, device-loss degradation, and SIGTERM
//! drain (also behind clients stalled mid-frame), and a thread count
//! that does not grow with the query models served — all driving the
//! real process over real sockets.

use hmmer3_warp::serve::{Client, ErrorKind, Response};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Duration;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("h3w-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Build a query model and a packed database with planted homologs.
/// Returns (hmm text, model name, packed db path, fasta path).
fn fixture(dir: &Path) -> (String, String, PathBuf, PathBuf) {
    let hmm = dir.join("q.hmm");
    let fasta = dir.join("t.fasta");
    let packed = dir.join("t.h3wdb");
    let out = Command::new(env!("CARGO_BIN_EXE_hmmbuild"))
        .args([hmm.to_str().unwrap(), "--synthetic", "60", "--seed", "4"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "hmmbuild: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = Command::new(env!("CARGO_BIN_EXE_dbgen"))
        .args([
            fasta.to_str().unwrap(),
            "--preset",
            "envnr",
            "--scale",
            "0.0001",
            "--hom",
            "0.03",
            "--model",
            hmm.to_str().unwrap(),
            "--seed",
            "2",
            "--packed",
            packed.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "dbgen: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let hmm_text = std::fs::read_to_string(&hmm).unwrap();
    let name = hmm_text
        .lines()
        .find_map(|l| l.strip_prefix("NAME"))
        .expect("NAME line")
        .trim()
        .to_string();
    (hmm_text, name, packed, fasta)
}

struct Daemon {
    child: std::process::Child,
    addr: String,
    stdout: BufReader<std::process::ChildStdout>,
}

impl Daemon {
    fn start(db: &Path, extra: &[&str]) -> Daemon {
        Daemon::start_with_env(db, extra, &[])
    }

    fn start_with_env(db: &Path, extra: &[&str], env: &[(&str, &str)]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_h3w-serve"))
            .arg(db)
            .args(extra)
            .envs(env.iter().copied())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        let mut stdout = BufReader::new(child.stdout.take().unwrap());
        let mut line = String::new();
        stdout.read_line(&mut line).unwrap();
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected startup line: {line:?}"))
            .to_string();
        Daemon {
            child,
            addr,
            stdout,
        }
    }

    /// SIGTERM the daemon, collect the rest of its stdout (the final
    /// metrics flush), and reap it.
    fn terminate(&mut self) -> (std::process::ExitStatus, String) {
        let pid = self.child.id().to_string();
        assert!(Command::new("kill")
            .args(["-TERM", &pid])
            .status()
            .unwrap()
            .success());
        let mut rest = String::new();
        self.stdout.read_to_string(&mut rest).unwrap();
        let status = self.child.wait().unwrap();
        (status, rest)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Render a wire hit exactly as `hmmsearch --tbl` renders its rows.
fn tbl_line(h: &hmmer3_warp::serve::WireHit) -> String {
    format!(
        "{}\t{:.3}\t{:.3}\t{:.3}\t{:.3e}\t{:.3e}",
        h.name, h.fwd_score, h.msv_score, h.vit_score, h.pvalue, h.evalue
    )
}

#[test]
fn daemon_matches_one_shot_hmmsearch_under_concurrency() {
    let dir = tmpdir("identity");
    let (hmm_text, _, packed, fasta) = fixture(&dir);

    // Ground truth: the one-shot binary's hit table.
    let tbl = dir.join("gold.tsv");
    let out = Command::new(env!("CARGO_BIN_EXE_hmmsearch"))
        .args([
            dir.join("q.hmm").to_str().unwrap(),
            fasta.to_str().unwrap(),
            "--tbl",
            tbl.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let gold: Vec<String> = std::fs::read_to_string(&tbl)
        .unwrap()
        .lines()
        .skip(1)
        .map(str::to_string)
        .collect();
    assert!(!gold.is_empty(), "fixture produced no hits");

    let mut daemon = Daemon::start(&packed, &["--workers", "2", "--shard-residues", "6000"]);
    // Several concurrent clients, all answered identically to the tool.
    let answers: Vec<Vec<String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let addr = daemon.addr.clone();
                let hmm_text = &hmm_text;
                s.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    match client.search(hmm_text, 0).unwrap() {
                        Response::Hits { degraded, hits } => {
                            assert!(!degraded);
                            hits.iter().map(tbl_line).collect::<Vec<_>>()
                        }
                        other => panic!("expected hits, got {other:?}"),
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for answer in &answers {
        assert_eq!(answer, &gold, "daemon hits diverge from hmmsearch --tbl");
    }

    // Metrics report the served queries and the aggregated funnel.
    let mut client = Client::connect(daemon.addr.clone()).unwrap();
    let metrics = client.metrics().unwrap();
    assert!(metrics.contains("\"served_ok\":4"), "metrics: {metrics}");
    assert!(metrics.contains("\"shed\":0"), "metrics: {metrics}");
    assert!(metrics.contains("\"funnel\":{"), "metrics: {metrics}");
    drop(client);

    let (status, final_metrics) = daemon.terminate();
    assert!(status.success(), "drain must exit 0, got {status:?}");
    assert!(final_metrics.contains("\"draining\":true"));
    assert!(final_metrics.contains("\"served_ok\":4"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn overload_is_shed_and_deadlines_are_enforced() {
    let dir = tmpdir("overload");
    let (hmm_text, _, packed, _) = fixture(&dir);
    // One worker, one queue slot, artificially slow shards: concurrent
    // arrivals must overflow the queue and be shed, typed.
    let mut daemon = Daemon::start(
        &packed,
        &[
            "--workers",
            "1",
            "--queue-depth",
            "1",
            "--shard-residues",
            "4000",
            "--chaos-slow-ms",
            "100",
        ],
    );
    let outcomes: Vec<Response> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let addr = daemon.addr.clone();
                let hmm_text = &hmm_text;
                s.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    client.search(hmm_text, 0).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let served = outcomes
        .iter()
        .filter(|r| matches!(r, Response::Hits { .. }))
        .count();
    let shed = outcomes
        .iter()
        .filter(|r| {
            matches!(
                r,
                Response::Error {
                    kind: ErrorKind::Overloaded,
                    ..
                }
            )
        })
        .count();
    assert_eq!(served + shed, 4, "unexpected outcomes: {outcomes:?}");
    assert!(served >= 1, "at least the running slot serves");
    assert!(shed >= 1, "queue depth 1 must shed under 4-way arrival");

    // A 1 ms deadline expires at the first slow shard boundary — typed,
    // and the slot is released for the next query.
    let mut client = Client::connect(daemon.addr.clone()).unwrap();
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
    let metrics = client.metrics().unwrap();
    assert!(
        metrics.contains("\"deadline_missed\":1"),
        "metrics: {metrics}"
    );
    drop(client);
    let (status, _) = daemon.terminate();
    assert!(status.success());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_panicking_query_does_not_take_the_daemon_down() {
    let dir = tmpdir("panic");
    let (hmm_text, model_name, packed, _) = fixture(&dir);
    let mut daemon = Daemon::start(&packed, &["--chaos-panic-model", &model_name]);
    let mut client = Client::connect(daemon.addr.clone()).unwrap();
    let resp = client.search(&hmm_text, 0).unwrap();
    let Response::Error { kind, msg } = resp else {
        panic!("expected the injected panic to surface, got {resp:?}");
    };
    assert_eq!(kind, ErrorKind::Internal);
    assert!(msg.contains("panicked"), "msg: {msg}");
    // Same connection keeps working; the process is intact.
    assert!(client.ping().unwrap());
    let metrics = client.metrics().unwrap();
    assert!(metrics.contains("\"panics\":1"), "metrics: {metrics}");
    drop(client);
    let (status, _) = daemon.terminate();
    assert!(status.success(), "daemon must survive query panics");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sigterm_drains_in_flight_work_then_exits_zero() {
    let dir = tmpdir("drain");
    let (hmm_text, _, packed, _) = fixture(&dir);
    let mut daemon = Daemon::start(
        &packed,
        &["--shard-residues", "4000", "--chaos-slow-ms", "120"],
    );
    let addr = daemon.addr.clone();
    let (in_flight, refused, status, final_metrics) = std::thread::scope(|s| {
        let slow = {
            let addr = addr.clone();
            let hmm_text = &hmm_text;
            s.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                client.search(hmm_text, 0).unwrap()
            })
        };
        // Let the slow query get admitted, then pull the plug.
        std::thread::sleep(Duration::from_millis(300));
        let mut late_client = Client::connect(addr.clone()).unwrap();
        let (status, final_metrics) = daemon.terminate();
        // The drained daemon must NOT have answered the late arrival
        // with hits; a typed ShuttingDown or a closed connection both
        // count as refusal.
        let refused = !matches!(late_client.search(&hmm_text, 0), Ok(Response::Hits { .. }));
        (slow.join().unwrap(), refused, status, final_metrics)
    });
    assert!(
        matches!(in_flight, Response::Hits { .. }),
        "in-flight query must complete through the drain, got {in_flight:?}"
    );
    assert!(refused, "a post-SIGTERM query must be refused");
    assert!(status.success(), "drain exits 0, got {status:?}");
    assert!(final_metrics.contains("\"served_ok\":1"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sigterm_drains_past_clients_stalled_mid_frame() {
    let dir = tmpdir("stalled");
    let (_, _, packed, _) = fixture(&dir);
    let mut daemon = Daemon::start(&packed, &[]);
    let pid = daemon.child.id().to_string();
    // One client stops two bytes into a frame header, another ten bytes
    // into a 64-byte payload; both then hold their connections open.
    let mut in_header = TcpStream::connect(&daemon.addr).unwrap();
    in_header.write_all(&[0, 0]).unwrap();
    let mut in_payload = TcpStream::connect(&daemon.addr).unwrap();
    in_payload.write_all(&64u32.to_be_bytes()).unwrap();
    in_payload.write_all(&[0; 10]).unwrap();
    // Connections are accepted in arrival order: once a third one is
    // served, both stalled ones belong to the daemon, bytes included.
    let metrics = Client::connect(daemon.addr.clone())
        .unwrap()
        .metrics()
        .unwrap();
    assert!(metrics.contains("\"connections\":3"), "metrics: {metrics}");

    let (tx, rx) = std::sync::mpsc::channel();
    let drain = std::thread::spawn(move || {
        let _ = tx.send(daemon.terminate());
    });
    let outcome = rx.recv_timeout(Duration::from_secs(20));
    if outcome.is_err() {
        let _ = Command::new("kill").args(["-KILL", &pid]).status();
    }
    drain.join().unwrap();
    let (status, final_metrics) =
        outcome.expect("daemon still draining 20 s after SIGTERM behind stalled clients");
    assert!(status.success(), "drain exits 0, got {status:?}");
    assert!(
        final_metrics.contains("\"draining\":true"),
        "final metrics: {final_metrics}"
    );
    drop((in_header, in_payload));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn device_loss_degrades_queries_without_crashing() {
    let dir = tmpdir("devloss");
    let (hmm_text, _, packed, fasta) = fixture(&dir);
    // CPU gold via the one-shot tool.
    let tbl = dir.join("gold.tsv");
    let out = Command::new(env!("CARGO_BIN_EXE_hmmsearch"))
        .args([
            dir.join("q.hmm").to_str().unwrap(),
            fasta.to_str().unwrap(),
            "--tbl",
            tbl.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let gold: Vec<String> = std::fs::read_to_string(&tbl)
        .unwrap()
        .lines()
        .skip(1)
        .map(str::to_string)
        .collect();

    let mut daemon = Daemon::start(&packed, &["--gpu", "k40", "--inject-device-loss"]);
    let mut client = Client::connect(daemon.addr.clone()).unwrap();
    let Response::Hits { degraded, hits } = client.search(&hmm_text, 0).unwrap() else {
        panic!("device loss must degrade, not fail the query");
    };
    assert!(degraded, "losing the only device must flag degradation");
    let lines: Vec<String> = hits.iter().map(tbl_line).collect();
    assert_eq!(lines, gold, "degraded sweep must still match CPU hits");
    let metrics = client.metrics().unwrap();
    assert!(metrics.contains("\"degraded\":1"), "metrics: {metrics}");
    drop(client);
    let (status, _) = daemon.terminate();
    assert!(status.success());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_database_is_refused_at_startup_without_panicking() {
    let dir = tmpdir("corrupt");
    let (_, _, packed, _) = fixture(&dir);
    let mut bytes = std::fs::read(&packed).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    let bad = dir.join("bad.h3wdb");
    std::fs::write(&bad, &bytes).unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_h3w-serve"))
        .arg(bad.to_str().unwrap())
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "corrupted DB must refuse startup");
    assert!(stderr.contains("h3w-serve:"), "stderr: {stderr}");
    assert!(
        !stderr.contains("panicked") && !stderr.contains("RUST_BACKTRACE"),
        "startup leaked a panic:\n{stderr}"
    );

    // Truncation is also refused, typed.
    let cut = dir.join("cut.h3wdb");
    std::fs::write(&cut, &std::fs::read(&packed).unwrap()[..mid]).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_h3w-serve"))
        .arg(cut.to_str().unwrap())
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success());
    assert!(
        !stderr.contains("panicked") && !stderr.contains("RUST_BACKTRACE"),
        "startup leaked a panic:\n{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The daemon's thread count (Linux: the entries of `/proc/<pid>/task`).
#[cfg(target_os = "linux")]
fn task_count(pid: u32) -> usize {
    std::fs::read_dir(format!("/proc/{pid}/task"))
        .unwrap()
        .count()
}

/// Every query model runs on the one global pool `H3W_THREADS` sizes:
/// a model the daemon has not seen before prepares a pipeline and caches
/// it, and must not bring worker threads of its own. `--threads`, which
/// gave each cached pipeline a pool, is gone.
#[cfg(target_os = "linux")]
#[test]
fn thread_count_stays_flat_across_distinct_query_models() {
    let dir = tmpdir("threads");
    let (_, _, packed, _) = fixture(&dir);
    let models: Vec<String> = [(30, 11), (40, 12), (50, 13)]
        .into_iter()
        .map(|(m, seed)| {
            let path = dir.join(format!("m{m}.hmm"));
            let out = Command::new(env!("CARGO_BIN_EXE_hmmbuild"))
                .args([path.to_str().unwrap(), "--synthetic", &m.to_string()])
                .args(["--seed", &seed.to_string()])
                .output()
                .unwrap();
            assert!(out.status.success());
            std::fs::read_to_string(&path).unwrap()
        })
        .collect();
    let mut daemon = Daemon::start_with_env(&packed, &[], &[("H3W_THREADS", "4")]);
    let pid = daemon.child.id();
    let mut client = Client::connect(daemon.addr.clone()).unwrap();
    let mut counts = Vec::new();
    for hmm_text in &models {
        let resp = client.search(hmm_text, 0).unwrap();
        assert!(matches!(resp, Response::Hits { .. }), "{resp:?}");
        counts.push(task_count(pid));
    }
    assert_eq!(counts[2], counts[0], "threads after each model: {counts:?}");
    drop(client);
    let (status, _) = daemon.terminate();
    assert!(status.success());

    let out = Command::new(env!("CARGO_BIN_EXE_h3w-serve"))
        .args([packed.to_str().unwrap(), "--threads", "4"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success());
    assert!(stderr.contains("unknown flag \"--threads\""), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
