//! End-to-end tests of the command-line tools (`hmmbuild`, `dbgen`,
//! `hmmsearch`) driving the real binaries through a temp directory.

use std::path::PathBuf;
use std::process::Command;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("h3w-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn build_generate_search_round_trip() {
    let dir = tmpdir("roundtrip");
    let hmm = dir.join("q.hmm");
    let fasta = dir.join("t.fasta");
    let tbl = dir.join("hits.tsv");

    // hmmbuild --synthetic
    let out = Command::new(env!("CARGO_BIN_EXE_hmmbuild"))
        .args([hmm.to_str().unwrap(), "--synthetic", "60", "--seed", "4"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "hmmbuild: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&hmm).unwrap();
    assert!(text.starts_with("HMMER3/f"));
    assert!(text.contains("STATS LOCAL MSV"));

    // dbgen with planted homologs
    let out = Command::new(env!("CARGO_BIN_EXE_dbgen"))
        .args([
            fasta.to_str().unwrap(),
            "--preset",
            "envnr",
            "--scale",
            "0.0001",
            "--hom",
            "0.02",
            "--model",
            hmm.to_str().unwrap(),
            "--seed",
            "2",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "dbgen: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // hmmsearch with a hit table
    let out = Command::new(env!("CARGO_BIN_EXE_hmmsearch"))
        .args([
            hmm.to_str().unwrap(),
            fasta.to_str().unwrap(),
            "--tbl",
            tbl.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "hmmsearch: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("MSV"));
    assert!(stdout.contains("hits reported:"));
    let table = std::fs::read_to_string(&tbl).unwrap();
    assert!(table.starts_with("#target"));
    let hom_hits = table.lines().filter(|l| l.starts_with("hom|")).count();
    assert!(
        hom_hits >= 5,
        "expected planted homolog hits, table:\n{table}"
    );

    // The same search over an explicit 4-thread pool reports the same
    // table, byte for byte (thread count is a pure throughput knob).
    let tbl4 = dir.join("hits4.tsv");
    let out4 = Command::new(env!("CARGO_BIN_EXE_hmmsearch"))
        .args([
            hmm.to_str().unwrap(),
            fasta.to_str().unwrap(),
            "--threads",
            "4",
            "--tbl",
            tbl4.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out4.status.success(),
        "hmmsearch --threads 4: {}",
        String::from_utf8_lossy(&out4.stderr)
    );
    assert_eq!(std::fs::read_to_string(&tbl4).unwrap(), table);

    // GPU path reports the same hit names.
    let out_gpu = Command::new(env!("CARGO_BIN_EXE_hmmsearch"))
        .args([
            hmm.to_str().unwrap(),
            fasta.to_str().unwrap(),
            "--gpu",
            "k40",
        ])
        .output()
        .unwrap();
    assert!(out_gpu.status.success());
    let gpu_stdout = String::from_utf8_lossy(&out_gpu.stdout);
    for line in table.lines().skip(1).take(3) {
        let name = line.split('\t').next().unwrap();
        assert!(gpu_stdout.contains(name), "GPU output missing {name}");
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hmmbuild_from_alignment_and_chunked_search() {
    let dir = tmpdir("msa");
    let afa = dir.join("fam.afa");
    let hmm = dir.join("fam.hmm");
    let fasta = dir.join("db.fasta");

    // A small alignment around a fixed pattern.
    let mut text = String::new();
    for i in 0..12 {
        text.push_str(&format!(">row{i}\n"));
        text.push_str(if i % 4 == 0 {
            "MKVLA-WQRST\n"
        } else {
            "MKVLAYWQRST\n"
        });
    }
    std::fs::write(&afa, text).unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_hmmbuild"))
        .args([
            hmm.to_str().unwrap(),
            afa.to_str().unwrap(),
            "--name",
            "FAM",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("match columns"), "{stderr}");

    let h3wdb = dir.join("db.h3wdb");
    let out = Command::new(env!("CARGO_BIN_EXE_dbgen"))
        .args([
            fasta.to_str().unwrap(),
            "--preset",
            "swissprot",
            "--scale",
            "0.00005",
            "--seed",
            "8",
            "--packed",
            h3wdb.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());

    // Chunked streaming search completes and prints the funnel.
    let out = Command::new(env!("CARGO_BIN_EXE_hmmsearch"))
        .args([
            hmm.to_str().unwrap(),
            fasta.to_str().unwrap(),
            "--chunk",
            "4000",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("pipeline over"));

    // The streamed report matches the unchunked one, and streaming the
    // packed .h3wdb reports the same hits too (timings differ run to
    // run, so compare with the time columns stripped).
    let timeless = |s: &str| -> String {
        s.lines()
            .map(|line| match line.find("  time ") {
                Some(cut) => &line[..cut],
                None => line,
            })
            .map(|l| format!("{l}\n"))
            .collect()
    };
    let unchunked = Command::new(env!("CARGO_BIN_EXE_hmmsearch"))
        .args([hmm.to_str().unwrap(), fasta.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(unchunked.status.success());
    assert_eq!(
        timeless(&String::from_utf8_lossy(&unchunked.stdout)),
        timeless(&stdout),
        "streamed report diverged from the unchunked one"
    );
    let packed = Command::new(env!("CARGO_BIN_EXE_hmmsearch"))
        .args([
            hmm.to_str().unwrap(),
            h3wdb.to_str().unwrap(),
            "--chunk",
            "4000",
        ])
        .output()
        .unwrap();
    assert!(
        packed.status.success(),
        "{}",
        String::from_utf8_lossy(&packed.stderr)
    );
    assert_eq!(
        timeless(&String::from_utf8_lossy(&packed.stdout)),
        timeless(&stdout),
        "packed streaming changed the hits"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_errors_are_reported() {
    let out = Command::new(env!("CARGO_BIN_EXE_hmmsearch"))
        .args(["/nonexistent.hmm", "/nonexistent.fasta"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("hmmsearch:"));

    let out = Command::new(env!("CARGO_BIN_EXE_hmmbuild"))
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

/// Run a binary, asserting a nonzero exit, a diagnostic containing
/// `needle` on stderr, and — the panic-free contract — no backtrace.
fn expect_failure(bin: &str, args: &[&str], needle: &str) {
    let exe = match bin {
        "hmmsearch" => env!("CARGO_BIN_EXE_hmmsearch"),
        "hmmscan" => env!("CARGO_BIN_EXE_hmmscan"),
        "hmmbuild" => env!("CARGO_BIN_EXE_hmmbuild"),
        "dbgen" => env!("CARGO_BIN_EXE_dbgen"),
        other => panic!("unknown tool {other}"),
    };
    let out = Command::new(exe).args(args).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "{bin} {args:?} unexpectedly succeeded"
    );
    assert!(
        stderr.contains(needle),
        "{bin} {args:?}: expected {needle:?} in stderr:\n{stderr}"
    );
    assert!(
        !stderr.contains("panicked") && !stderr.contains("RUST_BACKTRACE"),
        "{bin} {args:?} leaked a panic:\n{stderr}"
    );
}

#[test]
fn bad_flags_and_values_are_rejected_without_panicking() {
    expect_failure("hmmsearch", &["--frobnicate"], "unknown flag");
    // Retired knobs are unknown flags like any other.
    expect_failure(
        "hmmsearch",
        &["q.hmm", "db.fa", "--pipeline-depth", "4"],
        "unknown flag \"--pipeline-depth\"",
    );
    expect_failure(
        "hmmscan",
        &["lib.hmm", "db.fa", "--pipeline-depth", "4"],
        "unknown flag \"--pipeline-depth\"",
    );
    expect_failure(
        "hmmscan",
        &["lib.hmm", "db.fa", "--no-fused"],
        "unknown flag \"--no-fused\"",
    );
    expect_failure("hmmsearch", &["q.hmm", "db.fa", "-E"], "needs a value");
    expect_failure(
        "hmmsearch",
        &["q.hmm", "db.fa", "-E", "ten"],
        "bad -E value",
    );
    expect_failure("hmmsearch", &["q.hmm", "db.fa", "-E", "-3"], "-E must be");
    expect_failure("hmmsearch", &["q.hmm", "db.fa", "--chunk", "0"], "--chunk");
    expect_failure(
        "hmmsearch",
        &["q.hmm", "db.fa", "--checkpoint", "x.ckpt"],
        "--checkpoint requires --chunk",
    );
    expect_failure(
        "hmmsearch",
        &["q.hmm", "db.fa", "--devices", "2"],
        "--devices requires --gpu",
    );
    expect_failure(
        "hmmsearch",
        &["q.hmm", "db.fa", "--gpu", "voodoo2"],
        "unknown device",
    );
    expect_failure(
        "hmmsearch",
        &["q.hmm", "db.fa", "--threads", "many"],
        "bad --threads value",
    );
    expect_failure(
        "hmmsearch",
        &["q.hmm", "db.fa", "--threads", "100000"],
        "exceeds the pool maximum",
    );
    expect_failure("hmmsearch", &["only.hmm"], "missing target FASTA");
    expect_failure("hmmscan", &["lib.hmm"], "missing target database");
    expect_failure(
        "hmmsearch",
        &["q.hmm", "db.fa", "--chunk", "5000", "--ali"],
        "drop --chunk",
    );
    expect_failure(
        "hmmsearch",
        &["q.hmm", "db.fa", "--chunk", "5000", "--dom"],
        "drop --chunk",
    );
    expect_failure("hmmbuild", &["out.hmm", "--synthetic", "0"], "--synthetic");
    expect_failure(
        "hmmbuild",
        &["out.hmm", "in.afa", "extra"],
        "unexpected argument",
    );
    expect_failure(
        "dbgen",
        &["out.fa", "--preset", "uniprot"],
        "unknown preset",
    );
    expect_failure("dbgen", &["out.fa", "--scale", "-1"], "--scale must be");
    expect_failure("dbgen", &["out.fa", "--hom", "1.5"], "--hom must be");
}

#[test]
fn malformed_inputs_are_diagnosed_not_panicked() {
    let dir = tmpdir("malformed");
    let good_fa = dir.join("good.fasta");
    std::fs::write(&good_fa, ">s1\nMKVLAWQRST\n").unwrap();

    // Garbage where an HMM is expected.
    let bad_hmm = dir.join("bad.hmm");
    std::fs::write(&bad_hmm, "not an hmm file\n\u{0}\u{1}\u{2}\n").unwrap();
    expect_failure(
        "hmmsearch",
        &[bad_hmm.to_str().unwrap(), good_fa.to_str().unwrap()],
        "bad.hmm",
    );
    expect_failure(
        "hmmscan",
        &[bad_hmm.to_str().unwrap(), good_fa.to_str().unwrap()],
        "bad.hmm",
    );

    // A structurally valid header cut off mid-model.
    let out = Command::new(env!("CARGO_BIN_EXE_hmmbuild"))
        .args([dir.join("q.hmm").to_str().unwrap(), "--synthetic", "20"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let full = std::fs::read_to_string(dir.join("q.hmm")).unwrap();
    let truncated = dir.join("trunc.hmm");
    std::fs::write(&truncated, &full[..full.len() / 2]).unwrap();
    expect_failure(
        "hmmsearch",
        &[truncated.to_str().unwrap(), good_fa.to_str().unwrap()],
        "trunc.hmm",
    );

    // Bad residues in the target database.
    let bad_fa = dir.join("bad.fasta");
    std::fs::write(&bad_fa, ">s1\nMKV1LA\n").unwrap();
    expect_failure(
        "hmmsearch",
        &[
            dir.join("q.hmm").to_str().unwrap(),
            bad_fa.to_str().unwrap(),
        ],
        "hmmsearch:",
    );

    // An alignment that is not aligned FASTA.
    let bad_afa = dir.join("bad.afa");
    std::fs::write(&bad_afa, "this is not an alignment\n").unwrap();
    expect_failure(
        "hmmbuild",
        &[
            dir.join("o.hmm").to_str().unwrap(),
            bad_afa.to_str().unwrap(),
        ],
        "bad.afa",
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// `--help` exits 0 and describes what the usage line offers: every flag
/// in a tool's usage line starts an indented description line of its
/// option list.
#[test]
fn help_exits_zero_with_usage() {
    for bin in [
        env!("CARGO_BIN_EXE_hmmsearch"),
        env!("CARGO_BIN_EXE_hmmscan"),
        env!("CARGO_BIN_EXE_hmmbuild"),
        env!("CARGO_BIN_EXE_dbgen"),
        env!("CARGO_BIN_EXE_h3w-serve"),
    ] {
        let out = Command::new(bin).arg("--help").output().unwrap();
        assert!(out.status.success(), "{bin} --help failed");
        let help = String::from_utf8_lossy(&out.stdout);
        let usage = help.strip_prefix("usage:").expect("usage first");
        let (usage, options) = usage.split_once("\n\n").unwrap_or((usage, ""));
        let flags = usage
            .split_whitespace()
            .map(|t| t.trim_matches(['[', ']']))
            .filter(|t| t.starts_with('-'));
        let described: Vec<&str> = options
            .lines()
            .filter_map(|l| l.strip_prefix("  ")?.split_whitespace().next())
            .collect();
        for flag in flags {
            assert!(
                described.contains(&flag),
                "{bin} --help does not describe {flag}:\n{help}"
            );
        }
    }
}

#[test]
fn multi_device_search_matches_single_device() {
    let dir = tmpdir("ftgpu");
    let hmm = dir.join("q.hmm");
    let fasta = dir.join("t.fasta");
    let out = Command::new(env!("CARGO_BIN_EXE_hmmbuild"))
        .args([hmm.to_str().unwrap(), "--synthetic", "50", "--seed", "6"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let out = Command::new(env!("CARGO_BIN_EXE_dbgen"))
        .args([
            fasta.to_str().unwrap(),
            "--scale",
            "0.00005",
            "--hom",
            "0.05",
            "--model",
            hmm.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());

    let run = |extra: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_hmmsearch"))
            .args([
                hmm.to_str().unwrap(),
                fasta.to_str().unwrap(),
                "--gpu",
                "k40",
            ])
            .args(extra)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let hits = |out: &str| -> Vec<String> {
        let hit_lines = out.lines().filter(|l| l.contains("E ="));
        let cut = |l: &str| l.split_whitespace().take(9).collect::<Vec<_>>().join(" ");
        hit_lines.map(cut).collect()
    };
    let single = run(&[]);
    let multi = run(&["--devices", "3"]);
    assert_eq!(hits(&single), hits(&multi), "multi-device hits diverge");
    // Forward runs on the host under every plan: the retired flag that
    // put it on the device pool is an unknown flag (spelled in two parts,
    // so a search for the retired name finds only history).
    let retired = concat!("--gpu", "-full");
    let out = Command::new(env!("CARGO_BIN_EXE_hmmsearch"))
        .args([hmm.to_str().unwrap(), fasta.to_str().unwrap(), retired])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains(&format!("unknown flag {retired:?}")),
        "{stderr}"
    );
    assert!(stderr.contains("usage: hmmsearch"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpointed_search_resumes_to_identical_output() {
    let dir = tmpdir("ckpt");
    let hmm = dir.join("q.hmm");
    let fasta = dir.join("t.fasta");
    let ckpt = dir.join("sweep.ckpt");
    let out = Command::new(env!("CARGO_BIN_EXE_hmmbuild"))
        .args([hmm.to_str().unwrap(), "--synthetic", "55", "--seed", "3"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let out = Command::new(env!("CARGO_BIN_EXE_dbgen"))
        .args([
            fasta.to_str().unwrap(),
            "--scale",
            "0.00008",
            "--hom",
            "0.04",
            "--model",
            hmm.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());

    // Stage timings vary run to run; compare the hit lines and count.
    let run = |extra: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_hmmsearch"))
            .args([
                hmm.to_str().unwrap(),
                fasta.to_str().unwrap(),
                "--chunk",
                "5000",
            ])
            .args(extra)
            .output()
            .unwrap();
        let hits: Vec<String> = String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|l| l.contains("E =") || l.contains("hits reported:"))
            .map(str::to_string)
            .collect();
        (
            out.status.success(),
            hits,
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };

    let (ok, baseline, _) = run(&[]);
    assert!(ok);
    // First checkpointed run writes the checkpoint and matches the plain
    // streamed run.
    let (ok, first, stderr) = run(&["--checkpoint", ckpt.to_str().unwrap()]);
    assert!(ok, "{stderr}");
    assert!(ckpt.exists(), "checkpoint file not written");
    assert_eq!(first, baseline);
    // Second run resumes from the finished checkpoint — every chunk is
    // skipped — and still reports identical output.
    let (ok, resumed, stderr) = run(&["--checkpoint", ckpt.to_str().unwrap()]);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("resuming from checkpoint"), "{stderr}");
    assert_eq!(resumed, baseline);
    // A coarser --chunk makes the stream end before the checkpoint's
    // cursor: refused, never answered from the saved state.
    expect_failure(
        "hmmsearch",
        &[
            hmm.to_str().unwrap(),
            fasta.to_str().unwrap(),
            "--chunk",
            "100000000",
            "--checkpoint",
            ckpt.to_str().unwrap(),
        ],
        "checkpoint mismatch",
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_old_json_checkpoint_is_refused_before_any_resume_is_announced() {
    let dir = tmpdir("ckpt-json");
    let hmm = dir.join("q.hmm");
    let fasta = dir.join("t.fasta");
    let ckpt = dir.join("sweep.ckpt");
    let out = Command::new(env!("CARGO_BIN_EXE_hmmbuild"))
        .args([hmm.to_str().unwrap(), "--synthetic", "55", "--seed", "3"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let out = Command::new(env!("CARGO_BIN_EXE_dbgen"))
        .args([fasta.to_str().unwrap(), "--scale", "0.00008"])
        .output()
        .unwrap();
    assert!(out.status.success());
    // A version-2 checkpoint, as that format's writer left it: one JSON
    // object and no final newline.
    std::fs::write(
        &ckpt,
        "{\"version\":2,\"chunks_done\":1,\"seq_base\":40,\"total_seqs\":80,\
         \"db_hash\":\"0000000000000000\",\"stages\":[],\"hits\":[]}",
    )
    .unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_hmmsearch"))
        .args([hmm.to_str().unwrap(), fasta.to_str().unwrap()])
        .args(["--chunk", "5000", "--checkpoint", ckpt.to_str().unwrap()])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        !stderr.contains("resum"),
        "a refused file is no resume:\n{stderr}"
    );
    let error = stderr.lines().find(|l| l.starts_with("hmmsearch:"));
    let error = error.unwrap_or_else(|| panic!("no error line in\n{stderr}"));
    assert_eq!(error.matches("checkpoint").count(), 1, "{error}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hmmscan_multi_model_library() {
    let dir = tmpdir("scan");
    let h1 = dir.join("a.hmm");
    let h2 = dir.join("b.hmm");
    let lib = dir.join("lib.hmm");
    let fasta = dir.join("t.fasta");
    for (path, m, seed) in [(&h1, "50", "1"), (&h2, "35", "2")] {
        let out = Command::new(env!("CARGO_BIN_EXE_hmmbuild"))
            .args([path.to_str().unwrap(), "--synthetic", m, "--seed", seed])
            .output()
            .unwrap();
        assert!(out.status.success());
    }
    let mut lib_text = std::fs::read_to_string(&h1).unwrap();
    lib_text.push_str(&std::fs::read_to_string(&h2).unwrap());
    std::fs::write(&lib, lib_text).unwrap();
    // Homologs of model A only.
    let out = Command::new(env!("CARGO_BIN_EXE_dbgen"))
        .args([
            fasta.to_str().unwrap(),
            "--preset",
            "envnr",
            "--scale",
            "0.00005",
            "--hom",
            "0.05",
            "--model",
            h1.to_str().unwrap(),
            "--seed",
            "4",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let out = Command::new(env!("CARGO_BIN_EXE_hmmscan"))
        .args([lib.to_str().unwrap(), fasta.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("per-family summary"));
    // Model A (SYN00050-…) must report hits; its homologs were planted.
    let fam_a_line = stdout
        .lines()
        .find(|l| l.starts_with("SYN00050"))
        .expect("family A line");
    let hits: usize = fam_a_line
        .rsplit("hits=")
        .next()
        .unwrap()
        .trim()
        .parse()
        .unwrap();
    assert!(hits >= 3, "family A hits: {fam_a_line}");

    // The scan is fused; the unfused reference arm (one independent sweep
    // per family), reached in-process, must describe the same report.
    use hmmer3_warp::hmm::hmmio::read_hmm_many;
    use hmmer3_warp::pipeline::{prepare_scan, scan_prepared, PipelineConfig, Trace};
    let models: Vec<_> = read_hmm_many(&std::fs::read_to_string(&lib).unwrap())
        .unwrap()
        .into_iter()
        .map(|f| f.model)
        .collect();
    let db = hmmer3_warp::cli::load_seqdb(fasta.to_str().unwrap()).unwrap();
    let config = PipelineConfig::default();
    let pipes = prepare_scan(&models, config, 0x5ca9);
    let out_unfused = scan_prepared(&pipes, &db, config, false, &Trace::off()).unwrap();
    assert_eq!(
        hmmer3_warp::cli::render_scan(&out_unfused, &db),
        stdout,
        "the unfused reference arm describes a different report"
    );

    // A packed .h3wdb of the same database scans identically.
    let packed = dir.join("t.h3wdb");
    let out = Command::new(env!("CARGO_BIN_EXE_dbgen"))
        .args([
            dir.join("t2.fasta").to_str().unwrap(),
            "--preset",
            "envnr",
            "--scale",
            "0.00005",
            "--hom",
            "0.05",
            "--model",
            h1.to_str().unwrap(),
            "--seed",
            "4",
            "--packed",
            packed.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let out_packed = Command::new(env!("CARGO_BIN_EXE_hmmscan"))
        .args([lib.to_str().unwrap(), packed.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out_packed.status.success(),
        "{}",
        String::from_utf8_lossy(&out_packed.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&out_packed.stdout),
        stdout,
        "packed database changed the report"
    );

    // --profile appends the per-family funnel table and the scan total.
    let out_prof = Command::new(env!("CARGO_BIN_EXE_hmmscan"))
        .args([lib.to_str().unwrap(), fasta.to_str().unwrap(), "--profile"])
        .output()
        .unwrap();
    assert!(out_prof.status.success());
    let prof = String::from_utf8_lossy(&out_prof.stdout);
    assert!(prof.contains("P7Viterbi"), "{prof}");
    assert!(prof.contains("s total"), "{prof}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--chunk` without `--checkpoint` reads its FASTA exactly once: the
/// sizes it reports and the "no sequences" verdict come from the finished
/// stream, and a flaw deep in the file is diagnosed as before, with no
/// hits printed ahead of it. `--checkpoint` still validates the whole
/// file before the sweep and leaves no checkpoint for a file it refuses.
#[test]
fn plain_chunked_search_reads_its_fasta_once() {
    let dir = tmpdir("once");
    let hmm = dir.join("q.hmm");
    let fasta = dir.join("t.fasta");
    let ckpt = dir.join("sweep.ckpt");
    let out = Command::new(env!("CARGO_BIN_EXE_hmmbuild"))
        .args([hmm.to_str().unwrap(), "--synthetic", "55", "--seed", "3"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let out = Command::new(env!("CARGO_BIN_EXE_dbgen"))
        .args([
            fasta.to_str().unwrap(),
            "--scale",
            "0.00008",
            "--hom",
            "0.04",
            "--model",
            hmm.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let search = |target: &std::path::Path, extra: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_hmmsearch"))
            .args([hmm.to_str().unwrap(), target.to_str().unwrap()])
            .args(extra)
            .output()
            .unwrap()
    };
    let sizes = |stderr: &str| -> String {
        let banner = stderr.lines().find(|l| l.starts_with("query ")).unwrap();
        banner[banner.rfind('(').unwrap()..].to_string()
    };

    // The sizes are the resident run's, printed once the stream has ended.
    let resident = search(&fasta, &[]);
    let streamed = search(&fasta, &["--chunk", "5000"]);
    assert!(resident.status.success() && streamed.status.success());
    let stderr = String::from_utf8_lossy(&streamed.stderr).into_owned();
    assert_eq!(
        sizes(&stderr),
        sizes(&String::from_utf8_lossy(&resident.stderr))
    );
    assert!(
        stderr.find("streaming in").unwrap() < stderr.find("query ").unwrap(),
        "{stderr}"
    );

    // Only a single-pass reader gets through a FIFO; a second pass would
    // block on re-opening it, so coreutils `timeout` bounds the run.
    #[cfg(unix)]
    {
        let fifo = dir.join("t.fifo");
        let made = Command::new("mkfifo").arg(&fifo).status();
        if made.as_ref().is_ok_and(|s| s.success()) {
            let feed = {
                let (fifo, text) = (fifo.clone(), std::fs::read(&fasta).unwrap());
                std::thread::spawn(move || std::fs::write(fifo, text))
            };
            let piped = Command::new("timeout")
                .args([
                    "120",
                    env!("CARGO_BIN_EXE_hmmsearch"),
                    hmm.to_str().unwrap(),
                ])
                .args([fifo.to_str().unwrap(), "--chunk", "5000"])
                .output()
                .unwrap();
            feed.join().unwrap().unwrap();
            assert!(
                piped.status.success(),
                "{}",
                String::from_utf8_lossy(&piped.stderr)
            );
            let hit_lines = |out: &std::process::Output| -> Vec<String> {
                String::from_utf8_lossy(&out.stdout)
                    .lines()
                    .filter(|l| l.contains("E =") || l.contains("hits reported:"))
                    .map(str::to_string)
                    .collect()
            };
            assert_eq!(hit_lines(&piped), hit_lines(&streamed));
        } else {
            eprintln!("SKIP: mkfifo unavailable ({made:?})");
        }
    }

    // An empty database is refused either way, checkpoint or not.
    let empty = dir.join("empty.fasta");
    std::fs::write(&empty, "; nothing here\n").unwrap();
    let hmm_s = hmm.to_str().unwrap();
    let ckpt_s = ckpt.to_str().unwrap();
    for extra in [&[][..], &["--checkpoint", ckpt_s][..]] {
        let mut args = vec![hmm_s, empty.to_str().unwrap(), "--chunk", "5000"];
        args.extend_from_slice(extra);
        expect_failure("hmmsearch", &args, "empty.fasta: no sequences");
        assert!(!ckpt.exists());
    }

    // A bad residue in the last record: several chunks in.
    let text = std::fs::read_to_string(&fasta).unwrap();
    let last_line = text.lines().count();
    let flawed = dir.join("flawed.fasta");
    std::fs::write(&flawed, format!("{}1\n", text.trim_end())).unwrap();
    let diagnosis = format!("flawed.fasta: line {last_line}: invalid residue '1'");
    for extra in [&[][..], &["--checkpoint", ckpt_s][..]] {
        let mut args = vec![hmm_s, flawed.to_str().unwrap(), "--chunk", "5000"];
        args.extend_from_slice(extra);
        expect_failure("hmmsearch", &args, &diagnosis);
        let out = search(&flawed, &args[2..]);
        assert!(
            out.stdout.is_empty(),
            "hits printed ahead of the error:\n{}",
            String::from_utf8_lossy(&out.stdout)
        );
        assert!(!ckpt.exists(), "checkpoint left for a refused file");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
