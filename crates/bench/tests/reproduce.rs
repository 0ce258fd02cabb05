//! The `reproduce` binary's failure paths: an unknown experiment or an
//! output it cannot write exits non-zero with a one-line error and leaves
//! no partial file behind.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn reproduce(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("the reproduce binary starts")
}

/// A fresh, empty scratch directory for one test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("reproduce-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Exited non-zero, printed nothing to stdout and one line to stderr.
fn failed_with_one_line(out: &Output) -> String {
    assert!(!out.status.success(), "exit status {:?}", out.status);
    assert!(out.stdout.is_empty());
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(err.trim_end().lines().count(), 1, "{err}");
    err
}

fn entries(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

#[test]
fn an_unknown_experiment_is_refused_before_anything_runs() {
    let dir = scratch("unknown");
    let out_dir = dir.join("out");
    let out = reproduce(&["E5", "E99", "--out", out_dir.to_str().unwrap()]);
    let err = failed_with_one_line(&out);
    assert!(err.contains("unknown experiment 'E99'"), "{err}");
    assert!(!out_dir.exists());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn an_unwritable_output_leaves_no_partial_file() {
    let dir = scratch("unwritable");
    // A directory that cannot be created: its parent is a regular file.
    let file = dir.join("file");
    std::fs::write(&file, "").unwrap();
    let out = reproduce(&["E5", "--out", file.join("out").to_str().unwrap()]);
    failed_with_one_line(&out);
    assert_eq!(entries(&dir), ["file"]);

    // A directory that exists, where `pfam.txt` cannot be replaced: the
    // rename fails after the write, and the temporary goes too.
    let out_dir = dir.join("out");
    std::fs::create_dir_all(out_dir.join("pfam.txt")).unwrap();
    let out = reproduce(&["E5", "--out", out_dir.to_str().unwrap()]);
    assert!(!out.status.success(), "exit status {:?}", out.status);
    assert!(out.stdout.is_empty());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("cannot write") && err.contains("pfam.txt"),
        "{err}"
    );
    assert_eq!(entries(&out_dir), ["pfam.txt"]);
    assert!(out_dir.join("pfam.txt").is_dir());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn an_experiment_prints_what_it_writes() {
    let dir = scratch("written");
    let out = reproduce(&["E5", "--out", dir.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(entries(&dir), ["pfam.txt"]);
    let written = std::fs::read(dir.join("pfam.txt")).unwrap();
    assert_eq!(written, out.stdout);
    assert!(String::from_utf8_lossy(&written).starts_with("=== Pfam-like model-size"));
    std::fs::remove_dir_all(&dir).unwrap();
}
