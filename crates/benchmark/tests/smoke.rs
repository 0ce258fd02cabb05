//! End-to-end smoke test of the benchmark binary: all five workloads at
//! `--scale 0.02` with two repetitions, run twice with the same seed.

use h3w_benchmark::json::{self, Json};
use h3w_benchmark::metrics::{self, declared, END_TO_END, PER_LAYER, WORKLOADS};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_h3w-benchmark");

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Run `all` at smoke scale into `out`; returns its standard output.
fn run_all(out: &Path) -> String {
    let output = Command::new(BIN)
        .args([
            "all",
            "--scale",
            "0.02",
            "--reps",
            "2",
            "--seconds",
            "0",
            "--seed",
            "1",
        ])
        .arg("--out")
        .arg(out)
        .output()
        .expect("spawn h3w-benchmark");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(
        output.status.success(),
        "`all` failed ({}):\n{stdout}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    stdout
}

/// `(workload, metric) -> unit` for every metric row `all` printed; a
/// pair printed twice fails here.
fn printed_rows(stdout: &str) -> BTreeMap<(String, String), String> {
    let mut rows = BTreeMap::new();
    for line in stdout.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let is_row = fields.len() >= 4
            && metrics::is_workload(fields[0])
            && fields[1] != "check:"
            && fields[2].parse::<f64>().is_ok();
        if is_row {
            let key = (fields[0].to_string(), fields[1].to_string());
            let unit = fields[3].to_string();
            assert!(
                rows.insert(key.clone(), unit).is_none(),
                "{key:?} printed twice"
            );
        }
    }
    rows
}

fn layer_value(doc: &Json, workload: &str, metric: &str) -> Option<f64> {
    doc.get("workloads")?
        .get(workload)?
        .get("per_layer")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

#[test]
fn all_five_workloads_run_correct_and_repeatable_at_smoke_scale() {
    let (out_a, out_b) = (scratch("smoke_a"), scratch("smoke_b"));
    let stdout = run_all(&out_a);
    run_all(&out_b);

    // Every declared (workload, metric) is printed exactly once, with the
    // table's unit, and nothing undeclared is printed.
    let rows = printed_rows(&stdout);
    let multi_thread = std::thread::available_parallelism().map_or(1, |n| n.get()) > 1;
    let mut expected = BTreeMap::new();
    for w in WORKLOADS {
        for m in END_TO_END {
            expected.insert((w.name.to_string(), m.name.to_string()), m.unit.to_string());
        }
        for m in declared(w.name) {
            if m.name == "pool.speedup_nproc" && !multi_thread {
                continue;
            }
            expected.insert((w.name.to_string(), m.name.to_string()), m.unit.to_string());
        }
    }
    assert_eq!(rows, expected);

    let (a, b) = (
        json::read_file(&out_a.join("results.json")).unwrap(),
        json::read_file(&out_b.join("results.json")).unwrap(),
    );
    for w in WORKLOADS {
        let entry = a.get("workloads").and_then(|ws| ws.get(w.name)).unwrap();
        assert_eq!(
            entry.num_at("failed").unwrap(),
            0.0,
            "{} has failures",
            w.name
        );
        assert!(entry.num_at("attempted").unwrap() >= 3.0);
        for m in END_TO_END {
            let median = entry.get("end_to_end").unwrap().get(m.name).unwrap();
            assert!(
                median.num_at("median").unwrap() > 0.0,
                "{} {}",
                w.name,
                m.name
            );
        }
        // Counts that are functions of the inputs alone repeat exactly.
        for m in declared(w.name).filter(|m| m.exact) {
            let (va, vb) = (
                layer_value(&a, w.name, m.name),
                layer_value(&b, w.name, m.name),
            );
            assert!(va.is_some(), "{} lacks {}", w.name, m.name);
            assert_eq!(va, vb, "{} {} does not repeat", w.name, m.name);
        }
        assert!(out_a
            .join(w.name)
            .join(format!("trace_{}.json", w.name))
            .exists());
    }
    for zero in ["simt.smem_conflict_extra", "simt.hazards"] {
        assert_eq!(layer_value(&a, metrics::DEVICE, zero), Some(0.0), "{zero}");
    }
    assert!(layer_value(&a, metrics::DEVICE, "simt.barriers_per_row").unwrap() < 1e-3);
    for stamp in [
        "nproc",
        "threads",
        "simd_backend",
        "git_rev",
        "seed",
        "scale",
        "repetitions",
    ] {
        assert!(
            a.get("host").unwrap().get(stamp).is_some(),
            "host stamp lacks {stamp}"
        );
    }

    // `compare` of the two runs: same commit, same seed, so nothing may
    // read as regressed... except by noise at two repetitions, which is
    // why only the exact counts are asserted on.
    let compared = Command::new(BIN)
        .arg("compare")
        .args([out_a.join("results.json"), out_b.join("results.json")])
        .output()
        .expect("spawn compare");
    let table = String::from_utf8_lossy(&compared.stdout);
    assert!(table.contains("exact counts: identical"), "{table}");
    assert_eq!(
        table.lines().filter(|l| l.contains('%')).count(),
        WORKLOADS.len() * END_TO_END.len(),
        "{table}"
    );
}

#[test]
fn benchmark_json_names_exactly_the_tables() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
    let doc = json::read_file(&path).unwrap();
    let keys: Vec<&str> = doc
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let field =
        |entry: &Json, key: &str| entry.get(key).and_then(Json::as_str).unwrap().to_string();
    let list = |key: &str| doc.get(key).and_then(Json::as_array).unwrap().to_vec();

    let workloads: Vec<(String, String)> = list("workloads")
        .iter()
        .map(|w| (field(w, "name"), field(w, "why")))
        .collect();
    let expected: Vec<(String, String)> = WORKLOADS
        .iter()
        .map(|w| (w.name.to_string(), w.why.to_string()))
        .collect();
    assert_eq!(workloads, expected);

    let end_to_end: Vec<(String, String, String, f64)> = list("end_to_end")
        .iter()
        .map(|m| {
            (
                field(m, "name"),
                field(m, "unit"),
                field(m, "better"),
                m.num_at("bound").unwrap(),
            )
        })
        .collect();
    let expected: Vec<(String, String, String, f64)> = END_TO_END
        .iter()
        .map(|m| {
            (
                m.name.into(),
                m.unit.into(),
                m.better.as_str().into(),
                m.bound,
            )
        })
        .collect();
    assert_eq!(end_to_end, expected);

    let per_layer: Vec<(String, String, String)> = list("per_layer")
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
        .collect();
    let expected: Vec<(String, String, String)> = PER_LAYER
        .iter()
        .map(|m| (m.name.into(), m.unit.into(), m.better.as_str().into()))
        .collect();
    assert_eq!(per_layer, expected);
}

#[test]
fn the_contract_command_line_prints_one_result_object_last() {
    let out = scratch("smoke_contract");
    let output = Command::new(BIN)
        .args([
            "--workload",
            "device_k40",
            "--seed",
            "3",
            "--seconds",
            "0",
            "--trace",
            "1",
        ])
        .env("CARGO_TARGET_DIR", &out)
        .output()
        .expect("spawn h3w-benchmark");
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).unwrap();
    let doc = json::parse(stdout.lines().last().unwrap()).unwrap();
    let keys: Vec<&str> = doc
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
    let names: Vec<&str> = doc
        .get("metrics")
        .and_then(Json::as_object)
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    let expected: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
    assert_eq!(names, expected);
    // The contract run cleans up after itself.
    assert!(
        !out.join("h3w-benchmark").exists()
            || out
                .join("h3w-benchmark")
                .read_dir()
                .unwrap()
                .next()
                .is_none()
    );
}
