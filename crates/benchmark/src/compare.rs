//! `compare A B`: two result files, one verdict per (workload,
//! end-to-end metric), by the rule the benchmark fixes for itself:
//! B is `regressed` when its median is worse than A's by more than the
//! metric's bound; `unresolved` when it is not, but either side's
//! interquartile range is wider than the bound (unless every run of B
//! beats every run of A); otherwise `within`. Exact-count per-layer
//! metrics are listed when they differ at all.

use crate::json::{self, Json};
use crate::metrics::{self, Better, EndToEnd};
use crate::stats::Summary;
use std::path::Path;

/// The verdict on one (workload, metric).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is no worse than A by more than the bound.
    Within,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// Run-to-run spread is wider than the bound, so no call is made.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Within => "within",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a`'s median (negative
/// when better), and the verdict that follows.
pub fn judge(metric: &EndToEnd, a: &Summary, b: &Summary) -> (f64, Verdict) {
    let base = a.median.abs().max(1e-300);
    let worse = match metric.better {
        Better::Lower => (b.median - a.median) / base,
        Better::Higher => (a.median - b.median) / base,
    };
    let b_beats_every_a = match metric.better {
        Better::Lower => b.max < a.min,
        Better::Higher => b.min > a.max,
    };
    let spread = (a.iqr / base).max(b.iqr / b.median.abs().max(1e-300));
    let verdict = if worse > metric.bound {
        Verdict::Regressed
    } else if spread > metric.bound && !b_beats_every_a {
        Verdict::Unresolved
    } else {
        Verdict::Within
    };
    (worse, verdict)
}

fn workload<'a>(doc: &'a Json, name: &str, file: &Path) -> Result<&'a Json, String> {
    doc.get("workloads")
        .and_then(|w| w.get(name))
        .ok_or_else(|| format!("{}: no workload {name}", file.display()))
}

/// Compare two result files, print the table, and return true when no
/// pairing regressed.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a_doc, b_doc) = (json::read_file(a_path)?, json::read_file(b_path)?);
    println!(
        "{:<18} {:<12} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "B worse", "bound"
    );
    let mut ok = true;
    let mut changed = Vec::new();
    for w in metrics::WORKLOADS {
        let (a, b) = (
            workload(&a_doc, w.name, a_path)?,
            workload(&b_doc, w.name, b_path)?,
        );
        for m in metrics::END_TO_END {
            let read = |side: &Json, file: &Path| {
                side.get("end_to_end")
                    .and_then(|e| e.get(m.name))
                    .ok_or_else(|| format!("{}: {} lacks {}", file.display(), w.name, m.name))
                    .and_then(Summary::from_json)
            };
            let (sa, sb) = (read(a, a_path)?, read(b, b_path)?);
            let (worse, verdict) = judge(m, &sa, &sb);
            println!(
                "{:<18} {:<12} {:>14.6} {:>14.6} {:>+8.2}% {:>6.0}%  {}",
                w.name,
                m.name,
                sa.median,
                sb.median,
                worse * 100.0,
                m.bound * 100.0,
                verdict.as_str()
            );
            ok &= verdict != Verdict::Regressed;
        }
        for m in metrics::declared(w.name).filter(|m| m.exact) {
            let value = |side: &Json| {
                side.get("per_layer")
                    .and_then(|p| p.get(m.name))
                    .and_then(|e| e.get("value"))
                    .and_then(Json::as_f64)
            };
            let (va, vb) = (value(a), value(b));
            if va != vb {
                changed.push(format!("{:<18} {:<32} {va:?} -> {vb:?}", w.name, m.name));
            }
        }
    }
    match changed.len() {
        0 => println!("exact counts: identical"),
        n => {
            println!("exact counts: {n} changed");
            changed.iter().for_each(|line| println!("  {line}"));
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(median: f64, iqr: f64, min: f64, max: f64) -> Summary {
        Summary {
            n: 10,
            min,
            median,
            max,
            iqr,
        }
    }

    #[test]
    fn verdicts_follow_bound_spread_and_direction() {
        let wall = &metrics::END_TO_END[0];
        assert_eq!((wall.name, wall.better), ("wall_s", Better::Lower));
        let a = summary(1.0, 0.02, 0.97, 1.05);
        let slower = summary(1.0 + wall.bound + 0.01, 0.02, 1.1, 1.3);
        assert_eq!(judge(wall, &a, &slower).1, Verdict::Regressed);
        let same = summary(1.01, 0.02, 0.98, 1.06);
        assert_eq!(judge(wall, &a, &same).1, Verdict::Within);
        let noisy = summary(1.01, wall.bound + 0.05, 0.7, 1.4);
        assert_eq!(judge(wall, &a, &noisy).1, Verdict::Unresolved);
        // Noisy, but every run of B is faster than every run of A.
        let faster = summary(0.5, wall.bound, 0.3, 0.9);
        assert_eq!(judge(wall, &a, &faster).1, Verdict::Within);

        // A rate reads the other way round.
        let rate = EndToEnd {
            better: Better::Higher,
            ..*wall
        };
        let high = summary(100.0, 1.0, 98.0, 103.0);
        let low = summary(100.0 * (1.0 - rate.bound) - 1.0, 1.0, 70.0, 74.0);
        assert_eq!(judge(&rate, &high, &low).1, Verdict::Regressed);
        assert_eq!(judge(&rate, &low, &high).1, Verdict::Within);
    }
}
