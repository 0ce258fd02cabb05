//! # h3w-trace — lightweight pipeline instrumentation
//!
//! First-class telemetry for the funnel argument the whole paper rests on
//! (Fig. 1: MSV ≈ 80% of runtime, P7Viterbi ≈ 15%, Forward ≈ 5%): scoped
//! span timers, monotonic counters, and a per-run [`Telemetry`] tree that
//! serializes to JSON and renders as a funnel table in the CLI.
//!
//! Design constraints, in order:
//!
//! 1. **Zero cost when disabled.** A [`Trace`] is either armed or a
//!    no-op; the disabled handle is a `None` and every operation returns
//!    before touching a clock or a lock. Hot kernels are never
//!    instrumented per row — only per sweep/stage aggregates are
//!    recorded, so even an armed trace stays within a 2% overhead
//!    budget on the batched MSV sweep (a constant of the
//!    `h3w-bench` bin `profile_overhead`, which the CI profiling job
//!    runs; `trace.overhead_frac` in `h3w-benchmark` reports the same
//!    ratio on `search_swissprot`).
//! 2. **No external dependencies.** The workspace builds offline; JSON
//!    emission is hand-rolled (same policy as the checkpoint format).
//! 3. **Deterministic output.** Children keep insertion order, counters
//!    are sorted by name, and counter values are exact `u64`s, so a
//!    telemetry tree can be asserted against `StageStats` bit-for-bit.
//!
//! Paths are `/`-separated (`"pipeline/msv/device"`); recording at a path
//! creates the intermediate nodes on demand.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// One node of a telemetry tree: span totals, counters, children.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Node {
    /// Node name (one path segment).
    pub name: String,
    /// Completed spans recorded at this node.
    pub span_count: u64,
    /// Total seconds across those spans (wall time for scoped timers,
    /// modeled time where recorded via [`Trace::add_secs`]).
    pub seconds: f64,
    /// Monotonic counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Child nodes, in first-recorded order.
    pub children: Vec<Node>,
}

impl Node {
    fn named(name: &str) -> Node {
        Node {
            name: name.to_string(),
            ..Node::default()
        }
    }

    fn child_mut(&mut self, name: &str) -> &mut Node {
        // Linear scan: trees are a few dozen nodes at most.
        let i = match self.children.iter().position(|c| c.name == name) {
            Some(i) => i,
            None => {
                self.children.push(Node::named(name));
                self.children.len() - 1
            }
        };
        &mut self.children[i]
    }

    fn at_path_mut(&mut self, path: &str) -> &mut Node {
        let mut node = self;
        for seg in path.split('/').filter(|s| !s.is_empty()) {
            node = node.child_mut(seg);
        }
        node
    }

    fn bump(&mut self, counter: &str, n: u64) {
        match self
            .counters
            .binary_search_by(|(k, _)| k.as_str().cmp(counter))
        {
            Ok(i) => self.counters[i].1 += n,
            Err(i) => self.counters.insert(i, (counter.to_string(), n)),
        }
    }

    /// Child with this name, if recorded.
    pub fn child(&self, name: &str) -> Option<&Node> {
        self.children.iter().find(|c| c.name == name)
    }

    /// Fold `other` into this node: spans and seconds add, counters add
    /// by name, children merge recursively by name (unmatched children
    /// of `other` are appended in their order). Merging is associative,
    /// so per-query telemetry trees can accumulate into a long-lived
    /// service-wide funnel in any arrival order.
    pub fn merge(&mut self, other: &Node) {
        self.span_count += other.span_count;
        self.seconds += other.seconds;
        for (name, v) in &other.counters {
            self.bump(name, *v);
        }
        for child in &other.children {
            self.child_mut(&child.name).merge(child);
        }
    }

    /// Node at a `/`-separated path below this one.
    pub fn at_path(&self, path: &str) -> Option<&Node> {
        let mut node = self;
        for seg in path.split('/').filter(|s| !s.is_empty()) {
            node = node.child(seg)?;
        }
        Some(node)
    }

    /// Value of a counter at this node (0 if never recorded).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0, |&(_, v)| v)
    }

    /// Seconds of this node plus all descendants whose own parents
    /// recorded no span — used for coverage checks ("did the stage spans
    /// account for the pipeline span?").
    pub fn descendant_seconds(&self) -> f64 {
        self.children
            .iter()
            .map(|c| c.seconds + c.descendant_seconds())
            .sum()
    }

    fn write_json(&self, out: &mut String, indent: usize) {
        use std::fmt::Write as _;
        let pad = "  ".repeat(indent);
        let pad2 = "  ".repeat(indent + 1);
        let _ = write!(out, "{{\n{pad2}\"name\": {}", json_string(&self.name));
        let _ = write!(
            out,
            ",\n{pad2}\"spans\": {},\n{pad2}\"seconds\": {:.9}",
            self.span_count, self.seconds
        );
        if !self.counters.is_empty() {
            let _ = write!(out, ",\n{pad2}\"counters\": {{");
            for (i, (k, v)) in self.counters.iter().enumerate() {
                let sep = if i == 0 { "" } else { "," };
                let _ = write!(out, "{sep}\n{pad2}  {}: {v}", json_string(k));
            }
            let _ = write!(out, "\n{pad2}}}");
        }
        if !self.children.is_empty() {
            let _ = write!(out, ",\n{pad2}\"children\": [");
            for (i, c) in self.children.iter().enumerate() {
                let _ = write!(out, "{}\n{pad2}  ", if i == 0 { "" } else { "," });
                c.write_json(out, indent + 2);
            }
            let _ = write!(out, "\n{pad2}]");
        }
        let _ = write!(out, "\n{pad}}}");
    }
}

/// `s` as a JSON string literal, quotes included: `"` and `\` escaped,
/// every other control character as `\u00XX`, everything else verbatim.
/// The one escaper behind the telemetry tree, checkpoints, the serve
/// metrics document and the figure rows.
pub fn json_string(s: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// An immutable snapshot of one run's telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct Telemetry {
    /// The (unnamed) root; top-level paths are its children.
    pub root: Node,
}

impl Telemetry {
    /// Node at a `/`-separated path (`"pipeline/msv"`).
    pub fn at_path(&self, path: &str) -> Option<&Node> {
        self.root.at_path(path)
    }

    /// Fold another run's telemetry into this one (see [`Node::merge`]).
    pub fn merge(&mut self, other: &Telemetry) {
        self.root.merge(&other.root);
    }

    /// Serialize the tree as JSON (schema: DESIGN.md §8 — every node is
    /// `{name, spans, seconds, counters?, children?}`).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.root.write_json(&mut out, 0);
        out.push('\n');
        out
    }

    /// Render the stage nodes under `pipeline/` as a funnel table — the
    /// CLI `--profile` view. Columns: per-stage sequences in/out,
    /// residues, real DP cells, seconds, and throughput.
    pub fn render_funnel(&self) -> String {
        self.render_funnel_at("pipeline")
    }

    /// [`render_funnel`](Self::render_funnel) for a funnel recorded at an
    /// arbitrary path — the same table, reading the stage children of
    /// `path` instead of `pipeline/`.
    pub fn render_funnel_at(&self, path: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let Some(pipe) = self.at_path(path) else {
            return format!("telemetry: no {path} node recorded\n");
        };
        let _ = writeln!(
            out,
            "{:<18} {:>9} {:>9} {:>12} {:>14} {:>10} {:>12}",
            "stage", "seqs_in", "seqs_out", "residues_in", "real_cells", "time_s", "Mcell/s"
        );
        for st in &pipe.children {
            let cells = st.counter("real_cells");
            if st.counter("seqs_in") == 0 && cells == 0 {
                continue; // bookkeeping nodes (pack, recovery, hits)
            }
            let rate = if st.seconds > 0.0 {
                cells as f64 / st.seconds / 1e6
            } else {
                f64::NAN
            };
            let _ = writeln!(
                out,
                "{:<18} {:>9} {:>9} {:>12} {:>14} {:>10.4} {:>12.1}",
                st.name,
                st.counter("seqs_in"),
                st.counter("seqs_out"),
                st.counter("residues_in"),
                cells,
                st.seconds,
                rate
            );
        }
        let label = path.rsplit('/').find(|s| !s.is_empty()).unwrap_or(path);
        let _ = writeln!(
            out,
            "{:<18} {:>9} spans, {:.4}s total",
            label, pipe.span_count, pipe.seconds
        );
        out
    }

    /// Render the per-family funnels of a fused multi-model scan (the
    /// `scan/` tree `h3w-pipeline::multi::scan` records) — the
    /// `hmmscan --profile` view. One row per (family, stage) plus the
    /// scan's total.
    pub fn render_scan(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let Some(scan) = self.at_path("scan") else {
            return "telemetry: no scan node recorded\n".to_string();
        };
        let _ = writeln!(
            out,
            "{:<20} {:>6} {:<12} {:>9} {:>9} {:>12} {:>6}",
            "family", "M", "stage", "seqs_in", "seqs_out", "residues_in", "hits"
        );
        if let Some(fams) = scan.child("families") {
            for fam in &fams.children {
                let mut first = true;
                for st in &fam.children {
                    let _ = writeln!(
                        out,
                        "{:<20} {:>6} {:<12} {:>9} {:>9} {:>12} {:>6}",
                        if first { fam.name.as_str() } else { "" },
                        if first {
                            fam.counter("m").to_string()
                        } else {
                            String::new()
                        },
                        st.name,
                        st.counter("seqs_in"),
                        st.counter("seqs_out"),
                        st.counter("residues_in"),
                        if first {
                            fam.counter("hits").to_string()
                        } else {
                            String::new()
                        },
                    );
                    first = false;
                }
            }
        }
        let _ = writeln!(
            out,
            "{:<20} {:>6} spans, {:.4}s total",
            "scan", scan.span_count, scan.seconds
        );
        out
    }
}

#[derive(Debug, Default)]
struct Shared {
    root: Node,
}

/// The tree behind an armed trace. Every update under the lock is a
/// bump, an add or a node insert, so a thread that panicked holding it
/// left a tree that is still sound, and a poisoned lock is used as it
/// stands.
fn lock(shared: &Mutex<Shared>) -> MutexGuard<'_, Shared> {
    shared.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A telemetry collector handle. Cheap to clone; all clones feed one
/// tree. A disabled trace ([`Trace::off`]) carries no allocation and
/// every method on it is a no-op that returns immediately.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    shared: Option<Arc<Mutex<Shared>>>,
}

impl Trace {
    /// An armed collector.
    pub fn on() -> Trace {
        Trace {
            shared: Some(Arc::new(Mutex::new(Shared::default()))),
        }
    }

    /// An armed collector whose root node is stamped with a run label —
    /// the top-level `"name"` of the JSON snapshot. An unstamped root
    /// serializes as `"name": ""`, which downstream consumers can't tell
    /// apart from a malformed document, so anything that persists its
    /// snapshot (`envnr_scale`'s record, `--profile-json`) should arm
    /// with this.
    pub fn named(name: &str) -> Trace {
        let trace = Trace::on();
        if let Some(s) = &trace.shared {
            lock(s).root.name = name.to_string();
        }
        trace
    }

    /// The no-op collector (also `Trace::default()`).
    pub fn off() -> Trace {
        Trace { shared: None }
    }

    /// Is this handle collecting?
    pub fn is_on(&self) -> bool {
        self.shared.is_some()
    }

    /// Start a scoped span at `path`; elapsed wall time and a span count
    /// are recorded when the guard drops. Disabled traces never read the
    /// clock.
    pub fn span(&self, path: &str) -> SpanGuard {
        SpanGuard {
            active: self
                .shared
                .as_ref()
                .map(|s| (Arc::clone(s), path.to_string(), Instant::now())),
        }
    }

    /// Add `n` to the counter `name` at `path`.
    pub fn add(&self, path: &str, name: &str, n: u64) {
        if let Some(s) = &self.shared {
            let mut g = lock(s);
            g.root.at_path_mut(path).bump(name, n);
        }
    }

    /// Credit `seconds` (and one span) to `path` without a timer — for
    /// modeled device time, which is not wall time.
    pub fn add_secs(&self, path: &str, seconds: f64) {
        if let Some(s) = &self.shared {
            let mut g = lock(s);
            let node = g.root.at_path_mut(path);
            node.span_count += 1;
            node.seconds += seconds;
        }
    }

    /// Snapshot the tree (None when disabled).
    pub fn snapshot(&self) -> Option<Telemetry> {
        self.shared.as_ref().map(|s| Telemetry {
            root: lock(s).root.clone(),
        })
    }

    /// Fold a finished run's telemetry into this (armed) collector — how
    /// a long-lived service accumulates per-query traces into one
    /// process-wide funnel without sharing a lock across queries. A
    /// no-op on a disabled trace.
    pub fn absorb(&self, tel: &Telemetry) {
        if let Some(s) = &self.shared {
            let mut g = lock(s);
            g.root.merge(&tel.root);
        }
    }
}

/// RAII guard returned by [`Trace::span`].
#[must_use = "a span records on drop; binding it to _ ends it immediately"]
pub struct SpanGuard {
    active: Option<(Arc<Mutex<Shared>>, String, Instant)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((shared, path, start)) = self.active.take() {
            let dt = start.elapsed().as_secs_f64();
            let mut g = lock(&shared);
            let node = g.root.at_path_mut(&path);
            node.span_count += 1;
            node.seconds += dt;
        }
    }
}

/// Peak resident set size (VmHWM) of this process in bytes, read from
/// `/proc/self/status`. Returns `None` off Linux or if the field is
/// missing — callers treat the counter as best-effort. This is the
/// high-water mark since process start, which is exactly what the
/// constant-memory streaming acceptance check wants: if a sweep is
/// bounded by its chunk size, the mark must not grow with database
/// size.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

#[cfg(test)]
mod rss_tests {
    #[test]
    #[cfg(target_os = "linux")]
    fn peak_rss_is_positive_and_monotone() {
        let before = super::peak_rss_bytes().expect("linux has VmHWM");
        assert!(before > 0);
        // Touch a few megabytes; the high-water mark can only grow.
        let v = vec![7u8; 4 << 20];
        std::hint::black_box(&v);
        let after = super::peak_rss_bytes().unwrap();
        assert!(after >= before);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_poisoned_trace_keeps_recording() {
        let t = Trace::on();
        t.add("x", "n", 1);
        let shared = t.shared.clone().unwrap();
        let poisoner = std::thread::spawn(move || {
            let _held = shared.lock().unwrap();
            panic!("poisons the trace");
        });
        assert!(poisoner.join().is_err());
        t.add("x", "n", 2);
        drop(t.span("x"));
        assert_eq!(t.snapshot().unwrap().at_path("x").unwrap().counter("n"), 3);
    }

    #[test]
    fn json_strings_escape_quotes_backslashes_and_controls() {
        assert_eq!(json_string("a\"b\\c"), r#""a\"b\\c""#);
        assert_eq!(json_string("\n\t\u{1f}é"), "\"\\u000a\\u0009\\u001fé\"");
    }

    #[test]
    fn disabled_trace_is_inert() {
        let t = Trace::off();
        assert!(!t.is_on());
        t.add("a/b", "n", 5);
        t.add_secs("a", 1.0);
        drop(t.span("a/b"));
        assert!(t.snapshot().is_none());
        assert!(!Trace::default().is_on());
    }

    #[test]
    fn counters_accumulate_and_sort() {
        let t = Trace::on();
        t.add("pipeline/msv", "seqs_in", 100);
        t.add("pipeline/msv", "seqs_in", 23);
        t.add("pipeline/msv", "batches", 7);
        let snap = t.snapshot().unwrap();
        let msv = snap.at_path("pipeline/msv").unwrap();
        assert_eq!(msv.counter("seqs_in"), 123);
        assert_eq!(msv.counter("batches"), 7);
        assert_eq!(msv.counter("missing"), 0);
        // Sorted by name.
        let names: Vec<&str> = msv.counters.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, vec!["batches", "seqs_in"]);
    }

    #[test]
    fn spans_record_count_and_time() {
        let t = Trace::on();
        {
            let _s = t.span("pipeline");
            let _inner = t.span("pipeline/msv");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        t.add_secs("pipeline/vit", 0.25);
        let snap = t.snapshot().unwrap();
        let pipe = snap.at_path("pipeline").unwrap();
        assert_eq!(pipe.span_count, 1);
        assert!(pipe.seconds > 0.0);
        assert!(snap.at_path("pipeline/msv").unwrap().seconds > 0.0);
        let vit = snap.at_path("pipeline/vit").unwrap();
        assert_eq!((vit.span_count, vit.seconds), (1, 0.25));
        assert!(pipe.descendant_seconds() >= 0.25);
    }

    #[test]
    fn named_trace_stamps_the_root() {
        let t = Trace::named("envnr_scale");
        t.add("pipeline/msv", "seqs_in", 1);
        let snap = t.snapshot().unwrap();
        assert_eq!(snap.root.name, "envnr_scale");
        assert!(snap.to_json().contains("\"name\": \"envnr_scale\""));
        // The plain collector stays unnamed (existing snapshots rely on
        // the root being a pure container).
        assert_eq!(Trace::on().snapshot().unwrap().root.name, "");
    }

    #[test]
    fn clones_feed_one_tree() {
        let t = Trace::on();
        let t2 = t.clone();
        t.add("x", "n", 1);
        t2.add("x", "n", 2);
        assert_eq!(t.snapshot().unwrap().at_path("x").unwrap().counter("n"), 3);
    }

    #[test]
    fn merge_adds_counters_spans_and_children_by_name() {
        let a = Trace::on();
        a.add("pipeline/MSV", "seqs_in", 100);
        a.add_secs("pipeline/MSV", 0.5);
        a.add("pipeline/MSV", "seqs_out", 3);
        let b = Trace::on();
        b.add("pipeline/MSV", "seqs_in", 23);
        b.add_secs("pipeline/MSV", 0.25);
        b.add("pipeline/Forward", "seqs_in", 3);
        let mut merged = a.snapshot().unwrap();
        merged.merge(&b.snapshot().unwrap());
        let msv = merged.at_path("pipeline/MSV").unwrap();
        assert_eq!(msv.counter("seqs_in"), 123);
        assert_eq!(msv.counter("seqs_out"), 3);
        assert_eq!(msv.span_count, 2);
        assert!((msv.seconds - 0.75).abs() < 1e-12);
        assert_eq!(
            merged
                .at_path("pipeline/Forward")
                .unwrap()
                .counter("seqs_in"),
            3
        );
        // Associativity: (a+b)+b == a+(b+b) on every counter.
        let mut twice_l = merged.clone();
        twice_l.merge(&b.snapshot().unwrap());
        let mut bb = b.snapshot().unwrap();
        bb.merge(&b.snapshot().unwrap());
        let mut twice_r = a.snapshot().unwrap();
        twice_r.merge(&bb);
        assert_eq!(twice_l, twice_r);
    }

    #[test]
    fn absorb_accumulates_into_an_armed_trace() {
        let service = Trace::on();
        for _ in 0..3 {
            let query = Trace::on();
            query.add("pipeline/MSV", "seqs_in", 10);
            service.absorb(&query.snapshot().unwrap());
        }
        assert_eq!(
            service
                .snapshot()
                .unwrap()
                .at_path("pipeline/MSV")
                .unwrap()
                .counter("seqs_in"),
            30
        );
        // Absorbing into a disabled trace is a no-op, not a panic.
        let off = Trace::off();
        off.absorb(&service.snapshot().unwrap());
        assert!(off.snapshot().is_none());
    }

    #[test]
    fn json_is_deterministic_and_escaped() {
        let t = Trace::on();
        t.add("pipeline/msv", "seqs_in", 42);
        t.add_secs("pipeline/msv", 0.5);
        t.add("weird \"name\"", "c", 1);
        let a = t.snapshot().unwrap().to_json();
        let b = t.snapshot().unwrap().to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"seqs_in\": 42"), "{a}");
        assert!(a.contains("\"weird \\\"name\\\"\""), "{a}");
        assert!(a.contains("\"seconds\": 0.500000000"), "{a}");
    }

    #[test]
    fn funnel_table_lists_stages_in_order() {
        let t = Trace::on();
        for (stage, seqs_in, seqs_out) in [
            ("MSV", 1000u64, 22u64),
            ("P7Viterbi", 22, 1),
            ("Forward", 1, 1),
        ] {
            let path = format!("pipeline/{stage}");
            t.add(&path, "seqs_in", seqs_in);
            t.add(&path, "seqs_out", seqs_out);
            t.add(&path, "residues_in", seqs_in * 350);
            t.add(&path, "real_cells", seqs_in * 350 * 400);
            t.add_secs(&path, 0.1);
        }
        t.add_secs("pipeline", 0.31);
        let table = t.snapshot().unwrap().render_funnel();
        let msv = table.find("MSV").unwrap();
        let vit = table.find("P7Viterbi").unwrap();
        let fwd = table.find("Forward").unwrap();
        assert!(msv < vit && vit < fwd, "{table}");
        assert!(table.contains("1000"), "{table}");
        // The generalized renderer reads the same stages from any path.
        let elsewhere = t.snapshot().unwrap().render_funnel_at("nope");
        assert!(elsewhere.contains("no nope node"), "{elsewhere}");
    }

    #[test]
    fn scan_table_renders_per_family_funnels() {
        let t = Trace::on();
        for fam in ["globin", "kinase"] {
            let base = format!("scan/families/{fam}");
            t.add(&base, "m", 120);
            t.add(&base, "hits", 2);
            for (stage, seqs_in, seqs_out) in [
                ("MSV", 500u64, 11u64),
                ("P7Viterbi", 11, 3),
                ("Forward", 3, 2),
            ] {
                let path = format!("{base}/{stage}");
                t.add(&path, "seqs_in", seqs_in);
                t.add(&path, "seqs_out", seqs_out);
                t.add(&path, "residues_in", seqs_in * 300);
            }
        }
        t.add_secs("scan", 0.5);
        let table = t.snapshot().unwrap().render_scan();
        let g = table.find("globin").unwrap();
        let k = table.find("kinase").unwrap();
        assert!(g < k, "{table}");
        assert!(table.contains("P7Viterbi"), "{table}");
        assert!(table.contains("0.5000s total"), "{table}");
        assert!(Trace::on()
            .snapshot()
            .unwrap()
            .render_scan()
            .contains("no scan node"));
    }
}
