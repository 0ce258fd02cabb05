//! The benchmark's own span recorder.
//!
//! Spans are recorded around calls *into* the crates, from the
//! benchmark's code: name, start, end and the span that caused it, kept
//! in memory and written out when the phase ends. Nothing here reaches
//! inside the program under test. A disabled recorder runs the closure
//! and reads no clock, so the untraced `run` phase and the traced
//! `layers` phase execute the same operation code.

use crate::json::Json;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `pipeline.search`.
    pub name: String,
    /// Seconds since the recorder was created.
    pub start_s: f64,
    /// Seconds since the recorder was created.
    pub end_s: f64,
    /// Index of the enclosing span; `None` for a root span.
    pub parent: Option<usize>,
}

impl Span {
    /// `end − start`.
    pub fn secs(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// An in-memory span tree.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recording recorder.
    pub fn on() -> Spans {
        Spans {
            on: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder that records nothing.
    pub fn off() -> Spans {
        Spans {
            on: false,
            ..Spans::on()
        }
    }

    /// True when spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Run `f` inside a span named `name`, nested under whichever span is
    /// open. `f` receives the recorder so it can open child spans.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_s: self.origin.elapsed().as_secs_f64(),
            end_s: f64::NAN,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_s = self.origin.elapsed().as_secs_f64();
        out
    }

    /// Every recorded span, in start order.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Total seconds of the spans named `name` (0 when none was recorded).
    pub fn secs(&self, name: &str) -> f64 {
        let named = self.spans.iter().filter(|s| s.name == name);
        named.map(Span::secs).sum()
    }

    /// Self time of span `idx`: its duration minus its direct children's.
    pub fn self_secs(&self, idx: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(idx))
            .map(Span::secs)
            .sum();
        self.spans[idx].secs() - children
    }

    /// Fraction of the first span named `name` that its direct children
    /// cover: 1.0 means every second of it is owned by a named child.
    pub fn coverage(&self, name: &str) -> f64 {
        match self.spans.iter().position(|s| s.name == name) {
            Some(idx) if self.spans[idx].secs() > 0.0 => {
                1.0 - self.self_secs(idx) / self.spans[idx].secs()
            }
            _ => 0.0,
        }
    }

    /// The trace file: one object per span with its self time.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    Json::obj([
                        ("id", Json::Num(i as f64)),
                        ("name", Json::Str(s.name.clone())),
                        ("start_s", Json::Num(s.start_s)),
                        ("end_s", Json::Num(s.end_s)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("self_s", Json::Num(self.self_secs(i))),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_parents_and_self_time_are_consistent() {
        let mut spans = Spans::on();
        spans.time("op", |s| {
            s.time("a", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            s.time("b", |s| s.time("c", |_| ()));
        });
        spans.time("probe", |_| ());
        let all = spans.all();
        let names: Vec<&str> = all.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["op", "a", "b", "c", "probe"]);
        assert_eq!(all[1].parent, Some(0));
        assert_eq!(all[3].parent, Some(2));
        assert_eq!(all[4].parent, None);
        let children = all[1].secs() + all[2].secs();
        assert!((spans.self_secs(0) - (all[0].secs() - children)).abs() < 1e-12);
        assert!(spans.coverage("op") > 0.5 && spans.coverage("op") <= 1.0);
        assert!(spans.secs("a") >= 0.002);
    }

    #[test]
    fn a_disabled_recorder_runs_the_closure_and_records_nothing() {
        let mut spans = Spans::off();
        assert_eq!(spans.time("op", |s| s.time("inner", |_| 7)), 7);
        assert!(spans.all().is_empty());
        assert_eq!(spans.secs("op"), 0.0);
    }
}
