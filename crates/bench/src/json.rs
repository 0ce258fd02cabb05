//! Minimal JSON rendering for the figure/bench artifacts.
//!
//! The build environment is offline (no serde), and the bench outputs are
//! flat rows of numbers and short strings, so a hand-rolled emitter is
//! all that is needed. Output is deliberately shaped like
//! `serde_json::to_string_pretty` so downstream tooling that consumed the
//! old artifacts keeps working.

use std::fmt::Write;

/// A JSON value assembled by the row types.
#[derive(Debug, Clone)]
pub enum Json {
    Null,
    Bool(bool),
    /// Finite numbers render as shortest-round-trip; non-finite as null
    /// (matching serde_json's refusal to emit NaN/inf).
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Insertion-ordered object.
    Obj(Vec<(&'static str, Json)>),
}

impl Json {
    /// Render with two-space indentation, `serde_json`-pretty style.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Num(x) => {
                if x.is_finite() {
                    // Integral values print without a fraction, like serde.
                    if *x == x.trunc() && x.abs() < 1e15 {
                        let _ = write!(out, "{}", *x as i64);
                    } else {
                        let _ = write!(out, "{x}");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => out.push_str(&h3w_trace::json_string(s)),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    pad(out, indent + 1);
                    item.write(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                pad(out, indent);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    pad(out, indent + 1);
                    let _ = write!(out, "\"{k}\": ");
                    v.write(out, indent + 1);
                    if i + 1 < fields.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                pad(out, indent);
                out.push('}');
            }
        }
    }
}

fn pad(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

/// Types that can render themselves as a JSON value.
pub trait ToJson {
    /// Convert to a JSON tree.
    fn to_json(&self) -> Json;
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

/// Pretty-print a slice of rows as a JSON array — the drop-in
/// replacement for `serde_json::to_string_pretty(&rows)`.
pub fn pretty_rows<T: ToJson>(rows: &[T]) -> String {
    Json::Arr(rows.iter().map(ToJson::to_json).collect()).pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_pretty() {
        let v = Json::Obj(vec![
            ("name", Json::Str("env\"nr".into())),
            ("speedup", Json::Num(1.5)),
            ("m", Json::Num(128.0)),
            ("missing", Json::Null),
            ("list", Json::Arr(vec![Json::Num(1.0), Json::Bool(true)])),
        ]);
        let s = v.pretty();
        assert!(s.contains("\"name\": \"env\\\"nr\""));
        assert!(s.contains("\"speedup\": 1.5"));
        assert!(s.contains("\"m\": 128"));
        assert!(s.contains("\"missing\": null"));
        assert!(s.starts_with("{\n"));
        assert!(s.ends_with('}'));
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(Json::Num(f64::NAN).pretty(), "null");
        assert_eq!(Json::Num(f64::INFINITY).pretty(), "null");
    }

    #[test]
    fn empty_containers_stay_compact() {
        assert_eq!(Json::Arr(vec![]).pretty(), "[]");
        assert_eq!(Json::Obj(vec![]).pretty(), "{}");
    }
}
