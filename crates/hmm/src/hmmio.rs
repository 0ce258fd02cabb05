//! HMMER3 ASCII profile file format (`.hmm`) — reader and writer.
//!
//! Implements the subset of the HMMER3/f text format that carries a core
//! model: the header block (`HMMER3/f`, `NAME`, `LENG`, `ALPH`, optional
//! `STATS` lines), the `HMM` column header, the per-node match-emission /
//! insert-emission / transition triplets, and the closing `//`. Scores are
//! stored, as in HMMER, as negative natural logs of probabilities with
//! `*` for zero probability.
//!
//! Round-tripping a model through this format preserves every probability
//! to the printed precision (5 decimal places, like `hmmer`'s own output).

use crate::alphabet::{N_STANDARD, SYMBOLS};
use crate::calibrate::Calibration;
use crate::plan7::{CoreModel, Node, NodeTrans};
use std::fmt::Write as _;

/// Parse failure with a line number.
#[derive(Debug, Clone, PartialEq)]
pub struct HmmParseError {
    /// 1-based line number.
    pub line: usize,
    /// Description of what went wrong.
    pub msg: String,
}

impl std::fmt::Display for HmmParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for HmmParseError {}

fn err(line: usize, msg: impl Into<String>) -> HmmParseError {
    HmmParseError {
        line,
        msg: msg.into(),
    }
}

/// A parsed `.hmm` file: the core model plus optional calibration stats.
#[derive(Debug, Clone)]
pub struct HmmFile {
    /// The core model.
    pub model: CoreModel,
    /// Calibration (from `STATS LOCAL` lines), if present.
    pub stats: Option<Calibration>,
}

/// Serialize one model (with optional calibration) to HMMER3/f text.
pub fn write_hmm(model: &CoreModel, stats: Option<&Calibration>) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "HMMER3/f [hmmer3-warp | reproduction]");
    let _ = writeln!(out, "NAME  {}", model.name);
    let _ = writeln!(out, "LENG  {}", model.len());
    let _ = writeln!(out, "ALPH  amino");
    if let Some(c) = stats {
        // HMMER prints (mu, lambda) per stage; we carry λ in per-nat units.
        // `{}` is the shortest decimal that parses back to the same f32,
        // so the stored calibration round-trips bit for bit.
        for (kind, loc) in [
            ("MSV", c.mu_msv),
            ("VITERBI", c.mu_vit),
            ("FORWARD", c.tau_fwd),
        ] {
            let _ = writeln!(out, "STATS LOCAL {kind:<8} {loc:9} {:8}", c.lambda);
        }
    }
    let _ = write!(out, "HMM     ");
    for &ch in &SYMBOLS[..N_STANDARD] {
        let _ = write!(out, "   {ch}    ");
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "        {}",
        ["m->m", "m->i", "m->d", "i->m", "i->i", "d->m", "d->d"].join("   ")
    );
    let nlog = |p: f32| -> String {
        if p <= 0.0 {
            "      *".to_string()
        } else {
            format!("{:7.5}", -p.ln())
        }
    };
    for (k, node) in model.nodes.iter().enumerate() {
        // Match emissions, tagged with the node number and consensus.
        let _ = write!(out, "{:7}", k + 1);
        for &p in &node.mat {
            let _ = write!(out, " {}", nlog(p));
        }
        let _ = writeln!(
            out,
            " {:6} {} - -",
            k + 1,
            SYMBOLS[model.consensus[k] as usize]
        );
        // Insert emissions.
        let _ = write!(out, "       ");
        for &p in &node.ins {
            let _ = write!(out, " {}", nlog(p));
        }
        let _ = writeln!(out);
        // Transitions.
        let t = &node.t;
        let _ = writeln!(
            out,
            "        {} {} {} {} {} {} {}",
            nlog(t.mm),
            nlog(t.mi),
            nlog(t.md),
            nlog(t.im),
            nlog(t.ii),
            nlog(t.dm),
            nlog(t.dd)
        );
    }
    let _ = writeln!(out, "//");
    out
}

/// Parse one model from HMMER3/f text.
pub fn read_hmm(text: &str) -> Result<HmmFile, HmmParseError> {
    let mut lines = text.lines().enumerate().peekable();

    // Header.
    let (ln, first) = lines.next().ok_or_else(|| err(1, "empty file"))?;
    if !first.starts_with("HMMER3") {
        return Err(err(ln + 1, format!("not a HMMER3 file: {first:?}")));
    }
    let mut name = String::new();
    let mut leng: Option<usize> = None;
    let mut mu_msv = None;
    let mut mu_vit = None;
    let mut tau_fwd = None;
    let mut lambda = None;
    let mut hmm_line = 0usize;
    for (i, line) in lines.by_ref() {
        let ln = i + 1;
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("NAME") => name = parts.next().unwrap_or("").to_string(),
            Some("LENG") => {
                leng = Some(
                    parts
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| err(ln, "bad LENG"))?,
                )
            }
            Some("ALPH") => {
                let a = parts.next().unwrap_or("");
                if !a.eq_ignore_ascii_case("amino") {
                    return Err(err(ln, format!("unsupported alphabet {a:?}")));
                }
            }
            Some("STATS") => {
                let _local = parts.next(); // LOCAL
                let which = parts.next().unwrap_or("");
                let loc: f32 = parts
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| err(ln, "bad STATS location"))?;
                let lam: f32 = parts
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| err(ln, "bad STATS lambda"))?;
                lambda = Some(lam);
                match which {
                    "MSV" => mu_msv = Some(loc),
                    "VITERBI" => mu_vit = Some(loc),
                    "FORWARD" => tau_fwd = Some(loc),
                    _ => return Err(err(ln, format!("unknown STATS kind {which:?}"))),
                }
            }
            Some("HMM") => {
                hmm_line = ln;
                break;
            }
            Some(_) | None => {} // tolerate unknown header lines
        }
    }
    if hmm_line == 0 {
        return Err(err(1, "missing HMM section"));
    }
    let leng = leng.ok_or_else(|| err(hmm_line, "missing LENG"))?;
    // Skip the transition-names line.
    lines
        .next()
        .ok_or_else(|| err(hmm_line, "truncated after HMM header"))?;

    let parse_probs = |ln: usize, toks: &[&str]| -> Result<[f32; N_STANDARD], HmmParseError> {
        if toks.len() < N_STANDARD {
            return Err(err(ln, format!("expected 20 scores, got {}", toks.len())));
        }
        let mut out = [0.0f32; N_STANDARD];
        for (o, tok) in out.iter_mut().zip(toks) {
            *o = if *tok == "*" {
                0.0
            } else {
                let v: f32 = tok
                    .parse()
                    .map_err(|_| err(ln, format!("bad score {tok:?}")))?;
                (-v).exp()
            };
        }
        Ok(out)
    };

    let mut nodes = Vec::with_capacity(leng);
    let mut consensus = Vec::with_capacity(leng);
    loop {
        let (i, line) = lines
            .next()
            .ok_or_else(|| err(hmm_line, "unterminated model (missing //)"))?;
        let ln = i + 1;
        let line = line.trim();
        if line == "//" {
            break;
        }
        let toks: Vec<&str> = line.split_whitespace().collect();
        let node_no: usize = toks
            .first()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| err(ln, format!("expected node number, got {:?}", toks.first())))?;
        if node_no != nodes.len() + 1 {
            return Err(err(ln, format!("node {node_no} out of order")));
        }
        let mat = parse_probs(ln, &toks[1..])?;
        // Consensus annotation column (after the 20 scores + MAP number).
        let cons_char = toks
            .get(1 + N_STANDARD + 1)
            .and_then(|t| t.chars().next())
            .unwrap_or('A');
        let cons = crate::alphabet::digitize(cons_char).map_err(|e| err(ln, e.to_string()))?;

        let (i2, ins_line) = lines.next().ok_or_else(|| err(ln, "missing insert line"))?;
        let ins_toks: Vec<&str> = ins_line.split_whitespace().collect();
        let ins = parse_probs(i2 + 1, &ins_toks)?;

        let (i3, t_line) = lines
            .next()
            .ok_or_else(|| err(ln, "missing transition line"))?;
        let t_toks: Vec<&str> = t_line.split_whitespace().collect();
        if t_toks.len() < 7 {
            return Err(err(i3 + 1, "expected 7 transitions"));
        }
        let tv = |s: &str| -> Result<f32, HmmParseError> {
            if s == "*" {
                Ok(0.0)
            } else {
                s.parse::<f32>()
                    .map(|v| (-v).exp())
                    .map_err(|_| err(i3 + 1, format!("bad transition {s:?}")))
            }
        };
        let t = NodeTrans {
            mm: tv(t_toks[0])?,
            mi: tv(t_toks[1])?,
            md: tv(t_toks[2])?,
            im: tv(t_toks[3])?,
            ii: tv(t_toks[4])?,
            dm: tv(t_toks[5])?,
            dd: tv(t_toks[6])?,
        };
        nodes.push(Node { mat, ins, t });
        consensus.push(cons);
    }
    if nodes.len() != leng {
        return Err(err(
            hmm_line,
            format!("LENG {} but parsed {} nodes", leng, nodes.len()),
        ));
    }
    let model = CoreModel {
        name,
        nodes,
        consensus,
    };
    model
        .validate()
        .map_err(|e| err(hmm_line, format!("invalid model: {e}")))?;
    let stats = match (mu_msv, mu_vit, tau_fwd, lambda) {
        (Some(mu_msv), Some(mu_vit), Some(tau_fwd), Some(lambda)) => Some(Calibration {
            mu_msv,
            mu_vit,
            tau_fwd,
            lambda,
        }),
        _ => None,
    };
    Ok(HmmFile { model, stats })
}

/// Parse every model from a concatenated multi-model file (HMMER files
/// routinely hold whole Pfam releases back to back).
pub fn read_hmm_many(text: &str) -> Result<Vec<HmmFile>, HmmParseError> {
    let mut out = Vec::new();
    let mut start = 0usize;
    let bytes = text.as_bytes();
    while start < text.len() {
        // Skip blank space between records.
        while start < text.len() && bytes[start].is_ascii_whitespace() {
            start += 1;
        }
        if start >= text.len() {
            break;
        }
        // A record runs to the line after its `//` terminator.
        let rest = &text[start..];
        let end_rel = rest
            .find("\n//")
            .map(|i| {
                // Include the terminator line.
                let after = start + i + 1;
                text[after..]
                    .find('\n')
                    .map(|j| after + j + 1)
                    .unwrap_or(text.len())
            })
            .ok_or_else(|| err(0, "record missing // terminator"))?;
        out.push(read_hmm(&text[start..end_rel])?);
        start = end_rel;
    }
    if out.is_empty() {
        return Err(err(1, "no models in file"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{synthetic_model, BuildParams};

    fn max_prob_diff(a: &CoreModel, b: &CoreModel) -> f32 {
        let mut d = 0f32;
        for (na, nb) in a.nodes.iter().zip(&b.nodes) {
            for (x, y) in na.mat.iter().zip(&nb.mat) {
                d = d.max((x - y).abs());
            }
            for (x, y) in na.ins.iter().zip(&nb.ins) {
                d = d.max((x - y).abs());
            }
            d = d.max((na.t.mm - nb.t.mm).abs());
            d = d.max((na.t.dd - nb.t.dd).abs());
        }
        d
    }

    #[test]
    fn round_trip_preserves_model() {
        for m in [1usize, 7, 64] {
            let model = synthetic_model(m, 5, &BuildParams::default());
            let text = write_hmm(&model, None);
            let back = read_hmm(&text).unwrap();
            assert_eq!(back.model.name, model.name);
            assert_eq!(back.model.len(), m);
            assert_eq!(back.model.consensus, model.consensus);
            assert!(
                max_prob_diff(&model, &back.model) < 1e-4,
                "m={m}: prob drift too large"
            );
            assert!(back.stats.is_none());
        }
    }

    #[test]
    fn round_trip_preserves_stats() {
        let model = synthetic_model(10, 2, &BuildParams::default());
        let cal = |[mu_msv, mu_vit, tau_fwd, lambda]: [u32; 4]| Calibration {
            mu_msv: f32::from_bits(mu_msv),
            mu_vit: f32::from_bits(mu_vit),
            tau_fwd: f32::from_bits(tau_fwd),
            lambda: f32::from_bits(lambda),
        };
        let bits = |c: &Calibration| [c.mu_msv, c.mu_vit, c.tau_fwd, c.lambda].map(f32::to_bits);
        // Values exact in four decimals, the calibrations pinned by
        // `h3w-pipeline`'s calibration_pins.rs (M = 48 and 2405), a λ
        // off the default, and the extremes of the f32 range.
        let lambda = crate::calibrate::LAMBDA.to_bits();
        for want in [
            [
                (-2.5f32).to_bits(),
                (-1.25f32).to_bits(),
                4.75f32.to_bits(),
                1.0f32.to_bits(),
            ],
            [0xc019a8da, 0xc003dc08, 0x40a6f410, lambda],
            [0xc0c095be, 0xbfff09cd, 0x40e2c1e8, lambda],
            [0xc0c2a88c, 0xc0031a03, 0x40f0a698, 0x3f31_7218],
            [
                f32::MIN_POSITIVE.to_bits(),
                1,
                f32::MAX.to_bits(),
                0x3f80_0001,
            ],
        ] {
            let text = write_hmm(&model, Some(&cal(want)));
            let back = read_hmm(&text).unwrap().stats.unwrap();
            assert_eq!(bits(&back), want, "{text}");
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(read_hmm("").is_err());
        assert!(read_hmm("PDB file\n").is_err());
        let model = synthetic_model(5, 1, &BuildParams::default());
        let text = write_hmm(&model, None);
        // Truncate before the terminator.
        let cut = text.rfind("//").unwrap();
        assert!(read_hmm(&text[..cut]).is_err());
        // Corrupt LENG.
        let bad = text.replace("LENG  5", "LENG  9");
        assert!(read_hmm(&bad).is_err());
    }

    #[test]
    fn multi_model_round_trip() {
        let models: Vec<CoreModel> = (0..3)
            .map(|i| synthetic_model(10 + i * 7, i as u64, &BuildParams::default()))
            .collect();
        let text: String = models.iter().map(|m| write_hmm(m, None)).collect();
        let back = read_hmm_many(&text).unwrap();
        assert_eq!(back.len(), 3);
        for (orig, parsed) in models.iter().zip(&back) {
            assert_eq!(parsed.model.name, orig.name);
            assert_eq!(parsed.model.len(), orig.len());
            assert_eq!(parsed.model.consensus, orig.consensus);
        }
        // Errors still surface from any record.
        let broken = text.replace("LENG  10", "LENG  99");
        assert!(read_hmm_many(&broken).is_err());
        assert!(read_hmm_many("").is_err());
    }

    #[test]
    fn rejects_wrong_alphabet() {
        let model = synthetic_model(3, 1, &BuildParams::default());
        let text = write_hmm(&model, None).replace("ALPH  amino", "ALPH  dna");
        let e = read_hmm(&text).unwrap_err();
        assert!(e.msg.contains("alphabet"), "{e}");
    }

    #[test]
    fn scores_survive_round_trip() {
        // The derived quantized tables must be identical after a round
        // trip (probabilities agree to 5 decimals ⇒ identical u8/i16
        // quantization almost everywhere; assert exact table equality).
        use crate::background::NullModel;
        use crate::msvprofile::MsvProfile;
        use crate::profile::Profile;
        let model = synthetic_model(40, 9, &BuildParams::default());
        let back = read_hmm(&write_hmm(&model, None)).unwrap().model;
        let bg = NullModel::new();
        let a = MsvProfile::from_profile(&Profile::config(&model, &bg));
        let b = MsvProfile::from_profile(&Profile::config(&back, &bg));
        let mut diffs = 0usize;
        for code in 0..26u8 {
            for k0 in 0..40 {
                if a.cost(code, k0) != b.cost(code, k0) {
                    diffs += 1;
                }
            }
        }
        // Allow a handful of off-by-one roundings at cell boundaries.
        assert!(diffs <= 8, "{diffs} quantized cells drifted");
    }
}
