//! Multiple sequence alignments and `hmmbuild`-style model construction.
//!
//! HMMER builds its profile HMMs from MSAs; the paper's query models are
//! Pfam families, which are exactly that. This module provides the
//! construction path a downstream user of this crate needs to search with
//! *their own* family: parse an aligned FASTA, assign match columns by
//! gap-majority (HMMER's `--fast` rule), collect weighted counts with
//! background pseudocounts, and emit a [`CoreModel`].

use crate::alphabet::{digitize, is_gap, is_standard, Residue, BACKGROUND_F, N_STANDARD};
use crate::plan7::{CoreModel, Node, NodeTrans};

/// One aligned row set (sequences padded with gap symbols to equal width).
#[derive(Debug, Clone)]
pub struct Msa {
    /// Sequence names.
    pub names: Vec<String>,
    /// Aligned rows: residue codes with gap codes (`-`, `.` → 26) allowed.
    pub rows: Vec<Vec<Residue>>,
    /// Alignment width.
    pub width: usize,
}

/// MSA parse/validation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum MsaError {
    /// Two rows of different lengths.
    RaggedRows {
        name: String,
        expected: usize,
        got: usize,
    },
    /// A character that is neither a residue nor a gap.
    BadChar { name: String, ch: char },
    /// The alignment has no rows or no columns.
    Empty,
    /// No column qualified as a match column.
    NoMatchColumns,
}

impl std::fmt::Display for MsaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MsaError::RaggedRows {
                name,
                expected,
                got,
            } => write!(f, "row {name:?}: width {got}, expected {expected}"),
            MsaError::BadChar { name, ch } => write!(f, "row {name:?}: bad character {ch:?}"),
            MsaError::Empty => write!(f, "empty alignment"),
            MsaError::NoMatchColumns => write!(f, "no column has ≥ 50% residues"),
        }
    }
}

impl std::error::Error for MsaError {}

impl Msa {
    /// Parse an aligned FASTA (rows must share one width; `-` and `.` are
    /// gaps; case-insensitive residues).
    pub fn parse_afa(text: &str) -> Result<Msa, MsaError> {
        let mut names = Vec::new();
        let mut rows: Vec<Vec<Residue>> = Vec::new();
        for line in text.lines() {
            let line = line.trim_end();
            if line.is_empty() {
                continue;
            }
            if let Some(h) = line.strip_prefix('>') {
                names.push(h.split_whitespace().next().unwrap_or("").to_string());
                rows.push(Vec::new());
            } else if let Some(row) = rows.last_mut() {
                let name = names.last().cloned().unwrap_or_default();
                for ch in line.chars() {
                    if ch.is_whitespace() {
                        continue;
                    }
                    let code = digitize(ch).map_err(|_| MsaError::BadChar {
                        name: name.clone(),
                        ch,
                    })?;
                    row.push(code);
                }
            }
        }
        if rows.is_empty() || rows[0].is_empty() {
            return Err(MsaError::Empty);
        }
        let width = rows[0].len();
        for (name, row) in names.iter().zip(&rows) {
            if row.len() != width {
                return Err(MsaError::RaggedRows {
                    name: name.clone(),
                    expected: width,
                    got: row.len(),
                });
            }
        }
        Ok(Msa { names, rows, width })
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }

    /// Fraction of gap characters in column `c`.
    pub fn gap_fraction(&self, c: usize) -> f64 {
        let gaps = self.rows.iter().filter(|r| is_gap(r[c])).count();
        gaps as f64 / self.rows.len() as f64
    }
}

/// Model-construction tunables (HMMER-flavoured defaults).
#[derive(Debug, Clone)]
pub struct MsaBuildParams {
    /// A column is a match column when its gap fraction is below this
    /// (HMMER `--fast` uses 0.5).
    pub match_threshold: f64,
    /// Total pseudocount mass added to each match-emission distribution,
    /// spread background-proportionally.
    pub emission_pseudocount: f32,
    /// Pseudocount added to every transition count.
    pub transition_pseudocount: f32,
    /// Henikoff position-based sequence weighting (HMMER's default `--wpb`):
    /// redundant rows share weight so a lopsided alignment doesn't dominate
    /// the counts. Off = uniform weights.
    pub position_based_weights: bool,
    /// Entropy weighting (HMMER's `--eent`): scale the total observed
    /// counts down until the model's mean per-column relative entropy hits
    /// this target in bits — large alignments otherwise produce
    /// over-specific models. `None` disables.
    pub entropy_target_bits: Option<f32>,
}

impl Default for MsaBuildParams {
    fn default() -> Self {
        MsaBuildParams {
            match_threshold: 0.5,
            emission_pseudocount: 2.0,
            transition_pseudocount: 0.4,
            position_based_weights: true,
            entropy_target_bits: Some(1.4),
        }
    }
}

/// Henikoff & Henikoff (1994) position-based sequence weights, normalized
/// to mean 1 (so total counts keep the scale of the row count).
///
/// Per column: each distinct residue type shares `1/r` of the column's
/// weight equally among the `s` rows carrying it (`1/(r·s)` per row);
/// gap rows get nothing. Row weights sum the column shares.
pub fn henikoff_weights(msa: &Msa) -> Vec<f32> {
    let n = msa.rows.len();
    let mut w = vec![0f64; n];
    for c in 0..msa.width {
        // Count rows per residue type in this column.
        let mut per_type = [0u32; 32];
        for row in &msa.rows {
            let r = row[c];
            if !is_gap(r) {
                per_type[r as usize] += 1;
            }
        }
        let r_types = per_type.iter().filter(|&&k| k > 0).count();
        if r_types == 0 {
            continue;
        }
        for (i, row) in msa.rows.iter().enumerate() {
            let x = row[c];
            if !is_gap(x) {
                w[i] += 1.0 / (r_types as f64 * per_type[x as usize] as f64);
            }
        }
    }
    let total: f64 = w.iter().sum();
    if total <= 0.0 {
        return vec![1.0; n];
    }
    let scale = n as f64 / total;
    w.into_iter().map(|v| (v * scale) as f32).collect()
}

/// Find the count-scale (≤ 1) at which the built model's mean per-column
/// relative entropy reaches `target` bits (HMMER's entropy weighting,
/// binary search as in `p7_EntropyWeight`). Returns 1.0 when even the
/// full counts sit at or below the target.
fn entropy_weight_scale(
    msa: &Msa,
    kinds: &[Col],
    weights: &[f32],
    params: &MsaBuildParams,
    target: f32,
) -> f32 {
    let bg = crate::background::NullModel::new();
    let mean_re = |scale: f32| -> f32 {
        // Emission-only rebuild at this scale (transitions don't affect RE).
        let mut totals = 0f32;
        let mut n_cols = 0usize;
        let mut node = vec![[0f32; N_STANDARD]; kinds.iter().filter(|&&k| k == Col::Match).count()];
        for (row, &w) in msa.rows.iter().zip(weights) {
            let mut ni = 0usize;
            for (c, &kind) in kinds.iter().enumerate() {
                if kind != Col::Match {
                    continue;
                }
                let r = row[c];
                if !is_gap(r) && is_standard(r) {
                    node[ni][r as usize] += w * scale;
                }
                ni += 1;
            }
        }
        for counts in &node {
            let total: f32 = counts.iter().sum::<f32>() + params.emission_pseudocount;
            let mut re = 0f32;
            for x in 0..N_STANDARD {
                let p = (counts[x] + params.emission_pseudocount * BACKGROUND_F[x]) / total;
                if p > 0.0 {
                    re += p * (p / bg.f[x].max(1e-9)).log2();
                }
            }
            totals += re.max(0.0);
            n_cols += 1;
        }
        if n_cols == 0 {
            0.0
        } else {
            totals / n_cols as f32
        }
    };
    if mean_re(1.0) <= target {
        return 1.0;
    }
    let (mut lo, mut hi) = (1e-3f32, 1.0f32);
    for _ in 0..25 {
        let mid = 0.5 * (lo + hi);
        if mean_re(mid) > target {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Per-row state path element over the match-column skeleton.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Col {
    Match,
    Insert,
}

/// Build a core model from an alignment (`hmmbuild`-style).
pub fn build_from_msa(
    msa: &Msa,
    name: &str,
    params: &MsaBuildParams,
) -> Result<CoreModel, MsaError> {
    if msa.rows.is_empty() {
        return Err(MsaError::Empty);
    }
    // 1. Match-column assignment by gap majority.
    let kinds: Vec<Col> = (0..msa.width)
        .map(|c| {
            if msa.gap_fraction(c) < params.match_threshold {
                Col::Match
            } else {
                Col::Insert
            }
        })
        .collect();
    let match_cols: Vec<usize> = kinds
        .iter()
        .enumerate()
        .filter(|(_, &k)| k == Col::Match)
        .map(|(c, _)| c)
        .collect();
    let m = match_cols.len();
    if m == 0 {
        return Err(MsaError::NoMatchColumns);
    }

    // 2. Emission counts.
    let mut mat_counts = vec![[0f32; N_STANDARD]; m];
    let mut ins_counts = vec![[0f32; N_STANDARD]; m];
    // 3. Transition counts per node (from node k to k+1; node index 0-based).
    #[derive(Clone, Copy, Default)]
    struct TCounts {
        mm: f32,
        mi: f32,
        md: f32,
        im: f32,
        ii: f32,
        dm: f32,
        dd: f32,
    }
    let mut t_counts = vec![TCounts::default(); m];

    let mut weights = if params.position_based_weights {
        henikoff_weights(msa)
    } else {
        vec![1.0; msa.rows.len()]
    };
    if let Some(target) = params.entropy_target_bits {
        let scale = entropy_weight_scale(msa, &kinds, &weights, params, target);
        for w in &mut weights {
            *w *= scale;
        }
    }
    for (row, &w) in msa.rows.iter().zip(&weights) {
        // Walk the row as a state path: at each match column the row is in
        // M (residue) or D (gap); insert-column residues attach to the
        // preceding node's I state.
        #[derive(Clone, Copy, PartialEq)]
        enum St {
            M,
            I,
            D,
            Begin,
        }
        let mut node = 0usize; // next match node to consume (0-based)
        let mut state = St::Begin;
        for (c, &kind) in kinds.iter().enumerate() {
            let r = row[c];
            match kind {
                Col::Match => {
                    let next = if is_gap(r) { St::D } else { St::M };
                    // Record the transition from the previous state at
                    // node-1 into this node. Begin → first node counts as
                    // an M/D split we fold into node 0's virtual entry —
                    // skipped, matching the core-model scope.
                    if node > 0 {
                        let t = &mut t_counts[node - 1];
                        match (state, next) {
                            (St::M, St::M) => t.mm += 1.0,
                            (St::M, St::D) => t.md += 1.0,
                            (St::I, St::M) => t.im += 1.0,
                            (St::I, St::D) => t.md += 1.0, // I→D folded (Plan-7 has no I→D)
                            (St::D, St::M) => t.dm += 1.0,
                            (St::D, St::D) => t.dd += 1.0,
                            (St::Begin, _) => {}
                            _ => {}
                        }
                    }
                    if !is_gap(r) {
                        if is_standard(r) {
                            mat_counts[node][r as usize] += w;
                        } else {
                            // Degenerate: spread over members.
                            for &mem in crate::alphabet::degenerate_members(r) {
                                mat_counts[node][mem as usize] +=
                                    w / crate::alphabet::degenerate_members(r).len() as f32;
                            }
                        }
                    }
                    state = next;
                    node += 1;
                }
                Col::Insert => {
                    if !is_gap(r) && node > 0 {
                        if is_standard(r) {
                            ins_counts[node - 1][r as usize] += w;
                        }
                        let t = &mut t_counts[node - 1];
                        match state {
                            St::M => t.mi += w,
                            St::I => t.ii += w,
                            St::D => t.mi += w, // D→I folded (no D→I in Plan-7)
                            St::Begin => {}
                        }
                        state = St::I;
                    }
                    // Inserts before node 1 are N-flank: ignored.
                }
            }
        }
    }

    // 4. Normalize with pseudocounts.
    let normalize_emis = |counts: &[f32; N_STANDARD], alpha: f32| -> [f32; N_STANDARD] {
        let mut out = [0f32; N_STANDARD];
        let total: f32 = counts.iter().sum::<f32>() + alpha;
        for (x, o) in out.iter_mut().enumerate() {
            *o = (counts[x] + alpha * BACKGROUND_F[x]) / total;
        }
        out
    };
    let a = params.transition_pseudocount;
    let mut nodes = Vec::with_capacity(m);
    let mut consensus = Vec::with_capacity(m);
    for k in 0..m {
        let mat = normalize_emis(&mat_counts[k], params.emission_pseudocount);
        let has_ins = ins_counts[k].iter().sum::<f32>() > 0.0;
        let ins = if has_ins {
            normalize_emis(&ins_counts[k], params.emission_pseudocount)
        } else {
            BACKGROUND_F
        };
        let t = &t_counts[k];
        let msum = t.mm + t.mi + t.md + 3.0 * a;
        let isum = t.im + t.ii + 2.0 * a;
        let dsum = t.dm + t.dd + 2.0 * a;
        nodes.push(Node {
            mat,
            ins,
            t: NodeTrans {
                mm: (t.mm + a) / msum,
                mi: (t.mi + a) / msum,
                md: (t.md + a) / msum,
                im: (t.im + a) / isum,
                ii: (t.ii + a) / isum,
                dm: (t.dm + a) / dsum,
                dd: (t.dd + a) / dsum,
            },
        });
        let best = mat
            .iter()
            .enumerate()
            .max_by(|x, y| x.1.total_cmp(y.1))
            .map(|(x, _)| x as u8)
            .unwrap_or(0);
        consensus.push(best);
    }
    let model = CoreModel {
        name: name.to_string(),
        nodes,
        consensus,
    };
    debug_assert!(model.validate().is_ok(), "{:?}", model.validate());
    Ok(model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::symbol;

    const TOY: &str = "\
>seq1
MKV-LA
>seq2
MKVQLA
>seq3
MKV-LA
>seq4
M-VQLG
";

    #[test]
    fn parse_and_dimensions() {
        let msa = Msa::parse_afa(TOY).unwrap();
        assert_eq!(msa.n_rows(), 4);
        assert_eq!(msa.width, 6);
        assert!((msa.gap_fraction(3) - 0.5).abs() < 1e-9);
        assert_eq!(msa.gap_fraction(0), 0.0);
    }

    #[test]
    fn afa_rows_may_wrap_across_lines() {
        // TOY again, with three of its rows wrapped.
        let wrapped = ">seq1\nMKV\n-LA\n>seq2\nMKVQ\nLA\n>seq3\nMKV-LA\n>seq4\nM-\nVQLG\n";
        let msa = Msa::parse_afa(TOY).unwrap();
        let again = Msa::parse_afa(wrapped).unwrap();
        assert_eq!(again.rows, msa.rows);
        assert_eq!(again.names, ["seq1", "seq2", "seq3", "seq4"]);
    }

    #[test]
    fn ragged_and_bad_rows_rejected() {
        assert!(matches!(
            Msa::parse_afa(">a\nMKV\n>b\nMK\n"),
            Err(MsaError::RaggedRows { .. })
        ));
        assert!(matches!(
            Msa::parse_afa(">a\nMK9\n"),
            Err(MsaError::BadChar { .. })
        ));
        assert!(matches!(Msa::parse_afa(""), Err(MsaError::Empty)));
    }

    #[test]
    fn build_toy_model() {
        let msa = Msa::parse_afa(TOY).unwrap();
        let model = build_from_msa(&msa, "toy", &MsaBuildParams::default()).unwrap();
        // Column 3 (Q/-) has exactly 50% gaps → insert column; 5 match cols.
        assert_eq!(model.len(), 5);
        model.validate().unwrap();
        // Column 0 is all M → consensus M (code 10).
        assert_eq!(model.consensus[0], 10);
        // Column 1 (K,K,-,K... row4 has '-') still majority K.
        assert_eq!(model.consensus[1], 8);
        // Node 1 saw one deletion (seq4): its entering D path exists via
        // node 0's md count.
        assert!(model.nodes[0].t.md > model.nodes[2].t.md);
    }

    #[test]
    fn built_model_separates_homologs_from_background() {
        // End-to-end: sample gapped rows from a known conserved pattern,
        // build, and verify the model scores a consensus-bearing sequence
        // far above random background.
        use crate::background::NullModel;
        use crate::profile::Profile;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        let pattern: Vec<u8> = (0..30).map(|_| rng.gen_range(0u8..20)).collect();
        let mut text = String::new();
        for i in 0..25 {
            text.push_str(&format!(">r{i}\n"));
            for &p in &pattern {
                if rng.gen::<f32>() < 0.08 {
                    text.push('-');
                } else if rng.gen::<f32>() < 0.15 {
                    text.push(symbol(rng.gen_range(0u8..20)).unwrap());
                } else {
                    text.push(symbol(p).unwrap());
                }
            }
            text.push('\n');
        }
        let msa = Msa::parse_afa(&text).unwrap();
        let model = build_from_msa(&msa, "sampled", &MsaBuildParams::default()).unwrap();
        let bg = NullModel::new();
        let prof = Profile::config(&model, &bg);
        let hom: Vec<u8> = pattern.clone();
        let rand_seq: Vec<u8> = (0..30).map(|_| rng.gen_range(0u8..20)).collect();
        let s_hom = ungapped_best(&prof, &hom);
        let s_bg = ungapped_best(&prof, &rand_seq);
        assert!(s_hom > s_bg + 10.0, "homolog {s_hom} vs background {s_bg}");
    }

    #[test]
    fn no_match_columns_error() {
        let all_gaps = ">a\n---\n>b\n---\n>c\nMKV\n"; // 2/3 gaps per column
        let msa = Msa::parse_afa(all_gaps).unwrap();
        assert!(matches!(
            build_from_msa(&msa, "x", &MsaBuildParams::default()),
            Err(MsaError::NoMatchColumns)
        ));
    }

    /// Best ungapped diagonal log-odds sum — a tiny scorer local to this
    /// test (full scorers live in `h3w-cpu`, which depends on this crate).
    fn ungapped_best(p: &crate::profile::Profile, seq: &[u8]) -> f32 {
        let mut best = f32::NEG_INFINITY;
        for start in 0..seq.len() {
            let mut acc = 0.0f32;
            for (off, &x) in seq[start..].iter().enumerate() {
                let k = off + 1;
                if k > p.m {
                    break;
                }
                acc += p.msc[k][x as usize];
                best = best.max(acc);
            }
        }
        best
    }
}

#[cfg(test)]
mod weight_tests {
    use super::*;

    #[test]
    fn identical_rows_share_weight() {
        // Three copies of one sequence + one diverged sequence: the
        // copies must weigh less each than the loner.
        let text = ">a\nMKVLAY\n>b\nMKVLAY\n>c\nMKVLAY\n>d\nWQRSTC\n";
        let msa = Msa::parse_afa(text).unwrap();
        let w = henikoff_weights(&msa);
        assert_eq!(w.len(), 4);
        assert!((w[0] - w[1]).abs() < 1e-6 && (w[1] - w[2]).abs() < 1e-6);
        assert!(w[3] > 2.0 * w[0], "loner {} vs copy {}", w[3], w[0]);
        // Normalized to mean 1.
        let mean: f32 = w.iter().sum::<f32>() / 4.0;
        assert!((mean - 1.0).abs() < 1e-5);
    }

    #[test]
    fn uniform_alignment_gets_uniform_weights() {
        let text = ">a\nMKVL\n>b\nWQRS\n>c\nACDE\n";
        let msa = Msa::parse_afa(text).unwrap();
        let w = henikoff_weights(&msa);
        for v in &w {
            assert!((v - 1.0).abs() < 1e-5, "{w:?}");
        }
    }

    #[test]
    fn weighting_tempers_redundant_counts() {
        // 9 identical rows + 1 divergent row, built with and without
        // weighting: the divergent row's residues should carry visibly
        // more probability mass under weighting.
        let mut text = String::new();
        for i in 0..9 {
            text.push_str(&format!(">copy{i}\nMKVLAY\n"));
        }
        text.push_str(">odd\nWWWWWW\n");
        let msa = Msa::parse_afa(&text).unwrap();
        let weighted = build_from_msa(&msa, "w", &MsaBuildParams::default()).unwrap();
        let params = MsaBuildParams {
            position_based_weights: false,
            ..Default::default()
        };
        let unweighted = build_from_msa(&msa, "u", &params).unwrap();
        // Column 1: W is residue 18.
        let w_mass = weighted.nodes[0].mat[18];
        let u_mass = unweighted.nodes[0].mat[18];
        assert!(
            w_mass > 1.5 * u_mass,
            "weighted W mass {w_mass} vs unweighted {u_mass}"
        );
    }

    #[test]
    fn gap_only_columns_do_not_poison_weights() {
        let text = ">a\nM-KV\n>b\nM-KV\n>c\nW-RS\n";
        let msa = Msa::parse_afa(text).unwrap();
        let w = henikoff_weights(&msa);
        assert!(w.iter().all(|v| v.is_finite() && *v > 0.0));
    }
}

#[cfg(test)]
mod eweight_tests {
    use super::*;
    use crate::background::NullModel;
    use crate::info::model_info;

    fn big_identical_alignment(n: usize) -> Msa {
        let mut text = String::new();
        for i in 0..n {
            text.push_str(&format!(">r{i}\nMKVLAYWQRST\n"));
        }
        Msa::parse_afa(&text).unwrap()
    }

    #[test]
    fn entropy_weighting_caps_information_content() {
        let msa = big_identical_alignment(200);
        let bg = NullModel::new();
        let mut params = MsaBuildParams {
            entropy_target_bits: Some(1.4),
            ..Default::default()
        };
        let capped = build_from_msa(&msa, "c", &params).unwrap();
        params.entropy_target_bits = None;
        let raw = build_from_msa(&msa, "r", &params).unwrap();
        let re_capped = model_info(&capped, &bg).mean_re_bits;
        let re_raw = model_info(&raw, &bg).mean_re_bits;
        assert!(
            re_raw > 3.0,
            "200 identical rows should be near-deterministic: {re_raw}"
        );
        assert!(
            (re_capped - 1.4).abs() < 0.15,
            "capped RE {re_capped} should sit near the 1.4-bit target"
        );
    }

    #[test]
    fn entropy_weighting_is_noop_below_target() {
        // Two diverse rows carry little information: no scaling needed,
        // so the result matches the unweighted build exactly.
        let msa = Msa::parse_afa(">a\nMKVL\n>b\nWQRS\n").unwrap();
        let with = MsaBuildParams {
            entropy_target_bits: Some(5.0), // far above achievable
            ..Default::default()
        };
        let without = MsaBuildParams {
            entropy_target_bits: None,
            ..Default::default()
        };
        let a = build_from_msa(&msa, "a", &with).unwrap();
        let b = build_from_msa(&msa, "b", &without).unwrap();
        for (na, nb) in a.nodes.iter().zip(&b.nodes) {
            for (x, y) in na.mat.iter().zip(&nb.mat) {
                assert!((x - y).abs() < 1e-6);
            }
        }
    }
}
