//! Viterbi traceback — the optimal alignment behind a hit, for
//! hmmsearch-style output.
//!
//! Runs the same float Viterbi as
//! [`viterbi_filter_model`](crate::reference::viterbi_filter_model) with
//! backpointers (O(L·M) memory — used only on reported hits), recovers the
//! state path, and renders the classic three-line alignment blocks
//! (consensus / match / target).

use h3w_hmm::alphabet::{symbol, Residue};
use h3w_hmm::plan7::CoreModel;
use h3w_hmm::profile::{Profile, NEG_INF};

/// One state of the recovered path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceState {
    /// Match state of node `k`, emitting target residue `i` (1-based).
    M { k: usize, i: usize },
    /// Insert state of node `k`, emitting target residue `i`.
    I { k: usize, i: usize },
    /// Delete state of node `k` (silent).
    D { k: usize },
}

/// One aligned hit segment (B→…→E span of the multihit path).
#[derive(Debug, Clone)]
pub struct AlignedSegment {
    /// First/last model node of the segment (1-based).
    pub k_start: usize,
    pub k_end: usize,
    /// First/last target residue of the segment (1-based).
    pub i_start: usize,
    pub i_end: usize,
    /// The state path of this segment.
    pub path: Vec<TraceState>,
}

/// The optimal alignment of a target against a profile.
#[derive(Debug, Clone)]
pub struct Alignment {
    /// Viterbi score in nats (equals `viterbi_filter_model`).
    pub score: f32,
    /// Hit segments in target order (≥ 1 unless the score is −∞).
    pub segments: Vec<AlignedSegment>,
}

// Backpointer codes for the M state.
const FROM_B: u8 = 0;
const FROM_M: u8 = 1;
const FROM_I: u8 = 2;
const FROM_D: u8 = 3;

/// Full Viterbi with traceback (filter conventions: E collects M states,
/// no I at the last node, multihit).
pub fn viterbi_trace(p: &Profile, seq: &[Residue]) -> Alignment {
    let m = p.m;
    let l = seq.len();
    if l == 0 || m == 0 {
        return Alignment {
            score: NEG_INF,
            segments: Vec::new(),
        };
    }
    let xs = p.specials_for(l);
    let idx = |i: usize, k: usize| i * (m + 1) + k;

    let mut vm = vec![NEG_INF; (l + 1) * (m + 1)];
    let mut vi = vec![NEG_INF; (l + 1) * (m + 1)];
    let mut vd = vec![NEG_INF; (l + 1) * (m + 1)];
    let mut bm = vec![FROM_B; (l + 1) * (m + 1)];
    let mut bi = vec![FROM_M; (l + 1) * (m + 1)]; // FROM_M or FROM_I
    let mut bd = vec![FROM_M; (l + 1) * (m + 1)]; // FROM_M or FROM_D

    // Specials per row, with enough provenance to trace.
    let mut xe = vec![NEG_INF; l + 1];
    let mut xe_argk = vec![0usize; l + 1];
    let mut xj = vec![NEG_INF; l + 1];
    let mut xj_from_e = vec![false; l + 1];
    let mut xc = vec![NEG_INF; l + 1];
    let mut xc_from_e = vec![false; l + 1];
    let mut xb = vec![NEG_INF; l + 1];
    let mut xb_from_j = vec![false; l + 1];
    xb[0] = xs.move_sc; // N(0) = 0 → B

    for i in 1..=l {
        let x = seq[i - 1] as usize;
        for k in 1..=m {
            // M.
            let cands = [
                xb[i - 1] + p.bmk[k],
                vm[idx(i - 1, k - 1)] + p.tmm[k - 1],
                vi[idx(i - 1, k - 1)] + p.tim[k - 1],
                vd[idx(i - 1, k - 1)] + p.tdm[k - 1],
            ];
            // The last of equal maxima wins. Scores are sums of finite
            // log-odds and −∞, so no candidate is NaN.
            let (arg, best) = (1..cands.len()).fold((0, cands[0]), |(a, v), c| {
                if cands[c] >= v {
                    (c, cands[c])
                } else {
                    (a, v)
                }
            });
            vm[idx(i, k)] = best + p.msc[k][x];
            bm[idx(i, k)] = arg as u8;
            // I (none at node m).
            if k < m {
                let from_m = vm[idx(i - 1, k)] + p.tmi[k];
                let from_i = vi[idx(i - 1, k)] + p.tii[k];
                if from_m >= from_i {
                    vi[idx(i, k)] = from_m;
                    bi[idx(i, k)] = FROM_M;
                } else {
                    vi[idx(i, k)] = from_i;
                    bi[idx(i, k)] = FROM_I;
                }
            }
            // D.
            let from_m = vm[idx(i, k - 1)] + p.tmd[k - 1];
            let from_d = vd[idx(i, k - 1)] + p.tdd[k - 1];
            if from_m >= from_d {
                vd[idx(i, k)] = from_m;
                bd[idx(i, k)] = FROM_M;
            } else {
                vd[idx(i, k)] = from_d;
                bd[idx(i, k)] = FROM_D;
            }
            if vm[idx(i, k)] > xe[i] {
                xe[i] = vm[idx(i, k)];
                xe_argk[i] = k;
            }
        }
        let j_loop = xj[i - 1] + xs.loop_sc;
        let j_new = xe[i] + xs.e_to_j;
        if j_new >= j_loop {
            xj[i] = j_new;
            xj_from_e[i] = true;
        } else {
            xj[i] = j_loop;
        }
        let c_loop = xc[i - 1] + xs.loop_sc;
        let c_new = xe[i] + xs.e_to_c;
        if c_new >= c_loop {
            xc[i] = c_new;
            xc_from_e[i] = true;
        } else {
            xc[i] = c_loop;
        }
        // N(i) = i·loop; B from N or J.
        let n_i = i as f32 * xs.loop_sc;
        if xj[i] >= n_i {
            xb[i] = xj[i] + xs.move_sc;
            xb_from_j[i] = true;
        } else {
            xb[i] = n_i + xs.move_sc;
        }
    }

    let score = xc[l] + xs.move_sc;
    if !score.is_finite() {
        return Alignment {
            score: NEG_INF,
            segments: Vec::new(),
        };
    }

    // Trace the specials backwards with a small state machine:
    // C(l) ←loop… C(i) ←E(i) ←M(i,k) … ←B(entry) ←{N: done | J(entry)
    // ←loop… J(i') ←E(i') ← …}.
    #[derive(Clone, Copy, PartialEq)]
    enum Sp {
        C,
        J,
        E,
        B,
    }
    let mut segments = Vec::new();
    let mut mode = Sp::C;
    let mut i = l;
    while i > 0 {
        match mode {
            Sp::C => {
                if xc_from_e[i] {
                    mode = Sp::E;
                } else {
                    i -= 1;
                }
            }
            Sp::J => {
                if xj_from_e[i] {
                    mode = Sp::E;
                } else {
                    i -= 1;
                }
            }
            Sp::E => {
                let traced = trace_segment(p, seq, &vm, &bm, &bi, &bd, i, xe_argk[i], m);
                i = traced.entry_row;
                segments.push(traced.segment);
                mode = Sp::B;
            }
            Sp::B => {
                if i == 0 || !xb_from_j[i] {
                    break; // entered from N: path start reached
                }
                mode = Sp::J;
            }
        }
    }
    segments.reverse();
    Alignment { score, segments }
}

struct Traced {
    segment: AlignedSegment,
    /// Row at which the segment's B was taken (residues consumed before).
    entry_row: usize,
}

#[allow(clippy::too_many_arguments)]
fn trace_segment(
    p: &Profile,
    seq: &[Residue],
    vm: &[f32],
    bm: &[u8],
    bi: &[u8],
    bd: &[u8],
    exit_row: usize,
    exit_k: usize,
    m: usize,
) -> Traced {
    let idx = |i: usize, k: usize| i * (m + 1) + k;
    let _ = (vm, p, seq);
    let mut path = Vec::new();
    let mut i = exit_row;
    let mut k = exit_k;
    let mut state = 'M';
    let (k_end, i_end) = (k, i);
    let entry_row;
    loop {
        match state {
            'M' => {
                path.push(TraceState::M { k, i });
                match bm[idx(i, k)] {
                    FROM_B => {
                        entry_row = i - 1;
                        break;
                    }
                    FROM_M => {
                        i -= 1;
                        k -= 1;
                    }
                    FROM_I => {
                        i -= 1;
                        k -= 1;
                        state = 'I';
                    }
                    _ => {
                        i -= 1;
                        k -= 1;
                        state = 'D';
                    }
                }
            }
            'I' => {
                path.push(TraceState::I { k, i });
                if bi[idx(i, k)] == FROM_M {
                    state = 'M';
                }
                i -= 1;
            }
            _ => {
                path.push(TraceState::D { k });
                if bd[idx(i, k)] == FROM_M {
                    state = 'M';
                }
                k -= 1;
            }
        }
    }
    path.reverse();
    let (k_start, i_start) = match path[0] {
        TraceState::M { k, i } => (k, i),
        TraceState::I { k, i } => (k, i),
        TraceState::D { k } => (k, entry_row + 1),
    };
    Traced {
        segment: AlignedSegment {
            k_start,
            k_end,
            i_start,
            i_end,
            path,
        },
        entry_row,
    }
}

/// The character of a residue code. Cannot fail: a rendered code is a
/// digitized residue or a consensus code, and `symbol` maps every one.
fn sym(code: Residue) -> char {
    symbol(code).expect("digitized residue code")
}

impl AlignedSegment {
    /// Render the classic three-line block: consensus / match / target.
    /// `|` marks an exact consensus match, `+` a positive-scoring residue,
    /// lowercase target letters are inserts, `-` marks deletions.
    pub fn render(&self, p: &Profile, model: &CoreModel, seq: &[Residue]) -> String {
        let mut cons_line = String::new();
        let mut match_line = String::new();
        let mut tgt_line = String::new();
        for st in &self.path {
            match *st {
                TraceState::M { k, i } => {
                    let cons = model.consensus[k - 1];
                    let x = seq[i - 1];
                    cons_line.push(sym(cons).to_ascii_uppercase());
                    let sc = p.msc[k][x as usize];
                    match_line.push(if x == cons {
                        sym(x).to_ascii_lowercase()
                    } else if sc > 0.0 {
                        '+'
                    } else {
                        ' '
                    });
                    tgt_line.push(sym(x).to_ascii_uppercase());
                }
                TraceState::I { i, .. } => {
                    cons_line.push('.');
                    match_line.push(' ');
                    tgt_line.push(sym(seq[i - 1]).to_ascii_lowercase());
                }
                TraceState::D { k } => {
                    cons_line.push(sym(model.consensus[k - 1]).to_ascii_uppercase());
                    match_line.push(' ');
                    tgt_line.push('-');
                }
            }
        }
        format!(
            "  model {:>5} {} {}\n        {:>5} {} \n  target{:>5} {} {}\n",
            self.k_start, cons_line, self.k_end, "", match_line, self.i_start, tgt_line, self.i_end
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::viterbi_filter_model;
    use h3w_hmm::background::NullModel;
    use h3w_hmm::build::{synthetic_model, BuildParams};
    use h3w_hmm::calibrate::random_seq;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(m: usize, seed: u64) -> (CoreModel, Profile) {
        let model = synthetic_model(m, seed, &BuildParams::default());
        let bg = NullModel::new();
        let p = Profile::config(&model, &bg);
        (model, p)
    }

    #[test]
    fn trace_score_equals_dp_score() {
        let mut rng = StdRng::seed_from_u64(4);
        for (m, len) in [(10usize, 30usize), (40, 120), (25, 400)] {
            let (_, p) = setup(m, m as u64);
            let seq = random_seq(&mut rng, len);
            let tr = viterbi_trace(&p, &seq);
            let dp = viterbi_filter_model(&p, &seq);
            assert!(
                (tr.score - dp).abs() < 1e-3,
                "m={m} len={len}: trace {} vs dp {dp}",
                tr.score
            );
        }
    }

    #[test]
    fn path_is_structurally_valid() {
        let mut rng = StdRng::seed_from_u64(5);
        let (_, p) = setup(30, 9);
        let seq = random_seq(&mut rng, 150);
        let tr = viterbi_trace(&p, &seq);
        assert!(!tr.segments.is_empty());
        for seg in &tr.segments {
            assert!(seg.k_start >= 1 && seg.k_end <= 30);
            assert!(seg.i_start >= 1 && seg.i_end <= 150);
            // Emitted residues strictly increase; model nodes never
            // decrease along the path.
            let mut last_i = 0usize;
            let mut last_k = 0usize;
            for st in &seg.path {
                match *st {
                    TraceState::M { k, i } => {
                        assert!(i > last_i && k > last_k);
                        last_i = i;
                        last_k = k;
                    }
                    TraceState::I { k, i } => {
                        assert!(i > last_i && k == last_k);
                        last_i = i;
                    }
                    TraceState::D { k } => {
                        assert!(k > last_k);
                        last_k = k;
                    }
                }
            }
        }
    }

    #[test]
    fn planted_motif_is_located() {
        let (model, p) = setup(25, 77);
        let mut rng = StdRng::seed_from_u64(6);
        let mut seq = random_seq(&mut rng, 200);
        seq[100..125].copy_from_slice(&model.consensus);
        let tr = viterbi_trace(&p, &seq);
        // The best segment must overlap the planted window.
        let best = tr
            .segments
            .iter()
            .max_by_key(|s| s.i_end - s.i_start)
            .unwrap();
        assert!(
            best.i_start <= 115 && best.i_end >= 110,
            "segment {}..{} misses plant 101..125",
            best.i_start,
            best.i_end
        );
    }

    #[test]
    fn render_shows_consensus_matches() {
        let (model, p) = setup(15, 3);
        let mut rng = StdRng::seed_from_u64(7);
        let mut seq = random_seq(&mut rng, 60);
        seq[20..35].copy_from_slice(&model.consensus);
        let tr = viterbi_trace(&p, &seq);
        let best = tr
            .segments
            .iter()
            .max_by_key(|s| s.i_end - s.i_start)
            .unwrap();
        let text = best.render(&p, &model, &seq);
        assert!(text.contains("model"));
        assert!(text.contains("target"));
        // An exact consensus stretch renders lowercase letters in the
        // match line.
        let match_line = text.lines().nth(1).unwrap();
        assert!(
            match_line
                .chars()
                .filter(|c| c.is_ascii_lowercase())
                .count()
                >= 10,
            "match line too weak: {match_line:?}"
        );
    }

    #[test]
    fn empty_inputs() {
        let (_, p) = setup(5, 1);
        let tr = viterbi_trace(&p, &[]);
        assert_eq!(tr.score, NEG_INF);
        assert!(tr.segments.is_empty());
    }
}
