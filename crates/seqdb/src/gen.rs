//! Synthetic sequence databases — the substitute for Swiss-Prot and Env_nr.
//!
//! The paper benchmarks against two real databases:
//!
//! * **Swissprot** — 459,565 sequences, 171,731,281 residues (mean ≈ 374);
//! * **Env_nr** — 6,549,721 sequences, 1,290,247,663 residues (mean ≈ 197).
//!
//! The kernels and the pipeline observe a database only through its length
//! distribution (load balance, packing waste, total DP rows) and the degree
//! of homology between its sequences and the query model (stage pass rates,
//! MSV:Viterbi execution-time ratio — the paper's §V discussion). Both are
//! explicit parameters here: lengths are log-normal with the real databases'
//! means, and a configurable fraction of sequences embeds a motif sampled
//! from the query model itself.
//!
//! Every residue is one [`categorical::scan`] draw from one uniform.
//! Background residues (pure background sequences and homolog flanks)
//! come from [`random_seq`], an exact table of that scan over
//! `BACKGROUND_F`, so the bytes are the scan's; a homolog's match and
//! insert emissions, one distribution per node, call the scan itself.

use crate::seq::{DigitalSeq, SeqDb};
use h3w_hmm::alphabet::Residue;
use h3w_hmm::calibrate::random_seq;
use h3w_hmm::categorical;
use h3w_hmm::plan7::CoreModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, LogNormal};
use std::fmt::Write;

/// Published size of the Swissprot database used in the paper (§IV).
pub const SWISSPROT_N_SEQS: usize = 459_565;
/// Published residue total of Swissprot.
pub const SWISSPROT_RESIDUES: u64 = 171_731_281;
/// Published size of the Env_nr database used in the paper (§IV).
pub const ENVNR_N_SEQS: usize = 6_549_721;
/// Published residue total of Env_nr.
pub const ENVNR_RESIDUES: u64 = 1_290_247_663;

/// Parameters of a synthetic database.
#[derive(Debug, Clone)]
pub struct DbGenSpec {
    /// Database label.
    pub name: String,
    /// Number of sequences to generate.
    pub n_seqs: usize,
    /// Target mean sequence length.
    pub mean_len: f64,
    /// Log-normal shape parameter (σ of ln-length).
    pub sigma: f64,
    /// Fraction of sequences that embed a motif sampled from the query
    /// model (the rest are pure background).
    pub homolog_fraction: f64,
    /// Hard lower bound on sequence length.
    pub min_len: usize,
    /// Hard upper bound on sequence length.
    pub max_len: usize,
}

impl DbGenSpec {
    /// Full-scale Swissprot-like preset (≈ 374-residue mean, broad spread,
    /// modest homology — curated proteomes share domains with most Pfam
    /// families).
    pub fn swissprot_like() -> DbGenSpec {
        DbGenSpec {
            name: "swissprot-like".into(),
            n_seqs: SWISSPROT_N_SEQS,
            mean_len: SWISSPROT_RESIDUES as f64 / SWISSPROT_N_SEQS as f64,
            sigma: 0.55,
            homolog_fraction: 0.01,
            min_len: 20,
            max_len: 12_000,
        }
    }

    /// Full-scale Env_nr-like preset (short environmental reads, lower
    /// homology to any one family — the paper's §V notes Env_nr has a
    /// *lower* degree of homology, giving a higher MSV:Viterbi time ratio).
    pub fn envnr_like() -> DbGenSpec {
        DbGenSpec {
            name: "envnr-like".into(),
            n_seqs: ENVNR_N_SEQS,
            mean_len: ENVNR_RESIDUES as f64 / ENVNR_N_SEQS as f64,
            sigma: 0.45,
            homolog_fraction: 0.0005,
            min_len: 20,
            max_len: 8_000,
        }
    }

    /// Scale the sequence count by `f` (lengths unchanged) for laptop-size
    /// runs; the label records the factor.
    pub fn scaled(&self, f: f64) -> DbGenSpec {
        let mut s = self.clone();
        s.n_seqs = ((self.n_seqs as f64 * f).round() as usize).max(1);
        s.name = format!("{}(x{f})", self.name);
        s
    }

    /// Expected total residues of the generated database.
    pub fn expected_residues(&self) -> u64 {
        (self.n_seqs as f64 * self.mean_len) as u64
    }
}

/// Sample one homologous sequence: a motif emitted by a traversal of the
/// core model, wrapped in geometric background flanks.
pub fn sample_homolog(rng: &mut StdRng, model: &CoreModel, flank_mean: usize) -> Vec<Residue> {
    let mut seq = Vec::new();
    let flank = |rng: &mut StdRng| {
        // Geometric with the requested mean.
        let p = 1.0 / (flank_mean as f64 + 1.0);
        let mut n = 0usize;
        while rng.gen::<f64>() > p && n < flank_mean * 10 {
            n += 1;
        }
        n
    };
    let n_left = flank(rng);
    seq.extend(random_seq(rng, n_left));
    emit_trace(rng, model, &mut seq);
    let n_right = flank(rng);
    seq.extend(random_seq(rng, n_right));
    if seq.is_empty() {
        seq.push(0);
    }
    seq
}

/// Emit match/insert residues along a stochastic traversal of the core model
/// (local entry at node 1, exit after node M; deletions emit nothing).
fn emit_trace(rng: &mut StdRng, model: &CoreModel, out: &mut Vec<Residue>) {
    #[derive(Clone, Copy, PartialEq)]
    enum St {
        M,
        I,
        D,
    }
    let mut state = St::M;
    let mut k = 0usize; // current node, 0-based
    while k < model.len() {
        let node = &model.nodes[k];
        match state {
            St::M => {
                out.push(categorical::scan(&node.mat, rng.gen()));
                let u: f32 = rng.gen();
                state = if u < node.t.mm {
                    k += 1;
                    St::M
                } else if u < node.t.mm + node.t.mi {
                    St::I
                } else {
                    k += 1;
                    St::D
                };
            }
            St::I => {
                out.push(categorical::scan(&node.ins, rng.gen()));
                let u: f32 = rng.gen();
                if u >= node.t.ii {
                    k += 1;
                    state = St::M;
                }
            }
            St::D => {
                let u: f32 = rng.gen();
                state = if u < node.t.dm { St::M } else { St::D };
                k += 1;
            }
        }
    }
}

/// The sequential generator state: one RNG stream walked sequence by
/// sequence. Both [`generate`] and [`GenChunks`] drive this same state,
/// so chunked generation reproduces the one-shot database bit for bit.
struct GenState {
    rng: StdRng,
    lognorm: LogNormal,
    next: usize,
}

impl GenState {
    fn new(spec: &DbGenSpec, seed: u64) -> GenState {
        let mu = spec.mean_len.ln() - spec.sigma * spec.sigma / 2.0;
        GenState {
            rng: StdRng::seed_from_u64(seed ^ SEQDB_SEED_MIX),
            // A spec is the caller's constant (a preset, `scaled` of one, or
            // a literal in a harness), never parsed input; a σ outside the
            // log-normal's domain is the caller's bug (see `generate`).
            lognorm: LogNormal::new(mu, spec.sigma).expect("valid log-normal"),
            next: 0,
        }
    }

    /// Generate the next sequence of the stream, or `None` past
    /// `spec.n_seqs`.
    fn gen_seq(&mut self, spec: &DbGenSpec, model: Option<&CoreModel>) -> Option<DigitalSeq> {
        if self.next >= spec.n_seqs {
            return None;
        }
        let i = self.next;
        self.next += 1;
        let rng = &mut self.rng;
        let homolog_of = model.filter(|_| rng.gen::<f64>() < spec.homolog_fraction);
        let is_homolog = homolog_of.is_some();
        let residues = if let Some(model) = homolog_of {
            let mut s = sample_homolog(rng, model, spec.mean_len as usize / 4);
            s.truncate(spec.max_len);
            if s.len() < spec.min_len {
                s.extend(random_seq(rng, spec.min_len - s.len()));
            }
            s
        } else {
            let len = (self.lognorm.sample(rng).round() as usize).clamp(spec.min_len, spec.max_len);
            random_seq(rng, len)
        };
        // One allocation of the right size: `format!` starts empty and
        // grows, which doubled the cost of the name.
        let tag = if is_homolog { "hom" } else { "bg" };
        let mut name = String::with_capacity(tag.len() + 1 + 8);
        // Writing to a `String` cannot fail.
        let _ = write!(name, "{tag}|{i:07}");
        Some(DigitalSeq {
            name,
            desc: String::new(),
            residues,
        })
    }
}

/// Generate a database from a spec. `model` supplies the motif embedded in
/// the homologous fraction; pass `None` for a pure background database
/// (`homolog_fraction` is then ignored).
///
/// # Panics
///
/// If `spec.sigma` is negative or not finite (every preset's is 0.45 or
/// 0.55).
pub fn generate(spec: &DbGenSpec, model: Option<&CoreModel>, seed: u64) -> SeqDb {
    let mut st = GenState::new(spec, seed);
    let mut db = SeqDb::new(spec.name.clone());
    db.seqs.reserve(spec.n_seqs);
    while let Some(s) = st.gen_seq(spec, model) {
        db.seqs.push(s);
    }
    db
}

/// Bounded-memory chunked generation: the same sequence stream as
/// [`generate`] delivered as [`SeqDb`] chunks of at most `max_residues`
/// residues each (whole sequences; a single sequence longer than the cap
/// forms its own chunk). Concatenating the chunks reproduces
/// `generate(spec, model, seed)` exactly — same RNG stream, same names,
/// same residues — without ever materializing the full database.
pub struct GenChunks<'m> {
    spec: DbGenSpec,
    model: Option<&'m CoreModel>,
    state: GenState,
    max_residues: u64,
    pending: Option<DigitalSeq>,
}

/// Start a chunked generation stream (see [`GenChunks`]).
///
/// # Panics
///
/// If `max_residues` is zero, or on a `spec` [`generate`] panics on.
pub fn gen_chunks<'m>(
    spec: &DbGenSpec,
    model: Option<&'m CoreModel>,
    seed: u64,
    max_residues: u64,
) -> GenChunks<'m> {
    assert!(max_residues > 0, "chunk size must be positive");
    GenChunks {
        spec: spec.clone(),
        model,
        state: GenState::new(spec, seed),
        max_residues,
        pending: None,
    }
}

impl Iterator for GenChunks<'_> {
    type Item = SeqDb;

    fn next(&mut self) -> Option<SeqDb> {
        let mut chunk = SeqDb::new(self.spec.name.clone());
        let mut residues = 0u64;
        if let Some(s) = self.pending.take() {
            residues += s.len() as u64;
            chunk.seqs.push(s);
        }
        while let Some(s) = self.state.gen_seq(&self.spec, self.model) {
            // Close before overflow: a sequence that would push the chunk
            // past the cap starts the next chunk instead (unless the
            // chunk is empty, in which case it rides alone).
            if !chunk.seqs.is_empty() && residues + s.len() as u64 > self.max_residues {
                self.pending = Some(s);
                return Some(chunk);
            }
            residues += s.len() as u64;
            chunk.seqs.push(s);
            if residues >= self.max_residues {
                return Some(chunk);
            }
        }
        (!chunk.seqs.is_empty()).then_some(chunk)
    }
}

/// Stable identity of a generated database, usable as the checkpoint
/// drift guard for streamed sweeps that never materialize the database:
/// hashes the spec, the seed, and the model label (homolog content
/// depends on the model). Distinct from [`crate::content_hash`] — this
/// identifies the *recipe*, which for a deterministic generator pins the
/// content.
pub fn gen_identity(spec: &DbGenSpec, model: Option<&CoreModel>, seed: u64) -> u64 {
    let mut h = crate::diskdb::Fnv::new();
    h.update(b"h3w-gen-v1\0");
    h.update(spec.name.as_bytes());
    h.update(&[0]);
    h.update(&(spec.n_seqs as u64).to_le_bytes());
    h.update(&spec.mean_len.to_bits().to_le_bytes());
    h.update(&spec.sigma.to_bits().to_le_bytes());
    h.update(&spec.homolog_fraction.to_bits().to_le_bytes());
    h.update(&(spec.min_len as u64).to_le_bytes());
    h.update(&(spec.max_len as u64).to_le_bytes());
    h.update(&seed.to_le_bytes());
    match model {
        Some(m) => {
            h.update(&[1]);
            h.update(&(m.len() as u64).to_le_bytes());
        }
        None => h.update(&[0]),
    }
    h.finish()
}

/// Domain-separation constant so database seeds don't collide with model
/// seeds derived from the same user seed.
const SEQDB_SEED_MIX: u64 = 0x5e9d_b000_c0ff_ee00;

#[cfg(test)]
mod tests {
    use super::*;
    use h3w_hmm::build::{synthetic_model, BuildParams};

    #[test]
    fn presets_match_published_means() {
        let sp = DbGenSpec::swissprot_like();
        assert!((sp.mean_len - 373.7).abs() < 1.0);
        let env = DbGenSpec::envnr_like();
        assert!((env.mean_len - 197.0).abs() < 1.0);
        assert_eq!(sp.n_seqs, SWISSPROT_N_SEQS);
        assert_eq!(env.n_seqs, ENVNR_N_SEQS);
    }

    #[test]
    fn scaled_preserves_lengths() {
        let sp = DbGenSpec::swissprot_like().scaled(0.001);
        assert_eq!(sp.n_seqs, 460);
        assert!((sp.mean_len - DbGenSpec::swissprot_like().mean_len).abs() < 1e-9);
    }

    #[test]
    fn generated_mean_length_tracks_spec() {
        let spec = DbGenSpec::swissprot_like().scaled(0.005); // ~2300 seqs
        let db = generate(&spec, None, 7);
        assert_eq!(db.len(), spec.n_seqs);
        let mean = db.mean_len();
        assert!(
            (mean - spec.mean_len).abs() / spec.mean_len < 0.08,
            "mean {mean} vs spec {}",
            spec.mean_len
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = DbGenSpec::envnr_like().scaled(0.0001);
        let a = generate(&spec, None, 3);
        let b = generate(&spec, None, 3);
        assert_eq!(a.seqs, b.seqs);
    }

    #[test]
    fn homolog_fraction_is_respected() {
        let model = synthetic_model(50, 1, &BuildParams::default());
        let mut spec = DbGenSpec::swissprot_like().scaled(0.004);
        spec.homolog_fraction = 0.25;
        let db = generate(&spec, Some(&model), 11);
        let n_hom = db.seqs.iter().filter(|s| s.name.starts_with("hom")).count();
        let frac = n_hom as f64 / db.len() as f64;
        assert!((frac - 0.25).abs() < 0.05, "homolog fraction {frac}");
    }

    #[test]
    fn homolog_contains_consensus_like_run() {
        // A conserved model's homolog should reproduce most consensus
        // residues in order; verify a long common subsequence with consensus.
        let model = synthetic_model(60, 5, &BuildParams::default());
        let mut rng = StdRng::seed_from_u64(2);
        let seq = sample_homolog(&mut rng, &model, 10);
        let consensus: Vec<Residue> = model.consensus.clone();
        // Longest common subsequence between the homolog and the consensus;
        // substitutions/deletions cost a column but must not derail the rest.
        let mut dp = vec![0usize; consensus.len() + 1];
        for &r in &seq {
            let mut prev_diag = 0usize;
            for (j, &c) in consensus.iter().enumerate() {
                let cur = dp[j + 1];
                dp[j + 1] = if r == c {
                    prev_diag + 1
                } else {
                    dp[j + 1].max(dp[j])
                };
                prev_diag = cur;
            }
        }
        let matched = dp[consensus.len()];
        assert!(
            matched as f64 > 0.5 * consensus.len() as f64,
            "LCS only {matched}/{}",
            consensus.len()
        );
    }

    #[test]
    fn chunked_generation_concatenates_to_one_shot() {
        let model = synthetic_model(40, 3, &BuildParams::default());
        let mut spec = DbGenSpec::envnr_like().scaled(0.0002);
        spec.homolog_fraction = 0.05;
        let whole = generate(&spec, Some(&model), 17);
        for max_residues in [150u64, 5_000, 1 << 40] {
            let chunks: Vec<SeqDb> = gen_chunks(&spec, Some(&model), 17, max_residues).collect();
            let cat: Vec<&DigitalSeq> = chunks.iter().flat_map(|c| c.seqs.iter()).collect();
            assert_eq!(cat.len(), whole.len(), "cap {max_residues}");
            for (a, b) in cat.iter().zip(&whole.seqs) {
                assert_eq!(**a, *b, "cap {max_residues}");
            }
            for c in &chunks {
                assert!(
                    c.total_residues() <= max_residues || c.len() == 1,
                    "chunk of {} residues exceeds cap {max_residues}",
                    c.total_residues()
                );
            }
        }
    }

    #[test]
    fn gen_identity_tracks_recipe() {
        let spec = DbGenSpec::envnr_like().scaled(0.0001);
        assert_eq!(gen_identity(&spec, None, 3), gen_identity(&spec, None, 3));
        assert_ne!(gen_identity(&spec, None, 3), gen_identity(&spec, None, 4));
        let mut bigger = spec.clone();
        bigger.n_seqs += 1;
        assert_ne!(gen_identity(&spec, None, 3), gen_identity(&bigger, None, 3));
    }

    #[test]
    fn lengths_respect_bounds() {
        let mut spec = DbGenSpec::envnr_like().scaled(0.0005);
        spec.min_len = 30;
        spec.max_len = 300;
        let db = generate(&spec, None, 9);
        assert!(db.seqs.iter().all(|s| s.len() >= 30 && s.len() <= 300));
    }
}
