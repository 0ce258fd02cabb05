//! Striped odds-space Forward filter — the float sibling of HMMER 3.0's
//! `p7_ForwardFilter` (fwdfilter.c), replacing the scalar log-space
//! [`forward_generic`](crate::reference::forward_generic) on the
//! pipeline's stage-3 hot path.
//!
//! # Odds space + renormalization
//!
//! `forward_generic` works in nats and spends a table-driven `flogsum`
//! per cell edge — a dozen dependent scalar ops. This filter works in
//! *odds space* (`exp` of the log-odds), where log-sum-exp collapses to
//! `a*b + c`: four multiply-adds per M cell, all vectorizable. The price
//! is dynamic range: a strong homolog's odds overflow `f32` after a few
//! hundred residues. Per HMMER's fwdfilter, each row's Σ-over-M (`xE`)
//! is checked against `RESCALE_THRESHOLD` (1e10); when it trips, the current
//! DP row and the special states are multiplied by `1/xE` and `ln(xE)`
//! accumulates into a running `totscale`. The final score is
//! `totscale + ln(xC) + move_sc` — exact in nats, with no overflow
//! (rescaling caps row magnitudes) and no underflow of the *score* (the
//! filter's floor ≈ −45 nats sits far above the `f32` denormal range).
//!
//! # Subnormals
//!
//! That is true of scores and false of one intermediate: the cross-lane
//! D→D correction increments. They start at a D cell times `tdd` and
//! shrink by another `tdd` (≈ 0.3) per stripe position, so on the
//! calibration shape (background, L = 100) from M ≈ 100 up they run
//! through the whole subnormal range, and on x86 every multiply with a
//! subnormal operand or product is a microcode assist of some 150
//! cycles: 60–75% of the kernel's time at M = 100…400 before this rule.
//! So a lane of the increment is dropped to `+0.0` *before* the multiply
//! whose product would fall under `2·f32::MIN_POSITIVE`, decided on the
//! operand against a table computed once per model (`corr >=
//! 2·MIN_POSITIVE / tdd[qi]`, one `cmpge` + `and`), and a pass ends as
//! soon as every lane is zero. No multiply in the D→D passes then sees
//! or produces a subnormal (a unit test counts them), without touching
//! MXCSR: FTZ/DAZ is process-global and has no scalar or non-x86 twin,
//! whereas a compare is the same operation on every backend.
//!
//! The rule is exact where it matters: a dropped product is below
//! 2⁻¹²⁵, every later one in its chain is smaller (`tdd ≤ 1`), and
//! adding less than 2⁻¹²⁵ changes a D cell only if that cell is below
//! 2⁻¹⁰¹. Under a multihit profile (the only kind the pipeline
//! configures) `xB ≥ (xN + xJ)·move` never falls below ~1e-6 of the
//! row's scale, so every real M cell is above ~1e-20 and the D cells a
//! drop could disturb are too small to reach one; scores, recorded
//! rows, calibrations and hit lists are bit-identical to the kernel
//! without the rule (`tests/fwd_equivalence.rs` pins them). The one
//! regime where whole rows sink to 1e-36 — a unihit profile after three
//! rescales, one rescale short of `xN` underflowing altogether — keeps
//! its score bits but not its smallest recorded cells.
//!
//! # One stripe, one row over three pipes, bit-identical
//!
//! Unlike the MSV/Viterbi filters (whose AVX2 backends re-stripe to
//! wider lanes — safe there because saturated max is striping-agnostic),
//! float *addition* is not associative, so a wider stripe would change
//! scores between backends and break the pipeline's cross-backend
//! bit-identity guarantee. Instead **all** backends share the canonical
//! 4-lane Farrar stripe (`Q = ⌈M/4⌉`, position `qi` lane `z` holds node
//! `k = z·Q + qi + 1`) and the exact same per-row operation order:
//!
//! * `xE` accumulates into an even-`qi` and an odd-`qi` register,
//!   reduced at the end by the fixed tree `(v0+v2)+(v1+v3)` — precisely
//!   what AVX2 gets for free from its low/high 128-bit halves.
//! * The serial D→D chain runs at 128-bit width in every backend, and
//!   batch-wide: a row runs the M/I loop of every live slot, then one
//!   `dd_resolve` advances the chains of all of them side by side (one
//!   full in-lane pass, then ≤ 3 cross-lane carry-only correction
//!   passes), because each chain is latency-bound (`mul → add`;
//!   `cmpge → and → mul` in a correction pass) and N independent chains
//!   cost what one does. A pass is left when the increment is zero in
//!   every lane of every slot ("Subnormals" above). That is exact by
//!   construction: a slot whose increment has died holds `+0.0`,
//!   `keep_ge(+0, floor) = +0`, `+0·tdd = +0`, and `cd + +0 = cd` for
//!   every value a D cell can hold (non-negative, `+0`, `+∞`), so each
//!   slot sees its width-1 operation sequence plus additions of `+0.0`,
//!   and no multiply meets a subnormal.
//!
//! Both are written once. The row (`fwd_row`) walks pairs of adjacent
//! stripe positions through a `RowPipe`: two 128-bit registers on the
//! scalar and SSE2 pipes, one 256-bit register under AVX2, whose low half
//! is the even position and high half the odd one (the element set and
//! rounding of each op is unchanged). An odd `q` leaves one position,
//! which runs through the same step on the pipe's 128-bit half, and so
//! does the D→D resolution (`dd_resolve`). Scalar/SSE2/AVX2 all return
//! bit-identical scores — so hits, calibration, and posterior values do
//! not depend on `H3W_SIMD_BACKEND`.
//!
//! Tables are destination-aligned exactly like
//! [`h3w_hmm::vitprofile`]: index `k0 = k−1` holds everything entering
//! node `k`, so the row loop indexes every table with the same `qi`.

use crate::backend::Backend;
use crate::batch::MAX_BATCH;
use crate::simd::V4f32;
use h3w_hmm::alphabet::{Residue, N_CODES};
use h3w_hmm::profile::{Profile, SpecialScores, NEG_INF};

/// Float lanes in the canonical stripe (every backend).
pub const FWD_LANES: usize = 4;

/// Rescale when a row's odds-space `xE` exceeds this. Low enough that a
/// further row of growth cannot approach `f32::MAX`, high enough that
/// background sequences (whose `xE` stays O(1)) never pay the `ln`.
const RESCALE_THRESHOLD: f32 = 1.0e10;

/// Per-target special transitions in odds space (`exp` of
/// [`SpecialScores`]); `exp(−∞) = 0` keeps unihit `E→J` exact.
#[derive(Debug, Clone, Copy)]
struct OddsSpecials {
    loop_o: f32,
    move_o: f32,
    e2j_o: f32,
    e2c_o: f32,
    /// Kept in nats for the final score recovery.
    move_sc: f32,
}

impl OddsSpecials {
    fn from_scores(xs: &SpecialScores) -> OddsSpecials {
        OddsSpecials {
            loop_o: xs.loop_sc.exp(),
            move_o: xs.move_sc.exp(),
            e2j_o: xs.e_to_j.exp(),
            e2c_o: xs.e_to_c.exp(),
            move_sc: xs.move_sc,
        }
    }
}

/// Special-state values for one in-flight sequence, in odds space, plus
/// the accumulated log of all scale factors applied so far.
#[derive(Debug, Clone, Copy)]
struct RowState {
    xn: f32,
    xj: f32,
    xc: f32,
    xb: f32,
    totscale: f32,
}

impl RowState {
    fn start(sp: &OddsSpecials) -> RowState {
        // Row 0: N = 1 (zero nats), J = C = 0 (−∞), B = N·move.
        RowState {
            xn: 1.0,
            xj: 0.0,
            xc: 0.0,
            xb: sp.move_o,
            totscale: 0.0,
        }
    }

    /// Phase C of a row: fold `xE` into the specials and, if it tripped
    /// [`RESCALE_THRESHOLD`], rescale them and the slot's row.
    /// Scalar and elementwise — identical on every backend by
    /// construction.
    fn end_row(&mut self, xe: f32, sp: &OddsSpecials, dp: &mut [&mut [V4f32]; 3]) {
        self.xj = self.xj * sp.loop_o + xe * sp.e2j_o;
        self.xc = self.xc * sp.loop_o + xe * sp.e2c_o;
        self.xn *= sp.loop_o;
        self.xb = (self.xn + self.xj) * sp.move_o;
        if xe > RESCALE_THRESHOLD {
            self.totscale += xe.ln();
            let inv = 1.0 / xe;
            self.xj *= inv;
            self.xc *= inv;
            self.xn *= inv;
            self.xb *= inv;
            for lane in dp.iter_mut().flat_map(|row| row.iter_mut()).flatten() {
                *lane *= inv;
            }
        }
    }

    /// Recover the score in nats; `xC == 0` (e.g. the empty sequence)
    /// is −∞ exactly, matching the generic reference.
    fn finish(&self, sp: &OddsSpecials) -> f32 {
        if self.xc > 0.0 {
            self.totscale + self.xc.ln() + sp.move_sc
        } else {
            NEG_INF
        }
    }
}

/// Reusable DP row for one in-flight sequence: M, I and D, `q` vectors
/// each, in one allocation, updated in place as the integer filters
/// update theirs. A row loop loads the previous row's M/I/D at `qi`
/// before it overwrites `qi` and carries them in registers to `qi + 1`,
/// the diagonal they feed: a *pair*'s diagonal `[old(qi−1), old(qi)]` is
/// the carried high half of the previous pair and the low half of this
/// one. One row per slot rather than two
/// halves what four lockstep slots keep beside the tables in L1d.
#[derive(Debug, Default)]
pub struct FwdWorkspace {
    rows: Vec<V4f32>,
}

impl FwdWorkspace {
    /// The M, I and D rows, `q` vectors each, reset to zero.
    fn rows(&mut self, q: usize) -> [&mut [V4f32]; 3] {
        self.rows.clear();
        self.rows.resize(3 * q, [0.0; 4]);
        let (m, rest) = self.rows.split_at_mut(q);
        let (i, d) = rest.split_at_mut(q);
        [m, i, d]
    }
}

/// Per-worker state for [`StripedFwd::run_batch_into`]: one DP arena per
/// interleaved slot, grown once and reused across every batch the worker
/// scores (the sweep's scratch-buffer-reuse contract).
#[derive(Debug, Default)]
pub struct FwdBatchWorkspace {
    slots: Vec<FwdWorkspace>,
}

/// Recorded striped Forward lattice for posterior decoding: the
/// odds-space M/I rows (D never enters the posterior numerator under
/// filter conventions — E collects M only and D emits nothing), the
/// cumulative ln-scale per row, and the final score.
#[derive(Debug, Clone)]
pub struct FwdMatrix {
    /// Model length.
    pub m: usize,
    /// Stripe vectors per row.
    pub q: usize,
    /// Sequence length (rows `1..=l` are recorded).
    pub l: usize,
    rows_m: Vec<V4f32>,
    rows_i: Vec<V4f32>,
    scales: Vec<f32>,
    /// Forward score in nats (length model included).
    pub total: f32,
}

impl FwdMatrix {
    #[inline]
    fn at(&self, rows: &[V4f32], i: usize, k: usize) -> f32 {
        debug_assert!(i >= 1 && i <= self.l && k >= 1 && k <= self.m);
        let k0 = k - 1;
        rows[(i - 1) * self.q + (k0 % self.q)][k0 / self.q]
    }

    /// Raw odds-space `M(i,k)` (pre-scale; multiply by `exp(scale(i))`
    /// for the true odds). `i ∈ 1..=l`, `k ∈ 1..=m`.
    #[inline]
    pub fn m_odds(&self, i: usize, k: usize) -> f32 {
        self.at(&self.rows_m, i, k)
    }

    /// Raw odds-space `I(i,k)`.
    #[inline]
    pub fn i_odds(&self, i: usize, k: usize) -> f32 {
        self.at(&self.rows_i, i, k)
    }

    /// Cumulative ln of the scale factors applied up to and including
    /// row `i` — `ln M(i,k) = ln(m_odds) + scale(i)` in nats.
    #[inline]
    pub fn scale(&self, i: usize) -> f32 {
        self.scales[i - 1]
    }
}

/// A profile's Forward tables in odds space, rearranged into the
/// canonical 4-lane stripe. Phantom positions hold odds `0.0` (= −∞),
/// so they can never contribute probability mass.
#[derive(Debug, Clone)]
pub struct StripedFwd {
    /// Model length.
    pub m: usize,
    /// Vectors per row: `⌈M/4⌉`.
    pub q: usize,
    backend: Backend,
    /// Striped odds emissions, code-major: `rfv[code * q + qi]`.
    rfv: Vec<V4f32>,
    tmm: Vec<V4f32>,
    tim: Vec<V4f32>,
    tdm: Vec<V4f32>,
    tmd: Vec<V4f32>,
    tdd: Vec<V4f32>,
    /// `2·f32::MIN_POSITIVE / tdd`: the smallest D→D increment whose
    /// product with `tdd[qi]` is still a normal `f32` (`+∞` at phantom
    /// positions, whose `tdd` is zero). See the module doc, "Subnormals".
    tdd_floor: Vec<V4f32>,
    tmi: Vec<V4f32>,
    tii: Vec<V4f32>,
    bmk: Vec<V4f32>,
}

impl StripedFwd {
    /// Stripe a [`Profile`] for the auto-detected backend.
    pub fn new(p: &Profile) -> StripedFwd {
        StripedFwd::with_backend(p, Backend::detect())
    }

    /// Stripe for a specific backend (downgrades to scalar if the
    /// requested backend cannot run on this CPU). The stripe layout is
    /// the same for every backend; only the row-loop dispatch differs.
    pub fn with_backend(p: &Profile, backend: Backend) -> StripedFwd {
        let backend = if backend.available() {
            backend
        } else {
            Backend::Scalar
        };
        let m = p.m;
        let q = m.div_ceil(FWD_LANES).max(1);
        let stripe = |table: &dyn Fn(usize) -> f32| -> Vec<V4f32> {
            (0..q)
                .map(|qi| {
                    core::array::from_fn(|z| {
                        let k0 = z * q + qi;
                        if k0 < m {
                            table(k0).exp()
                        } else {
                            0.0
                        }
                    })
                })
                .collect()
        };
        let mut rfv = Vec::with_capacity(N_CODES * q);
        for code in 0..N_CODES {
            rfv.extend(stripe(&|k0| p.msc[k0 + 1][code]));
        }
        let tdd = stripe(&|k0| p.tdd[k0]);
        let tdd_floor = tdd
            .iter()
            .map(|v| v.map(|t| 2.0 * f32::MIN_POSITIVE / t))
            .collect();
        StripedFwd {
            m,
            q,
            backend,
            rfv,
            // Destination-aligned: Profile stores the transition into
            // node k at index k-1 = k0 already.
            tmm: stripe(&|k0| p.tmm[k0]),
            tim: stripe(&|k0| p.tim[k0]),
            tdm: stripe(&|k0| p.tdm[k0]),
            tmd: stripe(&|k0| p.tmd[k0]),
            tdd,
            tdd_floor,
            // I_k self transitions live at node k = k0+1; no I_M state.
            tmi: stripe(&|k0| if k0 + 1 < m { p.tmi[k0 + 1] } else { NEG_INF }),
            tii: stripe(&|k0| if k0 + 1 < m { p.tii[k0 + 1] } else { NEG_INF }),
            bmk: stripe(&|k0| p.bmk[k0 + 1]),
        }
    }

    /// The backend this instance dispatches to.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// True DP cells per residue row (3 states × M nodes).
    pub fn real_cells_per_row(&self) -> u64 {
        3 * self.m as u64
    }

    /// Cells the striped kernel actually computes per row (phantoms
    /// included).
    pub fn padded_cells_per_row(&self) -> u64 {
        (3 * FWD_LANES * self.q) as u64
    }

    /// Estimated bytes the kernel moves per residue row: nine striped
    /// odds-table rows (emissions + eight transitions) plus the 3-state
    /// DP row read and written, at four bytes per f32 cell. Feeds the
    /// `bytes_moved` bandwidth counters in pipeline telemetry (an
    /// analytic lower bound).
    pub fn bytes_per_row(&self) -> u64 {
        let state_row = (FWD_LANES * self.q) as u64; // cells per striped state row
        4 * state_row * (9 + 3 + 3)
    }

    /// Score one sequence in nats, reusing `ws` buffers. Bit-identical
    /// on every backend.
    pub fn run_into(&self, p: &Profile, seq: &[Residue], ws: &mut FwdWorkspace) -> f32 {
        let mut out = [0.0];
        self.drive(p, &[seq], std::slice::from_mut(ws), &mut out, |_, _, _| {});
        out[0]
    }

    /// Convenience wrapper allocating a fresh workspace.
    pub fn run(&self, p: &Profile, seq: &[Residue]) -> f32 {
        let mut ws = FwdWorkspace::default();
        self.run_into(p, seq, &mut ws)
    }

    /// Score up to [`MAX_BATCH`] sequences in lockstep, their D→D chains
    /// resolved side by side (module doc, "One stripe"). Results are
    /// bit-identical to [`StripedFwd::run_into`] at every width.
    pub fn run_batch_into(
        &self,
        p: &Profile,
        seqs: &[&[Residue]],
        ws: &mut FwdBatchWorkspace,
        out: &mut [f32],
    ) {
        let n = seqs.len();
        assert!(n <= MAX_BATCH, "batch of {n} exceeds MAX_BATCH");
        assert_eq!(out.len(), n);
        while ws.slots.len() < n {
            ws.slots.push(FwdWorkspace::default());
        }
        self.drive(p, seqs, &mut ws.slots[..n], out, |_, _, _| {});
    }

    /// Score one sequence and record the odds-space M/I lattice plus the
    /// per-row cumulative scales for posterior decoding. The recorded
    /// values (and `total`) are bit-identical to [`StripedFwd::run_into`].
    pub fn run_recording(&self, p: &Profile, seq: &[Residue], ws: &mut FwdWorkspace) -> FwdMatrix {
        let l = seq.len();
        let mut rows_m = Vec::with_capacity(l * self.q);
        let mut rows_i = Vec::with_capacity(l * self.q);
        let mut scales = Vec::with_capacity(l);
        let mut total = [0.0];
        let slot = std::slice::from_mut(ws);
        self.drive(p, &[seq], slot, &mut total, |_, [m, i, _], st| {
            rows_m.extend_from_slice(m);
            rows_i.extend_from_slice(i);
            scales.push(st.totscale);
        });
        FwdMatrix {
            m: self.m,
            q: self.q,
            l,
            rows_m,
            rows_i,
            scales,
            total: total[0],
        }
    }

    /// The one row driver: `slots[j]` carries the `j`-th longest of
    /// `seqs`, so the slots still live on a row are always a prefix.
    /// Each row runs (A) every live slot's M / I / M→D-seed loop, (B) one
    /// D→D resolution over all of them, (C) every live slot's specials
    /// update and rescale, then hands `on_row` the index of the slot's
    /// sequence and its M, I and D rows. Scores land in `out` in the
    /// order of `seqs`.
    fn drive(
        &self,
        p: &Profile,
        seqs: &[&[Residue]],
        slots: &mut [FwdWorkspace],
        out: &mut [f32],
        on_row: impl FnMut(usize, &[&mut [V4f32]; 3], &RowState),
    ) {
        // SAFETY: with_backend only selects Sse2/Avx2 when the CPU
        // reports the feature (SSE2 is the x86_64 baseline), and every
        // table and row holds `q` stripe vectors.
        unsafe {
            match self.backend {
                #[cfg(target_arch = "x86_64")]
                Backend::Sse2 => drive_rows::<Regs<Sse2F32, 2>>(self, p, seqs, slots, out, on_row),
                #[cfg(target_arch = "x86_64")]
                Backend::Avx2 => drive_avx2(self, p, seqs, slots, out, on_row),
                _ => drive_rows::<Regs<ScalarF32, 2>>(self, p, seqs, slots, out, on_row),
            }
        }
    }
}

/// AVX2 monomorphization behind `#[target_feature]` so the row compiles
/// to 256-bit code (the `#[inline(always)]` generics fold into this
/// feature context).
/// # Safety
/// As [`drive_rows`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn drive_avx2(
    t: &StripedFwd,
    p: &Profile,
    seqs: &[&[Residue]],
    slots: &mut [FwdWorkspace],
    out: &mut [f32],
    on_row: impl FnMut(usize, &[&mut [V4f32]; 3], &RowState),
) {
    drive_rows::<Avx2F32>(t, p, seqs, slots, out, on_row)
}

/// [`StripedFwd::drive`] on the pipe `P`.
/// # Safety
/// `P`'s backend runs on this CPU, and `t` is striped for this profile.
#[inline(always)]
unsafe fn drive_rows<P: RowPipe>(
    t: &StripedFwd,
    p: &Profile,
    seqs: &[&[Residue]],
    slots: &mut [FwdWorkspace],
    out: &mut [f32],
    mut on_row: impl FnMut(usize, &[&mut [V4f32]; 3], &RowState),
) {
    debug_assert_eq!(p.m, t.m);
    let n = seqs.len();
    let mut order: [usize; MAX_BATCH] = core::array::from_fn(|j| j);
    order[..n].sort_by_key(|&i| std::cmp::Reverse(seqs[i].len()));
    let len = |j: usize| seqs.get(order[j]).map_or(0, |s| s.len());
    let sps: [OddsSpecials; MAX_BATCH] =
        core::array::from_fn(|j| OddsSpecials::from_scores(&p.specials_for(len(j))));
    let mut sts: [RowState; MAX_BATCH] = core::array::from_fn(|j| RowState::start(&sps[j]));
    let mut dp: [[&mut [V4f32]; 3]; MAX_BATCH] = Default::default();
    for (rows, slot) in dp.iter_mut().zip(slots) {
        *rows = slot.rows(t.q);
    }
    let mut xes = [0.0f32; MAX_BATCH];
    let (mut r, mut live) = (0, n);
    loop {
        while live > 0 && len(live - 1) <= r {
            live -= 1;
        }
        if live == 0 {
            break;
        }
        for j in 0..live {
            xes[j] = fwd_row::<P>(t, seqs[order[j]][r] as usize, &mut dp[j], sts[j].xb);
        }
        match live {
            1 => dd_resolve::<P::Half, 1>(t, &mut dp),
            2 => dd_resolve::<P::Half, 2>(t, &mut dp),
            3 => dd_resolve::<P::Half, 3>(t, &mut dp),
            _ => dd_resolve::<P::Half, MAX_BATCH>(t, &mut dp),
        }
        for j in 0..live {
            sts[j].end_row(xes[j], &sps[j], &mut dp[j]);
            on_row(order[j], &dp[j], &sts[j]);
        }
        r += 1;
    }
    for j in 0..n {
        out[order[j]] = sts[j].finish(&sps[j]);
    }
}

/// Phase A of a row, once for every backend: M, I and the M→D seed of
/// one slot (no D→D); returns the row's `xE`. The stripe is walked in
/// pairs of positions, one `P` vector each, whose low halves accumulate
/// the even-`qi` `xE` and high halves the odd-`qi` one; an odd `q` runs
/// its last position through the same step on the 128-bit half.
/// # Safety
/// As [`drive_rows`], with `dp` holding `t.q` vectors per row.
#[inline(always)]
unsafe fn fwd_row<P: RowPipe>(
    t: &StripedFwd,
    x: usize,
    dp: &mut [&mut [V4f32]; 3],
    xb: f32,
) -> f32 {
    let q = t.q;
    // Every table and row cut to `q` vectors, so that the scalar pipe's
    // bounds checks fold away.
    let tables = &[
        &t.bmk[..q],
        &t.tmm[..q],
        &t.tim[..q],
        &t.tdm[..q],
        &t.tmi[..q],
        &t.tii[..q],
        &t.tmd[..q],
    ];
    let row = &t.rfv[x * q..][..q];
    let [m, i, d] = dp;
    let dp = &mut [&mut m[..q], &mut i[..q], &mut d[..q]];
    // The previous row at qi − 1 (for qi = 0 the cross-lane wrap of
    // old(q − 1)), then this row's M at qi − 1 for the M→D seed.
    let wrap = |r: &[V4f32]| P::Half::shl1(P::Half::load(r, q - 1));
    let mut carry = [wrap(dp[0]), wrap(dp[1]), wrap(dp[2]), P::Half::splat(0.0)];
    let mut acc = P::splat(0.0);
    let mut qi = 0;
    while qi + 1 < q {
        acc = P::add(acc, step::<P>(tables, row, dp, qi, &mut carry, xb));
        qi += 2;
    }
    let mut tail = P::Half::splat(0.0);
    if qi < q {
        [tail] = step::<Regs<P::Half, 1>>(tables, row, dp, qi, &mut carry, xb);
    }
    // Cross-lane M→D seed into qi = 0.
    let wrap = P::Half::mul(P::Half::shl1(carry[3]), P::Half::load(tables[6], 0));
    P::Half::store(dp[2], 0, P::Half::add(P::Half::load(dp[2], 0), wrap));
    // (low + tail) is the even accumulator (the last even `qi` is the
    // tail's), then the canonical reduction.
    let even = P::Half::add(P::low(acc), tail);
    P::Half::hsum(P::Half::add(even, P::high(acc)))
}

/// The cells of one `S` vector at stripe position `qi`. `carry` holds
/// the previous row's M, I, D and this row's M at the position below
/// `qi`, and leaves with those at the last position of the vector.
/// # Safety
/// As [`drive_rows`], with every slice covering the vector at `qi`.
#[inline(always)]
unsafe fn step<S: RowPipe>(
    [bmk, tmm, tim, tdm, tmi, tii, tmd]: &[&[V4f32]; 7],
    row: &[V4f32],
    [m, i, d]: &mut [&mut [V4f32]; 3],
    qi: usize,
    carry: &mut [<S::Half as Lanes>::V; 4],
    xb: f32,
) -> S::V {
    let [m_carry, i_carry, d_carry, sv_carry] = *carry;
    let (m_old, i_old, d_old) = (S::load(m, qi), S::load(i, qi), S::load(d, qi));
    let mut sv = S::mul(S::splat(xb), S::load(bmk, qi));
    sv = S::add(sv, S::mul(S::shifted(m_carry, m_old), S::load(tmm, qi)));
    sv = S::add(sv, S::mul(S::shifted(i_carry, i_old), S::load(tim, qi)));
    sv = S::add(sv, S::mul(S::shifted(d_carry, d_old), S::load(tdm, qi)));
    sv = S::mul(sv, S::load(row, qi));
    let iv = S::add(
        S::mul(m_old, S::load(tmi, qi)),
        S::mul(i_old, S::load(tii, qi)),
    );
    S::store(i, qi, iv);
    // M→D seed; the qi = 0 wrap and all D→D arrive later.
    S::store(d, qi, S::mul(S::shifted(sv_carry, sv), S::load(tmd, qi)));
    S::store(m, qi, sv);
    *carry = [S::high(m_old), S::high(i_old), S::high(d_old), S::high(sv)];
    sv
}

/// Phase B of a row, once for every backend: the D→D resolution of the
/// first `N` slots of `dp` in lockstep, on the 128-bit lane family.
/// `tdd` / `tdd_floor` are loaded once per `qi` for all `N` chains.
///
/// Pass 1 is the full in-lane propagation (cross-lane input zero).
/// Each correction pass then hands every lane the *increment* the
/// previous pass added at `qi = q−1` of the lane below; D is linear
/// in its inputs, so propagating increments (never re-reading the D
/// row) is exact and cannot double count, and lane 0's chain head is
/// exact after pass 1, so ≤ 3 passes close the fixed point. Lanes
/// drop to `+0.0` and passes end as the module doc says.
/// # Safety
/// As [`drive_rows`], with the first `N` D rows of `dp` `t.q` vectors long.
#[inline(always)]
unsafe fn dd_resolve<L: Lanes, const N: usize>(
    t: &StripedFwd,
    dp: &mut [[&mut [V4f32]; 3]; MAX_BATCH],
) {
    let (q, tdd, floor) = (t.q, &t.tdd[..t.q], &t.tdd_floor[..t.q]);
    // The first `N` D rows, cut to `q` vectors so that the scalar pipe's
    // bounds checks fold away.
    let mut cds = dp.each_mut().map(|[_, _, d]| &mut **d);
    for cd in &mut cds[..N] {
        *cd = &mut std::mem::take(cd)[..q];
    }
    let mut corr = [L::splat(0.0); N];
    for qi in 0..q {
        let tdd = L::load(tdd, qi);
        for (cd, c) in cds.iter_mut().zip(&mut corr) {
            *c = L::add(L::load(cd, qi), L::dd_mul(*c, tdd));
            L::store(cd, qi, *c);
        }
    }
    // Pass 1's increment at `q − 1` is the whole cell. Reading it back
    // from the row (it is the value just stored) leaves the carry above
    // unused after its loop, which lets LLVM keep the scalar pipe's
    // lanes in one vector.
    for (cd, c) in cds.iter().zip(&mut corr) {
        *c = L::load(cd, q - 1);
    }
    for _ in 1..FWD_LANES {
        for c in &mut corr {
            *c = L::shl1(*c);
        }
        for qi in 0..q {
            let floor = L::load(floor, qi);
            for c in &mut corr {
                *c = L::keep_ge(*c, floor);
            }
            if !L::any_nonzero(&corr) {
                break;
            }
            let tdd = L::load(tdd, qi);
            for (cd, c) in cds.iter_mut().zip(&mut corr) {
                *c = L::dd_mul(*c, tdd);
                L::store(cd, qi, L::add(L::load(cd, qi), *c));
            }
        }
    }
}

/// The f32 lane algebra the row walks: vectors of one or two adjacent
/// stripe positions, made of registers of the 128-bit [`Lanes`] family.
///
/// # Safety
///
/// Implementations may compile to ISA extensions; callers must only
/// invoke them when [`Backend::available`] said so ([`StripedFwd::drive`]
/// guarantees this).
trait RowPipe {
    type V: Copy;
    type Half: Lanes;
    unsafe fn splat(x: f32) -> Self::V;
    unsafe fn add(a: Self::V, b: Self::V) -> Self::V;
    unsafe fn mul(a: Self::V, b: Self::V) -> Self::V;
    /// The vector at stripe position `qi` of a table or row.
    unsafe fn load(s: &[V4f32], qi: usize) -> Self::V;
    unsafe fn store(s: &mut [V4f32], qi: usize, v: Self::V);
    /// `[carry, v.low]`: the vector moved up one stripe position, the
    /// diagonal it reads.
    unsafe fn shifted(carry: <Self::Half as Lanes>::V, v: Self::V) -> Self::V;
    unsafe fn low(v: Self::V) -> <Self::Half as Lanes>::V;
    unsafe fn high(v: Self::V) -> <Self::Half as Lanes>::V;
}

/// The 128-bit family: one stripe vector of [`FWD_LANES`] floats. The
/// D→D passes, the row's wrap and its reduction run on it everywhere.
/// # Safety
/// As [`RowPipe`].
trait Lanes {
    type V: Copy;
    unsafe fn splat(x: f32) -> Self::V;
    unsafe fn add(a: Self::V, b: Self::V) -> Self::V;
    unsafe fn mul(a: Self::V, b: Self::V) -> Self::V;
    /// Vector `qi` of a table or row. The scalar pipe checks the bound;
    /// the intrinsic pipes trust it.
    unsafe fn load(s: &[V4f32], qi: usize) -> Self::V;
    unsafe fn store(s: &mut [V4f32], qi: usize, v: Self::V);
    /// Shift lanes up one, injecting `0.0` (odds-space −∞) into lane 0:
    /// `_mm_slli_si128(v, 4)` on the float bits.
    unsafe fn shl1(a: Self::V) -> Self::V;
    /// Keep the lanes of `a` that are `>= floor`; every other lane (a NaN
    /// included) becomes `+0.0`: an `and` with a `cmpge` mask.
    unsafe fn keep_ge(a: Self::V, floor: Self::V) -> Self::V;
    /// Is any lane of any of `vs` other than `0.0`?
    unsafe fn any_nonzero(vs: &[Self::V]) -> bool;
    /// Horizontal sum with the canonical tree `(v0 + v2) + (v1 + v3)`,
    /// the order a `movehl`/`shufps` SSE reduction produces.
    unsafe fn hsum(a: Self::V) -> f32;
    /// The multiply of the D→D passes.
    #[inline(always)]
    unsafe fn dd_mul(a: Self::V, b: Self::V) -> Self::V {
        Self::mul(a, b)
    }
}

/// Portable emulated 4-lane pipe (the scalar backend).
struct ScalarF32;

impl Lanes for ScalarF32 {
    type V = V4f32;
    #[inline(always)]
    unsafe fn splat(x: f32) -> V4f32 {
        [x; 4]
    }
    #[inline(always)]
    unsafe fn add(a: V4f32, b: V4f32) -> V4f32 {
        core::array::from_fn(|z| a[z] + b[z])
    }
    #[inline(always)]
    unsafe fn mul(a: V4f32, b: V4f32) -> V4f32 {
        core::array::from_fn(|z| a[z] * b[z])
    }
    #[inline(always)]
    unsafe fn load(s: &[V4f32], qi: usize) -> V4f32 {
        s[qi]
    }
    #[inline(always)]
    unsafe fn store(s: &mut [V4f32], qi: usize, v: V4f32) {
        s[qi] = v
    }
    /// Out of line: inlined, the row's wrap carries would reach its loop
    /// as three lane loads and a constant, and LLVM would then split
    /// every emulated vector of the loop into mismatched lane groups.
    #[inline(never)]
    unsafe fn shl1(a: V4f32) -> V4f32 {
        [0.0, a[0], a[1], a[2]]
    }
    #[inline(always)]
    unsafe fn keep_ge(a: V4f32, floor: V4f32) -> V4f32 {
        core::array::from_fn(|z| if a[z] >= floor[z] { a[z] } else { 0.0 })
    }
    #[inline(always)]
    unsafe fn any_nonzero(vs: &[V4f32]) -> bool {
        !vs.iter()
            .all(|v| v[0] == 0.0 && v[1] == 0.0 && v[2] == 0.0 && v[3] == 0.0)
    }
    #[inline(always)]
    unsafe fn hsum(a: V4f32) -> f32 {
        (a[0] + a[2]) + (a[1] + a[3])
    }
    /// Under `cfg(test)` this also counts every subnormal operand or
    /// product on this thread, which is what the subnormal regression
    /// test reads: a count, not a timing.
    #[inline(always)]
    unsafe fn dd_mul(a: V4f32, b: V4f32) -> V4f32 {
        let r = Self::mul(a, b);
        #[cfg(test)]
        tests::count_subnormals(&[a, b, r]);
        r
    }
}

/// Real 128-bit SSE2 pipe over the same 4-lane stripe.
#[cfg(target_arch = "x86_64")]
struct Sse2F32;

#[cfg(target_arch = "x86_64")]
impl Lanes for Sse2F32 {
    type V = core::arch::x86_64::__m128;
    #[inline(always)]
    unsafe fn splat(x: f32) -> Self::V {
        core::arch::x86_64::_mm_set1_ps(x)
    }
    #[inline(always)]
    unsafe fn add(a: Self::V, b: Self::V) -> Self::V {
        core::arch::x86_64::_mm_add_ps(a, b)
    }
    #[inline(always)]
    unsafe fn mul(a: Self::V, b: Self::V) -> Self::V {
        core::arch::x86_64::_mm_mul_ps(a, b)
    }
    #[inline(always)]
    unsafe fn load(s: &[V4f32], qi: usize) -> Self::V {
        core::arch::x86_64::_mm_loadu_ps(s.as_ptr().add(qi) as *const f32)
    }
    #[inline(always)]
    unsafe fn store(s: &mut [V4f32], qi: usize, v: Self::V) {
        core::arch::x86_64::_mm_storeu_ps(s.as_mut_ptr().add(qi) as *mut f32, v)
    }
    #[inline(always)]
    unsafe fn shl1(a: Self::V) -> Self::V {
        use core::arch::x86_64::*;
        _mm_castsi128_ps(_mm_slli_si128::<4>(_mm_castps_si128(a)))
    }
    #[inline(always)]
    unsafe fn keep_ge(a: Self::V, floor: Self::V) -> Self::V {
        use core::arch::x86_64::*;
        _mm_and_ps(a, _mm_cmpge_ps(a, floor))
    }
    #[inline(always)]
    unsafe fn any_nonzero(vs: &[Self::V]) -> bool {
        use core::arch::x86_64::*;
        let any = vs.iter().fold(_mm_setzero_ps(), |a, &v| _mm_or_ps(a, v));
        _mm_movemask_ps(_mm_cmpneq_ps(any, _mm_setzero_ps())) != 0
    }
    #[inline(always)]
    unsafe fn hsum(a: Self::V) -> f32 {
        use core::arch::x86_64::*;
        // movehl: lanes become (v0+v2, v1+v3, _, _).
        let pair = _mm_add_ps(a, _mm_movehl_ps(a, a));
        _mm_cvtss_f32(_mm_add_ss(pair, _mm_shuffle_ps::<0b01>(pair, pair)))
    }
}

/// `K` adjacent stripe positions as `K` registers of the 128-bit pipe
/// `L`: a pair is the scalar and SSE2 row's vector, op for op the AVX2
/// pipe's halves, and one position is every pipe's odd tail.
struct Regs<L, const K: usize>(core::marker::PhantomData<L>);

impl<L: Lanes, const K: usize> RowPipe for Regs<L, K> {
    type V = [L::V; K];
    type Half = L;
    #[inline(always)]
    unsafe fn splat(x: f32) -> Self::V {
        [L::splat(x); K]
    }
    #[inline(always)]
    unsafe fn add(a: Self::V, b: Self::V) -> Self::V {
        core::array::from_fn(|z| L::add(a[z], b[z]))
    }
    #[inline(always)]
    unsafe fn mul(a: Self::V, b: Self::V) -> Self::V {
        core::array::from_fn(|z| L::mul(a[z], b[z]))
    }
    #[inline(always)]
    unsafe fn load(s: &[V4f32], qi: usize) -> Self::V {
        core::array::from_fn(|z| L::load(s, qi + z))
    }
    #[inline(always)]
    unsafe fn store(s: &mut [V4f32], qi: usize, v: Self::V) {
        for (z, v) in v.into_iter().enumerate() {
            L::store(s, qi + z, v);
        }
    }
    #[inline(always)]
    unsafe fn shifted(carry: L::V, v: Self::V) -> Self::V {
        core::array::from_fn(|z| if z == 0 { carry } else { v[z - 1] })
    }
    #[inline(always)]
    unsafe fn low(v: Self::V) -> L::V {
        v[0]
    }
    #[inline(always)]
    unsafe fn high(v: Self::V) -> L::V {
        v[K - 1]
    }
}

/// 256-bit AVX2 pipe: positions `qi` and `qi + 1` in one register.
#[cfg(target_arch = "x86_64")]
struct Avx2F32;

#[cfg(target_arch = "x86_64")]
impl RowPipe for Avx2F32 {
    type V = core::arch::x86_64::__m256;
    type Half = Sse2F32;
    #[inline(always)]
    unsafe fn splat(x: f32) -> Self::V {
        core::arch::x86_64::_mm256_set1_ps(x)
    }
    #[inline(always)]
    unsafe fn add(a: Self::V, b: Self::V) -> Self::V {
        core::arch::x86_64::_mm256_add_ps(a, b)
    }
    #[inline(always)]
    unsafe fn mul(a: Self::V, b: Self::V) -> Self::V {
        core::arch::x86_64::_mm256_mul_ps(a, b)
    }
    #[inline(always)]
    unsafe fn load(s: &[V4f32], qi: usize) -> Self::V {
        core::arch::x86_64::_mm256_loadu_ps(s.as_ptr().add(qi) as *const f32)
    }
    #[inline(always)]
    unsafe fn store(s: &mut [V4f32], qi: usize, v: Self::V) {
        core::arch::x86_64::_mm256_storeu_ps(s.as_mut_ptr().add(qi) as *mut f32, v)
    }
    #[inline(always)]
    unsafe fn shifted(carry: core::arch::x86_64::__m128, v: Self::V) -> Self::V {
        use core::arch::x86_64::*;
        _mm256_insertf128_ps::<1>(_mm256_castps128_ps256(carry), _mm256_castps256_ps128(v))
    }
    #[inline(always)]
    unsafe fn low(v: Self::V) -> core::arch::x86_64::__m128 {
        core::arch::x86_64::_mm256_castps256_ps128(v)
    }
    #[inline(always)]
    unsafe fn high(v: Self::V) -> core::arch::x86_64::__m128 {
        core::arch::x86_64::_mm256_extractf128_ps::<1>(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::forward_generic;
    use h3w_hmm::background::NullModel;
    use h3w_hmm::build::{synthetic_model, BuildParams};
    use h3w_hmm::calibrate::random_seq;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn profile(m: usize, seed: u64) -> Profile {
        let bg = NullModel::new();
        Profile::config(&synthetic_model(m, seed, &BuildParams::default()), &bg)
    }

    thread_local! {
        /// Subnormal operands and products seen by the scalar pipe's
        /// `dd_mul` on this thread (tests run one per thread).
        static DD_SUBNORMALS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    pub(super) fn count_subnormals(vs: &[V4f32]) {
        let n = vs.iter().flatten().filter(|x| x.is_subnormal()).count() as u64;
        DD_SUBNORMALS.with(|c| c.set(c.get() + n));
    }

    #[test]
    fn dd_passes_never_touch_a_subnormal_on_calibration_shaped_input() {
        // Background L = 100 at the sizes where the pre-rule kernel spent
        // 60–75% of its time in microcode assists. A count, so it cannot
        // flake: no multiply of the D→D passes may see a subnormal
        // operand or produce a subnormal product.
        let sample = h3w_hmm::calibrate::sample(17, 40, 100);
        for m in [100usize, 400, 800] {
            let p = profile(m, 7);
            let f = StripedFwd::with_backend(&p, Backend::Scalar);
            let mut ws = FwdWorkspace::default();
            DD_SUBNORMALS.with(|c| c.set(0));
            for s in &sample {
                assert!(f.run_into(&p, s, &mut ws).is_finite());
            }
            assert_eq!(DD_SUBNORMALS.with(|c| c.get()), 0, "m={m}");
            // The same through the lockstep resolution: ragged batches of
            // four, so dead slots ride along with live ones and the batch
            // narrows 4 → 1 as slots retire.
            let mut bws = FwdBatchWorkspace::default();
            for (b, chunk) in sample.chunks(MAX_BATCH).enumerate() {
                let refs: Vec<&[u8]> = chunk
                    .iter()
                    .enumerate()
                    .map(|(i, s)| &s[..s.len() - 7 * ((i + b) % MAX_BATCH)])
                    .collect();
                let mut out = [0.0; MAX_BATCH];
                f.run_batch_into(&p, &refs, &mut bws, &mut out[..refs.len()]);
                assert!(out[..refs.len()].iter().all(|x| x.is_finite()));
            }
            assert_eq!(DD_SUBNORMALS.with(|c| c.get()), 0, "m={m}, width 4");
        }
        // The counter does count: an increment that is already subnormal
        // entering pass 1 is seen.
        count_subnormals(&[[1.0e-40, 0.0, 1.0, f32::MIN_POSITIVE]]);
        assert_eq!(DD_SUBNORMALS.with(|c| c.get()), 1);
    }

    #[test]
    fn recording_rows_equal_the_scoring_path_cell_for_cell() {
        // run_recording and run_into share the row driver; this drives
        // it the way run_into does and compares every M/I cell and scale
        // with what run_recording stored, on each backend.
        let mut rng = StdRng::seed_from_u64(19);
        for m in [100usize, 400] {
            let p = profile(m, 7);
            let seq = random_seq(&mut rng, 100);
            for backend in Backend::all_available() {
                let f = StripedFwd::with_backend(&p, backend);
                let mut ws = FwdWorkspace::default();
                let mat = f.run_recording(&p, &seq, &mut ws);
                let bits = |row: &[V4f32]| -> Vec<u32> {
                    row.iter().flatten().map(|x| x.to_bits()).collect()
                };
                let (mut i, mut total) = (0, [0.0]);
                let slot = std::slice::from_mut(&mut ws);
                f.drive(&p, &[&seq], slot, &mut total, |_, [m, i_row, _], st| {
                    let rows = i * f.q..(i + 1) * f.q;
                    assert_eq!(bits(m), bits(&mat.rows_m[rows.clone()]), "M row {i}");
                    assert_eq!(bits(i_row), bits(&mat.rows_i[rows]), "I row {i}");
                    assert_eq!(st.totscale.to_bits(), mat.scales[i].to_bits());
                    i += 1;
                });
                assert_eq!(i, seq.len());
                let total = total[0];
                assert_eq!(total.to_bits(), mat.total.to_bits(), "{backend} m={m}");
                assert_eq!(total.to_bits(), f.run_into(&p, &seq, &mut ws).to_bits());
            }
        }
    }

    #[test]
    fn lockstep_slots_record_their_width_one_lattices() {
        // Inside a ragged batch of four (a rescaling homolog among
        // background, q on both sides of the 63-step decay) every slot's
        // M/I rows and scales are the ones run_recording stores for its
        // sequence alone, on each backend.
        let mut rng = StdRng::seed_from_u64(23);
        for m in [33usize, 280, 400] {
            let core = synthetic_model(m, 31, &BuildParams::default());
            let p = Profile::config(&core, &NullModel::new());
            let mut hom = Vec::new();
            while hom.len() < 3 * m {
                hom.extend(h3w_seqdb::gen::sample_homolog(&mut rng, &core, 2));
            }
            let seqs = [
                random_seq(&mut rng, 40),
                hom,
                random_seq(&mut rng, 1),
                random_seq(&mut rng, 40),
            ];
            let refs: Vec<&[u8]> = seqs.iter().map(|s| s.as_slice()).collect();
            for backend in Backend::all_available() {
                let f = StripedFwd::with_backend(&p, backend);
                let mats: Vec<FwdMatrix> = seqs
                    .iter()
                    .map(|s| f.run_recording(&p, s, &mut FwdWorkspace::default()))
                    .collect();
                assert_ne!(mats[1].scales[mats[1].l - 1], 0.0, "homolog must rescale");
                assert_eq!(mats[0].scales[39], 0.0, "background must not");
                let bits = |row: &[V4f32]| -> Vec<u32> {
                    row.iter().flatten().map(|x| x.to_bits()).collect()
                };
                let mut slots: Vec<FwdWorkspace> = (0..4).map(|_| Default::default()).collect();
                let (mut rows, mut out) = ([0usize; 4], [0.0; 4]);
                f.drive(&p, &refs, &mut slots, &mut out, |s, [m, i_row, _], st| {
                    let (i, mat) = (rows[s], &mats[s]);
                    let span = i * f.q..(i + 1) * f.q;
                    assert_eq!(bits(m), bits(&mat.rows_m[span.clone()]), "M {s}/{i}");
                    assert_eq!(bits(i_row), bits(&mat.rows_i[span]), "I {s}/{i}");
                    assert_eq!(st.totscale.to_bits(), mat.scales[i].to_bits(), "{s}/{i}");
                    rows[s] += 1;
                });
                for s in 0..4 {
                    assert_eq!(rows[s], seqs[s].len(), "{backend} m={m} slot {s}");
                    assert_eq!(out[s].to_bits(), mats[s].total.to_bits(), "{backend} m={m}");
                }
            }
        }
    }

    #[test]
    fn f32_ops_lanewise() {
        // The 128-bit pipes' lane semantics: the scalar pipe's spelled
        // out, the SSE2 pipe's equal to it bit for bit.
        let (a, b): (V4f32, V4f32) = ([1.0, 2.0, 3.0, 4.0], [0.5, -1.5, 0.0, 3.25]);
        let (x, floor) = ([2.0, 1.0, 0.0, f32::NAN], [1.0, 2.0, f32::INFINITY, 0.0]);
        let bits = |v: V4f32| v.map(f32::to_bits);
        unsafe {
            assert_eq!(
                ScalarF32::add(a, ScalarF32::splat(0.5)),
                [1.5, 2.5, 3.5, 4.5]
            );
            assert_eq!(
                ScalarF32::mul(a, ScalarF32::splat(0.5)),
                [0.5, 1.0, 1.5, 2.0]
            );
            assert_eq!(ScalarF32::shl1(a), [0.0, 1.0, 2.0, 3.0]);
            assert_eq!(ScalarF32::hsum(a), (1.0 + 3.0) + (2.0 + 4.0));
            assert!(!ScalarF32::any_nonzero(&[[0.0; 4], [-0.0; 4]]));
            assert!(ScalarF32::any_nonzero(&[
                [0.0; 4],
                [0.0, 0.0, 1.0e-30, 0.0]
            ]));
            assert_eq!(
                bits(ScalarF32::keep_ge(x, floor)),
                [2.0f32.to_bits(), 0, 0, 0]
            );
            #[cfg(target_arch = "x86_64")]
            {
                let ld = |v: V4f32| Sse2F32::load(&[v], 0);
                let st = |v| {
                    let mut out = [[0.0; 4]];
                    Sse2F32::store(&mut out, 0, v);
                    bits(out[0])
                };
                assert_eq!(st(Sse2F32::splat(0.5)), bits(ScalarF32::splat(0.5)));
                assert_eq!(st(Sse2F32::add(ld(a), ld(b))), bits(ScalarF32::add(a, b)));
                assert_eq!(st(Sse2F32::mul(ld(a), ld(b))), bits(ScalarF32::mul(a, b)));
                assert_eq!(st(Sse2F32::shl1(ld(a))), bits(ScalarF32::shl1(a)));
                assert_eq!(Sse2F32::hsum(ld(b)), ScalarF32::hsum(b));
                let kept = Sse2F32::keep_ge(ld(x), ld(floor));
                assert_eq!(st(kept), bits(ScalarF32::keep_ge(x, floor)));
                assert!(!Sse2F32::any_nonzero(&[ld([0.0; 4]), ld([-0.0; 4])]));
                assert!(Sse2F32::any_nonzero(&[
                    ld([0.0; 4]),
                    ld([0.0, 0.0, 1.0e-30, 0.0])
                ]));
            }
        }
    }

    #[test]
    fn stripe_geometry() {
        for (m, q) in [(1usize, 1usize), (4, 1), (5, 2), (8, 2), (9, 3), (130, 33)] {
            let p = profile(m, 3);
            let f = StripedFwd::new(&p);
            assert_eq!(f.q, q, "m={m}");
            assert_eq!(f.real_cells_per_row(), 3 * m as u64);
            assert_eq!(f.padded_cells_per_row(), (3 * 4 * q) as u64);
        }
    }

    #[test]
    fn matches_generic_forward_over_sizes() {
        let mut rng = StdRng::seed_from_u64(11);
        for m in [1usize, 5, 7, 8, 9, 15, 16, 17, 33, 64, 130] {
            let p = profile(m, m as u64);
            let f = StripedFwd::new(&p);
            for len in [1usize, 3, 40, 300] {
                let seq = random_seq(&mut rng, len);
                let exact = forward_generic(&p, &seq);
                let striped = f.run(&p, &seq);
                // The gap here is the *generic* side's flogsum table
                // bias (measured envelope ≈ 0.01 + 0.012·ln(1+L) nats,
                // growing with every row's specials updates); the
                // striped path itself tracks an exact log-sum-exp
                // Forward to < 1e-3 nats — see tests/fwd_equivalence.rs.
                let budget = 0.012 + 0.014 * (1.0 + len as f32).ln();
                assert!(
                    (exact - striped).abs() < budget,
                    "m={m} len={len}: generic {exact} vs striped {striped}"
                );
            }
        }
    }

    #[test]
    fn bit_identical_across_backends() {
        let mut rng = StdRng::seed_from_u64(12);
        for m in [1usize, 7, 9, 33, 130] {
            let p = profile(m, 100 + m as u64);
            let base = StripedFwd::with_backend(&p, Backend::Scalar);
            for len in [0usize, 1, 9, 250] {
                let seq = random_seq(&mut rng, len);
                let want = base.run(&p, &seq);
                for backend in Backend::all_available() {
                    let f = StripedFwd::with_backend(&p, backend);
                    let got = f.run(&p, &seq);
                    assert_eq!(
                        want.to_bits(),
                        got.to_bits(),
                        "m={m} len={len} backend={backend}: {want} vs {got}"
                    );
                }
            }
        }
    }

    #[test]
    fn rescaling_regime_is_bit_identical_and_finite() {
        // A long tandem homolog drives odds through many rescales.
        let bg = NullModel::new();
        let core = synthetic_model(40, 21, &BuildParams::default());
        let p = Profile::config(&core, &bg);
        let mut rng = StdRng::seed_from_u64(22);
        let mut seq = Vec::new();
        for _ in 0..40 {
            seq.extend(h3w_seqdb::gen::sample_homolog(&mut rng, &core, 3));
        }
        let base = StripedFwd::with_backend(&p, Backend::Scalar);
        let want = base.run(&p, &seq);
        assert!(want.is_finite() && want > 100.0, "tandem score {want}");
        let exact = forward_generic(&p, &seq);
        assert!(
            (exact - want).abs() < 0.05 + 2e-4 * seq.len() as f32,
            "generic {exact} vs striped {want} over {} residues",
            seq.len()
        );
        for backend in Backend::all_available() {
            let f = StripedFwd::with_backend(&p, backend);
            assert_eq!(f.run(&p, &seq).to_bits(), want.to_bits(), "{backend}");
        }
    }

    #[test]
    fn empty_sequence_is_neg_inf() {
        let p = profile(12, 5);
        let f = StripedFwd::new(&p);
        assert_eq!(f.run(&p, &[]), NEG_INF);
    }

    #[test]
    fn workspace_reuse_is_clean() {
        let p = profile(19, 6);
        let f = StripedFwd::new(&p);
        let mut rng = StdRng::seed_from_u64(7);
        let seqs: Vec<Vec<u8>> = (0..6).map(|i| random_seq(&mut rng, 17 + i * 31)).collect();
        let mut ws = FwdWorkspace::default();
        let fresh: Vec<f32> = seqs.iter().map(|s| f.run(&p, s)).collect();
        // Long → short → long reuse must not leak state between runs.
        for (i, s) in seqs.iter().enumerate().rev() {
            assert_eq!(f.run_into(&p, s, &mut ws).to_bits(), fresh[i].to_bits());
        }
    }

    #[test]
    fn batch_widths_are_bit_identical() {
        let p = profile(27, 8);
        let mut rng = StdRng::seed_from_u64(9);
        let seqs: Vec<Vec<u8>> = (0..8)
            .map(|i| random_seq(&mut rng, [0usize, 5, 60, 61, 200, 10, 33, 100][i]))
            .collect();
        for backend in Backend::all_available() {
            let f = StripedFwd::with_backend(&p, backend);
            let single: Vec<f32> = seqs.iter().map(|s| f.run(&p, s)).collect();
            let mut ws = FwdBatchWorkspace::default();
            for width in 1..=MAX_BATCH {
                for chunk in seqs.chunks(width) {
                    let refs: Vec<&[u8]> = chunk.iter().map(|s| s.as_slice()).collect();
                    let mut out = vec![0f32; refs.len()];
                    f.run_batch_into(&p, &refs, &mut ws, &mut out);
                    for (s, got) in chunk.iter().zip(&out) {
                        let want =
                            single[seqs.iter().position(|t| t.as_ptr() == s.as_ptr()).unwrap()];
                        assert_eq!(want.to_bits(), got.to_bits(), "{backend} width {width}");
                    }
                }
            }
        }
    }

    #[test]
    fn recording_matches_run_and_indexes_correctly() {
        let p = profile(21, 10);
        let f = StripedFwd::new(&p);
        let mut rng = StdRng::seed_from_u64(13);
        let seq = random_seq(&mut rng, 75);
        let mut ws = FwdWorkspace::default();
        let mat = f.run_recording(&p, &seq, &mut ws);
        assert_eq!(mat.total.to_bits(), f.run(&p, &seq).to_bits());
        assert_eq!((mat.l, mat.m, mat.q), (75, 21, f.q));
        // Row 1 M values must equal the first-row recurrence directly:
        // M(1,k) = xB(0)·bmk[k]·emis, everything else zero.
        let xs = p.specials_for(seq.len());
        let xb0 = xs.move_sc;
        for k in 1..=p.m {
            let want = xb0 + p.bmk[k] + p.msc[k][seq[0] as usize];
            let got = mat.m_odds(1, k).ln() + mat.scale(1);
            assert!(
                (want - got).abs() < 1e-4 || (want == NEG_INF && got == NEG_INF),
                "k={k}: {want} vs {got}"
            );
            // I on row 1 needs an M on row 0: impossible.
            if k < p.m {
                assert_eq!(mat.i_odds(1, k), 0.0);
            }
        }
    }
}
