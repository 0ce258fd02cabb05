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
//! is checked against [`RESCALE_THRESHOLD`]; when it trips, the current
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
//! # One stripe, three backends, bit-identical
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
//! The AVX2 backend therefore speeds up the *same* arithmetic by
//! processing two adjacent stripe vectors per 256-bit op (the element
//! set and rounding of each op is unchanged), and scalar/SSE2/AVX2 all
//! return bit-identical scores — so hits, calibration, and posterior
//! values do not depend on `H3W_SIMD_BACKEND`.
//!
//! Tables are destination-aligned exactly like
//! [`h3w_hmm::vitprofile`]: index `k0 = k−1` holds everything entering
//! node `k`, so the row loop indexes every table with the same `qi`.

use crate::backend::Backend;
use crate::batch::MAX_BATCH;
use crate::simd::{
    add_f32, all_zero_f32, hsum_f32, keep_ge_f32, mul_f32, shift_f32, splat_f32, V4f32,
};
use h3w_hmm::alphabet::{Residue, N_CODES};
use h3w_hmm::profile::{Profile, SpecialScores, NEG_INF};

/// Float lanes in the canonical stripe (every backend).
pub const FWD_LANES: usize = 4;

/// Rescale when a row's odds-space `xE` exceeds this. Low enough that a
/// further row of growth cannot approach `f32::MAX`, high enough that
/// background sequences (whose `xE` stays O(1)) never pay the `ln`.
const RESCALE_THRESHOLD: f32 = 1.0e10;

const ZERO4: V4f32 = [0.0; 4];

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
    fn end_row(&mut self, xe: f32, sp: &OddsSpecials, ws: &mut FwdWorkspace) {
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
            for lane in ws.rows.iter_mut().flatten() {
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
/// the diagonal they feed; the AVX2 backend builds a *pair*'s diagonal
/// `[old(qi−1), old(qi)]` from the carried high half of the previous
/// pair and the low half of this one. One row per slot rather than two
/// halves what four lockstep slots keep beside the tables in L1d.
#[derive(Debug, Default)]
pub struct FwdWorkspace {
    rows: Vec<V4f32>,
}

impl FwdWorkspace {
    fn reset(&mut self, q: usize) {
        self.rows.clear();
        self.rows.resize(3 * q, ZERO4);
    }

    /// The M, I and D rows.
    fn rows(&mut self) -> [&mut [V4f32]; 3] {
        let q = self.rows.len() / 3;
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

    /// `M(i,k)` in nats (−∞ where the odds are zero).
    #[inline]
    pub fn m_log(&self, i: usize, k: usize) -> f32 {
        self.m_odds(i, k).ln() + self.scale(i)
    }

    /// `I(i,k)` in nats.
    #[inline]
    pub fn i_log(&self, i: usize, k: usize) -> f32 {
        self.i_odds(i, k).ln() + self.scale(i)
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
        self.drive(p, &[seq], slot, &mut total, |_, ws, st| {
            let (m, i) = ws.rows[..2 * self.q].split_at(self.q);
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
    /// update and rescale, then hands `on_row` the slot with the index
    /// of its sequence. Scores land in `out` in the order of `seqs`.
    fn drive(
        &self,
        p: &Profile,
        seqs: &[&[Residue]],
        slots: &mut [FwdWorkspace],
        out: &mut [f32],
        mut on_row: impl FnMut(usize, &FwdWorkspace, &RowState),
    ) {
        debug_assert_eq!(p.m, self.m);
        let n = seqs.len();
        let mut order: [usize; MAX_BATCH] = core::array::from_fn(|j| j);
        order[..n].sort_by_key(|&i| std::cmp::Reverse(seqs[i].len()));
        let len = |j: usize| seqs.get(order[j]).map_or(0, |s| s.len());
        let sps: [OddsSpecials; MAX_BATCH] =
            core::array::from_fn(|j| OddsSpecials::from_scores(&p.specials_for(len(j))));
        let mut sts: [RowState; MAX_BATCH] = core::array::from_fn(|j| RowState::start(&sps[j]));
        for slot in slots.iter_mut() {
            slot.reset(self.q);
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
                xes[j] = self.row_main(seqs[order[j]][r] as usize, &mut slots[j], sts[j].xb);
            }
            match live {
                1 => self.dd_resolve::<1>(slots),
                2 => self.dd_resolve::<2>(slots),
                3 => self.dd_resolve::<3>(slots),
                _ => self.dd_resolve::<MAX_BATCH>(slots),
            }
            for j in 0..live {
                sts[j].end_row(xes[j], &sps[j], &mut slots[j]);
                on_row(order[j], &slots[j], &sts[j]);
            }
            r += 1;
        }
        for j in 0..n {
            out[order[j]] = sts[j].finish(&sps[j]);
        }
    }

    /// Phase A of a row on the instance's backend: M, I and the M→D seed
    /// of one slot (no D→D); returns the row's `xE`.
    #[inline]
    fn row_main(&self, x: usize, ws: &mut FwdWorkspace, xb: f32) -> f32 {
        match self.backend {
            Backend::Scalar => self.row_scalar(x, ws, xb),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: with_backend only selects Sse2/Avx2 when the CPU
            // reports the feature (SSE2 is the x86_64 baseline).
            Backend::Sse2 => unsafe { self.row_sse2(x, ws, xb) },
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => unsafe { self.row_avx2(x, ws, xb) },
            #[cfg(not(target_arch = "x86_64"))]
            _ => self.row_scalar(x, ws, xb),
        }
    }

    /// Phase B of a row: resolve the D→D chains of the first `N` slots
    /// together, on the instance's lane family.
    #[inline]
    fn dd_resolve<const N: usize>(&self, slots: &mut [FwdWorkspace]) {
        let mut it = slots.iter_mut();
        let cds: [&mut [V4f32]; N] = core::array::from_fn(|_| {
            // Cannot fire: `drive` passes `N` = live slots, and its row
            // loop has just indexed `slots[..live]`.
            let [_, _, cd] = it.next().expect("N live slots").rows();
            cd
        });
        match self.backend {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: each pointer covers its slot's `q` stripe vectors
            // (`FwdWorkspace::reset`), the slots are distinct, and SSE2
            // is the x86_64 baseline.
            Backend::Sse2 | Backend::Avx2 => unsafe {
                self.dd_resolve_x86(cds.map(|cd| cd.as_mut_ptr() as *mut f32))
            },
            _ => self.dd_resolve_scalar(cds),
        }
    }

    /// Portable reference row loop (emulated 4-lane vectors). This is
    /// the canonical operation order the intrinsic backends replicate.
    #[allow(clippy::needless_range_loop)]
    fn row_scalar(&self, x: usize, ws: &mut FwdWorkspace, xb: f32) -> f32 {
        let q = self.q;
        let row = &self.rfv[x * q..(x + 1) * q];
        let [m, i, d] = ws.rows();
        let xbv = splat_f32(xb);
        let mut acc_e = ZERO4;
        let mut acc_o = ZERO4;
        // Previous row at qi-1 (the diagonal); qi = 0 wraps to q-1.
        let mut mpv = shift_f32(m[q - 1], 0.0);
        let mut ipv = shift_f32(i[q - 1], 0.0);
        let mut dpv = shift_f32(d[q - 1], 0.0);
        let mut mcur_prev = ZERO4; // M of position qi-1, current row
        for qi in 0..q {
            let (m_old, i_old, d_old) = (m[qi], i[qi], d[qi]);
            let mut sv = mul_f32(xbv, self.bmk[qi]);
            sv = add_f32(sv, mul_f32(mpv, self.tmm[qi]));
            sv = add_f32(sv, mul_f32(ipv, self.tim[qi]));
            sv = add_f32(sv, mul_f32(dpv, self.tdm[qi]));
            sv = mul_f32(sv, row[qi]);
            if qi % 2 == 0 {
                acc_e = add_f32(acc_e, sv);
            } else {
                acc_o = add_f32(acc_o, sv);
            }
            i[qi] = add_f32(mul_f32(m_old, self.tmi[qi]), mul_f32(i_old, self.tii[qi]));
            // M→D seed; the qi=0 wrap and all D→D arrive below.
            d[qi] = mul_f32(mcur_prev, self.tmd[qi]);
            (mpv, ipv, dpv) = (m_old, i_old, d_old);
            m[qi] = sv;
            mcur_prev = sv;
        }
        // Cross-lane M→D seed into qi = 0.
        d[0] = add_f32(d[0], mul_f32(shift_f32(mcur_prev, 0.0), self.tmd[0]));
        hsum_f32(add_f32(acc_e, acc_o))
    }

    /// SSE2 row loop — the same 4-lane stripe and operation order as
    /// [`StripedFwd::row_scalar`], with real 128-bit intrinsics.
    #[cfg(target_arch = "x86_64")]
    unsafe fn row_sse2(&self, x: usize, ws: &mut FwdWorkspace, xb: f32) -> f32 {
        use crate::x86::{hsum_ps, loadu_ps, shl1_ps_128, storeu_ps};
        use core::arch::x86_64::*;
        let q = self.q;
        let row = self.rfv.as_ptr().add(x * q) as *const f32;
        let [m, i, d] = ws.rows().map(|r| r.as_mut_ptr() as *mut f32);
        let tmm = self.tmm.as_ptr() as *const f32;
        let tim = self.tim.as_ptr() as *const f32;
        let tdm = self.tdm.as_ptr() as *const f32;
        let tmd = self.tmd.as_ptr() as *const f32;
        let tmi = self.tmi.as_ptr() as *const f32;
        let tii = self.tii.as_ptr() as *const f32;
        let bmk = self.bmk.as_ptr() as *const f32;

        let xbv = _mm_set1_ps(xb);
        let mut acc_e = _mm_setzero_ps();
        let mut acc_o = _mm_setzero_ps();
        let mut mpv = shl1_ps_128(loadu_ps(m.add(4 * (q - 1))));
        let mut ipv = shl1_ps_128(loadu_ps(i.add(4 * (q - 1))));
        let mut dpv = shl1_ps_128(loadu_ps(d.add(4 * (q - 1))));
        let mut mcur_prev = _mm_setzero_ps();
        for qi in 0..q {
            let o = 4 * qi;
            let (m_old, i_old, d_old) =
                (loadu_ps(m.add(o)), loadu_ps(i.add(o)), loadu_ps(d.add(o)));
            let mut sv = _mm_mul_ps(xbv, loadu_ps(bmk.add(o)));
            sv = _mm_add_ps(sv, _mm_mul_ps(mpv, loadu_ps(tmm.add(o))));
            sv = _mm_add_ps(sv, _mm_mul_ps(ipv, loadu_ps(tim.add(o))));
            sv = _mm_add_ps(sv, _mm_mul_ps(dpv, loadu_ps(tdm.add(o))));
            sv = _mm_mul_ps(sv, loadu_ps(row.add(o)));
            if qi % 2 == 0 {
                acc_e = _mm_add_ps(acc_e, sv);
            } else {
                acc_o = _mm_add_ps(acc_o, sv);
            }
            let iv = _mm_add_ps(
                _mm_mul_ps(m_old, loadu_ps(tmi.add(o))),
                _mm_mul_ps(i_old, loadu_ps(tii.add(o))),
            );
            storeu_ps(i.add(o), iv);
            storeu_ps(d.add(o), _mm_mul_ps(mcur_prev, loadu_ps(tmd.add(o))));
            (mpv, ipv, dpv) = (m_old, i_old, d_old);
            storeu_ps(m.add(o), sv);
            mcur_prev = sv;
        }
        let wrap = _mm_mul_ps(shl1_ps_128(mcur_prev), loadu_ps(tmd));
        storeu_ps(d, _mm_add_ps(loadu_ps(d), wrap));
        hsum_ps(_mm_add_ps(acc_e, acc_o))
    }

    /// AVX2 row loop: identical stripe and arithmetic, but two adjacent
    /// stripe vectors (`qi`, `qi+1`) per 256-bit op. The low half maps
    /// to even `qi` and the high half to odd `qi`, so the single 256-bit
    /// `xE` accumulator *is* the scalar backend's even/odd accumulator
    /// pair. Each diagonal pair `[old(qi−1), old(qi)]` is the previous
    /// pair's carried high half below this pair's low half.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn row_avx2(&self, x: usize, ws: &mut FwdWorkspace, xb: f32) -> f32 {
        use crate::x86::{hsum_ps, loadu_ps, loadu_ps256, shl1_ps_128, storeu_ps, storeu_ps256};
        use core::arch::x86_64::*;
        let q = self.q;
        if q < 2 {
            return self.row_sse2(x, ws, xb);
        }
        let row = self.rfv.as_ptr().add(x * q) as *const f32;
        let [m, i, d] = ws.rows().map(|r| r.as_mut_ptr() as *mut f32);
        let tmm = self.tmm.as_ptr() as *const f32;
        let tim = self.tim.as_ptr() as *const f32;
        let tdm = self.tdm.as_ptr() as *const f32;
        let tmd = self.tmd.as_ptr() as *const f32;
        let tmi = self.tmi.as_ptr() as *const f32;
        let tii = self.tii.as_ptr() as *const f32;
        let bmk = self.bmk.as_ptr() as *const f32;

        let xbv = _mm256_set1_ps(xb);
        let mut acc = _mm256_setzero_ps();
        let mut acc_tail = _mm_setzero_ps();
        // `[carry, v.low]`: a pair moved up one stripe position.
        let shifted = |carry: __m128, v: __m256| -> __m256 {
            _mm256_insertf128_ps::<1>(_mm256_castps128_ps256(carry), _mm256_castps256_ps128(v))
        };
        // The previous row at qi-1 of the pair; for qi = 0 the
        // cross-lane wrap of old(q-1).
        let old_wrap = |p: *mut f32| shl1_ps_128(loadu_ps(p.add(4 * (q - 1))));
        let (mut m_carry, mut i_carry, mut d_carry) = (old_wrap(m), old_wrap(i), old_wrap(d));
        let mut sv_carry = _mm_setzero_ps(); // M at the pair's qi-1
        for pair in 0..q / 2 {
            let o = 8 * pair;
            let m_old = loadu_ps256(m.add(o));
            let i_old = loadu_ps256(i.add(o));
            let d_old = loadu_ps256(d.add(o));
            let mut sv = _mm256_mul_ps(xbv, loadu_ps256(bmk.add(o)));
            sv = _mm256_add_ps(
                sv,
                _mm256_mul_ps(shifted(m_carry, m_old), loadu_ps256(tmm.add(o))),
            );
            sv = _mm256_add_ps(
                sv,
                _mm256_mul_ps(shifted(i_carry, i_old), loadu_ps256(tim.add(o))),
            );
            sv = _mm256_add_ps(
                sv,
                _mm256_mul_ps(shifted(d_carry, d_old), loadu_ps256(tdm.add(o))),
            );
            sv = _mm256_mul_ps(sv, loadu_ps256(row.add(o)));
            acc = _mm256_add_ps(acc, sv);
            let iv = _mm256_add_ps(
                _mm256_mul_ps(m_old, loadu_ps256(tmi.add(o))),
                _mm256_mul_ps(i_old, loadu_ps256(tii.add(o))),
            );
            storeu_ps256(i.add(o), iv);
            // M→D seed pair: [M(qi-1), M(qi)].
            let dseed = shifted(sv_carry, sv);
            storeu_ps256(d.add(o), _mm256_mul_ps(dseed, loadu_ps256(tmd.add(o))));
            storeu_ps256(m.add(o), sv);
            sv_carry = _mm256_extractf128_ps::<1>(sv);
            m_carry = _mm256_extractf128_ps::<1>(m_old);
            i_carry = _mm256_extractf128_ps::<1>(i_old);
            d_carry = _mm256_extractf128_ps::<1>(d_old);
        }
        if q % 2 == 1 {
            // Odd trailing vector at 128-bit; its qi = q-1 is even, so
            // it accumulates on the even (low-half) side.
            let o = 4 * (q - 1);
            let xbv1 = _mm256_castps256_ps128(xbv);
            let mut sv = _mm_mul_ps(xbv1, loadu_ps(bmk.add(o)));
            sv = _mm_add_ps(sv, _mm_mul_ps(m_carry, loadu_ps(tmm.add(o))));
            sv = _mm_add_ps(sv, _mm_mul_ps(i_carry, loadu_ps(tim.add(o))));
            sv = _mm_add_ps(sv, _mm_mul_ps(d_carry, loadu_ps(tdm.add(o))));
            sv = _mm_mul_ps(sv, loadu_ps(row.add(o)));
            acc_tail = sv;
            let iv = _mm_add_ps(
                _mm_mul_ps(loadu_ps(m.add(o)), loadu_ps(tmi.add(o))),
                _mm_mul_ps(loadu_ps(i.add(o)), loadu_ps(tii.add(o))),
            );
            storeu_ps(i.add(o), iv);
            storeu_ps(d.add(o), _mm_mul_ps(sv_carry, loadu_ps(tmd.add(o))));
            storeu_ps(m.add(o), sv);
            sv_carry = sv;
        }
        let wrap = _mm_mul_ps(shl1_ps_128(sv_carry), loadu_ps(tmd));
        storeu_ps(d, _mm_add_ps(loadu_ps(d), wrap));
        // (low + tail) rebuilds the scalar even accumulator exactly
        // (same addition sequence), then the canonical reduction.
        let lo = _mm256_castps256_ps128(acc);
        let hi = _mm256_extractf128_ps::<1>(acc);
        hsum_ps(_mm_add_ps(_mm_add_ps(lo, acc_tail), hi))
    }

    /// The D→D resolution of `N` slots in lockstep, in emulated 4-lane
    /// vectors: the canonical operation order [`Self::dd_resolve_x86`]
    /// mirrors op for op.
    ///
    /// Pass 1 is the full in-lane propagation (cross-lane input zero).
    /// Each correction pass then hands every lane the *increment* the
    /// previous pass added at `qi = q−1` of the lane below; D is linear
    /// in its inputs, so propagating increments (never re-reading the D
    /// row) is exact and cannot double count, and lane 0's chain head is
    /// exact after pass 1, so ≤ 3 passes close the fixed point. Lanes
    /// drop to `+0.0` and passes end as the module doc says.
    #[allow(clippy::needless_range_loop)]
    fn dd_resolve_scalar<const N: usize>(&self, mut cds: [&mut [V4f32]; N]) {
        let mut dprev = [ZERO4; N];
        for qi in 0..self.q {
            for (cd, dp) in cds.iter_mut().zip(&mut dprev) {
                cd[qi] = add_f32(cd[qi], dd_mul(*dp, self.tdd[qi]));
                *dp = cd[qi];
            }
        }
        let mut corr = dprev;
        for _ in 1..FWD_LANES {
            corr = corr.map(|c| shift_f32(c, 0.0));
            for qi in 0..self.q {
                corr = corr.map(|c| keep_ge_f32(c, self.tdd_floor[qi]));
                if corr.iter().all(|&c| all_zero_f32(c)) {
                    break;
                }
                for (cd, c) in cds.iter_mut().zip(&mut corr) {
                    *c = dd_mul(*c, self.tdd[qi]);
                    cd[qi] = add_f32(cd[qi], *c);
                }
            }
        }
    }

    /// [`Self::dd_resolve_scalar`] at 128-bit width — shared by the SSE2
    /// and AVX2 backends, so the order-sensitive part of the row is
    /// identical everywhere. `tdd` / `tdd_floor` are loaded once per
    /// `qi` for all `N` chains.
    ///
    /// # Safety
    /// Every pointer of `cds` must be valid for reads and writes of
    /// `4·q` floats and no two may overlap.
    #[cfg(target_arch = "x86_64")]
    unsafe fn dd_resolve_x86<const N: usize>(&self, cds: [*mut f32; N]) {
        use crate::x86::{all_zero_ps, keep_ge_ps, loadu_ps, shl1_ps_128, storeu_ps};
        use core::arch::x86_64::*;
        let q = self.q;
        let tdd = self.tdd.as_ptr() as *const f32;
        let floor = self.tdd_floor.as_ptr() as *const f32;
        let mut corr = [_mm_setzero_ps(); N];
        for qi in 0..q {
            let o = 4 * qi;
            let t = loadu_ps(tdd.add(o));
            for (&cd, dp) in cds.iter().zip(&mut corr) {
                *dp = _mm_add_ps(loadu_ps(cd.add(o)), _mm_mul_ps(*dp, t));
                storeu_ps(cd.add(o), *dp);
            }
        }
        for _ in 1..FWD_LANES {
            for c in &mut corr {
                *c = shl1_ps_128(*c);
            }
            for qi in 0..q {
                let o = 4 * qi;
                let fl = loadu_ps(floor.add(o));
                let mut any = _mm_setzero_ps();
                for c in &mut corr {
                    *c = keep_ge_ps(*c, fl);
                    any = _mm_or_ps(any, *c);
                }
                if all_zero_ps(any) {
                    break;
                }
                let t = loadu_ps(tdd.add(o));
                for (&cd, c) in cds.iter().zip(&mut corr) {
                    *c = _mm_mul_ps(*c, t);
                    storeu_ps(cd.add(o), _mm_add_ps(loadu_ps(cd.add(o)), *c));
                }
            }
        }
    }
}

/// The multiply of the scalar row's D→D passes. Under `cfg(test)` it
/// also counts every subnormal operand or product on this thread, which
/// is what the subnormal regression test reads: a count, not a timing.
#[inline(always)]
fn dd_mul(a: V4f32, b: V4f32) -> V4f32 {
    let r = mul_f32(a, b);
    #[cfg(test)]
    tests::count_subnormals(&[a, b, r]);
    r
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
        /// Subnormal operands and products seen by [`dd_mul`] on this
        /// thread (tests run one per thread).
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
                f.drive(&p, &[&seq], slot, &mut total, |_, ws, st| {
                    let rows = i * f.q..(i + 1) * f.q;
                    assert_eq!(
                        bits(&ws.rows[..f.q]),
                        bits(&mat.rows_m[rows.clone()]),
                        "M row {i}"
                    );
                    assert_eq!(
                        bits(&ws.rows[f.q..2 * f.q]),
                        bits(&mat.rows_i[rows]),
                        "I row {i}"
                    );
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
                f.drive(&p, &refs, &mut slots, &mut out, |s, ws, st| {
                    let (i, mat) = (rows[s], &mats[s]);
                    let span = i * f.q..(i + 1) * f.q;
                    assert_eq!(
                        bits(&ws.rows[..f.q]),
                        bits(&mat.rows_m[span.clone()]),
                        "M {s}/{i}"
                    );
                    assert_eq!(
                        bits(&ws.rows[f.q..2 * f.q]),
                        bits(&mat.rows_i[span]),
                        "I {s}/{i}"
                    );
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
            let got = mat.m_log(1, k);
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
