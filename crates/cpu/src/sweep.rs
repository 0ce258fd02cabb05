//! Parallel database sweeps — the multi-core CPU baseline.
//!
//! The paper's speedups are measured against "HMMER 3.0 utilizing
//! multi-core and SSE capabilities on Intel Core i5 quad core" (§IV).
//! This module is that baseline: the striped filters fanned across the
//! [`h3w_pool`] work-stealing pool, with measured cell throughput for the
//! analytic speedup model.
//!
//! There is one sweep shape, one task per batch: the
//! [length-binned scheduler](length_binned_batches) groups
//! near-equal-length sequences into batches of `S` and the interleaved
//! kernel in [`crate::batch`] scores each batch in one fused loop, hiding
//! the per-row reduction latency behind `S` independent chains (one
//! sequence alone is latency-bound). Outcomes are bit-identical
//! to the scalar filters in [`crate::quantized`], the executable spec the
//! tests compare against, at every width. The shape is one driver
//! ([`outcomes_batched`]) generic over a [`BatchKernel`] — the MSV,
//! Viterbi and Forward `(striped tables, profile)` pairs — and
//! monomorphized per filter, so all three stages share the schedule, the
//! fan-out and the scatter without sharing a call through a pointer. A
//! sweep over part of a database selects it by an ascending list of
//! sequence ids and returns one outcome per id, in that order. One call
//! takes one kernel or many (a search's one model, or every model of a
//! scan), each with its own selection, and runs them all in one fan-out.
//!
//! Every sweep takes the [`ThreadPool`] to fan out on. Each parallel item
//! (one kernel × one batch) writes its result into the slot indexed by
//! its position in the selection, so outcomes are **bit-identical at
//! every thread count**; per-worker workspace arenas are created lazily
//! once per worker (the `map_collect_init` scratch pattern), so the
//! steady-state hot loop still performs no allocation.

use crate::backend::Backend;
use crate::batch::{BatchWorkspace, MAX_BATCH};
use crate::quantized::{MsvOutcome, VitOutcome};
use crate::striped_fwd::{FwdBatchWorkspace, StripedFwd};
use crate::striped_msv::StripedMsv;
use crate::striped_vit::{LazyFStats, StripedVit, VitWorkspace};
use h3w_hmm::alphabet::Residue;
use h3w_hmm::msvprofile::MsvProfile;
use h3w_hmm::profile::Profile;
use h3w_hmm::vitprofile::VitProfile;
use h3w_pool::ThreadPool;
use h3w_seqdb::{DigitalSeq, SeqDb};
use std::collections::HashMap;
use std::time::Instant;

/// Measured throughput of one sweep, with **both** cell denominators kept
/// explicit so calibration and bench numbers can never silently mix them:
///
/// * `real_cells` — meaningful DP cells (model length × residues swept,
///   ×3 states for Viterbi), the denominator database-level numbers are
///   reported in;
/// * `padded_cells` — cells the hardware actually computed
///   (`lanes · Q` per row, including striping phantoms), the denominator
///   for calibrating an analytic kernel-time model.
#[derive(Debug, Clone, Copy)]
pub struct SweepTiming {
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Meaningful DP cells processed (no striping phantoms).
    pub real_cells: u64,
    /// DP cells computed including striping phantoms.
    pub padded_cells: u64,
    /// `real_cells / seconds` — the headline throughput number.
    pub cells_per_sec: f64,
}

fn timing(seconds: f64, real_cells: u64, padded_cells: u64) -> SweepTiming {
    SweepTiming {
        seconds,
        real_cells,
        padded_cells,
        cells_per_sec: if seconds > 0.0 {
            real_cells as f64 / seconds
        } else {
            0.0
        },
    }
}

/// Batch-schedule accounting derived *after* a sweep from the same
/// length-binned schedule the sweep used — an O(n) pass over the
/// sequence lengths, so nothing is ever counted inside the fused row
/// loop (the telemetry overhead budget lives and dies on that).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchScheduleStats {
    /// Interleave width the schedule was built for.
    pub width: usize,
    /// Batches scheduled.
    pub batches: u64,
    /// Sequences scheduled into slots.
    pub seqs: u64,
    /// Real slot rows: the sum of member lengths (each slot retires after
    /// its own sequence ends).
    pub slot_rows: u64,
    /// Fused-loop trips: the sum of per-batch maximum lengths.
    pub loop_rows: u64,
    /// Slots that retire early (their sequence is shorter than the
    /// batch's longest) — the length-binning dropout the scheduler
    /// minimizes.
    pub early_finish: u64,
}

impl BatchScheduleStats {
    /// Fraction of slot-rows the fused loop spends on real sequence data:
    /// `slot_rows / (loop_rows × width)`. 1.0 means every slot is busy on
    /// every trip.
    pub fn occupancy(&self) -> f64 {
        let capacity = self.loop_rows.saturating_mul(self.width as u64);
        if capacity == 0 {
            0.0
        } else {
            self.slot_rows as f64 / capacity as f64
        }
    }
}

/// Compute [`BatchScheduleStats`] for the schedule
/// [`length_binned_batches`] builds over the same `(lens, ids, width)`.
pub fn batch_schedule_stats(
    lens: &[usize],
    ids: Option<&[u32]>,
    width: usize,
) -> BatchScheduleStats {
    let width = width.clamp(1, MAX_BATCH);
    let batches = length_binned_batches(lens, ids, width);
    let mut stats = BatchScheduleStats {
        width,
        batches: batches.len() as u64,
        ..BatchScheduleStats::default()
    };
    for batch in &batches {
        let longest = batch.iter().map(|&i| lens[i]).max().unwrap_or(0);
        stats.loop_rows += longest as u64;
        for &i in batch {
            stats.seqs += 1;
            stats.slot_rows += lens[i] as u64;
            if lens[i] < longest {
                stats.early_finish += 1;
            }
        }
    }
    stats
}

/// Resolve a requested batch width: `0` means "auto" (the backend's
/// preferred interleave), anything else is clamped to
/// `1..=`[`MAX_BATCH`].
fn resolve_batch_width(backend: Backend, requested: usize) -> usize {
    if requested == 0 {
        backend.preferred_batch_width()
    } else {
        requested.clamp(1, MAX_BATCH)
    }
}

/// The length-binned batch schedule: indices of the selected sequences
/// (all of them, or the survivors listed in `ids`, ascending), sorted by
/// descending length and chunked into batches of `width`.
///
/// Sorting is what makes interleaving pay: batch members enter the fused
/// loop near-lockstep, so almost no rows run below full width. Descending
/// order also hands the thread pool the long batches first, shrinking the
/// work-stealing tail. Callers scatter outcomes back through the returned
/// indices, so output order is unaffected.
pub fn length_binned_batches(lens: &[usize], ids: Option<&[u32]>, width: usize) -> Vec<Vec<usize>> {
    let width = width.clamp(1, MAX_BATCH);
    let mut idx: Vec<usize> = match ids {
        Some(ids) => ids.iter().map(|&i| i as usize).collect(),
        None => (0..lens.len()).collect(),
    };
    // Stable: equal lengths keep ascending-id order.
    idx.sort_by_key(|&i| std::cmp::Reverse(lens[i]));
    idx.chunks(width).map(|c| c.to_vec()).collect()
}

/// A filter the batched sweep driver can run: striped tables paired with
/// the profile they were built from, scoring up to [`MAX_BATCH`]
/// sequences per call. The drivers below are generic over this trait and
/// monomorphized per filter; a kernel is a pair of borrows, so the
/// driver takes kernels by value.
pub trait BatchKernel: Sync + Copy {
    /// Per-worker scratch, created lazily once per worker.
    type Workspace: Default + Send;
    /// Per-sequence result.
    type Output: Copy + Default + Send;
    /// The SIMD backend the tables were striped for (sets the auto width).
    fn backend(&self) -> Backend;
    /// Score `seqs` (at most [`MAX_BATCH`]) into `out`, slot for slot.
    fn run_batch_into(
        &self,
        seqs: &[&[Residue]],
        ws: &mut Self::Workspace,
        out: &mut [Self::Output],
    );
    /// `(real, padded)` DP cells per residue row — the two
    /// [`SweepTiming`] denominators.
    fn cells_per_row(&self) -> (u64, u64);
}

impl BatchKernel for (&StripedMsv, &MsvProfile) {
    type Workspace = BatchWorkspace;
    type Output = MsvOutcome;
    fn backend(&self) -> Backend {
        self.0.backend()
    }
    fn run_batch_into(&self, seqs: &[&[Residue]], ws: &mut BatchWorkspace, out: &mut [MsvOutcome]) {
        self.0.run_batch_into(self.1, seqs, ws, out)
    }
    fn cells_per_row(&self) -> (u64, u64) {
        (
            self.0.real_cells_per_row() as u64,
            self.0.padded_cells_per_row() as u64,
        )
    }
}

impl BatchKernel for (&StripedFwd, &Profile) {
    type Workspace = FwdBatchWorkspace;
    type Output = f32;
    fn backend(&self) -> Backend {
        self.0.backend()
    }
    fn run_batch_into(&self, seqs: &[&[Residue]], ws: &mut FwdBatchWorkspace, out: &mut [f32]) {
        self.0.run_batch_into(self.1, seqs, ws, out)
    }
    fn cells_per_row(&self) -> (u64, u64) {
        (self.0.real_cells_per_row(), self.0.padded_cells_per_row())
    }
}

/// Width 1 by measurement: the Viterbi row loop has no serial chain for
/// an interleave to hide (see [`crate::striped_vit`]), so a batch is a
/// loop over [`StripedVit::run_into`] and the schedule's width only sets
/// how many sequences one pool task takes.
impl BatchKernel for (&StripedVit, &VitProfile) {
    type Workspace = VitWorkspace;
    type Output = (VitOutcome, LazyFStats);
    fn backend(&self) -> Backend {
        self.0.backend()
    }
    fn run_batch_into(&self, seqs: &[&[Residue]], ws: &mut VitWorkspace, out: &mut [Self::Output]) {
        for (seq, o) in seqs.iter().zip(out) {
            *o = self.0.run_into(self.1, seq, ws);
        }
    }
    fn cells_per_row(&self) -> (u64, u64) {
        (
            self.0.real_cells_per_row() as u64,
            self.0.padded_cells_per_row() as u64,
        )
    }
}

fn kernel_timing<K: BatchKernel>(kernel: &K, seconds: f64, residues: u64) -> SweepTiming {
    let (real, padded) = kernel.cells_per_row();
    timing(seconds, real * residues, padded * residues)
}

/// The residue slices of one scheduled batch, in a fixed [`MAX_BATCH`]
/// array (only `0..batch.len()` is meaningful) so gathering a batch
/// never allocates. `seq_of` resolves a scheduled index to its sequence.
fn batch_refs<'a>(
    batch: &[usize],
    seq_of: impl Fn(usize) -> &'a DigitalSeq,
) -> [&'a [Residue]; MAX_BATCH] {
    let mut refs: [&[Residue]; MAX_BATCH] = [&[]; MAX_BATCH];
    for (r, &i) in refs.iter_mut().zip(batch) {
        *r = &seq_of(i).residues;
    }
    refs
}

/// The batched-sweep driver. For each `(kernel, ids)` pair, build the
/// length-binned schedule over the sequences of `seqs` that `ids` lists
/// (ascending; `None` = all of them) at the width its backend resolves
/// `width` to (`0` = the backend's preferred interleave). Then score
/// every (kernel, batch) task in one fan-out across the pool (workers
/// steal whole batches) and return, per kernel, one outcome per selected
/// sequence, aligned with its `ids`.
///
/// Tasks are ordered kernel by kernel, widest rows first (padded cells
/// per row: stripe count × lanes; ties keep input order), each kernel's
/// batches in their length-binned order, so the pool sees the most
/// expensive tasks early; one kernel runs exactly its own schedule. The
/// per-batch refs and outputs live in fixed [`MAX_BATCH`] arrays — a
/// worker's only heap state is its lazily-created workspace, so the
/// steady-state hot loop performs no allocation — and slots are fully
/// independent, so results are bit-identical at every width, thread
/// count, backend and kernel set.
pub fn outcomes_batched<K: BatchKernel>(
    pool: &ThreadPool,
    kernels: &[(K, Option<&[u32]>)],
    seqs: &[DigitalSeq],
    width: usize,
) -> Vec<Vec<K::Output>> {
    // Each schedule runs over positions in its kernel's selection, which
    // is the order of that kernel's output; `seq_of` maps a position to
    // its sequence.
    let seq_of = |m: usize, k: usize| &seqs[kernels[m].1.map_or(k, |ids| ids[k] as usize)];
    let selected = |m: usize| kernels[m].1.map_or(seqs.len(), <[u32]>::len);
    // Kernels that select every sequence at one width share a schedule,
    // as every model of a scan does in stage 1.
    let mut whole = HashMap::new();
    let mut schedules: Vec<Vec<Vec<usize>>> = Vec::new();
    let sched: Vec<usize> = (0..kernels.len())
        .map(|m| {
            let (kernel, ids) = kernels[m];
            let width = resolve_batch_width(kernel.backend(), width);
            let mut build = || {
                let lens: Vec<usize> = (0..selected(m)).map(|k| seq_of(m, k).len()).collect();
                schedules.push(length_binned_batches(&lens, None, width));
                schedules.len() - 1
            };
            match ids {
                None => *whole.entry(width).or_insert_with(build),
                Some(_) => build(),
            }
        })
        .collect();
    let batches = |m: usize| &schedules[sched[m]];
    let mut order: Vec<usize> = (0..kernels.len()).collect();
    order.sort_by_key(|&m| std::cmp::Reverse(kernels[m].0.cells_per_row().1));
    let tasks: Vec<(usize, usize)> = order
        .into_iter()
        .flat_map(|m| (0..batches(m).len()).map(move |b| (m, b)))
        .collect();
    let scored: Vec<[K::Output; MAX_BATCH]> =
        pool.map_collect_init(tasks.len(), K::Workspace::default, |ws, t| {
            let (m, b) = tasks[t];
            let batch = &batches(m)[b];
            let refs = batch_refs(batch, |k| seq_of(m, k));
            let mut out = [K::Output::default(); MAX_BATCH];
            kernels[m]
                .0
                .run_batch_into(&refs[..batch.len()], ws, &mut out[..batch.len()]);
            out
        });
    let mut result: Vec<Vec<K::Output>> = (0..kernels.len())
        .map(|m| vec![K::Output::default(); selected(m)])
        .collect();
    for (&(m, b), outs) in tasks.iter().zip(scored) {
        for (&k, o) in batches(m)[b].iter().zip(outs) {
            result[m][k] = o;
        }
    }
    result
}

/// Sweep a whole database through a batched kernel
/// ([`outcomes_batched`] over every sequence) and time it. Results are in
/// original order.
pub fn sweep_batched<K: BatchKernel>(
    pool: &ThreadPool,
    kernel: &K,
    db: &SeqDb,
    width: usize,
) -> (Vec<K::Output>, SweepTiming) {
    let start = Instant::now();
    let outcomes = outcomes_batched(pool, &[(*kernel, None)], &db.seqs, width).swap_remove(0);
    let secs = start.elapsed().as_secs_f64();
    (outcomes, kernel_timing(kernel, secs, db.total_residues()))
}

/// MSV-filter every sequence with the interleaved batch kernel
/// (length-binned schedule, one task per batch). Outcomes are
/// bit-identical to [`crate::msv_filter_scalar`], in original order.
pub fn msv_sweep_batched(
    pool: &ThreadPool,
    om: &MsvProfile,
    db: &SeqDb,
    width: usize,
) -> (Vec<MsvOutcome>, SweepTiming) {
    sweep_batched(pool, &(&StripedMsv::new(om), om), db, width)
}

/// Forward-score every sequence with the striped odds-space batch
/// kernel; timing counts real Forward cells (`3·M·L`).
pub fn fwd_sweep_batched(
    pool: &ThreadPool,
    p: &Profile,
    db: &SeqDb,
    width: usize,
) -> (Vec<f32>, SweepTiming) {
    sweep_batched(pool, &(&StripedFwd::new(p), p), db, width)
}

/// Viterbi-filter every sequence of a database in parallel
/// ([`sweep_batched`] over the word filter), with the summed Lazy-F
/// effort.
pub fn vit_sweep(
    pool: &ThreadPool,
    om: &VitProfile,
    db: &SeqDb,
) -> (Vec<VitOutcome>, SweepTiming, LazyFStats) {
    let (results, timing) = sweep_batched(pool, &(&StripedVit::new(om), om), db, 0);
    let mut agg = LazyFStats::default();
    let outcomes = results
        .into_iter()
        .map(|(out, st)| {
            agg.rows += st.rows;
            agg.total_passes += st.total_passes;
            agg.rows_extra += st.rows_extra;
            agg.max_passes = agg.max_passes.max(st.max_passes);
            out
        })
        .collect();
    (outcomes, timing, agg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantized::{msv_filter_scalar, vit_filter_scalar};
    use h3w_hmm::background::NullModel;
    use h3w_hmm::build::{synthetic_model, BuildParams};
    use h3w_hmm::profile::Profile;
    use h3w_seqdb::gen::{generate, DbGenSpec};

    fn setup() -> (MsvProfile, VitProfile, SeqDb) {
        let bg = NullModel::new();
        let core = synthetic_model(40, 17, &BuildParams::default());
        let p = Profile::config(&core, &bg);
        let mut spec = DbGenSpec::swissprot_like().scaled(0.0002); // ~92 seqs
        spec.homolog_fraction = 0.1;
        let db = generate(&spec, Some(&core), 5);
        (
            MsvProfile::from_profile(&p),
            VitProfile::from_profile(&p),
            db,
        )
    }

    fn pool() -> &'static ThreadPool {
        ThreadPool::global()
    }

    #[test]
    fn batched_sweeps_match_the_scalar_filters() {
        let (msv, vit, db) = setup();
        let (v_out, _, _) = vit_sweep(pool(), &vit, &db);
        assert_eq!(v_out.len(), db.len());
        for (i, seq) in db.seqs.iter().enumerate() {
            assert_eq!(v_out[i], vit_filter_scalar(&vit, &seq.residues), "seq {i}");
        }
        for width in [0usize, 1, 2, 3, 4] {
            let (m_out, t) = msv_sweep_batched(pool(), &msv, &db, width);
            assert_eq!(m_out.len(), db.len());
            for (i, seq) in db.seqs.iter().enumerate() {
                let want = msv_filter_scalar(&msv, &seq.residues);
                assert_eq!(m_out[i], want, "seq {i} width {width}");
            }
            assert_eq!(t.real_cells, 40 * db.total_residues());
            assert!(t.padded_cells >= t.real_cells);
            assert!(t.cells_per_sec > 0.0);
        }
    }

    #[test]
    fn sweeps_are_bit_identical_at_every_thread_count() {
        let (msv, vit, db) = setup();
        let one = ThreadPool::new(1);
        let (m_want, _) = msv_sweep_batched(&one, &msv, &db, 0);
        let (v_want, _, lf_want) = vit_sweep(&one, &vit, &db);
        for threads in [2usize, 4, 8] {
            let p = ThreadPool::new(threads);
            let (m_got, _) = msv_sweep_batched(&p, &msv, &db, 0);
            let (v_got, _, lf_got) = vit_sweep(&p, &vit, &db);
            assert_eq!(m_want, m_got, "MSV, threads={threads}");
            assert_eq!(v_want, v_got, "Viterbi, threads={threads}");
            assert_eq!(lf_want, lf_got, "Lazy-F stats, threads={threads}");
        }
    }

    #[test]
    fn many_kernels_equal_one_kernel_calls() {
        // Five models over four stripe counts on every backend, each with
        // its own selection: all, none, or a pattern of ids.
        let bg = NullModel::new();
        let mut spec = DbGenSpec::swissprot_like().scaled(0.00015);
        spec.homolog_fraction = 0.1;
        let core = synthetic_model(40, 401, &BuildParams::default());
        let db = generate(&spec, Some(&core), 19);
        let oms: Vec<MsvProfile> = [33usize, 40, 48, 70, 100]
            .iter()
            .map(|&m| {
                let core = synthetic_model(m, 400 + m as u64, &BuildParams::default());
                MsvProfile::from_profile(&Profile::config(&core, &bg))
            })
            .collect();
        let n = db.len() as u32;
        let picks: [Vec<u32>; 3] = [
            (0..n).filter(|i| i % 3 != 1).collect(),
            Vec::new(),
            (0..n).filter(|i| i % 5 == 0).collect(),
        ];
        let sels: [Option<&[u32]>; 5] = [
            None,
            Some(&picks[0]),
            Some(&picks[1]),
            None,
            Some(&picks[2]),
        ];
        for backend in crate::Backend::all_available() {
            let striped: Vec<StripedMsv> = oms
                .iter()
                .map(|om| StripedMsv::with_backend(om, backend))
                .collect();
            let kernels: Vec<_> = striped.iter().zip(&oms).zip(sels).collect();
            for threads in [1usize, 2, 4] {
                let p = ThreadPool::new(threads);
                for width in 1..=MAX_BATCH {
                    let all = outcomes_batched(&p, &kernels, &db.seqs, width);
                    for (m, (kernel, ids)) in kernels.iter().enumerate() {
                        let one = outcomes_batched(&p, &[(*kernel, *ids)], &db.seqs, width);
                        let want = ids.map_or(db.len(), <[u32]>::len);
                        assert_eq!(all[m].len(), want, "{backend} model {m}");
                        assert_eq!(
                            all[m], one[0],
                            "{backend} model {m} threads {threads} width {width}"
                        );
                    }
                }
            }
        }
        assert!(
            outcomes_batched::<(&StripedMsv, &MsvProfile)>(pool(), &[], &db.seqs, 0).is_empty()
        );
    }

    #[test]
    fn id_list_outcomes_align_with_the_ids() {
        let (msv, _, db) = setup();
        let striped = StripedMsv::new(&msv);
        let ids: Vec<u32> = (0..db.len() as u32).filter(|i| i % 3 != 1).collect();
        let got = outcomes_batched(pool(), &[((&striped, &msv), Some(&ids[..]))], &db.seqs, 0);
        assert_eq!(got[0].len(), ids.len());
        for (&i, &o) in ids.iter().zip(&got[0]) {
            let seq = &db.seqs[i as usize];
            assert_eq!(o, msv_filter_scalar(&msv, &seq.residues), "seq {i}");
        }
    }

    #[test]
    fn length_binning_covers_exactly_the_selection() {
        let lens = [5usize, 100, 3, 42, 42, 7, 900, 1];
        let ids = [0u32, 2, 3, 4, 5, 6, 7]; // 1 is not selected
        let batches = length_binned_batches(&lens, Some(&ids), 4);
        let mut seen: Vec<usize> = batches.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 2, 3, 4, 5, 6, 7]);
        // Within the schedule, lengths are non-increasing.
        let flat: Vec<usize> = batches.iter().flatten().map(|&i| lens[i]).collect();
        assert!(flat.windows(2).all(|w| w[0] >= w[1]), "{flat:?}");
        assert!(batches.iter().all(|b| b.len() <= 4 && !b.is_empty()));
    }

    #[test]
    fn batch_schedule_stats_account_for_the_schedule() {
        let lens = [100usize, 90, 80, 10, 5, 5];
        let s = batch_schedule_stats(&lens, None, 4);
        // Schedule: [100, 90, 80, 10] then [5, 5].
        assert_eq!(s.batches, 2);
        assert_eq!(s.seqs, 6);
        assert_eq!(s.slot_rows, 290);
        assert_eq!(s.loop_rows, 105);
        assert_eq!(s.early_finish, 3); // 90, 80, 10 retire early
        assert!((s.occupancy() - 290.0 / (105.0 * 4.0)).abs() < 1e-12);
        // Selected: only the three shortest remain, one batch of width 3.
        let m = batch_schedule_stats(&lens, Some(&[3, 4, 5]), 4);
        assert_eq!(
            (m.batches, m.seqs, m.slot_rows, m.loop_rows),
            (1, 3, 20, 10)
        );
        assert_eq!(m.early_finish, 2);
        assert_eq!(
            batch_schedule_stats(&[], None, 4),
            BatchScheduleStats {
                width: 4,
                ..BatchScheduleStats::default()
            }
        );
    }

    #[test]
    fn batched_fwd_scores_match_single_runs() {
        let bg = NullModel::new();
        let core = synthetic_model(40, 17, &BuildParams::default());
        let p = Profile::config(&core, &bg);
        let mut spec = DbGenSpec::swissprot_like().scaled(0.0002);
        spec.homolog_fraction = 0.1;
        let db = generate(&spec, Some(&core), 5);
        let striped = StripedFwd::new(&p);
        let ids: Vec<u32> = (0..db.len() as u32).filter(|i| i % 4 != 2).collect();
        for width in [0usize, 1, 3, 4] {
            let kernel = ((&striped, &p), Some(&ids[..]));
            let got = outcomes_batched(pool(), &[kernel], &db.seqs, width).swap_remove(0);
            assert_eq!(got.len(), ids.len());
            for (&i, s) in ids.iter().zip(got) {
                let want = striped.run(&p, &db.seqs[i as usize].residues);
                assert_eq!(want.to_bits(), s.to_bits(), "seq {i} width {width}");
            }
        }
    }
}
