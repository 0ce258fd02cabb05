//! Multi-GPU database partitioning (§IV-A, Fig. 11).
//!
//! "The processing of the sequence database can be easily parallelized
//! across multiple devices without any dependencies" — each device gets a
//! slice of the database, runs the same kernels, and the wall time is the
//! makespan. Partitioning is round-robin over length-sorted sequences so
//! per-device residue totals stay balanced.

use crate::fault::{run_chunks_ft, RetryPolicy, SweepError, SweepTrace};
use crate::layout::{MemConfig, Stage};
use crate::stats_model::DbAggregates;
use crate::tiered::{model_stage_time, run_msv_device_on, MsvRun};
use crate::vit_warp::WarpLazyStats;
use h3w_hmm::msvprofile::MsvProfile;
use h3w_seqdb::{PackedDb, SeqDb};
use h3w_simt::{DeviceSpec, FaultInjector, TimeBreakdown};

/// Split a database across `n` devices: length-sorted round-robin, which
/// bounds the per-device residue skew by one max-length sequence.
pub fn partition_db(db: &SeqDb, n: usize) -> Vec<SeqDb> {
    assert!(n >= 1);
    let order = db.length_sorted_order();
    let mut parts: Vec<SeqDb> = (0..n)
        .map(|i| SeqDb::new(format!("{}#dev{}", db.name, i)))
        .collect();
    for (rank, &idx) in order.iter().enumerate() {
        parts[rank % n].seqs.push(db.seqs[idx as usize].clone());
    }
    parts
}

/// Index-level partition of a packed database: the same length-sorted
/// round-robin as [`partition_db`], but returning parent-id lists suitable
/// for [`PackedDb::subset`] — no sequence is cloned.
pub fn partition_ids(packed: &PackedDb, n: usize) -> Vec<Vec<u32>> {
    let all: Vec<u32> = (0..packed.n_seqs() as u32).collect();
    partition_id_slice(packed, &all, n)
}

/// [`partition_ids`] restricted to an arbitrary id subset — how a stage's
/// **survivor set** splits across devices (the fault-tolerant pipeline
/// partitions survivors, not the whole database, for its later stages).
pub fn partition_id_slice(packed: &PackedDb, ids: &[u32], n: usize) -> Vec<Vec<u32>> {
    assert!(n >= 1);
    let mut order: Vec<u32> = ids.to_vec();
    // Longest first, ties by original position (matches
    // SeqDb::length_sorted_order).
    order.sort_by_key(|&i| (std::cmp::Reverse(packed.lengths[i as usize]), i));
    let mut parts: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (rank, &idx) in order.iter().enumerate() {
        parts[rank % n].push(idx);
    }
    parts
}

/// Result of a functional multi-device MSV execution.
#[derive(Debug)]
pub struct MultiMsvRun {
    /// Per-chunk runs (completion order; one per partition when
    /// fault-free, more after redistribution).
    pub devices: Vec<MsvRun>,
    /// Makespan across devices.
    pub makespan_s: f64,
    /// Fault/recovery journal (empty when fault-free).
    pub trace: SweepTrace,
}

/// Run the MSV stage across `n` identical devices (functional). The
/// database is packed once; each device works a zero-copy index subset,
/// and reported hit `seqid`s are remapped to **whole-database** order.
pub fn run_msv_multi(
    om: &MsvProfile,
    db: &SeqDb,
    dev: &DeviceSpec,
    n: usize,
    mem: Option<MemConfig>,
) -> Result<MultiMsvRun, SweepError> {
    run_msv_multi_ft(om, db, dev, n, mem, &RetryPolicy::no_wait(), None)
}

/// [`run_msv_multi`] under a fault model: transient faults retry per
/// `policy`, a dead device's partition redistributes across survivors,
/// and the merged hit set stays bit-identical to a fault-free sweep
/// (every warp scores its sequence independently, so placement is
/// invisible in the scores).
pub fn run_msv_multi_ft(
    om: &MsvProfile,
    db: &SeqDb,
    dev: &DeviceSpec,
    n: usize,
    mem: Option<MemConfig>,
    policy: &RetryPolicy,
    injector: Option<&FaultInjector>,
) -> Result<MultiMsvRun, SweepError> {
    let packed = PackedDb::from_db(db);
    let device_ids: Vec<usize> = (0..n).collect();
    let (devices, makespan_s, trace) = run_chunks_ft(
        partition_ids(&packed, n),
        &device_ids,
        policy,
        injector,
        |ids, ctx| {
            let sub = packed.subset(ids);
            let mut run = run_msv_device_on(om, &sub, dev, mem, ctx)?;
            for h in &mut run.hits {
                h.seqid = sub.parent_id(h.seqid as usize) as u32;
            }
            Ok(run)
        },
        |r| r.run.time.total_s,
    )?;
    Ok(MultiMsvRun {
        devices,
        makespan_s,
        trace,
    })
}

/// Analytic multi-device makespan: split the aggregates evenly (the
/// length-sorted round-robin guarantee) and take the slowest device.
pub fn model_multi_time(
    stage: Stage,
    m: usize,
    dev: &DeviceSpec,
    agg: &DbAggregates,
    n: usize,
    mem: Option<MemConfig>,
    lazy: Option<&WarpLazyStats>,
) -> Option<TimeBreakdown> {
    assert!(n >= 1);
    let part = agg.scaled(1.0 / n as f64);
    let scaled_lazy = lazy.map(|l| WarpLazyStats {
        rows: l.rows / n as u64,
        rows_skipped: l.rows_skipped / n as u64,
        chunks: l.chunks / n as u64,
        inner_iters: l.inner_iters / n as u64,
    });
    model_stage_time(stage, m, dev, &part, mem, scaled_lazy.as_ref()).map(|(_, _, _, t)| t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use h3w_cpu::quantized::msv_filter_scalar;
    use h3w_hmm::background::NullModel;
    use h3w_hmm::build::{synthetic_model, BuildParams};
    use h3w_hmm::profile::Profile;
    use h3w_seqdb::gen::{generate, DbGenSpec};

    fn setup(m: usize) -> (MsvProfile, SeqDb) {
        let bg = NullModel::new();
        let core = synthetic_model(m, 9, &BuildParams::default());
        let p = Profile::config(&core, &bg);
        let db = generate(&DbGenSpec::envnr_like().scaled(0.00001), Some(&core), 55);
        (MsvProfile::from_profile(&p), db)
    }

    #[test]
    fn partition_balances_residues() {
        let (_, db) = setup(30);
        let parts = partition_db(&db, 4);
        assert_eq!(parts.iter().map(|p| p.len()).sum::<usize>(), db.len());
        let totals: Vec<u64> = parts.iter().map(|p| p.total_residues()).collect();
        let max = *totals.iter().max().unwrap() as f64;
        let min = *totals.iter().min().unwrap() as f64;
        assert!(max / min < 1.15, "residue skew too high: {totals:?}");
    }

    #[test]
    fn partition_single_device_is_identity_up_to_order() {
        let (_, db) = setup(20);
        let parts = partition_db(&db, 1);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].len(), db.len());
        assert_eq!(parts[0].total_residues(), db.total_residues());
    }

    #[test]
    fn multi_device_scores_cover_database() {
        // Every sequence is scored exactly once across devices, and each
        // score matches the scalar reference.
        let (om, db) = setup(40);
        let fermi = DeviceSpec::gtx_580();
        let run = run_msv_multi(&om, &db, &fermi, 3, None).unwrap();
        let total: usize = run.devices.iter().map(|d| d.hits.len()).sum();
        assert_eq!(total, db.len());
        // seqids are whole-database ids; every sequence scored exactly once.
        let mut seen = vec![false; db.len()];
        for d in &run.devices {
            for h in &d.hits {
                assert!(!seen[h.seqid as usize], "seq {} scored twice", h.seqid);
                seen[h.seqid as usize] = true;
                let e = msv_filter_scalar(&om, &db.seqs[h.seqid as usize].residues);
                assert_eq!((h.xj, h.overflow), (e.xj, e.overflow));
            }
        }
        assert!(seen.iter().all(|&b| b));
        assert!(run.makespan_s > 0.0);
    }

    fn msv_scores(run: &MultiMsvRun) -> Vec<(u32, u8, bool)> {
        let mut all: Vec<(u32, u8, bool)> = run
            .devices
            .iter()
            .flat_map(|d| d.hits.iter().map(|h| (h.seqid, h.xj, h.overflow)))
            .collect();
        all.sort_by_key(|t| t.0);
        all
    }

    #[test]
    fn killed_device_sweep_is_bit_identical() {
        // Kill 1 of 4 devices on its first launch: its partition spreads
        // over the survivors and the merged scores match fault-free.
        let (om, db) = setup(40);
        let dev = DeviceSpec::gtx_580();
        let baseline = run_msv_multi(&om, &db, &dev, 4, None).unwrap();
        let inj = FaultInjector::new(h3w_simt::FaultPlan::none().kill_device(2, 0), 4);
        let faulted =
            run_msv_multi_ft(&om, &db, &dev, 4, None, &RetryPolicy::no_wait(), Some(&inj)).unwrap();
        assert_eq!(faulted.trace.lost_devices, vec![2]);
        assert!(faulted.trace.redistributed_seqs > 0);
        assert_eq!(msv_scores(&faulted), msv_scores(&baseline));
    }

    #[test]
    fn transient_faults_do_not_change_scores() {
        let (om, db) = setup(40);
        let dev = DeviceSpec::gtx_580();
        let baseline = run_msv_multi(&om, &db, &dev, 3, None).unwrap();
        let plan = h3w_simt::FaultPlan::none()
            .transient(0, 0, h3w_simt::FaultKind::KernelTimeout, 1)
            .transient(1, 0, h3w_simt::FaultKind::LaunchTransient, 2);
        let inj = FaultInjector::new(plan, 3);
        let faulted =
            run_msv_multi_ft(&om, &db, &dev, 3, None, &RetryPolicy::no_wait(), Some(&inj)).unwrap();
        assert_eq!(faulted.trace.retries, 3);
        assert!(faulted.trace.lost_devices.is_empty());
        assert_eq!(msv_scores(&faulted), msv_scores(&baseline));
    }

    #[test]
    fn all_devices_lost_surfaces_typed_error() {
        let (om, db) = setup(40);
        let dev = DeviceSpec::gtx_580();
        let plan = h3w_simt::FaultPlan::none()
            .kill_device(0, 0)
            .kill_device(1, 0);
        let inj = FaultInjector::new(plan, 2);
        let err = run_msv_multi_ft(&om, &db, &dev, 2, None, &RetryPolicy::no_wait(), Some(&inj))
            .unwrap_err();
        assert_eq!(err, SweepError::AllDevicesLost { n_devices: 2 });
    }

    #[test]
    fn four_devices_scale_near_linearly() {
        // §IV-A: "expected speedup gained via multi-GPU implementation is
        // almost linear". Analytic path on a large workload.
        let dev = DeviceSpec::gtx_580();
        let agg = DbAggregates {
            n_seqs: 1_000_000,
            total_residues: 200_000_000,
            total_words: 34_000_000,
            code_rows: [200_000_000 / 26; 26],
        };
        let t1 = model_multi_time(Stage::Msv, 400, &dev, &agg, 1, None, None)
            .unwrap()
            .total_s;
        let t4 = model_multi_time(Stage::Msv, 400, &dev, &agg, 4, None, None)
            .unwrap()
            .total_s;
        let scaling = t1 / t4;
        assert!(
            scaling > 3.6 && scaling <= 4.05,
            "4-device scaling {scaling}"
        );
    }
}
