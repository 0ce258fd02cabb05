//! The central correctness contract of the reproduction: every
//! implementation of each filter computes the same thing.
//!
//! scalar quantized (executable spec)
//!   == striped 16/8-lane CPU filter (Farrar layout)
//!   == warp-synchronous GPU kernel (Kepler and Fermi paths, both memory
//!      configurations)
//! and all of them track the exact float references within quantization
//! error. This is what lets the paper claim GPU acceleration "while
//! preserving the sensitivity and accuracy of HMMER 3.0".

use hmmer3_warp::core::layout::{best_config, smem_layout};
use hmmer3_warp::core::msv_warp::MsvWarpKernel;
use hmmer3_warp::core::vit_warp::VitWarpKernel;
use hmmer3_warp::cpu::quantized::{msv_filter_scalar, vit_filter_scalar};
use hmmer3_warp::cpu::{StripedMsv, StripedVit};
use hmmer3_warp::prelude::*;
use hmmer3_warp::simt::run_grid;

fn mixed_db(model: &CoreModel, n_frac: f64, seed: u64) -> SeqDb {
    let mut spec = DbGenSpec::envnr_like().scaled(n_frac);
    spec.homolog_fraction = 0.06;
    generate(&spec, Some(model), seed)
}

#[test]
fn msv_three_way_equality_all_devices_and_configs() {
    for m in [9usize, 64, 150] {
        let model = synthetic_model(m, m as u64 + 900, &BuildParams::default());
        let bg = NullModel::new();
        let p = Profile::config(&model, &bg);
        let om = MsvProfile::from_profile(&p);
        let striped = StripedMsv::new(&om);
        let db = mixed_db(&model, 8e-6, 17);
        let packed = PackedDb::from_db(&db);

        // CPU pair.
        let scalar: Vec<_> = db
            .seqs
            .iter()
            .map(|s| msv_filter_scalar(&om, &s.residues))
            .collect();
        for (i, s) in db.seqs.iter().enumerate() {
            assert_eq!(
                striped.run(&om, &s.residues),
                scalar[i],
                "striped m={m} seq {i}"
            );
        }

        // GPU kernels.
        for dev in [DeviceSpec::tesla_k40(), DeviceSpec::gtx_580()] {
            for mem in [MemConfig::Shared, MemConfig::Global] {
                let Some((mut cfg, _)) = best_config(hmmer3_warp::core::Stage::Msv, m, mem, &dev)
                else {
                    continue;
                };
                cfg.blocks = 3;
                cfg.track_hazards = true;
                let layout = smem_layout(
                    hmmer3_warp::core::Stage::Msv,
                    m,
                    cfg.warps_per_block,
                    mem,
                    &dev,
                );
                let kernel = MsvWarpKernel {
                    om: &om,
                    db: packed.view(),
                    mem,
                    layout,
                    use_shfl: dev.has_shfl,
                    double_buffer: true,
                };
                let r = run_grid(&dev, &cfg, &kernel).unwrap();
                assert_eq!(r.stats.hazards, 0, "{} {mem:?}", dev.name);
                let mut hits: Vec<_> = r.outputs.into_iter().flatten().collect();
                hits.sort_by_key(|h| h.seqid);
                for h in hits {
                    let e = &scalar[h.seqid as usize];
                    assert_eq!(
                        (h.xj, h.overflow),
                        (e.xj, e.overflow),
                        "{} {mem:?} m={m} seq {}",
                        dev.name,
                        h.seqid
                    );
                }
            }
        }
    }
}

#[test]
fn vit_three_way_equality_all_devices_and_configs() {
    for (m, params) in [
        (40usize, BuildParams::default()),
        (85, BuildParams::gappy()),
    ] {
        let model = synthetic_model(m, m as u64 + 901, &params);
        let bg = NullModel::new();
        let p = Profile::config(&model, &bg);
        let om = VitProfile::from_profile(&p);
        let striped = StripedVit::new(&om);
        let db = mixed_db(&model, 6e-6, 18);
        let packed = PackedDb::from_db(&db);

        let scalar: Vec<_> = db
            .seqs
            .iter()
            .map(|s| vit_filter_scalar(&om, &s.residues))
            .collect();
        for (i, s) in db.seqs.iter().enumerate() {
            assert_eq!(
                striped.run(&om, &s.residues).0,
                scalar[i],
                "striped m={m} seq {i}"
            );
        }

        for dev in [DeviceSpec::tesla_k40(), DeviceSpec::gtx_580()] {
            for mem in [MemConfig::Shared, MemConfig::Global] {
                let Some((mut cfg, _)) =
                    best_config(hmmer3_warp::core::Stage::Viterbi, m, mem, &dev)
                else {
                    continue;
                };
                cfg.blocks = 2;
                cfg.track_hazards = true;
                let layout = smem_layout(
                    hmmer3_warp::core::Stage::Viterbi,
                    m,
                    cfg.warps_per_block,
                    mem,
                    &dev,
                );
                let kernel = VitWarpKernel {
                    om: &om,
                    db: packed.view(),
                    mem,
                    layout,
                    use_shfl: dev.has_shfl,
                };
                let r = run_grid(&dev, &cfg, &kernel).unwrap();
                assert_eq!(r.stats.hazards, 0, "{} {mem:?}", dev.name);
                for (hits, _) in r.outputs {
                    for h in hits {
                        assert_eq!(
                            h.xc, scalar[h.seqid as usize].xc,
                            "{} {mem:?} m={m} seq {}",
                            dev.name, h.seqid
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn quantized_filters_track_float_references() {
    use hmmer3_warp::cpu::{msv_filter_model, viterbi_filter_model};
    let model = synthetic_model(90, 3000, &BuildParams::default());
    let bg = NullModel::new();
    let p = Profile::config(&model, &bg);
    let msv = MsvProfile::from_profile(&p);
    let vit = VitProfile::from_profile(&p);
    let db = mixed_db(&model, 5e-6, 19);
    for s in &db.seqs {
        let qm = msv_filter_scalar(&msv, &s.residues);
        if !qm.overflow {
            let f = msv_filter_model(&p, &s.residues);
            assert!(
                (qm.score - f).abs() < 2.0,
                "MSV {} vs {f} on {}",
                qm.score,
                s.name
            );
        }
        let qv = vit_filter_scalar(&vit, &s.residues);
        if qv.score.is_finite() {
            let f = viterbi_filter_model(&p, &s.residues);
            assert!(
                (qv.score - f).abs() < 2.0,
                "Vit {} vs {f} on {}",
                qv.score,
                s.name
            );
        }
    }
}

/// The device tier's schedule, pinned by what it counts: one-device runs
/// of a fixed small workload must reproduce these `KernelStats` exactly
/// (recorded at commit 1ae5c64, before the kernels' striding loop and the
/// three `run_*_device_on` launch sequences were each written once). Any
/// change to what a warp issues, or to how the grid is sized, moves one.
#[test]
fn device_stage_counts_are_pinned() {
    use hmmer3_warp::core::tiered::run_fwd_device_on;
    use hmmer3_warp::core::DeviceCtx;
    use hmmer3_warp::core::WarpLazyStats;
    use hmmer3_warp::simt::KernelStats;

    let model = synthetic_model(120, 2024, &BuildParams::default());
    let p = Profile::config(&model, &NullModel::new());
    let packed = PackedDb::from_db(&mixed_db(&model, 2e-5, 24));
    let dev = DeviceSpec::tesla_k40();
    // (instructions, shuffles, gmem_bytes, barriers, smem_conflict_extra,
    // hazards, rows, sequences)
    let counts = |s: &KernelStats| {
        (
            s.instructions,
            s.shuffles,
            s.gmem_bytes,
            s.barriers,
            s.smem_conflict_extra,
            s.hazards,
            s.rows,
            s.sequences,
        )
    };
    let msv = MsvProfile::from_profile(&p);
    let vit = VitProfile::from_profile(&p);
    let lazy = WarpLazyStats {
        rows: 25877,
        rows_skipped: 0,
        chunks: 103508,
        inner_iters: 417074,
    };

    // The automatic switch lands on shared tables for M = 120.
    let run = run_msv_device(&msv, &packed, &dev, None).unwrap();
    assert_eq!(run.run.mem, MemConfig::Shared);
    assert_eq!(run.run.config.blocks, 5);
    assert_eq!(
        counts(&run.run.stats),
        (962627, 129090, 652416, 5, 0, 0, 25818, 131)
    );
    let run = run_vit_device(&vit, &packed, &dev, None).unwrap();
    assert_eq!(run.run.mem, MemConfig::Shared);
    assert_eq!(
        counts(&run.run.stats),
        (3432796, 258770, 692224, 5, 0, 0, 25877, 131)
    );
    assert_eq!(run.lazy, lazy);

    let global = Some(MemConfig::Global);
    let run = run_msv_device(&msv, &packed, &dev, global).unwrap();
    assert_eq!(
        counts(&run.run.stats),
        (1064859, 129090, 574336, 0, 0, 0, 25818, 131)
    );
    let run = run_vit_device(&vit, &packed, &dev, global).unwrap();
    assert_eq!(
        counts(&run.run.stats),
        (4363008, 258770, 575744, 0, 0, 0, 25877, 131)
    );
    assert_eq!(run.lazy, lazy);

    let run = run_fwd_device_on(&p, &packed, &dev, &DeviceCtx::fault_free()).unwrap();
    assert_eq!(
        counts(&run.run.stats),
        (5259484, 1212165, 598144, 0, 0, 0, 26937, 131)
    );
}
