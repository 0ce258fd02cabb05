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
/// of a fixed small workload must reproduce every `KernelStats` field
/// exactly, on Kepler (shuffle reductions) and on Fermi (reductions
/// through shared-memory scratch). The first eight fields of the K40
/// stage launches were recorded at commit 1ae5c64, before the kernels'
/// striding loop and the three `run_*_device_on` launch sequences were
/// each written once; the other fields, the GTX 580 launches and the
/// Fig. 4 naive kernel at c684945, before the simulator's shared-memory
/// accesses and warp reductions were each written once. The GTX 580
/// Forward row was re-recorded when Fermi's Forward stopped counting
/// shuffles (1,212,165 exchanges moved to shared-memory stores and
/// loads). Any change to what a warp issues, or to how the grid is sized,
/// moves one.
#[test]
fn device_stage_counts_are_pinned() {
    use hmmer3_warp::core::naive::NaiveMsvKernel;
    use hmmer3_warp::core::tiered::run_fwd_device_on;
    use hmmer3_warp::core::DeviceCtx;
    use hmmer3_warp::core::WarpLazyStats;
    use hmmer3_warp::simt::{run_grid_blocks, KernelConfig, KernelStats};

    let model = synthetic_model(120, 2024, &BuildParams::default());
    let p = Profile::config(&model, &NullModel::new());
    let packed = PackedDb::from_db(&mixed_db(&model, 2e-5, 24));
    // Every field, in declaration order: instructions, smem_loads,
    // smem_stores, smem_conflict_extra, gmem_transactions, gmem_bytes,
    // l2_transactions, l2_bytes, shuffles, votes, barriers, hazards,
    // rows, sequences.
    let counts = |s: &KernelStats| {
        [
            s.instructions,
            s.smem_loads,
            s.smem_stores,
            s.smem_conflict_extra,
            s.gmem_transactions,
            s.gmem_bytes,
            s.l2_transactions,
            s.l2_bytes,
            s.shuffles,
            s.votes,
            s.barriers,
            s.hazards,
            s.rows,
            s.sequences,
        ]
    };
    let msv = MsvProfile::from_profile(&p);
    let vit = VitProfile::from_profile(&p);
    let lazy = WarpLazyStats {
        rows: 25877,
        rows_skipped: 0,
        chunks: 103508,
        inner_iters: 417074,
    };

    // (launch, counts) for each of one device's seven launches.
    type Pins = [(&'static str, [u64; 14]); 7];
    #[rustfmt::skip]
    let pins: [(DeviceSpec, Pins); 2] = [
        (DeviceSpec::tesla_k40(), [
            ("msv shared", [962627, 206544, 104316, 0, 5097, 652416, 0, 0, 129090, 0, 5, 0, 25818, 131]),
            ("vit shared", [3432796, 2073202, 626342, 0, 5408, 692224, 0, 0, 258770, 417074, 5, 0, 25877, 131]),
            ("msv global", [1064859, 103272, 103796, 0, 4487, 574336, 120061, 15367808, 129090, 0, 0, 0, 25818, 131]),
            ("vit global", [4363008, 1141630, 625662, 0, 4498, 575744, 1250110, 160014080, 258770, 417074, 0, 0, 25877, 131]),
            ("fwd", [5259484, 754236, 432564, 0, 4673, 598144, 1632566, 208968448, 1212165, 0, 0, 0, 26937, 131]),
            ("naive", [1065483, 206544, 104108, 0, 4853, 621184, 0, 0, 129090, 0, 77588, 0, 25818, 131]),
            ("naive elided", [1065483, 206544, 104108, 0, 4853, 621184, 0, 0, 129090, 0, 3, 188701, 25818, 131]),
        ]),
        // No shuffles on Fermi: every row reduction is five shared-memory
        // store/load pairs instead, and Forward's D-chain scan exchanges
        // through the same scratch.
        (DeviceSpec::gtx_580(), [
            ("msv shared", [962627, 335634, 233406, 0, 5097, 652416, 0, 0, 0, 0, 5, 0, 25818, 131]),
            ("vit shared", [3433884, 2331972, 885656, 0, 6136, 785408, 0, 0, 0, 417074, 9, 0, 25877, 131]),
            ("msv global", [1064859, 232362, 232886, 0, 4487, 574336, 120061, 15367808, 0, 0, 0, 0, 25818, 131]),
            ("vit global", [4363008, 1400400, 884432, 0, 4498, 575744, 1250110, 160014080, 0, 417074, 0, 0, 25877, 131]),
            ("fwd", [5259484, 1966401, 1644729, 0, 4673, 598144, 1632566, 208968448, 0, 0, 0, 0, 26937, 131]),
            ("naive", [1065483, 335634, 233198, 0, 4853, 621184, 0, 0, 0, 0, 77588, 0, 25818, 131]),
            ("naive elided", [1065483, 335634, 233198, 0, 4853, 621184, 0, 0, 0, 0, 3, 188701, 25818, 131]),
        ]),
    ];

    for (dev, want) in pins {
        let mut got: Vec<(&str, [u64; 14])> = Vec::new();
        // The automatic switch lands on shared tables for M = 120.
        let run = run_msv_device(&msv, &packed, &dev, None).unwrap();
        assert_eq!(run.run.mem, MemConfig::Shared, "{}", dev.name);
        assert_eq!(run.run.config.blocks, 5, "{}", dev.name);
        got.push(("msv shared", counts(&run.run.stats)));
        let run = run_vit_device(&vit, &packed, &dev, None).unwrap();
        assert_eq!(run.run.mem, MemConfig::Shared, "{}", dev.name);
        assert_eq!(run.lazy, lazy, "{}", dev.name);
        got.push(("vit shared", counts(&run.run.stats)));

        let global = Some(MemConfig::Global);
        let run = run_msv_device(&msv, &packed, &dev, global).unwrap();
        got.push(("msv global", counts(&run.run.stats)));
        let run = run_vit_device(&vit, &packed, &dev, global).unwrap();
        assert_eq!(run.lazy, lazy, "{}", dev.name);
        got.push(("vit global", counts(&run.run.stats)));

        let run = run_fwd_device_on(&p, &packed, &dev, &DeviceCtx::fault_free()).unwrap();
        got.push(("fwd", counts(&run.run.stats)));

        // Fig. 4: four warps share each row, one row per block; the
        // elided variant keeps only the staging barrier and races.
        let layout = smem_layout(Stage::Msv, msv.m, 1, MemConfig::Shared, &dev);
        let cfg = KernelConfig {
            warps_per_block: 4,
            blocks: 3,
            regs_per_thread: 32,
            smem_per_block: layout.total,
            track_hazards: true,
        };
        for (name, elide_barriers) in [("naive", false), ("naive elided", true)] {
            let kernel = NaiveMsvKernel {
                om: &msv,
                db: packed.view(),
                layout,
                warps_per_block: 4,
                elide_barriers,
            };
            let r = run_grid_blocks(&dev, &cfg, &kernel).unwrap();
            got.push((name, counts(&r.stats)));
        }
        assert_eq!(got, want, "{}", dev.name);
    }
}
