//! `Calibration` pinned by bits.
//!
//! The constants below were recorded at 572a5cf, where `prepare` scored
//! the calibration sample one sequence at a time through the
//! single-sequence kernels and the striped Forward had no subnormal
//! flush rule. Both changed after that commit on the argument that
//! neither can move a bit; this is where the argument is checked: on
//! every available SIMD backend, on the shared pool and on dedicated
//! pools of 1 and 2 threads. The M = 2405 row was recorded at 8eb1e75,
//! the last commit whose striped Forward double-buffered its DP rows.

use h3w_cpu::Backend;
use h3w_hmm::build::{synthetic_model, BuildParams};
use h3w_pipeline::{Pipeline, PipelineConfig};

/// `hmmsearch` / `h3w-serve` (`QUERY_SEED`) and `hmmscan` (model 0).
const SEEDS: [u64; 2] = [0x5_eac4, 0x5ca9];

/// `(M, [mu_msv, mu_vit, tau_fwd] bits per seed)`.
const PINNED: [(usize, [[u32; 3]; 2]); 5] = [
    (
        48,
        [
            [0xc019a8da, 0xc003dc08, 0x40a6f410],
            [0xc01694ca, 0xbffe743f, 0x40aa6124],
        ],
    ),
    (
        100,
        [
            [0xc0409ea7, 0xc0013eaf, 0x40b39cf8],
            [0xc0417c18, 0xc00513b6, 0x40ccc77c],
        ],
    ),
    (
        400,
        [
            [0xc08ae15a, 0xc000df7a, 0x40c3ca4c],
            [0xc08c450a, 0xbffd0983, 0x40d0a5f8],
        ],
    ),
    (
        1002,
        [
            [0xc0a85ea1, 0xbffc2b7a, 0x40eb5160],
            [0xc0a86e89, 0xbffc23f8, 0x40e9ce0c],
        ],
    ),
    (
        2405,
        [
            [0xc0c2a88c, 0xc0031a03, 0x40f0a698],
            [0xc0c095be, 0xbfff09cd, 0x40e2c1e8],
        ],
    ),
];

fn cal_bits(pipe: &Pipeline) -> [u32; 3] {
    [
        pipe.cal.mu_msv.to_bits(),
        pipe.cal.mu_vit.to_bits(),
        pipe.cal.tau_fwd.to_bits(),
    ]
}

#[test]
fn calibration_bits_are_pinned_on_every_backend_and_thread_count() {
    let models: Vec<_> = PINNED
        .iter()
        .map(|&(m, _)| synthetic_model(m, m as u64, &BuildParams::default()))
        .collect();
    let prepare = |qi: usize, si: usize, threads: usize, backend: Backend| {
        let config = PipelineConfig {
            threads,
            ..Default::default()
        };
        cal_bits(&Pipeline::prepare_with_backend(
            &models[qi],
            config,
            SEEDS[si],
            backend,
        ))
    };
    let mut now = String::new();
    let mut moved = false;
    for (qi, &(m, want)) in PINNED.iter().enumerate() {
        let got = [
            prepare(qi, 0, 0, Backend::Scalar),
            prepare(qi, 1, 0, Backend::Scalar),
        ];
        moved |= got != want;
        let row = |b: [u32; 3]| format!("[{:#010x}, {:#010x}, {:#010x}]", b[0], b[1], b[2]);
        now += &format!("    ({m}, [{}, {}]),\n", row(got[0]), row(got[1]));
    }
    assert!(
        !moved,
        "scalar calibration moved off the pinned bits; now:\n{now}"
    );
    for backend in Backend::all_available() {
        for (qi, &(m, want)) in PINNED.iter().enumerate() {
            for (si, want) in want.iter().enumerate() {
                // The shared pool (H3W_THREADS wide), then dedicated ones.
                for threads in [0usize, 1, 2] {
                    assert_eq!(
                        prepare(qi, si, threads, backend),
                        *want,
                        "{backend} M={m} seed {:#x} threads {threads}",
                        SEEDS[si]
                    );
                }
            }
        }
    }
}
