//! Thread-count determinism: named points of the configuration lattice
//! (`common::lattice`; `tests/lattice.rs` draws the rest of it). The
//! pool size is a pure throughput knob, so each point here, run on a
//! wide or shared pool, must report what the one-thread scalar reference
//! reports. Determinism comes from the pool's indexed-output design
//! (`out[i]` depends only on item `i`); these points are the canary for a
//! change that introduces order-dependent accumulation.

mod common;

use common::lattice::{check, check_scan, Driver, Faults, Plan, Point, ScanDriver, ScanPoint};
use hmmer3_warp::cpu::Backend;

#[test]
fn every_exec_plan_is_bit_identical_across_thread_counts() {
    let ft = Plan::FaultTolerant {
        devices: 3,
        faults: Faults::Kill {
            device: 1,
            launch: 0,
        },
    };
    for plan in [Plan::Cpu, Plan::K40, Plan::DeviceFull, ft] {
        check(&Point {
            plan,
            threads: 8,
            ..Point::default()
        });
    }
}

#[test]
fn checkpoint_resume_mid_sweep_is_bit_identical_across_thread_counts() {
    let driver = Driver::Resumed {
        cap: 9_000,
        kill_after: 1,
        backend: Backend::detect(),
        threads: 4,
    };
    check(&Point {
        m: 60,
        driver,
        ..Point::default()
    });
}

#[test]
fn h3w_threads_env_and_config_agree_on_output() {
    // `threads: 0` routes through the global pool, whose width
    // `H3W_THREADS` decides at first touch.
    check(&Point {
        threads: 0,
        ..Point::default()
    });
}

#[test]
fn multi_model_scan_is_bit_identical_across_thread_counts() {
    check_scan(&ScanPoint {
        sizes: vec![40, 48, 56],
        seed: 300,
        backend: Backend::detect(),
        threads: 8,
        driver: ScanDriver::OneShot,
        trace: false,
    });
}

#[test]
fn fused_scan_matches_independent_sweeps_at_every_thread_count() {
    // Mixed sizes force several stripe-count packs; equal sizes fill them.
    check_scan(&ScanPoint {
        sizes: vec![33, 40, 40, 48, 70, 70, 100],
        seed: 800,
        backend: Backend::detect(),
        threads: 4,
        driver: ScanDriver::Fused,
        trace: false,
    });
}
