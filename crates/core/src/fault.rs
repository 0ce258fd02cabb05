//! Typed sweep errors and the fault-tolerant partition engine.
//!
//! The multi-device database sweep (§IV-A) assumed every partition
//! succeeds; this module is the recovery layer that makes it survive the
//! faults [`h3w_simt::fault`] injects (and that real deployments hit):
//!
//! * **transient faults** (kernel timeout, spurious launch failure) are
//!   retried on the same device with capped exponential backoff;
//! * **fatal faults** (device lost, memory exhaustion) kill the device,
//!   and its unfinished partition is **redistributed** across the
//!   survivors — because every kernel scores sequences independently,
//!   the merged hit set is bit-identical to a fault-free sweep;
//! * when **every** device is gone the engine reports
//!   [`SweepError::AllDevicesLost`], and the layer above (the pipeline)
//!   degrades to the CPU striped backend.

use crate::multi_gpu::partition;
use h3w_simt::fault::{DeviceFault, FaultInjector};
use std::collections::VecDeque;
use std::time::Duration;

/// Why a device sweep could not complete.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepError {
    /// A device fault surfaced at a kernel launch (injected here;
    /// surfaced by the driver in a real deployment).
    Fault(DeviceFault),
    /// No feasible kernel configuration exists for this stage and model
    /// size on the device — a planning error, not a runtime fault.
    NoConfig {
        /// Stage name.
        stage: &'static str,
        /// Model size that fit nothing.
        m: usize,
    },
    /// The execution engine rejected the launch (geometry/resource
    /// validation) — a planning error, not a runtime fault.
    Launch {
        /// Device the launch targeted.
        device: usize,
        /// Engine diagnostic.
        msg: String,
    },
    /// Every device died before the sweep finished; the caller must fall
    /// back to the CPU backend (or give up).
    AllDevicesLost {
        /// How many devices the sweep started with.
        n_devices: usize,
    },
    /// The sweep was given a pool of no devices — a planning error.
    NoDevices,
}

impl SweepError {
    /// Worth retrying on the same device?
    pub fn is_transient(&self) -> bool {
        matches!(self, SweepError::Fault(f) if f.kind.is_transient())
    }
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::Fault(fault) => write!(f, "device fault: {fault}"),
            SweepError::NoConfig { stage, m } => {
                write!(f, "{stage}: model size {m} fits no configuration")
            }
            SweepError::Launch { device, msg } => {
                write!(f, "device {device}: launch rejected: {msg}")
            }
            SweepError::AllDevicesLost { n_devices } => {
                write!(f, "all {n_devices} devices lost; CPU fallback required")
            }
            SweepError::NoDevices => write!(f, "the device pool has no devices"),
        }
    }
}

impl std::error::Error for SweepError {}

impl From<DeviceFault> for SweepError {
    fn from(f: DeviceFault) -> SweepError {
        SweepError::Fault(f)
    }
}

impl From<SweepError> for String {
    fn from(e: SweepError) -> String {
        e.to_string()
    }
}

/// Retry/backoff policy for transient faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries per launch before the fault is treated as fatal for the
    /// device (a kernel that times out forever is a dead device).
    pub max_retries: u32,
    /// First backoff; each retry doubles it.
    pub backoff_base_ms: u64,
    /// Backoff ceiling.
    pub backoff_cap_ms: u64,
}

impl RetryPolicy {
    /// Three retries with zero sleeps — the simulation's policy, where
    /// waiting buys nothing.
    pub fn no_wait() -> RetryPolicy {
        RetryPolicy {
            max_retries: 3,
            backoff_base_ms: 0,
            backoff_cap_ms: 0,
        }
    }

    /// Capped exponential backoff before retry number `attempt` (1-based).
    pub fn backoff(&self, attempt: u32) -> Duration {
        let exp = self
            .backoff_base_ms
            .saturating_mul(1u64 << attempt.saturating_sub(1).min(16));
        Duration::from_millis(exp.min(self.backoff_cap_ms))
    }
}

/// Journal of what the recovery engine did — reported alongside results
/// so operators (and tests) can see the sweep's fault history.
#[derive(Debug, Clone, Default)]
pub struct SweepTrace {
    /// Transient retries performed.
    pub retries: u32,
    /// Devices condemned, in death order.
    pub lost_devices: Vec<usize>,
    /// Sequences whose work moved to a surviving device.
    pub redistributed_seqs: usize,
    /// Human-readable event log, in order.
    pub events: Vec<String>,
}

impl SweepTrace {
    /// Fold another stage's trace into this one.
    pub fn merge(&mut self, other: &SweepTrace) {
        self.retries += other.retries;
        for &d in &other.lost_devices {
            if !self.lost_devices.contains(&d) {
                self.lost_devices.push(d);
            }
        }
        self.redistributed_seqs += other.redistributed_seqs;
        self.events.extend(other.events.iter().cloned());
    }
}

/// Run `ids` across a device pool, retrying transient faults and
/// redistributing dead devices' chunks across survivors. The one
/// partitioner ([`partition`]) makes both splits: `ids` over `devices`,
/// and a dead device's chunk over the survivors.
///
/// `devices` are the device ids initially alive (each maps to the same
/// [`h3w_simt::DeviceSpec`] in the paper's homogeneous deployment, but
/// the engine only deals in ids). `run_part` executes one chunk on one
/// device; `time_of` extracts its modeled execution time so the engine
/// can account a per-device makespan.
///
/// Returns the per-chunk results (completion order), the makespan across
/// devices, and the fault journal. Chunk results are position-independent
/// (every kernel scores sequences independently), so callers may merge
/// them in any order. An empty `devices` is [`SweepError::NoDevices`].
#[allow(clippy::type_complexity)]
pub fn run_chunks_ft<R>(
    ids: &[u32],
    devices: &[usize],
    policy: &RetryPolicy,
    injector: Option<&FaultInjector>,
    run_part: impl Fn(&[u32], &DeviceCtx) -> Result<R, SweepError>,
    time_of: impl Fn(&R) -> f64,
) -> Result<(Vec<R>, f64, SweepTrace), SweepError> {
    let n_devices = devices.len();
    if n_devices == 0 {
        return Err(SweepError::NoDevices);
    }
    let mut alive: Vec<usize> = devices.to_vec();
    let mut queue: VecDeque<Vec<u32>> = partition(ids, n_devices).into();
    let mut per_dev_time: Vec<(usize, f64)> = devices.iter().map(|&d| (d, 0.0)).collect();
    let mut results = Vec::new();
    let mut trace = SweepTrace::default();
    let mut rr = 0usize;

    while let Some(ids) = queue.pop_front() {
        if ids.is_empty() {
            continue;
        }
        let device = alive[rr % alive.len()];
        rr += 1;
        let ctx = DeviceCtx { device, injector };
        let mut attempt = 0u32;
        loop {
            match run_part(&ids, &ctx) {
                Ok(r) => {
                    if let Some(slot) = per_dev_time.iter_mut().find(|(d, _)| *d == device) {
                        slot.1 += time_of(&r);
                    }
                    results.push(r);
                    break;
                }
                Err(e) if e.is_transient() && attempt < policy.max_retries => {
                    attempt += 1;
                    trace.retries += 1;
                    trace
                        .events
                        .push(format!("{e}; retry {attempt}/{}", policy.max_retries));
                    let wait = policy.backoff(attempt);
                    if !wait.is_zero() {
                        std::thread::sleep(wait);
                    }
                }
                Err(e @ SweepError::Fault(_)) => {
                    // Fatal fault, or a transient one that survived every
                    // retry: the device is gone. Its chunk respreads over
                    // whoever is left.
                    alive.retain(|&d| d != device);
                    trace.lost_devices.push(device);
                    trace.redistributed_seqs += ids.len();
                    if alive.is_empty() {
                        trace.events.push(format!("{e}; no devices left"));
                        return Err(SweepError::AllDevicesLost { n_devices });
                    }
                    trace.events.push(format!(
                        "{e}; device {device} dead, redistributing {} seqs over {} survivors",
                        ids.len(),
                        alive.len()
                    ));
                    queue.extend(partition(&ids, alive.len()));
                    break;
                }
                // Planning errors (no config, launch validation) are not
                // recoverable by moving work around.
                Err(e) => return Err(e),
            }
        }
    }

    let makespan = per_dev_time.iter().fold(0.0f64, |m, &(_, t)| m.max(t));
    Ok((results, makespan, trace))
}

/// Identity of the device a kernel launch targets, plus the armed fault
/// injector, if any. [`DeviceCtx::fault_free`] is the single-device,
/// no-injection default the non-FT entry points use.
#[derive(Clone, Copy, Default)]
pub struct DeviceCtx<'a> {
    /// Device id (index into the sweep's device pool).
    pub device: usize,
    /// Armed injector, if faults are being simulated.
    pub injector: Option<&'a FaultInjector>,
}

impl<'a> DeviceCtx<'a> {
    /// Device 0, no injection.
    pub fn fault_free() -> DeviceCtx<'static> {
        DeviceCtx {
            device: 0,
            injector: None,
        }
    }

    /// Consult the injector at the launch boundary.
    pub fn check_launch(&self) -> Result<(), SweepError> {
        match self.injector {
            Some(inj) => inj.on_launch(self.device).map_err(SweepError::from),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h3w_simt::fault::{FaultKind, FaultPlan};

    /// A fake per-chunk runner: "scores" each id as id*10, taking 1s per
    /// chunk, honoring the injector like a device launch would.
    fn fake_runner(ids: &[u32], ctx: &DeviceCtx) -> Result<Vec<u32>, SweepError> {
        ctx.check_launch()?;
        Ok(ids.iter().map(|&i| i * 10).collect())
    }

    /// Four devices get `[0, 4]`, `[1, 5]`, `[2, 6]`, `[3, 7]`.
    const IDS8: &[u32] = &[0, 1, 2, 3, 4, 5, 6, 7];

    fn merged(results: Vec<Vec<u32>>) -> Vec<u32> {
        let mut all: Vec<u32> = results.into_iter().flatten().collect();
        all.sort_unstable();
        all
    }

    #[test]
    fn fault_free_engine_matches_plain_partitioning() {
        let (res, makespan, trace) = run_chunks_ft(
            IDS8,
            &[0, 1, 2, 3],
            &RetryPolicy::no_wait(),
            None,
            fake_runner,
            |_| 1.0,
        )
        .unwrap();
        assert_eq!(merged(res), vec![0, 10, 20, 30, 40, 50, 60, 70]);
        assert_eq!(makespan, 1.0); // one chunk per device
        assert_eq!(trace.retries, 0);
        assert!(trace.lost_devices.is_empty());
    }

    #[test]
    fn dead_device_work_redistributes() {
        let inj = FaultInjector::new(FaultPlan::none().kill_device(1, 0), 4);
        let (res, makespan, trace) = run_chunks_ft(
            IDS8,
            &[0, 1, 2, 3],
            &RetryPolicy::no_wait(),
            Some(&inj),
            fake_runner,
            |_| 1.0,
        )
        .unwrap();
        assert_eq!(merged(res), vec![0, 10, 20, 30, 40, 50, 60, 70]);
        assert_eq!(trace.lost_devices, vec![1]);
        assert_eq!(trace.redistributed_seqs, 2);
        // The survivors absorbed device 1's chunk: makespan grows.
        assert!(makespan > 1.0);
    }

    #[test]
    fn transient_faults_retry_in_place() {
        let plan = FaultPlan::none().transient(2, 0, FaultKind::KernelTimeout, 2);
        let inj = FaultInjector::new(plan, 4);
        let (res, _, trace) = run_chunks_ft(
            IDS8,
            &[0, 1, 2, 3],
            &RetryPolicy::no_wait(),
            Some(&inj),
            fake_runner,
            |_| 1.0,
        )
        .unwrap();
        assert_eq!(merged(res), vec![0, 10, 20, 30, 40, 50, 60, 70]);
        assert_eq!(trace.retries, 2);
        assert!(trace.lost_devices.is_empty());
    }

    #[test]
    fn persistent_transient_condemns_the_device() {
        // Times out more often than max_retries allows: treated as dead.
        let plan = FaultPlan::none().transient(0, 0, FaultKind::KernelTimeout, 50);
        let inj = FaultInjector::new(plan, 2);
        let (res, _, trace) = run_chunks_ft(
            &[0, 1],
            &[0, 1],
            &RetryPolicy::no_wait(),
            Some(&inj),
            fake_runner,
            |_| 1.0,
        )
        .unwrap();
        assert_eq!(merged(res), vec![0, 10]);
        assert_eq!(trace.lost_devices, vec![0]);
        assert_eq!(trace.retries, 3);
    }

    #[test]
    fn all_devices_lost_is_reported() {
        let plan = FaultPlan::none().kill_device(0, 0).kill_device(1, 0);
        let inj = FaultInjector::new(plan, 2);
        let err = run_chunks_ft(
            &[0, 1],
            &[0, 1],
            &RetryPolicy::no_wait(),
            Some(&inj),
            fake_runner,
            |_| 1.0,
        )
        .unwrap_err();
        assert_eq!(err, SweepError::AllDevicesLost { n_devices: 2 });
    }

    #[test]
    fn backoff_is_capped_exponential() {
        let p = RetryPolicy {
            max_retries: 10,
            backoff_base_ms: 5,
            backoff_cap_ms: 60,
        };
        assert_eq!(p.backoff(1).as_millis(), 5);
        assert_eq!(p.backoff(2).as_millis(), 10);
        assert_eq!(p.backoff(3).as_millis(), 20);
        assert_eq!(p.backoff(5).as_millis(), 60); // capped
        assert_eq!(p.backoff(30).as_millis(), 60); // shift saturates too
        assert!(RetryPolicy::no_wait().backoff(3).is_zero());
    }

    #[test]
    fn an_empty_pool_is_a_typed_error() {
        let err = run_chunks_ft(
            IDS8,
            &[],
            &RetryPolicy::no_wait(),
            None,
            fake_runner,
            |_| 1.0,
        );
        assert_eq!(err.unwrap_err(), SweepError::NoDevices);
    }
}
