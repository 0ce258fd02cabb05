//! Typed sweep errors and the fault-tolerant partition engine.
//!
//! The multi-device database sweep (§IV-A) assumed every partition
//! succeeds; this module is the recovery layer that makes it survive the
//! faults [`h3w_simt::fault`] injects (and that real deployments hit):
//!
//! * **transient faults** (kernel timeout, spurious launch failure) are
//!   retried on the same device, up to [`MAX_RETRIES`] times;
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

/// Retries per launch before a transient fault condemns the device (a
/// kernel that times out forever is a dead device). Retries do not wait:
/// on the simulator, waiting buys nothing.
pub const MAX_RETRIES: u32 = 3;

/// Journal of what the recovery engine did — reported alongside results
/// so operators (and tests) can see the sweep's fault history.
#[derive(Debug, Clone, Default)]
pub struct SweepTrace {
    /// Transient retries performed.
    pub retries: u32,
    /// Devices condemned, in death order.
    pub lost_devices: Vec<usize>,
    /// Sequences re-queued on a surviving device.
    pub redistributed_seqs: usize,
}

/// Run `ids` across the live devices `alive`, retrying transient faults
/// and redistributing dead devices' chunks across survivors. The one
/// partitioner ([`partition`]) makes both splits: `ids` over `alive`,
/// and a dead device's chunk over the survivors.
///
/// The engine works on the caller's state in place: a condemned device
/// leaves `alive`, and every retry, loss and re-queue is entered in
/// `journal` as it happens, so both stay true when the sweep fails.
/// Devices are ids (each maps to the same [`h3w_simt::DeviceSpec`] in the
/// paper's homogeneous deployment). `run_part` executes one chunk on one
/// device; `time_of` extracts its modeled execution time so the engine
/// can account a per-device makespan.
///
/// Returns the per-chunk results (completion order) and the makespan
/// across devices. Chunk results are position-independent (every kernel
/// scores sequences independently), so callers may merge them in any
/// order. An empty `alive` is [`SweepError::NoDevices`]; losing the last
/// device is [`SweepError::AllDevicesLost`], and the chunk it held is
/// not re-queued.
pub fn run_chunks_ft<R>(
    ids: &[u32],
    alive: &mut Vec<usize>,
    journal: &mut SweepTrace,
    injector: Option<&FaultInjector>,
    run_part: impl Fn(&[u32], &DeviceCtx) -> Result<R, SweepError>,
    time_of: impl Fn(&R) -> f64,
) -> Result<(Vec<R>, f64), SweepError> {
    let n_devices = alive.len();
    if n_devices == 0 {
        return Err(SweepError::NoDevices);
    }
    let mut queue: VecDeque<Vec<u32>> = partition(ids, n_devices).into();
    let mut per_dev_time: Vec<(usize, f64)> = alive.iter().map(|&d| (d, 0.0)).collect();
    let mut results = Vec::new();
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
                Err(e) if e.is_transient() && attempt < MAX_RETRIES => {
                    attempt += 1;
                    journal.retries += 1;
                }
                Err(SweepError::Fault(_)) => {
                    // Fatal fault, or a transient one that survived every
                    // retry: the device is gone. Its chunk respreads over
                    // whoever is left.
                    alive.retain(|&d| d != device);
                    journal.lost_devices.push(device);
                    if alive.is_empty() {
                        return Err(SweepError::AllDevicesLost { n_devices });
                    }
                    journal.redistributed_seqs += ids.len();
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
    Ok((results, makespan))
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

    /// One sweep of `ids` over a fresh pool of `devices`: the engine's
    /// result, and the pool's alive list and journal after it.
    #[allow(clippy::type_complexity)]
    fn sweep(
        ids: &[u32],
        devices: &[usize],
        injector: Option<&FaultInjector>,
    ) -> (
        Result<(Vec<Vec<u32>>, f64), SweepError>,
        Vec<usize>,
        SweepTrace,
    ) {
        let mut alive = devices.to_vec();
        let mut journal = SweepTrace::default();
        let r = run_chunks_ft(ids, &mut alive, &mut journal, injector, fake_runner, |_| {
            1.0
        });
        (r, alive, journal)
    }

    fn merged(results: Vec<Vec<u32>>) -> Vec<u32> {
        let mut all: Vec<u32> = results.into_iter().flatten().collect();
        all.sort_unstable();
        all
    }

    #[test]
    fn fault_free_engine_matches_plain_partitioning() {
        let (r, alive, journal) = sweep(IDS8, &[0, 1, 2, 3], None);
        let (res, makespan) = r.unwrap();
        assert_eq!(merged(res), vec![0, 10, 20, 30, 40, 50, 60, 70]);
        assert_eq!(makespan, 1.0); // one chunk per device
        assert_eq!(alive, vec![0, 1, 2, 3]);
        assert_eq!(journal.retries, 0);
        assert!(journal.lost_devices.is_empty());
    }

    #[test]
    fn dead_device_work_redistributes() {
        let inj = FaultInjector::new(FaultPlan::none().kill_device(1, 0), 4);
        let (r, alive, journal) = sweep(IDS8, &[0, 1, 2, 3], Some(&inj));
        let (res, makespan) = r.unwrap();
        assert_eq!(merged(res), vec![0, 10, 20, 30, 40, 50, 60, 70]);
        assert_eq!(alive, vec![0, 2, 3]);
        assert_eq!(journal.lost_devices, vec![1]);
        assert_eq!(journal.redistributed_seqs, 2);
        // The survivors absorbed device 1's chunk: makespan grows.
        assert!(makespan > 1.0);
    }

    #[test]
    fn transient_faults_retry_in_place() {
        let plan = FaultPlan::none().transient(2, 0, FaultKind::KernelTimeout, 2);
        let inj = FaultInjector::new(plan, 4);
        let (r, _, journal) = sweep(IDS8, &[0, 1, 2, 3], Some(&inj));
        assert_eq!(merged(r.unwrap().0), vec![0, 10, 20, 30, 40, 50, 60, 70]);
        assert_eq!(journal.retries, 2);
        assert!(journal.lost_devices.is_empty());
    }

    #[test]
    fn persistent_transient_condemns_the_device() {
        // Times out more often than MAX_RETRIES allows: treated as dead.
        let plan = FaultPlan::none().transient(0, 0, FaultKind::KernelTimeout, 50);
        let inj = FaultInjector::new(plan, 2);
        let (r, alive, journal) = sweep(&[0, 1], &[0, 1], Some(&inj));
        assert_eq!(merged(r.unwrap().0), vec![0, 10]);
        assert_eq!(alive, vec![1]);
        assert_eq!(journal.lost_devices, vec![0]);
        assert_eq!(journal.retries, MAX_RETRIES);
    }

    #[test]
    fn all_devices_lost_is_reported_and_journaled() {
        // Device 0 retries once and dies on the partition device 1's
        // death handed it: the journal keeps both, in death order, and
        // only the partition that reached a survivor counts as moved.
        let plan = FaultPlan::none()
            .transient(0, 0, FaultKind::LaunchTransient, 1)
            .kill_device(1, 0)
            .kill_device(0, 2);
        let inj = FaultInjector::new(plan, 2);
        let (r, alive, journal) = sweep(&[0, 1, 2, 3], &[0, 1], Some(&inj));
        assert_eq!(r.unwrap_err(), SweepError::AllDevicesLost { n_devices: 2 });
        assert!(alive.is_empty());
        assert_eq!(journal.retries, 1);
        assert_eq!(journal.lost_devices, vec![1, 0]);
        assert_eq!(journal.redistributed_seqs, 2);
    }

    #[test]
    fn an_empty_pool_is_a_typed_error() {
        let (r, _, _) = sweep(IDS8, &[], None);
        assert_eq!(r.unwrap_err(), SweepError::NoDevices);
    }
}
