//! Deterministic device-fault injection.
//!
//! Long multi-GPU database sweeps (§IV-A, Fig. 11) run in exactly the
//! regime where devices fall off the bus, watchdogs kill kernels, and
//! memory runs out. Real CUDA surfaces those conditions as error codes at
//! the launch/synchronize boundary; this module reproduces that surface
//! for the simulator so the recovery engine above (`h3w_core::fault`)
//! can be tested without real hardware failures.
//!
//! A [`FaultPlan`] schedules faults explicitly against `(device, launch
//! ordinal)` pairs; the test lattice draws them from its fault axis. A
//! [`FaultInjector`] owns the plan plus the per-device launch counters
//! and is consulted once per kernel launch (`on_launch`); when a
//! scheduled fault matches, the launch reports a [`DeviceFault`] instead
//! of running, exactly where a real `cudaGetLastError` would have
//! reported it. Device-lost faults latch: every later launch on that
//! device fails too.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};

/// The failure modes a device sweep has to survive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The device fell off the bus (ECC / XID error). Fatal and sticky:
    /// every subsequent launch on the device fails too.
    DeviceLost,
    /// The watchdog killed a long-running kernel. The launch's work is
    /// discarded; a retry may succeed.
    KernelTimeout,
    /// A transient launch failure (spurious `cudaErrorLaunchFailure`)
    /// that clears after a bounded number of attempts.
    LaunchTransient,
    /// The requested shared-memory footprint could not be satisfied.
    SmemExhausted,
    /// Global-memory allocation for the partition failed.
    GmemExhausted,
}

impl FaultKind {
    /// Transient faults are worth retrying on the same device; the rest
    /// mean the device (or this configuration on it) is gone and its work
    /// must move elsewhere.
    pub fn is_transient(self) -> bool {
        matches!(self, FaultKind::KernelTimeout | FaultKind::LaunchTransient)
    }

    /// Stable lowercase name for logs and traces.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::DeviceLost => "device-lost",
            FaultKind::KernelTimeout => "kernel-timeout",
            FaultKind::LaunchTransient => "launch-transient",
            FaultKind::SmemExhausted => "smem-exhausted",
            FaultKind::GmemExhausted => "gmem-exhausted",
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A fault that surfaced on a launch — the simulator's `cudaError_t`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceFault {
    /// Device the launch targeted.
    pub device: usize,
    /// 0-based launch ordinal on that device at which the fault surfaced.
    pub launch: u64,
    /// What went wrong.
    pub kind: FaultKind,
}

impl std::fmt::Display for DeviceFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "device {} launch {}: {}",
            self.device, self.launch, self.kind
        )
    }
}

impl std::error::Error for DeviceFault {}

/// One scheduled fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlannedFault {
    /// Device the fault strikes.
    pub device: usize,
    /// First launch ordinal (0-based, per device) at which it fires.
    pub launch: u64,
    /// Failure mode.
    pub kind: FaultKind,
    /// For transient kinds: how many consecutive launch attempts observe
    /// the fault before it clears. Ignored for [`FaultKind::DeviceLost`]
    /// (sticky forever).
    pub persist: u32,
}

/// A deterministic schedule of device faults.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The scheduled faults, in no particular order.
    pub faults: Vec<PlannedFault>,
}

impl FaultPlan {
    /// A plan with no faults (the fault-free baseline).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Add an arbitrary scheduled fault.
    pub fn with(mut self, fault: PlannedFault) -> FaultPlan {
        self.faults.push(fault);
        self
    }

    /// Kill `device` at its `launch`-th kernel launch (sticky).
    pub fn kill_device(self, device: usize, launch: u64) -> FaultPlan {
        self.with(PlannedFault {
            device,
            launch,
            kind: FaultKind::DeviceLost,
            persist: u32::MAX,
        })
    }

    /// Inject a transient fault on `device` at `launch` that persists for
    /// `persist` consecutive attempts before clearing.
    pub fn transient(self, device: usize, launch: u64, kind: FaultKind, persist: u32) -> FaultPlan {
        debug_assert!(kind.is_transient() || persist <= 1);
        self.with(PlannedFault {
            device,
            launch,
            kind,
            persist,
        })
    }
}

/// Runtime state of a [`FaultPlan`]: per-device launch counters, remaining
/// persistence of each transient fault, and the device-lost latches.
/// Interior mutability keeps the consult site (`&self`) compatible with
/// kernels running across the Rayon pool.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    launches: Vec<AtomicU64>,
    remaining: Vec<AtomicU32>,
    lost: Vec<AtomicBool>,
}

impl FaultInjector {
    /// Arm a plan over `n_devices` devices.
    pub fn new(plan: FaultPlan, n_devices: usize) -> FaultInjector {
        let remaining = plan
            .faults
            .iter()
            .map(|f| AtomicU32::new(f.persist.max(1)))
            .collect();
        FaultInjector {
            plan,
            launches: (0..n_devices).map(|_| AtomicU64::new(0)).collect(),
            remaining,
            lost: (0..n_devices).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    /// Launches attempted so far on `device`.
    pub fn launches(&self, device: usize) -> u64 {
        self.launches
            .get(device)
            .map_or(0, |c| c.load(Ordering::Relaxed))
    }

    /// Whether `device` has latched as lost.
    pub fn is_lost(&self, device: usize) -> bool {
        self.lost
            .get(device)
            .is_some_and(|l| l.load(Ordering::Relaxed))
    }

    /// Consult the plan for one kernel launch on `device`. Increments the
    /// device's launch counter; returns the fault that surfaced, if any.
    /// The faulted launch's outputs are discarded by the caller, which is
    /// indistinguishable from the kernel never having run (timeouts and
    /// lost devices leave no usable results either).
    pub fn on_launch(&self, device: usize) -> Result<(), DeviceFault> {
        let Some(counter) = self.launches.get(device) else {
            return Ok(()); // unknown device: nothing scheduled against it
        };
        let launch = counter.fetch_add(1, Ordering::Relaxed);
        if self.is_lost(device) {
            return Err(DeviceFault {
                device,
                launch,
                kind: FaultKind::DeviceLost,
            });
        }
        for (i, f) in self.plan.faults.iter().enumerate() {
            if f.device != device || launch < f.launch {
                continue;
            }
            if f.kind == FaultKind::DeviceLost {
                self.lost[device].store(true, Ordering::Relaxed);
                return Err(DeviceFault {
                    device,
                    launch,
                    kind: FaultKind::DeviceLost,
                });
            }
            // Transient / exhaustion faults consume one persistence unit
            // per observing attempt, then clear.
            if self.remaining[i]
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |r| r.checked_sub(1))
                .is_ok()
            {
                return Err(DeviceFault {
                    device,
                    launch,
                    kind: f.kind,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_plan_never_fires() {
        let inj = FaultInjector::new(FaultPlan::none(), 4);
        for d in 0..4 {
            for _ in 0..10 {
                assert!(inj.on_launch(d).is_ok());
            }
        }
        assert_eq!(inj.launches(2), 10);
    }

    #[test]
    fn device_lost_latches_forever() {
        let inj = FaultInjector::new(FaultPlan::none().kill_device(1, 2), 3);
        assert!(inj.on_launch(1).is_ok()); // launch 0
        assert!(inj.on_launch(1).is_ok()); // launch 1
        let e = inj.on_launch(1).unwrap_err(); // launch 2: dies
        assert_eq!(e.kind, FaultKind::DeviceLost);
        assert_eq!(e.launch, 2);
        assert!(inj.is_lost(1));
        // Sticky: retries keep failing.
        assert_eq!(inj.on_launch(1).unwrap_err().kind, FaultKind::DeviceLost);
        // Other devices are unaffected.
        assert!(inj.on_launch(0).is_ok());
        assert!(inj.on_launch(2).is_ok());
    }

    #[test]
    fn transient_fault_clears_after_persist_attempts() {
        let plan = FaultPlan::none().transient(0, 1, FaultKind::KernelTimeout, 2);
        let inj = FaultInjector::new(plan, 1);
        assert!(inj.on_launch(0).is_ok()); // launch 0: before schedule
        assert_eq!(inj.on_launch(0).unwrap_err().kind, FaultKind::KernelTimeout); // launch 1
        assert_eq!(inj.on_launch(0).unwrap_err().kind, FaultKind::KernelTimeout); // retry
        assert!(inj.on_launch(0).is_ok()); // cleared
        assert!(inj.on_launch(0).is_ok());
    }

    #[test]
    fn exhaustion_fires_once() {
        let plan = FaultPlan::none().transient(0, 0, FaultKind::SmemExhausted, 1);
        let inj = FaultInjector::new(plan, 1);
        assert_eq!(inj.on_launch(0).unwrap_err().kind, FaultKind::SmemExhausted);
        assert!(inj.on_launch(0).is_ok());
    }

    #[test]
    fn unknown_device_is_fault_free() {
        let inj = FaultInjector::new(FaultPlan::none().kill_device(0, 0), 1);
        assert!(inj.on_launch(7).is_ok());
    }
}
