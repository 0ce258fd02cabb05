//! Fault-tolerant multi-device sweep orchestration.
//!
//! [`ExecPlan::FaultTolerant`](crate::run::ExecPlan::FaultTolerant) is
//! the deployment the paper's §IV-A multi-GPU story needs in practice:
//! the MSV and Viterbi filter stages fan out across `n` devices through
//! the recovery engine ([`h3w_core::fault::run_chunks_ft`]) — transient
//! faults retry with capped backoff, a dead device's partition
//! redistributes across survivors, and when every device is gone the
//! stage (and the rest of the sweep) degrades to the striped CPU backend.
//! Because the CPU and device filters are bit-identical and every
//! sequence is scored independently, the reported hits and funnel
//! counters are **always** bit-identical to a fault-free run; only the
//! modeled stage times and the recovery journal differ.
//!
//! The stage sequencing itself lives in
//! [`Pipeline::search_traced`](crate::run::Pipeline::search_traced); this
//! module holds the sweep descriptor ([`FtSweep`]) and the one adapter
//! from a device launch to the recovery engine (`FtPool::stage`), which
//! speaks the driver's language: ids in, scores aligned with them out.

use h3w_core::fault::{run_chunks_ft, DeviceCtx, RetryPolicy, SweepError, SweepTrace};
use h3w_core::multi_gpu::partition_id_slice;
use h3w_seqdb::{PackedDb, PackedSubset};
use h3w_simt::FaultInjector;

/// How a fault-tolerant sweep runs: device pool size, retry policy, and
/// the (optional) fault injector driving the simulation.
#[derive(Clone, Copy)]
pub struct FtSweep<'a> {
    /// Devices in the pool (all the same `DeviceSpec`, per §IV-A).
    pub n_devices: usize,
    /// Transient-fault retry policy.
    pub policy: RetryPolicy,
    /// Armed fault plan, if simulating faults.
    pub injector: Option<&'a FaultInjector>,
}

impl FtSweep<'_> {
    /// An `n`-device sweep with no injected faults and no retry waits.
    pub fn fault_free(n_devices: usize) -> FtSweep<'static> {
        FtSweep {
            n_devices,
            policy: RetryPolicy::no_wait(),
            injector: None,
        }
    }
}

/// The device pool of one fault-tolerant search: which devices are still
/// alive, what the recovery engine has done across the stages so far,
/// and whether any stage fell back to the host.
pub(crate) struct FtPool<'a> {
    sweep: FtSweep<'a>,
    alive: Vec<usize>,
    pub(crate) journal: SweepTrace,
    pub(crate) degraded: bool,
}

impl<'a> FtPool<'a> {
    pub(crate) fn new(sweep: FtSweep<'a>) -> FtPool<'a> {
        assert!(sweep.n_devices >= 1);
        FtPool {
            sweep,
            alive: (0..sweep.n_devices).collect(),
            journal: SweepTrace::default(),
            degraded: false,
        }
    }

    /// One filter stage through the recovery engine: ascending `ids` in,
    /// `Some((scores aligned with ids, makespan))` out. `launch` runs one
    /// partition on one device and returns its scores in subset order
    /// with its modeled seconds. `None` means no device is left (lost in
    /// this stage or an earlier one) and the caller runs the stage on the
    /// host; no partial device results survive an `AllDevicesLost` (the
    /// engine drops them), so the host rescoring every id never
    /// double-scores. Planning errors (`SweepError::NoConfig` /
    /// `SweepError::Launch`) still propagate, since no amount of
    /// rerouting fixes those.
    #[allow(clippy::type_complexity)]
    pub(crate) fn stage(
        &mut self,
        name: &str,
        packed: &PackedDb,
        ids: &[u32],
        launch: impl Fn(&PackedSubset, &DeviceCtx) -> Result<(Vec<f32>, f64), SweepError>,
    ) -> Result<Option<(Vec<f32>, f64)>, SweepError> {
        if self.alive.is_empty() {
            return Ok(None);
        }
        let swept = run_chunks_ft(
            partition_id_slice(packed, ids, self.alive.len()),
            &self.alive,
            &self.sweep.policy,
            self.sweep.injector,
            |chunk, ctx| {
                let (scores, secs) = launch(&packed.subset(chunk), ctx)?;
                let scored: Vec<(u32, f32)> = chunk.iter().copied().zip(scores).collect();
                Ok((scored, secs))
            },
            |(_, secs)| *secs,
        );
        match swept {
            Ok((runs, makespan, trace)) => {
                self.alive.retain(|d| !trace.lost_devices.contains(d));
                self.journal.merge(&trace);
                // Partitions come back in completion order; every id is
                // in exactly one of them.
                let mut scored: Vec<(u32, f32)> = runs.into_iter().flat_map(|(s, _)| s).collect();
                scored.sort_unstable_by_key(|&(id, _)| id);
                Ok(Some((
                    scored.into_iter().map(|(_, s)| s).collect(),
                    makespan,
                )))
            }
            Err(SweepError::AllDevicesLost { .. }) => {
                self.degraded = true;
                // The engine's journal dies with the error; every device
                // still in the pool is gone, so record them here.
                self.journal.lost_devices.append(&mut self.alive);
                self.journal
                    .events
                    .push(format!("{name}: all devices lost; striped CPU fallback"));
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }
}
