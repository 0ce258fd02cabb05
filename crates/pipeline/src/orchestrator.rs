//! The device tier: one pool runs every device stage of a device plan —
//! MSV and Viterbi, and Forward when [`FtSweep::forward_on_device`].
//! A stage's ids split across the live devices
//! ([`h3w_core::multi_gpu::partition`]) and run through the recovery
//! engine ([`h3w_core::fault::run_chunks_ft`]): transient faults retry,
//! a dead device's partition redistributes across survivors, and with
//! every device gone the stage (and the rest of the sweep) degrades to
//! the striped CPU backend. A fault-free pool of one is the paper's
//! deployment ([`ExecPlan::Device`](crate::run::ExecPlan::Device)): one
//! launch over the stage's ids in ascending order. The CPU and device
//! filters are bit-identical and every sequence is scored independently,
//! so hits and funnel counters never depend on the pool or its faults;
//! only the modeled stage times and the recovery journal do.

use crate::run::{Pipeline, Stage};
use h3w_core::fault::{run_chunks_ft, RetryPolicy, SweepError, SweepTrace};
use h3w_core::tiered::{run_fwd_device_on, run_msv_device_on, run_vit_device_on, StageRun};
use h3w_seqdb::{PackedDb, SeqDb};
use h3w_simt::{DeviceSpec, FaultInjector};
use h3w_trace::Trace;
use std::borrow::Cow;

/// How a device plan's pool runs: its size, retry policy, the (optional)
/// fault injector driving the simulation, and whether Forward joins the
/// device stages.
#[derive(Clone, Copy)]
pub struct FtSweep<'a> {
    /// Devices in the pool (all the same `DeviceSpec`, per §IV-A).
    pub n_devices: usize,
    /// Transient-fault retry policy.
    pub policy: RetryPolicy,
    /// Armed fault plan, if simulating faults.
    pub injector: Option<&'a FaultInjector>,
    /// Run Forward on the pool too (§VI future work); otherwise it stays
    /// on the host, as in the paper's deployment.
    pub forward_on_device: bool,
}

impl FtSweep<'_> {
    /// An `n`-device pool with no injected faults and no retry waits,
    /// Forward on the host.
    pub fn fault_free(n_devices: usize) -> FtSweep<'static> {
        FtSweep {
            n_devices,
            policy: RetryPolicy::no_wait(),
            injector: None,
            forward_on_device: false,
        }
    }
}

/// The device pool of one search: the database packed once, its stage
/// labels, which devices are still alive, what the recovery engine has
/// done across the stages so far, and whether any stage fell back to the
/// host.
pub(crate) struct FtPool<'a> {
    dev: &'a DeviceSpec,
    sweep: FtSweep<'a>,
    packed: PackedDb,
    /// `(GPU)` for one device, `(multi-GPU)` for more; Forward's tier.
    pub(crate) labels: [&'static str; 3],
    alive: Vec<usize>,
    journal: SweepTrace,
    degraded: bool,
}

impl<'a> FtPool<'a> {
    /// A pool of `sweep.n_devices` simulated `dev`s over `db`, which is
    /// packed here, once: every stage launches over zero-copy index
    /// subsets of it. A pool of no devices is [`SweepError::NoDevices`];
    /// a pool whose every device an earlier search lost sends every
    /// stage to the host and reports the fallback.
    pub(crate) fn new(
        dev: &'a DeviceSpec,
        sweep: FtSweep<'a>,
        db: &SeqDb,
        trace: &Trace,
    ) -> Result<FtPool<'a>, SweepError> {
        if sweep.n_devices == 0 {
            return Err(SweepError::NoDevices);
        }
        let span = trace.span("pipeline/pack");
        let packed = PackedDb::from_db(db);
        drop(span);
        packed.record_into(trace, "pipeline/pack");
        let multi = (sweep.n_devices > 1) as usize;
        let labels = [
            ["MSV (GPU)", "MSV (multi-GPU)"][multi],
            ["P7Viterbi (GPU)", "P7Viterbi (multi-GPU)"][multi],
            ["Forward (host)", "Forward (GPU)"][sweep.forward_on_device as usize],
        ];
        // A device the injector has latched as lost stays lost: a
        // streamed sweep builds one pool per chunk over one injector.
        let alive: Vec<usize> = (0..sweep.n_devices)
            .filter(|&d| !sweep.injector.is_some_and(|inj| inj.is_lost(d)))
            .collect();
        Ok(FtPool {
            dev,
            sweep,
            packed,
            labels,
            degraded: alive.is_empty(),
            alive,
            journal: SweepTrace::default(),
        })
    }

    /// One stage of `pipe` on the pool: ascending `ids` in (`None` =
    /// every sequence), `Some((scores aligned with ids, makespan))` out,
    /// each launch's kernel counters and modeled time recorded under
    /// `pipeline/{label}/device`. `None` sends the stage to the host: a
    /// Forward the pool does not own, or any stage once no device is left
    /// (the engine drops partial results, so nothing is scored twice).
    /// Planning errors (`NoConfig`, `Launch`) propagate.
    pub(crate) fn stage(
        &mut self,
        pipe: &Pipeline,
        stage: Stage,
        ids: Option<&[u32]>,
        trace: &Trace,
    ) -> Result<Option<(Vec<f32>, f64)>, SweepError> {
        let on_host = matches!(stage, Stage::Fwd) && !self.sweep.forward_on_device;
        if on_host || self.alive.is_empty() {
            return Ok(None);
        }
        let n = self.packed.n_seqs() as u32;
        let ids: Cow<[u32]> = ids.map_or_else(|| (0..n).collect(), Cow::Borrowed);
        let (dev, packed) = (self.dev, &self.packed);
        let swept = run_chunks_ft(
            &ids,
            &self.alive,
            &self.sweep.policy,
            self.sweep.injector,
            |chunk, ctx| {
                let sub = packed.subset(chunk);
                let (scores, run): (Vec<f32>, StageRun) = match stage {
                    Stage::Msv => {
                        let r = run_msv_device_on(&pipe.msv, &sub, dev, None, ctx)?;
                        (r.hits.iter().map(|h| h.score).collect(), r.run)
                    }
                    Stage::Vit => {
                        let r = run_vit_device_on(&pipe.vit, &sub, dev, None, ctx)?;
                        (r.hits.iter().map(|h| h.score).collect(), r.run)
                    }
                    Stage::Fwd => {
                        let r = run_fwd_device_on(&pipe.profile, &sub, dev, ctx)?;
                        (r.hits.iter().map(|h| h.score).collect(), r.run)
                    }
                };
                let scored: Vec<(u32, f32)> = chunk.iter().copied().zip(scores).collect();
                Ok((scored, run))
            },
            |(_, run)| run.time.total_s,
        );
        match swept {
            Ok((runs, makespan, journal)) => {
                self.alive.retain(|d| !journal.lost_devices.contains(d));
                self.journal.merge(&journal);
                let path = format!("pipeline/{}/device", self.labels[stage as usize]);
                // Partitions come back in completion order; every id is
                // in exactly one of them.
                let mut scored = Vec::with_capacity(ids.len());
                for (part, run) in runs {
                    run.stats.record_into(trace, &path);
                    run.time.record_into(trace, &format!("{path}/time"));
                    scored.extend(part);
                }
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
                let label = self.labels[stage as usize];
                let event = format!("{label}: all devices lost; striped CPU fallback");
                self.journal.events.push(event);
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    /// The pool's recovery journal and fallback flag, with the journal's
    /// counters recorded under `pipeline/recovery`.
    pub(crate) fn finish(self, trace: &Trace) -> (SweepTrace, bool) {
        let journal = self.journal;
        for (name, value) in [
            ("retries", journal.retries as u64),
            ("lost_devices", journal.lost_devices.len() as u64),
            ("redistributed_seqs", journal.redistributed_seqs as u64),
            ("cpu_fallbacks", self.degraded as u64),
        ] {
            trace.add("pipeline/recovery", name, value);
        }
        (journal, self.degraded)
    }
}
