//! The device tier: one pool runs every device stage of a device plan —
//! MSV and Viterbi, and Forward when the plan puts it on the device.
//! A stage's ids split over the pool's `n` devices
//! ([`h3w_core::multi_gpu::partition`], order-preserving round-robin),
//! device `k` runs part `k` in one launch, and the stage's modelled time
//! is the makespan of those launches (§IV-A). A pool of one is the
//! paper's deployment ([`ExecPlan::Device`]): one launch over the stage's
//! ids in ascending order. The CPU and device filters are bit-identical
//! and every sequence is scored independently, so hits and funnel
//! counters never depend on the pool; only the modelled stage times do.

use crate::run::{ExecPlan, Pipeline, Stage};
use h3w_core::multi_gpu::partition;
use h3w_core::tiered::{run_fwd_device, run_msv_device, run_vit_device, StageRun, SweepError};
use h3w_seqdb::{PackedDb, SeqDb};
use h3w_simt::DeviceSpec;
use h3w_trace::Trace;
use std::borrow::Cow;

/// The device pool of one search: `n_devices` simulated `dev`s (all the
/// same spec, per §IV-A), the database packed once, and the stage labels.
pub(crate) struct DevicePool<'a> {
    dev: &'a DeviceSpec,
    n_devices: usize,
    forward_on_device: bool,
    packed: PackedDb,
    /// The plan's stage labels; they name the launches' trace paths.
    labels: [&'static str; 3],
}

impl<'a> DevicePool<'a> {
    /// The pool of `plan` over `db` (`None` for the CPU plan). The
    /// database is packed here, once: every stage launches over zero-copy
    /// index subsets of it. A pool of no devices is
    /// [`SweepError::NoDevices`].
    pub(crate) fn new(
        plan: &'a ExecPlan,
        db: &SeqDb,
        trace: &Trace,
    ) -> Result<Option<DevicePool<'a>>, SweepError> {
        let Some((dev, n_devices, forward_on_device)) = plan.device_pool() else {
            return Ok(None);
        };
        if n_devices == 0 {
            return Err(SweepError::NoDevices);
        }
        let span = trace.span("pipeline/pack");
        let packed = PackedDb::from_db(db);
        drop(span);
        packed.record_into(trace, "pipeline/pack");
        Ok(Some(DevicePool {
            dev,
            n_devices,
            forward_on_device,
            packed,
            labels: plan.stage_labels(),
        }))
    }

    /// Whether `stage` runs on the pool: MSV and Viterbi always, Forward
    /// when the plan puts it there.
    pub(crate) fn owns(&self, stage: Stage) -> bool {
        !matches!(stage, Stage::Fwd) || self.forward_on_device
    }

    /// One stage of `pipe` on the pool: ascending `ids` in (`None` =
    /// every sequence), scores aligned with `ids` and the makespan out,
    /// each launch's kernel counters and modelled time recorded under
    /// `pipeline/{label}/device`, in device order. Planning errors
    /// (`NoConfig`, `Launch`) propagate.
    pub(crate) fn stage(
        &self,
        pipe: &Pipeline,
        stage: Stage,
        ids: Option<&[u32]>,
        trace: &Trace,
    ) -> Result<(Vec<f32>, f64), SweepError> {
        let n = self.packed.n_seqs() as u32;
        let ids: Cow<[u32]> = ids.map_or_else(|| (0..n).collect(), Cow::Borrowed);
        let path = format!("pipeline/{}/device", self.labels[stage as usize]);
        let mut scored = Vec::with_capacity(ids.len());
        let mut makespan = 0.0f64;
        for part in partition(&ids, self.n_devices) {
            if part.is_empty() {
                continue;
            }
            let sub = self.packed.subset(&part);
            let (scores, run): (Vec<f32>, StageRun) = match stage {
                Stage::Msv => {
                    let r = run_msv_device(&pipe.msv, &sub, self.dev, None)?;
                    (r.hits.iter().map(|h| h.score).collect(), r.run)
                }
                Stage::Vit => {
                    let r = run_vit_device(&pipe.vit, &sub, self.dev, None)?;
                    (r.hits.iter().map(|h| h.score).collect(), r.run)
                }
                Stage::Fwd => {
                    let r = run_fwd_device(&pipe.profile, &sub, self.dev)?;
                    (r.hits.iter().map(|h| h.score).collect(), r.run)
                }
            };
            run.stats.record_into(trace, &path);
            run.time.record_into(trace, &format!("{path}/time"));
            makespan = makespan.max(run.time.total_s);
            scored.extend(part.into_iter().zip(scores));
        }
        // Round-robin interleaves the parts; every id is in exactly one.
        scored.sort_unstable_by_key(|&(id, _)| id);
        Ok((scored.into_iter().map(|(_, s)| s).collect(), makespan))
    }
}
