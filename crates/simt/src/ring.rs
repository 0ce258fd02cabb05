//! Producer/consumer ring accounting for specialized warp pairs.
//!
//! The paper's filter kernels interleave residue fetches with DP compute
//! in a single warp; ROADMAP open item 1 asks for the warp-specialized
//! shape instead: a *loader* warp streams packed residue words into an
//! N-stage shared-memory ring while its paired *compute* warp drains the
//! ring, the two synchronizing only through full/empty barrier pairs
//! (the `mbarrier` producer/consumer idiom, 2 ≤ N ≤ 8 stages).
//!
//! The functional simulator executes the two roles' work serially inside
//! one `run_warp`-style call, so overlap cannot be observed directly.
//! [`RingPipe`] recovers it with a discrete-event recurrence over issue
//! slots: each role carries its own clock, `produce(k)` may not begin
//! before `consume(k − N)` retired (else the loader spins on the empty
//! barrier) and `consume(k)` may not begin before `produce(k)` retired
//! (the full barrier). The pair's makespan is the critical path through
//! that dependence graph; `serial` is the depth-1 equivalent where one
//! warp does both jobs back to back. Their ratio is the simulated
//! latency-hiding win. It has no analytic twin: the closed-form model
//! that once sat in `timing.rs` was never within 6× of this recurrence
//! and was removed (EXPERIMENTS.md E16).

use crate::counters::KernelStats;
use crate::device::WARP_SIZE;

/// Packed residue words per ring stage: one coalesced 128-byte segment,
/// one word per lane of the loader warp.
pub const RING_STAGE_WORDS: usize = WARP_SIZE;
/// Bytes per ring stage.
pub const RING_STAGE_BYTES: usize = RING_STAGE_WORDS * 4;
/// Shallowest ring that still double-buffers.
pub const MIN_RING_STAGES: usize = 2;
/// Deepest ring the layout reserves space for.
pub const MAX_RING_STAGES: usize = 8;

/// Shape of the per-pair shared-memory ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingSpec {
    /// Ring depth in stages (2–8).
    pub stages: usize,
}

impl RingSpec {
    /// Validate a stage count. Depths outside 2–8 either can't
    /// double-buffer or waste shared memory past any latency it can hide.
    pub fn new(stages: usize) -> Result<RingSpec, RingError> {
        if (MIN_RING_STAGES..=MAX_RING_STAGES).contains(&stages) {
            Ok(RingSpec { stages })
        } else {
            Err(RingError::BadDepth(stages))
        }
    }

    /// Shared-memory bytes one loader/compute pair's ring occupies.
    pub fn bytes_per_pair(&self) -> usize {
        self.stages * RING_STAGE_BYTES
    }
}

/// Ring construction errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RingError {
    /// Stage count outside 2–8.
    BadDepth(usize),
}

impl std::fmt::Display for RingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RingError::BadDepth(n) => write!(
                f,
                "ring depth {n} outside {MIN_RING_STAGES}..={MAX_RING_STAGES}"
            ),
        }
    }
}

impl std::error::Error for RingError {}

/// Discrete-event clock pair for one loader/compute warp duo.
#[derive(Debug, Clone)]
pub struct RingPipe {
    stages: usize,
    /// Retire time (in slots) of the fill of stage `k % stages`.
    produce_end: Vec<u64>,
    /// Retire time of the drain of stage `k % stages`.
    consume_end: Vec<u64>,
    loader_t: u64,
    compute_t: u64,
    produced: u64,
    consumed: u64,
    loader_cost: u64,
    compute_cost: u64,
    /// Times the compute warp arrived before the stage's fill retired.
    pub full_waits: u64,
    /// Times the loader warp found every stage still unconsumed.
    pub empty_waits: u64,
}

impl RingPipe {
    /// A fresh pipe with both clocks at zero and every stage empty.
    pub fn new(spec: RingSpec) -> RingPipe {
        RingPipe {
            stages: spec.stages,
            produce_end: vec![0; spec.stages],
            consume_end: vec![0; spec.stages],
            loader_t: 0,
            compute_t: 0,
            produced: 0,
            consumed: 0,
            loader_cost: 0,
            compute_cost: 0,
            full_waits: 0,
            empty_waits: 0,
        }
    }

    /// Ring depth in stages.
    pub fn stages(&self) -> usize {
        self.stages
    }

    /// Chunks produced so far (the next produce fills chunk `produced()`).
    pub fn produced(&self) -> u64 {
        self.produced
    }

    /// Chunks consumed so far (the next consume drains chunk `consumed()`).
    pub fn consumed(&self) -> u64 {
        self.consumed
    }

    /// Chunks the loader may still fill before it would overwrite
    /// unconsumed data (how far ahead it can race right now).
    pub fn fill_headroom(&self) -> usize {
        self.stages - (self.produced - self.consumed) as usize
    }

    /// Loader fills the next stage at `cost` issue slots. Waits on the
    /// empty barrier of the stage it is about to overwrite.
    pub fn produce(&mut self, cost: u64) {
        let k = self.produced;
        if k >= self.stages as u64 {
            let dep = self.consume_end[((k - self.stages as u64) % self.stages as u64) as usize];
            if self.loader_t < dep {
                self.loader_t = dep;
                self.empty_waits += 1;
            }
        }
        self.loader_t += cost;
        self.produce_end[(k % self.stages as u64) as usize] = self.loader_t;
        self.produced += 1;
        self.loader_cost += cost;
    }

    /// Compute drains the oldest filled stage at `cost` issue slots.
    /// Waits on the full barrier if the fill has not retired yet.
    pub fn consume(&mut self, cost: u64) {
        assert!(
            self.consumed < self.produced,
            "ring consume before any produce"
        );
        let k = self.consumed;
        let dep = self.produce_end[(k % self.stages as u64) as usize];
        if self.compute_t < dep {
            self.compute_t = dep;
            self.full_waits += 1;
        }
        self.compute_t += cost;
        self.consume_end[(k % self.stages as u64) as usize] = self.compute_t;
        self.consumed += 1;
        self.compute_cost += cost;
    }

    /// Critical path through the full/empty dependence graph so far.
    pub fn makespan(&self) -> u64 {
        self.loader_t.max(self.compute_t)
    }

    /// Cost of the same work done by a single unspecialized warp.
    pub fn serial(&self) -> u64 {
        self.loader_cost + self.compute_cost
    }

    /// Fold the pipe's totals into a stats block.
    pub fn finish_into(&self, stats: &mut KernelStats) {
        stats.ring_full_waits += self.full_waits;
        stats.ring_empty_waits += self.empty_waits;
        stats.loader_slots += self.loader_cost;
        stats.compute_slots += self.compute_cost;
        stats.pipe_serial_slots += self.serial();
        stats.pipe_makespan_slots += self.makespan();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(stages: usize, chunks: usize, load: u64, compute: u64) -> RingPipe {
        let mut p = RingPipe::new(RingSpec::new(stages).unwrap());
        // Loader races as far ahead as the ring permits, like the
        // specialized kernels do.
        let mut filled = 0usize;
        for k in 0..chunks {
            while filled < chunks && filled < k + stages {
                p.produce(load);
                filled += 1;
            }
            p.consume(compute);
        }
        p
    }

    #[test]
    fn depth_bounds_enforced() {
        assert!(RingSpec::new(1).is_err());
        assert!(RingSpec::new(9).is_err());
        assert_eq!(RingSpec::new(4).unwrap().bytes_per_pair(), 4 * 128);
    }

    #[test]
    fn serial_is_sum_of_both_roles() {
        let p = run(2, 10, 7, 13);
        assert_eq!(p.serial(), 10 * 7 + 10 * 13);
    }

    #[test]
    fn balanced_pipe_halves_the_serial_cost_asymptotically() {
        let p = run(8, 100, 10, 10);
        // Perfect overlap: makespan ≈ one role's cost + pipeline fill.
        assert!(p.makespan() < p.serial() * 6 / 10, "{}", p.makespan());
    }

    #[test]
    fn compute_bound_pipe_hides_almost_all_load_latency() {
        let p = run(4, 50, 2, 20);
        // Loader fully hidden behind compute after the first fill.
        assert_eq!(p.makespan(), 2 + 50 * 20);
        assert_eq!(p.full_waits, 1); // only the very first stage
    }

    #[test]
    fn load_bound_pipe_stalls_on_full_barrier() {
        let p = run(2, 50, 20, 2);
        assert!(p.full_waits > 40, "{}", p.full_waits);
        assert_eq!(p.makespan(), 50 * 20 + 2); // compute trails the loader
    }

    #[test]
    fn deeper_ring_never_slower() {
        let mut prev = u64::MAX;
        for stages in MIN_RING_STAGES..=MAX_RING_STAGES {
            // Jittered costs: loader alternates slow/fast so shallow
            // rings hit the full barrier and deep rings smooth it out.
            let mut p = RingPipe::new(RingSpec::new(stages).unwrap());
            let chunks = 60usize;
            let mut filled = 0usize;
            for k in 0..chunks {
                while filled < chunks && filled < k + stages {
                    p.produce(if filled.is_multiple_of(7) { 40 } else { 4 });
                    filled += 1;
                }
                p.consume(9);
            }
            assert!(p.makespan() <= prev, "stages={stages}");
            prev = p.makespan();
        }
    }

    #[test]
    fn finish_into_accumulates() {
        let p = run(2, 10, 5, 5);
        let mut s = KernelStats::default();
        p.finish_into(&mut s);
        assert_eq!(s.pipe_serial_slots, 100);
        assert_eq!(s.pipe_makespan_slots, p.makespan());
        assert_eq!(s.loader_slots, 50);
        assert_eq!(s.compute_slots, 50);
        assert!(s.simulated_overlap().unwrap() > 0.0);
    }
}
