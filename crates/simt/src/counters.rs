//! Kernel event counters — the measurables the paper's cost arguments
//! rest on (synchronization calls, bank conflicts, memory traffic) and the
//! inputs of the analytic timing model.

/// Aggregated events of one kernel execution (or one warp/block thereof).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Warp-level instructions issued (ALU, control, address math).
    pub instructions: u64,
    /// Shared-memory load instructions.
    pub smem_loads: u64,
    /// Shared-memory store instructions.
    pub smem_stores: u64,
    /// Extra shared-memory cycles serialized by bank conflicts
    /// (0 when every access is conflict-free, as §III-A's layout ensures).
    pub smem_conflict_extra: u64,
    /// Global-memory DRAM transactions (128-byte segments touched by
    /// streamed data: residues, outputs, first-touch table loads).
    pub gmem_transactions: u64,
    /// DRAM bytes moved.
    pub gmem_bytes: u64,
    /// L2-cached global transactions (model-table re-reads in the global
    /// config — the tables are ≤ 77 KB and resident in L2).
    pub l2_transactions: u64,
    /// L2 bytes served.
    pub l2_bytes: u64,
    /// Warp-shuffle instructions (`shfl_xor` etc.).
    pub shuffles: u64,
    /// Warp-vote instructions (`__all`/`__any`).
    pub votes: u64,
    /// Block-wide barriers (`__syncthreads`) — zero for the paper's
    /// warp-synchronous kernels, 2+/row for the Fig. 4 baseline.
    pub barriers: u64,
    /// Shared-memory read/write hazards detected between barriers —
    /// nonzero means the schedule is racy on real hardware.
    pub hazards: u64,
    /// DP rows (residues) processed.
    pub rows: u64,
    /// Sequences completed.
    pub sequences: u64,
}

impl KernelStats {
    /// Accumulate another stats block into this one (all fields sum).
    pub fn merge(&mut self, other: &KernelStats) {
        self.instructions += other.instructions;
        self.smem_loads += other.smem_loads;
        self.smem_stores += other.smem_stores;
        self.smem_conflict_extra += other.smem_conflict_extra;
        self.gmem_transactions += other.gmem_transactions;
        self.gmem_bytes += other.gmem_bytes;
        self.l2_transactions += other.l2_transactions;
        self.l2_bytes += other.l2_bytes;
        self.shuffles += other.shuffles;
        self.votes += other.votes;
        self.barriers += other.barriers;
        self.hazards += other.hazards;
        self.rows += other.rows;
        self.sequences += other.sequences;
    }

    /// Total issue slots consumed in the compute pipeline: every counted
    /// instruction class issues, and conflict replays occupy extra slots.
    pub fn issue_slots(&self) -> u64 {
        self.instructions
            + self.smem_loads
            + self.smem_stores
            + self.smem_conflict_extra
            + self.shuffles
            + self.votes
            + self.barriers
    }

    /// Record every counter into a telemetry trace at `path` — how the
    /// pipeline surfaces device-stage events instead of dropping them.
    /// No-op when the trace is disabled.
    pub fn record_into(&self, trace: &h3w_trace::Trace, path: &str) {
        if !trace.is_on() {
            return;
        }
        for (name, value) in [
            ("instructions", self.instructions),
            ("smem_loads", self.smem_loads),
            ("smem_stores", self.smem_stores),
            ("smem_conflict_extra", self.smem_conflict_extra),
            ("gmem_transactions", self.gmem_transactions),
            ("gmem_bytes", self.gmem_bytes),
            ("l2_transactions", self.l2_transactions),
            ("l2_bytes", self.l2_bytes),
            ("shuffles", self.shuffles),
            ("votes", self.votes),
            ("barriers", self.barriers),
            ("hazards", self.hazards),
            ("rows", self.rows),
            ("sequences", self.sequences),
        ] {
            trace.add(path, name, value);
        }
    }
}

impl std::fmt::Display for KernelStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "inst={} smem={}+{} (conflict+{}) gmem={}tx/{}B l2={}tx shfl={} vote={} barrier={} hazard={} rows={} seqs={}",
            self.instructions,
            self.smem_loads,
            self.smem_stores,
            self.smem_conflict_extra,
            self.gmem_transactions,
            self.gmem_bytes,
            self.l2_transactions,
            self.shuffles,
            self.votes,
            self.barriers,
            self.hazards,
            self.rows,
            self.sequences
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_everything() {
        let mut a = KernelStats {
            instructions: 10,
            smem_loads: 1,
            smem_stores: 2,
            smem_conflict_extra: 3,
            gmem_transactions: 4,
            gmem_bytes: 512,
            l2_transactions: 2,
            l2_bytes: 256,
            shuffles: 5,
            votes: 6,
            barriers: 7,
            hazards: 8,
            rows: 9,
            sequences: 1,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.instructions, 20);
        assert_eq!(a.gmem_bytes, 1024);
        assert_eq!(a.sequences, 2);
    }

    #[test]
    fn issue_slots_cover_all_pipelines() {
        let s = KernelStats {
            instructions: 100,
            smem_loads: 10,
            smem_stores: 20,
            smem_conflict_extra: 5,
            shuffles: 3,
            votes: 2,
            barriers: 1,
            ..Default::default()
        };
        assert_eq!(s.issue_slots(), 141);
    }
}
