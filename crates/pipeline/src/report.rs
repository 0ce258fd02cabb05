//! Pipeline results: per-stage statistics (the Fig. 1 quantities) and the
//! reported hit list.

use h3w_cpu::Posterior;
use std::sync::Arc;

/// One reported homolog.
#[derive(Debug, Clone, PartialEq)]
pub struct Hit {
    /// Sequence index in the database.
    pub seqid: u32,
    /// Sequence name.
    pub name: String,
    /// MSV filter score (nats).
    pub msv_score: f32,
    /// Viterbi filter score (nats).
    pub vit_score: f32,
    /// Forward score (nats) — the reported score.
    pub fwd_score: f32,
    /// P-value of the Forward score.
    pub pvalue: f64,
    /// E-value (`P × database size`).
    pub evalue: f64,
    /// Posterior decoding computed for the null2 correction, shared with
    /// domain reporting (`None` when null2 is off).
    pub posterior: Option<Arc<Posterior>>,
}

/// One stage's funnel and timing numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct StageStats {
    /// Stage label.
    pub name: String,
    /// Sequences entering.
    pub seqs_in: usize,
    /// Sequences surviving.
    pub seqs_out: usize,
    /// Residues entering (the stage's DP-row workload).
    pub residues_in: u64,
    /// Stage time in seconds (measured for CPU stages, modeled for
    /// simulated-GPU stages).
    pub time_s: f64,
}

impl StageStats {
    /// Build one stage record.
    pub fn new(name: &str, seqs_in: usize, seqs_out: usize, time_s: f64) -> StageStats {
        StageStats {
            name: name.to_string(),
            seqs_in,
            seqs_out,
            residues_in: 0,
            time_s,
        }
    }

    /// Attach the residue workload.
    pub fn with_residues(mut self, residues_in: u64) -> StageStats {
        self.residues_in = residues_in;
        self
    }
}

/// Full pipeline outcome.
#[derive(Debug, Clone)]
pub struct PipelineResult {
    /// The three stages in order (MSV, P7Viterbi, Forward).
    pub stages: [StageStats; 3],
    /// Reported hits, best E-value first.
    pub hits: Vec<Hit>,
    /// Database size (E-value scale).
    pub db_size: usize,
}

impl PipelineResult {
    /// Assemble a result.
    pub fn new(stages: [StageStats; 3], hits: Vec<Hit>, db_size: usize) -> PipelineResult {
        PipelineResult {
            stages,
            hits,
            db_size,
        }
    }

    /// Total pipeline time.
    pub fn total_time_s(&self) -> f64 {
        self.stages.iter().map(|s| s.time_s).sum()
    }

    /// Per-stage fraction of total time — the Fig. 1 percentages
    /// (80.6% / 14.5% / 4.9% in the paper's model-400/Env_nr setting).
    pub fn time_fractions(&self) -> [f64; 3] {
        let total = self.total_time_s().max(1e-12);
        [
            self.stages[0].time_s / total,
            self.stages[1].time_s / total,
            self.stages[2].time_s / total,
        ]
    }

    /// Sequence survival fractions relative to the whole database —
    /// Fig. 1's 100% → 2.2% → 0.1% funnel.
    pub fn funnel(&self) -> [f64; 3] {
        let n = self.db_size.max(1) as f64;
        [
            1.0,
            self.stages[0].seqs_out as f64 / n,
            self.stages[1].seqs_out as f64 / n,
        ]
    }

    /// Render a small text report.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let funnel = self.funnel();
        let fracs = self.time_fractions();
        let _ = writeln!(out, "pipeline over {} sequences:", self.db_size);
        for (i, st) in self.stages.iter().enumerate() {
            let _ = writeln!(
                out,
                "  {:<16} in {:>8}  out {:>8}  ({:>6.2}% of db)  time {:>9.4}s ({:>5.1}%)",
                st.name,
                st.seqs_in,
                st.seqs_out,
                funnel.get(i + 1).copied().unwrap_or(funnel[2]) * 100.0,
                st.time_s,
                fracs[i] * 100.0
            );
        }
        let _ = writeln!(out, "  hits reported: {}", self.hits.len());
        for h in self.hits.iter().take(10) {
            let _ = writeln!(
                out,
                "    {:<20} fwd {:>8.2} nats  E = {:.3e}",
                h.name, h.fwd_score, h.evalue
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PipelineResult {
        PipelineResult::new(
            [
                StageStats::new("MSV", 1000, 22, 0.806),
                StageStats::new("P7Viterbi", 22, 1, 0.145),
                StageStats::new("Forward", 1, 1, 0.049),
            ],
            vec![],
            1000,
        )
    }

    #[test]
    fn fractions_and_funnel() {
        let r = sample();
        let f = r.time_fractions();
        assert!((f[0] - 0.806).abs() < 1e-9);
        assert!((f[2] - 0.049).abs() < 1e-9);
        let funnel = r.funnel();
        assert_eq!(funnel[0], 1.0);
        assert!((funnel[1] - 0.022).abs() < 1e-9);
        assert!((funnel[2] - 0.001).abs() < 1e-9);
        assert!((r.total_time_s() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn render_contains_stages() {
        let text = sample().render();
        assert!(text.contains("MSV"));
        assert!(text.contains("P7Viterbi"));
        assert!(text.contains("hits reported: 0"));
    }
}
