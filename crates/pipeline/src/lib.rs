//! # h3w-pipeline — the hmmsearch task pipeline
//!
//! HMMER 3.0's acceleration pipeline (paper §II, Fig. 1): the MSV filter
//! passes ~2% of sequences at `P < 0.02`, the P7Viterbi filter passes
//! ~0.1% at `P < 10⁻³`, and the Forward stage scores the rest in full
//! precision. [`run::Pipeline`] prepares a query (quantization, striping,
//! calibration); [`run::Pipeline::search`] sweeps a database under an
//! [`run::ExecPlan`] — the CPU baseline, or a pool of simulated GPUs
//! ([`orchestrator`]) whose pool of one is the paper's deployment —
//! through one shared stage driver.
//! [`stream::search_source`] / [`stream::search_chunks`] run that driver
//! chunk by chunk over a database that is not resident, and
//! [`multi::scan`] / [`multi::scan_prepared`] run the funnel for a whole
//! model library at once.
//! [`report`] carries the funnel and time-fraction statistics Fig. 1
//! reports; [`h3w_trace::Trace`] (re-exported here) collects the optional
//! per-run funnel telemetry behind `hmmsearch --profile`, armed only by
//! passing [`Trace::on`] to a traced entry point ([`Pipeline::search`]
//! runs untraced).
//!
//! The contract every entry point keeps: under any plan, driver, SIMD
//! backend, pool size and trace setting, the hits are the scalar
//! one-thread CPU search's, bit for bit. One oracle checks it over that
//! whole lattice, the root package's `tests/lattice.rs`.

pub mod checkpoint;
pub mod config;
pub mod multi;
pub mod orchestrator;
pub mod report;
pub mod run;
pub mod stream;

pub use checkpoint::{CheckpointError, StreamCheckpoint};
pub use config::{ConfigError, PipelineConfig, PipelineConfigBuilder};
pub use h3w_core::fault::SweepError;
pub use h3w_trace::{Telemetry, Trace};
pub use multi::{
    best_hits_per_target, prepare_scan, scan, scan_prepared, FamilyResult, ScanError, ScanReport,
    TargetMatch,
};
pub use orchestrator::FtSweep;
pub use report::{Hit, PipelineResult, StageStats};
pub use run::{ExecPlan, Pipeline, SearchReport};
pub use stream::{
    search_chunks, search_source, ChunkObserver, ChunkProgress, StreamError, StreamOptions,
    StreamReport,
};
