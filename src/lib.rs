//! # hmmer3-warp
//!
//! A from-scratch Rust reproduction of **"Fine-Grained Acceleration of
//! HMMER 3.0 via Architecture-Aware Optimization on Massively Parallel
//! Processors"** (Jiang & Ganesan, IPDPSW 2015): warp-synchronous MSV and
//! P7Viterbi kernels with parallel Lazy-F, executed and costed on a
//! warp-accurate SIMT simulator, against a full reimplementation of the
//! HMMER 3.0 compute pipeline.
//!
//! The workspace crates, re-exported here:
//!
//! * [`hmm`] — Plan-7 profile HMMs, quantized score systems, calibration;
//! * [`seqdb`] — sequences, FASTA, residue packing, synthetic databases;
//! * [`simt`] — the simulated GPU (warps, shared memory, occupancy, timing);
//! * [`cpu`] — the HMMER3 CPU baseline (striped SSE-style filters, Forward);
//! * [`core`] — the paper's contribution: the warp kernels and schedulers;
//! * [`pipeline`] — the hmmsearch MSV → Viterbi → Forward task pipeline;
//! * [`serve`] — the resident-database search daemon and packed DB format.
//!
//! Quick start: see `examples/quickstart.rs`, or:
//!
//! ```
//! use hmmer3_warp::prelude::*;
//!
//! // A synthetic 60-column query motif and a small mixed database.
//! let model = synthetic_model(60, 42, &BuildParams::default());
//! let pipe = Pipeline::prepare(&model, PipelineConfig::default(), 7);
//! let mut spec = DbGenSpec::swissprot_like().scaled(0.0001);
//! spec.homolog_fraction = 0.1;
//! let db = generate(&spec, Some(&model), 3);
//! let result = pipe.search(&db, &ExecPlan::Cpu).expect("the CPU plan cannot fail");
//! assert!(!result.hits.is_empty());
//! ```

pub use h3w_core as core;
pub use h3w_cpu as cpu;
pub use h3w_hmm as hmm;
pub use h3w_pipeline as pipeline;
pub use h3w_seqdb as seqdb;
pub use h3w_serve as serve;
pub use h3w_simt as simt;

pub mod cli;

/// The types most applications need.
pub mod prelude {
    pub use h3w_core::tiered::{run_msv_device, run_vit_device};
    pub use h3w_core::{MemConfig, Stage, SweepError};
    pub use h3w_hmm::build::{synthetic_model, BuildParams, PAPER_MODEL_SIZES};
    pub use h3w_hmm::{CoreModel, MsvProfile, NullModel, Profile, VitProfile};
    pub use h3w_pipeline::{
        ExecPlan, Pipeline, PipelineConfig, SearchReport, StreamCheckpoint, Telemetry, Trace,
    };
    pub use h3w_seqdb::gen::{generate, DbGenSpec};
    pub use h3w_seqdb::{content_hash, DbFormatError, DigitalSeq, DiskDb, PackedDb, SeqDb};
    pub use h3w_serve::{Client, ResidentDb, ServeConfig, Server};
    pub use h3w_simt::DeviceSpec;
}
