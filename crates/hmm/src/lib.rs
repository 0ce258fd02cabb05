//! # h3w-hmm — Plan-7 profile HMM substrate
//!
//! Everything HMMER 3.0's compute kernels need to know about a protein
//! motif model, reimplemented from scratch for the `hmmer3-warp`
//! reproduction of Jiang & Ganesan (IPDPSW 2015):
//!
//! * [`alphabet`] — the 29-symbol, 5-bit digitized amino alphabet (Fig. 6);
//! * [`background`] — the null model scores are log-odds against;
//! * [`plan7`] — the Plan-7 core model (Fig. 3's M/I/D node chain);
//! * [`profile`] — the configured local search profile in nats;
//! * [`msvprofile`] — the saturating 8-bit MSV filter score system (Fig. 2);
//! * [`vitprofile`] — the saturating 16-bit ViterbiFilter score system;
//! * [`build`] — seeded synthetic models standing in for Pfam 27.0;
//! * [`calibrate`] — Gumbel/exponential score statistics (`λ = log 2`);
//! * [`categorical`] — the one residue draw, and its exact lookup table;
//! * [`hmmio`] — the HMMER3 ASCII `.hmm` profile file format;
//! * [`msa`] — alignment-based model construction (`hmmbuild`-style).

pub mod alphabet;
pub mod background;
pub mod build;
pub mod calibrate;
pub mod categorical;
pub mod hmmio;
pub mod info;
pub mod logspace;
pub mod msa;
pub mod msvprofile;
pub mod plan7;
pub mod profile;
pub mod vitprofile;

pub use alphabet::Residue;
pub use background::NullModel;
pub use build::{synthetic_model, BuildParams, PAPER_MODEL_SIZES};
pub use calibrate::Calibration;
pub use msvprofile::MsvProfile;
pub use plan7::CoreModel;
pub use profile::{Profile, SearchMode, NEG_INF};
pub use vitprofile::{VitProfile, W_NEG_INF};
