//! Long-lived search service over a resident packed database.
//!
//! A deployed homology-search pipeline is not a one-shot CLI run: the
//! target database is loaded once, validated, and served for days, with
//! queries arriving concurrently, misbehaving and timing out. This crate
//! is that deployment shape for the workspace's HMMER3 pipeline, built on
//! the same three invariants the rest of the tree maintains:
//!
//! 1. **Bit-identity** — a served query returns exactly the hits a
//!    one-shot `hmmsearch` run reports over the same database, down to
//!    the float bits (scores cross the wire as raw IEEE-754).
//! 2. **Typed failure** — every way a query can fail (malformed frame,
//!    unparsable HMM, shed under load, expired deadline, panic, drain)
//!    maps to a typed [`protocol::ErrorKind`]; the process never
//!    crashes and never answers with garbage.
//! 3. **Observability** — the service aggregates every query's funnel
//!    telemetry ([`h3w_trace`]) and serves it, with queue/shed/deadline
//!    counters, from the metrics endpoint and the final drain flush.
//!
//! The pieces: [`protocol`] (length-prefixed binary frames),
//! [`resident`] (the validated, shard-split in-memory database),
//! [`server`] (admission, deadlines, panic isolation, drain),
//! [`client`] (a minimal blocking client), [`sig`] (dependency-free
//! SIGTERM/SIGINT hook).

#![warn(missing_docs)]

pub mod client;
pub mod protocol;
pub mod resident;
pub mod server;
pub mod sig;

pub use client::Client;
pub use protocol::{ErrorKind, ProtocolError, Request, Response, WireHit};
pub use resident::{ResidentDb, DEFAULT_SHARD_RESIDUES};
pub use server::{ChaosConfig, ServeConfig, ServeError, Server};

/// The calibration seed every served query is prepared with — the same
/// seed the `hmmsearch` binary hardwires, which is what makes daemon
/// responses bit-identical to one-shot runs.
pub const QUERY_SEED: u64 = 0x5_eac4;
