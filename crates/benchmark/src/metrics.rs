//! The metric and workload tables: the single source the runner, the
//! `compare` subcommand, the README tables and the smoke test's check of
//! `BENCHMARK.json` all read.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory, wasted work).
    Lower,
    /// Larger is better (rates, useful fractions).
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One workload: its name and the reason it exists.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    /// Name, as `--workload` takes it.
    pub name: &'static str,
    /// One line: what it stresses that the others do not.
    pub why: &'static str,
}

/// `hmmsearch` over a resident Swissprot-like database.
pub const SEARCH: &str = "search_swissprot";
/// `hmmsearch --chunk` over an Env_nr-like FASTA file.
pub const STREAM: &str = "stream_envnr";
/// `hmmscan` of a Pfam-sized model library.
pub const SCAN: &str = "scan_library";
/// The resident `h3w-serve` deployment under a hot/fresh query mix.
pub const SERVE: &str = "serve_mixed";
/// The paper's deployment: MSV + Viterbi on the simulated Tesla K40.
pub const DEVICE: &str = "device_k40";

/// The five workloads, in the order `all` runs them.
pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: SEARCH,
        why: "Paper's Swissprot case: long sequences, resident .h3wdb; the sequence-axis batched MSV sweep dominates, packed-format decode second, prepare is small.",
    },
    WorkloadDef {
        name: STREAM,
        why: "Paper's Env_nr case: short sequences streamed from FASTA in bounded chunks; stresses decode, chunking and length-binning, the only bounded-memory path.",
    },
    WorkloadDef {
        name: SCAN,
        why: "hmmscan shape: the same batch kernels along the model axis, M=48 to 2405; per-model calibration is about half the wall, so a gain that costs prepare shows.",
    },
    WorkloadDef {
        name: SERVE,
        why: "Resident daemon, one closed-loop client, 75% hot / 25% never-seen models: framing, admission, shard merge and the prepared-pipeline cache dominate, not the sweep.",
    },
    WorkloadDef {
        name: DEVICE,
        why: "Paper's contribution: warp kernels on the SIMT simulator do nearly all the work and the CPU sweeps almost none; wall is simulator speed, modeled time is the claim.",
    },
];

/// One end-to-end metric, reported by every workload.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the baseline median by which it may worsen.
    pub bound: f64,
    /// What it measures.
    pub meaning: &'static str,
}

/// Median wall of one operation.
pub const WALL_S: &str = "wall_s";
/// High-water resident set of the `run` child.
pub const PEAK_RSS_MB: &str = "peak_rss_mb";
/// Wall of the `setup` child.
pub const SETUP_S: &str = "setup_s";

/// The end-to-end metrics. The time bounds sit at the contract's ceiling:
/// on the 2-core sandbox the benchmark was written on, ten 15-second runs
/// of one workload spread by up to 0.25 of their median from host noise
/// alone (see README, "Steadiness"). Work per second is the same
/// measurement as `wall_s` at a fixed input size, so it is a per-layer
/// metric (`pipeline.op_mres_per_s`) rather than a second bound on it.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: WALL_S,
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        meaning: "median wall of one operation, bytes on disk to ranked hits rendered (serve_mixed: the whole request loop)",
    },
    EndToEnd {
        name: PEAK_RSS_MB,
        unit: "MiB",
        better: Better::Lower,
        bound: 0.2,
        meaning: "VmHWM of the run child alone",
    },
    EndToEnd {
        name: SETUP_S,
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        meaning: "median wall of the setup child: generate inputs, write files, compute reference hits",
    },
];

/// One per-layer metric, measured by the workloads that declare it.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name, `<layer>.<what>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Workloads that measure it.
    pub workloads: &'static [&'static str],
    /// True for a count that repeats exactly for a fixed seed and scale.
    pub exact: bool,
    /// Which end-to-end metric it should move, where, and where not.
    pub moves: &'static str,
}

const ALL: &[&str] = &[SEARCH, STREAM, SCAN, SERVE, DEVICE];
const BATCH: &[&str] = &[SEARCH, STREAM, SCAN, DEVICE];
const CPU_BATCH: &[&str] = &[SEARCH, STREAM, SCAN];
const SWEEPS: &[&str] = &[SEARCH, STREAM];
const DISK: &[&str] = &[SEARCH, SERVE, DEVICE];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    workloads: &'static [&'static str],
    exact: bool,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        workloads,
        exact,
        moves,
    }
}

use Better::{Higher, Lower};

const HMM_MOVES: &str =
    "wall_s on scan_library and serve_mixed (fresh requests); no move on search_swissprot";
const PREPARE_MOVES: &str =
    "wall_s on scan_library (about half of it) and serve_mixed; under 5% elsewhere";
const CALL_MOVES: &str = "wall_s of its own workload: it is the one call that does the sweep";
const STAGE_MOVES: &str =
    "program-reported StageStats.time_s summed over chunks/families; wall_s of its workload";
const GAP_MOVES: &str =
    "call wall minus stage times (and chunking): ROADMAP item 1's gap; wall_s on stream_envnr most";
const COUNT_MOVES: &str = "exact funnel count; must not change unless the filters change";
const GEN_MOVES: &str = "setup_s only";
const LOAD_MOVES: &str = "wall_s on search_swissprot and device_k40; no move on stream_envnr";
const CHUNK_MOVES: &str = "wall_s on stream_envnr; no move on search_swissprot";
const PACK_MOVES: &str = "wall_s on device_k40 only";
const MSV_MOVES: &str = "wall_s on search_swissprot and stream_envnr; no move on device_k40";
const VITFWD_MOVES: &str = "wall_s most on search_swissprot, least on stream_envnr";
const POOL_MOVES: &str = "wall_s on the three CPU batch workloads in proportion to T";
const SERVE_MOVES: &str = "wall_s on serve_mixed only";
const DEVICE_MOVES: &str = "wall_s on device_k40 only";
const MODEL_MOVES: &str = "simt.modeled_device_s; exact, the paper's claim";
const ZERO_MOVES: &str = "must stay 0";

/// The per-layer metrics, grouped by the crate they measure.
pub const PER_LAYER: &[PerLayer] = &[
    // hmm
    layer("hmm.read_hmm_s", "s", Lower, BATCH, false, HMM_MOVES),
    layer("hmm.profile_build_s", "s", Lower, &[SEARCH, SCAN, SERVE], false, HMM_MOVES),
    // pipeline
    layer("pipeline.prepare_s", "s", Lower, BATCH, false, PREPARE_MOVES),
    layer("pipeline.prepare_per_model_ms", "ms", Lower, ALL, false, PREPARE_MOVES),
    layer("pipeline.op_mres_per_s", "Mres/s", Higher, ALL, false, "stage-1 residues x models (or x requests) / traced operation wall: wall_s as a rate, input size in results.json"),
    layer("pipeline.search_s", "s", Lower, &[SEARCH, DEVICE], false, CALL_MOVES),
    layer("pipeline.stream_s", "s", Lower, &[STREAM], false, CALL_MOVES),
    layer("pipeline.scan_s", "s", Lower, &[SCAN], false, CALL_MOVES),
    layer("pipeline.stage_msv_s", "s", Lower, CPU_BATCH, false, STAGE_MOVES),
    layer("pipeline.stage_vit_s", "s", Lower, CPU_BATCH, false, STAGE_MOVES),
    layer("pipeline.stage_fwd_s", "s", Lower, CPU_BATCH, false, STAGE_MOVES),
    layer("pipeline.unattributed_s", "s", Lower, CPU_BATCH, false, GAP_MOVES),
    layer("pipeline.unattributed_frac", "ratio", Lower, CPU_BATCH, false, GAP_MOVES),
    layer("pipeline.render_s", "s", Lower, BATCH, false, "wall_s, under 1% everywhere"),
    layer("pipeline.survivors_msv", "count", Lower, BATCH, true, COUNT_MOVES),
    layer("pipeline.survivors_vit", "count", Lower, BATCH, true, COUNT_MOVES),
    layer("pipeline.hits", "count", Higher, BATCH, true, COUNT_MOVES),
    layer("pipeline.msv_pass_frac", "ratio", Lower, BATCH, true, COUNT_MOVES),
    // seqdb
    layer("seqdb.gen_mres_per_s", "Mres/s", Higher, ALL, false, GEN_MOVES),
    layer("seqdb.diskdb_write_mres_per_s", "Mres/s", Higher, DISK, false, GEN_MOVES),
    layer("seqdb.load_s", "s", Lower, &[SEARCH, DEVICE], false, LOAD_MOVES),
    layer("seqdb.load_mres_per_s", "Mres/s", Higher, &[SEARCH, DEVICE], false, LOAD_MOVES),
    layer("seqdb.chunk_s", "s", Lower, &[STREAM], false, CHUNK_MOVES),
    layer("seqdb.chunk_mres_per_s", "Mres/s", Higher, &[STREAM], false, CHUNK_MOVES),
    layer("seqdb.chunks", "count", Lower, &[STREAM], true, CHUNK_MOVES),
    layer("seqdb.fasta_open_s", "s", Lower, &[STREAM], false, "FastaFileSource::open's validating pass; wall_s on stream_envnr"),
    layer("seqdb.fasta_parse_mres_per_s", "Mres/s", Higher, &[SCAN], false, "wall_s on scan_library, under 5%"),
    layer("seqdb.pack_s", "s", Lower, &[DEVICE], false, PACK_MOVES),
    layer("seqdb.pack_mres_per_s", "Mres/s", Higher, &[DEVICE], false, PACK_MOVES),
    layer("seqdb.pack_waste_frac", "ratio", Lower, &[DEVICE], true, PACK_MOVES),
    layer("seqdb.resident_load_s", "s", Lower, &[SERVE], false, "setup_s on serve_mixed (the setup child loads the file it wrote); server start-up, outside wall_s"),
    // cpu
    layer("cpu.msv_kernel_gcells_per_s", "Gcell/s", Higher, SWEEPS, false, "the ceiling: single-thread StripedMsv::run_into, 1-in-16 subsample"),
    layer("cpu.msv_kernel_gcells_per_s_m48", "Gcell/s", Higher, &[SCAN], false, "one stripe, latency-bound end of scan_library"),
    layer("cpu.msv_kernel_gcells_per_s_m2405", "Gcell/s", Higher, &[SCAN], false, "tables past L1, the other end of scan_library"),
    layer("cpu.msv_sweep_gcells_per_s", "Gcell/s", Higher, SWEEPS, false, MSV_MOVES),
    layer("cpu.msv_lane_occupancy", "ratio", Higher, SWEEPS, true, MSV_MOVES),
    layer("cpu.msv_computed_gbytes_per_s", "GB/s", Higher, SWEEPS, false, "computed cache traffic (bytes_per_row x rows / time), not DRAM"),
    layer("cpu.vit_sweep_gcells_per_s", "Gcell/s", Higher, SWEEPS, false, VITFWD_MOVES),
    layer("cpu.vit_lazyf_passes_per_row", "ratio", Lower, SWEEPS, true, VITFWD_MOVES),
    layer("cpu.fwd_sweep_gcells_per_s", "Gcell/s", Higher, SWEEPS, false, VITFWD_MOVES),
    // pool
    layer("pool.threads", "count", Higher, ALL, true, POOL_MOVES),
    layer("pool.speedup_nproc", "ratio", Higher, &[SEARCH], false, "pipeline.search_s at 1 thread / at T; measured only when T > 1"),
    layer("pool.busy_frac", "ratio", Higher, CPU_BATCH, false, POOL_MOVES),
    layer("pool.jobs", "count", Lower, CPU_BATCH, false, POOL_MOVES),
    layer("pool.inline_jobs", "count", Lower, CPU_BATCH, false, POOL_MOVES),
    layer("pool.steals", "count", Lower, CPU_BATCH, false, POOL_MOVES),
    // serve
    layer("serve.ping_rtt_us", "us", Lower, &[SERVE], false, "socket + framing floor under every request"),
    layer("serve.latency_p50_s", "s", Lower, &[SERVE], false, "median request latency; falls in the hot population"),
    layer("serve.latency_p95_s", "s", Lower, &[SERVE], false, "p95 request latency; falls in the fresh population, so prepare moves it"),
    layer("serve.hot_latency_p50_s", "s", Lower, &[SERVE], false, SERVE_MOVES),
    layer("serve.fresh_latency_p50_s", "s", Lower, &[SERVE], false, SERVE_MOVES),
    layer("serve.fresh_frac", "ratio", Lower, &[SERVE], true, "share of requests that miss the prepared-pipeline cache"),
    layer("serve.tax_s", "s", Lower, &[SERVE], false, "hot p50 minus in-process Pipeline::search of the same model and database"),
    layer("serve.metrics_s", "s", Lower, &[SERVE], false, "no end-to-end metric: the metrics endpoint is off the query path"),
    layer("serve.ok", "count", Higher, &[SERVE], true, SERVE_MOVES),
    layer("serve.shed", "count", Lower, &[SERVE], true, ZERO_MOVES),
    layer("serve.deadline", "count", Lower, &[SERVE], true, ZERO_MOVES),
    layer("serve.errors", "count", Lower, &[SERVE], true, ZERO_MOVES),
    // core / simt
    layer("core.msv_device_wall_s", "s", Lower, &[DEVICE], false, DEVICE_MOVES),
    layer("core.vit_device_wall_s", "s", Lower, &[DEVICE], false, DEVICE_MOVES),
    layer("simt.sim_mcells_per_s", "Mcell/s", Higher, &[DEVICE], false, DEVICE_MOVES),
    layer("simt.modeled_device_s", "s", Lower, &[DEVICE], true, "sum of the device stages' modeled time in PipelineResult.stages; the paper's claim"),
    layer("simt.modeled_msv_s", "s", Lower, &[DEVICE], true, MODEL_MOVES),
    layer("simt.modeled_vit_s", "s", Lower, &[DEVICE], true, MODEL_MOVES),
    layer("simt.occupancy_msv", "ratio", Higher, &[DEVICE], true, MODEL_MOVES),
    layer("simt.instructions_per_row", "count", Lower, &[DEVICE], true, MODEL_MOVES),
    layer("simt.shuffles", "count", Lower, &[DEVICE], true, MODEL_MOVES),
    layer("simt.gmem_bytes", "count", Lower, &[DEVICE], true, MODEL_MOVES),
    layer("simt.barriers", "count", Lower, &[DEVICE], true, "launch-time only: one per block that stages its tables into shared memory, never per row"),
    layer("simt.barriers_per_row", "ratio", Lower, &[DEVICE], true, "the paper's zero-barrier claim: stays under 0.001 (the Fig. 4 baseline needs 3 per row)"),
    layer("simt.smem_conflict_extra", "count", Lower, &[DEVICE], true, ZERO_MOVES),
    layer("simt.hazards", "count", Lower, &[DEVICE], true, ZERO_MOVES),
    // trace
    layer("trace.overhead_frac", "ratio", Lower, &[SEARCH], false, "search_traced with Trace::on() vs Trace::off(); ROADMAP's 2% gate"),
    layer("trace.bench_overhead_frac", "ratio", Lower, ALL, false, "traced operation wall vs untraced, same process; expected under 0.02"),
    layer("trace.op_coverage_frac", "ratio", Higher, ALL, false, "share of the traced operation owned by a named child span; at least 0.98"),
];

/// True when `workload` is one of the five.
pub fn is_workload(workload: &str) -> bool {
    WORKLOADS.iter().any(|w| w.name == workload)
}

/// The per-layer metrics `workload` declares, in table order.
pub fn declared(workload: &str) -> impl Iterator<Item = &'static PerLayer> + '_ {
    PER_LAYER
        .iter()
        .filter(move |m| m.workloads.contains(&workload))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(well_formed(n), "{n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn every_layer_metric_is_declared_by_a_known_workload() {
        for m in PER_LAYER {
            assert!(!m.workloads.is_empty(), "{} has no workload", m.name);
            assert!(m.workloads.iter().all(|w| is_workload(w)), "{}", m.name);
            assert!(m.unit.len() <= 16, "{}", m.name);
        }
        for w in WORKLOADS {
            assert!(w.why.len() <= 200, "{} why is too long", w.name);
            assert!(declared(w.name).count() > 5);
        }
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
    }
}
