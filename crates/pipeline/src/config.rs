//! Pipeline stage thresholds — HMMER 3.0's acceleration heuristics (§II).
//!
//! Each filter passes a sequence when its score's P-value (under the
//! calibrated null distribution) beats the stage threshold. HMMER 3.0's
//! defaults: MSV P < 0.02, Viterbi P < 10⁻³, Forward P < 10⁻⁵. Because
//! null P-values are uniform, a background-dominated database passes
//! ≈ 2% → ≈ 0.1% of sequences down the pipeline — which is precisely the
//! 100% → 2.2% → 0.1% funnel of the paper's Fig. 1.

/// Stage thresholds and reporting cutoff.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// MSV filter P-value threshold (HMMER's `--F1`).
    pub f1: f64,
    /// Viterbi filter P-value threshold (`--F2`).
    pub f2: f64,
    /// Forward P-value threshold (`--F3`).
    pub f3: f64,
    /// Report hits with E-value at or below this.
    pub report_evalue: f64,
    /// Apply the null2 biased-composition correction to Forward scores
    /// before P-values (HMMER applies it by default; here it is opt-in so
    /// raw-score comparisons across implementations stay exact).
    pub null2: bool,
    /// CPU worker threads for the sweep fan-out: `0` (the default) shares
    /// the process-global pool sized by `H3W_THREADS` / available
    /// parallelism; `n ≥ 1` gives this pipeline a dedicated `n`-thread
    /// pool. Hits, funnels, and reports are bit-identical at every
    /// setting — threads only change wall time.
    pub threads: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            f1: 0.02,
            f2: 1e-3,
            f3: 1e-5,
            report_evalue: 10.0,
            null2: false,
            threads: 0,
        }
    }
}

impl PipelineConfig {
    /// `--max` sensitivity mode: filters off, everything reaches Forward.
    pub fn max_sensitivity() -> Self {
        PipelineConfig {
            f1: 1.0,
            f2: 1.0,
            f3: 1.0,
            ..Default::default()
        }
    }

    /// Start a validated builder from the defaults. Struct-literal
    /// construction keeps working for code that knows what it wants; the
    /// builder is the entry point that rejects inconsistent settings
    /// before a sweep silently does something surprising with them.
    pub fn builder() -> PipelineConfigBuilder {
        PipelineConfigBuilder {
            config: PipelineConfig::default(),
        }
    }

    /// Validate field ranges: every P-value threshold in `(0, 1]`, the
    /// report E-value positive and finite, the thread count within the
    /// pool's ceiling. (Struct literals bypass this; the builder enforces
    /// it.)
    pub fn validate(&self) -> Result<(), ConfigError> {
        for (field, value) in [("f1", self.f1), ("f2", self.f2), ("f3", self.f3)] {
            if !(value.is_finite() && value > 0.0 && value <= 1.0) {
                return Err(ConfigError::Threshold { field, value });
            }
        }
        if !(self.report_evalue.is_finite() && self.report_evalue > 0.0) {
            return Err(ConfigError::ReportEvalue {
                value: self.report_evalue,
            });
        }
        if self.threads > h3w_cpu::h3w_pool::MAX_THREADS {
            return Err(ConfigError::Threads {
                requested: self.threads,
                max: h3w_cpu::h3w_pool::MAX_THREADS,
            });
        }
        Ok(())
    }
}

/// Why a [`PipelineConfigBuilder::build`] refused a configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// A P-value threshold outside `(0, 1]`.
    Threshold {
        /// Which threshold (`f1`..`f3`).
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A non-positive or non-finite report E-value.
    ReportEvalue {
        /// The rejected value.
        value: f64,
    },
    /// Thread count beyond the pool's hard ceiling
    /// (`0` = share the global pool, always accepted).
    Threads {
        /// The rejected thread count.
        requested: usize,
        /// The pool's `MAX_THREADS` ceiling.
        max: usize,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::Threshold { field, value } => {
                write!(f, "{field} must be a P-value in (0, 1], got {value}")
            }
            ConfigError::ReportEvalue { value } => {
                write!(f, "report E-value must be positive and finite, got {value}")
            }
            ConfigError::Threads { requested, max } => {
                write!(
                    f,
                    "thread count {requested} exceeds the pool maximum {max} (0 = auto)"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Validating builder for [`PipelineConfig`]; see
/// [`PipelineConfig::builder`].
#[derive(Debug, Clone)]
pub struct PipelineConfigBuilder {
    config: PipelineConfig,
}

impl PipelineConfigBuilder {
    /// MSV filter P-value threshold (`--F1`).
    pub fn f1(mut self, v: f64) -> Self {
        self.config.f1 = v;
        self
    }

    /// Viterbi filter P-value threshold (`--F2`).
    pub fn f2(mut self, v: f64) -> Self {
        self.config.f2 = v;
        self
    }

    /// Forward P-value threshold (`--F3`).
    pub fn f3(mut self, v: f64) -> Self {
        self.config.f3 = v;
        self
    }

    /// Report hits with E-value at or below this.
    pub fn report_evalue(mut self, v: f64) -> Self {
        self.config.report_evalue = v;
        self
    }

    /// Apply the null2 biased-composition correction.
    pub fn null2(mut self, on: bool) -> Self {
        self.config.null2 = on;
        self
    }

    /// CPU worker threads for the sweep fan-out (`0` = share the global
    /// pool sized by `H3W_THREADS` / available parallelism).
    pub fn threads(mut self, n: usize) -> Self {
        self.config.threads = n;
        self
    }

    /// Replace everything set so far with `--max` sensitivity mode.
    pub fn max_sensitivity(mut self) -> Self {
        self.config = PipelineConfig::max_sensitivity();
        self
    }

    /// Validate and produce the configuration.
    pub fn build(self) -> Result<PipelineConfig, ConfigError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_hmmer3() {
        let c = PipelineConfig::default();
        assert_eq!(c.f1, 0.02);
        assert_eq!(c.f2, 1e-3);
        assert_eq!(c.f3, 1e-5);
    }

    #[test]
    fn max_mode_disables_filters() {
        let c = PipelineConfig::max_sensitivity();
        assert_eq!(c.f1, 1.0);
        assert_eq!(c.f2, 1.0);
        assert_eq!(c.f3, 1.0);
    }

    #[test]
    fn builder_defaults_equal_struct_defaults() {
        assert_eq!(
            PipelineConfig::builder().build().unwrap(),
            PipelineConfig::default()
        );
        assert_eq!(
            PipelineConfig::builder().max_sensitivity().build().unwrap(),
            PipelineConfig::max_sensitivity()
        );
    }

    #[test]
    fn builder_rejects_out_of_range_thresholds() {
        for bad in [0.0, -0.1, 1.5, f64::NAN, f64::INFINITY] {
            let err = PipelineConfig::builder().f1(bad).build().unwrap_err();
            assert!(
                matches!(err, ConfigError::Threshold { field: "f1", .. }),
                "f1 = {bad}: {err}"
            );
        }
        // P = 1.0 (filter off) is in range.
        assert!(PipelineConfig::builder()
            .f1(1.0)
            .f2(1.0)
            .f3(1.0)
            .build()
            .is_ok());
        let err = PipelineConfig::builder()
            .report_evalue(-1.0)
            .build()
            .unwrap_err();
        assert!(matches!(err, ConfigError::ReportEvalue { .. }));
    }

    #[test]
    fn builder_rejects_threads_beyond_pool_ceiling() {
        use h3w_cpu::h3w_pool::MAX_THREADS;
        let err = PipelineConfig::builder()
            .threads(MAX_THREADS + 1)
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::Threads {
                requested: MAX_THREADS + 1,
                max: MAX_THREADS
            }
        );
        // 0 = shared global pool, explicit small counts, and the ceiling
        // itself are all valid.
        assert_eq!(
            PipelineConfig::builder()
                .threads(0)
                .build()
                .unwrap()
                .threads,
            0
        );
        assert_eq!(
            PipelineConfig::builder()
                .threads(4)
                .build()
                .unwrap()
                .threads,
            4
        );
        assert!(PipelineConfig::builder()
            .threads(MAX_THREADS)
            .build()
            .is_ok());
    }

    #[test]
    fn config_errors_render_for_cli_use() {
        // guarded_main prints these verbatim; each must name the field.
        let e = ConfigError::Threshold {
            field: "f2",
            value: 2.0,
        };
        assert!(e.to_string().contains("f2"));
        let e = ConfigError::ReportEvalue { value: -3.0 };
        assert!(e.to_string().contains("-3"));
        let e = ConfigError::Threads {
            requested: 1000,
            max: 512,
        };
        assert!(e.to_string().contains("1000") && e.to_string().contains("512"));
    }
}
