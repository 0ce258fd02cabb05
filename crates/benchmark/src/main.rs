//! Command line of the benchmark. See `README.md` beside this crate.

use h3w_benchmark::driver::{self, Config};
use h3w_benchmark::{compare, metrics, phases, workloads};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
usage:
  h3w-benchmark all [--seed S] [--scale F] [--out DIR] [--seconds X] [--reps N]
      run every workload; print every metric by name with its unit
  h3w-benchmark compare A.json B.json
      judge two result files of `all` against the benchmark's own bounds
  h3w-benchmark --workload NAME --seed N --seconds X --trace 0|1
      the BENCHMARK.json contract: one workload, one JSON result line
  h3w-benchmark setup|run|layers --workload NAME --dir DIR [...]
      one phase of one workload (what the driver runs as child processes)
  h3w-benchmark manifest
      print BENCHMARK.json as the metric and workload tables define it";

/// `--flag value` pairs and bare words, in order.
struct Args {
    words: Vec<String>,
    flags: Vec<(String, String)>,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args {
            words: Vec::new(),
            flags: Vec::new(),
        };
        let mut it = argv.iter();
        while let Some(arg) = it.next() {
            if arg.starts_with("--") {
                let value = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
                args.flags.push((arg.clone(), value.clone()));
            } else {
                args.words.push(arg.clone());
            }
        }
        Ok(args)
    }

    fn flag(&self, name: &str) -> Option<&str> {
        let found = self.flags.iter().find(|(flag, _)| flag == name);
        found.map(|(_, value)| value.as_str())
    }

    fn value<T: std::str::FromStr>(&self, name: &str, default: Option<T>) -> Result<T, String> {
        match (self.flag(name), default) {
            (Some(text), _) => text
                .parse()
                .map_err(|_| format!("{name}: cannot read {text:?}")),
            (None, Some(default)) => Ok(default),
            (None, None) => Err(format!("{name} is required")),
        }
    }

    fn workload(&self) -> Result<&str, String> {
        let name = self.flag("--workload").ok_or("--workload is required")?;
        if metrics::is_workload(name) {
            Ok(name)
        } else {
            let known: Vec<&str> = metrics::WORKLOADS.iter().map(|w| w.name).collect();
            Err(format!(
                "unknown workload {name:?}; one of {}",
                known.join(", ")
            ))
        }
    }

    fn only_flags(&self, allowed: &[&str]) -> Result<(), String> {
        match self
            .flags
            .iter()
            .find(|(f, _)| !allowed.contains(&f.as_str()))
        {
            Some((flag, _)) => Err(format!("unknown flag {flag}")),
            None => Ok(()),
        }
    }
}

fn positive(name: &str, value: f64) -> Result<f64, String> {
    if value.is_finite() && value > 0.0 {
        Ok(value)
    } else {
        Err(format!("{name} must be a positive number"))
    }
}

/// Dispatch; `Ok(false)` means the command ran and found a failure
/// (a differing hit list, a regression).
fn run(argv: &[String]) -> Result<bool, String> {
    let args = Args::parse(argv)?;
    let command = args.words.first().map(String::as_str);
    match command {
        None if args.flag("--workload").is_some() => {
            args.only_flags(&["--workload", "--seed", "--seconds", "--trace"])?;
            let trace = match args.value::<u8>("--trace", None)? {
                0 => false,
                1 => true,
                other => return Err(format!("--trace is 0 or 1, not {other}")),
            };
            driver::contract(
                args.workload()?,
                args.value("--seed", None)?,
                args.value("--seconds", None)?,
                trace,
            )
        }
        Some("all") => {
            args.only_flags(&["--seed", "--scale", "--out", "--seconds", "--reps"])?;
            let cfg = Config {
                seed: args.value("--seed", Some(1))?,
                scale: positive(
                    "--scale",
                    args.value("--scale", Some(workloads::DEFAULT_SCALE))?,
                )?,
                seconds: args.value("--seconds", Some(driver::RUN_SECONDS))?,
                min_reps: args.value("--reps", Some(driver::MIN_REPS))?,
                out: args
                    .flag("--out")
                    .map_or_else(driver::default_out, PathBuf::from),
            };
            driver::all(&cfg)
        }
        Some("manifest") => {
            print!("{}", driver::manifest().pretty());
            Ok(true)
        }
        Some("compare") => match args.words.as_slice() {
            [_, a, b] => compare::compare(Path::new(a), Path::new(b)),
            _ => Err("compare takes two result files".to_string()),
        },
        Some(phase @ ("setup" | "run" | "layers")) => {
            let workload = args.workload()?;
            let dir = PathBuf::from(args.flag("--dir").ok_or("--dir is required")?);
            match phase {
                "setup" => phases::setup(
                    workload,
                    &dir,
                    args.value("--seed", None)?,
                    positive("--scale", args.value("--scale", None)?)?,
                ),
                "run" => phases::run(
                    workload,
                    &dir,
                    args.value("--seconds", None)?,
                    args.value("--reps", None)?,
                ),
                _ => phases::layers(workload, &dir),
            }
            .map(|()| true)
        }
        _ => Err("no such command".to_string()),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("h3w-benchmark: {msg}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
