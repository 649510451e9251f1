//! The BayesPerf pipeline benchmark.
//!
//! ```text
//! perfbench --workload <saturated|paced_reads|fleet_scrape> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Prints progress to stderr and, as the last line of stdout, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! A run whose outputs fail the correctness checks prints no numbers and
//! exits with a non-zero code. See `README.md` for the workloads and the
//! metric definitions.

mod cpu;
mod pipeline;
mod stats;
mod trace;

use std::process::ExitCode;

/// The benchmark's workloads (names are part of its interface).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// KMeans, closed loop: capacity of the inference thread.
    Saturated,
    /// TeraSort, open loop at a fixed window rate, reads in between.
    PacedReads,
    /// PageRank on two shards fused by a scraper on a 1 ms cadence.
    FleetScrape,
}

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: u64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <saturated|paced_reads|fleet_scrape> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "saturated" => Workload::Saturated,
                    "paced_reads" => Workload::PacedReads,
                    "fleet_scrape" => Workload::FleetScrape,
                    _ => return Err(format!("unknown workload {value:?}")),
                })
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds {seconds} outside 1..=600"));
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What a finished, correct run reports.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted in the timed phase.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Metrics, in print order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    fn to_json(&self) -> Result<String, String> {
        let mut fields = Vec::with_capacity(self.metrics.len());
        for m in &self.metrics {
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite: {}", m.name, m.value));
            }
            fields.push(format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            fields.join(", ")
        ))
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match pipeline::run(&args).and_then(|o| o.to_json()) {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: run failed: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args("--workload fleet_scrape --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::FleetScrape);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12, true));
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload saturated --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload saturated --seed 1 --trace 0").is_err());
        assert!(args("--workload saturated --seed 1 --seconds 0 --trace 0").is_err());
    }

    #[test]
    fn json_has_the_contract_keys_and_rejects_non_finite_values() {
        let mut o = Outcome {
            attempted: 3,
            failed: 0,
            metrics: vec![Metric {
                name: "setup_s",
                value: 0.25,
                unit: "s",
            }],
        };
        assert_eq!(
            o.to_json().unwrap(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        o.metrics[0].value = f64::NAN;
        assert!(o.to_json().is_err());
    }
}
