//! The evoflow benchmark.
//!
//! Three closed-loop workloads, each driven from one process by one
//! client that issues its next unit of work only after the previous one
//! returns:
//!
//! * [`discovery`] — surrogate-backed campaigns back to back (the decide
//!   loop: RBF kernel, planner `propose`, KG/PROV ingest).
//! * [`audit`] — record a cheap-planner fleet, persist it as EVWL bytes,
//!   decode it, and replay it (the ledger write and read paths).
//! * [`service`] — multi-tenant `run_service` sessions on every core
//!   (admission planning, the fleet executor, ledger merging).
//!
//! A timed run (`--trace 0`) reports the end-to-end metrics of
//! [`report::END_TO_END`]. A traced run (`--trace 1`) repeats the same
//! units untraced and then traced, records spans from this crate's own
//! code around every public call, probes each layer on the
//! inputs the traced pass captured, and reports the per-layer metrics of
//! [`report::PER_LAYER`]. See `README.md` next to this crate for the
//! metric map and the pitfalls the benchmark sidesteps.

pub mod audit;
pub mod discovery;
mod layers;
pub mod report;
pub mod service;
mod trace;

use evoflow_core::PlannerKind;

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Workload seed: every input is derived from it.
    pub seed: u64,
    /// Measured seconds (whole passes over the workload's deck are run
    /// until at least this much wall time has elapsed).
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of a timed run.
    pub trace: bool,
}

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Surrogate-backed campaigns back to back.
    Discovery,
    /// Record → persist → decode → replay cycles.
    Audit,
    /// Multi-tenant service sessions.
    Service,
}

impl Workload {
    /// Stable name, as passed to `--workload`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Discovery => "discovery",
            Workload::Audit => "audit",
            Workload::Service => "service",
        }
    }

    /// Parse a `--workload` value.
    pub fn parse(s: &str) -> Option<Workload> {
        [Workload::Discovery, Workload::Audit, Workload::Service]
            .into_iter()
            .find(|w| w.name() == s)
    }
}

impl Args {
    /// Parse `--workload <name> --seed <n> --seconds <n> --trace <0|1>`.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    )
                }
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
                "--seconds" => {
                    seconds = Some(
                        value
                            .parse::<u64>()
                            .ok()
                            .filter(|s| *s >= 1)
                            .ok_or_else(|| format!("bad seconds {value:?}"))?,
                    )
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                    })
                }
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.unwrap_or(false),
        })
    }
}

/// The planners with no surrogate model, which `audit` and `service`
/// run.
pub fn cheap_planners() -> [PlannerKind; 5] {
    [
        PlannerKind::Grid,
        PlannerKind::Adaptive,
        PlannerKind::Evidence,
        PlannerKind::bandit(),
        PlannerKind::swarm(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = Args::parse(&argv("--workload audit --seed 42 --seconds 20 --trace 1"))
            .expect("parses");
        assert_eq!(
            a,
            Args {
                workload: Workload::Audit,
                seed: 42,
                seconds: 20,
                trace: true
            }
        );
        let a = Args::parse(&argv("--seconds 5 --seed 1 --workload service")).expect("parses");
        assert!(!a.trace);
    }

    #[test]
    fn refuses_bad_arguments() {
        for bad in [
            "--workload nope --seed 1 --seconds 1",
            "--workload audit --seconds 1",
            "--workload audit --seed x --seconds 1",
            "--workload audit --seed 1 --seconds 0",
            "--workload audit --seed 1 --seconds 1 --trace yes",
            "--workload audit --seed 1 --seconds 1 --extra 3",
            "--workload",
        ] {
            assert!(Args::parse(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in [Workload::Discovery, Workload::Audit, Workload::Service] {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
    }
}
