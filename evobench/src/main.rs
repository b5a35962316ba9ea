//! `evobench --workload <discovery|audit|service> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Prints the host fingerprint, workload notes, every metric as
//! `metric <name> <value> <unit>`, and as its last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. Exits non-zero,
//! without a result line, when the arguments are bad or a metric cannot
//! be measured.

use evobench::report::{self, Metric};
use evobench::{audit, discovery, service, Args, Workload};
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("evobench: {e}");
            eprintln!("usage: evobench --workload <discovery|audit|service> --seed <n> --seconds <n> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    println!("{}", report::host_fingerprint());
    println!(
        "run workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let outcome = match args.workload {
        Workload::Discovery => discovery::run(&args),
        Workload::Audit => audit::run(&args),
        Workload::Service => service::run(&args),
    };
    let outcome =
        match outcome.and_then(|o| report::check_metric_set(&o.metrics, args.trace).map(|_| o)) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("evobench: {e}");
                return ExitCode::FAILURE;
            }
        };
    for line in &outcome.notes {
        println!("{line}");
    }
    let failed_share = Metric {
        name: "failed_share",
        value: outcome.failed_share(),
        unit: "share",
    };
    for m in outcome
        .metrics
        .iter()
        .chain(&outcome.extra)
        .chain([&failed_share])
    {
        println!("metric {} {:?} {}", m.name, m.value, m.unit);
    }
    println!("{}", report::result_line(&outcome));
    ExitCode::SUCCESS
}
