//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload for `--seconds` of host time and prints a ledger,
//! then, as the last line, one JSON object with `correct`, `attempted`,
//! `failed` and the metrics: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. Exits 1 when an output check
//! fails and 2 on bad arguments.

use specfaas_perfbench::{ledger, run, Report, Size, Workload, DEFAULT_SEED};

fn usage(msg: &str) -> ! {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        names.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value)
                        .unwrap_or_else(|| usage(&format!("unknown workload `{value}`"))),
                )
            }
            "--seed" => {
                seed = value
                    .parse()
                    .unwrap_or_else(|_| usage("--seed takes an unsigned integer"))
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .unwrap_or_else(|| usage("--seconds takes a non-negative number"))
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            _ => usage(&format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));

    let rounds = run(workload, seed, Size::FULL, seconds, trace);
    let report = Report::new(workload, seed, &rounds, trace);
    print!("{}", ledger(workload, seed, &rounds, &report));
    println!("{}", report.json());
    if !report.correct {
        std::process::exit(1);
    }
}
