//! End-to-end benchmark of the scanpower workspace.
//!
//! Three workloads, each measured from outside the library through its
//! public entry points:
//!
//! * `table1` — the paper's Table I through `run_table1` (ATPG-bound);
//! * `structures` — the three scan structures on given test sets through
//!   `CircuitExperiment::try_evaluate_scheme_stats` (replay- and
//!   planning-bound, no ATPG);
//! * `serve_tcp` — the job service over loopback TCP through
//!   `ServeClient::run_job` (transport- and cache-bound).
//!
//! Run from the repository root:
//!
//! ```sh
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload table1 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1` (see `report.rs`).
//! The line before it holds the run's environment and every value it
//! measured. A traced run also writes its spans to
//! `.bench_trace/<workload>-seed<seed>.jsonl`.

mod common;
mod report;
mod serve_tcp;
mod stats;
mod structures;
mod table1;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use common::{nproc, RunConfig};

const USAGE: &str = "usage: perfbench --workload <table1|structures|serve_tcp> --seed <n> \
                     --seconds <n> --trace <0|1>";

fn parse_args() -> Result<(String, RunConfig), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not `{value}`"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
            },
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let missing = |name: &str| format!("missing --{name}");
    let seconds = seconds.ok_or_else(|| missing("seconds"))?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok((
        workload.ok_or_else(|| missing("workload"))?,
        RunConfig {
            seed: seed.ok_or_else(|| missing("seed"))?,
            window: Duration::from_secs(seconds),
            trace: trace.ok_or_else(|| missing("trace"))?,
        },
    ))
}

fn main() -> ExitCode {
    let (workload, cfg) = match parse_args() {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run = match workload.as_str() {
        "table1" => table1::run,
        "structures" => structures::run,
        "serve_tcp" => serve_tcp::run,
        other => {
            eprintln!("perfbench: unknown workload `{other}`\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "perfbench: {workload}, seed {}, {} s, trace {}, {} hardware threads",
        cfg.seed,
        cfg.window.as_secs(),
        u8::from(cfg.trace),
        nproc()
    );
    let mut report = run(&cfg);
    if cfg.trace {
        let path = PathBuf::from(".bench_trace").join(format!("{workload}-seed{}.jsonl", cfg.seed));
        if let Err(error) = trace::write_jsonl(report.spans(), &path) {
            report.fail_all(1, &format!("writing {}: {error}", path.display()));
        }
    }
    report.print(cfg.trace);
    ExitCode::SUCCESS
}
