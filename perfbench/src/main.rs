//! `tracto-perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload and prints host facts, then one JSON result line:
//! end-to-end metrics with `--trace 0`, per-layer metrics with `--trace 1`.

use std::path::PathBuf;
use std::process::ExitCode;
use tracto_perfbench::host::HostFacts;
use tracto_perfbench::schedule::Workload;
use tracto_perfbench::{layers, workloads};

const USAGE: &str = "usage: tracto-perfbench --workload cold_step1|warm_track|socket_mix \
                     --seed N --seconds S --trace 0|1";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what} `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("seed"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("seconds"))?;
                seconds = Some(if s > 0.0 {
                    s
                } else {
                    return Err(bad("seconds"));
                });
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Working files under the current directory, removed when dropped.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("tracto-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Relative on purpose: Unix socket paths are limited to ~100 bytes.
    let work = WorkDir(PathBuf::from(format!(
        ".bench_work/{}-{}",
        args.workload.name(),
        std::process::id()
    )));
    let facts = HostFacts::start();
    let result = if args.trace {
        layers::run(args.workload, args.seed, args.seconds, &work.0)
    } else {
        workloads::run(args.workload, args.seed, args.seconds, &work.0)
    };
    drop(work);
    match result {
        Ok(report) => {
            println!("{}", facts.line());
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("tracto-perfbench: {}: {e}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}
