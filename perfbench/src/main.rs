//! `perfbench --workload <crowd_sagg|serve_durable|mixed_open> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The work done is fixed by the arguments: `--seconds` sets
//! how many queries a run issues (at the workload's nominal rate on a
//! 2-core machine), never a deadline. A wrong result aborts the run with a
//! non-zero exit code and no result line.

use std::process::ExitCode;

use perfbench::report::json_line;
use perfbench::workloads::{crowd_sagg, mixed_open, serve_durable, Config, Trace, Workload};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: {value:?} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// The fixed size of a run: population, queries per nominal second and
/// set-up repetitions per workload.
fn config(args: &Args) -> Result<(Config, Workload), String> {
    let trace = if args.trace { Trace::Split } else { Trace::Off };
    let s = args.seconds as f64;
    let sized = |n_tds: usize, per_s: f64, setups: usize| Config {
        seed: args.seed,
        n_tds,
        queries: ((per_s * s).round() as usize).max(1),
        setups,
        rate_per_s: per_s,
        trace,
        fingerprints: false,
    };
    let run: Workload = match args.workload.as_str() {
        "crowd_sagg" => crowd_sagg,
        "serve_durable" => serve_durable,
        "mixed_open" => mixed_open,
        other => return Err(format!("unknown workload {other:?}")),
    };
    let cfg = match args.workload.as_str() {
        "crowd_sagg" => sized(10_000, 5.0, 7),
        "serve_durable" => sized(500, 5.0, 11),
        _ => sized(200, 4.0, 25),
    };
    Ok((cfg, run))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (cfg, run) = match config(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&cfg) {
        Ok(result) => {
            let o = &result.outcome;
            let metrics = if args.trace {
                &o.per_layer
            } else {
                &o.end_to_end
            };
            for (name, value, unit) in metrics.iter() {
                eprintln!("{name:<34} {value:>14.4} {unit}");
            }
            println!("{}", json_line(o, metrics));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
