//! Benchmark entry point:
//!
//! ```text
//! perfbench --workload grid|replay|mix|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints a human-readable report on standard error and, as the last
//! line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Exits non-zero on a wrong
//! output or any error.

use std::path::PathBuf;
use std::process::ExitCode;

use tlbsim_perfbench::spans::Tracer;
use tlbsim_perfbench::{
    grid, mix, replay, run_batch, serve, Ctx, Outcome, END_TO_END, LAYERS, PER_LAYER,
};

/// Scratch directory, relative to the checkout root the benchmark runs
/// from.
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} out of range"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn run(args: &Args) -> Result<(Outcome, Ctx), String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        tracer: Tracer::new(args.trace),
        out_dir: PathBuf::from(OUT_DIR),
    };
    let outcome = match args.workload.as_str() {
        "grid" => run_batch(&mut ctx, grid::setup),
        "replay" => run_batch(&mut ctx, replay::setup),
        "mix" => run_batch(&mut ctx, mix::setup),
        "serve" => serve::run(&mut ctx),
        other => Err(format!(
            "unknown workload {other:?} (grid, replay, mix, serve)"
        )),
    }?;
    Ok((outcome, ctx))
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (mut outcome, ctx) = match run(&args) {
        Ok(done) => done,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if ctx.traced() {
        tlbsim_perfbench::layer_self_times(&ctx.tracer, &mut outcome.metrics);
        let path = ctx.scratch(&args.workload, "spans.jsonl");
        if let Err(e) = ctx.tracer.write(&path) {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("spans written to {}", path.display());
    }
    // Print exactly the metrics this mode promises, each by name.
    let wanted: Vec<(String, &str)> = if ctx.traced() {
        PER_LAYER
            .iter()
            .map(|&(n, u)| (n.to_owned(), u))
            .chain(LAYERS.iter().map(|l| (format!("{l}.self_s"), "s")))
            .collect()
    } else {
        END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u)).collect()
    };
    let mut printed = tlbsim_perfbench::util::Metrics::default();
    for (name, unit) in wanted {
        match outcome.metrics.0.get(&name) {
            Some(&(value, got)) if got == unit => {
                eprintln!("{name:>38} = {value:<14.6} {unit}");
                printed.set(name, value, unit);
            }
            other => {
                eprintln!("perfbench: metric {name} missing or mis-typed: {other:?}");
                return ExitCode::FAILURE;
            }
        }
    }
    for (name, &(value, unit)) in &outcome.metrics.0 {
        if !printed.0.contains_key(name) {
            eprintln!("{name:>38} = {value:<14.6} {unit} (reported, not gated)");
        }
    }
    let json = match printed.to_json() {
        Ok(json) => json,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let tally = outcome.tally;
    let correct = tally.failed == 0 && tally.attempted > 0;
    eprintln!("input digest {:016x}", outcome.digest);
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {json}}}",
        tally.attempted, tally.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
