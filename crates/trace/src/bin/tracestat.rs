//! `tracestat` — summarise a reference trace file.
//!
//! ```text
//! tracestat <file.trace> [--text] [--page-size BYTES] [--skip N] [--take N]
//! ```
//!
//! Reads the binary `TLBT` format, v1 or v2, by default (`--text` for
//! the line format) and prints footprint, PC count, read/write mix, and the
//! inter-page distance profile — the quantities that determine which
//! prefetching mechanism will work on the trace.

use std::process::ExitCode;

use tlbsim_core::{MemoryAccess, PageSize};
use tlbsim_trace::{TextTraceReader, Trace, TraceStats, TraceStreamExt};

struct Args {
    path: String,
    text: bool,
    page_size: PageSize,
    skip: u64,
    take: u64,
}

fn usage() -> &'static str {
    "usage: tracestat <file> [--text] [--page-size BYTES] [--skip N] [--take N]"
}

fn parse_args() -> Result<Args, String> {
    let mut path = None;
    let mut text = false;
    let mut page_size = PageSize::DEFAULT;
    let mut skip = 0u64;
    let mut take = u64::MAX;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--text" => text = true,
            "--page-size" => {
                let bytes: u64 = argv
                    .next()
                    .ok_or("--page-size needs a value")?
                    .parse()
                    .map_err(|e| format!("bad page size: {e}"))?;
                page_size = PageSize::new(bytes).map_err(|e| e.to_string())?;
            }
            "--skip" => {
                skip = argv
                    .next()
                    .ok_or("--skip needs a value")?
                    .parse()
                    .map_err(|e| format!("bad skip: {e}"))?;
            }
            "--take" => {
                take = argv
                    .next()
                    .ok_or("--take needs a value")?
                    .parse()
                    .map_err(|e| format!("bad take: {e}"))?;
            }
            "--help" | "-h" => return Err(usage().to_owned()),
            other if path.is_none() && !other.starts_with('-') => path = Some(other.to_owned()),
            other => return Err(format!("unexpected argument {other:?}\n{}", usage())),
        }
    }
    Ok(Args {
        path: path.ok_or(usage())?,
        text,
        page_size,
        skip,
        take,
    })
}

fn summarise(stats: &TraceStats) {
    println!("accesses             : {}", stats.accesses);
    println!("footprint            : {} pages", stats.footprint_pages);
    println!("distinct PCs         : {}", stats.distinct_pcs);
    println!("write fraction       : {:.3}", stats.write_fraction);
    println!("mean refs per page   : {:.1}", stats.mean_accesses_per_page);
    println!("page transitions     : {}", stats.transitions);
    println!("distinct distances   : {}", stats.distinct_distances());
    let mut top: Vec<(i64, u64)> = stats
        .distance_histogram
        .iter()
        .map(|(d, c)| (*d, *c))
        .collect();
    top.sort_by_key(|(_, c)| std::cmp::Reverse(*c));
    println!("top distances        :");
    for (d, count) in top.into_iter().take(8) {
        println!(
            "  {d:>8}  {count:>10}  ({:.1}%)",
            100.0 * count as f64 / stats.transitions.max(1) as f64
        );
    }
}

fn run(args: &Args) -> Result<(), String> {
    let stream = if args.text {
        let file = std::fs::File::open(&args.path).map_err(|e| format!("{}: {e}", args.path))?;
        TextTraceReader::open(file).collect::<Result<Vec<MemoryAccess>, _>>()
    } else {
        let trace = Trace::open(&args.path).map_err(|e| format!("{}: {e}", args.path))?;
        trace.cursor().collect()
    }
    .map_err(|e| e.to_string())?;
    let stats = TraceStats::from_stream(
        stream.into_iter().window(args.skip, args.take),
        args.page_size,
    );
    println!("trace                : {}", args.path);
    println!("page size            : {}", args.page_size);
    summarise(&stats);
    Ok(())
}

fn main() -> ExitCode {
    match parse_args() {
        Ok(args) => match run(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(message) => {
                eprintln!("{message}");
                ExitCode::FAILURE
            }
        },
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}
