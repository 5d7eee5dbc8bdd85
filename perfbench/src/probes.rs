//! Per-layer probes for the traced run.
//!
//! Each probe replays the workload's own inputs through one layer's
//! public entry point, inside a span named for that layer, so every
//! layer is profiled on every workload's inputs. The layer a workload
//! stresses is the one whose numbers should move with it; see the
//! table in `README.md`.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use tlbsim_core::{MemoryAccess, PrefetcherConfig, VirtAddr};
use tlbsim_experiments::paper_scheme_grid;
use tlbsim_mem::TimingParams;
use tlbsim_service::JobSpec;
use tlbsim_sim::{
    run_app, run_app_sharded, run_mix, Engine, SimConfig, SwitchPolicy, TimingEngine,
};
use tlbsim_trace::{V2Trace, V2TraceWriter};
use tlbsim_workloads::{MultiStreamSpec, Scale, Schedule, StreamSpec};

use crate::spans::Tracer;
use crate::util::{median, quantile, secs, timed, Metrics, Tally};
use crate::{serve, Ctx, FLOOR_QUANTILE};

/// Accesses the in-memory probes replay (taken evenly from the
/// workload's streams).
const PROBE_ACCESSES: usize = 1 << 20;
/// Repetitions of each timed probe; the fastest is reported.
const PROBE_REPS: usize = 5;
const CHUNK: usize = 4096;

/// What a workload hands the probes.
pub struct ProbeSet {
    pub streams: Vec<Arc<dyn StreamSpec>>,
    pub scale: Scale,
    /// The configuration the workload runs (its scheme).
    pub config: SimConfig,
    /// The workload's own interleave, if it has one.
    pub mix: Option<(Arc<MultiStreamSpec>, SwitchPolicy)>,
    /// The workload's own recorded trace and its recording time.
    pub trace: Option<(PathBuf, f64)>,
    /// Jobs for the service probe; empty when the workload measures
    /// the service itself.
    pub jobs: Vec<JobSpec>,
}

pub fn run(
    ctx: &mut Ctx,
    set: &ProbeSet,
    tally: &mut Tally,
    m: &mut Metrics,
) -> Result<(), String> {
    let t = &mut ctx.tracer;
    let accesses = materialize(t, set, m);
    engine_probes(t, set, &accesses, m)?;
    let probe_trace = ctx.scratch("probe", "trace.tlbt");
    trace_probe(&mut ctx.tracer, set, &accesses, &probe_trace, m)?;
    sim_probes(&mut ctx.tracer, set, tally, m)?;
    if !set.jobs.is_empty() {
        serve::probe_session(ctx, &set.jobs, tally, m)?;
    }
    Ok(())
}

/// Generator throughput (`Workload::fill_batch`) while collecting the
/// probe stream.
fn materialize(t: &mut Tracer, set: &ProbeSet, m: &mut Metrics) -> Vec<MemoryAccess> {
    let share = PROBE_ACCESSES / set.streams.len().max(1);
    let mut out = vec![MemoryAccess::read(0, 0); PROBE_ACCESSES];
    let mut filled = 0usize;
    let mut fill_time = 0.0;
    for stream in &set.streams {
        let mut workload = stream.workload(set.scale);
        let end = (filled + share).min(out.len());
        let span = t.enter("workloads.fill_batch", 0);
        let start = Instant::now();
        while filled < end {
            let want = (end - filled).min(CHUNK);
            let n = workload.fill_batch(&mut out[filled..filled + want]);
            if n == 0 {
                break;
            }
            filled += n;
        }
        fill_time += start.elapsed().as_secs_f64();
        t.exit(span);
    }
    out.truncate(filled);
    m.set(
        "workloads.fill_ns_per_access",
        fill_time * 1e9 / filled as f64,
        "ns",
    );
    out
}

/// Nanoseconds per access of one run of `f`, inside a span.
fn ns_once(
    t: &mut Tracer,
    name: &'static str,
    len: usize,
    f: impl FnOnce() -> Result<(), String>,
) -> Result<f64, String> {
    let (r, d) = t.span(name, 0, || timed(f));
    r?;
    Ok(secs(d) * 1e9 / len as f64)
}

/// Fastest ns per access of `f` over fresh repetitions, like the batch
/// workloads' job floors.
fn ns_per_access(
    t: &mut Tracer,
    name: &'static str,
    len: usize,
    mut f: impl FnMut() -> Result<(), String>,
) -> Result<f64, String> {
    let mut samples = Vec::new();
    for _ in 0..PROBE_REPS {
        samples.push(ns_once(t, name, len, &mut f)?);
    }
    Ok(quantile(&samples, FLOOR_QUANTILE))
}

/// `mmu`, `core`, `mem` and `sim` self cost on the same access batches.
/// The four probes take turns, so a slow spell of the host lands on all
/// of them rather than on one side of a subtraction.
fn engine_probes(
    t: &mut Tracer,
    set: &ProbeSet,
    accesses: &[MemoryAccess],
    m: &mut Metrics,
) -> Result<(), String> {
    let n = accesses.len();
    let base_cfg = set.config.clone().with_prefetcher(PrefetcherConfig::none());
    // The same references kept on one page: every access hits the most
    // recently used TLB entry, so the engine's own loop is most of what
    // is left.
    let one_page: Vec<MemoryAccess> = accesses
        .iter()
        .map(|a| MemoryAccess {
            vaddr: VirtAddr::new(0x1000),
            ..*a
        })
        .collect();
    let run_engine = |cfg: &SimConfig, accesses: &[MemoryAccess]| -> Result<(), String> {
        let mut engine = Engine::new(cfg).map_err(|e| e.to_string())?;
        for chunk in accesses.chunks(CHUNK) {
            engine.access_batch(std::hint::black_box(chunk));
        }
        std::hint::black_box(engine.stats());
        Ok(())
    };
    let mut timing_stats = None;
    let mut samples: [Vec<f64>; 4] = Default::default();
    for _ in 0..PROBE_REPS {
        samples[0].push(ns_once(t, "mmu.base_access_batch", n, || {
            run_engine(&base_cfg, accesses)
        })?);
        samples[1].push(ns_once(t, "core.scheme_access_batch", n, || {
            run_engine(&set.config, accesses)
        })?);
        samples[2].push(ns_once(t, "sim.one_page_access_batch", n, || {
            run_engine(&base_cfg, &one_page)
        })?);
        samples[3].push(ns_once(t, "mem.timing_access_batch", n, || {
            let mut engine = TimingEngine::new(&set.config, TimingParams::paper_default())
                .map_err(|e| e.to_string())?;
            // `run` batches through `access_batch` and also settles the
            // cycle count.
            timing_stats = Some(*engine.run(accesses.iter().copied()));
            Ok(())
        })?);
    }
    let [base, scheme, one_page_ns, timed_ns] = samples.map(|v| quantile(&v, FLOOR_QUANTILE));
    m.set("mmu.base_ns_per_access", base, "ns");
    m.set("core.scheme_ns_per_access", scheme - base, "ns");
    m.set("sim.access_batch_self_ns_per_access", one_page_ns, "ns");
    let s = timing_stats.ok_or("timing probe produced no statistics")?;
    let stalls = s.stall_demand + s.stall_inflight + s.stall_maintenance;
    let offered =
        (s.channel_fetches + s.prefetches_skipped_busy + s.prefetches_dropped_backlog) as f64;
    let ratio = |x: f64, of: f64| if of > 0.0 { x / of } else { 0.0 };
    m.set("mem.timed_ns_per_access", timed_ns, "ns");
    m.set("mem.stall_share", ratio(stalls, s.cycles), "ratio");
    m.set(
        "mem.skipped_busy_ratio",
        ratio(s.prefetches_skipped_busy as f64, offered),
        "ratio",
    );
    m.set(
        "mem.dropped_backlog_ratio",
        ratio(s.prefetches_dropped_backlog as f64, offered),
        "ratio",
    );
    Ok(())
}

/// Trace record/decode cost: the workload's own trace if it has one,
/// otherwise its probe stream recorded to a v2 trace here.
fn trace_probe(
    t: &mut Tracer,
    set: &ProbeSet,
    accesses: &[MemoryAccess],
    scratch: &PathBuf,
    m: &mut Metrics,
) -> Result<(), String> {
    let (path, record_s, remove) = match &set.trace {
        Some((path, record_s)) => (path.clone(), *record_s, false),
        None => {
            let span = t.enter("trace.record_v2", 0);
            let (r, d) = timed(|| write_v2(scratch, accesses));
            t.exit(span);
            r?;
            (scratch.clone(), secs(d), true)
        }
    };
    let trace = t
        .span("trace.open", 0, || V2Trace::open(&path))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let records = trace.record_count();
    let mut buf = vec![MemoryAccess::read(0, 0); CHUNK];
    let decode_ns = ns_per_access(t, "trace.decode_batch", records as usize, || {
        let mut cursor = trace.cursor();
        let mut total = 0u64;
        loop {
            let n = cursor.decode_batch(&mut buf).map_err(|e| e.to_string())?;
            if n == 0 {
                break;
            }
            total += n as u64;
        }
        std::hint::black_box(&buf);
        if total == records {
            Ok(())
        } else {
            Err(format!("decoded {total} of {records} records"))
        }
    })?;
    m.set("trace.decode_ns_per_record", decode_ns, "ns");
    m.set(
        "trace.bytes_per_record",
        trace.byte_len() as f64 / records as f64,
        "B",
    );
    m.set("trace.record_s", record_s, "s");
    drop(trace);
    if remove {
        std::fs::remove_file(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

/// Writes `accesses` as a v2 trace.
fn write_v2(path: &PathBuf, accesses: &[MemoryAccess]) -> Result<(), String> {
    let err = |e: &dyn std::fmt::Display| format!("{}: {e}", path.display());
    let file = std::fs::File::create(path).map_err(|e| err(&e))?;
    let mut writer = V2TraceWriter::create(std::io::BufWriter::new(file)).map_err(|e| err(&e))?;
    for access in accesses {
        writer.write(access).map_err(|e| err(&e))?;
    }
    let mut out = writer.finish().map_err(|e| err(&e))?;
    std::io::Write::flush(&mut out).map_err(|e| err(&e))
}

/// Engine set-up, sharding speed-up and multiprogramming overhead.
fn sim_probes(
    t: &mut Tracer,
    set: &ProbeSet,
    tally: &mut Tally,
    m: &mut Metrics,
) -> Result<(), String> {
    let mut setups = Vec::new();
    for cfg in paper_scheme_grid() {
        let cfg = set.config.clone().with_prefetcher(cfg);
        let (engine, d) = t.span("sim.engine_new", 0, || timed(|| Engine::new(&cfg)));
        drop(engine.map_err(|e| e.to_string())?);
        setups.push(secs(d) * 1e6);
    }
    m.set("sim.engine_setup_us", median(&setups), "us");

    let longest = set
        .streams
        .iter()
        .max_by_key(|s| s.stream_len(set.scale))
        .ok_or("no probe streams")?;
    let (seq, d_seq) = t.span("sim.run_app", 0, || {
        timed(|| run_app(longest.as_ref(), set.scale, &set.config))
    });
    let (sharded, d_sh) = t.span("sim.run_app_sharded", 0, || {
        timed(|| run_app_sharded(longest.as_ref(), set.scale, &set.config, 2))
    });
    let (seq, sharded) = (
        seq.map_err(|e| e.to_string())?,
        sharded.map_err(|e| e.to_string())?,
    );
    tally.check(seq.accesses == sharded.merged.accesses);
    m.set("sim.shard_speedup", secs(d_seq) / secs(d_sh), "ratio");

    let (mix, policy) = match &set.mix {
        Some((mix, policy)) => (Arc::clone(mix), *policy),
        None => {
            let mut streams = set.streams.clone();
            if streams.len() == 1 {
                streams.push(Arc::clone(&streams[0]));
            }
            let mix = MultiStreamSpec::new(streams, Schedule::RoundRobin { quantum: 4096 })
                .map_err(|e| e.to_string())?;
            (Arc::new(mix), SwitchPolicy::FlushOnSwitch)
        }
    };
    let (mixed, d_mix) = t.span("sim.run_mix", 0, || {
        timed(|| run_mix(&mix, set.scale, &set.config, policy))
    });
    let mixed = mixed.map_err(|e| e.to_string())?;
    let mut apart = 0.0;
    let mut apart_accesses = 0;
    for stream in mix.streams() {
        let (stats, d) = t.span("sim.run_app", 0, || {
            timed(|| run_app(stream.as_ref(), set.scale, &set.config))
        });
        apart_accesses += stats.map_err(|e| e.to_string())?.accesses;
        apart += secs(d);
    }
    tally.check(mixed.accesses == apart_accesses);
    m.set("sim.mix_overhead", secs(d_mix) / apart, "ratio");
    m.set(
        "sim.mix_switches",
        switches(&mix, set.scale) as f64,
        "count",
    );
    Ok(())
}

/// Context switches in an interleave: segment boundaries that change
/// stream.
pub fn switches(mix: &MultiStreamSpec, scale: Scale) -> u64 {
    let mut last = None;
    let mut count = 0;
    for segment in mix.segments(scale) {
        if last.is_some_and(|s| s != segment.stream) {
            count += 1;
        }
        last = Some(segment.stream);
    }
    count
}
