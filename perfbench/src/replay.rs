//! `replay`: one long seed-built v2 trace replayed by streaming window
//! under DP at two shards (`run_app_sharded`), plus one sequential
//! timing-engine pass over the same trace. Both run window by window:
//! each job replays one block-aligned slice of the trace, so jobs are
//! short and repeat many times in a run.
//!
//! The trace interleaves every large-footprint model under a seeded
//! random schedule, so its footprint is far above the
//! 128-entry TLB and the 256-row tables. Trace decode, the engine hit
//! path and `mem` timing dominate; `core` does little because only one
//! scheme runs.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use tlbsim_core::MemoryAccess;
use tlbsim_mem::TimingParams;
use tlbsim_service::JobSpec;
use tlbsim_sim::{run_app_sharded, run_app_timed, SimConfig, SimStats, TimingStats};
use tlbsim_trace::{BinaryTraceWriter, DecodePolicy, V2TraceWriter, DEFAULT_BLOCK_LEN};
use tlbsim_workloads::{MultiStreamSpec, Scale, Schedule, StreamSpec, TraceWorkload};

use crate::inputs::{self, Slice, LARGE_STRATA};
use crate::probes::ProbeSet;
use crate::spans::Tracer;
use crate::util::{secs, timed, Digest, Metrics, Rng, Tally};
use crate::{layer_counts, Batch, Ctx, Job, Round};

/// Generator scale of the interleaved models (about 2.3 M accesses),
/// and the argument trace replays ignore.
const SCALE: Scale = Scale::TINY;
const SHARDS: usize = 2;
/// Blocks mapped at once by the streaming replay.
const WINDOW_BLOCKS: u64 = 16;
/// Records per replay job: a whole number of two-block units, so the
/// even two-way split of a flat v1 slice falls on the v2 block boundary
/// and both formats replay each slice under the same shard plan.
const SLICE_RECORDS: u64 = 2 * 2 * DEFAULT_BLOCK_LEN as u64;

pub struct Replay {
    source: Arc<MultiStreamSpec>,
    records: u64,
    path: PathBuf,
    record_s: f64,
    trace: Arc<TraceWorkload>,
    slices: Vec<Slice>,
    config: SimConfig,
    /// Each slice's sharded and timed output from the first round.
    first: Option<Vec<(SimStats, TimingStats)>>,
}

/// The trace cut into consecutive `SLICE_RECORDS` slices.
fn slices(trace: &Arc<TraceWorkload>, records: u64) -> Vec<Slice> {
    (0..records / SLICE_RECORDS)
        .map(|i| Slice {
            inner: Arc::clone(trace) as Arc<dyn StreamSpec>,
            start: i * SLICE_RECORDS,
            len: SLICE_RECORDS,
        })
        .collect()
}

/// The seed-built source stream: every large-footprint model under a
/// seeded random schedule.
pub fn source(seed: u64) -> Result<MultiStreamSpec, String> {
    let mut rng = Rng::new(seed, 0x7e91);
    let apps = inputs::members(LARGE_STRATA);
    let schedule = Schedule::Random {
        seed: rng.next_u64(),
        min_quantum: 20_000,
        max_quantum: 80_000,
    };
    MultiStreamSpec::new(inputs::as_streams(&apps), schedule).map_err(|e| e.to_string())
}

/// Records kept: a whole number of slices.
pub fn record_count(source: &MultiStreamSpec) -> u64 {
    source.stream_len(SCALE) / SLICE_RECORDS * SLICE_RECORDS
}

/// Streams the first `records` accesses of `source` into `write`.
fn record_with(
    source: &MultiStreamSpec,
    records: u64,
    mut write: impl FnMut(&MemoryAccess) -> Result<(), String>,
) -> Result<(), String> {
    let mut workload = source.workload(SCALE);
    let mut buf = vec![MemoryAccess::read(0, 0); 4096];
    let mut left = records;
    while left > 0 {
        let want = left.min(buf.len() as u64) as usize;
        let n = workload.fill_batch(&mut buf[..want]);
        if n == 0 {
            return Err(format!("source ended {left} accesses early"));
        }
        for access in &buf[..n] {
            write(access)?;
        }
        left -= n as u64;
    }
    Ok(())
}

fn write_trace(
    source: &MultiStreamSpec,
    records: u64,
    path: &Path,
    v2: bool,
) -> Result<(), String> {
    let err = |e: &dyn std::fmt::Display| format!("{}: {e}", path.display());
    let file = std::io::BufWriter::new(std::fs::File::create(path).map_err(|e| err(&e))?);
    let mut file = if v2 {
        let mut w = V2TraceWriter::create(file).map_err(|e| err(&e))?;
        record_with(source, records, |a| w.write(a).map_err(|e| err(&e)))?;
        w.finish().map_err(|e| err(&e))?
    } else {
        let mut w = BinaryTraceWriter::create(file).map_err(|e| err(&e))?;
        record_with(source, records, |a| w.write(a).map_err(|e| err(&e)))?;
        w.finish().map_err(|e| err(&e))?
    };
    std::io::Write::flush(&mut file).map_err(|e| err(&e))
}

pub fn setup(ctx: &mut Ctx) -> Result<Replay, String> {
    let source = Arc::new(
        ctx.tracer
            .span("workloads.build_mix", 0, || source(ctx.seed))?,
    );
    let records = record_count(&source);
    let path = ctx.scratch("replay", "trace.tlbt");
    let (written, d) = ctx.tracer.span("trace.record_v2", 0, || {
        timed(|| write_trace(&source, records, &path, true))
    });
    written?;
    let trace = ctx
        .tracer
        .span("trace.open_streaming", 0, || {
            TraceWorkload::open_streaming(&path, DecodePolicy::Strict, WINDOW_BLOCKS)
        })
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let config = SimConfig::paper_default();
    // Warm-up: one sharded replay, which also faults the trace in.
    ctx.tracer
        .span("sim.run_app_sharded", 0, || {
            run_app_sharded(&trace, SCALE, &config, SHARDS)
        })
        .map_err(|e| e.to_string())?;
    let trace = Arc::new(trace);
    Ok(Replay {
        source,
        records,
        path,
        record_s: secs(d),
        slices: slices(&trace, records),
        trace,
        config,
        first: None,
    })
}

fn outputs_digest(outputs: &[(SimStats, TimingStats)]) -> u64 {
    let mut d = Digest::default();
    for (sharded, timing) in outputs {
        d.str(&format!("{sharded:?}")).str(&format!("{timing:?}"));
    }
    d.finish()
}

impl Batch for Replay {
    fn digest(&self) -> u64 {
        // The trace file is the generated input.
        let mut d = Digest::default();
        d.str("replay");
        match std::fs::read(&self.path) {
            Ok(bytes) => d.bytes(&bytes),
            Err(e) => d.str(&e.to_string()),
        };
        d.finish()
    }

    fn round(&mut self, t: &mut Tracer, tally: &mut Tally) -> Result<Round, String> {
        let mut jobs = Vec::new();
        let mut outputs = Vec::new();
        for (i, slice) in self.slices.iter().enumerate() {
            let (sharded, d_sharded) = t.span("sim.run_app_sharded", 2 * i as u64, || {
                timed(|| run_app_sharded(slice, SCALE, &self.config, SHARDS))
            });
            let sharded = sharded.map_err(|e| e.to_string())?.merged;
            let (timing, d_timing) = t.span("mem.run_app_timed", 2 * i as u64 + 1, || {
                timed(|| run_app_timed(slice, SCALE, &self.config, TimingParams::paper_default()))
            });
            let timing = timing.map_err(|e| e.to_string())?;
            tally.check(sharded.accesses == slice.len && timing.accesses == slice.len);
            jobs.push(Job {
                id: 2 * i,
                accesses: sharded.accesses,
                elapsed: d_sharded,
            });
            jobs.push(Job {
                id: 2 * i + 1,
                accesses: timing.accesses,
                elapsed: d_timing,
            });
            outputs.push((sharded, timing));
        }
        let round = Round {
            jobs,
            outputs: outputs_digest(&outputs),
        };
        self.first.get_or_insert(outputs);
        Ok(round)
    }

    fn finish(&mut self, t: &mut Tracer, tally: &mut Tally, m: &mut Metrics) -> Result<(), String> {
        let first = self.first.clone().ok_or("no round ran")?;
        // Oracle: the same stream regenerated into a flat v1 trace and
        // replayed slice by slice under the same (block-aligned)
        // two-shard plan.
        let v1_path = self.path.with_extension("v1.tlbt");
        t.span("trace.record_v1", 0, || {
            write_trace(&self.source, self.records, &v1_path, false)
        })?;
        let v1 =
            TraceWorkload::open(&v1_path).map_err(|e| format!("{}: {e}", v1_path.display()))?;
        let v1_slices = slices(&Arc::new(v1), self.records);
        for (slice, (sharded, timing)) in v1_slices.iter().zip(&first) {
            let oracle = t.span("sim.run_app_sharded_v1", 0, || {
                run_app_sharded(slice, SCALE, &self.config, SHARDS)
            });
            tally.check(oracle.map_err(|e| e.to_string())?.merged == *sharded);
            let oracle_timing = t.span("mem.run_app_timed_v1", 0, || {
                run_app_timed(slice, SCALE, &self.config, TimingParams::paper_default())
            });
            tally.check(oracle_timing.map_err(|e| e.to_string())? == *timing);
        }
        tally.check(v1_slices.len() == first.len());
        drop(v1_slices);
        std::fs::remove_file(&v1_path).map_err(|e| format!("{}: {e}", v1_path.display()))?;

        let stats: Vec<SimStats> = first.iter().map(|(s, _)| s.clone()).collect();
        let sum = |f: fn(&SimStats) -> u64| stats.iter().map(f).sum::<u64>() as f64;
        m.set(
            "sim_accuracy",
            sum(|s| s.prefetch_buffer_hits) / sum(|s| s.misses),
            "ratio",
        );
        m.set(
            "sim_miss_rate",
            sum(|s| s.misses) / sum(|s| s.accesses),
            "ratio",
        );
        let cycles: f64 = first.iter().map(|(_, t)| t.cycles).sum();
        let timed: u64 = first.iter().map(|(_, t)| t.accesses).sum();
        m.set("sim_cycles_per_access", cycles / timed as f64, "cycles");
        layer_counts(&stats, m);
        Ok(())
    }

    fn probes(&self) -> ProbeSet {
        let mut job = JobSpec::trace(self.path.to_string_lossy().into_owned());
        job.shards = 1;
        job.snapshot_every = 250_000;
        ProbeSet {
            streams: vec![Arc::clone(&self.trace) as Arc<dyn StreamSpec>],
            scale: SCALE,
            config: self.config.clone(),
            mix: None,
            trace: Some((self.path.clone(), self.record_s)),
            jobs: vec![job; 3],
        }
    }
}

impl Drop for Replay {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}
