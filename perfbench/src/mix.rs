//! `mix`: a flush-free ASID multiprogram (`run_mix` under
//! `SwitchPolicy::Asid`). Thirty-four streams run under a seeded random
//! schedule with only eight live contexts, so least-recently-used
//! contexts are evicted. Many short segments, tag swaps and per-stream
//! attribution exercise `sim` differently from the long single-stream
//! runs of `grid` and `replay`. Each stream is the head of a model, so
//! one interleave is a short job that repeats many times in a run.

use std::sync::Arc;

use tlbsim_mem::TimingParams;
use tlbsim_service::JobSpec;
use tlbsim_sim::{run_app_timed, run_mix, SimConfig, SimStats, SwitchPolicy, TablePolicy};
use tlbsim_workloads::{AppSpec, MultiStreamSpec, Scale, Schedule, StreamSpec};

use crate::inputs::{self, Slice, STRATA};
use crate::probes::ProbeSet;
use crate::spans::Tracer;
use crate::util::{timed, Digest, Metrics, Rng, Tally};
use crate::{layer_counts, Batch, Ctx, Job, Round};

const SCALE: Scale = Scale::TINY;
/// Accesses taken from the head of each stream: one interleave is
/// about 2 ms of simulation, short enough that its fastest repeat is
/// steady on a shared host.
const SLICE: u64 = 1_000;
const POLICY: SwitchPolicy = SwitchPolicy::Asid {
    contexts: 8,
    tables: TablePolicy::Shared,
};

pub struct Mix {
    apps: Vec<&'static AppSpec>,
    spec: Arc<MultiStreamSpec>,
    config: SimConfig,
    first: Option<SimStats>,
}

/// The streams (every stratum model) and the seed's schedule. The seed
/// draws the schedule only: with models drawn per seed, the run time of
/// the interleave moved with the models a seed happened to pick.
pub fn build(seed: u64) -> Result<(Vec<&'static AppSpec>, MultiStreamSpec), String> {
    let mut rng = Rng::new(seed, 0x3a1c);
    let apps = inputs::members(0..STRATA.len());
    let streams = apps
        .iter()
        .map(|&app| {
            // From the start: a generator skips visit by visit, which
            // would bill the job for accesses it never simulates.
            Arc::new(Slice {
                inner: Arc::new(app),
                start: 0,
                len: SLICE,
            }) as Arc<dyn StreamSpec>
        })
        .collect();
    let schedule = Schedule::Random {
        seed: rng.next_u64(),
        min_quantum: 125,
        max_quantum: 625,
    };
    let spec = MultiStreamSpec::new(streams, schedule).map_err(|e| e.to_string())?;
    Ok((apps, spec))
}

pub fn digest_of(apps: &[&'static AppSpec], spec: &MultiStreamSpec) -> u64 {
    let mut d = Digest::default();
    d.str("mix");
    for app in apps {
        d.str(app.name);
    }
    for segment in spec.segments(SCALE) {
        d.u64(segment.stream as u64)
            .u64(segment.start)
            .u64(segment.len);
    }
    d.finish()
}

pub fn setup(ctx: &mut Ctx) -> Result<Mix, String> {
    let (apps, spec) = ctx
        .tracer
        .span("workloads.build_mix", 0, || build(ctx.seed))?;
    let config = SimConfig::paper_default();
    // Warm-up: one run of the interleave.
    ctx.tracer
        .span("sim.run_mix", 0, || run_mix(&spec, SCALE, &config, POLICY))
        .map_err(|e| e.to_string())?;
    Ok(Mix {
        apps,
        spec: Arc::new(spec),
        config,
        first: None,
    })
}

impl Batch for Mix {
    fn digest(&self) -> u64 {
        digest_of(&self.apps, &self.spec)
    }

    fn round(&mut self, t: &mut Tracer, tally: &mut Tally) -> Result<Round, String> {
        let (stats, elapsed) = t.span("sim.run_mix", 0, || {
            timed(|| run_mix(&self.spec, SCALE, &self.config, POLICY))
        });
        let stats = stats.map_err(|e| e.to_string())?;
        // Attribution is exhaustive: each stream's share is exactly its
        // own length, and the shares sum to the aggregate.
        let shares = stats.per_stream.streams();
        let exact = shares.len() == self.spec.streams().len()
            && shares
                .iter()
                .zip(self.spec.streams())
                .all(|(s, stream)| s.accesses == stream.stream_len(SCALE));
        let misses: u64 = shares.iter().map(|s| s.misses).sum();
        tally.check(exact && misses == stats.misses);
        let round = Round {
            jobs: vec![Job {
                id: 0,
                accesses: stats.accesses,
                elapsed,
            }],
            outputs: Digest::default().str(&format!("{stats:?}")).finish(),
        };
        self.first.get_or_insert(stats);
        Ok(round)
    }

    fn finish(
        &mut self,
        t: &mut Tracer,
        _tally: &mut Tally,
        m: &mut Metrics,
    ) -> Result<(), String> {
        let stats = self.first.as_ref().ok_or("no round ran")?;
        m.set("sim_accuracy", stats.accuracy(), "ratio");
        m.set("sim_miss_rate", stats.miss_rate(), "ratio");
        layer_counts(std::slice::from_ref(stats), m);
        // Simulated time of the interleaved reference stream.
        let timing = t.span("mem.run_app_timed", 0, || {
            run_app_timed(
                self.spec.as_ref(),
                SCALE,
                &self.config,
                TimingParams::paper_default(),
            )
        });
        let timing = timing.map_err(|e| e.to_string())?;
        m.set(
            "sim_cycles_per_access",
            timing.cycles / timing.accesses as f64,
            "cycles",
        );
        Ok(())
    }

    fn probes(&self) -> ProbeSet {
        let names: Vec<&str> = self.apps.iter().map(|a| a.name).collect();
        let mut jobs: Vec<JobSpec> = names
            .chunks(4)
            .take(3)
            .map(|chunk| {
                let mut job = JobSpec::mix(chunk.iter().copied(), 4096);
                job.scale = SCALE;
                job.shards = 1;
                job.switch_policy = SwitchPolicy::Asid {
                    contexts: 2,
                    tables: TablePolicy::Shared,
                };
                job
            })
            .collect();
        jobs.extend(names.iter().take(3).map(|name| {
            let mut job = JobSpec::app(*name);
            job.scale = SCALE;
            job.shards = 1;
            job
        }));
        ProbeSet {
            streams: self.spec.streams().to_vec(),
            scale: SCALE,
            config: self.config.clone(),
            mix: Some((Arc::clone(&self.spec), POLICY)),
            trace: None,
            jobs,
        }
    }
}
