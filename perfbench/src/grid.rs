//! `grid`: the paper's 30-cell scheme grid over one application model
//! per footprint stratum, run as a closed batch through `sim::sweep`.
//!
//! Footprints range from below TLB reach to far above it. Each cell
//! runs the head of its model, so a job takes under a millisecond and
//! repeats dozens of times in a run. The seed draws each model's base
//! address. Generators (`workloads`) and the prefetcher tables (`core`)
//! do most of the work; there is no trace decode and no service.

use std::sync::Arc;

use tlbsim_experiments::paper_scheme_grid;
use tlbsim_mem::TimingParams;
use tlbsim_service::JobSpec;
use tlbsim_sim::{run_app, run_app_timed, sweep, SimConfig, SimStats, SweepJob};
use tlbsim_workloads::{AppSpec, Scale, StreamSpec};

use crate::inputs::{self, Relocated, Slice, STRATA};
use crate::probes::ProbeSet;
use crate::spans::Tracer;
use crate::util::{timed, Digest, Metrics, Rng, Tally};
use crate::{layer_counts, Batch, Ctx, Job, Round};

const SCALE: Scale = Scale::TINY;
/// Accesses taken from the head of each model: under a millisecond of
/// simulation. The fastest of many such repeats is steady on a shared
/// host, where the fastest of a few 20 ms runs still moves with the
/// other tenants' load.
const HEAD: u64 = 8_192;

pub struct Grid {
    apps: Vec<&'static AppSpec>,
    /// The seed's base-address offset of each model, in `apps` order.
    offsets: Vec<u64>,
    /// The relocated head of each model, in `apps` order.
    heads: Vec<Arc<dyn StreamSpec>>,
    /// The grid's cells, scheme-major; each is a job of its own.
    cells: Vec<SweepJob>,
    /// Every cell's output from the first round, in `cells` order.
    first: Option<Vec<SimStats>>,
}

/// The models: the first of every stratum. They are fixed because the
/// twins in a stratum differ in cost by up to 15 %, so models drawn per
/// seed would move the 90th-percentile cell with the seed.
fn models() -> Vec<&'static AppSpec> {
    STRATA.iter().map(|stratum| inputs::app(stratum[0])).collect()
}

/// The seed's base-address offset of each model: a whole number of
/// pages below 4 GiB.
pub fn offsets(seed: u64) -> Vec<u64> {
    let mut rng = Rng::new(seed, 0x6721);
    STRATA.iter().map(|_| rng.below(1 << 20) << 12).collect()
}

pub fn setup(ctx: &mut Ctx) -> Result<Grid, String> {
    let apps = models();
    let offsets = offsets(ctx.seed);
    let heads: Vec<Arc<dyn StreamSpec>> = apps
        .iter()
        .zip(&offsets)
        .map(|(&app, &offset)| {
            // From the start: a generator skips visit by visit, which
            // would bill the job for accesses it never simulates.
            let head = Slice {
                inner: Arc::new(app),
                start: 0,
                len: HEAD,
            };
            Arc::new(Relocated {
                inner: Arc::new(head),
                offset,
            }) as Arc<dyn StreamSpec>
        })
        .collect();
    let schemes = paper_scheme_grid();
    let cells: Vec<SweepJob> = ctx.tracer.span("workloads.build_jobs", 0, || {
        schemes
            .iter()
            .flat_map(|scheme| {
                heads.iter().map(move |head| SweepJob {
                    tag: format!("{}/{}", head.name(), scheme.label()),
                    spec: Arc::clone(head),
                    scale: SCALE,
                    config: SimConfig::paper_default().with_prefetcher(scheme.clone()),
                })
            })
            .collect()
    });
    // Warm-up: every cell once, so lazy set-up is done before timing
    // starts.
    ctx.tracer
        .span("sim.sweep", 0, || sweep(cells.clone()))
        .map_err(|e| e.to_string())?;
    Ok(Grid {
        apps,
        offsets,
        heads,
        cells,
        first: None,
    })
}

pub fn digest_of(apps: &[&'static AppSpec], offsets: &[u64]) -> u64 {
    let mut d = Digest::default();
    d.str("grid").u64(HEAD);
    for (app, &offset) in apps.iter().zip(offsets) {
        d.str(app.name).u64(offset);
    }
    for scheme in paper_scheme_grid() {
        d.str(&scheme.label());
    }
    d.finish()
}

fn outputs_digest(stats: &[SimStats]) -> u64 {
    let mut d = Digest::default();
    for s in stats {
        d.str(&format!("{s:?}"));
    }
    d.finish()
}

impl Batch for Grid {
    fn digest(&self) -> u64 {
        digest_of(&self.apps, &self.offsets)
    }

    fn round(&mut self, t: &mut Tracer, _tally: &mut Tally) -> Result<Round, String> {
        let mut stats = Vec::new();
        let mut timed_jobs = Vec::new();
        // A job is one cell: a single-cell `sweep` runs it on one
        // worker. The fastest repeat of a one-thread job lands in a gap
        // in the other tenants' load on either core; a two-thread job
        // needs both cores free at once, and its fastest repeat moves
        // with their load.
        for (id, cell) in self.cells.iter().enumerate() {
            let (results, elapsed) =
                t.span("sim.sweep", id as u64, || timed(|| sweep(vec![cell.clone()])));
            let results = results.map_err(|e| e.to_string())?;
            timed_jobs.push(Job {
                id,
                accesses: results.iter().map(|r| r.stats.accesses).sum(),
                elapsed,
            });
            stats.extend(results.into_iter().map(|r| r.stats));
        }
        let round = Round {
            jobs: timed_jobs,
            outputs: outputs_digest(&stats),
        };
        self.first.get_or_insert(stats);
        Ok(round)
    }

    fn finish(&mut self, t: &mut Tracer, tally: &mut Tally, m: &mut Metrics) -> Result<(), String> {
        let first = self.first.as_ref().ok_or("no round ran")?;
        // Oracle: every cell run sequentially through run_app, spread
        // over two threads.
        let cells = &self.cells;
        let oracle: Vec<Result<SimStats, String>> = t.span("sim.run_app_oracle", 0, || {
            let mut out: Vec<Option<Result<SimStats, String>>> = vec![None; cells.len()];
            std::thread::scope(|scope| {
                let (even, odd): (Vec<_>, Vec<_>) =
                    out.iter_mut().enumerate().partition(|(i, _)| i % 2 == 0);
                for half in [even, odd] {
                    scope.spawn(move || {
                        for (i, slot) in half {
                            let job = &cells[i];
                            *slot = Some(
                                run_app(job.spec.as_ref(), job.scale, &job.config)
                                    .map_err(|e| e.to_string()),
                            );
                        }
                    });
                }
            });
            out.into_iter()
                .map(|s| s.unwrap_or_else(|| Err("oracle cell not run".into())))
                .collect()
        });
        for (cell, expected) in first.iter().zip(&oracle) {
            tally.check(expected.as_ref().is_ok_and(|e| e == cell));
        }
        tally.check(first.len() == oracle.len());

        let sum = |f: fn(&SimStats) -> u64| first.iter().map(f).sum::<u64>() as f64;
        let (accesses, misses) = (sum(|s| s.accesses), sum(|s| s.misses));
        let hits = sum(|s| s.prefetch_buffer_hits);
        m.set("sim_accuracy", hits / misses, "ratio");
        m.set("sim_miss_rate", misses / accesses, "ratio");
        layer_counts(first, m);

        // Simulated time: each model head through the timing engine
        // under the paper's representative scheme (DP).
        let config = SimConfig::paper_default();
        let (mut cycles, mut timed_accesses) = (0.0, 0u64);
        for head in &self.heads {
            let s = t.span("mem.run_app_timed", 0, || {
                run_app_timed(head.as_ref(), SCALE, &config, TimingParams::paper_default())
            });
            let s = s.map_err(|e| e.to_string())?;
            cycles += s.cycles;
            timed_accesses += s.accesses;
        }
        m.set(
            "sim_cycles_per_access",
            cycles / timed_accesses as f64,
            "cycles",
        );
        Ok(())
    }

    fn probes(&self) -> ProbeSet {
        ProbeSet {
            streams: self.heads.clone(),
            scale: SCALE,
            config: SimConfig::paper_default(),
            mix: None,
            trace: None,
            jobs: self
                .apps
                .iter()
                .take(6)
                .map(|app| {
                    let mut job = JobSpec::app(app.name);
                    job.scale = SCALE;
                    job.shards = 1;
                    job
                })
                .collect(),
        }
    }
}
