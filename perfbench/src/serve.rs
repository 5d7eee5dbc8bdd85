//! `serve`: an open loop against a real daemon (`Server::bind`, two
//! workers) over a Unix socket, driven by one connection from two
//! client threads.
//!
//! A seeded schedule sends app jobs (mixed scales and schemes), trace
//! jobs with a snapshot cadence, and mix jobs at a fixed ladder of
//! rates. Arrivals within a rung are a Poisson process conditioned on
//! its job count (sorted uniform times), so each rung offers exactly
//! its rate. Each latency runs from the job's scheduled send time, so
//! a stalled generator shows as latency, and the generator's own lag
//! is reported. `Client::run_job` serialises jobs, so the wire codec
//! is driven directly.

use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tlbsim_experiments::paper_scheme_grid;
use tlbsim_experiments::replay::{record_spec_with_format, RecordFormat};
use tlbsim_mem::TimingParams;
use tlbsim_service::{
    execute, read_frame, resolve, write_frame, ErrorCode, Frame, JobSource, JobSpec, Server,
    ServerConfig, WireError, PROTOCOL_VERSION,
};
use tlbsim_sim::{run_app, run_app_timed, run_mix, SimConfig, SimStats, SwitchPolicy, TablePolicy};
use tlbsim_workloads::{find_app, MultiStreamSpec, Scale, Schedule, StreamSpec, TraceWorkload};

use crate::inputs::{self, STRATA};
use crate::probes::{self, ProbeSet};
use crate::util::{median, ms, quantile, secs, timed, Digest, Metrics, Rng, Tally};
use crate::{set_up, Ctx, Outcome};

/// Daemon worker threads.
const WORKERS: usize = 2;
/// Run-queue depth; a submit past it is refused with `QueueFull`.
const QUEUE_DEPTH: usize = 64;
/// A rung meets the service level when its 90th-percentile latency is
/// at most this, nothing was refused or failed, and its backlog did not
/// grow.
pub const P90_LIMIT_MS: f64 = 250.0;
/// Growth of the mean Accepted-to-Done time from the first to the last
/// third of a rung beyond which its backlog counts as growing.
pub const DRIFT_LIMIT_MS: f64 = 100.0;
/// The ladder: offered rate (jobs/s) and share of `--seconds` per rung.
pub const LADDER: [(f64, f64); 4] = [(10.0, 0.06), (20.0, 0.45), (40.0, 0.17), (120.0, 0.10)];
/// The rung whose latencies are the end-to-end `job_latency_*` metrics.
pub const REFERENCE_RUNG: usize = 1;
/// Share of `--seconds` for the closed-loop capacity phase.
const SATURATION_SHARE: f64 = 0.15;
/// Jobs kept in flight during the capacity phase.
const SATURATION_WINDOW: usize = 4;
/// Replies slower than this mean the daemon is stuck.
const READ_TIMEOUT: Duration = Duration::from_secs(30);
/// Job ids of the set-up warm-up, apart from the measured ones.
const WARM_UP_IDS: u64 = 1 << 40;

/// One kind of job the schedule sends, with its batch oracle.
pub struct Template {
    pub job: JobSpec,
    pub oracle: SimStats,
    pub stream_len: u64,
}

/// Scheme of the app job drawn from stratum `i` (indices into
/// `paper_scheme_grid()`): DP and ASP at 256 and 128 rows, MP, RP, TP,
/// a confidence-throttled DP and a set-dueling ensemble.
const APP_SCHEMES: [usize; 11] = [11, 17, 6, 0, 22, 24, 27, 12, 18, 1, 9];
/// Strata whose app jobs run at `Scale::SMALL` (the rest at `TINY`).
const SMALL_STRATA: [usize; 3] = [2, 6, 9];
/// Strata of the models recorded for the two trace jobs.
const TRACE_STRATA: [usize; 2] = [1, 4];
/// Strata of the three streams of each of the two mix jobs.
const MIX_STRATA: [[usize; 3]; 2] = [[0, 3, 6], [2, 5, 8]];
/// Scheme index of trace and mix jobs (DP, 256 rows).
const DP_256: usize = 11;

/// The job catalog (before oracles): an app job per stratum, two trace
/// jobs over traces recorded at set-up (with the model each records),
/// and two mix jobs. The catalog is fixed, like a service's job mix;
/// the seed draws the arrival times and the order jobs are sent in, so
/// latency percentiles do not jump with the jobs a seed happens to
/// pick.
pub fn job_specs(trace_path: &dyn Fn(usize) -> PathBuf) -> Vec<(JobSpec, Option<&'static str>)> {
    let schemes = paper_scheme_grid();
    let mut out = Vec::new();
    for (stratum, &scheme) in APP_SCHEMES.iter().enumerate() {
        let mut job = JobSpec::app(STRATA[stratum][0]);
        job.scheme = schemes[scheme].clone();
        job.scale = if SMALL_STRATA.contains(&stratum) {
            Scale::SMALL
        } else {
            Scale::TINY
        };
        job.shards = 1;
        out.push((job, None));
    }
    for (i, &stratum) in TRACE_STRATA.iter().enumerate() {
        let mut job = JobSpec::trace(trace_path(i).to_string_lossy().into_owned());
        job.scheme = schemes[DP_256].clone();
        job.snapshot_every = 25_000;
        job.shards = 1;
        out.push((job, Some(STRATA[stratum][0])));
    }
    for strata in MIX_STRATA {
        let mut job = JobSpec::mix(strata.map(|s| STRATA[s][0]), 4096);
        job.scheme = schemes[DP_256].clone();
        job.scale = Scale::TINY;
        job.shards = 1;
        job.switch_policy = SwitchPolicy::Asid {
            contexts: 2,
            tables: TablePolicy::Shared,
        };
        out.push((job, None));
    }
    out
}

/// An endless seeded sequence of template indices in which every
/// template appears once per `templates` draws, so a rung's job mix
/// does not drift with the seed.
#[derive(Clone)]
pub struct Deck {
    rng: Rng,
    cards: Vec<usize>,
    templates: usize,
}

impl Deck {
    pub fn new(rng: Rng, templates: usize) -> Self {
        Deck {
            rng,
            cards: Vec::new(),
            templates,
        }
    }

    pub fn draw(&mut self) -> usize {
        if self.cards.is_empty() {
            self.cards = (0..self.templates).collect();
            for i in (1..self.cards.len()).rev() {
                let j = self.rng.below(i as u64 + 1) as usize;
                self.cards.swap(i, j);
            }
        }
        self.cards.pop().unwrap_or(0)
    }
}

fn config_of(job: &JobSpec) -> SimConfig {
    SimConfig::paper_default().with_prefetcher(job.scheme.clone())
}

/// The batch result a served job must equal: `run_app` for app and
/// trace jobs, `run_mix` for mix jobs.
pub fn batch_oracle(job: &JobSpec) -> Result<SimStats, String> {
    let config = config_of(job);
    let unknown = |name: &str| format!("unknown app {name:?}");
    match &job.source {
        JobSource::App { name } => {
            let app = find_app(name).ok_or_else(|| unknown(name))?;
            run_app(app, job.scale, &config).map_err(|e| e.to_string())
        }
        JobSource::Trace { path } => {
            let trace = TraceWorkload::open(path).map_err(|e| format!("{path}: {e}"))?;
            run_app(&trace, job.scale, &config).map_err(|e| e.to_string())
        }
        JobSource::Mix { apps, quantum } => {
            let streams = apps
                .iter()
                .map(|name| {
                    find_app(name)
                        .map(|a| std::sync::Arc::new(a) as std::sync::Arc<dyn StreamSpec>)
                        .ok_or_else(|| unknown(name))
                })
                .collect::<Result<Vec<_>, _>>()?;
            let mix = MultiStreamSpec::new(streams, Schedule::RoundRobin { quantum: *quantum })
                .map_err(|e| e.to_string())?;
            run_mix(&mix, job.scale, &config, job.switch_policy).map_err(|e| e.to_string())
        }
    }
}

/// The streams a job replays (for the layer probes and simulated time).
fn job_streams(job: &JobSpec) -> Result<Vec<std::sync::Arc<dyn StreamSpec>>, String> {
    let names: Vec<&str> = match &job.source {
        JobSource::App { name } => vec![name.as_str()],
        JobSource::Mix { apps, .. } => apps.iter().map(String::as_str).collect(),
        JobSource::Trace { path } => {
            let trace = TraceWorkload::open(path).map_err(|e| format!("{path}: {e}"))?;
            return Ok(vec![std::sync::Arc::new(trace)]);
        }
    };
    Ok(inputs::as_streams(
        &names.iter().map(|n| inputs::app(n)).collect::<Vec<_>>(),
    ))
}

fn templates(jobs: &[JobSpec]) -> Result<Vec<Template>, String> {
    jobs.iter()
        .map(|job| {
            let oracle = batch_oracle(job)?;
            Ok(Template {
                job: job.clone(),
                stream_len: oracle.accesses,
                oracle,
            })
        })
        .collect()
}

/// A daemon on a background thread plus one handshaken connection.
pub struct Daemon {
    path: PathBuf,
    thread: Option<JoinHandle<std::io::Result<()>>>,
    pub conn: UnixStream,
}

impl Daemon {
    pub fn start(path: &Path) -> Result<Daemon, String> {
        let server = Server::bind(
            path,
            ServerConfig {
                workers: WORKERS,
                queue_depth: QUEUE_DEPTH,
            },
        )
        .map_err(|e| format!("binding {}: {e}", path.display()))?;
        let thread = std::thread::spawn(move || server.run());
        let mut daemon = Daemon {
            path: path.to_owned(),
            thread: Some(thread),
            conn: UnixStream::connect(path).map_err(|e| format!("connecting: {e}"))?,
        };
        daemon
            .conn
            .set_read_timeout(Some(READ_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let mut scratch = Vec::new();
        write_frame(
            &mut daemon.conn,
            &Frame::Hello {
                version: PROTOCOL_VERSION,
            },
            &mut scratch,
        )
        .map_err(|e| format!("handshake: {e}"))?;
        match read_frame(&mut daemon.conn, &mut scratch) {
            Ok(Frame::Hello {
                version: PROTOCOL_VERSION,
            }) => Ok(daemon),
            other => Err(format!("handshake: unexpected reply {other:?}")),
        }
    }

    /// Drains and stops the daemon and waits for its thread.
    pub fn stop(mut self) -> Result<(), String> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Result<(), String> {
        let Some(thread) = self.thread.take() else {
            return Ok(());
        };
        let mut scratch = Vec::new();
        let sent = write_frame(
            &mut self.conn,
            &Frame::Shutdown { drain: true },
            &mut scratch,
        );
        let ack = sent.and_then(|()| read_frame(&mut self.conn, &mut scratch));
        let _ = self.conn.shutdown(std::net::Shutdown::Both);
        let joined = thread.join();
        match (ack, joined) {
            (Ok(Frame::ShuttingDown), Ok(Ok(()))) => Ok(()),
            (ack, joined) => Err(format!(
                "daemon shutdown: ack {ack:?}, exit {:?}",
                joined.map_err(|_| "daemon thread panicked")
            )),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.shutdown();
        let _ = std::fs::remove_file(&self.path);
    }
}

/// What happened to one scheduled job.
#[derive(Debug, Clone)]
pub struct JobRecord {
    pub template: usize,
    pub due: Instant,
    pub sent: Option<Instant>,
    pub accepted: Option<Instant>,
    pub done: Option<Instant>,
    pub stats: Option<SimStats>,
    pub error: Option<ErrorCode>,
    pub transport_failed: bool,
    pub snapshots: u64,
    pub last_snapshot: Option<SimStats>,
    pub frames: u64,
    pub bytes: u64,
}

impl JobRecord {
    fn new(template: usize, due: Instant) -> Self {
        JobRecord {
            template,
            due,
            sent: None,
            accepted: None,
            done: None,
            stats: None,
            error: None,
            transport_failed: false,
            snapshots: 0,
            last_snapshot: None,
            frames: 0,
            bytes: 0,
        }
    }

    fn terminal(&self) -> bool {
        self.stats.is_some() || self.error.is_some() || self.transport_failed
    }

    pub fn latency_ms(&self) -> Option<f64> {
        match (self.done, &self.stats) {
            (Some(done), Some(_)) => Some(ms(done.saturating_duration_since(self.due))),
            _ => None,
        }
    }

    /// The output matches the batch oracle, and the last snapshot (if
    /// the job had a cadence) equals the final result.
    fn correct(&self, t: &Template) -> bool {
        let Some(stats) = &self.stats else {
            return false;
        };
        let every = t.job.snapshot_every;
        let snapshots_ok = every == 0
            || (self.snapshots == t.stream_len.div_ceil(every)
                && self.last_snapshot.as_ref() == Some(stats));
        *stats == t.oracle && snapshots_ok
    }
}

/// Applies one server frame to the records (ids start at `first_id`).
fn apply(
    records: &mut [JobRecord],
    first_id: u64,
    frame: Frame,
    bytes: u64,
    at: Instant,
) -> Result<(), String> {
    let id = match &frame {
        Frame::Accepted { job_id, .. }
        | Frame::Snapshot { job_id, .. }
        | Frame::Done { job_id, .. }
        | Frame::JobError { job_id, .. } => *job_id,
        other => return Err(format!("unexpected frame {other:?}")),
    };
    let r = id
        .checked_sub(first_id)
        .and_then(|i| records.get_mut(i as usize))
        .ok_or_else(|| format!("reply for unknown job {id}"))?;
    r.frames += 1;
    r.bytes += bytes;
    match frame {
        Frame::Accepted { .. } => r.accepted = Some(at),
        Frame::Snapshot { seq, stats, .. } => {
            r.snapshots = seq;
            r.last_snapshot = Some(stats);
        }
        Frame::Done { stats, .. } => {
            r.done = Some(at);
            r.stats = Some(stats);
        }
        Frame::JobError { code, .. } => {
            r.done = Some(at);
            r.error = Some(code);
        }
        _ => unreachable!("filtered above"),
    }
    Ok(())
}

fn submit(
    conn: &mut UnixStream,
    id: u64,
    job: &JobSpec,
    scratch: &mut Vec<u8>,
) -> Result<u64, WireError> {
    write_frame(
        conn,
        &Frame::Submit {
            job_id: id,
            job: job.clone(),
        },
        scratch,
    )?;
    Ok(scratch.len() as u64)
}

/// Runs an open-loop schedule (`(offset, template)` pairs, sorted) on
/// the connection: a sender thread submits each job at its due time
/// while this thread reads replies until every job has ended.
pub fn drive(
    conn: &UnixStream,
    jobs: &[JobSpec],
    schedule: &[(Duration, usize)],
    first_id: u64,
) -> Result<Vec<JobRecord>, String> {
    let start = Instant::now() + Duration::from_millis(2);
    let mut records: Vec<JobRecord> = schedule
        .iter()
        .map(|&(offset, t)| JobRecord::new(t, start + offset))
        .collect();
    let mut writer = conn.try_clone().map_err(|e| e.to_string())?;
    let mut reader = conn.try_clone().map_err(|e| e.to_string())?;
    let dues: Vec<(Instant, usize)> = records.iter().map(|r| (r.due, r.template)).collect();
    let jobs = jobs.to_vec();
    let sender = std::thread::spawn(move || -> Result<Vec<(Instant, u64)>, String> {
        let mut scratch = Vec::new();
        let mut sent = Vec::with_capacity(dues.len());
        for (i, (due, t)) in dues.into_iter().enumerate() {
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let at = Instant::now();
            let bytes = submit(&mut writer, first_id + i as u64, &jobs[t], &mut scratch)
                .map_err(|e| format!("submit: {e}"))?;
            sent.push((at, bytes));
        }
        Ok(sent)
    });
    let mut payload = Vec::new();
    let mut failure = None;
    while records.iter().any(|r| !r.terminal()) {
        match read_frame(&mut reader, &mut payload) {
            Ok(frame) => {
                let at = Instant::now();
                if let Err(e) = apply(&mut records, first_id, frame, payload.len() as u64 + 4, at) {
                    failure = Some(e);
                    break;
                }
            }
            Err(e) => {
                failure = Some(format!("reading replies: {e}"));
                break;
            }
        }
    }
    if let Some(why) = &failure {
        eprintln!("serve: transport failure: {why}");
        for r in records.iter_mut().filter(|r| !r.terminal()) {
            r.transport_failed = true;
        }
    }
    let sent = sender
        .join()
        .map_err(|_| "sender thread panicked".to_owned())?;
    match sent {
        Ok(sent) => {
            for (r, (at, bytes)) in records.iter_mut().zip(sent) {
                r.sent = Some(at);
                r.frames += 1;
                r.bytes += bytes;
            }
        }
        Err(e) => {
            eprintln!("serve: {e}");
            for r in records.iter_mut().filter(|r| r.sent.is_none()) {
                r.transport_failed = true;
            }
        }
    }
    Ok(records)
}

/// `n` arrivals over `span`: sorted uniform times (a Poisson process
/// conditioned on its count), templates dealt from `deck`.
pub fn arrivals(
    rng: &mut Rng,
    deck: &mut Deck,
    n: usize,
    span: Duration,
) -> Vec<(Duration, usize)> {
    let mut times: Vec<Duration> = (0..n).map(|_| span.mul_f64(rng.unit())).collect();
    times.sort();
    times.into_iter().map(|at| (at, deck.draw())).collect()
}

/// The 50th and 90th percentile, across the catalog's job kinds, of
/// each kind's median latency. The deck sends every kind equally often,
/// so this tracks the pooled percentiles, while a kind's median shrugs
/// off the few of its jobs that a slow spell of the host or an unlucky
/// arrival hit. Pooled percentiles spread about twice as much from run
/// to run on the 2-core host used to build this benchmark.
pub fn per_kind_percentiles(records: &[JobRecord], kinds: usize) -> (f64, f64) {
    let medians: Vec<f64> = (0..kinds)
        .map(|kind| {
            let latencies: Vec<f64> = records
                .iter()
                .filter(|r| r.template == kind)
                .filter_map(JobRecord::latency_ms)
                .collect();
            quantile(&latencies, 0.5)
        })
        .filter(|m| m.is_finite())
        .collect();
    (quantile(&medians, 0.5), quantile(&medians, 0.9))
}

/// One rung's verdict.
#[derive(Debug, Clone)]
pub struct RungReport {
    pub rate: f64,
    pub jobs: usize,
    pub p50_ms: f64,
    pub p90_ms: f64,
    pub refused: u64,
    pub failed: u64,
    pub wrong: u64,
    pub drift_ms: f64,
    pub achieved: f64,
    pub pass: bool,
}

pub fn evaluate(rate: f64, records: &[JobRecord], templates: &[Template]) -> RungReport {
    // A failed or refused job misses any latency limit.
    let latencies: Vec<f64> = records
        .iter()
        .map(|r| r.latency_ms().unwrap_or(f64::INFINITY))
        .collect();
    let refused = records
        .iter()
        .filter(|r| r.error == Some(ErrorCode::QueueFull))
        .count() as u64;
    let failed = records
        .iter()
        .filter(|r| r.transport_failed || r.error.is_some_and(|c| c != ErrorCode::QueueFull))
        .count() as u64;
    let wrong = records
        .iter()
        .filter(|r| r.stats.is_some() && !r.correct(&templates[r.template]))
        .count() as u64;
    // Backlog: Accepted-to-Done time of the last third against the first.
    let in_system: Vec<f64> = records
        .iter()
        .filter_map(|r| Some(ms(r.done?.saturating_duration_since(r.accepted?))))
        .collect();
    let third = in_system.len() / 3;
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let drift_ms = if third == 0 {
        0.0
    } else {
        mean(&in_system[in_system.len() - third..]) - mean(&in_system[..third])
    };
    let first_due = records.iter().map(|r| r.due).min();
    let last_done = records.iter().filter_map(|r| r.done).max();
    let ok = records.iter().filter(|r| r.stats.is_some()).count();
    let achieved = match (first_due, last_done) {
        (Some(a), Some(b)) if b > a => ok as f64 / secs(b - a),
        _ => 0.0,
    };
    let p90_ms = quantile(&latencies, 0.9);
    RungReport {
        rate,
        jobs: records.len(),
        p50_ms: quantile(&latencies, 0.5),
        p90_ms,
        refused,
        failed,
        wrong,
        drift_ms,
        achieved,
        pass: p90_ms <= P90_LIMIT_MS
            && refused == 0
            && failed == 0
            && wrong == 0
            && drift_ms <= DRIFT_LIMIT_MS,
    }
}

/// Closed-loop capacity: `SATURATION_WINDOW` jobs in flight for
/// `span`, on this thread. Returns the records and simulated accesses
/// per second of completed jobs.
fn saturate(
    conn: &mut UnixStream,
    templates: &[Template],
    deck: &mut Deck,
    span: Duration,
    first_id: u64,
) -> Result<(Vec<JobRecord>, f64), String> {
    let start = Instant::now();
    let mut records: Vec<JobRecord> = Vec::new();
    let mut scratch = Vec::new();
    let mut payload = Vec::new();
    let mut reader = conn.try_clone().map_err(|e| e.to_string())?;
    let mut in_flight = 0usize;
    loop {
        while in_flight < SATURATION_WINDOW && start.elapsed() < span {
            let t = deck.draw();
            let now = Instant::now();
            let mut r = JobRecord::new(t, now);
            let bytes = submit(
                conn,
                first_id + records.len() as u64,
                &templates[t].job,
                &mut scratch,
            )
            .map_err(|e| format!("submit: {e}"))?;
            r.sent = Some(now);
            r.frames += 1;
            r.bytes += bytes;
            records.push(r);
            in_flight += 1;
        }
        if in_flight == 0 {
            break;
        }
        let frame =
            read_frame(&mut reader, &mut payload).map_err(|e| format!("reading replies: {e}"))?;
        let terminal = matches!(frame, Frame::Done { .. } | Frame::JobError { .. });
        apply(
            &mut records,
            first_id,
            frame,
            payload.len() as u64 + 4,
            Instant::now(),
        )?;
        if terminal {
            in_flight -= 1;
        }
    }
    // Jobs finished within the phase, over the phase: the drain after
    // it runs below the window and would understate capacity.
    let accesses: u64 = records
        .iter()
        .filter(|r| r.stats.is_some() && r.done.is_some_and(|d| d <= start + span))
        .map(|r| templates[r.template].stream_len)
        .sum();
    Ok((records, accesses as f64 / secs(span)))
}

/// The daemon and the serve workload's inputs after set-up.
struct Serve {
    daemon: Option<Daemon>,
    traces: Vec<PathBuf>,
    jobs: Vec<JobSpec>,
}

fn setup(ctx: &mut Ctx) -> Result<Serve, String> {
    let paths: Vec<PathBuf> = (0..2)
        .map(|i| ctx.scratch("serve", &format!("job{i}.tlbt")))
        .collect();
    let specs = job_specs(&|i| paths[i].clone());
    let mut traces = Vec::new();
    for (i, recorded) in specs.iter().filter_map(|(_, r)| *r).enumerate() {
        let path = paths[i].clone();
        let spec = inputs::app(recorded);
        ctx.tracer
            .span("trace.record_v2", 0, || {
                record_spec_with_format(spec, Scale::TINY, None, &path, RecordFormat::v2_default())
            })
            .map_err(|e| format!("recording {}: {e}", path.display()))?;
        traces.push(path);
    }
    let socket = ctx.scratch("serve", "d.sock");
    let daemon = ctx
        .tracer
        .span("service.start", 0, || Daemon::start(&socket))?;
    let jobs: Vec<JobSpec> = specs.into_iter().map(|(j, _)| j).collect();
    // Warm-up: every job once through the daemon, all submitted at once.
    let burst: Vec<(Duration, usize)> = (0..jobs.len()).map(|i| (Duration::ZERO, i)).collect();
    let warm = ctx.tracer.span("service.warm_up", 0, || {
        drive(&daemon.conn, &jobs, &burst, WARM_UP_IDS)
    })?;
    if let Some(r) = warm.iter().find(|r| r.stats.is_none()) {
        return Err(format!("warm-up job failed: {:?}", r.error));
    }
    Ok(Serve {
        daemon: Some(daemon),
        traces,
        jobs,
    })
}

impl Drop for Serve {
    fn drop(&mut self) {
        for path in &self.traces {
            let _ = std::fs::remove_file(path);
        }
    }
}

pub fn digest_of(jobs: &[JobSpec], schedule: &[Vec<(Duration, usize)>], traces: &[PathBuf]) -> u64 {
    let mut d = Digest::default();
    d.str("serve");
    for job in jobs {
        // A trace job's input is its file's content (hashed below), not
        // where the file lives.
        let mut job = job.clone();
        if let JobSource::Trace { path } = &mut job.source {
            path.clear();
        }
        d.str(&format!("{job:?}"));
    }
    for rung in schedule {
        for (at, t) in rung {
            d.u64(at.as_nanos() as u64).u64(*t as u64);
        }
    }
    for path in traces {
        if let Ok(bytes) = std::fs::read(path) {
            d.bytes(&bytes);
        }
    }
    d.finish()
}

/// The ladder's schedule for `seconds` of measurement.
pub fn ladder_schedule(seed: u64, seconds: f64, templates: usize) -> Vec<Vec<(Duration, usize)>> {
    let mut rng = Rng::new(seed, 0x1add);
    let mut deck = Deck::new(Rng::new(seed, 0xdec), templates);
    LADDER
        .iter()
        .map(|&(rate, share)| {
            let span = Duration::from_secs_f64(seconds * share);
            let n = (rate * span.as_secs_f64()).round().max(1.0) as usize;
            arrivals(&mut rng, &mut deck, n, span)
        })
        .collect()
}

/// Service metrics over a set of finished jobs; `exec_ms` is each
/// template's in-process run time.
fn service_metrics(records: &[JobRecord], exec_ms: &[f64], m: &mut Metrics) {
    let done: Vec<&JobRecord> = records.iter().filter(|r| r.stats.is_some()).collect();
    let accept: Vec<f64> = done
        .iter()
        .filter_map(|r| Some(ms(r.accepted?.saturating_duration_since(r.sent?))))
        .collect();
    let queue: Vec<f64> = done
        .iter()
        .filter_map(|r| {
            let latency = ms(r.done?.saturating_duration_since(r.sent?));
            let accept = ms(r.accepted?.saturating_duration_since(r.sent?));
            Some(latency - accept - exec_ms[r.template])
        })
        .collect();
    let exec: Vec<f64> = done.iter().map(|r| exec_ms[r.template]).collect();
    let lag: Vec<f64> = records
        .iter()
        .filter_map(|r| Some(ms(r.sent?.saturating_duration_since(r.due))))
        .collect();
    let n = done.len().max(1) as f64;
    m.set("service.accept_ms", median(&accept), "ms");
    m.set("service.exec_ms", median(&exec), "ms");
    m.set("service.queue_ms", median(&queue), "ms");
    m.set(
        "service.frames_per_job",
        done.iter().map(|r| r.frames).sum::<u64>() as f64 / n,
        "count",
    );
    m.set(
        "service.bytes_per_job",
        done.iter().map(|r| r.bytes).sum::<u64>() as f64 / n,
        "B",
    );
    m.set(
        "service.refused",
        records
            .iter()
            .filter(|r| r.error == Some(ErrorCode::QueueFull))
            .count() as f64,
        "count",
    );
    m.set("serve.generator_lag_p90_ms", quantile(&lag, 0.9), "ms");
}

/// In-process run time of each template's job (`execute`, the
/// daemon's worker path without the socket or the submit-time
/// `resolve`), median of three.
fn exec_times(
    ctx: &mut Ctx,
    templates: &[Template],
    tally: &mut Tally,
) -> Result<Vec<f64>, String> {
    let cancel = AtomicBool::new(false);
    templates
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let mut samples = Vec::new();
            for _ in 0..3 {
                let job = resolve(&t.job).map_err(|(code, msg)| format!("{code}: {msg}"))?;
                let (r, d) = ctx.tracer.span("service.execute_in_process", i as u64, || {
                    timed(|| execute(&job, &cancel, |_, _, _| {}))
                });
                let (stats, _) = r.map_err(|(code, msg)| format!("{code}: {msg}"))?;
                tally.check(stats == t.oracle);
                samples.push(ms(d));
            }
            Ok(median(&samples))
        })
        .collect()
}

/// Encode + decode time per frame over frames like the ones a served
/// job exchanges.
fn codec_ns(templates: &[Template]) -> Result<f64, String> {
    let mut frames = Vec::new();
    for (i, t) in templates.iter().enumerate() {
        let id = i as u64;
        frames.push(Frame::Submit {
            job_id: id,
            job: t.job.clone(),
        });
        frames.push(Frame::Accepted {
            job_id: id,
            shards: 1,
            stream_len: t.stream_len,
        });
        frames.push(Frame::Done {
            job_id: id,
            stats: t.oracle.clone(),
            health: Default::default(),
        });
    }
    let mut buf = Vec::new();
    let reps = 200;
    let start = Instant::now();
    for _ in 0..reps {
        for frame in &frames {
            frame.encode_into(&mut buf).map_err(|e| e.to_string())?;
            let decoded = Frame::decode(&buf[4..]).map_err(|e| e.to_string())?;
            std::hint::black_box(decoded);
        }
    }
    Ok(secs(start.elapsed()) * 1e9 / (reps * frames.len()) as f64)
}

/// Records each served job as spans: the job from its due time, with
/// its admission and its time in the daemon as children.
fn record_spans(ctx: &mut Ctx, records: &[JobRecord], first_id: u64) {
    for (i, r) in records.iter().enumerate() {
        let (Some(sent), Some(accepted), Some(done)) = (r.sent, r.accepted, r.done) else {
            continue;
        };
        let job = first_id + i as u64;
        let root = ctx.tracer.record("bench.job", job, r.due, done, None);
        ctx.tracer
            .record("service.accept", job, sent, accepted, Some(root));
        ctx.tracer
            .record("service.queue_and_run", job, accepted, done, Some(root));
    }
}

/// The `serve` workload.
pub fn run(ctx: &mut Ctx) -> Result<Outcome, String> {
    let mut m = Metrics::default();
    let mut tally = Tally::default();
    let mut s = set_up(ctx, &mut m, setup)?;
    let templates = ctx.tracer.span("bench.oracle", 0, || templates(&s.jobs))?;
    let schedule = ladder_schedule(ctx.seed, ctx.seconds, templates.len());
    let digest = digest_of(&s.jobs, &schedule, &s.traces);
    let exec_ms = if ctx.traced() {
        exec_times(ctx, &templates, &mut tally)?
    } else {
        Vec::new()
    };

    let jobs: Vec<JobSpec> = templates.iter().map(|t| t.job.clone()).collect();
    let daemon = s.daemon.as_mut().ok_or("daemon not started")?;
    let mut next_id = 1u64;
    let mut reports = Vec::new();
    let mut all = Vec::new();
    let mut reference = Vec::new();
    for (rung, arrivals) in schedule.iter().enumerate() {
        let span = ctx.tracer.enter("bench.rung", rung as u64);
        let records = drive(&daemon.conn, &jobs, arrivals, next_id)?;
        ctx.tracer.exit(span);
        record_spans(ctx, &records, next_id);
        next_id += records.len() as u64;
        let report = evaluate(LADDER[rung].0, &records, &templates);
        eprintln!(
            "serve rung {rung}: {:>5.1} jobs/s offered, {} jobs, p50 {:.1} ms, p90 {:.1} ms, refused {}, failed {}, wrong {}, drift {:.1} ms, achieved {:.2} jobs/s -> {}",
            report.rate, report.jobs, report.p50_ms, report.p90_ms, report.refused, report.failed,
            report.wrong, report.drift_ms, report.achieved, if report.pass { "meets" } else { "misses" }
        );
        if rung == REFERENCE_RUNG {
            reference = records.clone();
        }
        all.push(records);
        reports.push(report);
    }
    let top = reports.iter().rposition(|r| r.pass);
    // Wrong outputs and non-refusal failures count at every rung;
    // refusals count up to the highest rung that meets the limit (above
    // it they are what the ladder measures).
    for (rung, records) in all.iter().enumerate() {
        for r in records {
            let refused = r.error == Some(ErrorCode::QueueFull);
            let counted_refusal = refused && top.is_some_and(|top| rung <= top);
            let ok = if refused {
                !counted_refusal
            } else {
                r.correct(&templates[r.template])
            };
            tally.check(ok);
        }
    }

    let mut deck = Deck::new(Rng::new(ctx.seed, 0x5a7), templates.len());
    // The traced capacity phase replays the same job sequence.
    let mut traced_deck = deck.clone();
    let sat_span = Duration::from_secs_f64(ctx.seconds * SATURATION_SHARE);
    let (sat, rate) = saturate(&mut daemon.conn, &templates, &mut deck, sat_span, next_id)?;
    next_id += sat.len() as u64;
    for r in &sat {
        tally.check(r.correct(&templates[r.template]));
    }
    if ctx.traced() {
        let span = ctx.tracer.enter("bench.saturate", 0);
        let (traced, traced_rate) = saturate(
            &mut daemon.conn,
            &templates,
            &mut traced_deck,
            sat_span,
            next_id,
        )?;
        ctx.tracer.exit(span);
        record_spans(ctx, &traced, next_id);
        for r in &traced {
            tally.check(r.correct(&templates[r.template]));
        }
        m.set("trace_overhead", traced_rate / rate, "ratio");
    }
    s.daemon.take().ok_or("daemon not started")?.stop()?;

    let (p50, p90) = per_kind_percentiles(&reference, templates.len());
    m.set("job_latency_p50_ms", p50, "ms");
    m.set("job_latency_p90_ms", p90, "ms");
    m.set(
        "max_jobs_per_s",
        top.map_or(0.0, |i| reports[i].achieved),
        "1/s",
    );
    m.set("accesses_per_s", rate, "1/s");

    // Simulated metrics over the distinct jobs the schedule draws from.
    let sum = |f: fn(&SimStats) -> u64| templates.iter().map(|t| f(&t.oracle)).sum::<u64>() as f64;
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
    let (mut cycles, mut accesses) = (0.0, 0u64);
    for t in &templates {
        for stream in job_streams(&t.job)? {
            let timing = run_app_timed(
                stream.as_ref(),
                t.job.scale,
                &config_of(&t.job),
                TimingParams::paper_default(),
            )
            .map_err(|e| e.to_string())?;
            cycles += timing.cycles;
            accesses += timing.accesses;
        }
    }
    m.set("sim_cycles_per_access", cycles / accesses as f64, "cycles");

    if ctx.traced() {
        let pooled: Vec<JobRecord> = all.iter().flatten().cloned().collect();
        service_metrics(&pooled, &exec_ms, &mut m);
        m.set("service.codec_ns_per_frame", codec_ns(&templates)?, "ns");
        let oracles: Vec<SimStats> = templates.iter().map(|t| t.oracle.clone()).collect();
        crate::layer_counts(&oracles, &mut m);
        let mut streams = Vec::new();
        for t in &templates {
            streams.extend(job_streams(&t.job)?);
        }
        let set = ProbeSet {
            streams,
            scale: Scale::TINY,
            config: SimConfig::paper_default(),
            mix: None,
            trace: None,
            jobs: Vec::new(),
        };
        let span = ctx.tracer.enter("bench.probes", 0);
        let probed = probes::run(ctx, &set, &mut tally, &mut m);
        ctx.tracer.exit(span);
        probed?;
    }
    m.set("success_ratio", tally.success_ratio(), "ratio");
    m.set("peak_rss_mib", crate::util::peak_rss_mib()?, "MiB");
    Ok(Outcome {
        tally,
        metrics: m,
        digest,
    })
}

/// A short low-rate session over `jobs`, for the service probe of the
/// batch workloads: every service metric plus generator lag.
pub fn probe_session(
    ctx: &mut Ctx,
    jobs: &[JobSpec],
    tally: &mut Tally,
    m: &mut Metrics,
) -> Result<(), String> {
    let templates = templates(jobs)?;
    let exec_ms = exec_times(ctx, &templates, tally)?;
    let socket = ctx.scratch("probe", "d.sock");
    let daemon = ctx
        .tracer
        .span("service.start", 0, || Daemon::start(&socket))?;
    let mut rng = Rng::new(ctx.seed, 0x9b0e);
    // Every template once, spread over one second per four jobs.
    let span = Duration::from_secs_f64(jobs.len() as f64 / 4.0);
    let mut schedule: Vec<(Duration, usize)> = (0..jobs.len())
        .map(|i| (span.mul_f64(rng.unit()), i))
        .collect();
    schedule.sort();
    let session = ctx.tracer.enter("bench.service_probe", 0);
    let records = drive(&daemon.conn, jobs, &schedule, 1);
    ctx.tracer.exit(session);
    let records = records?;
    record_spans(ctx, &records, 1);
    daemon.stop()?;
    for r in &records {
        tally.check(r.correct(&templates[r.template]));
    }
    service_metrics(&records, &exec_ms, m);
    m.set("service.codec_ns_per_frame", codec_ns(&templates)?, "ns");
    Ok(())
}
