//! Trace recording and replay drivers (`xp record` / `xp replay`).
//!
//! The paper's methodology is trace-driven: applications are traced,
//! fast-forwarded, then simulated. This module closes that loop for the
//! reproduction — [`record`] dumps any registered [`AppSpec`] model to
//! the binary `TLBT` format, and [`replay`] runs the figure grids'
//! scheme sweep over a recorded trace, mmap-replayed at generator speed
//! (sequential job-parallel, or intra-run sharded with `--shards`).
//! A trace produced by an external tracer replays identically: the
//! format is the contract, not the generator.

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use tlbsim_core::MemoryAccess;
use tlbsim_sim::{resolve_shards, run_app_sharded, sweep, SimConfig, SimError, SweepJob};
use tlbsim_trace::{BinaryTraceWriter, DecodePolicy, TraceError, TraceHealth, V2TraceWriter};
use tlbsim_workloads::{find_app, AppSpec, Scale, TraceWorkload};

use crate::grid::{paper_scheme_grid, GridCell};
use crate::report::{fmt3, fmt4, TextTable};

/// Errors from the record/replay/mix drivers.
#[derive(Debug)]
pub enum ReplayError {
    /// The named application is not registered.
    UnknownApp(String),
    /// A simulation error (invalid configuration).
    Sim(SimError),
    /// A trace encode/decode error.
    Trace(TraceError),
    /// An I/O failure on the trace file.
    Io(io::Error),
    /// A malformed multiprogrammed mix (see [`crate::mix`]).
    Mix(tlbsim_workloads::MixError),
    /// An unsatisfiable chaos plan (see [`crate::health::bake`]).
    Chaos(String),
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::UnknownApp(name) => {
                write!(f, "unknown application {name:?} (see `all_apps`)")
            }
            ReplayError::Sim(e) => write!(f, "{e}"),
            ReplayError::Trace(e) => write!(f, "{e}"),
            ReplayError::Io(e) => write!(f, "trace file i/o: {e}"),
            ReplayError::Mix(e) => write!(f, "{e}"),
            ReplayError::Chaos(why) => write!(f, "unsatisfiable chaos plan: {why}"),
        }
    }
}

impl std::error::Error for ReplayError {}

impl From<SimError> for ReplayError {
    fn from(e: SimError) -> Self {
        ReplayError::Sim(e)
    }
}

impl From<TraceError> for ReplayError {
    fn from(e: TraceError) -> Self {
        ReplayError::Trace(e)
    }
}

impl From<io::Error> for ReplayError {
    fn from(e: io::Error) -> Self {
        ReplayError::Io(e)
    }
}

/// On-disk format selector for [`record`] (`xp record --format`) and
/// `xp convert --format`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordFormat {
    /// Flat v1 `TLBT`: 17 bytes per record, byte-addressable.
    V1,
    /// Block-compressed v2 `TLBT` with the given records per block.
    V2 {
        /// Records per block (restart cadence). ≥ 1.
        block_len: u32,
    },
}

impl RecordFormat {
    /// The default v2 selector ([`tlbsim_trace::DEFAULT_BLOCK_LEN`]
    /// records per block).
    pub fn v2_default() -> Self {
        RecordFormat::V2 {
            block_len: tlbsim_trace::DEFAULT_BLOCK_LEN,
        }
    }
}

/// What [`record`] wrote.
#[derive(Debug, Clone)]
pub struct RecordSummary {
    /// Application recorded.
    pub app: &'static str,
    /// Scale the generator ran at.
    pub scale: Scale,
    /// Records written.
    pub records: u64,
    /// File size in bytes (for v1, 8-byte header + 17 bytes per
    /// record; for v2, whatever the delta blocks compressed to).
    pub bytes: u64,
    /// Destination path.
    pub path: PathBuf,
}

impl RecordSummary {
    /// One-line human-readable summary.
    pub fn render(&self) -> String {
        format!(
            "recorded {} at {} -> {} ({} records, {} bytes)",
            self.app,
            self.scale,
            self.path.display(),
            self.records,
            self.bytes
        )
    }
}

/// Records `app`'s reference stream at `scale` to `path` in the binary
/// `TLBT` format, stopping after `limit` accesses if one is given.
///
/// # Errors
///
/// [`ReplayError::UnknownApp`] for an unregistered name, otherwise the
/// underlying I/O or trace error.
pub fn record(
    app: &str,
    scale: Scale,
    limit: Option<u64>,
    path: impl AsRef<Path>,
) -> Result<RecordSummary, ReplayError> {
    record_with_format(app, scale, limit, path, RecordFormat::V1)
}

/// [`record`] with an explicit on-disk format (`xp record --format`).
///
/// # Errors
///
/// As [`record`].
pub fn record_with_format(
    app: &str,
    scale: Scale,
    limit: Option<u64>,
    path: impl AsRef<Path>,
    format: RecordFormat,
) -> Result<RecordSummary, ReplayError> {
    let spec = find_app(app).ok_or_else(|| ReplayError::UnknownApp(app.to_owned()))?;
    let path = path.as_ref();
    let summary = record_spec_with_format(spec, scale, limit, path, format)?;
    Ok(summary)
}

/// [`record`] with the spec already resolved (also used by the
/// benchmark's trace recorder).
pub fn record_spec(
    spec: &AppSpec,
    scale: Scale,
    limit: Option<u64>,
    path: &Path,
) -> Result<RecordSummary, ReplayError> {
    record_spec_with_format(spec, scale, limit, path, RecordFormat::V1)
}

/// [`record_spec`] with an explicit on-disk format.
pub fn record_spec_with_format(
    spec: &AppSpec,
    scale: Scale,
    limit: Option<u64>,
    path: &Path,
    format: RecordFormat,
) -> Result<RecordSummary, ReplayError> {
    enum Sink {
        V1(BinaryTraceWriter<std::fs::File>),
        V2(V2TraceWriter<std::fs::File>),
    }
    let file = std::fs::File::create(path)?;
    let mut sink = match format {
        RecordFormat::V1 => Sink::V1(BinaryTraceWriter::create(file)?),
        RecordFormat::V2 { block_len } => {
            Sink::V2(V2TraceWriter::create_with_block_len(file, block_len)?)
        }
    };
    let mut workload = spec.workload(scale);
    let mut remaining = limit.unwrap_or(u64::MAX);
    let mut buf = vec![MemoryAccess::read(0, 0); 4096];
    while remaining > 0 {
        let want = remaining.min(buf.len() as u64) as usize;
        let filled = workload.fill_batch(&mut buf[..want]);
        if filled == 0 {
            break;
        }
        for access in &buf[..filled] {
            match &mut sink {
                Sink::V1(w) => w.write(access)?,
                Sink::V2(w) => w.write(access)?,
            }
        }
        remaining -= filled as u64;
    }
    let records = match sink {
        Sink::V1(w) => {
            let records = w.records_written();
            w.finish()?;
            records
        }
        Sink::V2(w) => {
            let records = w.records_written();
            w.finish()?;
            records
        }
    };
    Ok(RecordSummary {
        app: spec.name,
        scale,
        records,
        bytes: std::fs::metadata(path)?.len(),
        path: path.to_owned(),
    })
}

/// The scheme sweep of one replayed trace: the figure grids' 21
/// configurations, accuracy and miss rate per scheme.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Trace name (the file stem).
    pub trace: String,
    /// Records replayed per scheme.
    pub records: u64,
    /// `"mmap"` (zero-copy) or `"read"` (fallback) backend.
    pub backend: &'static str,
    /// Worker shards per run (1 = sequential, job-parallel sweep).
    pub shards: usize,
    /// Decode health of the trace: what quarantine skipped, if
    /// anything. Clean under [`DecodePolicy::Strict`] by construction.
    pub health: TraceHealth,
    /// One cell per scheme configuration, in grid order.
    pub cells: Vec<GridCell>,
}

/// Replays a recorded trace under the full figure-grid scheme sweep
/// ([`paper_scheme_grid`]).
///
/// With `shards <= 1` the 30 scheme runs execute job-parallel through
/// [`sweep`], all sharing one mapping of the trace. With more, each run
/// is itself partitioned across `shards` workers via
/// [`run_app_sharded`] — sharded trace replay seeks each worker's
/// cursor in O(1). `shards == 0` means auto: resolved against the
/// trace's record count via [`resolve_shards`].
///
/// # Errors
///
/// Trace errors from opening/validating the file, or [`SimError`] from
/// an invalid configuration.
pub fn replay(path: impl AsRef<Path>, shards: usize) -> Result<ReplayReport, ReplayError> {
    replay_with_policy(path, shards, DecodePolicy::Strict)
}

/// [`replay`] under an explicit [`DecodePolicy`]: strict replay aborts
/// on the first damaged record, quarantine replay skips up to the
/// policy's budget and reports what was lost in
/// [`ReplayReport::health`].
///
/// # Errors
///
/// As [`replay`]; additionally `TraceError::QuarantineExceeded` when
/// the damage overruns a quarantine budget.
pub fn replay_with_policy(
    path: impl AsRef<Path>,
    shards: usize,
    policy: DecodePolicy,
) -> Result<ReplayReport, ReplayError> {
    replay_with_options(path, shards, policy, None)
}

/// [`replay_with_policy`] with an optional streaming window (`xp replay
/// --stream-window <blocks>`): instead of mapping the whole trace, each
/// replay cursor holds a sliding `window` of v2 blocks mapped at a
/// time, so traces larger than RAM replay in bounded memory. `None`
/// (and any v1 trace) maps the whole file. The window size never
/// changes *what* is replayed — only how many bytes are resident.
///
/// # Errors
///
/// As [`replay_with_policy`].
pub fn replay_with_options(
    path: impl AsRef<Path>,
    shards: usize,
    policy: DecodePolicy,
    stream_window: Option<u64>,
) -> Result<ReplayReport, ReplayError> {
    let trace = match stream_window {
        Some(window) => TraceWorkload::open_streaming(path.as_ref(), policy, window)?,
        None => TraceWorkload::open_with_policy(path.as_ref(), policy)?,
    };
    let schemes = paper_scheme_grid();
    let base = SimConfig::paper_default();
    let scale = Scale::TINY; // ignored by fixed-length traces
    let shards = resolve_shards(shards, trace.stream_len());
    let mut cells = Vec::with_capacity(schemes.len());
    if shards <= 1 {
        let jobs: Vec<SweepJob> = schemes
            .iter()
            .map(|scheme| SweepJob {
                tag: scheme.label(),
                spec: Arc::new(trace.clone()),
                scale,
                config: base.clone().with_prefetcher(scheme.clone()),
            })
            .collect();
        for result in sweep(jobs)? {
            cells.push(GridCell {
                label: result.tag,
                accuracy: result.stats.accuracy(),
                miss_rate: result.stats.miss_rate(),
            });
        }
    } else {
        for scheme in &schemes {
            let config = base.clone().with_prefetcher(scheme.clone());
            let run = run_app_sharded(&trace, scale, &config, shards)?;
            cells.push(GridCell {
                label: scheme.label(),
                accuracy: run.merged.accuracy(),
                miss_rate: run.merged.miss_rate(),
            });
        }
    }
    Ok(ReplayReport {
        trace: trace.name().to_owned(),
        records: trace.stream_len(),
        backend: trace.backend(),
        shards,
        health: trace.health(),
        cells,
    })
}

impl ReplayReport {
    /// The report as a [`TextTable`].
    pub fn to_table(&self) -> TextTable {
        let quarantined = if self.health.is_clean() {
            String::new()
        } else {
            format!(", quarantined {} bad", self.health.records_bad)
        };
        let mut table = TextTable::new(
            format!(
                "Replay: {} ({} records, {} backend, {} shard{}{quarantined})",
                self.trace,
                self.records,
                self.backend,
                self.shards,
                if self.shards == 1 { "" } else { "s" }
            ),
            vec!["scheme".into(), "accuracy".into(), "miss rate".into()],
        );
        for cell in &self.cells {
            table.row(vec![
                cell.label.clone(),
                fmt3(cell.accuracy),
                fmt4(cell.miss_rate),
            ]);
        }
        table
    }

    /// Renders the aligned text table.
    pub fn render(&self) -> String {
        self.to_table().render()
    }

    /// Renders CSV.
    pub fn to_csv(&self) -> String {
        self.to_table().to_csv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlbsim_sim::run_app;

    fn temp_trace(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("tlbsim-replay-{}-{tag}.tlbt", std::process::id()))
    }

    #[test]
    fn record_writes_the_exact_stream_length() {
        let path = temp_trace("record");
        let summary = record("gap", Scale::TINY, None, &path).unwrap();
        assert_eq!(summary.app, "gap");
        let expected = find_app("gap").unwrap().stream_len(Scale::TINY);
        assert_eq!(summary.records, expected);
        assert_eq!(summary.bytes, std::fs::metadata(&path).unwrap().len());
        assert!(summary.render().contains("gap"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn record_honours_the_limit() {
        let path = temp_trace("limit");
        let summary = record("gap", Scale::TINY, Some(5000), &path).unwrap();
        assert_eq!(summary.records, 5000);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn unknown_app_is_a_typed_error() {
        let err = record("not-an-app", Scale::TINY, None, temp_trace("unknown")).unwrap_err();
        assert!(matches!(err, ReplayError::UnknownApp(_)));
        assert!(err.to_string().contains("not-an-app"));
    }

    #[test]
    fn replay_covers_the_scheme_grid_and_matches_direct_runs() {
        let path = temp_trace("grid");
        record("gap", Scale::TINY, Some(20_000), &path).unwrap();
        let report = replay(&path, 1).unwrap();
        assert_eq!(report.cells.len(), paper_scheme_grid().len());
        assert_eq!(report.records, 20_000);

        // Spot-check one scheme against a direct trace run: the sweep
        // path and the plain runner must agree exactly.
        let trace = TraceWorkload::open(&path).unwrap();
        let dp = SimConfig::paper_default();
        let direct = run_app(&trace, Scale::TINY, &dp).unwrap();
        let cell = report
            .cells
            .iter()
            .find(|c| c.label.starts_with("DP,256"))
            .expect("representative DP cell present");
        assert_eq!(cell.accuracy, direct.accuracy());
        assert_eq!(cell.miss_rate, direct.miss_rate());

        let rendered = report.render();
        assert!(rendered.contains("Replay:"));
        assert!(rendered.contains("DP,256,D"));
        assert!(report.to_csv().contains("scheme,accuracy,miss rate"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn sharded_replay_produces_full_reports() {
        let path = temp_trace("sharded");
        record("gap", Scale::TINY, Some(20_000), &path).unwrap();
        let sequential = replay(&path, 1).unwrap();
        let sharded = replay(&path, 4).unwrap();
        assert_eq!(sharded.shards, 4);
        assert_eq!(sharded.cells.len(), sequential.cells.len());
        for (s, q) in sharded.cells.iter().zip(&sequential.cells) {
            assert_eq!(s.label, q.label);
            assert!((0.0..=1.0).contains(&s.accuracy), "{}", s.label);
        }
        // The sharded report is exactly what a direct sharded trace run
        // produces (boundary effects and all): spot-check DP.
        let trace = TraceWorkload::open(&path).unwrap();
        let direct = run_app_sharded(&trace, Scale::TINY, &SimConfig::paper_default(), 4).unwrap();
        let cell = sharded
            .cells
            .iter()
            .find(|c| c.label.starts_with("DP,256"))
            .expect("representative DP cell present");
        assert_eq!(cell.accuracy, direct.merged.accuracy());
        assert_eq!(cell.miss_rate, direct.merged.miss_rate());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn replaying_a_missing_file_is_an_io_error() {
        let err = replay(temp_trace("missing-never-written"), 1).unwrap_err();
        assert!(matches!(err, ReplayError::Trace(TraceError::Io(_))));
    }
}
