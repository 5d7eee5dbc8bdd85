//! Trace health inspection and chaos baking (`xp check` / `xp chaos`).
//!
//! `check` is the preflight a damaged trace deserves: it censuses the
//! file's full damage under an unbounded quarantine scan
//! ([`DecodePolicy::lenient`]) and then says whether the *requested*
//! policy would admit it — strict for clean-or-die pipelines, a
//! quarantine budget for salvage runs. `chaos` is the other half of the
//! loop: it bakes a deterministic [`FaultPlan`] into a copy of a trace
//! so CI (and anyone reproducing a failure) can manufacture a corrupt
//! input with a one-line command instead of a hex editor.

use std::path::{Path, PathBuf};

use tlbsim_trace::{DecodePolicy, FaultKind, FaultPlan, Trace, TraceHealth};

use crate::replay::ReplayError;

/// What `xp check` found: the trace's damage census and the verdict of
/// the policy the caller asked about.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// Trace file checked.
    pub path: PathBuf,
    /// Record grid size (including unparseable cells).
    pub grid_records: u64,
    /// Full damage census from an unbounded quarantine scan.
    pub health: TraceHealth,
    /// The policy the verdict is rendered under.
    pub policy: DecodePolicy,
    /// Whether `policy` admits this trace.
    pub admitted: bool,
}

impl CheckReport {
    /// Multi-line human-readable report.
    pub fn render(&self) -> String {
        format!(
            "Check: {}\n  records   {} on the grid, {} decodable\n  health    {}\n  policy    {} -> {}",
            self.path.display(),
            self.grid_records,
            self.health.records_ok,
            self.health,
            self.policy,
            if self.admitted { "admitted" } else { "REJECTED" },
        )
    }
}

/// Censuses `path`'s damage and judges it under `policy`.
///
/// The scan itself always runs with an unbounded quarantine, so the
/// report covers *all* the damage even when the requested policy would
/// have aborted earlier; only the header must be intact.
///
/// # Errors
///
/// [`ReplayError`] if the file cannot be opened or its header is not a
/// valid `TLBT` header (a bad header means there is no record grid to
/// census).
pub fn check(path: impl AsRef<Path>, policy: DecodePolicy) -> Result<CheckReport, ReplayError> {
    let path = path.as_ref();
    // A v2 trace censuses through the block decoder, so its bad
    // records tally in whole blocks.
    let trace = Trace::open_with_policy(path, DecodePolicy::lenient())?;
    let health = trace.scan_health()?;
    Ok(CheckReport {
        path: path.to_owned(),
        grid_records: trace.record_count(),
        health,
        policy,
        admitted: policy.admits(&health),
    })
}

/// What `xp chaos` baked: the plan's shape and where the damaged copy
/// went.
#[derive(Debug, Clone)]
pub struct ChaosSummary {
    /// Source trace.
    pub source: PathBuf,
    /// Damaged copy written.
    pub out: PathBuf,
    /// Seed the plan was drawn from.
    pub seed: u64,
    /// Faults baked, per kind.
    pub planned: Vec<(FaultKind, usize)>,
    /// Records in the source trace.
    pub records: u64,
    /// Bytes written to `out`.
    pub bytes: u64,
}

impl ChaosSummary {
    /// One-line human-readable summary.
    pub fn render(&self) -> String {
        let faults: Vec<String> = self
            .planned
            .iter()
            .map(|(kind, n)| format!("{n} {kind:?}"))
            .collect();
        format!(
            "baked [{}] (seed {}) into {} -> {} ({} records, {} bytes)",
            faults.join(", "),
            self.seed,
            self.source.display(),
            self.out.display(),
            self.records,
            self.bytes
        )
    }
}

/// Bakes a seeded fault plan into a copy of `trace` at `out`: `corrupt`
/// kind-byte corruptions, `wild` out-of-range vaddr rewrites, and
/// optionally one torn tail, at positions drawn deterministically from
/// `seed`.
///
/// The source is validated strictly first — chaos is injected into a
/// known-good image, so every bad record in the output is one the plan
/// put there.
///
/// # Errors
///
/// [`ReplayError`] if the source is unreadable or not a clean trace, if
/// the plan asks for more faults than there are records, or if the copy
/// cannot be written.
pub fn bake(
    trace: impl AsRef<Path>,
    out: impl AsRef<Path>,
    seed: u64,
    corrupt: usize,
    wild: usize,
    truncate: bool,
) -> Result<ChaosSummary, ReplayError> {
    let trace = trace.as_ref();
    let out = out.as_ref();
    let source = Trace::open(trace)?;
    // A torn tail cannot be baked into a v2 trace: the block index and
    // footer live at the end of the file, so cutting bytes there
    // destroys the whole layout (a fatal torn index, not a
    // quarantinable record) — refuse the plan instead of baking an
    // unreplayable file.
    if truncate && !source.salvages_torn_tail() {
        return Err(ReplayError::Chaos(
            "--truncate tears the v2 block index (fatal under every policy); \
             use --corrupt/--wild on v2 traces"
                .to_owned(),
        ));
    }
    source.validate_records()?;
    let records = source.record_count();

    let planned: Vec<(FaultKind, usize)> = [
        (FaultKind::CorruptKind, corrupt),
        (FaultKind::WildVaddr, wild),
        (FaultKind::TruncateTail, usize::from(truncate)),
    ]
    .into_iter()
    .filter(|(_, n)| *n > 0)
    .collect();
    let total: usize = planned.iter().map(|(_, n)| n).sum();
    if total as u64 > records {
        return Err(ReplayError::Chaos(format!(
            "plan wants {total} faults but the trace has only {records} records"
        )));
    }

    let mut bytes = std::fs::read(trace)?;
    FaultPlan::seeded(seed, records, &planned).apply_to_bytes(&mut bytes);
    let written = bytes.len() as u64;
    std::fs::write(out, bytes)?;
    Ok(ChaosSummary {
        source: trace.to_owned(),
        out: out.to_owned(),
        seed,
        planned,
        records,
        bytes: written,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::record;
    use tlbsim_workloads::{Scale, TraceWorkload};

    fn temp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("tlbsim-health-{}-{tag}.tlbt", std::process::id()))
    }

    #[test]
    fn check_reports_a_clean_trace_as_admitted_everywhere() {
        let path = temp("clean");
        record("gap", Scale::TINY, Some(2000), &path).unwrap();
        let strict = check(&path, DecodePolicy::Strict).unwrap();
        assert!(strict.admitted);
        assert!(strict.health.is_clean());
        assert_eq!(strict.health.records_ok, 2000);
        assert!(strict.render().contains("admitted"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn baked_chaos_is_censused_and_judged_per_policy() {
        let clean = temp("bake-src");
        let dirty = temp("bake-dst");
        record("gap", Scale::TINY, Some(2000), &clean).unwrap();
        let summary = bake(&clean, &dirty, 42, 5, 0, false).unwrap();
        assert_eq!(summary.records, 2000);
        assert!(summary.render().contains("5 CorruptKind"));

        let strict = check(&dirty, DecodePolicy::Strict).unwrap();
        assert!(!strict.admitted, "corruption must fail strict");
        assert_eq!(strict.health.records_bad, 5);
        assert_eq!(strict.health.records_ok, 1995);
        assert!(strict.render().contains("REJECTED"));

        let salvage = check(&dirty, DecodePolicy::quarantine(5)).unwrap();
        assert!(salvage.admitted, "budget 5 covers 5 bad records");
        let tight = check(&dirty, DecodePolicy::quarantine(4)).unwrap();
        assert!(!tight.admitted);

        // The damaged copy actually replays under quarantine.
        let replayed =
            TraceWorkload::open_with_policy(&dirty, DecodePolicy::quarantine(5)).unwrap();
        assert_eq!(replayed.stream_len(), 1995);
        std::fs::remove_file(&clean).unwrap();
        std::fs::remove_file(&dirty).unwrap();
    }

    #[test]
    fn a_torn_tail_is_reported_and_strict_rejects_it() {
        let clean = temp("tear-src");
        let dirty = temp("tear-dst");
        record("gap", Scale::TINY, Some(500), &clean).unwrap();
        bake(&clean, &dirty, 7, 0, 0, true).unwrap();
        let report = check(&dirty, DecodePolicy::Strict).unwrap();
        assert!(!report.admitted);
        assert!(report.health.torn_tail_bytes > 0);
        assert!(check(&dirty, DecodePolicy::lenient()).unwrap().admitted);
        std::fs::remove_file(&clean).unwrap();
        std::fs::remove_file(&dirty).unwrap();
    }

    #[test]
    fn v2_traces_check_and_bake_block_granular() {
        use crate::replay::{record_with_format, RecordFormat};
        let clean = temp("v2-src");
        let dirty = temp("v2-dst");
        record_with_format(
            "gap",
            Scale::TINY,
            Some(2000),
            &clean,
            RecordFormat::V2 { block_len: 16 },
        )
        .unwrap();

        // Tearing the tail of a v2 trace would destroy the block index,
        // so the plan is refused outright.
        let err = bake(&clean, &dirty, 1, 0, 0, true).unwrap_err();
        assert!(matches!(err, ReplayError::Chaos(_)));
        assert!(err.to_string().contains("block index"));

        let summary = bake(&clean, &dirty, 42, 2, 1, false).unwrap();
        assert_eq!(summary.records, 2000);

        let strict = check(&dirty, DecodePolicy::Strict).unwrap();
        assert!(!strict.admitted);
        assert_eq!(strict.grid_records, 2000);
        // v2 quarantine is block-granular: each corrupted record costs
        // its whole 16-record block.
        assert!(strict.health.blocks_bad >= 1 && strict.health.blocks_bad <= 3);
        assert_eq!(strict.health.records_bad, strict.health.blocks_bad * 16);

        let salvage = check(&dirty, DecodePolicy::quarantine(strict.health.records_bad)).unwrap();
        assert!(salvage.admitted);
        let replayed = TraceWorkload::open_with_policy(
            &dirty,
            DecodePolicy::quarantine(strict.health.records_bad),
        )
        .unwrap();
        assert_eq!(replayed.stream_len(), 2000 - strict.health.records_bad);
        std::fs::remove_file(&clean).unwrap();
        std::fs::remove_file(&dirty).unwrap();
    }

    #[test]
    fn overfull_plans_and_damaged_sources_are_typed_errors() {
        let clean = temp("overfull");
        record("gap", Scale::TINY, Some(10), &clean).unwrap();
        let err = bake(&clean, temp("overfull-dst"), 1, 11, 0, false).unwrap_err();
        assert!(matches!(err, ReplayError::Chaos(_)));
        assert!(err.to_string().contains("11 faults"));

        // Chaos only bakes into clean sources.
        let dirty = temp("overfull-dirty");
        bake(&clean, &dirty, 1, 2, 0, false).unwrap();
        assert!(matches!(
            bake(&dirty, temp("never"), 1, 1, 0, false),
            Err(ReplayError::Trace(_))
        ));
        std::fs::remove_file(&clean).unwrap();
        std::fs::remove_file(&dirty).unwrap();
    }
}
