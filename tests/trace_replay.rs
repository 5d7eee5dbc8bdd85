//! The differential trace-replay harness.
//!
//! The central claim of trace-driven execution is that a recorded trace
//! is a *perfect* substitute for the generator that produced it: not
//! approximately, but bit-for-bit, through every execution mode. This
//! harness records one representative application per suite (family) to
//! a `TLBT` file, replays it through [`TraceWorkload`], and asserts the
//! replayed [`SimStats`] equal the generator run exactly — for all five
//! prefetching mechanisms, sequentially and sharded at 1 and 4 shards.
//! Sharded equality is the strong form: boundary cold-start effects are
//! present in both runs and must line up shard by shard.
//!
//! A tiny recorded trace (`tests/data/gap-tiny-2k.tlbt`) is also checked
//! in and pinned here, so format regressions fail against bytes this
//! build did not produce.

use tlb_distance::prelude::*;
use tlb_distance::trace::{BinaryTraceReader, BinaryTraceWriter, MmapTrace, V2TraceWriter};

/// One representative per application family (suite), chosen for
/// distinct stream shapes: mcf (SPEC, pointer-heavy), adpcm-enc
/// (MediaBench, high-miss strided), perl4 (Etch desktop mix), ft
/// (Pointer-Intensive chase).
const FAMILY_REPS: [&str; 4] = ["mcf", "adpcm-enc", "perl4", "ft"];

/// The five prefetching mechanisms under test.
fn mechanisms() -> [PrefetcherConfig; 5] {
    [
        PrefetcherConfig::sequential(),
        PrefetcherConfig::stride(),
        PrefetcherConfig::markov(),
        PrefetcherConfig::recency(),
        PrefetcherConfig::distance(),
    ]
}

fn record_to_temp(app: &AppSpec, tag: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!(
        "tlbsim-differential-{}-{}-{tag}.tlbt",
        std::process::id(),
        app.name
    ));
    let mut writer = BinaryTraceWriter::create(std::fs::File::create(&path).unwrap()).unwrap();
    for access in app.workload(Scale::TINY) {
        writer.write(&access).unwrap();
    }
    writer.finish().unwrap();
    path
}

#[test]
fn replayed_stats_are_bit_identical_for_every_family_and_mechanism() {
    for name in FAMILY_REPS {
        let app = find_app(name).expect("family representative is registered");
        let path = record_to_temp(app, "seq");
        let trace = TraceWorkload::open(&path).unwrap();
        assert_eq!(trace.stream_len(), app.stream_len(Scale::TINY));

        for prefetcher in mechanisms() {
            let label = prefetcher.label();
            let config = SimConfig::paper_default().with_prefetcher(prefetcher);
            let from_generator = run_app(app, Scale::TINY, &config).unwrap();
            let from_trace = run_app(&trace, Scale::TINY, &config).unwrap();
            assert_eq!(
                from_generator, from_trace,
                "{name}/{label}: sequential replay diverged from the generator"
            );
        }
        std::fs::remove_file(&path).unwrap();
    }
}

#[test]
fn sharded_replay_matches_sharded_generator_runs_shard_by_shard() {
    for name in FAMILY_REPS {
        let app = find_app(name).expect("family representative is registered");
        let path = record_to_temp(app, "sharded");
        let trace = TraceWorkload::open(&path).unwrap();

        for prefetcher in mechanisms() {
            let label = prefetcher.label();
            let config = SimConfig::paper_default().with_prefetcher(prefetcher);
            for shards in [1usize, 4] {
                let from_generator = run_app_sharded(app, Scale::TINY, &config, shards).unwrap();
                let from_trace = run_app_sharded(&trace, Scale::TINY, &config, shards).unwrap();
                assert_eq!(
                    from_generator.merged, from_trace.merged,
                    "{name}/{label}@{shards}: merged sharded stats diverged"
                );
                assert_eq!(
                    from_generator.boundary_resident_prefetches,
                    from_trace.boundary_resident_prefetches,
                    "{name}/{label}@{shards}: boundary reconciliation diverged"
                );
                for (g, t) in from_generator.shards.iter().zip(&from_trace.shards) {
                    assert_eq!(g.range, t.range, "{name}/{label}@{shards}: plan diverged");
                    assert_eq!(
                        g.stats, t.stats,
                        "{name}/{label}@{shards}: a shard's stats diverged"
                    );
                }
            }
        }
        std::fs::remove_file(&path).unwrap();
    }
}

#[test]
fn one_shard_trace_replay_equals_the_sequential_replay() {
    let app = find_app("mcf").unwrap();
    let path = record_to_temp(app, "one-shard");
    let trace = TraceWorkload::open(&path).unwrap();
    let config = SimConfig::paper_default();
    let sequential = run_app(&trace, Scale::TINY, &config).unwrap();
    let sharded = run_app_sharded(&trace, Scale::TINY, &config, 1).unwrap();
    assert_eq!(sharded.merged, sequential);
    assert_eq!(sharded.boundary_resident_prefetches, 0);
    std::fs::remove_file(&path).unwrap();
}

/// Converts a flat v1 trace into a block-compressed v2 trace (the `xp
/// convert --format v2` path, inlined so the differential pins the
/// library, not the CLI).
fn convert_to_v2(v1_path: &std::path::Path, block_len: u32, tag: &str) -> std::path::PathBuf {
    let out = std::env::temp_dir().join(format!(
        "tlbsim-differential-v2-{}-{tag}-{}.tlbt",
        std::process::id(),
        v1_path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("trace")
    ));
    let reader = BinaryTraceReader::open(std::fs::File::open(v1_path).unwrap()).unwrap();
    let mut writer =
        V2TraceWriter::create_with_block_len(std::fs::File::create(&out).unwrap(), block_len)
            .unwrap();
    for record in reader {
        writer.write(&record.unwrap()).unwrap();
    }
    writer.finish().unwrap();
    out
}

/// The largest block length that lands every interior cut of the
/// even-split plan on a block boundary, so
/// `ShardPlan::split_aligned(total, shards, b)` equals
/// `ShardPlan::split(total, shards)` exactly and v1/v2 sharded runs see
/// identical partitions. Falls back to 1 (a restart per record) when
/// the cuts share no larger divisor.
fn aligned_block_len(total: u64, shards: u64) -> u32 {
    fn gcd(a: u64, b: u64) -> u64 {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }
    let q = total / shards;
    let r = total % shards;
    let mut g = 0u64;
    let mut pos = 0u64;
    for i in 0..shards.saturating_sub(1) {
        pos += q + u64::from(i < r);
        g = gcd(g, pos);
    }
    u32::try_from(g.max(1)).unwrap_or(u32::MAX)
}

#[test]
fn v2_conversion_replays_bit_identically_for_every_family_and_mechanism() {
    for name in FAMILY_REPS {
        let app = find_app(name).expect("family representative is registered");
        let v1_path = record_to_temp(app, "v2-seq");
        let v2_path = convert_to_v2(&v1_path, 64, "seq");
        let v1 = TraceWorkload::open(&v1_path).unwrap();
        let v2 = TraceWorkload::open(&v2_path).unwrap();
        assert_eq!(v1.format_version(), 1);
        assert_eq!(v2.format_version(), 2, "{name}: v2 header sniffed");
        assert_eq!(v2.stream_len(), v1.stream_len(), "{name}: lengths agree");
        // Streaming (windowed-mmap) replay of the same v2 bytes.
        let v2s = TraceWorkload::open_streaming(&v2_path, DecodePolicy::Strict, 2).unwrap();
        assert_eq!(v2s.stream_len(), v1.stream_len());

        for prefetcher in mechanisms() {
            let label = prefetcher.label();
            let config = SimConfig::paper_default().with_prefetcher(prefetcher);
            let from_v1 = run_app(&v1, Scale::TINY, &config).unwrap();
            let from_v2 = run_app(&v2, Scale::TINY, &config).unwrap();
            let from_v2s = run_app(&v2s, Scale::TINY, &config).unwrap();
            assert_eq!(
                from_v1, from_v2,
                "{name}/{label}: v2 replay diverged from v1 replay"
            );
            assert_eq!(
                from_v2, from_v2s,
                "{name}/{label}: streaming v2 replay diverged from whole-map v2 replay"
            );
        }
        std::fs::remove_file(&v1_path).unwrap();
        std::fs::remove_file(&v2_path).unwrap();
    }
}

#[test]
fn v2_sharded_replay_is_bit_identical_when_blocks_align_with_the_cuts() {
    for name in FAMILY_REPS {
        let app = find_app(name).expect("family representative is registered");
        let v1_path = record_to_temp(app, "v2-sharded");
        let total = app.stream_len(Scale::TINY);
        // Block boundaries coincide with the 4-shard even-split cuts,
        // so the alignment-aware plan is exactly the plain plan and
        // shard-by-shard stats must match bit for bit.
        let block_len = aligned_block_len(total, 4);
        let v2_path = convert_to_v2(&v1_path, block_len, "sharded");
        let v1 = TraceWorkload::open(&v1_path).unwrap();
        let v2 = TraceWorkload::open(&v2_path).unwrap();

        for prefetcher in mechanisms() {
            let label = prefetcher.label();
            let config = SimConfig::paper_default().with_prefetcher(prefetcher);
            for shards in [1usize, 4] {
                let from_v1 = run_app_sharded(&v1, Scale::TINY, &config, shards).unwrap();
                let from_v2 = run_app_sharded(&v2, Scale::TINY, &config, shards).unwrap();
                assert_eq!(
                    from_v1.merged, from_v2.merged,
                    "{name}/{label}@{shards}: merged sharded stats diverged across formats"
                );
                for (a, b) in from_v1.shards.iter().zip(&from_v2.shards) {
                    assert_eq!(
                        a.range, b.range,
                        "{name}/{label}@{shards}: aligned plan diverged from the even split"
                    );
                    assert_eq!(
                        a.stats, b.stats,
                        "{name}/{label}@{shards}: a shard's stats diverged across formats"
                    );
                }
            }
        }
        std::fs::remove_file(&v1_path).unwrap();
        std::fs::remove_file(&v2_path).unwrap();
    }
}

/// The v2 size gate: the default block encoding of galgel at
/// `Scale::SMALL` — a strided pointer-chasing stream — must average at
/// most 6 bytes per record (flat v1 is 17). A regression here means the
/// encoder stopped exploiting the deltas.
#[test]
fn v2_encodes_the_galgel_fixture_under_six_bytes_per_record() {
    use tlb_distance::experiments::replay::{record_spec, record_spec_with_format, RecordFormat};

    let app = find_app("galgel").expect("galgel is registered");
    let tmp = |tag: &str| {
        std::env::temp_dir().join(format!(
            "tlbsim-differential-size-{}-{tag}.tlbt",
            std::process::id()
        ))
    };
    let (v1_path, v2_path) = (tmp("v1"), tmp("v2"));
    let v1 = record_spec(app, Scale::SMALL, None, &v1_path).unwrap();
    let v2 = record_spec_with_format(
        app,
        Scale::SMALL,
        None,
        &v2_path,
        RecordFormat::v2_default(),
    )
    .unwrap();
    std::fs::remove_file(&v1_path).unwrap();
    std::fs::remove_file(&v2_path).unwrap();
    assert_eq!(v1.records, v2.records, "both formats hold the same stream");
    let bytes_per_record = v2.bytes as f64 / v2.records as f64;
    assert!(
        bytes_per_record <= 6.0,
        "v2 must encode galgel@small at <= 6 bytes/record, measured {bytes_per_record:.2}"
    );
}

/// The checked-in regression trace: 2000 records of gap at `Scale::TINY`
/// recorded by `xp record --app gap --scale tiny --limit 2000`. These
/// bytes were written by a past build, so any encoding or decoding
/// drift in the current build fails against them.
const REGRESSION_TRACE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/gap-tiny-2k.tlbt");

#[test]
fn checked_in_regression_trace_replays_identically_on_both_decoders() {
    let trace = MmapTrace::open(REGRESSION_TRACE).unwrap();
    assert_eq!(trace.record_count(), 2000);
    assert_eq!(trace.byte_len(), 8 + 2000 * 17);

    let via_mmap: Vec<MemoryAccess> = trace.cursor().map(|r| r.unwrap()).collect();
    let via_reader: Vec<MemoryAccess> =
        BinaryTraceReader::open(std::fs::File::open(REGRESSION_TRACE).unwrap())
            .unwrap()
            .map(|r| r.unwrap())
            .collect();
    assert_eq!(via_mmap, via_reader);

    // The recorded prefix equals what today's generator emits: the
    // record pipeline (fill_batch -> writer) has not drifted.
    let generated: Vec<MemoryAccess> = find_app("gap")
        .unwrap()
        .workload(Scale::TINY)
        .take(2000)
        .collect();
    assert_eq!(via_mmap, generated);
}

#[test]
fn checked_in_regression_trace_drives_the_full_stack() {
    let trace = TraceWorkload::open(REGRESSION_TRACE).unwrap();
    assert_eq!(trace.name(), "gap-tiny-2k");
    assert_eq!(trace.stream_len(), 2000);

    // Replay through the functional engine under DP: deterministic, so
    // the coarse shape is pinned (exact values live in the generator
    // differential tests above).
    let stats = run_app(&trace, Scale::TINY, &SimConfig::paper_default()).unwrap();
    assert_eq!(stats.accesses, 2000);
    assert!(stats.misses > 0);
    assert!(stats.misses <= stats.accesses);
    assert_eq!(
        stats.prefetch_buffer_hits + stats.demand_walks,
        stats.misses
    );

    // And sharded replay of the checked-in bytes still partitions
    // exactly.
    let sharded = run_app_sharded(&trace, Scale::TINY, &SimConfig::paper_default(), 4).unwrap();
    assert_eq!(sharded.merged.accesses, 2000);
    assert_eq!(sharded.shards.len(), 4);
}

#[test]
fn checked_in_trace_converted_to_v2_is_bit_identical_even_sharded() {
    // The anchor of the v1<->v2 sharded differential: 2000 records at 4
    // shards cut at 500/1000/1500, and block length 100 divides every
    // cut, so the alignment-aware v2 plan IS the v1 even split.
    let v2_path = convert_to_v2(std::path::Path::new(REGRESSION_TRACE), 100, "pinned");
    let v1 = TraceWorkload::open(REGRESSION_TRACE).unwrap();
    let v2 = TraceWorkload::open(&v2_path).unwrap();
    assert_eq!(v2.format_version(), 2);
    assert_eq!(v2.stream_len(), 2000);

    // The converted bytes decode back to the exact checked-in records.
    let want: Vec<MemoryAccess> = MmapTrace::open(REGRESSION_TRACE)
        .unwrap()
        .cursor()
        .map(|r| r.unwrap())
        .collect();
    let got: Vec<MemoryAccess> = tlb_distance::trace::V2Trace::open(&v2_path)
        .unwrap()
        .cursor()
        .map(|r| r.unwrap())
        .collect();
    assert_eq!(got, want);

    let config = SimConfig::paper_default();
    let sequential_v1 = run_app(&v1, Scale::TINY, &config).unwrap();
    let sequential_v2 = run_app(&v2, Scale::TINY, &config).unwrap();
    assert_eq!(sequential_v1, sequential_v2);

    let sharded_v1 = run_app_sharded(&v1, Scale::TINY, &config, 4).unwrap();
    let sharded_v2 = run_app_sharded(&v2, Scale::TINY, &config, 4).unwrap();
    assert_eq!(sharded_v1.merged, sharded_v2.merged);
    for (a, b) in sharded_v1.shards.iter().zip(&sharded_v2.shards) {
        assert_eq!(
            a.range, b.range,
            "block-aligned plan must equal the even split"
        );
        assert_eq!(a.stats, b.stats);
    }
    std::fs::remove_file(&v2_path).unwrap();
}
