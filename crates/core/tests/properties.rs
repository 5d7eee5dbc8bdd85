//! Property-based tests for the prediction-table machinery and the
//! prefetching mechanisms' global invariants.

use proptest::prelude::*;
use tlbsim_core::{
    Associativity, CandidateBuf, ConfidenceConfig, Distance, MissContext, Pc, PredictionTable,
    PrefetcherConfig, PrefetcherKind, SlotList, VirtPage,
};

/// Strategy for valid (rows, associativity) geometries.
fn geometry() -> impl Strategy<Value = (usize, Associativity)> {
    prop_oneof![
        (1usize..=512).prop_map(|r| (r, Associativity::Full)),
        (1usize..=512).prop_map(|r| (r, Associativity::Direct)),
        (1usize..=128).prop_map(|half| (half * 2, Associativity::ways_of(2))),
        (1usize..=64).prop_map(|q| (q * 4, Associativity::ways_of(4))),
    ]
}

fn any_kind() -> impl Strategy<Value = PrefetcherKind> {
    prop_oneof![
        Just(PrefetcherKind::Sequential),
        Just(PrefetcherKind::Stride),
        Just(PrefetcherKind::Markov),
        Just(PrefetcherKind::Recency),
        Just(PrefetcherKind::Distance),
    ]
}

/// Strategy over whole configurations: the five base kinds plus the
/// adaptive families — trend-vote stride at any legal window, a
/// two-component set-dueling ensemble and a confidence-wrapped base.
fn any_config() -> impl Strategy<Value = PrefetcherConfig> {
    prop_oneof![
        any_kind().prop_map(PrefetcherConfig::new),
        (2usize..=16).prop_map(|window| {
            let mut cfg = PrefetcherConfig::trend_stride();
            cfg.window(window);
            cfg
        }),
        (any_kind(), any_kind()).prop_map(|(a, b)| PrefetcherConfig::ensemble_of(&[a, b])),
        any_kind().prop_map(|kind| {
            let mut cfg = PrefetcherConfig::new(kind);
            cfg.confidence(ConfidenceConfig::adaptive());
            cfg
        }),
    ]
}

proptest! {
    /// The table never exceeds its configured capacity and lookups after
    /// insert observe the inserted value.
    #[test]
    fn table_capacity_and_lookup((rows, assoc) in geometry(), keys in prop::collection::vec(0u64..10_000, 1..200)) {
        let mut table: PredictionTable<VirtPage, u64> = PredictionTable::new(rows, assoc).unwrap();
        for (i, k) in keys.iter().enumerate() {
            table.insert(VirtPage::new(*k), i as u64);
            prop_assert!(table.len() <= table.capacity());
            // The just-inserted key must be resident with its value.
            prop_assert_eq!(table.get(VirtPage::new(*k)), Some(&(i as u64)));
        }
    }

    /// Insertions into a direct-mapped table agree with a naive modulo
    /// model: a lookup hit implies the key was the last insert into its
    /// set.
    #[test]
    fn direct_mapped_matches_reference_model(keys in prop::collection::vec(0u64..1_000, 1..300)) {
        let rows = 16usize;
        let mut table: PredictionTable<VirtPage, usize> =
            PredictionTable::new(rows, Associativity::Direct).unwrap();
        let mut model: std::collections::HashMap<u64, (u64, usize)> = Default::default();
        for (i, k) in keys.iter().enumerate() {
            table.insert(VirtPage::new(*k), i);
            model.insert(k % rows as u64, (*k, i));
        }
        for set in 0..rows as u64 {
            if let Some((k, v)) = model.get(&set) {
                prop_assert_eq!(table.get(VirtPage::new(*k)), Some(v));
            }
        }
    }

    /// Slot lists preserve the most recent `capacity` distinct items.
    #[test]
    fn slot_list_keeps_recent_items(cap in 1usize..6, items in prop::collection::vec(0u32..20, 1..100)) {
        let mut slots = SlotList::new(cap);
        for x in &items {
            slots.insert(*x);
        }
        // Walk the history backwards collecting distinct items.
        let mut expected = Vec::new();
        for x in items.iter().rev() {
            if !expected.contains(x) {
                expected.push(*x);
            }
            if expected.len() == cap {
                break;
            }
        }
        let got: Vec<u32> = slots.iter().copied().collect();
        prop_assert_eq!(got, expected);
    }

    /// No mechanism ever prefetches the page that just missed, and the
    /// decision size respects the mechanism's own declared bound.
    #[test]
    fn decisions_respect_declared_bounds(
        kind in any_kind(),
        pages in prop::collection::vec(0u64..2_000, 1..300),
        pcs in prop::collection::vec(0u64..64, 1..300),
    ) {
        let mut p = PrefetcherConfig::new(kind).build().unwrap();
        let (_, max) = p.profile().max_prefetches;
        for (i, page) in pages.iter().enumerate() {
            let pc = Pc::new(pcs[i % pcs.len()] * 4);
            let ctx = MissContext {
                page: VirtPage::new(*page),
                pc,
                prefetch_buffer_hit: i % 3 == 0,
                evicted_tlb_entry: if i % 2 == 0 { Some(VirtPage::new(*page / 2)) } else { None },
            };
            let d = p.decide(&ctx);
            prop_assert!(d.pages.len() <= max as usize,
                "{} returned {} pages (max {})", p.name(), d.pages.len(), max);
            if kind != PrefetcherKind::Recency {
                // RP may legitimately prefetch a stack neighbour equal to
                // another page; but no scheme may prefetch the missed page.
                prop_assert!(!d.pages.contains(&VirtPage::new(*page)));
            }
        }
    }

    /// A long-lived sink reused across every miss (the engines' shape)
    /// observes exactly what a fresh `decide()` per miss observes.
    #[test]
    fn reused_sink_matches_fresh_decisions(
        config in any_config(),
        pages in prop::collection::vec(0u64..500, 1..150),
    ) {
        let mut via_sink = config.build().unwrap();
        let mut via_decide = config.build().unwrap();
        let mut sink = CandidateBuf::new();
        for (i, page) in pages.iter().enumerate() {
            let ctx = MissContext {
                page: VirtPage::new(*page),
                pc: Pc::new(page % 16 * 4),
                prefetch_buffer_hit: i % 3 == 0,
                evicted_tlb_entry: if i % 2 == 0 { Some(VirtPage::new(page / 2)) } else { None },
            };
            sink.clear();
            via_sink.on_miss(&ctx, &mut sink);
            let d = via_decide.decide(&ctx);
            prop_assert_eq!(sink.pages(), d.pages.as_slice());
            prop_assert_eq!(sink.maintenance_ops(), d.maintenance_ops);
        }
    }

    /// Mechanisms are deterministic: replaying the same miss stream on a
    /// fresh instance produces identical decisions.
    #[test]
    fn mechanisms_are_deterministic(
        kind in any_kind(),
        pages in prop::collection::vec(0u64..500, 1..150),
    ) {
        let mut a = PrefetcherConfig::new(kind).build().unwrap();
        let mut b = PrefetcherConfig::new(kind).build().unwrap();
        for page in &pages {
            let ctx = MissContext::demand(VirtPage::new(*page), Pc::new(page % 16 * 4));
            prop_assert_eq!(a.decide(&ctx), b.decide(&ctx));
        }
    }

    /// Flushing returns a mechanism to its initial observable behaviour.
    #[test]
    fn flush_resets_behaviour(
        kind in any_kind(),
        warmup in prop::collection::vec(0u64..500, 1..100),
        probe in prop::collection::vec(0u64..500, 1..50),
    ) {
        let mut warmed = PrefetcherConfig::new(kind).build().unwrap();
        for page in &warmup {
            warmed.decide(&MissContext::demand(VirtPage::new(*page), Pc::new(0)));
        }
        warmed.flush();
        let mut fresh = PrefetcherConfig::new(kind).build().unwrap();
        for page in &probe {
            let ctx = MissContext::demand(VirtPage::new(*page), Pc::new(0));
            prop_assert_eq!(warmed.decide(&ctx), fresh.decide(&ctx));
        }
    }

    /// Distance round-trip: page.offset(q.distance_from(p)) == q for all
    /// page pairs in a sane address range.
    #[test]
    fn distance_offset_roundtrip(a in 0u64..1u64 << 52, b in 0u64..1u64 << 52) {
        let (pa, pb) = (VirtPage::new(a), VirtPage::new(b));
        prop_assert_eq!(pa.offset(pb.distance_from(pa)), Some(pb));
    }

    /// Distance table keys never collide for distinct small distances.
    #[test]
    fn distance_keys_are_injective_in_range(d1 in -512i64..512, d2 in -512i64..512) {
        prop_assume!(d1 != d2);
        let mut table: PredictionTable<Distance, i64> =
            PredictionTable::new(2048, Associativity::Full).unwrap();
        table.insert(Distance::new(d1), d1);
        table.insert(Distance::new(d2), d2);
        prop_assert_eq!(table.get(Distance::new(d1)), Some(&d1));
        prop_assert_eq!(table.get(Distance::new(d2)), Some(&d2));
    }
}
