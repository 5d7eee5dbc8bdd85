//! Input building blocks shared by the workloads.
//!
//! The registered application models are grouped into strata of models
//! with similar footprint, miss rate and prefetch accuracy. Workloads
//! take their models from the strata and let the seed draw what does
//! not change the amount of work — schedules, arrival times, base
//! addresses — so a new seed changes the inputs while figures from
//! different seeds stay comparable.

use std::sync::Arc;

use tlbsim_core::{MemoryAccess, VirtAddr};
use tlbsim_workloads::{find_app, AccessSource, AppSpec, Scale, StreamSpec, Workload};

/// Strata ordered from footprints below TLB reach (128 entries) to far
/// above it. Footprints are demand pages at `Scale::TINY`.
pub const STRATA: [&[&str]; 11] = [
    // 40–69 pages: fits in the TLB; almost no misses.
    &["g721-dec", "g721-enc", "pgp-dec", "eon"],
    // ~360–400 pages, strided and repeated: distance prefetching wins.
    &["gap", "facerec"],
    // ~340–390 pages, repeating irregular.
    &["twolf", "vpr"],
    // ~500 pages, strided once.
    &["unepic", "yacr2"],
    // ~700–900 pages, strided once.
    &["epic", "pgp-enc", "equake", "mipmap-mesa", "gzip"],
    // ~600–800 pages, irregular with partial repetition.
    &["sixtrack", "gcc"],
    // ~1700 pages, repeating irregular.
    &["mgrid", "wupwise", "swim", "applu"],
    // ~1700–2000 pages, low accuracy for every scheme.
    &["jpeg-enc", "jpeg-dec", "gsm-enc", "gsm-dec", "msvc"],
    // ~2800–3000 pages, strided repeated.
    &["mesa", "art"],
    // ~5200–6900 pages, strided.
    &["bzip", "texgen-mesa"],
    // ~5600–6000 pages, one miss in five accesses.
    &["adpcm-dec", "adpcm-enc"],
];

/// Indices into [`STRATA`] whose footprints are far above TLB reach and
/// the 256-row prediction tables.
pub const LARGE_STRATA: [usize; 5] = [6, 7, 8, 9, 10];

pub fn app(name: &str) -> &'static AppSpec {
    find_app(name).unwrap_or_else(|| panic!("stratum names unregistered model {name:?}"))
}

/// Every model of the listed strata.
pub fn members(strata: impl IntoIterator<Item = usize>) -> Vec<&'static AppSpec> {
    strata
        .into_iter()
        .flat_map(|s| STRATA[s].iter().map(|name| app(name)))
        .collect()
}

pub fn as_streams(apps: &[&'static AppSpec]) -> Vec<Arc<dyn StreamSpec>> {
    apps.iter()
        .map(|&a| Arc::new(a) as Arc<dyn StreamSpec>)
        .collect()
}

/// Accesses `start..start + len` of another stream, as a stream of its
/// own. Jobs over slices stay short, and a job that repeats many times
/// in a run gives a steady fastest time.
pub struct Slice {
    pub inner: Arc<dyn StreamSpec>,
    pub start: u64,
    pub len: u64,
}

impl StreamSpec for Slice {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn workload(&self, scale: Scale) -> Workload {
        let mut inner = self.inner.workload(scale);
        let skipped = inner.skip_accesses(self.start);
        let left = if skipped == self.start { self.len } else { 0 };
        Workload::from_source(self.inner.name(), Box::new(Limit { inner, left }))
    }

    fn stream_len(&self, scale: Scale) -> u64 {
        self.len
            .min(self.inner.stream_len(scale).saturating_sub(self.start))
    }

    fn seek_alignment(&self) -> u64 {
        self.inner.seek_alignment()
    }
}

/// At most `left` more accesses of `inner`.
struct Limit {
    inner: Workload,
    left: u64,
}

impl AccessSource for Limit {
    fn fill(&mut self, buf: &mut [MemoryAccess]) -> usize {
        let want = buf
            .len()
            .min(usize::try_from(self.left).unwrap_or(usize::MAX));
        if want == 0 {
            return 0;
        }
        let n = self.inner.fill_batch(&mut buf[..want]);
        self.left -= n as u64;
        n
    }

    fn skip(&mut self, n: u64) -> u64 {
        let skipped = self.inner.skip_accesses(n.min(self.left));
        self.left -= skipped;
        skipped
    }
}

/// Another stream with every virtual address moved by `offset`, as
/// address-space layout randomisation moves a program's data between
/// runs. The access pattern, and so the work of simulating it, stays
/// the same; the pages differ.
pub struct Relocated {
    pub inner: Arc<dyn StreamSpec>,
    /// Added to every virtual address; a whole number of pages keeps
    /// page offsets as they were.
    pub offset: u64,
}

impl StreamSpec for Relocated {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn workload(&self, scale: Scale) -> Workload {
        let inner = self.inner.workload(scale);
        let shift = Shift {
            inner,
            offset: self.offset,
        };
        Workload::from_source(self.inner.name(), Box::new(shift))
    }

    fn stream_len(&self, scale: Scale) -> u64 {
        self.inner.stream_len(scale)
    }

    fn seek_alignment(&self) -> u64 {
        self.inner.seek_alignment()
    }
}

/// `inner` with `offset` added to every virtual address.
struct Shift {
    inner: Workload,
    offset: u64,
}

impl AccessSource for Shift {
    fn fill(&mut self, buf: &mut [MemoryAccess]) -> usize {
        let n = self.inner.fill_batch(buf);
        for access in &mut buf[..n] {
            access.vaddr = VirtAddr::new(access.vaddr.raw().wrapping_add(self.offset));
        }
        n
    }

    fn skip(&mut self, n: u64) -> u64 {
        self.inner.skip_accesses(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slice_is_that_part_of_its_stream() {
        let gap: Arc<dyn StreamSpec> = Arc::new(app("gap"));
        let full: Vec<MemoryAccess> = gap.workload(Scale::TINY).collect();
        let slice = Slice {
            inner: Arc::clone(&gap),
            start: 1000,
            len: 5000,
        };
        assert_eq!(slice.stream_len(Scale::TINY), 5000);
        let mut tail = slice.workload(Scale::TINY);
        assert_eq!(tail.skip_accesses(100), 100);
        let rest: Vec<MemoryAccess> = tail.collect();
        assert_eq!(rest, full[1100..6000]);
    }

    #[test]
    fn a_relocated_stream_is_its_stream_moved() {
        let gap: Arc<dyn StreamSpec> = Arc::new(app("gap"));
        let full: Vec<MemoryAccess> = gap.workload(Scale::TINY).collect();
        let moved = Relocated {
            inner: Arc::clone(&gap),
            offset: 7 << 12,
        };
        assert_eq!(moved.stream_len(Scale::TINY), full.len() as u64);
        let mut tail = moved.workload(Scale::TINY);
        assert_eq!(tail.skip_accesses(100), 100);
        let rest: Vec<MemoryAccess> = tail.collect();
        assert_eq!(rest.len(), full.len() - 100);
        for (a, b) in rest.iter().zip(&full[100..]) {
            assert_eq!(a.vaddr.raw(), b.vaddr.raw() + (7 << 12));
            assert_eq!((a.pc, a.kind), (b.pc, b.kind));
        }
    }

    #[test]
    fn every_stratum_member_is_registered() {
        for stratum in STRATA {
            for name in stratum {
                assert!(find_app(name).is_some(), "{name}");
            }
        }
    }
}
