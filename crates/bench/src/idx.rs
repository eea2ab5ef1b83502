//! Index-scan cell: the secondary-index access path against the full
//! heap walk it replaces, at matched object counts.
//!
//! Two heaps are built with the same `objects` entries (u64 keys, a
//! permutation of `0..objects` inserted in scrambled order):
//!
//! * an **indexed** heap whose entries are reachable through a
//!   [`Index`] on the key field (insertion pays the CoW B-tree
//!   maintenance inside the same transaction), and
//! * a **plain** heap whose entries hang off a root via a `next`-ref
//!   chain (the typed layer's only native access path), found by
//!   [`scan_filter`] — a live-set walk over the whole heap.
//!
//! The gated number is `full_scan / indexed_scan` for a fixed 100-key
//! window: the point of the index subsystem is that a range query must
//! not pay O(heap). Build times ride along as the insert-overhead cell
//! (plain build over indexed build — below 1.0, since indexed inserts
//! also write the tree path).

use std::time::{Duration, Instant};

use espresso::heap::{HeapHandle, HeapManager, HeapTxn, PjhConfig, PjhError};
use espresso_index::{scan_filter, Index, Key};
use espresso_object::{PObject, PRef, Schema};

struct Entry;

impl PObject for Entry {
    const CLASS_NAME: &'static str = "bench.IdxEntry";
    fn schema() -> Schema {
        Schema::builder(Self::CLASS_NAME)
            .u64_field("k")
            .ref_field::<Entry>("next")
            .build()
    }
}

/// What [`run_index_scan`] measured.
#[derive(Debug, Clone, Copy)]
pub struct IndexScanResult {
    /// Wall time to insert every entry with index maintenance.
    pub indexed_build: Duration,
    /// Wall time to insert every entry onto the plain ref chain.
    pub plain_build: Duration,
    /// Best-of-N time for the 100-key window via `Index::range`.
    pub indexed_scan: Duration,
    /// Best-of-N time for the same window via `scan_filter` (full walk).
    pub full_scan: Duration,
    /// Window hits (identical on both paths, asserted).
    pub hits: usize,
}

/// Inserts per transaction: 4 logged stores per indexed insert (key
/// field, chain ref, and the index's two) must stay under the undo log's
/// fixed entry budget.
const BATCH: usize = 32;

/// Scan repetitions per cell; the minimum is reported (scans are
/// read-only, so the best run is the least-perturbed one).
const SCAN_REPS: usize = 5;

/// Collect every this many batches during the indexed build. CoW index
/// maintenance sheds a tree path per insert; collecting while free
/// regions still exist lets the GC evacuate sparse regions, whereas a
/// heap run to exhaustion leaves live entries pinning every region
/// in place and only exact-size slots reusable.
const GC_EVERY_BATCHES: usize = 256;

/// Runs `f` as one transaction under the heap's `HeapFull` policy — CoW
/// index maintenance sheds dead tree paths that only a collection
/// reclaims.
fn txn_retry<R>(handle: &HeapHandle, f: impl Fn(&mut HeapTxn<'_>) -> Result<R, PjhError>) -> R {
    handle.txn_retry(f).expect("bench txn")
}

/// The scrambled insertion order: an odd-prime stride is a bijection on
/// `0..objects` whenever the prime does not divide `objects`, so keys
/// arrive shuffled but every key in the range exists exactly once.
fn key_at(i: usize, objects: usize) -> u64 {
    ((i as u64).wrapping_mul(1_000_003)) % objects as u64
}

fn heap_bytes(objects: usize) -> usize {
    // Live entries plus tree nodes plus CoW slack; the GC-retry path
    // absorbs estimation error.
    (64 << 20) + objects * 512
}

/// Builds both heaps at `objects` entries and times the window scan on
/// each access path.
///
/// # Panics
///
/// On any heap error, and if the two paths disagree on the window's
/// contents — a timing cell over a wrong answer would be meaningless.
pub fn run_index_scan(objects: usize) -> IndexScanResult {
    assert!(objects >= 256, "window needs room");
    let lo = (objects / 2) as u64;
    let hi = lo + 100;

    let mgr = HeapManager::temp().expect("temp manager");

    // Indexed heap: entries reachable through the index itself.
    let indexed = mgr
        .create("idx_bench", heap_bytes(objects), PjhConfig::default())
        .expect("indexed heap");
    let (class, idx) = indexed
        .with_mut(|h| {
            let class = h.register::<Entry>()?;
            let idx = Index::<Entry>::create(h, "bench.by_k", "k")?;
            Ok::<_, PjhError>((class, idx))
        })
        .expect("create index");
    let fk = class.field::<u64>("k").expect("k field");

    let started = Instant::now();
    for batch in (0..objects).step_by(BATCH) {
        let end = (batch + BATCH).min(objects);
        txn_retry(&indexed, |t| {
            for i in batch..end {
                let k = key_at(i, objects);
                let obj = t.alloc::<Entry>()?;
                t.set(obj, fk, k);
                idx.insert(t, &Key::U64(k), obj)?;
            }
            Ok(())
        });
        if (batch / BATCH + 1).is_multiple_of(GC_EVERY_BATCHES) {
            indexed.with_mut(|h| h.gc_full(&[])).expect("periodic gc");
        }
    }
    let indexed_build = started.elapsed();

    // Plain heap: the same entries on a root-anchored ref chain, the
    // access path a heap without indexes actually has.
    let plain = mgr
        .create("plain_bench", heap_bytes(objects), PjhConfig::default())
        .expect("plain heap");
    let (pclass, fnext) = plain
        .with_mut(|h| {
            let class = h.register::<Entry>()?;
            let next = class.ref_field::<Entry>("next")?;
            Ok::<_, PjhError>((class, next))
        })
        .expect("register plain");
    let pk = pclass.field::<u64>("k").expect("k field");

    let started = Instant::now();
    let mut head: Option<PRef<Entry>> = None;
    for batch in (0..objects).step_by(BATCH) {
        let end = (batch + BATCH).min(objects);
        let prev = head;
        head = Some(txn_retry(&plain, |t| {
            let mut link = prev;
            for i in batch..end {
                let obj = t.alloc::<Entry>()?;
                t.set(obj, pk, key_at(i, objects));
                if let Some(n) = link {
                    t.set_ref(obj, fnext, Some(n))?;
                }
                link = Some(obj);
            }
            Ok(link.expect("non-empty batch"))
        }));
        // Republish the chain head so every batch stays GC-reachable.
        plain
            .set_root_typed("bench.chain", head.expect("head"))
            .expect("set root");
    }
    let plain_build = started.elapsed();

    // The window, both ways. Scans are read-only: best-of-N.
    let mut indexed_scan = Duration::MAX;
    let mut indexed_hits = Vec::new();
    for _ in 0..SCAN_REPS {
        let session = indexed.read();
        let t = Instant::now();
        let hits: Vec<u64> = idx
            .range(&session, Key::U64(lo)..Key::U64(hi))
            .expect("range")
            .map(|(k, _)| match k {
                Key::U64(v) => v,
                other => panic!("non-u64 key {other:?}"),
            })
            .collect();
        indexed_scan = indexed_scan.min(t.elapsed());
        indexed_hits = hits;
    }

    let mut full_scan = Duration::MAX;
    let mut full_hits = Vec::new();
    for _ in 0..SCAN_REPS {
        let t = Instant::now();
        let hits: Vec<u64> = plain.with(|h| {
            scan_filter::<Entry>(h, |h, p| {
                let v = h.get(p, pk);
                v >= lo && v < hi
            })
            .into_iter()
            .map(|p| h.get(p, pk))
            .collect()
        });
        full_scan = full_scan.min(t.elapsed());
        full_hits = hits;
    }

    indexed_hits.sort_unstable();
    full_hits.sort_unstable();
    assert_eq!(
        indexed_hits, full_hits,
        "index window disagrees with the full walk"
    );

    IndexScanResult {
        indexed_build,
        plain_build,
        indexed_scan,
        full_scan,
        hits: indexed_hits.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small end-to-end run: both paths agree on the window, the
    /// window is exactly 100 keys (the key set is a permutation of
    /// `0..objects`), and the cell's numbers are well-formed.
    #[test]
    fn index_scan_cell_agrees_across_paths() {
        let r = run_index_scan(2_000);
        assert_eq!(r.hits, 100);
        assert!(r.indexed_build > Duration::ZERO);
        assert!(r.plain_build > Duration::ZERO);
        assert!(r.indexed_scan > Duration::ZERO);
        assert!(r.full_scan > Duration::ZERO);
    }

    #[test]
    fn key_stride_is_a_permutation() {
        let n = 4_096;
        let mut seen = vec![false; n];
        for i in 0..n {
            seen[key_at(i, n) as usize] = true;
        }
        assert!(seen.into_iter().all(|b| b));
    }
}
