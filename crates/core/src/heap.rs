//! The `Pjh` type: allocation, field access, roots, safety, loading.

use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

use espresso_nvm::NvmDevice;
use espresso_object::{
    mark, FieldDesc, Klass, KlassId, ObjKind, Ref, Space, ARRAY_HEADER_WORDS, HEADER_WORDS, WORD,
};

use crate::bitmap::Bitmap;
use crate::gc::RegionSummary;
use crate::klass_segment::PKlassTable;
use crate::layout::{meta, Layout};
use crate::name_table::{EntryKind, NameTable};
use crate::{PjhConfig, PjhError};

/// Marker placed in the first word of a filler (region padding). Real mark
/// words never have the top bit set in NVM, so the walker can tell fillers,
/// objects, and holes apart.
pub(crate) const FILLER_FLAG: u64 = 1 << 63;

/// Allocation-buffer (PLAB) size in bytes written into a fresh heap: the
/// persisted allocation top advances a whole buffer at a time, so `pnew`
/// amortizes its metadata persist over `PLAB_BYTES / object_size`
/// allocations instead of flushing the cursor per object (§4.1
/// batching). The buffer never crosses a region boundary. A loaded heap
/// uses the size recorded in its image.
const PLAB_BYTES: usize = 8 << 10;

/// The memory-safety levels of §3.4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SafetyLevel {
    /// No checking: users must not follow volatile pointers after a reload.
    /// Fastest loading (§6.4: constant in the number of objects).
    #[default]
    UserGuaranteed,
    /// On load, every pointer leaving the persistent heap is nullified, so
    /// a stale access surfaces as a null dereference instead of undefined
    /// behaviour. Loading scans the whole heap (§6.4: linear in objects).
    Zeroing,
    /// Only classes explicitly marked persistent-capable may be allocated
    /// with `pnew`, and persistent objects may never store volatile
    /// references (the NV-heaps-style closed world).
    TypeBased,
}

/// Options for [`Pjh::load`].
#[derive(Debug, Clone, Default)]
pub struct LoadOptions {
    /// Safety level to enforce for the loaded heap.
    pub safety: SafetyLevel,
    /// Map the heap at a different virtual base than its address hint,
    /// simulating the paper's "address occupied by the normal heap" case;
    /// forces a whole-heap pointer remap (§3.3).
    pub base_override: Option<u64>,
}

/// What happened during [`Pjh::load`].
#[derive(Debug, Clone, Copy, Default)]
pub struct LoadReport {
    /// A crashed collection was found and completed (§4.3).
    pub recovered_gc: bool,
    /// The heap was remapped to a new base and every pointer rewritten.
    pub remapped: bool,
    /// Out-pointers nullified by the zeroing-safety scan.
    pub zeroed_refs: usize,
    /// Klasses reinitialized in place from the Klass segment.
    pub klasses_reloaded: usize,
    /// Objects visited while loading (0 under user-guaranteed safety:
    /// loading never touches objects).
    pub objects_scanned: usize,
}

/// Point-in-time heap statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapCensus {
    /// Reachable-or-not objects physically present in non-free regions.
    pub objects: usize,
    /// Words occupied by those objects.
    pub object_words: usize,
    /// Regions currently free.
    pub free_regions: usize,
    /// Regions in total.
    pub total_regions: usize,
    /// Klasses in the persistent Klass segment.
    pub segment_klasses: usize,
}

/// Allocator and collector statistics: the v3 allocation path made "where
/// do bytes come from" a real question (bump cursor vs. reused dead
/// slot), so this snapshot exposes both sides plus the reclamation state
/// that gates them. Cheap to take — no heap walk.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HeapStats {
    /// Words bump-allocated so far in the current allocation region.
    pub bump_top_words: usize,
    /// Regions currently free.
    pub free_regions: usize,
    /// Regions in total.
    pub total_regions: usize,
    /// Dead slots ready for reuse across all size classes.
    pub free_list_slots: usize,
    /// Words those ready slots cover.
    pub free_list_words: usize,
    /// Ready-slot occupancy per size class, `(words, slots)`, non-empty
    /// classes only, ascending by class.
    pub free_list_by_class: Vec<(usize, usize)>,
    /// Harvested slots still parked behind pinned read sessions.
    pub deferred_slots: usize,
    /// Freed regions still parked behind pinned read sessions.
    pub deferred_regions: usize,
    /// Allocations served from the free lists since this heap opened.
    pub reused_slots: u64,
    /// Collections completed (full + incremental).
    pub gc_count: u64,
    /// Full compacting collections completed (a subset of `gc_count`).
    pub gc_full_count: u64,
}

impl HeapStats {
    /// Folds `other` into `self` (per-shard aggregation). Per-class
    /// occupancies merge by size class.
    pub fn merge(&mut self, other: &HeapStats) {
        self.bump_top_words += other.bump_top_words;
        self.free_regions += other.free_regions;
        self.total_regions += other.total_regions;
        self.free_list_slots += other.free_list_slots;
        self.free_list_words += other.free_list_words;
        for &(words, slots) in &other.free_list_by_class {
            match self
                .free_list_by_class
                .binary_search_by_key(&words, |c| c.0)
            {
                Ok(i) => self.free_list_by_class[i].1 += slots,
                Err(i) => self.free_list_by_class.insert(i, (words, slots)),
            }
        }
        self.deferred_slots += other.deferred_slots;
        self.deferred_regions += other.deferred_regions;
        self.reused_slots += other.reused_slots;
        self.gc_count += other.gc_count;
        self.gc_full_count += other.gc_full_count;
    }

    /// One-line human-readable rendering for replay summaries and logs.
    pub fn summary_line(&self) -> String {
        format!(
            "bump {}w, free-lists {} slots/{}w in {} classes (+{} deferred), \
             reused {}, regions {}/{} free (+{} deferred), gc {} ({} full)",
            self.bump_top_words,
            self.free_list_slots,
            self.free_list_words,
            self.free_list_by_class.len(),
            self.deferred_slots,
            self.reused_slots,
            self.free_regions,
            self.total_regions,
            self.deferred_regions,
            self.gc_count,
            self.gc_full_count,
        )
    }
}

/// Largest object size (in words, exclusive) served by the free lists.
/// One exact-fit class per word count keeps reuse walk-preserving — a
/// replacement object occupies exactly the dead image's span — and lets
/// the ready-class mask fit one machine word. Bigger dead slots wait for
/// a compaction.
pub(crate) const MAX_CLASS_WORDS: usize = 64;

/// Per-size-class free lists over dead object slots (the v3 allocation
/// path). DRAM-only by design: entries are *derived* from persisted state
/// (an object image whose mark timestamp predates its region's last scan
/// is durably dead), so on load the lists are rebuilt from the region
/// summaries instead of being crash-atomic themselves.
#[derive(Debug, Clone)]
pub(crate) struct FreeLists {
    /// `ready[w]`: device offsets of reusable dead slots of exactly `w`
    /// words, popped LIFO.
    ready: Vec<Vec<usize>>,
    /// Bit `w` set ⇔ `ready[w]` is non-empty, so the allocation fast path
    /// costs one mask test on a miss.
    nonempty: u64,
    /// Slots harvested while read sessions could still walk their old
    /// contents: `(epoch, offset, words)`, promoted to `ready` once the
    /// clock drains past the epoch (the slot-granular analogue of
    /// `Pjh::deferred_free`).
    deferred: Vec<(u64, usize, usize)>,
    /// Allocations served from `ready` since this heap opened.
    reused: u64,
}

impl FreeLists {
    pub(crate) fn new() -> FreeLists {
        FreeLists {
            ready: vec![Vec::new(); MAX_CLASS_WORDS],
            nonempty: 0,
            deferred: Vec::new(),
            reused: 0,
        }
    }

    pub(crate) fn clear(&mut self) {
        for list in &mut self.ready {
            list.clear();
        }
        self.nonempty = 0;
        self.deferred.clear();
    }

    pub(crate) fn push_ready(&mut self, off: usize, words: usize) {
        if words < MAX_CLASS_WORDS {
            self.ready[words].push(off);
            self.nonempty |= 1 << words;
        }
    }

    pub(crate) fn push_deferred(&mut self, epoch: u64, off: usize, words: usize) {
        if words < MAX_CLASS_WORDS {
            self.deferred.push((epoch, off, words));
        }
    }

    pub(crate) fn take(&mut self, words: usize) -> Option<usize> {
        let off = self.ready[words].pop()?;
        if self.ready[words].is_empty() {
            self.nonempty &= !(1 << words);
        }
        Some(off)
    }

    /// Drops every entry (ready and deferred) inside `[start, end)` —
    /// called when a region is freed wholesale or rescanned for a fresh
    /// harvest, so a slot can never be listed twice or outlive its region.
    pub(crate) fn purge_range(&mut self, start: usize, end: usize) {
        for (w, list) in self.ready.iter_mut().enumerate() {
            if list.is_empty() {
                continue;
            }
            list.retain(|&off| off < start || off >= end);
            if list.is_empty() {
                self.nonempty &= !(1 << w);
            }
        }
        self.deferred
            .retain(|&(_, off, _)| off < start || off >= end);
    }

    pub(crate) fn ready_slots(&self) -> usize {
        self.ready.iter().map(Vec::len).sum()
    }

    pub(crate) fn ready_words(&self) -> usize {
        self.ready
            .iter()
            .enumerate()
            .map(|(w, l)| w * l.len())
            .sum()
    }

    pub(crate) fn deferred_slots(&self) -> usize {
        self.deferred.len()
    }

    pub(crate) fn by_class(&self) -> Vec<(usize, usize)> {
        self.ready
            .iter()
            .enumerate()
            .filter(|(_, l)| !l.is_empty())
            .map(|(w, l)| (w, l.len()))
            .collect()
    }
}

/// A Persistent Java Heap bound to one NVM device.
///
/// See the [crate docs](crate) for an end-to-end example.
pub struct Pjh {
    pub(crate) dev: NvmDevice,
    pub(crate) layout: Layout,
    pub(crate) klasses: PKlassTable,
    pub(crate) names: NameTable,
    pub(crate) alloc_region: usize,
    pub(crate) alloc_top: usize,
    /// Exclusive end of the current allocation buffer: the persisted
    /// replica of the allocation top covers everything below this
    /// watermark, so allocations inside the buffer are pure DRAM bumps.
    pub(crate) plab_end: usize,
    pub(crate) plab_size: usize,
    pub(crate) free: Bitmap,
    /// Regions written (allocation or stores) since the last collection.
    /// DRAM-only: a reload conservatively invalidates the incremental
    /// state, forcing the next collection to be a full one.
    pub(crate) dirty: Bitmap,
    /// Per-region outgoing cross-region references (device offsets) of
    /// every object physically present in the region, as of the last
    /// collection's scan. Built lazily by the first incremental cycle
    /// after a full collection (so full-only callers never pay the scan).
    pub(crate) remsets: Option<Vec<Vec<usize>>>,
    /// Whether dirty tracking has been continuous since the last full
    /// collection, making incremental cycles sound. Cleared on load and by
    /// anything that rewrites references behind the tracking.
    pub(crate) incremental_ready: bool,
    /// DRAM mirror of the persisted per-region summary table.
    pub(crate) summaries: Vec<RegionSummary>,
    pub(crate) global_ts: u32,
    pub(crate) safety: SafetyLevel,
    pub(crate) recoverable_gc: bool,
    pub(crate) persistent_capable: HashSet<String>,
    pub(crate) gc_count: u64,
    /// Undo-log transaction state (see [`crate::txn`]): the NVM log is
    /// published under a reserved root, this is its DRAM mirror.
    pub(crate) txn: crate::txn::TxnState,
    /// Typed-layer session state (see [`crate::typed`]): schemas validated
    /// against the persisted fingerprints this session, plus the
    /// marker-type → klass-id resolution cache. DRAM-only; a reload
    /// forgets it, so every schema is re-validated after a load.
    pub(crate) schemas: crate::typed::SchemaCache,
    /// Reclamation clock shared with the owning handle's read sessions
    /// (see `HeapHandle::read`). `None` for raw heaps with no handle —
    /// then nothing can pin, and every free region is immediately
    /// reusable.
    pub(crate) epoch_clock: Option<Arc<espresso_nvm::EpochClock>>,
    /// Regions freed by GC at a given clock epoch, still possibly visible
    /// to readers pinned at or before it. A free region listed here may
    /// not be zeroed, reallocated, or used as an evacuation target until
    /// the clock [drains](espresso_nvm::EpochClock::drained) past its
    /// epoch. DRAM-only: after a crash or reload no reader survives, so
    /// the persisted free bitmap alone is the truth.
    pub(crate) deferred_free: Vec<(u64, usize)>,
    /// Generation counter over **reader-visible** DRAM metadata: the
    /// klass registry, name table mirror, schema cache, safety level, and
    /// post-GC root/region state. Bumped by the mutators that change what
    /// a published read replica would contain; a closing `WriteSession`
    /// republishes only when it moved, so plain object stores and
    /// allocations never pay the replica clone.
    pub(crate) meta_gen: u64,
    /// The v3 allocation path: per-size-class free lists over dead object
    /// slots, fed by GC harvests and consulted by `alloc_raw` before the
    /// bump cursor. DRAM-only — rebuilt from the persisted region
    /// summaries on load, never crash-atomic itself.
    pub(crate) free_lists: FreeLists,
    /// DRAM-only knob: when `false`, `alloc_raw` never consults the free
    /// lists (the bump-only baseline the churn benchmark compares
    /// against). Persisted state is identical either way.
    pub(crate) reuse_enabled: bool,
    /// Full (compacting) collections completed, a subset of `gc_count` —
    /// the number the free lists are supposed to drive toward zero under
    /// steady-state churn.
    pub(crate) gc_full_count: u64,
}

impl fmt::Debug for Pjh {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Pjh")
            .field("data_size", &self.layout.data_size)
            .field("region_size", &self.layout.region_size)
            .field("alloc_region", &self.alloc_region)
            .field("global_ts", &self.global_ts)
            .finish()
    }
}

impl Pjh {
    // ---- lifecycle ----

    /// Formats `dev` as a fresh persistent heap (the work behind
    /// `createHeap`, §3.3).
    ///
    /// # Errors
    ///
    /// [`PjhError::HeapTooSmall`] if the device cannot hold the layout.
    pub fn create(dev: NvmDevice, config: PjhConfig) -> crate::Result<Pjh> {
        let layout = Layout::compute(dev.size(), &config)?;
        layout.write_meta(&dev);
        dev.write_u64(meta::PLAB_SIZE, PLAB_BYTES as u64);
        dev.persist(meta::PLAB_SIZE, 8);
        // All regions free except region 0, the initial allocation region.
        let mut free = Bitmap::new(layout.num_regions);
        for i in 1..layout.num_regions {
            free.set(i);
        }
        free.store_raw(&dev, layout.region_free_off, layout.region_bitmap_bytes);
        // Region 0 must be zero for the walker's hole invariant.
        dev.fill(layout.region_start(0), layout.region_size, 0);
        dev.persist(layout.region_start(0), layout.region_size);
        // The summary table starts out all-zero (no live data anywhere).
        dev.fill(layout.region_summary_off, layout.region_summary_bytes, 0);
        dev.persist(layout.region_summary_off, layout.region_summary_bytes);
        let names = NameTable::attach(&dev, &layout);
        let klasses = PKlassTable::attach(&dev, &layout);
        Ok(Pjh {
            dev,
            layout,
            klasses,
            names,
            alloc_region: 0,
            alloc_top: layout.data_off,
            plab_end: layout.data_off,
            plab_size: PLAB_BYTES,
            free,
            dirty: Bitmap::new(layout.num_regions),
            remsets: None,
            incremental_ready: false,
            summaries: vec![RegionSummary::default(); layout.num_regions],
            global_ts: 1,
            safety: SafetyLevel::UserGuaranteed,
            recoverable_gc: config.recoverable_gc,
            persistent_capable: HashSet::new(),
            gc_count: 0,
            txn: crate::txn::TxnState::default(),
            schemas: crate::typed::SchemaCache::default(),
            epoch_clock: None,
            deferred_free: Vec::new(),
            meta_gen: 0,
            free_lists: FreeLists::new(),
            reuse_enabled: config.alloc_reuse,
            gc_full_count: 0,
        })
    }

    /// Loads an existing heap image from `dev` (the work behind
    /// `loadHeap`, §3.3): reads the metadata area, reinitializes Klasses in
    /// place, completes a crashed collection if one is pending (§4.3),
    /// remaps pointers if the base address changed, and runs the
    /// zeroing-safety scan when requested (§3.4).
    ///
    /// # Errors
    ///
    /// [`PjhError::NotAHeap`] if the image is not a formatted heap.
    pub fn load(dev: NvmDevice, options: LoadOptions) -> crate::Result<(Pjh, LoadReport)> {
        let layout = Layout::read_meta(&dev)?;
        let stored_base = layout.base;
        let klasses = PKlassTable::attach(&dev, &layout);
        let names = NameTable::attach(&dev, &layout);
        let free = Bitmap::load_raw(&dev, layout.region_free_off, layout.num_regions);
        let mut report = LoadReport {
            klasses_reloaded: klasses.segment_klasses(),
            ..LoadReport::default()
        };
        let watermark = dev.read_u64(meta::ALLOC_TOP) as usize;
        let mut heap = Pjh {
            alloc_region: dev.read_u64(meta::ALLOC_REGION) as usize,
            alloc_top: watermark,
            plab_end: watermark,
            plab_size: dev.read_u64(meta::PLAB_SIZE) as usize,
            global_ts: dev.read_u64(meta::GLOBAL_TIMESTAMP) as u32,
            safety: options.safety,
            recoverable_gc: true,
            persistent_capable: HashSet::new(),
            gc_count: 0,
            txn: crate::txn::TxnState::default(),
            schemas: crate::typed::SchemaCache::default(),
            epoch_clock: None,
            deferred_free: Vec::new(),
            meta_gen: 0,
            free_lists: FreeLists::new(),
            reuse_enabled: true,
            gc_full_count: 0,
            dirty: Bitmap::new(layout.num_regions),
            remsets: None,
            incremental_ready: false,
            summaries: vec![RegionSummary::default(); layout.num_regions],
            dev,
            layout,
            klasses,
            names,
            free,
        };

        // §4.3: finish a crashed collection before anything reads objects.
        if heap.dev.read_u64(meta::GC_IN_PROGRESS) != 0 {
            crate::gc::recover(&mut heap)?;
            report.recovered_gc = true;
            heap.free = Bitmap::load_raw(
                &heap.dev,
                heap.layout.region_free_off,
                heap.layout.num_regions,
            );
            heap.alloc_region = heap.dev.read_u64(meta::ALLOC_REGION) as usize;
            // Recovery's finalize persisted the exact cursor (no buffer in
            // flight), so the watermark equals the true top.
            heap.alloc_top = heap.dev.read_u64(meta::ALLOC_TOP) as usize;
            heap.plab_end = heap.alloc_top;
        } else {
            // The persisted cursor is an allocation-buffer watermark: it may
            // run ahead of the last persisted object. Walk the (single)
            // allocation region to find the true end of the allocated
            // prefix, then resume allocating there — the gap up to the
            // watermark is still zeroed, so no object can hide beyond it.
            heap.alloc_top = heap.rewind_alloc_top(watermark);
        }
        heap.summaries = heap.read_summaries();
        // Rebuild the v3 free lists from the summaries (both the clean
        // and the recovered-GC path land here): a region's `scan_ts`
        // names the collection that last proved deaths in it, so every
        // image stamped strictly below it is durably dead and reusable.
        // Objects allocated after that scan carry newer stamps and are
        // skipped, which also makes slots reused-then-crashed invisible.
        heap.rebuild_free_lists();

        // §3.3: remap if the address hint is unavailable.
        if let Some(new_base) = options.base_override {
            if new_base != stored_base {
                // Roll back any transaction torn into the image *before*
                // rebasing: live undo records hold stored-base slot
                // addresses (and stored-base reference values), which
                // stop being meaningful the moment the heap moves. The
                // caller's post-load `txn_recover` then finds a clean log.
                heap.txn_recover()?;
                heap.remap(stored_base, new_base);
                heap.layout.base = new_base;
                report.remapped = true;
            }
        }

        // §3.4: zeroing safety nullifies every out-pointer.
        if matches!(options.safety, SafetyLevel::Zeroing) {
            let (scanned, zeroed) = heap.zeroing_scan();
            report.objects_scanned = scanned;
            report.zeroed_refs = zeroed;
        }

        Ok((heap, report))
    }

    fn remap(&mut self, old_base: u64, new_base: u64) {
        let delta_off: Vec<(usize, u64)> = {
            let mut writes = Vec::new();
            self.for_each_object_off(|off, klass, _| {
                for slot in ref_slots(off, klass, &self.dev) {
                    let r = Ref::from_raw(self.dev.read_u64(slot));
                    if r.is_persistent() {
                        let device_off = r.addr() - old_base;
                        writes.push((
                            slot,
                            Ref::new(Space::Persistent, new_base + device_off).to_raw(),
                        ));
                    }
                }
            });
            writes
        };
        for (slot, raw) in delta_off {
            self.dev.write_u64(slot, raw);
            self.dev.persist(slot, 8);
        }
        self.names.rewrite_values(&self.dev, EntryKind::Root, |v| {
            let r = Ref::from_raw(v);
            if r.is_persistent() {
                Ref::new(Space::Persistent, new_base + (r.addr() - old_base)).to_raw()
            } else {
                v
            }
        });
        self.dev.write_u64(meta::ADDRESS_HINT, new_base);
        self.dev.persist(meta::ADDRESS_HINT, 8);
    }

    fn zeroing_scan(&mut self) -> (usize, usize) {
        let mut scanned = 0;
        let mut nulls: Vec<usize> = Vec::new();
        let layout = self.layout;
        self.for_each_object_off(|off, klass, _| {
            scanned += 1;
            for slot in ref_slots(off, klass, &self.dev) {
                let r = Ref::from_raw(self.dev.read_u64(slot));
                if r.is_null() {
                    continue;
                }
                let out = if r.is_volatile() {
                    true
                } else {
                    let a = r.addr();
                    a < layout.base || !layout.in_data((a - layout.base) as usize)
                };
                if out {
                    nulls.push(slot);
                }
            }
        });
        for &slot in &nulls {
            self.dev.write_u64(slot, Ref::NULL.to_raw());
            self.dev.persist(slot, 8);
        }
        self.names.rewrite_values(&self.dev, EntryKind::Root, |v| {
            let r = Ref::from_raw(v);
            if r.is_volatile() {
                Ref::NULL.to_raw()
            } else {
                v
            }
        });
        (scanned, nulls.len())
    }

    /// Walks the allocation region's object images up to `watermark` and
    /// returns the device offset of the first hole — the true allocation
    /// top after a crash mid-buffer. Bounded by one region, so loading
    /// stays O(region) regardless of heap size (§6.4).
    fn rewind_alloc_top(&self, watermark: usize) -> usize {
        let start = self.layout.region_start(self.alloc_region);
        let region_end = self.layout.region_end(self.alloc_region);
        let end = region_end.min(watermark);
        let mut pos = start;
        while pos + (HEADER_WORDS * WORD) <= end {
            let w0 = self.dev.read_u64(pos);
            if w0 & FILLER_FLAG != 0 {
                pos += ((w0 & !FILLER_FLAG) as usize) * WORD;
                continue;
            }
            if self.dev.read_u64(pos + 8) == 0 {
                return pos;
            }
            pos += self.object_words_at(pos) * WORD;
        }
        // A persisted filler can span past the watermark (it always runs to
        // the region end, and the crash may have hit before the region
        // switch it precedes became durable). The walker will forever skip
        // that span, so nothing may ever be allocated inside it: treat the
        // region as exhausted rather than resuming mid-span.
        if pos > end {
            region_end
        } else {
            pos
        }
    }

    fn read_summaries(&self) -> Vec<RegionSummary> {
        if self.dev.read_u64(meta::SUMMARY_TS) == 0 {
            return vec![RegionSummary::default(); self.layout.num_regions];
        }
        (0..self.layout.num_regions)
            .map(|i| {
                let entry = self.layout.region_summary_entry(i);
                RegionSummary::unpack(self.dev.read_u64(entry), self.dev.read_u64(entry + 8))
            })
            .collect()
    }

    /// Collects the reusable dead slots of region `r`: object images
    /// whose mark timestamp is strictly below `scan_ts` (the region's
    /// last death-proving scan) and whose size fits a free-list class.
    /// Fillers are skipped by the walker. Pure read — shared by the GC
    /// harvest and the rebuild-on-load path so the two provably agree.
    pub(crate) fn harvest_region(&self, r: usize, scan_ts: u32) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        self.for_each_object_in_region(r, |off, _, words| {
            if words < MAX_CLASS_WORDS && mark::timestamp(self.dev.read_u64(off)) < scan_ts {
                out.push((off, words));
            }
        });
        out
    }

    /// Rebuilds the free lists from the persisted region summaries — the
    /// load-time half of the v3 allocator's "derive, don't persist"
    /// contract. No reader can be pinned on a freshly loaded heap, so
    /// every harvested slot goes straight to ready.
    fn rebuild_free_lists(&mut self) {
        self.free_lists.clear();
        if !self.reuse_enabled {
            return;
        }
        for r in 0..self.layout.num_regions {
            let s = self.summaries[r];
            if self.free.get(r) || s.reclaimable_words == 0 {
                continue;
            }
            for (off, words) in self.harvest_region(r, s.scan_ts) {
                self.free_lists.push_ready(off, words);
            }
        }
    }

    /// Marks the region containing `off` as written since the last
    /// collection (a DRAM-only bit; see [`Pjh::dirty`]).
    #[inline]
    pub(crate) fn mark_dirty_off(&mut self, off: usize) {
        self.dirty.set(self.layout.region_of(off));
    }

    /// Drops the incremental-collection state; the next collection will be
    /// a full one. Called by every operation that rewrites references
    /// behind the collector's back (remap, zeroing, VM pointer patching).
    fn invalidate_incremental_state(&mut self) {
        self.remsets = None;
        self.incremental_ready = false;
        self.dirty.clear_all();
    }

    // ---- class registration ----

    /// Registers an instance class (the volatile side of class loading).
    ///
    /// # Errors
    ///
    /// [`PjhError::KlassLayoutMismatch`] if the heap already persisted a
    /// different layout for this name.
    pub fn register_instance(
        &mut self,
        name: &str,
        fields: Vec<FieldDesc>,
    ) -> crate::Result<KlassId> {
        self.meta_gen += 1;
        self.klasses.register_instance(name, fields)
    }

    /// Fast path for repeated allocations: the id of an already-registered
    /// class, without re-validating its layout (the moral equivalent of a
    /// resolved constant-pool entry).
    pub fn lookup_klass(&self, name: &str) -> Option<KlassId> {
        self.klasses.registry().by_name(name).map(|k| k.id())
    }

    /// Registers the object-array class for `elem_name`.
    pub fn register_obj_array(&mut self, elem_name: &str) -> KlassId {
        self.meta_gen += 1;
        self.klasses.register_obj_array(elem_name)
    }

    /// Registers the primitive array class.
    pub fn register_prim_array(&mut self) -> KlassId {
        self.meta_gen += 1;
        self.klasses.register_prim_array()
    }

    /// Marks a class as allowed under [`SafetyLevel::TypeBased`] (§3.4's
    /// annotation library).
    pub fn mark_persistent_capable(&mut self, name: &str) {
        self.meta_gen += 1;
        self.persistent_capable.insert(name.to_string());
    }

    /// The klass of an object.
    ///
    /// # Panics
    ///
    /// Panics on null or foreign references.
    pub fn klass_of(&self, r: Ref) -> Arc<Klass> {
        let off = self.obj_off(r);
        let seg = self.dev.read_u64(off + 8);
        self.resolve_seg(seg).expect("dangling class word")
    }

    /// Class-word resolution with the replica-miss fallback: the DRAM
    /// map first, then the persisted segment itself. A frozen replica
    /// can trail the live segment — readers observe object data live,
    /// so they may reach an instance of a class whose record was
    /// appended after the replica snapshot; the record commits before
    /// any class word referencing it is written, so the segment walk
    /// resolves every legitimate word (see
    /// [`PKlassTable::parse_by_seg`](crate::klass_segment::PKlassTable::parse_by_seg)).
    pub(crate) fn resolve_seg(&self, seg: u64) -> Option<Arc<Klass>> {
        if let Some(k) = self.klasses.klass_by_seg(seg) {
            return Some(k.clone());
        }
        self.klasses.parse_by_seg(&self.dev, &self.layout, seg)
    }

    // ---- epoch-deferred reclamation (read sessions) ----

    /// Binds the reclamation clock read sessions pin against. Called once
    /// by the owning `HeapHandle` before the heap goes behind its lock.
    pub(crate) fn attach_epoch_clock(&mut self, clock: Arc<espresso_nvm::EpochClock>) {
        self.epoch_clock = Some(clock);
    }

    /// Whether every reader pinned at or before `epoch` is gone. With no
    /// clock attached nothing can pin, so everything is drained.
    pub(crate) fn epoch_drained(&self, epoch: u64) -> bool {
        self.epoch_clock.as_ref().is_none_or(|c| c.drained(epoch))
    }

    /// Whether a free region may actually be rewritten: either it was
    /// never deferred, or every reader that could still walk its old
    /// contents has unpinned.
    pub(crate) fn region_reusable(&self, region: usize) -> bool {
        self.deferred_free
            .iter()
            .all(|&(e, r)| r != region || self.epoch_drained(e))
    }

    /// Drops deferred-free entries whose epoch has drained, preserving
    /// the push order of the survivors (a single pass; the clock is
    /// cloned out so the retain predicate can consult it directly).
    pub(crate) fn prune_deferred(&mut self) {
        let Some(clock) = self.epoch_clock.clone() else {
            self.deferred_free.clear();
            return;
        };
        self.deferred_free.retain(|&(e, _)| !clock.drained(e));
    }

    /// Moves free-list slots parked behind pinned readers to the ready
    /// lists once their epoch drains; undrained entries keep their order.
    pub(crate) fn promote_free_list_deferred(&mut self) {
        if self.free_lists.deferred.is_empty() {
            return;
        }
        let clock = self.epoch_clock.clone();
        let parked = std::mem::take(&mut self.free_lists.deferred);
        for (epoch, off, words) in parked {
            if clock.as_ref().is_none_or(|c| c.drained(epoch)) {
                self.free_lists.push_ready(off, words);
            } else {
                self.free_lists.deferred.push((epoch, off, words));
            }
        }
    }

    /// An owned snapshot of this heap's DRAM state sharing the same
    /// device, for publication to lock-free read sessions. Replicas are
    /// read-only by contract: `ReadSession` never hands out `&mut`.
    pub(crate) fn read_replica(&self) -> Pjh {
        Pjh {
            dev: self.dev.clone(),
            layout: self.layout,
            klasses: self.klasses.clone(),
            names: self.names.clone(),
            alloc_region: self.alloc_region,
            alloc_top: self.alloc_top,
            plab_end: self.plab_end,
            plab_size: self.plab_size,
            free: self.free.clone(),
            dirty: self.dirty.clone(),
            remsets: self.remsets.clone(),
            incremental_ready: self.incremental_ready,
            summaries: self.summaries.clone(),
            global_ts: self.global_ts,
            safety: self.safety,
            recoverable_gc: self.recoverable_gc,
            persistent_capable: self.persistent_capable.clone(),
            gc_count: self.gc_count,
            txn: self.txn.clone(),
            schemas: self.schemas.clone(),
            epoch_clock: self.epoch_clock.clone(),
            deferred_free: self.deferred_free.clone(),
            meta_gen: self.meta_gen,
            free_lists: self.free_lists.clone(),
            reuse_enabled: self.reuse_enabled,
            gc_full_count: self.gc_full_count,
        }
    }

    // ---- allocation (§4.1) ----

    fn acquire_alloc_region(&mut self) -> crate::Result<()> {
        self.prune_deferred();
        // Skip free regions still visible to pinned readers: zeroing one
        // under a reader that holds pre-GC refs into it would be a
        // use-after-reclaim. When every free region is held back, report
        // the heap full — the allocation succeeds once readers drain.
        let mut cursor = 0;
        let next = loop {
            let Some(r) = self.free.next_set(cursor) else {
                return Err(PjhError::HeapFull { requested_words: 0 });
            };
            if self.region_reusable(r) {
                break r;
            }
            cursor = r + 1;
        };
        let start = self.layout.region_start(next);
        // Zero the region so the walker's hole invariant holds, persist it,
        // then take it and move the cursor.
        self.dev.fill(start, self.layout.region_size, 0);
        self.dev.persist(start, self.layout.region_size);
        self.free.clear(next);
        self.persist_free_bit(next);
        self.alloc_region = next;
        self.alloc_top = start;
        self.plab_end = start;
        self.dev.write_u64(meta::ALLOC_REGION, next as u64);
        self.dev.write_u64(meta::ALLOC_TOP, self.alloc_top as u64);
        self.dev.persist(meta::ALLOC_REGION, 16);
        Ok(())
    }

    pub(crate) fn persist_free_bit(&mut self, region: usize) {
        let word_off = self.layout.region_free_off + (region / 64) * 8;
        let mut word = 0u64;
        for bit in 0..64 {
            let idx = (region / 64) * 64 + bit;
            if idx < self.free.len() && self.free.get(idx) {
                word |= 1 << bit;
            }
        }
        self.dev.write_u64(word_off, word);
        self.dev.persist(word_off, 8);
    }

    /// Returns `(offset, reused)`. A reused slot comes back as a durable
    /// filler of exactly `words` with a zeroed body; the caller must
    /// install the class word (and array length) *before* flipping word 0
    /// from filler to mark, so the region walk parses at every crash
    /// point. Bump-path slots keep the §4.1 header order.
    fn alloc_raw(&mut self, words: usize) -> crate::Result<(usize, bool)> {
        let bytes = words * WORD;
        if bytes > self.layout.region_size {
            return Err(PjhError::ObjectTooLarge {
                requested_words: words,
            });
        }
        if let Some(off) = self.try_reuse(words) {
            return Ok((off, true));
        }
        let region_end = self.layout.region_end(self.alloc_region);
        if self.alloc_top + bytes > region_end {
            // Pad the tail with a filler object so the walker can skip it.
            let rem_words = (region_end - self.alloc_top) / WORD;
            if rem_words > 0 {
                self.dev
                    .write_u64(self.alloc_top, FILLER_FLAG | rem_words as u64);
                self.dev.persist(self.alloc_top, 8);
            }
            self.acquire_alloc_region().map_err(|e| match e {
                PjhError::HeapFull { .. } => PjhError::HeapFull {
                    requested_words: words,
                },
                other => other,
            })?;
        }
        if self.alloc_top + bytes > self.plab_end {
            // §4.1 step 2, batched: the persisted replica of `top` advances
            // a whole allocation buffer at a time, *before* any header in
            // the buffer is initialized. A crash can never expose an object
            // that recovery would truncate, and the unused tail of the
            // buffer stays zeroed, so the walker sees a hole there.
            self.plab_end = self
                .layout
                .region_end(self.alloc_region)
                .min(self.alloc_top + bytes.max(self.plab_size));
            self.dev.write_u64(meta::ALLOC_TOP, self.plab_end as u64);
            self.dev.persist(meta::ALLOC_TOP, 8);
        }
        let off = self.alloc_top;
        self.alloc_top += bytes;
        self.dirty.set(self.alloc_region);
        Ok((off, false))
    }

    /// The v3 fast path: pop an exact-fit dead slot if one is ready. A
    /// miss costs one mask test and touches no device state — the PLAB
    /// cursor-persist batching (and its flush-count guarantees) are
    /// unchanged whenever the lists are empty.
    fn try_reuse(&mut self, words: usize) -> Option<usize> {
        if !self.reuse_enabled || words >= MAX_CLASS_WORDS {
            return None;
        }
        if self.free_lists.nonempty & (1u64 << words) == 0 {
            // Slots parked behind pinned readers are promoted lazily, on
            // the first miss that could have used one.
            if self.free_lists.deferred.is_empty() {
                return None;
            }
            self.promote_free_list_deferred();
            if self.free_lists.nonempty & (1u64 << words) == 0 {
                return None;
            }
        }
        let off = self.free_lists.take(words).expect("ready bit was set");
        // Re-cover the dead image as a filler of the same width first —
        // one atomic word write, so the region walk skips the slot
        // identically whatever the body holds — then zero the body (the
        // old image's class word, array length, and stale fields must
        // not survive under the new header; a zeroed body is also what
        // the field-default contract promises). The filler must be
        // durable before any body state is: otherwise a crash could
        // persist a zeroed class word under the *old* mark word, which
        // the walker would read as a hole, truncating the region walk.
        // The body zeroes themselves are NOT persisted here — under a
        // durable filler word the walker skips `words` words without
        // reading the body, so every torn body image is invisible until
        // the mark-word flip reveals it. The caller folds the zeroes
        // into its class-word persist, saving a flush per reuse.
        self.dev.write_u64(off, FILLER_FLAG | words as u64);
        self.dev.persist(off, 8);
        self.dev.fill(off + 8, (words - 1) * WORD, 0);
        self.dirty.set(self.layout.region_of(off));
        self.free_lists.reused += 1;
        Some(off)
    }

    /// Allocates an instance of `kid` in NVM — the `pnew` bytecode (§3.2).
    ///
    /// The body is zeroed; the header (mark word with the current global
    /// timestamp, class word pointing into the Klass segment) is persisted
    /// as §4.1 step 3.
    ///
    /// # Errors
    ///
    /// [`PjhError::HeapFull`] (collect and retry),
    /// [`PjhError::ObjectTooLarge`], Klass-segment and safety errors.
    pub fn alloc_instance(&mut self, kid: KlassId) -> crate::Result<Ref> {
        let klass = self
            .klasses
            .registry()
            .by_id(kid)
            .expect("unknown klass")
            .clone();
        if matches!(self.safety, SafetyLevel::TypeBased)
            && !self.persistent_capable.contains(klass.name())
        {
            return Err(PjhError::SafetyViolation {
                reason: format!("class {} is not marked persistent-capable", klass.name()),
            });
        }
        // §4.1 step 1: resolve the Klass (appending its record on first use).
        // A first-use append extends the seg→klass map that read replicas
        // resolve class words through, so it must bump `meta_gen`; repeat
        // allocations of an already-segged klass stay replica-clone-free.
        let first_use = self.klasses.seg_of(kid).is_none();
        let seg = self
            .klasses
            .ensure_in_segment(&self.dev, &self.layout, &mut self.names, kid)?;
        if first_use {
            self.meta_gen += 1;
        }
        let words = klass.instance_words();
        let (off, reused) = self.alloc_raw(words)?;
        if reused {
            // The slot is still a durable filler: persist the class word
            // and the zeroed fields together under its cover (one range
            // flush — `try_reuse` left the body writes volatile), then
            // flip word 0 to the mark — one atomic write that turns the
            // filler into the new object. Committing the mark first
            // could crash into a mark-over-zero-class image, which the
            // walker reads as a hole.
            self.dev.write_u64(off + 8, seg);
            self.dev.persist(off + 8, (words - 1) * WORD);
            self.dev.write_u64(off, mark::new(self.global_ts));
            self.dev.persist(off, WORD);
        } else {
            self.dev.write_u64(off, mark::new(self.global_ts));
            self.dev.write_u64(off + 8, seg);
            self.dev.persist(off, HEADER_WORDS * WORD);
        }
        Ok(Ref::new(Space::Persistent, self.layout.to_vaddr(off)))
    }

    /// Allocates an array of `len` elements — `panewarray`/`pnewarray`.
    ///
    /// # Errors
    ///
    /// Same as [`alloc_instance`](Self::alloc_instance).
    pub fn alloc_array(&mut self, kid: KlassId, len: usize) -> crate::Result<Ref> {
        let klass = self
            .klasses
            .registry()
            .by_id(kid)
            .expect("unknown klass")
            .clone();
        let first_use = self.klasses.seg_of(kid).is_none();
        let seg = self
            .klasses
            .ensure_in_segment(&self.dev, &self.layout, &mut self.names, kid)?;
        if first_use {
            self.meta_gen += 1;
        }
        let words = klass.array_words(len);
        let (off, reused) = self.alloc_raw(words)?;
        if reused {
            // Same commit order as reused instances: class word, length,
            // and the zeroed elements persist together under the filler
            // cover, then the mark write atomically reveals the new
            // array. The length word rides the same ordering argument as
            // the body zeroes — a torn length under a durable filler is
            // never read, and under the mark it is already durable.
            self.dev.write_u64(off + 8, seg);
            self.dev.write_u64(off + 16, len as u64);
            self.dev.persist(off + 8, (words - 1) * WORD);
            self.dev.write_u64(off, mark::new(self.global_ts));
            self.dev.persist(off, WORD);
        } else {
            self.dev.write_u64(off, mark::new(self.global_ts));
            self.dev.write_u64(off + 8, seg);
            self.dev.write_u64(off + 16, len as u64);
            self.dev.persist(off, ARRAY_HEADER_WORDS * WORD);
        }
        Ok(Ref::new(Space::Persistent, self.layout.to_vaddr(off)))
    }

    // ---- field access ----

    pub(crate) fn obj_off(&self, r: Ref) -> usize {
        assert!(r.is_persistent(), "persistent heap got {r:?}");
        let off = self.layout.to_off(r.addr());
        assert!(
            self.layout.in_data(off),
            "reference outside data heap: {r:?}"
        );
        off
    }

    /// Debug-build field-index check whose panic names the klass, its
    /// field count, and the offending index — a bare `assertion failed`
    /// on an index is undiagnosable from test logs.
    #[inline]
    #[cfg_attr(not(debug_assertions), allow(unused_variables))]
    pub(crate) fn debug_check_field(&self, r: Ref, index: usize) {
        #[cfg(debug_assertions)]
        {
            let klass = self.klass_of(r);
            assert!(
                !klass.is_array(),
                "field access (index {index}) on array klass {} at {r:?}",
                klass.name()
            );
            assert!(
                index < klass.fields().len(),
                "field index {index} out of range for klass {} ({} fields) at {r:?}",
                klass.name(),
                klass.fields().len()
            );
        }
    }

    /// Reads raw field `index`.
    ///
    /// Field offsets are uniform (`HEADER_WORDS + index`), so the hot path
    /// is a single device read; the Klass-level index check runs under
    /// debug assertions only, mirroring how verified bytecode skips
    /// per-access re-validation.
    ///
    /// # Panics
    ///
    /// Panics on null refs; debug builds also panic on out-of-range
    /// indices, naming the klass and index.
    pub fn field(&self, r: Ref, index: usize) -> u64 {
        let off = self.obj_off(r);
        self.debug_check_field(r, index);
        self.dev.read_u64(off + (HEADER_WORDS + index) * WORD)
    }

    /// Writes raw field `index` (volatile until flushed; see
    /// [`flush_field`](Self::flush_field)).
    ///
    /// # Panics
    ///
    /// Panics on null refs; debug builds also panic on out-of-range
    /// indices, naming the klass and index.
    pub fn set_field(&mut self, r: Ref, index: usize, value: u64) {
        let off = self.obj_off(r);
        self.debug_check_field(r, index);
        self.mark_dirty_off(off);
        self.dev
            .write_u64(off + (HEADER_WORDS + index) * WORD, value);
    }

    /// Reads reference field `index`.
    pub fn field_ref(&self, r: Ref, index: usize) -> Ref {
        Ref::from_raw(self.field(r, index))
    }

    /// Writes reference field `index`.
    ///
    /// # Errors
    ///
    /// [`PjhError::SafetyViolation`] under [`SafetyLevel::TypeBased`] when
    /// storing a volatile reference into a persistent object.
    pub fn set_field_ref(&mut self, r: Ref, index: usize, value: Ref) -> crate::Result<()> {
        self.check_store(value)?;
        self.set_field(r, index, value.to_raw());
        Ok(())
    }

    fn check_store(&self, value: Ref) -> crate::Result<()> {
        if matches!(self.safety, SafetyLevel::TypeBased) && value.is_volatile() {
            return Err(PjhError::SafetyViolation {
                reason: "type-based safety forbids NVM-to-DRAM pointers".to_string(),
            });
        }
        Ok(())
    }

    /// Length of an array object.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `r` is not an array.
    pub fn array_len(&self, r: Ref) -> usize {
        let off = self.obj_off(r);
        debug_assert!(
            self.klass_of(r).is_array(),
            "array access on instance klass {} at {r:?}",
            self.klass_of(r).name()
        );
        self.dev.read_u64(off + 16) as usize
    }

    /// Reads array element `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds, naming the array klass (the format
    /// arguments are only evaluated on failure, so the klass lookup costs
    /// nothing on the hot path).
    pub fn array_get(&self, r: Ref, i: usize) -> u64 {
        let off = self.obj_off(r);
        let len = self.array_len(r);
        assert!(
            i < len,
            "array index {i} out of bounds (len {len}) for klass {} at {r:?}",
            self.klass_of(r).name()
        );
        self.dev.read_u64(off + (ARRAY_HEADER_WORDS + i) * WORD)
    }

    /// Writes array element `i` (primitive).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds, naming the array klass.
    pub fn array_set(&mut self, r: Ref, i: usize, value: u64) {
        let off = self.obj_off(r);
        let len = self.array_len(r);
        assert!(
            i < len,
            "array index {i} out of bounds (len {len}) for klass {} at {r:?}",
            self.klass_of(r).name()
        );
        self.mark_dirty_off(off);
        self.dev
            .write_u64(off + (ARRAY_HEADER_WORDS + i) * WORD, value);
    }

    /// Reads array element `i` as a reference.
    pub fn array_get_ref(&self, r: Ref, i: usize) -> Ref {
        Ref::from_raw(self.array_get(r, i))
    }

    /// Writes array element `i` as a reference.
    ///
    /// # Errors
    ///
    /// Same safety rules as [`set_field_ref`](Self::set_field_ref).
    pub fn array_set_ref(&mut self, r: Ref, i: usize, value: Ref) -> crate::Result<()> {
        self.check_store(value)?;
        self.array_set(r, i, value.to_raw());
        Ok(())
    }

    // ---- persistence guarantee (§3.5) ----

    /// Persists one field: `Field.flush` of Figure 12 (8-byte flush +
    /// fence, preserving atomicity and order).
    pub fn flush_field(&self, r: Ref, index: usize) {
        let off = self.obj_off(r);
        self.debug_check_field(r, index);
        self.dev.persist(off + (HEADER_WORDS + index) * WORD, WORD);
    }

    /// Persists one array element: `Array.flush` of Figure 12.
    pub fn flush_element(&self, r: Ref, i: usize) {
        let off = self.obj_off(r);
        self.dev
            .persist(off + (ARRAY_HEADER_WORDS + i) * WORD, WORD);
    }

    /// Persists every data word of the object with a single trailing fence
    /// — the coarse-grained `Object.flush` (§3.5).
    pub fn flush_object(&self, r: Ref) {
        let off = self.obj_off(r);
        let words = self.object_words_at(off);
        self.dev.flush(off, words * WORD);
        self.dev.fence();
    }

    // ---- raw word access (for libraries building logs atop PJH) ----

    /// Reads the word at a virtual address inside the data heap.
    ///
    /// # Panics
    ///
    /// Panics if the address is outside the data heap.
    pub fn read_word_at(&self, vaddr: u64) -> u64 {
        let off = self.layout.to_off(vaddr);
        assert!(
            self.layout.in_data(off),
            "address {vaddr:#x} outside data heap"
        );
        self.dev.read_u64(off)
    }

    /// Writes the word at a virtual address inside the data heap
    /// (volatile until flushed).
    ///
    /// # Panics
    ///
    /// Panics if the address is outside the data heap.
    pub fn write_word_at(&mut self, vaddr: u64, value: u64) {
        let off = self.layout.to_off(vaddr);
        assert!(
            self.layout.in_data(off),
            "address {vaddr:#x} outside data heap"
        );
        self.mark_dirty_off(off);
        self.dev.write_u64(off, value);
    }

    /// Writes a reference-valued word at a virtual address, enforcing the
    /// configured safety level (the raw-word counterpart of
    /// [`set_field_ref`](Self::set_field_ref), for libraries that compute
    /// slot addresses themselves).
    ///
    /// # Errors
    ///
    /// [`PjhError::SafetyViolation`] under [`SafetyLevel::TypeBased`] when
    /// storing a volatile reference.
    ///
    /// # Panics
    ///
    /// Panics if the address is outside the data heap.
    pub fn write_ref_word_at(&mut self, vaddr: u64, value: Ref) -> crate::Result<()> {
        self.check_store(value)?;
        self.write_word_at(vaddr, value.to_raw());
        Ok(())
    }

    /// Flush-and-fence the word at a virtual address.
    ///
    /// # Panics
    ///
    /// Panics if the address is outside the data heap.
    pub fn persist_word_at(&self, vaddr: u64) {
        let off = self.layout.to_off(vaddr);
        assert!(
            self.layout.in_data(off),
            "address {vaddr:#x} outside data heap"
        );
        self.dev.persist(off, WORD);
    }

    /// Flush-and-fence `len` bytes starting at a virtual address with a
    /// single trailing fence — lets log writers batch a multi-word record
    /// into one persist instead of one per word.
    ///
    /// # Panics
    ///
    /// Panics if the range leaves the data heap.
    pub fn persist_range_at(&self, vaddr: u64, len: usize) {
        let off = self.layout.to_off(vaddr);
        assert!(
            len > 0 && self.layout.in_data(off) && self.layout.in_data(off + len - 1),
            "range {vaddr:#x}+{len} outside data heap"
        );
        self.dev.persist(off, len);
    }

    // ---- roots (§3.3) ----

    /// Publishes `r` under `name` — `setRoot`.
    ///
    /// # Errors
    ///
    /// Name-table errors; a safety violation for volatile refs under
    /// type-based safety.
    pub fn set_root(&mut self, name: &str, r: Ref) -> crate::Result<()> {
        self.check_store(r)?;
        self.meta_gen += 1;
        self.names.set(&self.dev, EntryKind::Root, name, r.to_raw())
    }

    /// Fetches a root — `getRoot`. Returns `None` for unknown names and
    /// for roots nullified by the zeroing scan.
    pub fn get_root(&self, name: &str) -> Option<Ref> {
        let raw = self.names.get(&self.dev, EntryKind::Root, name)?;
        let r = Ref::from_raw(raw);
        (!r.is_null()).then_some(r)
    }

    /// Removes a root; returns whether it existed.
    pub fn remove_root(&mut self, name: &str) -> bool {
        self.meta_gen += 1;
        self.names.remove(&self.dev, EntryKind::Root, name)
    }

    /// All root names with their current values.
    pub fn roots(&self) -> Vec<(String, Ref)> {
        self.names
            .entries(&self.dev, EntryKind::Root)
            .into_iter()
            .map(|(n, v)| (n, Ref::from_raw(v)))
            .collect()
    }

    // ---- GC ----

    /// Collects the persistent space. `extra_roots` are additional live
    /// references (the VM passes every NVM pointer held in DRAM).
    ///
    /// Picks the cheapest sound collection: once a full collection has
    /// built per-region summaries and remembered sets, later cycles run
    /// **incrementally** — only regions written since the previous cycle
    /// are rescanned, wholly-garbage regions are reclaimed without touching
    /// their objects, and nothing moves. A full mark-summarize-compact
    /// cycle (§4.2) runs when the incremental state is unavailable (fresh
    /// or reloaded heap) or free regions run low (compaction needed).
    ///
    /// # Errors
    ///
    /// Propagates device errors; the collection itself cannot fail.
    pub fn gc(&mut self, extra_roots: &[Ref]) -> crate::Result<crate::GcReport> {
        self.gc_txn_guard()?;
        let report = crate::gc::collect_auto(self, extra_roots)?;
        self.relocate_txn_log(&report);
        // Roots were forwarded and regions freed: stale replicas must not
        // outlive this section (a fresh session's pin does not hold the
        // newly freed regions back).
        self.meta_gen += 1;
        Ok(report)
    }

    /// Forces a full compacting collection (§4.2), regardless of
    /// incremental state. Use when maximum reclamation matters more than
    /// pause time (e.g. before snapshotting a heap image).
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn gc_full(&mut self, extra_roots: &[Ref]) -> crate::Result<crate::GcReport> {
        self.gc_txn_guard()?;
        let report = crate::gc::collect_full(self, extra_roots)?;
        self.relocate_txn_log(&report);
        self.meta_gen += 1;
        Ok(report)
    }

    /// Collections are refused while a transaction is open: live undo
    /// records hold absolute slot addresses, so compaction moving their
    /// objects would make a later abort (or crash recovery) write through
    /// stale addresses. Commit or abort first.
    fn gc_txn_guard(&self) -> crate::Result<()> {
        if self.txn.active {
            return Err(crate::PjhError::SafetyViolation {
                reason: "garbage collection during an active transaction: live undo records \
                         pin absolute slot addresses"
                    .to_string(),
            });
        }
        Ok(())
    }

    /// Re-points the cached undo-log reference after a compacting
    /// collection moved the log array.
    fn relocate_txn_log(&mut self, report: &crate::GcReport) {
        if let Some(log) = self.txn.log {
            if let Some(&new) = report.relocations.get(&log.addr()) {
                self.txn.log = Some(Ref::new(Space::Persistent, new));
            }
        }
    }

    /// The per-region live summaries as persisted in the metadata segment
    /// (live words / live objects per region, as of the last collection;
    /// conservative between collections).
    pub fn region_summaries(&self) -> Vec<RegionSummary> {
        self.read_summaries()
    }

    /// Recomputes per-region live summaries with a from-scratch
    /// reachability scan (no cached state). The persisted table must agree
    /// with this immediately after a completed or recovered collection.
    pub fn scan_region_summaries(&self) -> Vec<RegionSummary> {
        crate::gc::scan_summaries(self)
    }

    // ---- iteration, census, verification ----

    /// Size in words of the object at device offset `off`.
    pub(crate) fn object_words_at(&self, off: usize) -> usize {
        let seg = self.dev.read_u64(off + 8);
        let k = self.resolve_seg(seg).expect("dangling class word");
        match k.kind() {
            ObjKind::Instance => k.instance_words(),
            _ => k.array_words(self.dev.read_u64(off + 16) as usize),
        }
    }

    /// Walks every object image physically present in region `region`
    /// (including unreachable ones left behind by in-place compaction).
    pub(crate) fn for_each_object_in_region(
        &self,
        region: usize,
        mut f: impl FnMut(usize, &Arc<Klass>, usize),
    ) {
        let start = self.layout.region_start(region);
        let end = self.layout.region_end(region);
        let mut pos = start;
        while pos + (HEADER_WORDS * WORD) <= end {
            let w0 = self.dev.read_u64(pos);
            if w0 & FILLER_FLAG != 0 {
                pos += ((w0 & !FILLER_FLAG) as usize) * WORD;
                continue;
            }
            let seg = self.dev.read_u64(pos + 8);
            if seg == 0 {
                break; // hole: end of allocated prefix
            }
            let klass = self
                .resolve_seg(seg)
                .unwrap_or_else(|| panic!("corrupt class word {seg:#x} at offset {pos:#x}"));
            let words = match klass.kind() {
                ObjKind::Instance => klass.instance_words(),
                _ => klass.array_words(self.dev.read_u64(pos + 16) as usize),
            };
            f(pos, &klass, words);
            pos += words * WORD;
        }
    }

    /// Walks every object image in non-free regions.
    pub(crate) fn for_each_object_off(&self, mut f: impl FnMut(usize, &Arc<Klass>, usize)) {
        for region in 0..self.layout.num_regions {
            if !self.free.get(region) {
                self.for_each_object_in_region(region, &mut f);
            }
        }
    }

    /// Visits every object as `(ref, klass)`.
    pub fn for_each_object(&self, mut f: impl FnMut(Ref, &Arc<Klass>)) {
        self.for_each_object_off(|off, klass, _| {
            f(
                Ref::new(Space::Persistent, self.layout.to_vaddr(off)),
                klass,
            );
        });
    }

    /// Rewrites every reference slot in the heap through `f` (no flushing:
    /// the VM uses this to patch DRAM pointers held in NVM after a
    /// volatile collection moves objects, and those pointers carry no
    /// cross-restart meaning). Root entries are rewritten too.
    pub fn rewrite_refs(&mut self, mut f: impl FnMut(Ref) -> Ref) {
        let mut writes = Vec::new();
        self.for_each_object_off(|off, klass, _| {
            for slot in ref_slots(off, klass, &self.dev) {
                let old = Ref::from_raw(self.dev.read_u64(slot));
                let new = f(old);
                if new != old {
                    writes.push((slot, new.to_raw()));
                }
            }
        });
        for (slot, raw) in writes {
            self.dev.write_u64(slot, raw);
        }
        self.names
            .rewrite_values(&self.dev, EntryKind::Root, |v| f(Ref::from_raw(v)).to_raw());
        // Keep the cached undo-log pointer coherent with its root entry.
        if let Some(log) = self.txn.log {
            self.txn.log = Some(f(log));
        }
        // References changed wholesale behind the dirty tracking.
        self.invalidate_incremental_state();
    }

    /// Collects every volatile (DRAM) reference stored anywhere in the
    /// persistent heap. The VM passes these as extra roots to the volatile
    /// collectors: NVM-held pointers keep DRAM objects alive (§3.4).
    pub fn volatile_refs(&self) -> Vec<Ref> {
        let mut out = Vec::new();
        self.for_each_object_off(|off, klass, _| {
            for slot in ref_slots(off, klass, &self.dev) {
                let v = Ref::from_raw(self.dev.read_u64(slot));
                if v.is_volatile() {
                    out.push(v);
                }
            }
        });
        out
    }

    /// Counts objects, words, and regions.
    pub fn census(&self) -> HeapCensus {
        let mut objects = 0;
        let mut object_words = 0;
        self.for_each_object_off(|_, _, words| {
            objects += 1;
            object_words += words;
        });
        HeapCensus {
            objects,
            object_words,
            free_regions: self.free.count(),
            total_regions: self.layout.num_regions,
            segment_klasses: self.klasses.segment_klasses(),
        }
    }

    /// Structural integrity check: every class word resolves, every
    /// persistent reference points at the start of a live object image.
    ///
    /// # Errors
    ///
    /// A description of the first inconsistency found.
    pub fn verify_integrity(&self) -> std::result::Result<(), String> {
        let mut starts = HashSet::new();
        self.for_each_object_off(|off, _, _| {
            starts.insert(self.layout.to_vaddr(off));
        });
        let mut problem = None;
        self.for_each_object_off(|off, klass, _| {
            if problem.is_some() {
                return;
            }
            for slot in ref_slots(off, klass, &self.dev) {
                let r = Ref::from_raw(self.dev.read_u64(slot));
                if r.is_persistent() && !starts.contains(&r.addr()) {
                    problem = Some(format!(
                        "object at {off:#x} ({}) references {:#x}, which is not an object start",
                        klass.name(),
                        r.addr()
                    ));
                }
            }
        });
        // Root entries must also resolve.
        for (name, r) in self.roots() {
            if r.is_persistent() && !starts.contains(&r.addr()) {
                problem.get_or_insert(format!("root {name:?} references {:#x}", r.addr()));
            }
        }
        match problem {
            Some(p) => Err(p),
            None => Ok(()),
        }
    }

    // ---- accessors ----

    /// The backing device.
    pub fn device(&self) -> &NvmDevice {
        &self.dev
    }

    /// The resolved layout.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// The class registry.
    pub fn registry(&self) -> &espresso_object::KlassRegistry {
        self.klasses.registry()
    }

    /// The configured safety level.
    pub fn safety(&self) -> SafetyLevel {
        self.safety
    }

    /// Changes the safety level for subsequent operations.
    pub fn set_safety(&mut self, safety: SafetyLevel) {
        self.meta_gen += 1;
        self.safety = safety;
    }

    /// Current global GC timestamp (§4.2).
    pub fn global_timestamp(&self) -> u32 {
        self.global_ts
    }

    /// Completed persistent-space collections.
    pub fn gc_count(&self) -> u64 {
        self.gc_count
    }

    /// Completed full (compacting) collections, a subset of
    /// [`gc_count`](Self::gc_count).
    pub fn gc_full_count(&self) -> u64 {
        self.gc_full_count
    }

    /// Allocator and collector statistics. Cheap — no heap walk.
    pub fn heap_stats(&self) -> HeapStats {
        HeapStats {
            bump_top_words: (self.alloc_top - self.layout.region_start(self.alloc_region)) / WORD,
            free_regions: self.free.count(),
            total_regions: self.layout.num_regions,
            free_list_slots: self.free_lists.ready_slots(),
            free_list_words: self.free_lists.ready_words(),
            free_list_by_class: self.free_lists.by_class(),
            deferred_slots: self.free_lists.deferred_slots(),
            deferred_regions: self.deferred_free.len(),
            reused_slots: self.free_lists.reused,
            gc_count: self.gc_count,
            gc_full_count: self.gc_full_count,
        }
    }
}

/// Device offsets of the reference slots of the object at `off`.
pub(crate) fn ref_slots(off: usize, klass: &Arc<Klass>, dev: &NvmDevice) -> Vec<usize> {
    match klass.kind() {
        ObjKind::Instance => klass
            .ref_field_indices()
            .map(|i| off + (HEADER_WORDS + i) * WORD)
            .collect(),
        ObjKind::ObjArray => {
            let len = dev.read_u64(off + 16) as usize;
            (0..len)
                .map(|i| off + (ARRAY_HEADER_WORDS + i) * WORD)
                .collect()
        }
        ObjKind::PrimArray => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use espresso_nvm::NvmConfig;

    fn new_heap() -> (NvmDevice, Pjh) {
        let dev = NvmDevice::new(NvmConfig::with_size(4 << 20));
        let heap = Pjh::create(dev.clone(), PjhConfig::small()).unwrap();
        (dev, heap)
    }

    fn person(h: &mut Pjh) -> KlassId {
        h.register_instance(
            "Person",
            vec![FieldDesc::prim("id"), FieldDesc::reference("next")],
        )
        .unwrap()
    }

    #[test]
    fn pnew_and_field_roundtrip() {
        let (_dev, mut h) = new_heap();
        let k = person(&mut h);
        let p = h.alloc_instance(k).unwrap();
        assert!(p.is_persistent());
        h.set_field(p, 0, 7);
        assert_eq!(h.field(p, 0), 7);
        assert_eq!(h.klass_of(p).name(), "Person");
    }

    #[test]
    fn arrays_roundtrip() {
        let (_dev, mut h) = new_heap();
        let pa = h.register_prim_array();
        let a = h.alloc_array(pa, 5).unwrap();
        assert_eq!(h.array_len(a), 5);
        h.array_set(a, 2, 77);
        assert_eq!(h.array_get(a, 2), 77);
    }

    #[test]
    fn persisted_object_survives_crash_and_load() {
        let (dev, mut h) = new_heap();
        let k = person(&mut h);
        let p = h.alloc_instance(k).unwrap();
        h.set_field(p, 0, 99);
        h.flush_object(p);
        h.set_root("me", p).unwrap();
        dev.crash();
        let (h2, report) = Pjh::load(dev, LoadOptions::default()).unwrap();
        assert!(!report.recovered_gc);
        assert_eq!(report.klasses_reloaded, 1);
        let p2 = h2.get_root("me").unwrap();
        assert_eq!(p2, p, "same virtual address without remap");
        assert_eq!(h2.field(p2, 0), 99);
    }

    #[test]
    fn unflushed_field_is_lost_header_survives() {
        let (dev, mut h) = new_heap();
        let k = person(&mut h);
        let p = h.alloc_instance(k).unwrap();
        h.set_field(p, 0, 123); // never flushed
        h.set_root("me", p).unwrap();
        dev.crash();
        let (h2, _) = Pjh::load(dev, LoadOptions::default()).unwrap();
        let p2 = h2.get_root("me").unwrap();
        assert_eq!(h2.field(p2, 0), 0, "unflushed data lost");
        assert_eq!(h2.klass_of(p2).name(), "Person", "header persisted by pnew");
    }

    #[test]
    fn torn_allocation_is_invisible() {
        let (dev, mut h) = new_heap();
        let k = person(&mut h);
        for _ in 0..3 {
            h.alloc_instance(k).unwrap();
        }
        let before = h.census().objects;
        // The buffer watermark already covers the next allocation, so the
        // only flush it issues is the header persist — drop it.
        dev.schedule_crash_after_line_flushes(0);
        let _ = h.alloc_instance(k);
        dev.recover();
        let (h2, _) = Pjh::load(dev, LoadOptions::default()).unwrap();
        assert_eq!(
            h2.census().objects,
            before,
            "torn object must not be visible"
        );
        h2.verify_integrity().unwrap();
    }

    #[test]
    fn filler_padding_spans_regions() {
        let (_dev, mut h) = new_heap();
        let pa = h.register_prim_array();
        // Each array takes 3+120 words = 984 bytes; a 4096-byte region fits
        // 4, leaving a 160-byte tail filler.
        let mut refs = Vec::new();
        for i in 0..9 {
            let a = h.alloc_array(pa, 120).unwrap();
            h.array_set(a, 0, i);
            refs.push(a);
        }
        assert_eq!(h.census().objects, 9);
        for (i, a) in refs.iter().enumerate() {
            assert_eq!(h.array_get(*a, 0), i as u64);
        }
    }

    #[test]
    fn object_too_large_is_rejected() {
        let (_dev, mut h) = new_heap();
        let pa = h.register_prim_array();
        assert!(matches!(
            h.alloc_array(pa, 4096),
            Err(PjhError::ObjectTooLarge { .. })
        ));
    }

    #[test]
    fn heap_fills_up() {
        let (_dev, mut h) = new_heap();
        let pa = h.register_prim_array();
        let mut n = 0;
        loop {
            match h.alloc_array(pa, 61) {
                Ok(_) => n += 1,
                Err(PjhError::HeapFull { .. }) => break,
                Err(e) => panic!("unexpected error: {e}"),
            }
            assert!(n < 1_000_000, "never filled");
        }
        assert!(n > 100);
    }

    #[test]
    fn roots_update_and_remove() {
        let (_dev, mut h) = new_heap();
        let k = person(&mut h);
        let a = h.alloc_instance(k).unwrap();
        let b = h.alloc_instance(k).unwrap();
        h.set_root("r", a).unwrap();
        h.set_root("r", b).unwrap();
        assert_eq!(h.get_root("r"), Some(b));
        assert!(h.remove_root("r"));
        assert_eq!(h.get_root("r"), None);
    }

    #[test]
    fn zeroing_safety_nullifies_volatile_pointers() {
        let (dev, mut h) = new_heap();
        let k = person(&mut h);
        let p = h.alloc_instance(k).unwrap();
        let q = h.alloc_instance(k).unwrap();
        // p.next -> volatile object (simulated DRAM address).
        h.set_field_ref(p, 1, Ref::new(Space::Volatile, 0xABCD0))
            .unwrap();
        // q.next -> p (persistent: must survive).
        h.set_field_ref(q, 1, p).unwrap();
        h.flush_object(p);
        h.flush_object(q);
        h.set_root("p", p).unwrap();
        h.set_root("q", q).unwrap();
        dev.crash();
        let (h2, report) = Pjh::load(
            dev,
            LoadOptions {
                safety: SafetyLevel::Zeroing,
                ..LoadOptions::default()
            },
        )
        .unwrap();
        assert_eq!(report.zeroed_refs, 1);
        assert!(report.objects_scanned >= 2);
        let p2 = h2.get_root("p").unwrap();
        assert!(h2.field_ref(p2, 1).is_null(), "volatile pointer nullified");
        let q2 = h2.get_root("q").unwrap();
        assert_eq!(h2.field_ref(q2, 1), p2, "persistent pointer kept");
    }

    #[test]
    fn user_guaranteed_load_keeps_volatile_pointers() {
        let (dev, mut h) = new_heap();
        let k = person(&mut h);
        let p = h.alloc_instance(k).unwrap();
        h.set_field_ref(p, 1, Ref::new(Space::Volatile, 0xABCD0))
            .unwrap();
        h.flush_object(p);
        h.set_root("p", p).unwrap();
        dev.crash();
        let (h2, report) = Pjh::load(dev, LoadOptions::default()).unwrap();
        assert_eq!(report.objects_scanned, 0, "UG load never scans objects");
        let p2 = h2.get_root("p").unwrap();
        assert!(h2.field_ref(p2, 1).is_volatile(), "pointer left in place");
    }

    #[test]
    fn type_based_safety_blocks_volatile_stores_and_unmarked_classes() {
        let (_dev, mut h) = new_heap();
        let k = person(&mut h);
        h.set_safety(SafetyLevel::TypeBased);
        assert!(matches!(
            h.alloc_instance(k),
            Err(PjhError::SafetyViolation { .. })
        ));
        h.mark_persistent_capable("Person");
        let p = h.alloc_instance(k).unwrap();
        assert!(matches!(
            h.set_field_ref(p, 1, Ref::new(Space::Volatile, 0x10)),
            Err(PjhError::SafetyViolation { .. })
        ));
        let q = h.alloc_instance(k).unwrap();
        h.set_field_ref(p, 1, q).unwrap();
    }

    #[test]
    fn remap_rewrites_all_pointers() {
        let (dev, mut h) = new_heap();
        let k = person(&mut h);
        let a = h.alloc_instance(k).unwrap();
        let b = h.alloc_instance(k).unwrap();
        h.set_field(b, 0, 5);
        h.set_field_ref(a, 1, b).unwrap();
        h.flush_object(a);
        h.flush_object(b);
        h.set_root("a", a).unwrap();
        dev.crash();
        let new_base = 0x7777_0000_0000;
        let (h2, report) = Pjh::load(
            dev,
            LoadOptions {
                base_override: Some(new_base),
                ..LoadOptions::default()
            },
        )
        .unwrap();
        assert!(report.remapped);
        let a2 = h2.get_root("a").unwrap();
        assert!(a2.addr() >= new_base);
        let b2 = h2.field_ref(a2, 1);
        assert_eq!(h2.field(b2, 0), 5);
        h2.verify_integrity().unwrap();
    }

    #[test]
    fn census_counts_objects_and_regions() {
        let (_dev, mut h) = new_heap();
        let k = person(&mut h);
        for _ in 0..10 {
            h.alloc_instance(k).unwrap();
        }
        let c = h.census();
        assert_eq!(c.objects, 10);
        assert_eq!(c.object_words, 40);
        assert_eq!(c.segment_klasses, 1);
        assert!(c.free_regions < c.total_regions);
    }

    #[test]
    fn load_rejects_blank_device() {
        let dev = NvmDevice::new(NvmConfig::with_size(1 << 20));
        assert!(matches!(
            Pjh::load(dev, LoadOptions::default()),
            Err(PjhError::NotAHeap)
        ));
    }

    #[test]
    fn allocation_across_many_regions_survives_reload() {
        // Regression: the free-region bitmap is updated word-by-word in
        // place during allocation; its on-NVM layout must match what load
        // reads back, including past the 64-region boundary.
        let (dev, mut h) = new_heap();
        let k = person(&mut h);
        let mut count = 0;
        // 4 KiB regions hold 128 32-byte objects; cross 70+ regions.
        for i in 0..9000u64 {
            let p = h.alloc_instance(k).unwrap();
            h.set_field(p, 0, i);
            count += 1;
        }
        let before = h.census();
        assert!(
            before.total_regions - before.free_regions > 64,
            "test must span 64+ regions"
        );
        dev.crash();
        let (h2, _) = Pjh::load(dev, LoadOptions::default()).unwrap();
        assert_eq!(h2.census().objects, count);
        h2.verify_integrity().unwrap();
    }

    #[test]
    fn plab_batches_cursor_persists() {
        let (dev, mut h) = new_heap();
        let k = person(&mut h);
        h.alloc_instance(k).unwrap(); // reserves the buffer
        let flushes = dev.stats().line_flushes;
        // Subsequent in-buffer allocations persist only their headers:
        // one line flush each, no cursor traffic.
        for _ in 0..3 {
            h.alloc_instance(k).unwrap();
        }
        assert_eq!(dev.stats().line_flushes - flushes, 3);
        assert_eq!(
            dev.read_u64(meta::ALLOC_TOP) as usize,
            h.plab_end,
            "persisted top is the buffer watermark"
        );
        assert!(h.plab_end > h.alloc_top);
    }

    #[test]
    fn crash_mid_buffer_resumes_at_true_top() {
        let (dev, mut h) = new_heap();
        let k = person(&mut h);
        for i in 0..5 {
            let p = h.alloc_instance(k).unwrap();
            h.set_field(p, 0, i);
            h.flush_object(p);
            h.set_root(&format!("o{i}"), p).unwrap();
        }
        let true_top = h.alloc_top;
        assert!(h.plab_end > true_top, "buffer must be mid-flight");
        dev.crash();
        let (mut h2, _) = Pjh::load(dev, LoadOptions::default()).unwrap();
        assert_eq!(h2.alloc_top, true_top, "gap walk finds the real top");
        assert_eq!(h2.census().objects, 5);
        // New allocations fill the gap below the watermark and stay
        // visible to the walker.
        let k2 = person(&mut h2);
        let extra = h2.alloc_instance(k2).unwrap();
        h2.set_root("extra", extra).unwrap();
        assert_eq!(h2.census().objects, 6);
        h2.verify_integrity().unwrap();
    }

    #[test]
    fn crash_between_filler_and_region_switch_exhausts_region() {
        // Regression: a persisted filler always runs to the region end and
        // may span past the buffer watermark. If power fails before the
        // region switch it precedes becomes durable, reload must not
        // resume allocating inside the filler span (the walker skips it).
        // Regions larger than the allocation buffer, so the buffer
        // watermark can sit below the region end.
        let dev = NvmDevice::new(NvmConfig::with_size(4 << 20));
        let mut h = Pjh::create(dev.clone(), PjhConfig::default()).unwrap();
        let pa = h.register_prim_array();
        for _ in 0..250 {
            h.alloc_array(pa, 2).unwrap(); // 40-byte objects drift the grid
        }
        let region_end = h.layout.region_end(h.alloc_region);
        assert!(h.plab_end > h.layout.region_start(h.alloc_region) + PLAB_BYTES);
        assert!(h.plab_end < region_end);
        let before = h.census().objects;
        // Oversized for the region remainder: writes + persists the filler,
        // then crashes before the new region becomes durable.
        dev.schedule_crash_after_line_flushes(1);
        let _ = h.alloc_array(pa, (region_end - h.alloc_top) / WORD);
        dev.recover();
        let (mut h2, _) = Pjh::load(dev, LoadOptions::default()).unwrap();
        assert_eq!(h2.census().objects, before);
        let p = h2.alloc_array(pa, 2).unwrap();
        h2.set_root("fresh", p).unwrap();
        assert_eq!(h2.census().objects, before + 1, "new object visible");
        h2.verify_integrity().unwrap();
    }

    #[test]
    fn klass_registration_survives_reload() {
        let (dev, mut h) = new_heap();
        let k = person(&mut h);
        let p = h.alloc_instance(k).unwrap();
        h.set_root("p", p).unwrap();
        dev.crash();
        let (mut h2, _) = Pjh::load(dev, LoadOptions::default()).unwrap();
        // Re-register with real field names; layout must reconcile.
        let k2 = person(&mut h2);
        let p2 = h2.get_root("p").unwrap();
        assert_eq!(h2.klass_of(p2).id(), k2);
        assert_eq!(h2.klass_of(p2).field_index("next"), Some(1));
    }

    #[test]
    fn incremental_gc_feeds_free_lists_and_alloc_reuses_the_slot() {
        let (dev, mut h) = new_heap();
        let k = person(&mut h);
        let keep = h.alloc_instance(k).unwrap();
        h.set_root("keep", keep).unwrap();
        h.gc_full(&[]).unwrap();
        // A dead object in the (dirty) allocation region: the next
        // incremental cycle proves its death and harvests the slot.
        let dead = h.alloc_instance(k).unwrap();
        let dead_off = h.obj_off(dead);
        let report = h.gc(&[]).unwrap();
        assert_eq!(report.kind, crate::GcKind::Incremental);
        let stats = h.heap_stats();
        assert!(stats.free_list_slots >= 1, "dead slot not harvested");
        // Same size class → the dead slot itself comes back.
        let reused = h.alloc_instance(k).unwrap();
        assert_eq!(h.obj_off(reused), dead_off);
        assert_eq!(h.heap_stats().reused_slots, 1);
        // The reused object is a fully functional, durable object.
        h.set_field(reused, 0, 77);
        h.flush_object(reused);
        h.set_root("r", reused).unwrap();
        dev.crash();
        let (mut h2, _) = Pjh::load(dev, LoadOptions::default()).unwrap();
        person(&mut h2);
        let r2 = h2.get_root("r").unwrap();
        assert_eq!(h2.field(r2, 0), 77);
        h2.verify_integrity().unwrap();
    }

    #[test]
    fn free_lists_rebuild_from_summaries_on_load() {
        let (dev, mut h) = new_heap();
        let k = person(&mut h);
        let keep = h.alloc_instance(k).unwrap();
        h.set_root("keep", keep).unwrap();
        h.gc_full(&[]).unwrap();
        for _ in 0..5 {
            h.alloc_instance(k).unwrap(); // garbage
        }
        h.gc(&[]).unwrap();
        let before = h.heap_stats();
        assert_eq!(before.free_list_slots, 5);
        dev.crash();
        let (h2, _) = Pjh::load(dev, LoadOptions::default()).unwrap();
        let after = h2.heap_stats();
        assert_eq!(after.free_list_slots, before.free_list_slots);
        assert_eq!(after.free_list_words, before.free_list_words);
        assert_eq!(after.free_list_by_class, before.free_list_by_class);
    }

    #[test]
    fn bump_only_heap_never_consults_free_lists() {
        let dev = NvmDevice::new(NvmConfig::with_size(4 << 20));
        let mut h = Pjh::create(
            dev,
            PjhConfig {
                alloc_reuse: false,
                ..PjhConfig::small()
            },
        )
        .unwrap();
        let k = person(&mut h);
        let keep = h.alloc_instance(k).unwrap();
        h.set_root("keep", keep).unwrap();
        h.gc_full(&[]).unwrap();
        let dead = h.alloc_instance(k).unwrap();
        let dead_off = h.obj_off(dead);
        h.gc(&[]).unwrap();
        assert_eq!(h.heap_stats().free_list_slots, 0);
        let next = h.alloc_instance(k).unwrap();
        assert_ne!(h.obj_off(next), dead_off, "bump-only heap reused a slot");
        assert_eq!(h.heap_stats().reused_slots, 0);
    }

    #[test]
    fn prune_deferred_keeps_undrained_entries_in_push_order() {
        let (_dev, mut h) = new_heap();
        let clock = Arc::new(espresso_nvm::EpochClock::new());
        h.attach_epoch_clock(Arc::clone(&clock));
        // One entry at the pre-pin epoch, two behind a pinned reader.
        let e1 = clock.now();
        h.deferred_free.push((e1, 3));
        clock.advance();
        let pin = clock.pin();
        let e2 = clock.now();
        h.deferred_free.push((e2, 7));
        h.deferred_free.push((e2, 5));
        h.prune_deferred();
        // e1 drained (the pin sits above it); the pinned entries survive
        // in exactly their push order.
        assert_eq!(h.deferred_free, vec![(e2, 7), (e2, 5)]);
        drop(pin);
        h.prune_deferred();
        assert!(h.deferred_free.is_empty());
    }

    #[test]
    fn prune_deferred_without_a_clock_clears_everything() {
        let (_dev, mut h) = new_heap();
        h.deferred_free.push((1, 2));
        h.deferred_free.push((9, 4));
        h.prune_deferred();
        assert!(h.deferred_free.is_empty());
    }
}
