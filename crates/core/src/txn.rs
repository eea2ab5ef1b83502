//! The unified undo-log transaction engine (ACID stores on PJH).
//!
//! Historically every library layered its own word-granular undo log on
//! top of the heap (the collections' `PStore`, PCJ's NVML-style log).
//! This module hoists that machinery into the heap itself: one NVM-resident
//! log per PJH instance, shared by every handle to the heap, with a typed
//! scoped entry point ([`Pjh::txn`] / `HeapHandle::txn`) that commits on
//! success, aborts on error, and — via [`HeapTxn`]'s drop guard — aborts
//! automatically when the closure panics.
//!
//! Log records are self-validating: a `(slot, old value)` pair is live iff
//! its slot word is non-zero (slots are virtual addresses, never 0).
//! Appending persists the pair in one call when it fits a cache line and
//! in old-then-slot order when it straddles two, so a record can never
//! become live with a torn old value. A store is performed and flushed
//! only after its record is durable; commit invalidates the used records
//! by zeroing their slot words (adjacent, so usually one flush), and
//! [`Pjh::txn_recover`] re-zeroes the whole log, so every transaction
//! starts from an all-zero persisted log. If a crash leaves a live record
//! prefix, recovery rolls it back in reverse.

use espresso_nvm::CACHE_LINE;
use espresso_object::{FieldDesc, KlassId, Ref, ARRAY_HEADER_WORDS, HEADER_WORDS, WORD};

use crate::heap::Pjh;

/// Root name under which the undo log array is published.
pub(crate) const TXN_LOG_ROOT: &str = "espresso.txn.log";

/// Undo-log capacity in (address, old-value) entry pairs. Sized so the
/// log array (1 + 2 × entries elements) fits in the smallest supported
/// region (4 KiB = 512 words, 3 of which are the array header).
const LOG_ENTRIES: usize = 240;

/// Per-heap transaction state (DRAM side; the log itself lives in NVM).
#[derive(Debug, Clone, Default)]
pub(crate) struct TxnState {
    /// The published undo-log array, once attached or allocated.
    pub(crate) log: Option<Ref>,
    /// Whether a transaction is open.
    pub(crate) active: bool,
    /// Flattened-nesting depth (inner begins increment, commits decrement).
    pub(crate) depth: u32,
    /// Live records in the log.
    pub(crate) entries: usize,
}

impl Pjh {
    /// Rolls back a transaction that was in flight when a crash (or a
    /// commit point taken mid-transaction) captured the image, and
    /// re-establishes the all-zero persisted log. Returns whether any
    /// record was undone. Called by the manager after every load; safe
    /// (and cheap) on a heap that has never run a transaction.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn txn_recover(&mut self) -> crate::Result<bool> {
        let Some(log) = self.get_root(TXN_LOG_ROOT) else {
            return Ok(false);
        };
        self.txn.log = Some(log);
        // A live record prefix means a transaction was torn: undo it in
        // reverse.
        let mut records = Vec::new();
        for i in 0..LOG_ENTRIES {
            let addr = self.array_get(log, 1 + 2 * i);
            if addr == 0 {
                break;
            }
            records.push((addr, self.array_get(log, 2 + 2 * i)));
        }
        for &(addr, old) in records.iter().rev() {
            self.write_word_at(addr, old);
            self.persist_word_at(addr);
        }
        // Re-zero any slot word left non-zero anywhere in the log: a crash
        // inside a commit's invalidation sweep can leave live-looking
        // records beyond a zeroed prefix, and the validity scan must never
        // find them in a later crash. A clean recover writes (and flushes)
        // nothing.
        let mut stale = false;
        for i in 0..LOG_ENTRIES {
            if self.array_get(log, 1 + 2 * i) != 0 {
                self.array_set(log, 1 + 2 * i, 0);
                stale = true;
            }
        }
        if stale {
            self.flush_object(log);
        }
        self.txn.active = false;
        self.txn.depth = 0;
        self.txn.entries = 0;
        Ok(!records.is_empty())
    }

    /// Attaches to the published log, allocating and publishing one on
    /// first use. The array body comes from a zeroed, persisted region (or
    /// the zeroed tail a collection leaves behind), so the first record's
    /// slot word is already a durable terminator.
    fn txn_log_ref(&mut self) -> crate::Result<Ref> {
        if let Some(log) = self.txn.log {
            return Ok(log);
        }
        if let Some(log) = self.get_root(TXN_LOG_ROOT) {
            self.txn.log = Some(log);
            return Ok(log);
        }
        let kid = self.register_prim_array();
        let log = self.alloc_array(kid, 1 + 2 * LOG_ENTRIES)?;
        self.set_root(TXN_LOG_ROOT, log)?;
        self.txn.log = Some(log);
        Ok(log)
    }

    /// Ensures the undo log is allocated and published, so later
    /// [`txn_begin`](Self::txn_begin) calls cannot fail on allocation.
    /// Wrappers that expose an infallible `begin` (the collections'
    /// `PStore`) call this at construction to surface heap-full errors
    /// early instead of panicking mid-operation.
    ///
    /// # Errors
    ///
    /// Allocation or root-table errors publishing the log.
    pub fn txn_prepare(&mut self) -> crate::Result<()> {
        self.txn_log_ref().map(|_| ())
    }

    /// Begins a transaction; nested begins are flattened.
    ///
    /// # Errors
    ///
    /// Allocation or root-table errors publishing the undo log on the
    /// heap's first-ever transaction.
    pub fn txn_begin(&mut self) -> crate::Result<()> {
        if self.txn.active {
            self.txn.depth += 1;
            return Ok(());
        }
        self.txn_log_ref()?;
        self.txn.active = true;
        self.txn.depth = 0;
        self.txn.entries = 0;
        Ok(())
    }

    /// Whether a transaction is currently open.
    pub fn txn_active(&self) -> bool {
        self.txn.active
    }

    /// Device virtual address of log array element `i` (element 0 is
    /// reserved).
    #[inline]
    fn txn_log_slot(&self, i: usize) -> u64 {
        self.txn.log.expect("log attached").addr() + ((ARRAY_HEADER_WORDS + i) * WORD) as u64
    }

    /// Zeroes the slot words of records `0..entries` and persists them
    /// with one trailing fence, invalidating the transaction.
    fn txn_invalidate_log(&mut self) {
        if self.txn.entries == 0 {
            return;
        }
        for i in 0..self.txn.entries {
            self.write_word_at(self.txn_log_slot(1 + 2 * i), 0);
        }
        let span = (2 * (self.txn.entries - 1) + 1) * WORD;
        self.persist_range_at(self.txn_log_slot(1), span);
    }

    /// Commits: invalidates the used records (their slot words are 16
    /// bytes apart, so this is typically a single flush).
    pub fn txn_commit(&mut self) {
        if self.txn.depth > 0 {
            self.txn.depth -= 1;
            return;
        }
        self.txn_invalidate_log();
        self.txn.active = false;
        self.txn.entries = 0;
    }

    /// Aborts: applies the undo entries in reverse and truncates the log.
    /// An inner abort aborts the whole flattened transaction.
    pub fn txn_abort(&mut self) {
        for i in (0..self.txn.entries).rev() {
            let addr = self.read_word_at(self.txn_log_slot(1 + 2 * i));
            let old = self.read_word_at(self.txn_log_slot(2 + 2 * i));
            self.write_word_at(addr, old);
            self.persist_word_at(addr);
        }
        self.txn_invalidate_log();
        self.txn.active = false;
        self.txn.depth = 0;
        self.txn.entries = 0;
    }

    /// Appends the `(slot, old value)` record for `slot_vaddr` if a
    /// transaction is active.
    fn txn_log_old(&mut self, slot_vaddr: u64) {
        if !self.txn.active {
            return;
        }
        assert!(
            self.txn.entries < LOG_ENTRIES,
            "undo log overflow (transaction too large)"
        );
        let old = self.read_word_at(slot_vaddr);
        let i = self.txn.entries;
        let entry = self.txn_log_slot(1 + 2 * i);
        self.write_word_at(entry, slot_vaddr);
        self.write_word_at(entry + WORD as u64, old);
        // The record becomes live the instant its slot word is durable,
        // so the old value must never trail it: one persist when the pair
        // shares a cache line, old-then-slot order when it straddles two.
        if self.layout.to_off(entry) % CACHE_LINE + 2 * WORD <= CACHE_LINE {
            self.persist_range_at(entry, 2 * WORD);
        } else {
            self.persist_word_at(entry + WORD as u64);
            self.persist_word_at(entry);
        }
        self.txn.entries = i + 1;
    }

    // ---- logged primitive operations ----
    //
    // Slot addresses are computed once and reused for the log record, the
    // store and the flush, so each logged store costs two persists (log
    // record, data) and no redundant Klass traffic. Outside a transaction
    // these degrade to plain persisted stores.

    /// Logged, persisted field store.
    pub fn txn_set_field(&mut self, obj: Ref, index: usize, value: u64) {
        let slot = obj.addr() + ((HEADER_WORDS + index) * WORD) as u64;
        self.txn_log_old(slot);
        self.write_word_at(slot, value);
        self.persist_word_at(slot);
    }

    /// Logged, persisted reference-field store.
    ///
    /// # Errors
    ///
    /// Safety violations from the heap.
    pub fn txn_set_field_ref(&mut self, obj: Ref, index: usize, value: Ref) -> crate::Result<()> {
        let slot = obj.addr() + ((HEADER_WORDS + index) * WORD) as u64;
        self.txn_log_old(slot);
        self.write_ref_word_at(slot, value)?;
        self.persist_word_at(slot);
        Ok(())
    }

    /// Logged, persisted array store.
    pub fn txn_array_set(&mut self, arr: Ref, i: usize, value: u64) {
        debug_assert!(i < self.array_len(arr));
        let slot = arr.addr() + ((ARRAY_HEADER_WORDS + i) * WORD) as u64;
        self.txn_log_old(slot);
        self.write_word_at(slot, value);
        self.persist_word_at(slot);
    }

    /// Logged, persisted array reference store.
    ///
    /// # Errors
    ///
    /// Safety violations from the heap.
    pub fn txn_array_set_ref(&mut self, arr: Ref, i: usize, value: Ref) -> crate::Result<()> {
        debug_assert!(i < self.array_len(arr));
        let slot = arr.addr() + ((ARRAY_HEADER_WORDS + i) * WORD) as u64;
        self.txn_log_old(slot);
        self.write_ref_word_at(slot, value)?;
        self.persist_word_at(slot);
        Ok(())
    }

    /// Runs `f` inside a transaction: commit on `Ok`, abort on `Err`, and
    /// — because [`HeapTxn`] aborts from its drop guard — abort if `f`
    /// panics. Joins (flattens into) an already-active transaction.
    ///
    /// # Errors
    ///
    /// Propagates `f`'s error after aborting, and log-publication errors
    /// from [`txn_begin`](Self::txn_begin).
    pub fn txn<T>(
        &mut self,
        f: impl FnOnce(&mut HeapTxn<'_>) -> crate::Result<T>,
    ) -> crate::Result<T> {
        self.txn_begin()?;
        let mut t = HeapTxn {
            heap: self,
            finished: false,
            fresh: std::collections::HashSet::new(),
        };
        match f(&mut t) {
            Ok(v) => {
                t.finished = true;
                t.heap.txn_commit();
                Ok(v)
            }
            Err(e) => {
                t.finished = true;
                t.heap.txn_abort();
                Err(e)
            }
        }
    }
}

/// A scoped transaction over one PJH instance.
///
/// Obtained from [`Pjh::txn`] (or `HeapHandle::txn`). Every store issued
/// through this type is recorded in the heap's NVM undo log and flushed,
/// so whatever the crash point the transaction is atomic: recovery (or an
/// abort) restores every logged slot to its pre-transaction value.
///
/// Dropping a `HeapTxn` whose closure neither returned nor committed —
/// i.e. unwinding out of the closure on panic — aborts the transaction,
/// so a panicking transaction can never leak half-applied state.
///
/// Reads need no transaction-specific API: `HeapTxn` derefs to `&Pjh`,
/// so every `&self` reader (`field`, `get`, `root::<T>`, …) works inside
/// a transaction exactly as outside one.
///
/// ```
/// # use espresso_core::{Pjh, PjhConfig};
/// # use espresso_nvm::{NvmConfig, NvmDevice};
/// let mut h = Pjh::create(NvmDevice::new(NvmConfig::with_size(1 << 20)), PjhConfig::small())?;
/// let pa = h.register_prim_array();
/// let n = h.txn(|t| {
///     let arr = t.alloc_array(pa, 3)?;
///     t.array_set(arr, 1, 42);
///     Ok(t.array_get(arr, 1) + t.array_len(arr) as u64)
/// })?;
/// assert_eq!(n, 45);
/// # Ok::<(), espresso_core::PjhError>(())
/// ```
///
/// The deref is read-only. `Pjh`'s unlogged mutators take `&mut Pjh`, so
/// a transaction cannot reach them — an unlogged store would break its
/// atomicity:
///
/// ```compile_fail
/// # use espresso_core::{Pjh, PjhConfig};
/// # use espresso_nvm::{NvmConfig, NvmDevice};
/// let mut h = Pjh::create(NvmDevice::new(NvmConfig::with_size(1 << 20)), PjhConfig::small())?;
/// let pa = h.register_prim_array();
/// h.txn(|t| {
///     let arr = t.alloc_array(pa, 3)?;
///     t.set_root("arr", arr) // unlogged root store: does not compile
/// })?;
/// # Ok::<(), espresso_core::PjhError>(())
/// ```
///
/// ```compile_fail
/// # use espresso_core::{Pjh, PjhConfig};
/// # use espresso_nvm::{NvmConfig, NvmDevice};
/// let mut h = Pjh::create(NvmDevice::new(NvmConfig::with_size(1 << 20)), PjhConfig::small())?;
/// let pa = h.register_prim_array();
/// h.txn(|t| {
///     let arr = t.alloc_array(pa, 3)?;
///     t.write_word_at(arr.addr(), 0); // unlogged raw store: does not compile
///     Ok(())
/// })?;
/// # Ok::<(), espresso_core::PjhError>(())
/// ```
#[derive(Debug)]
pub struct HeapTxn<'a> {
    heap: &'a mut Pjh,
    finished: bool,
    /// Objects allocated inside this transaction. They are unreachable
    /// until a logged pointer store publishes them, so stores into them
    /// need no undo records — the `init_*` family below asserts against
    /// this set before skipping the log.
    fresh: std::collections::HashSet<Ref>,
}

impl Drop for HeapTxn<'_> {
    fn drop(&mut self) {
        if !self.finished {
            self.heap.txn_abort();
        }
    }
}

impl std::ops::Deref for HeapTxn<'_> {
    type Target = Pjh;
    fn deref(&self) -> &Pjh {
        self.heap
    }
}

impl HeapTxn<'_> {
    /// Mutable heap access for the typed layer (see [`crate::typed`]),
    /// which routes every store back through the logged `txn_*` ops.
    pub(crate) fn heap_internal(&mut self) -> &mut Pjh {
        self.heap
    }

    /// Records an object allocated inside this transaction (called by the
    /// typed allocation paths in [`crate::typed`], which bypass the raw
    /// passthroughs below).
    pub(crate) fn note_fresh(&mut self, r: Ref) {
        self.fresh.insert(r);
    }

    // ---- init stores: unlogged writes to objects allocated in this
    //      transaction ----
    //
    // A store into an object the transaction itself allocated needs no
    // undo record: the object is unreachable until a *logged* pointer
    // store publishes it, so on abort or crash-rollback the whole object
    // is garbage and its contents are irrelevant. Builders that construct
    // large object graphs inside a transaction (the index crate's
    // copy-on-write B-tree paths) use these to stay clear of the undo
    // log's fixed capacity — a path of fresh nodes costs zero log records
    // instead of hundreds.
    //
    // Init stores are volatile (like `Pjh::set_field`): the builder MUST
    // persist every initialized object (`self.heap().flush_object(r)`)
    // *before* issuing the logged store that publishes it, or a crash
    // after commit could expose torn contents.

    /// Unlogged field store into an object allocated in this transaction.
    ///
    /// # Panics
    ///
    /// Panics if `obj` was not allocated through this transaction's
    /// allocation passthroughs — logging would be required for atomicity.
    pub fn init_field(&mut self, obj: Ref, index: usize, value: u64) {
        assert!(
            self.fresh.contains(&obj),
            "init store into pre-existing object"
        );
        self.heap.set_field(obj, index, value);
    }

    /// Unlogged reference-field store into an object allocated in this
    /// transaction.
    ///
    /// # Errors
    ///
    /// Safety violations from the heap.
    ///
    /// # Panics
    ///
    /// Panics if `obj` is not transaction-fresh.
    pub fn init_field_ref(&mut self, obj: Ref, index: usize, value: Ref) -> crate::Result<()> {
        assert!(
            self.fresh.contains(&obj),
            "init store into pre-existing object"
        );
        self.heap.set_field_ref(obj, index, value)
    }

    /// Unlogged array store into an array allocated in this transaction.
    ///
    /// # Panics
    ///
    /// Panics if `arr` is not transaction-fresh.
    pub fn init_array_set(&mut self, arr: Ref, i: usize, value: u64) {
        assert!(
            self.fresh.contains(&arr),
            "init store into pre-existing array"
        );
        self.heap.array_set(arr, i, value);
    }

    /// Unlogged array reference store into an array allocated in this
    /// transaction.
    ///
    /// # Errors
    ///
    /// Safety violations from the heap.
    ///
    /// # Panics
    ///
    /// Panics if `arr` is not transaction-fresh.
    pub fn init_array_set_ref(&mut self, arr: Ref, i: usize, value: Ref) -> crate::Result<()> {
        assert!(
            self.fresh.contains(&arr),
            "init store into pre-existing array"
        );
        self.heap.array_set_ref(arr, i, value)
    }

    // ---- logged writes ----

    /// Logged, persisted field store.
    pub fn set_field(&mut self, obj: Ref, index: usize, value: u64) {
        self.heap.txn_set_field(obj, index, value);
    }

    /// Logged, persisted reference-field store.
    ///
    /// # Errors
    ///
    /// Safety violations from the heap.
    pub fn set_field_ref(&mut self, obj: Ref, index: usize, value: Ref) -> crate::Result<()> {
        self.heap.txn_set_field_ref(obj, index, value)
    }

    /// Logged, persisted array store.
    pub fn array_set(&mut self, arr: Ref, i: usize, value: u64) {
        self.heap.txn_array_set(arr, i, value);
    }

    /// Logged, persisted array reference store.
    ///
    /// # Errors
    ///
    /// Safety violations from the heap.
    pub fn array_set_ref(&mut self, arr: Ref, i: usize, value: Ref) -> crate::Result<()> {
        self.heap.txn_array_set_ref(arr, i, value)
    }

    // ---- allocation (new objects need no undo: they are unreachable
    // until a logged pointer store publishes them) ----

    /// Allocation passthrough.
    ///
    /// # Errors
    ///
    /// Heap allocation errors.
    pub fn alloc_instance(&mut self, kid: KlassId) -> crate::Result<Ref> {
        let r = self.heap.alloc_instance(kid)?;
        self.fresh.insert(r);
        Ok(r)
    }

    /// Array allocation passthrough.
    ///
    /// # Errors
    ///
    /// Heap allocation errors.
    pub fn alloc_array(&mut self, kid: KlassId, len: usize) -> crate::Result<Ref> {
        let r = self.heap.alloc_array(kid, len)?;
        self.fresh.insert(r);
        Ok(r)
    }

    /// Allocates and fully persists a length-prefixed string (see
    /// [`Pjh::alloc_string`]); the payload is transaction-fresh, so only
    /// the pointer store publishing it needs logging.
    ///
    /// # Errors
    ///
    /// Heap allocation errors.
    pub fn alloc_string(&mut self, s: &str) -> crate::Result<Ref> {
        let r = self.heap.alloc_string(s)?;
        self.fresh.insert(r);
        Ok(r)
    }

    /// Class registration passthrough.
    ///
    /// # Errors
    ///
    /// [`crate::PjhError::KlassLayoutMismatch`] on conflicting layouts.
    pub fn register_instance(
        &mut self,
        name: &str,
        fields: Vec<FieldDesc>,
    ) -> crate::Result<KlassId> {
        self.heap.register_instance(name, fields)
    }

    /// Primitive-array class registration passthrough.
    pub fn register_prim_array(&mut self) -> KlassId {
        self.heap.register_prim_array()
    }

    /// Object-array class registration passthrough.
    pub fn register_obj_array(&mut self, elem_name: &str) -> KlassId {
        self.heap.register_obj_array(elem_name)
    }

    /// Read-only access to the underlying heap for operations with no
    /// transactional meaning (census, klass lookup, flush accounting).
    /// Mutable access is deliberately not exposed: unlogged stores inside
    /// a transaction would break atomicity.
    pub fn heap(&self) -> &Pjh {
        self.heap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LoadOptions, PjhConfig, PjhError};
    use espresso_nvm::{NvmConfig, NvmDevice};

    fn heap() -> (NvmDevice, Pjh) {
        let dev = NvmDevice::new(NvmConfig::with_size(8 << 20));
        let h = Pjh::create(dev.clone(), PjhConfig::small()).unwrap();
        (dev, h)
    }

    fn point(h: &mut Pjh) -> KlassId {
        h.register_instance("Point", vec![FieldDesc::prim("x"), FieldDesc::prim("y")])
            .unwrap()
    }

    #[test]
    fn txn_commits_on_ok() {
        let (_dev, mut h) = heap();
        let k = point(&mut h);
        let p = h.alloc_instance(k).unwrap();
        h.txn(|t| {
            t.set_field(p, 0, 10);
            t.set_field(p, 1, 20);
            Ok(())
        })
        .unwrap();
        assert_eq!(h.field(p, 0), 10);
        assert_eq!(h.field(p, 1), 20);
        assert!(!h.txn_active());
    }

    #[test]
    fn txn_aborts_on_err() {
        let (_dev, mut h) = heap();
        let k = point(&mut h);
        let p = h.alloc_instance(k).unwrap();
        h.txn(|t| {
            t.set_field(p, 0, 1);
            Ok(())
        })
        .unwrap();
        let r: crate::Result<()> = h.txn(|t| {
            t.set_field(p, 0, 99);
            Err(PjhError::NotAHeap)
        });
        assert!(r.is_err());
        assert_eq!(h.field(p, 0), 1, "aborted store rolled back");
    }

    #[test]
    fn txn_aborts_on_panic() {
        let (dev, mut h) = heap();
        let k = point(&mut h);
        let p = h.alloc_instance(k).unwrap();
        h.txn(|t| {
            t.set_field(p, 0, 7);
            Ok(())
        })
        .unwrap();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _: crate::Result<()> = h.txn(|t| {
                t.set_field(p, 0, 1000);
                t.set_field(p, 1, 2000);
                panic!("boom");
            });
        }));
        assert!(caught.is_err());
        assert_eq!(h.field(p, 0), 7, "panic aborted the transaction");
        assert_eq!(h.field(p, 1), 0);
        assert!(!h.txn_active(), "state reset after panic-abort");
        // The heap is still usable and crash-consistent afterwards.
        h.txn(|t| {
            t.set_field(p, 1, 5);
            Ok(())
        })
        .unwrap();
        dev.crash();
        let (mut h2, _) = Pjh::load(dev, LoadOptions::default()).unwrap();
        h2.txn_recover().unwrap();
        let p2 = h2.get_root(TXN_LOG_ROOT).unwrap();
        assert!(!p2.is_null());
    }

    #[test]
    fn crash_mid_txn_rolls_back_on_recover() {
        let (dev, mut h) = heap();
        let k = point(&mut h);
        let p = h.alloc_instance(k).unwrap();
        h.set_root("p", p).unwrap();
        h.txn(|t| {
            t.set_field(p, 0, 7);
            Ok(())
        })
        .unwrap();
        // Torn transaction: stores logged + applied, commit never runs.
        h.txn_begin().unwrap();
        h.txn_set_field(p, 0, 1000);
        h.txn_set_field(p, 1, 2000);
        dev.crash();
        let (mut h2, _) = Pjh::load(dev, LoadOptions::default()).unwrap();
        assert!(h2.txn_recover().unwrap(), "torn records were undone");
        let p2 = h2.get_root("p").unwrap();
        assert_eq!(h2.field(p2, 0), 7);
        assert_eq!(h2.field(p2, 1), 0);
    }

    #[test]
    fn nested_txns_flatten() {
        let (_dev, mut h) = heap();
        let k = point(&mut h);
        let p = h.alloc_instance(k).unwrap();
        h.txn_begin().unwrap();
        h.txn_set_field(p, 0, 1);
        h.txn_begin().unwrap();
        h.txn_set_field(p, 1, 2);
        h.txn_commit(); // inner: no effect yet
        assert!(h.txn_active());
        h.txn_commit(); // outer: commits all
        assert!(!h.txn_active());
        assert_eq!(h.field(p, 0), 1);
        assert_eq!(h.field(p, 1), 2);
    }

    #[test]
    fn gc_is_refused_while_a_transaction_is_open() {
        let (_dev, mut h) = heap();
        let k = point(&mut h);
        let p = h.alloc_instance(k).unwrap();
        h.set_root("p", p).unwrap();
        h.txn_begin().unwrap();
        h.txn_set_field(p, 0, 1);
        assert!(
            matches!(h.gc(&[]), Err(PjhError::SafetyViolation { .. })),
            "compaction would orphan the live undo records"
        );
        assert!(matches!(
            h.gc_full(&[]),
            Err(PjhError::SafetyViolation { .. })
        ));
        h.txn_commit();
        h.gc_full(&[]).unwrap();
        let p = h.get_root("p").unwrap();
        assert_eq!(h.field(p, 0), 1);
    }

    #[test]
    fn torn_txn_is_rolled_back_before_a_remap() {
        let (dev, mut h) = heap();
        let k = point(&mut h);
        let p = h.alloc_instance(k).unwrap();
        let q = h.alloc_instance(k).unwrap();
        h.set_root("p", p).unwrap();
        h.set_root("q", q).unwrap();
        h.txn(|t| {
            t.set_field(p, 0, 5);
            Ok(())
        })
        .unwrap();
        // Torn transaction captured by the crash: its undo records hold
        // stored-base addresses.
        h.txn_begin().unwrap();
        h.txn_set_field(p, 0, 999);
        h.txn_set_field(q, 1, 888);
        dev.crash();
        // Reload at a different base: rollback must run before the
        // rebase, or the old-base record addresses would corrupt the
        // moved heap.
        let new_base = 0x7000_0000_0000;
        let (mut h2, report) = Pjh::load(
            dev,
            LoadOptions {
                base_override: Some(new_base),
                ..LoadOptions::default()
            },
        )
        .unwrap();
        assert!(report.remapped);
        assert!(
            !h2.txn_recover().unwrap(),
            "load already rolled the torn transaction back"
        );
        let p2 = h2.get_root("p").unwrap();
        let q2 = h2.get_root("q").unwrap();
        assert_eq!(h2.field(p2, 0), 5, "torn store rolled back pre-remap");
        assert_eq!(h2.field(q2, 1), 0);
        h2.verify_integrity().unwrap();
    }

    #[test]
    fn gc_relocates_the_log() {
        let (_dev, mut h) = heap();
        let k = point(&mut h);
        for _ in 0..200 {
            h.alloc_instance(k).unwrap();
        }
        let p = h.alloc_instance(k).unwrap();
        h.set_root("p", p).unwrap();
        h.txn(|t| {
            t.set_field(p, 0, 3);
            Ok(())
        })
        .unwrap();
        h.gc_full(&[]).unwrap();
        // The log must still work after a compacting collection.
        let p = h.get_root("p").unwrap();
        h.txn(|t| {
            t.set_field(p, 0, 4);
            Ok(())
        })
        .unwrap();
        assert_eq!(h.field(p, 0), 4);
        assert_eq!(
            h.txn.log,
            h.get_root(TXN_LOG_ROOT),
            "cached log ref tracks relocation"
        );
    }
}
