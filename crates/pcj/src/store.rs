//! The off-heap object store: native allocator, string-keyed type table,
//! refcount GC, per-operation transactions.

use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use espresso_nvm::NvmDevice;
use espresso_object::{FieldKind, FieldType, Schema};
use parking_lot::Mutex;

use crate::timers::{Phase, PhaseBreakdown};

const MAGIC: u64 = 0x5043_4a53_544f_5245; // "PCJSTORE"

mod meta {
    pub const MAGIC: usize = 0;
    pub const ALLOC_TOP: usize = 8;
    pub const FREELIST: usize = 16;
    pub const TYPE_TOP: usize = 24;
    pub const ROOT: usize = 40;
    /// NVML-style transaction stage word (its own cache line so the
    /// per-transaction flushes are honest).
    pub const TX_STAGE: usize = 128;
    pub const SIZE: usize = 256;
}

/// Undo-log entries are self-validating, NVML-ulog style: a 16-byte
/// `(addr, old)` record is live iff its `addr` word is non-zero. The log
/// area starts line-aligned and records are 16 bytes, so each record
/// persist is a single atomic line flush; commit invalidates the
/// transaction by zeroing the used records' `addr` words (one flush per
/// four records, typically one), and recovery re-zeroes the whole log so
/// every transaction starts from an all-zero persisted log. No separately
/// persisted entry count — that used to double the metadata flushes of
/// every logged store inside a transaction.
const LOG_ENTRIES: usize = 1024;
const LOG_OFF: usize = meta::SIZE;
const LOG_BYTES: usize = LOG_ENTRIES * 16;
// Record atomicity requires that 16-byte records never straddle a cache
// line from the line-aligned log base.
const _: () = assert!(LOG_OFF.is_multiple_of(espresso_nvm::CACHE_LINE));
const _: () = assert!(espresso_nvm::CACHE_LINE.is_multiple_of(16));
const TYPE_OFF: usize = LOG_OFF + LOG_BYTES;
const TYPE_BYTES: usize = 32 << 10;
const DATA_OFF: usize = TYPE_OFF + TYPE_BYTES;

/// Object header: payload size (words), refcount, type-record offset.
const HEADER_WORDS: usize = 3;

/// Errors from the PCJ baseline.
#[derive(Debug)]
pub enum PcjError {
    /// The data area is exhausted.
    OutOfMemory,
    /// The type table is exhausted.
    TypeTableFull,
    /// A transaction exceeded the undo log.
    LogOverflow,
    /// The device does not hold a formatted store.
    NotAStore,
    /// A declared schema cannot be represented in PCJ's object model, or
    /// a named field access violated it.
    Schema {
        /// Human-readable description.
        detail: String,
    },
}

impl fmt::Display for PcjError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PcjError::OutOfMemory => write!(f, "pcj store out of memory"),
            PcjError::TypeTableFull => write!(f, "pcj type table full"),
            PcjError::LogOverflow => write!(f, "pcj undo log overflow"),
            PcjError::NotAStore => write!(f, "device does not hold a pcj store"),
            PcjError::Schema { detail } => write!(f, "pcj schema violation: {detail}"),
        }
    }
}

impl std::error::Error for PcjError {}

/// Handle to an off-heap object (its header offset). Zero is null.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PcjRef(pub(crate) u64);

impl PcjRef {
    /// The null handle.
    pub const NULL: PcjRef = PcjRef(0);

    /// Whether this is the null handle.
    pub fn is_null(self) -> bool {
        self.0 == 0
    }

    /// Raw offset (for persisting into payload slots).
    pub fn to_raw(self) -> u64 {
        self.0
    }

    /// Rebuilds a handle from a payload slot.
    pub fn from_raw(raw: u64) -> PcjRef {
        PcjRef(raw)
    }
}

/// The PCJ-style store. See the [crate docs](crate) for the cost model.
pub struct PcjStore {
    dev: NvmDevice,
    lock: Arc<Mutex<()>>,
    timers: PhaseBreakdown,
    log_entries: usize,
    /// Open-transaction depth: nested begins (an op inside a
    /// [`transact`](Self::transact) scope) flatten into the outer one.
    txn_depth: u32,
}

impl fmt::Debug for PcjStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PcjStore")
            .field("device_size", &self.dev.size())
            .finish()
    }
}

impl PcjStore {
    /// Formats a fresh store on `dev`.
    ///
    /// # Errors
    ///
    /// [`PcjError::OutOfMemory`] if the device is smaller than the fixed
    /// areas.
    pub fn format(dev: NvmDevice) -> crate::Result<PcjStore> {
        if dev.size() <= DATA_OFF + 1024 {
            return Err(PcjError::OutOfMemory);
        }
        dev.write_u64(meta::MAGIC, MAGIC);
        dev.write_u64(meta::ALLOC_TOP, DATA_OFF as u64 + 8); // offset 0 stays null
        dev.write_u64(meta::FREELIST, 0);
        dev.write_u64(meta::TYPE_TOP, TYPE_OFF as u64);
        dev.write_u64(meta::ROOT, 0);
        dev.write_u64(meta::TX_STAGE, 0);
        dev.persist(0, meta::SIZE);
        // Establish the all-zero persisted log the record-validity scan
        // relies on (the device may be reused).
        dev.fill(LOG_OFF, LOG_BYTES, 0);
        dev.persist(LOG_OFF, LOG_BYTES);
        Ok(PcjStore {
            dev,
            lock: Arc::new(Mutex::new(())),
            timers: PhaseBreakdown::default(),
            log_entries: 0,
            txn_depth: 0,
        })
    }

    /// Attaches to an existing store, rolling back a torn transaction.
    ///
    /// # Errors
    ///
    /// [`PcjError::NotAStore`] on a foreign image.
    pub fn attach(dev: NvmDevice) -> crate::Result<PcjStore> {
        if dev.size() < meta::SIZE || dev.read_u64(meta::MAGIC) != MAGIC {
            return Err(PcjError::NotAStore);
        }
        if dev.read_u64(meta::TX_STAGE) != 0 {
            // A transaction was torn: undo its valid record prefix in
            // reverse. Every record whose data write may have reached the
            // persistence domain is fully durable here (the single-line
            // record is persisted before its data write).
            let mut entries = Vec::new();
            for i in 0..LOG_ENTRIES {
                let addr = dev.read_u64(LOG_OFF + i * 16) as usize;
                if addr == 0 {
                    break;
                }
                entries.push((addr, dev.read_u64(LOG_OFF + i * 16 + 8)));
            }
            for &(addr, old) in entries.iter().rev() {
                dev.write_u64(addr, old);
                dev.persist(addr, 8);
            }
            // Re-zero the whole log: a crash inside commit's invalidation
            // can leave live-looking records beyond a zeroed prefix, and
            // the next transaction's validity scan must not find them.
            dev.fill(LOG_OFF, LOG_BYTES, 0);
            dev.persist(LOG_OFF, LOG_BYTES);
            dev.write_u64(meta::TX_STAGE, 0);
            dev.persist(meta::TX_STAGE, 8);
        }
        Ok(PcjStore {
            dev,
            lock: Arc::new(Mutex::new(())),
            timers: PhaseBreakdown::default(),
            log_entries: 0,
            txn_depth: 0,
        })
    }

    /// The backing device.
    pub fn device(&self) -> &NvmDevice {
        &self.dev
    }

    /// Accumulated phase timers (Figure 6).
    pub fn timers(&self) -> PhaseBreakdown {
        self.timers
    }

    fn timed<T>(&mut self, phase: Phase, f: impl FnOnce(&mut PcjStore) -> T) -> T {
        let t0 = Instant::now();
        let out = f(self);
        self.timers.add(phase, t0.elapsed());
        out
    }

    // ---- transactions (NVML-style undo log, per-entry flushes) ----

    pub(crate) fn txn_begin(&mut self) {
        if self.txn_depth > 0 {
            self.txn_depth += 1;
            return;
        }
        self.timed(Phase::Transaction, |s| {
            // The synchronization primitive PCJ pays for on every op, plus
            // NVML's persisted transaction-stage update (tx_begin writes
            // and flushes the stage word before any work happens).
            drop(s.lock.clone().lock());
            s.dev.write_u64(meta::TX_STAGE, 1);
            s.dev.persist(meta::TX_STAGE, 8);
            s.log_entries = 0;
            s.txn_depth = 1;
        });
    }

    pub(crate) fn txn_commit(&mut self) {
        if self.txn_depth > 1 {
            self.txn_depth -= 1;
            return;
        }
        self.timed(Phase::Transaction, |s| {
            // NVML tx_end: invalidate the used records (their addr words
            // share lines four to one, so this is usually one flush — not
            // a per-entry count rewrite), then stage back to NONE.
            if s.log_entries > 0 {
                for i in 0..s.log_entries {
                    s.dev.write_u64(LOG_OFF + i * 16, 0);
                }
                s.dev.persist(LOG_OFF, s.log_entries * 16);
            }
            s.dev.write_u64(meta::TX_STAGE, 0);
            s.dev.persist(meta::TX_STAGE, 8);
            s.log_entries = 0;
            s.txn_depth = 0;
        });
    }

    fn log_word(&mut self, addr: usize) -> crate::Result<()> {
        if self.log_entries >= LOG_ENTRIES {
            return Err(PcjError::LogOverflow);
        }
        let t0 = Instant::now();
        let old = self.dev.read_u64(addr);
        let i = self.log_entries;
        self.dev.write_u64(LOG_OFF + i * 16, addr as u64);
        self.dev.write_u64(LOG_OFF + i * 16 + 8, old);
        // One single-line persist makes the record live atomically (the
        // log is line-aligned and records are 16 bytes); everything beyond
        // the prefix is already durably zero, so no count flush is needed.
        self.dev.persist(LOG_OFF + i * 16, 16);
        self.log_entries = i + 1;
        self.timers.add(Phase::Transaction, t0.elapsed());
        Ok(())
    }

    fn logged_write(&mut self, addr: usize, value: u64) -> crate::Result<()> {
        self.log_word(addr)?;
        self.dev.write_u64(addr, value);
        self.dev.persist(addr, 8);
        Ok(())
    }

    /// Undoes records `start..log_entries` in reverse and invalidates
    /// them (the abort half of the NVML idiom, scoped so a nested
    /// [`transact`](Self::transact) rolls back only its own stores;
    /// recovery does the full-prefix equivalent from the persisted log).
    fn txn_rollback_from(&mut self, start: usize) {
        if self.log_entries <= start {
            return;
        }
        for i in (start..self.log_entries).rev() {
            let addr = self.dev.read_u64(LOG_OFF + i * 16) as usize;
            let old = self.dev.read_u64(LOG_OFF + i * 16 + 8);
            self.dev.write_u64(addr, old);
            self.dev.persist(addr, 8);
        }
        // Zero the rolled-back records so neither an outer commit's sweep
        // nor crash recovery ever treats them as live again.
        for i in start..self.log_entries {
            self.dev.write_u64(LOG_OFF + i * 16, 0);
        }
        self.dev
            .persist(LOG_OFF + start * 16, (self.log_entries - start) * 16);
        self.log_entries = start;
    }

    /// Runs `f` as one scoped NVML-style transaction — the same typed
    /// entry-point shape as the PJH session API's `txn`: one stage-word
    /// persist per scope instead of per operation, commit on `Ok`,
    /// rollback + commit-stage-reset on `Err` *and* on panic (the panic
    /// is re-raised after the rollback). Batching several logged stores
    /// under one scope is how PCJ applications amortize the transaction
    /// overhead the paper measures per-op.
    ///
    /// # Errors
    ///
    /// Propagates `f`'s error after rolling back its logged stores.
    pub fn transact<T>(
        &mut self,
        f: impl FnOnce(&mut PcjStore) -> crate::Result<T>,
    ) -> crate::Result<T> {
        self.txn_begin();
        // This scope owns only the records appended from here on: a
        // nested transact that fails must not undo its enclosing scope's
        // stores (the outer scope decides its own fate).
        let scope_start = self.log_entries;
        let scope_depth = self.txn_depth;
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(self)));
        match out {
            Ok(Ok(v)) => {
                self.txn_commit();
                Ok(v)
            }
            Ok(Err(e)) => {
                self.txn_rollback_from(scope_start);
                self.txn_commit();
                Err(e)
            }
            Err(payload) => {
                // A panicking closure must not leave the stage word set
                // and the depth stuck — the panic may even have unwound
                // out of a nested op between its begin and commit, so
                // force the depth back to this scope before closing it;
                // then let the panic continue (an enclosing transact will
                // roll back its own slice the same way).
                self.txn_depth = scope_depth;
                self.txn_rollback_from(scope_start);
                self.txn_commit();
                std::panic::resume_unwind(payload);
            }
        }
    }

    // ---- type table (the "metadata" cost of Figure 6) ----

    fn type_lookup_or_insert(&mut self, name: &str, slots_are_refs: bool) -> crate::Result<u64> {
        self.timed(Phase::Metadata, |s| {
            let top = s.dev.read_u64(meta::TYPE_TOP) as usize;
            let mut pos = TYPE_OFF;
            while pos < top {
                let len = s.dev.read_u64(pos) as usize;
                let mut buf = vec![0u8; len];
                s.dev.read_bytes(pos + 16, &mut buf);
                if buf == name.as_bytes() {
                    return Ok(pos as u64);
                }
                pos += 16 + len.next_multiple_of(8);
            }
            let rec_len = 16 + name.len().next_multiple_of(8);
            if pos + rec_len > TYPE_OFF + TYPE_BYTES {
                return Err(PcjError::TypeTableFull);
            }
            s.dev.write_u64(pos, name.len() as u64);
            s.dev.write_u64(pos + 8, slots_are_refs as u64);
            s.dev.write_bytes(pos + 16, name.as_bytes());
            s.dev.persist(pos, rec_len);
            s.dev.write_u64(meta::TYPE_TOP, (pos + rec_len) as u64);
            s.dev.persist(meta::TYPE_TOP, 8);
            Ok(pos as u64)
        })
    }

    /// Reads back an object's type name.
    pub fn type_name(&self, obj: PcjRef) -> String {
        let ty = self.dev.read_u64(obj.0 as usize + 16) as usize;
        let len = self.dev.read_u64(ty) as usize;
        let mut buf = vec![0u8; len];
        self.dev.read_bytes(ty + 16, &mut buf);
        String::from_utf8_lossy(&buf).into_owned()
    }

    fn type_slots_are_refs(&self, obj: PcjRef) -> bool {
        let ty = self.dev.read_u64(obj.0 as usize + 16) as usize;
        self.dev.read_u64(ty + 8) != 0
    }

    // ---- allocation (first-fit free list, then bump) ----

    fn alloc_block(&mut self, payload_words: usize) -> crate::Result<usize> {
        self.timed(Phase::Allocation, |s| {
            let need = HEADER_WORDS + payload_words;
            // Walk the free list first-fit (exact-or-larger, no splitting).
            let mut prev = 0usize;
            let mut cur = s.dev.read_u64(meta::FREELIST) as usize;
            while cur != 0 {
                let size = s.dev.read_u64(cur) as usize;
                if size >= payload_words && size <= payload_words * 2 + 8 {
                    let next = s.dev.read_u64(cur + 8);
                    if prev == 0 {
                        s.dev.write_u64(meta::FREELIST, next);
                        s.dev.persist(meta::FREELIST, 8);
                    } else {
                        s.dev.write_u64(prev + 8, next);
                        s.dev.persist(prev + 8, 8);
                    }
                    s.dev.write_u64(cur, size as u64);
                    s.dev.persist(cur, 8); // the bump path persists its size word too
                    return Ok(cur);
                }
                prev = cur;
                cur = s.dev.read_u64(cur + 8) as usize;
            }
            let top = s.dev.read_u64(meta::ALLOC_TOP) as usize;
            if top + need * 8 > s.dev.size() {
                return Err(PcjError::OutOfMemory);
            }
            s.dev.write_u64(meta::ALLOC_TOP, (top + need * 8) as u64);
            s.dev.persist(meta::ALLOC_TOP, 8);
            s.dev.write_u64(top, payload_words as u64);
            s.dev.persist(top, 8);
            Ok(top)
        })
    }

    // ---- refcount GC (the "GC" cost of Figure 6) ----

    fn write_rc(&mut self, obj: usize, rc: u64) -> crate::Result<()> {
        self.logged_write(obj + 8, rc)
    }

    pub(crate) fn inc_rc(&mut self, obj: PcjRef) -> crate::Result<()> {
        if obj.is_null() {
            return Ok(());
        }
        self.timed(Phase::Gc, |s| {
            let rc = s.dev.read_u64(obj.0 as usize + 8);
            s.write_rc(obj.0 as usize, rc + 1)
        })
    }

    pub(crate) fn dec_rc(&mut self, obj: PcjRef) -> crate::Result<()> {
        if obj.is_null() {
            return Ok(());
        }
        self.timed(Phase::Gc, |s| s.dec_rc_inner(obj.0 as usize))
    }

    fn dec_rc_inner(&mut self, obj: usize) -> crate::Result<()> {
        let mut stack = vec![obj];
        while let Some(o) = stack.pop() {
            let rc = self.dev.read_u64(o + 8);
            let rc = rc.saturating_sub(1);
            self.write_rc(o, rc)?;
            if rc == 0 {
                // Drop children, then thread the block onto the free list.
                if self.type_slots_are_refs(PcjRef(o as u64)) {
                    let words = self.dev.read_u64(o) as usize;
                    for i in 0..words {
                        let child = self.dev.read_u64(o + (HEADER_WORDS + i) * 8);
                        if child != 0 {
                            stack.push(child as usize);
                        }
                    }
                }
                let head = self.dev.read_u64(meta::FREELIST);
                self.logged_write(o + 8, head)?; // next-free pointer reuses the rc slot
                self.logged_write(meta::FREELIST, o as u64)?;
            }
        }
        Ok(())
    }

    /// Current refcount (tests).
    pub fn refcount(&self, obj: PcjRef) -> u64 {
        self.dev.read_u64(obj.0 as usize + 8)
    }

    // ---- object API ----

    /// Creates an off-heap object: allocation + type memorization +
    /// refcount initialization + zeroed payload, all under a transaction.
    ///
    /// # Errors
    ///
    /// Space errors from any area.
    pub fn create(
        &mut self,
        type_name: &str,
        payload_words: usize,
        slots_are_refs: bool,
    ) -> crate::Result<PcjRef> {
        self.txn_begin();
        let result = (|| {
            let block = self.alloc_block(payload_words)?;
            let ty = self.type_lookup_or_insert(type_name, slots_are_refs)?;
            self.timed(Phase::Metadata, |s| s.logged_write(block + 16, ty))?;
            self.timed(Phase::Gc, |s| s.write_rc(block, 1))?;
            self.timed(Phase::Data, |s| {
                s.dev.fill(block + HEADER_WORDS * 8, payload_words * 8, 0);
                s.dev.persist(block + HEADER_WORDS * 8, payload_words * 8);
                Ok(())
            })?;
            Ok(PcjRef(block as u64))
        })();
        self.txn_commit();
        result
    }

    /// Creates an off-heap object from a declared [`Schema`] — the PCJ
    /// face of the workspace's typed object API. The schema's class name
    /// becomes the memorized type, and its field count sizes the payload.
    ///
    /// PCJ's object model is *homogeneous*: one per-type flag says
    /// whether every slot is a reference (traced by the refcount GC) or
    /// every slot is a primitive. A schema mixing the two — or using
    /// field types PCJ has no representation for, like `str` — is
    /// rejected with a real error; that representational gap is part of
    /// what the paper's PJH-vs-PCJ comparison measures.
    ///
    /// # Errors
    ///
    /// [`PcjError::Schema`] for unrepresentable schemas; space errors
    /// from any area.
    pub fn create_from_schema(&mut self, schema: &Schema) -> crate::Result<PcjRef> {
        let refs = schema
            .fields()
            .iter()
            .filter(|f| f.ty.kind() == FieldKind::Reference)
            .count();
        if refs != 0 && refs != schema.len() {
            return Err(PcjError::Schema {
                detail: format!(
                    "class {} mixes {} reference and {} primitive fields; PCJ slots are \
                     homogeneous per type",
                    schema.name(),
                    refs,
                    schema.len() - refs
                ),
            });
        }
        if let Some(f) = schema.fields().iter().find(|f| {
            matches!(
                f.ty,
                FieldType::Str | FieldType::Array | FieldType::RefArray { .. }
            )
        }) {
            return Err(PcjError::Schema {
                detail: format!(
                    "field {:?} of class {} is declared {}, which PCJ objects cannot hold",
                    f.name,
                    schema.name(),
                    f.ty
                ),
            });
        }
        self.create(schema.name(), schema.len(), refs != 0)
    }

    /// Resolves `name` against `schema` and reads that payload slot.
    ///
    /// # Errors
    ///
    /// [`PcjError::Schema`] for unknown field names.
    pub fn get_field(&mut self, schema: &Schema, obj: PcjRef, name: &str) -> crate::Result<u64> {
        let (index, _) = self.resolve_field(schema, name)?;
        Ok(self.get_word(obj, index))
    }

    /// Resolves `name` against `schema` and writes that payload slot
    /// (logged, like every PCJ store).
    ///
    /// # Errors
    ///
    /// [`PcjError::Schema`] for unknown field names; log errors.
    pub fn set_field(
        &mut self,
        schema: &Schema,
        obj: PcjRef,
        name: &str,
        value: u64,
    ) -> crate::Result<()> {
        let (index, ty) = self.resolve_field(schema, name)?;
        if ty.kind() == FieldKind::Reference {
            self.set_ref(obj, index, PcjRef::from_raw(value))
        } else {
            self.set_word(obj, index, value)
        }
    }

    fn resolve_field<'s>(
        &self,
        schema: &'s Schema,
        name: &str,
    ) -> crate::Result<(usize, &'s FieldType)> {
        schema.field(name).ok_or_else(|| PcjError::Schema {
            detail: format!("class {} has no field named {name:?}", schema.name()),
        })
    }

    /// Payload word count.
    pub fn payload_words(&self, obj: PcjRef) -> usize {
        self.dev.read_u64(obj.0 as usize) as usize
    }

    /// Reads payload word `i` (under the transaction lock, like PCJ's
    /// accessor methods).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    pub fn get_word(&mut self, obj: PcjRef, i: usize) -> u64 {
        let words = self.payload_words(obj);
        assert!(i < words, "payload index {i} out of range ({words})");
        self.txn_begin();
        let v = self.timed(Phase::Data, |s| {
            s.dev.read_u64(obj.0 as usize + (HEADER_WORDS + i) * 8)
        });
        self.txn_commit();
        v
    }

    /// Transactionally writes payload word `i` (primitive slot).
    ///
    /// # Errors
    ///
    /// Log overflow.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    pub fn set_word(&mut self, obj: PcjRef, i: usize, value: u64) -> crate::Result<()> {
        let words = self.payload_words(obj);
        assert!(i < words, "payload index {i} out of range ({words})");
        self.txn_begin();
        let r = self.timed(Phase::Data, |s| {
            s.logged_write(obj.0 as usize + (HEADER_WORDS + i) * 8, value)
        });
        self.txn_commit();
        r
    }

    /// Transactionally stores a reference into payload slot `i`,
    /// maintaining refcounts on both the old and new targets.
    ///
    /// # Errors
    ///
    /// Log overflow.
    pub fn set_ref(&mut self, obj: PcjRef, i: usize, value: PcjRef) -> crate::Result<()> {
        let words = self.payload_words(obj);
        assert!(i < words, "payload index {i} out of range ({words})");
        self.txn_begin();
        let result = (|| {
            let slot = obj.0 as usize + (HEADER_WORDS + i) * 8;
            let old = PcjRef(self.dev.read_u64(slot));
            self.inc_rc(value)?;
            self.timed(Phase::Data, |s| s.logged_write(slot, value.to_raw()))?;
            self.dec_rc(old)?;
            Ok(())
        })();
        self.txn_commit();
        result
    }

    /// Reads payload slot `i` as a reference.
    pub fn get_ref(&mut self, obj: PcjRef, i: usize) -> PcjRef {
        PcjRef::from_raw(self.get_word(obj, i))
    }

    /// Publishes the store's root object (PCJ's ObjectDirectory, reduced
    /// to a single slot).
    ///
    /// # Errors
    ///
    /// Log overflow.
    pub fn set_root(&mut self, obj: PcjRef) -> crate::Result<()> {
        self.txn_begin();
        let result = (|| {
            let old = PcjRef(self.dev.read_u64(meta::ROOT));
            self.inc_rc(obj)?;
            self.logged_write(meta::ROOT, obj.to_raw())?;
            self.dec_rc(old)?;
            Ok(())
        })();
        self.txn_commit();
        result
    }

    /// Fetches the root object.
    pub fn root(&self) -> PcjRef {
        PcjRef(self.dev.read_u64(meta::ROOT))
    }

    /// Bytes currently allocated past the data-area base.
    pub fn allocated_bytes(&self) -> usize {
        self.dev.read_u64(meta::ALLOC_TOP) as usize - DATA_OFF
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use espresso_nvm::NvmConfig;

    fn store() -> (NvmDevice, PcjStore) {
        let dev = NvmDevice::new(NvmConfig::with_size(4 << 20));
        let s = PcjStore::format(dev.clone()).unwrap();
        (dev, s)
    }

    #[test]
    fn create_and_word_roundtrip() {
        let (_dev, mut s) = store();
        let o = s.create("PersistentLong", 1, false).unwrap();
        s.set_word(o, 0, 42).unwrap();
        assert_eq!(s.get_word(o, 0), 42);
        assert_eq!(s.type_name(o), "PersistentLong");
        assert_eq!(s.refcount(o), 1);
    }

    #[test]
    fn schema_create_and_named_fields() {
        let (_dev, mut s) = store();
        let point = Schema::builder("Point")
            .u64_field("x")
            .u64_field("y")
            .build();
        let o = s.create_from_schema(&point).unwrap();
        assert_eq!(s.type_name(o), "Point");
        assert_eq!(s.payload_words(o), 2);
        s.set_field(&point, o, "y", 9).unwrap();
        assert_eq!(s.get_field(&point, o, "y").unwrap(), 9);
        assert_eq!(s.get_field(&point, o, "x").unwrap(), 0);
        assert!(matches!(
            s.get_field(&point, o, "z"),
            Err(PcjError::Schema { .. })
        ));
        // All-reference schemas map to traced slots.
        let pair = Schema::builder("Pair")
            .ref_named("left", "Point")
            .ref_named("right", "Point")
            .build();
        let p = s.create_from_schema(&pair).unwrap();
        s.set_field(&pair, p, "left", o.to_raw()).unwrap();
        assert_eq!(s.refcount(o), 2, "named ref store bumped the refcount");
    }

    #[test]
    fn unrepresentable_schemas_are_rejected() {
        let (_dev, mut s) = store();
        let mixed = Schema::builder("Mixed")
            .u64_field("n")
            .ref_named("r", "Mixed")
            .build();
        assert!(matches!(
            s.create_from_schema(&mixed),
            Err(PcjError::Schema { .. })
        ));
        let stringy = Schema::builder("S").str_field("s").build();
        assert!(matches!(
            s.create_from_schema(&stringy),
            Err(PcjError::Schema { .. })
        ));
        let ref_array = Schema::builder("R").ref_array_named("a", "Y").build();
        assert!(matches!(
            s.create_from_schema(&ref_array),
            Err(PcjError::Schema { .. })
        ));
    }

    #[test]
    fn type_table_is_shared_across_objects() {
        let (dev, mut s) = store();
        let a = s.create("T", 1, false).unwrap();
        let top_after_one = dev.read_u64(meta::TYPE_TOP);
        let b = s.create("T", 1, false).unwrap();
        assert_eq!(
            dev.read_u64(meta::TYPE_TOP),
            top_after_one,
            "no duplicate record"
        );
        assert_eq!(s.type_name(a), s.type_name(b));
    }

    #[test]
    fn refcount_frees_at_zero_and_reuses_block() {
        let (_dev, mut s) = store();
        let container = s.create("Box", 1, true).unwrap();
        let child = s.create("PersistentLong", 1, false).unwrap();
        s.set_ref(container, 0, child).unwrap();
        assert_eq!(s.refcount(child), 2);
        s.set_ref(container, 0, PcjRef::NULL).unwrap();
        assert_eq!(s.refcount(child), 1);
        // Dropping the creation reference frees the block...
        s.dec_rc(child).unwrap();
        let bytes = s.allocated_bytes();
        // ...which the next same-size allocation reuses.
        let again = s.create("PersistentLong", 1, false).unwrap();
        assert_eq!(s.allocated_bytes(), bytes, "free-list reuse");
        assert_eq!(again, child);
    }

    #[test]
    fn recursive_free_cascades() {
        let (_dev, mut s) = store();
        let parent = s.create("Pair", 2, true).unwrap();
        let a = s.create("PersistentLong", 1, false).unwrap();
        let b = s.create("PersistentLong", 1, false).unwrap();
        s.set_ref(parent, 0, a).unwrap();
        s.set_ref(parent, 1, b).unwrap();
        // Drop creation refs: children now owned by parent only.
        s.dec_rc(a).unwrap();
        s.dec_rc(b).unwrap();
        assert_eq!(s.refcount(a), 1);
        // Freeing the parent cascades: both child blocks land on the free
        // list (their rc slots become next-free pointers), so the next two
        // same-size allocations reuse them.
        s.dec_rc(parent).unwrap();
        let x = s.create("PersistentLong", 1, false).unwrap();
        let y = s.create("PersistentLong", 1, false).unwrap();
        let mut reused = [x, y];
        let mut freed = [a, b];
        reused.sort_by_key(|r| r.to_raw());
        freed.sort_by_key(|r| r.to_raw());
        assert_eq!(reused, freed);
    }

    #[test]
    fn torn_transaction_rolls_back_on_attach() {
        let (dev, mut s) = store();
        let o = s.create("T", 1, false).unwrap();
        s.set_root(o).unwrap();
        s.set_word(o, 0, 5).unwrap();
        // Tear the next write: let the stage and log-entry flushes land but
        // crash before the data flush (stage = 1st, entry+terminator = 2nd,
        // data = 3rd).
        dev.schedule_crash_after_line_flushes(2);
        let _ = s.set_word(o, 0, 99);
        dev.recover();
        let s2 = PcjStore::attach(dev).unwrap();
        let root = s2.root();
        assert_eq!(s2.device().read_u64(root.0 as usize + HEADER_WORDS * 8), 5);
    }

    #[test]
    fn logged_store_costs_one_metadata_flush_per_entry() {
        let (dev, mut s) = store();
        let o = s.create("T", 2, false).unwrap();
        let f0 = dev.stats().line_flushes;
        s.set_word(o, 0, 1).unwrap();
        // stage + (entry + terminator, one line) + data + log invalidate +
        // stage reset — no per-entry count flush.
        assert_eq!(dev.stats().line_flushes - f0, 5);
    }

    #[test]
    fn crash_sweep_over_logged_store_is_atomic() {
        let (dev, mut s) = store();
        let o = s.create("T", 1, false).unwrap();
        s.set_root(o).unwrap();
        s.set_word(o, 0, 5).unwrap();
        let base = dev.snapshot_persisted();
        let f0 = dev.stats().line_flushes;
        s.set_word(o, 0, 99).unwrap();
        let per_op = dev.stats().line_flushes - f0;
        for at in 0..=per_op {
            let trial = NvmDevice::new(NvmConfig::with_size(dev.size()));
            trial.write_bytes(0, &base);
            trial.persist(0, base.len());
            let mut st = PcjStore::attach(trial.clone()).unwrap();
            let root = st.root();
            trial.schedule_crash_after_line_flushes(at);
            let _ = st.set_word(root, 0, 99);
            trial.recover();
            let s2 = PcjStore::attach(trial).unwrap();
            let v = s2.device().read_u64(root.0 as usize + HEADER_WORDS * 8);
            assert!(
                v == 5 || v == 99,
                "crash after {at}/{per_op} flushes left torn value {v}"
            );
        }
    }

    #[test]
    fn committed_state_survives_crash() {
        let (dev, mut s) = store();
        let o = s.create("T", 2, false).unwrap();
        s.set_word(o, 0, 7).unwrap();
        s.set_word(o, 1, 8).unwrap();
        s.set_root(o).unwrap();
        dev.crash();
        let mut s2 = PcjStore::attach(dev).unwrap();
        let root = s2.root();
        assert_eq!(s2.get_word(root, 0), 7);
        assert_eq!(s2.get_word(root, 1), 8);
    }

    #[test]
    fn timers_attribute_all_phases_on_create() {
        let (_dev, mut s) = store();
        for i in 0..200 {
            let o = s.create("PersistentLong", 1, false).unwrap();
            s.set_word(o, 0, i).unwrap();
        }
        let b = s.timers();
        for phase in [
            Phase::Data,
            Phase::Allocation,
            Phase::Metadata,
            Phase::Gc,
            Phase::Transaction,
        ] {
            assert!(
                b.get(phase) > std::time::Duration::ZERO,
                "{phase} never timed"
            );
        }
    }

    #[test]
    fn scoped_transact_batches_ops_under_one_stage() {
        let (dev, mut s) = store();
        let o = s.create("T", 2, false).unwrap();
        s.set_word(o, 0, 1).unwrap();
        let f0 = dev.stats().line_flushes;
        s.transact(|s| {
            s.set_word(o, 0, 2)?;
            s.set_word(o, 1, 3)?;
            Ok(())
        })
        .unwrap();
        let batched = dev.stats().line_flushes - f0;
        // One stage set + 2×(record + data) + invalidate + stage reset = 7,
        // versus 2 standalone ops at 5 flushes each.
        assert_eq!(batched, 7);
        assert_eq!(s.get_word(o, 0), 2);
        assert_eq!(s.get_word(o, 1), 3);
    }

    #[test]
    fn nested_transact_error_spares_the_outer_scope() {
        let (dev, mut s) = store();
        let o = s.create("T", 2, false).unwrap();
        s.set_word(o, 0, 1).unwrap();
        s.set_word(o, 1, 2).unwrap();
        let out: crate::Result<()> = s.transact(|s| {
            s.set_word(o, 0, 10)?; // outer store
            let inner: crate::Result<()> = s.transact(|s| {
                s.set_word(o, 1, 20)?; // inner store
                Err(PcjError::LogOverflow)
            });
            assert!(inner.is_err());
            Ok(()) // outer recovers from the inner failure
        });
        assert!(out.is_ok());
        assert_eq!(s.get_word(o, 0), 10, "outer store committed");
        assert_eq!(s.get_word(o, 1), 2, "inner store rolled back");
        assert_eq!(dev.read_u64(meta::TX_STAGE), 0);
    }

    #[test]
    fn scoped_transact_survives_a_panicking_closure() {
        let (dev, mut s) = store();
        let o = s.create("T", 1, false).unwrap();
        s.set_word(o, 0, 5).unwrap();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _: crate::Result<()> = s.transact(|s| {
                s.set_word(o, 0, 99)?;
                panic!("mid-transaction");
            });
        }));
        assert!(caught.is_err());
        assert_eq!(s.get_word(o, 0), 5, "panic rolled the scope back");
        assert_eq!(dev.read_u64(meta::TX_STAGE), 0, "stage word reset");
        // The store still runs standalone ops with the normal flush cost.
        let f0 = dev.stats().line_flushes;
        s.set_word(o, 0, 6).unwrap();
        assert_eq!(dev.stats().line_flushes - f0, 5);
        assert_eq!(s.get_word(o, 0), 6);
    }

    #[test]
    fn scoped_transact_rolls_back_on_error() {
        let (_dev, mut s) = store();
        let o = s.create("T", 2, false).unwrap();
        s.set_word(o, 0, 5).unwrap();
        let out: crate::Result<()> = s.transact(|s| {
            s.set_word(o, 0, 99)?;
            s.set_word(o, 1, 100)?;
            Err(PcjError::LogOverflow)
        });
        assert!(out.is_err());
        assert_eq!(s.get_word(o, 0), 5, "error rolled the scope back");
        assert_eq!(s.get_word(o, 1), 0);
    }

    #[test]
    fn attach_rejects_blank_device() {
        let dev = NvmDevice::new(NvmConfig::with_size(1 << 20));
        assert!(matches!(PcjStore::attach(dev), Err(PcjError::NotAStore)));
    }

    #[test]
    fn out_of_memory_reported() {
        let dev = NvmDevice::new(NvmConfig::with_size(DATA_OFF + 2048));
        let mut s = PcjStore::format(dev).unwrap();
        let mut last = Ok(PcjRef::NULL);
        for _ in 0..1000 {
            last = s.create("T", 8, false);
            if last.is_err() {
                break;
            }
        }
        assert!(matches!(last, Err(PcjError::OutOfMemory)));
    }
}
