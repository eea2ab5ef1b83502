//! The five [`Backend`] adapters, one per persistence layer, plus the
//! [`make_backend`] factory the CLI and tests build from.
//!
//! Each adapter maps the shared entry model (see [`crate::backend`])
//! onto its layer's native idiom:
//!
//! * [`RawBackend`] — word-level `Pjh` ops: entries are two-reference
//!   instances (`data`, `fields`) built with
//!   `alloc_instance`/`set_field_ref`, values are `Pjh::alloc_bytes`
//!   arrays, durability at `Commit` epochs. One adapter serves two
//!   kinds: [`BackendKind::Raw`] on one managed heap, and
//!   [`BackendKind::Sharded`] routed across a [`ShardedHeap`] with
//!   fan-out commits and per-shard crash recovery.
//! * [`TypedBackend`] — the same heap driven through the typed-object
//!   layer (`PObject` schema, `PRef`, undo-logged `txn`), a faithful
//!   single-shard port of the server's `apply_ops` data path.
//! * [`MinidbBackend`] — one `kv` table in the WAL-durable relational
//!   engine; every statement is durable before it returns.
//! * [`ServerBackend`] — a real `espresso-server` on loopback TCP,
//!   driven through the blocking protocol client.
//!
//! The PJH-backed adapters own a unique on-disk heap directory (removed
//! on drop) so a crash can be simulated honestly: resume the flush
//! pipeline, abort whatever it queued, drop the manager, and reopen from
//! the image files — exactly the state a real process would find after
//! `kill -9`.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use espresso_core::{
    HeapHandle, HeapManager, HeapStats, LoadOptions, Pjh, PjhConfig, PjhError, ShardedHeap,
};
use espresso_minidb::{ColType, Database, Value};
use espresso_nvm::{NvmConfig, NvmDevice};
use espresso_object::{ArrFld, FieldDesc, KlassId, PArr, PObject, PRef, Ref, Schema};
use espresso_server::client::Client;
use espresso_server::protocol::TxnOp;
use espresso_server::server::{Server, ServerConfig, ServerHandle};

use crate::backend::{Backend, BackendKind, Durability};
use crate::trace::{key_name, TxnPart};
use crate::{WorkloadError, NUM_FIELDS};

/// Heap bytes for the single-heap adapters.
const HEAP_BYTES: usize = 32 << 20;
/// Shards and per-shard bytes for the sharded and server adapters.
const SHARDS: usize = 4;
const SHARD_BYTES: usize = 16 << 20;
/// Heap name inside each adapter's private directory.
const HEAP_NAME: &str = "wl";

fn pjh_err(e: PjhError) -> WorkloadError {
    WorkloadError::Backend(format!("pjh: {e}"))
}

/// Name-table capacity: every key is a root, so size for the keyspace
/// with the same headroom the server defaults carry.
fn table_capacity(key_space: u32) -> usize {
    (8 << 10).max(4 * key_space as usize)
}

fn heap_config(key_space: u32) -> PjhConfig {
    PjhConfig {
        name_table_capacity: table_capacity(key_space),
        ..PjhConfig::default()
    }
}

/// A fresh directory under the system temp root; adapters remove it on
/// drop. Uniqueness comes from pid + a process-wide counter so parallel
/// tests never collide.
fn unique_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "espresso-workload-{tag}-{}-{n}",
        std::process::id()
    ))
}

// ---- raw word-level ops ----

/// The two reference slots of a raw entry instance.
const F_DATA: usize = 0;
const F_FIELDS: usize = 1;

/// Raw entry class name (layout-validated against the image on reopen).
const RAW_ENTRY_CLASS: &str = "WorkloadRawEntry";

/// The key's entry, created (with a zeroed fields array) and published
/// if absent.
fn raw_entry(h: &mut Pjh, kid_entry: KlassId, name: &str) -> Result<Ref, PjhError> {
    if let Some(e) = h.get_root(name) {
        return Ok(e);
    }
    let e = h.alloc_instance(kid_entry)?;
    // Freed regions are zeroed before reuse, so a fresh array reads 0 —
    // the field-default contract the digest depends on.
    let fields = h.alloc_arr(NUM_FIELDS)?;
    h.set_field_ref(e, F_FIELDS, fields.raw())?;
    h.flush_object(e);
    h.set_root(name, e)?;
    Ok(e)
}

/// Generic range scan for the embedded adapters: probes every key index
/// through the backend's own `get` (so the valueless-entry rule falls out
/// of `get`'s contract), filters by lexicographic name bounds, sorts, and
/// truncates. O(key_space) per scan — scenarios are CI-scale by
/// construction ([`crate::scenario::MAX_KEY_SPACE`]), and the point of
/// these adapters is semantic ground truth, not scan throughput; the
/// server adapter is the one that exercises the real index path.
fn probe_scan<B: Backend + ?Sized>(
    backend: &mut B,
    key_space: u32,
    start: &str,
    end: &str,
    limit: u32,
) -> Result<Vec<(String, Vec<u8>)>, WorkloadError> {
    let mut items = Vec::new();
    for key in 0..key_space {
        let name = key_name(key);
        if name.as_str() < start || (!end.is_empty() && name.as_str() >= end) {
            continue;
        }
        if let Some(value) = backend.get(key)? {
            items.push((name, value));
        }
    }
    items.sort();
    items.truncate(limit as usize);
    Ok(items)
}

// ---- raw backend ----

/// Where the raw adapter's entries live: one managed heap, or a
/// [`ShardedHeap`] that routes each key to its home shard.
enum Store {
    One(HeapHandle),
    Sharded(ShardedHeap),
}

impl Store {
    fn num_shards(&self) -> usize {
        match self {
            Store::One(_) => 1,
            Store::Sharded(heap) => heap.num_shards(),
        }
    }

    fn handle(&self, shard: usize) -> &HeapHandle {
        match self {
            Store::One(handle) => handle,
            Store::Sharded(heap) => heap.handle(shard),
        }
    }

    fn shard_of(&self, name: &str) -> usize {
        match self {
            Store::One(_) => 0,
            Store::Sharded(heap) => heap.shard_of(name),
        }
    }

    fn handles(&self) -> impl Iterator<Item = &HeapHandle> {
        (0..self.num_shards()).map(|i| self.handle(i))
    }
}

/// Word-level `Pjh` adapter over a `Store`: [`BackendKind::Raw`] on one
/// managed heap, [`BackendKind::Sharded`] across a [`ShardedHeap`], where
/// commits fan out to every shard and durability is the all-shards
/// barrier.
pub struct RawBackend {
    dir: PathBuf,
    key_space: u32,
    mgr: Option<HeapManager>,
    store: Option<Store>,
    /// The entry class's id in each shard (ids may differ per shard).
    kid_entry: Vec<KlassId>,
}

impl RawBackend {
    /// Creates a fresh store — a [`ShardedHeap`] if `sharded`, else one
    /// heap — in a private directory.
    ///
    /// # Errors
    ///
    /// Heap creation errors.
    pub fn new(key_space: u32, sharded: bool) -> Result<RawBackend, WorkloadError> {
        let dir = unique_dir(if sharded { "sharded" } else { "raw" });
        let mgr = HeapManager::open(&dir).map_err(pjh_err)?;
        let config = heap_config(key_space);
        let store = if sharded {
            ShardedHeap::create(&mgr, HEAP_NAME, SHARDS, SHARD_BYTES, config).map(Store::Sharded)
        } else {
            mgr.open_or_create(HEAP_NAME, HEAP_BYTES, config)
                .map(Store::One)
        }
        .map_err(pjh_err)?;
        let mut backend = RawBackend {
            dir,
            key_space,
            mgr: Some(mgr),
            store: None,
            kid_entry: Vec::new(),
        };
        backend.attach(store)?;
        Ok(backend)
    }

    /// Registers the entry class on every shard and adopts the store.
    fn attach(&mut self, store: Store) -> Result<(), WorkloadError> {
        self.kid_entry = store
            .handles()
            .map(|handle| {
                handle.with_mut(|h| {
                    h.register_instance(
                        RAW_ENTRY_CLASS,
                        vec![FieldDesc::reference("data"), FieldDesc::reference("fields")],
                    )
                })
            })
            .collect::<Result<_, _>>()
            .map_err(pjh_err)?;
        self.store = Some(store);
        Ok(())
    }

    fn store(&self) -> &Store {
        self.store.as_ref().expect("backend is open")
    }

    /// The handle and entry class of `name`'s home shard.
    fn route(&self, name: &str) -> (&HeapHandle, KlassId) {
        let shard = self.store().shard_of(name);
        (self.store().handle(shard), self.kid_entry[shard])
    }
}

impl Backend for RawBackend {
    fn kind(&self) -> BackendKind {
        match self.store() {
            Store::One(_) => BackendKind::Raw,
            Store::Sharded(_) => BackendKind::Sharded,
        }
    }

    fn get(&mut self, key: u32) -> Result<Option<Vec<u8>>, WorkloadError> {
        let name = key_name(key);
        Ok(self.route(&name).0.with(|h| {
            let data = h.field_ref(h.get_root(&name)?, F_DATA);
            (!data.is_null()).then(|| h.read_bytes(data))
        }))
    }

    fn set(&mut self, key: u32, value: &[u8]) -> Result<(), WorkloadError> {
        let name = key_name(key);
        let (handle, kid_entry) = self.route(&name);
        handle
            .with_mut_retry(|h| {
                // Fresh and unreachable until linked, so a crash in
                // between leaves garbage, never a torn entry.
                let arr = h.alloc_bytes(value)?;
                let e = raw_entry(h, kid_entry, &name)?;
                h.set_field_ref(e, F_DATA, arr)?;
                h.flush_object(e);
                Ok(())
            })
            .map_err(pjh_err)
    }

    fn del(&mut self, key: u32) -> Result<bool, WorkloadError> {
        let name = key_name(key);
        Ok(self.route(&name).0.with_mut(|h| h.remove_root(&name)))
    }

    fn fget(&mut self, key: u32, index: u8) -> Result<Option<u64>, WorkloadError> {
        let name = key_name(key);
        Ok(self.route(&name).0.with(|h| {
            let fields = h.field_ref(h.get_root(&name)?, F_FIELDS);
            Some(h.array_get(fields, usize::from(index)))
        }))
    }

    fn fset(&mut self, key: u32, index: u8, value: u64) -> Result<(), WorkloadError> {
        let name = key_name(key);
        let (handle, kid_entry) = self.route(&name);
        handle
            .with_mut_retry(|h| {
                let e = raw_entry(h, kid_entry, &name)?;
                let fields = h.field_ref(e, F_FIELDS);
                h.array_set(fields, usize::from(index), value);
                h.flush_element(fields, usize::from(index));
                Ok(())
            })
            .map_err(pjh_err)
    }

    fn txn(&mut self, key: u32, parts: &[TxnPart]) -> Result<(), WorkloadError> {
        // Parts apply in order under one write-session lock each; replay
        // is single-threaded and commit epochs only seal between trace
        // ops, so sequential application is indistinguishable from staged
        // atomicity here (`Del` then `Set` leaves a fresh entry, `Set`
        // then `Del` leaves the key gone).
        for part in parts {
            match part {
                TxnPart::Set(value) => self.set(key, value)?,
                TxnPart::FSet(index, value) => self.fset(key, *index, *value)?,
                TxnPart::Del => {
                    self.del(key)?;
                }
            }
        }
        Ok(())
    }

    fn scan(
        &mut self,
        start: &str,
        end: &str,
        limit: u32,
    ) -> Result<Vec<(String, Vec<u8>)>, WorkloadError> {
        let key_space = self.key_space;
        probe_scan(self, key_space, start, end, limit)
    }

    fn commit(&mut self, wait: bool) -> Result<(), WorkloadError> {
        // Seal every shard before waiting on any: the image syncs run in
        // parallel on the shards' own flush pipelines.
        let tickets = self
            .store()
            .handles()
            .map(HeapHandle::commit)
            .collect::<Result<Vec<_>, _>>()
            .map_err(pjh_err)?;
        if wait {
            for ticket in tickets {
                ticket.wait().map_err(pjh_err)?;
            }
        }
        Ok(())
    }

    fn durability(&self) -> Durability {
        Durability::EpochCommit
    }

    fn heap_stats(&self) -> Option<String> {
        let mut total = HeapStats::default();
        for handle in self.store().handles() {
            total.merge(&handle.heap_stats());
        }
        Some(total.summary_line())
    }

    fn set_flush_paused(&mut self, paused: bool) -> Result<(), WorkloadError> {
        for handle in self.store().handles() {
            handle.set_flush_paused(paused);
        }
        Ok(())
    }

    fn crash_recover(&mut self) -> Result<(), WorkloadError> {
        let store = self.store.take().expect("backend is open");
        // Abort *before* resuming: once the pipeline wakes, it would
        // apply the queued epochs instead of losing them. Then resume so
        // the manager's drop drain cannot hang on a paused worker.
        for handle in store.handles() {
            handle.abort_pending_commits();
            handle.set_flush_paused(false);
        }
        let sharded = matches!(store, Store::Sharded(_));
        drop(store);
        self.mgr = None; // drop order: handles, then manager
        let mgr = HeapManager::open(&self.dir).map_err(pjh_err)?;
        let store = if sharded {
            ShardedHeap::open(&mgr, HEAP_NAME, LoadOptions::default()).map(Store::Sharded)
        } else {
            mgr.load(HEAP_NAME, LoadOptions::default()).map(Store::One)
        }
        .map_err(pjh_err)?;
        self.attach(store)?;
        self.mgr = Some(mgr);
        Ok(())
    }
}

impl Drop for RawBackend {
    fn drop(&mut self) {
        if let Some(store) = &self.store {
            for handle in store.handles() {
                handle.set_flush_paused(false);
            }
        }
        self.store = None;
        self.mgr = None;
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

// ---- typed backend ----

/// The typed entry class — same two-array shape as the server's
/// `EspressoKvEntry`, under this crate's own name so a workload heap is
/// never mistaken for a server heap.
struct WlEntry;

impl PObject for WlEntry {
    const CLASS_NAME: &'static str = "WorkloadKvEntry";
    fn schema() -> Schema {
        Schema::builder(Self::CLASS_NAME)
            .array_field("data")
            .array_field("fields")
            .build()
    }
}

/// Typed-session adapter: the server's data path on one unsharded heap.
pub struct TypedBackend {
    dir: PathBuf,
    key_space: u32,
    mgr: Option<HeapManager>,
    handle: Option<HeapHandle>,
    data_fld: ArrFld<WlEntry>,
    fields_fld: ArrFld<WlEntry>,
}

impl TypedBackend {
    /// Creates a fresh heap in a private directory.
    ///
    /// # Errors
    ///
    /// Heap creation / schema registration errors.
    pub fn new(key_space: u32) -> Result<TypedBackend, WorkloadError> {
        let dir = unique_dir("typed");
        let mgr = HeapManager::open(&dir).map_err(pjh_err)?;
        let handle = mgr
            .open_or_create(HEAP_NAME, HEAP_BYTES, heap_config(key_space))
            .map_err(pjh_err)?;
        let (data_fld, fields_fld) = Self::register(&handle)?;
        Ok(TypedBackend {
            dir,
            key_space,
            mgr: Some(mgr),
            handle: Some(handle),
            data_fld,
            fields_fld,
        })
    }

    fn register(handle: &HeapHandle) -> Result<(ArrFld<WlEntry>, ArrFld<WlEntry>), WorkloadError> {
        let class = handle.register::<WlEntry>().map_err(pjh_err)?;
        let data = class.arr_field("data").expect("declared field");
        let fields = class.arr_field("fields").expect("declared field");
        Ok((data, fields))
    }

    fn handle(&self) -> &HeapHandle {
        self.handle.as_ref().expect("backend is open")
    }
}

impl Backend for TypedBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Typed
    }

    fn get(&mut self, key: u32) -> Result<Option<Vec<u8>>, WorkloadError> {
        let name = key_name(key);
        let session = self.handle().read();
        let entry: Option<PRef<WlEntry>> = session.root::<WlEntry>(&name).map_err(pjh_err)?;
        let Some(entry) = entry else { return Ok(None) };
        let Some(data) = session.get_arr(entry, self.data_fld) else {
            return Ok(None);
        };
        Ok(Some(session.read_bytes(data.raw())))
    }

    fn set(&mut self, key: u32, value: &[u8]) -> Result<(), WorkloadError> {
        let name = key_name(key);
        let data_fld = self.data_fld;
        let fields_fld = self.fields_fld;
        self.handle()
            .with_mut_retry(|h| {
                // Filled unlogged outside the transaction: fresh and
                // unreachable, so no undo records however large the value.
                let arr = PArr::from_raw_unchecked(h.alloc_bytes(value)?);
                let (entry, fresh) = h.txn(|t| {
                    let (entry, fresh) = match t.root::<WlEntry>(&name)? {
                        Some(entry) => (entry, false),
                        None => {
                            let entry = t.alloc::<WlEntry>()?;
                            let fields = t.alloc_arr(NUM_FIELDS)?;
                            t.set_arr(entry, fields_fld, Some(fields))?;
                            (entry, true)
                        }
                    };
                    t.set_arr(entry, data_fld, Some(arr))?;
                    Ok((entry, fresh))
                })?;
                if fresh {
                    // Publish after the transaction commits: a crash between
                    // leaves unreachable garbage, never a torn entry.
                    h.set_root_typed(&name, entry)?;
                }
                Ok(())
            })
            .map_err(pjh_err)
    }

    fn del(&mut self, key: u32) -> Result<bool, WorkloadError> {
        Ok(self.handle().with_mut(|h| h.remove_root(&key_name(key))))
    }

    fn fget(&mut self, key: u32, index: u8) -> Result<Option<u64>, WorkloadError> {
        let name = key_name(key);
        let session = self.handle().read();
        let entry: Option<PRef<WlEntry>> = session.root::<WlEntry>(&name).map_err(pjh_err)?;
        let Some(entry) = entry else { return Ok(None) };
        let fields = session
            .get_arr(entry, self.fields_fld)
            .expect("entries always carry a fields array");
        Ok(Some(session.arr_get(fields, usize::from(index))))
    }

    fn fset(&mut self, key: u32, index: u8, value: u64) -> Result<(), WorkloadError> {
        let name = key_name(key);
        let fields_fld = self.fields_fld;
        self.handle()
            .with_mut_retry(|h| {
                let (entry, fresh) = h.txn(|t| {
                    let (entry, fresh) = match t.root::<WlEntry>(&name)? {
                        Some(entry) => (entry, false),
                        None => {
                            let entry = t.alloc::<WlEntry>()?;
                            let fields = t.alloc_arr(NUM_FIELDS)?;
                            t.set_arr(entry, fields_fld, Some(fields))?;
                            (entry, true)
                        }
                    };
                    let fields = t
                        .get_arr(entry, fields_fld)
                        .expect("entries always carry a fields array");
                    t.arr_set(fields, usize::from(index), value);
                    Ok((entry, fresh))
                })?;
                if fresh {
                    h.set_root_typed(&name, entry)?;
                }
                Ok(())
            })
            .map_err(pjh_err)
    }

    fn txn(&mut self, key: u32, parts: &[TxnPart]) -> Result<(), WorkloadError> {
        let name = key_name(key);
        let data_fld = self.data_fld;
        let fields_fld = self.fields_fld;
        self.handle()
            .with_mut_retry(|h| {
                // Value arrays are filled unlogged before the transaction;
                // the transaction links them — its undo-log cost is a few
                // words per part regardless of value sizes.
                let mut value_arrs: Vec<PArr> = Vec::new();
                for part in parts {
                    if let TxnPart::Set(value) = part {
                        value_arrs.push(PArr::from_raw_unchecked(h.alloc_bytes(value)?));
                    }
                }
                // The staged view of the single key this transaction owns:
                // `None` = untouched (root stands), `Some(None)` = staged
                // delete, `Some(Some(e))` = publish `e` after commit.
                let mut staged: Option<Option<PRef<WlEntry>>> = None;
                h.txn(|t| {
                    staged = None;
                    let mut next_arr = value_arrs.iter();
                    for part in parts {
                        if let TxnPart::Del = part {
                            staged = Some(None);
                            continue;
                        }
                        let current = match staged {
                            Some(view) => view,
                            None => t.root::<WlEntry>(&name)?,
                        };
                        let entry = match current {
                            Some(entry) => entry,
                            None => {
                                let entry = t.alloc::<WlEntry>()?;
                                let fields = t.alloc_arr(NUM_FIELDS)?;
                                t.set_arr(entry, fields_fld, Some(fields))?;
                                staged = Some(Some(entry));
                                entry
                            }
                        };
                        match part {
                            TxnPart::Set(_) => {
                                let arr = *next_arr.next().expect("one array per Set part");
                                t.set_arr(entry, data_fld, Some(arr))?;
                            }
                            TxnPart::FSet(index, value) => {
                                let fields = t
                                    .get_arr(entry, fields_fld)
                                    .expect("entries always carry a fields array");
                                t.arr_set(fields, usize::from(*index), *value);
                            }
                            TxnPart::Del => unreachable!("handled above"),
                        }
                    }
                    Ok(())
                })?;
                // Root changes after the commit, still under this write
                // session, so no epoch can seal between them.
                match staged {
                    Some(Some(entry)) => h.set_root_typed(&name, entry)?,
                    Some(None) => {
                        h.remove_root(&name);
                    }
                    None => {}
                }
                Ok(())
            })
            .map_err(pjh_err)
    }

    fn scan(
        &mut self,
        start: &str,
        end: &str,
        limit: u32,
    ) -> Result<Vec<(String, Vec<u8>)>, WorkloadError> {
        let key_space = self.key_space;
        probe_scan(self, key_space, start, end, limit)
    }

    fn commit(&mut self, wait: bool) -> Result<(), WorkloadError> {
        let ticket = self.handle().commit().map_err(pjh_err)?;
        if wait {
            ticket.wait().map_err(pjh_err)?;
        }
        Ok(())
    }

    fn durability(&self) -> Durability {
        Durability::EpochCommit
    }

    fn heap_stats(&self) -> Option<String> {
        Some(self.handle().heap_stats().summary_line())
    }

    fn set_flush_paused(&mut self, paused: bool) -> Result<(), WorkloadError> {
        self.handle().set_flush_paused(paused);
        Ok(())
    }

    fn crash_recover(&mut self) -> Result<(), WorkloadError> {
        let handle = self.handle.take().expect("backend is open");
        // Abort before resuming — see `RawBackend::crash_recover`.
        handle.abort_pending_commits();
        handle.set_flush_paused(false);
        drop(handle);
        self.mgr = None;
        let mgr = HeapManager::open(&self.dir).map_err(pjh_err)?;
        let handle = mgr
            .load(HEAP_NAME, LoadOptions::default())
            .map_err(pjh_err)?;
        let (data_fld, fields_fld) = Self::register(&handle)?;
        self.data_fld = data_fld;
        self.fields_fld = fields_fld;
        self.handle = Some(handle);
        self.mgr = Some(mgr);
        Ok(())
    }
}

impl Drop for TypedBackend {
    fn drop(&mut self) {
        if let Some(h) = &self.handle {
            h.set_flush_paused(false);
        }
        self.handle = None;
        self.mgr = None;
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

// ---- minidb backend ----

/// Bytes for the in-memory NVM device minidb runs on.
const MINIDB_BYTES: usize = 48 << 20;
const TABLE: &str = "kv";
/// Column indices in the `kv` table.
const COL_VALUE: usize = 1;
const COL_F0: usize = 2;

fn db_err(e: espresso_minidb::DbError) -> WorkloadError {
    WorkloadError::Backend(format!("minidb: {e}"))
}

/// One `kv` table in the WAL-durable engine: `k TEXT` primary key,
/// `v TEXT` (NULL = valueless entry), `f0..f7 INT` field slots. Every
/// statement is durable before it returns, so `Commit` ops are no-ops
/// and a crash preserves every executed op.
pub struct MinidbBackend {
    dev: NvmDevice,
    key_space: u32,
    db: Option<Database>,
    conn: Option<espresso_minidb::Connection>,
}

impl MinidbBackend {
    /// Creates a fresh database on an in-memory device.
    ///
    /// # Errors
    ///
    /// Engine creation errors.
    pub fn new(key_space: u32) -> Result<MinidbBackend, WorkloadError> {
        let dev = NvmDevice::new(NvmConfig::with_size(MINIDB_BYTES));
        let db = Database::create(dev.clone()).map_err(db_err)?;
        let mut conn = db.connect();
        let mut columns = vec![
            ("k".to_string(), ColType::Text),
            ("v".to_string(), ColType::Text),
        ];
        for i in 0..NUM_FIELDS {
            columns.push((format!("f{i}"), ColType::Int));
        }
        conn.create_table_direct(TABLE, columns, 0)
            .map_err(db_err)?;
        Ok(MinidbBackend {
            dev,
            key_space,
            db: Some(db),
            conn: Some(conn),
        })
    }

    fn conn(&mut self) -> &mut espresso_minidb::Connection {
        self.conn.as_mut().expect("backend is open")
    }

    fn key_value(key: u32) -> Value {
        Value::Str(key_name(key))
    }

    /// A fresh row: key, optional value, zeroed fields.
    fn fresh_row(key: u32, value: Option<&[u8]>) -> Result<Vec<Value>, WorkloadError> {
        let mut row = vec![Self::key_value(key), Self::value_cell(value)?];
        row.extend(std::iter::repeat_with(|| Value::Int(0)).take(NUM_FIELDS));
        Ok(row)
    }

    fn value_cell(value: Option<&[u8]>) -> Result<Value, WorkloadError> {
        match value {
            None => Ok(Value::Null),
            Some(bytes) => String::from_utf8(bytes.to_vec())
                .map(Value::Str)
                .map_err(|_| {
                    WorkloadError::Backend(
                        "minidb: values must be UTF-8 (trace generation emits [a-z0-9], \
                     so only hand-built traces can hit this)"
                            .into(),
                    )
                }),
        }
    }

    fn apply_part(&mut self, key: u32, part: &TxnPart) -> Result<(), WorkloadError> {
        match part {
            TxnPart::Set(value) => self.set(key, value),
            TxnPart::Del => self.del(key).map(|_| ()),
            TxnPart::FSet(index, value) => self.fset(key, *index, *value),
        }
    }
}

impl Backend for MinidbBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Minidb
    }

    fn get(&mut self, key: u32) -> Result<Option<Vec<u8>>, WorkloadError> {
        let row = self
            .conn()
            .find_row(TABLE, &Self::key_value(key))
            .map_err(db_err)?;
        Ok(match row {
            None => None,
            Some(row) => match &row[COL_VALUE] {
                Value::Str(s) => Some(s.clone().into_bytes()),
                _ => None,
            },
        })
    }

    fn set(&mut self, key: u32, value: &[u8]) -> Result<(), WorkloadError> {
        let cell = Self::value_cell(Some(value))?;
        let k = Self::key_value(key);
        let updated = self
            .conn()
            .update_fields(TABLE, &k, &[(COL_VALUE, cell)])
            .map_err(db_err)?;
        if updated == 0 {
            let row = Self::fresh_row(key, Some(value))?;
            self.conn().persist_row(TABLE, row).map_err(db_err)?;
        }
        Ok(())
    }

    fn del(&mut self, key: u32) -> Result<bool, WorkloadError> {
        let affected = self
            .conn()
            .delete_row(TABLE, &Self::key_value(key))
            .map_err(db_err)?;
        Ok(affected > 0)
    }

    fn fget(&mut self, key: u32, index: u8) -> Result<Option<u64>, WorkloadError> {
        let row = self
            .conn()
            .find_row(TABLE, &Self::key_value(key))
            .map_err(db_err)?;
        Ok(row.map(|row| match row[COL_F0 + usize::from(index)] {
            // Fields are u64 on the heap backends; the INT column stores
            // the same bits as i64, so the cast is lossless both ways.
            Value::Int(v) => v as u64,
            _ => 0,
        }))
    }

    fn fset(&mut self, key: u32, index: u8, value: u64) -> Result<(), WorkloadError> {
        let k = Self::key_value(key);
        let cell = (COL_F0 + usize::from(index), Value::Int(value as i64));
        let updated = self
            .conn()
            .update_fields(TABLE, &k, &[cell])
            .map_err(db_err)?;
        if updated == 0 {
            let mut row = Self::fresh_row(key, None)?;
            row[COL_F0 + usize::from(index)] = Value::Int(value as i64);
            self.conn().persist_row(TABLE, row).map_err(db_err)?;
        }
        Ok(())
    }

    fn txn(&mut self, key: u32, parts: &[TxnPart]) -> Result<(), WorkloadError> {
        self.conn().begin();
        for part in parts {
            if let Err(e) = self.apply_part(key, part) {
                self.conn().rollback();
                return Err(e);
            }
        }
        self.conn().commit().map_err(db_err)
    }

    fn scan(
        &mut self,
        start: &str,
        end: &str,
        limit: u32,
    ) -> Result<Vec<(String, Vec<u8>)>, WorkloadError> {
        let key_space = self.key_space;
        probe_scan(self, key_space, start, end, limit)
    }

    fn commit(&mut self, _wait: bool) -> Result<(), WorkloadError> {
        // Every statement already group-flushed its WAL record.
        Ok(())
    }

    fn durability(&self) -> Durability {
        Durability::PerOp
    }

    fn set_flush_paused(&mut self, _paused: bool) -> Result<(), WorkloadError> {
        // No background pipeline to pause: the WAL flush is synchronous,
        // so a pause window narrows nothing. Accepted (not an error) so
        // fault scenarios can still run here for crash parity.
        Ok(())
    }

    fn crash_recover(&mut self) -> Result<(), WorkloadError> {
        self.conn = None;
        self.db = None;
        self.dev.crash();
        self.dev.recover();
        let db = Database::open(self.dev.clone()).map_err(db_err)?;
        self.conn = Some(db.connect());
        self.db = Some(db);
        Ok(())
    }
}

// ---- server backend ----

fn proto_err(e: espresso_server::protocol::ProtocolError) -> WorkloadError {
    WorkloadError::Backend(format!("server: {e}"))
}

/// A live `espresso-server` on loopback TCP driven through the blocking
/// [`Client`]. Writes are acknowledged on durability (group commit), so
/// `Commit` ops are no-ops; faults are unsupported — the heap lives
/// behind the socket, and pausing its pipeline would only turn
/// acknowledged writes into `BUSY` refusals.
pub struct ServerBackend {
    handle: Option<ServerHandle>,
    client: Client,
}

impl ServerBackend {
    /// Starts an in-process server on a fresh port and connects.
    ///
    /// # Errors
    ///
    /// Server start / connect errors.
    pub fn new(key_space: u32) -> Result<ServerBackend, WorkloadError> {
        let handle = Server::start(ServerConfig {
            shards: SHARDS,
            shard_bytes: SHARD_BYTES,
            name_table_capacity: table_capacity(key_space),
            // Replay is one synchronous connection: no concurrency to
            // shed, so make admission effectively unbounded and give the
            // commit wait generous room under simulated NVM latency.
            max_pending: 1 << 20,
            commit_timeout: Duration::from_secs(30),
            ..ServerConfig::default()
        })
        .map_err(|e| WorkloadError::Backend(format!("server start: {e}")))?;
        let client = Client::connect(handle.addr()).map_err(WorkloadError::Io)?;
        Ok(ServerBackend {
            handle: Some(handle),
            client,
        })
    }
}

impl Backend for ServerBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Server
    }

    fn get(&mut self, key: u32) -> Result<Option<Vec<u8>>, WorkloadError> {
        self.client.get(&key_name(key)).map_err(proto_err)
    }

    fn set(&mut self, key: u32, value: &[u8]) -> Result<(), WorkloadError> {
        self.client.set(&key_name(key), value).map_err(proto_err)
    }

    fn del(&mut self, key: u32) -> Result<bool, WorkloadError> {
        self.client.del(&key_name(key)).map_err(proto_err)
    }

    fn fget(&mut self, key: u32, index: u8) -> Result<Option<u64>, WorkloadError> {
        self.client.fget(&key_name(key), index).map_err(proto_err)
    }

    fn fset(&mut self, key: u32, index: u8, value: u64) -> Result<(), WorkloadError> {
        self.client
            .fset(&key_name(key), index, value)
            .map_err(proto_err)
    }

    fn txn(&mut self, key: u32, parts: &[TxnPart]) -> Result<(), WorkloadError> {
        let name = key_name(key);
        let ops = parts
            .iter()
            .map(|part| match part {
                TxnPart::Set(value) => TxnOp::Set {
                    key: name.clone(),
                    value: value.clone(),
                },
                TxnPart::Del => TxnOp::Del { key: name.clone() },
                TxnPart::FSet(index, value) => TxnOp::FSet {
                    key: name.clone(),
                    index: *index,
                    value: *value,
                },
            })
            .collect();
        self.client.txn(ops).map_err(proto_err)
    }

    /// The one adapter whose scan rides the real access path: each
    /// shard's persistent secondary index answers a `SCAN` page stream
    /// (resuming past truncation with last-key + `"\0"`), and the pages
    /// merge client-side exactly as `docs/PROTOCOL.md` prescribes.
    fn scan(
        &mut self,
        start: &str,
        end: &str,
        limit: u32,
    ) -> Result<Vec<(String, Vec<u8>)>, WorkloadError> {
        let mut all: Vec<(String, Vec<u8>)> = Vec::new();
        for shard in 0..SHARDS as u16 {
            let mut cursor = start.to_string();
            let mut collected = 0u32;
            loop {
                let page = self
                    .client
                    .scan(shard, &cursor, end, limit)
                    .map_err(proto_err)?;
                collected += page.items.len() as u32;
                let last = page.items.last().map(|(k, _)| k.clone());
                all.extend(page.items);
                // Pages are ascending, so once this shard has yielded
                // `limit` entries, none of its later ones can displace an
                // already-collected entry from the merged cutoff.
                if !page.truncated || collected >= limit {
                    break;
                }
                match last {
                    // Resume just past the last key: append the smallest
                    // suffix that sorts strictly after it.
                    Some(mut k) => {
                        k.push('\0');
                        cursor = k;
                    }
                    None => break,
                }
            }
        }
        all.sort();
        all.truncate(limit as usize);
        Ok(all)
    }

    fn commit(&mut self, _wait: bool) -> Result<(), WorkloadError> {
        // Every write was already acknowledged durable by group commit.
        Ok(())
    }

    fn durability(&self) -> Durability {
        Durability::EpochCommit
    }

    fn supports_faults(&self) -> bool {
        false
    }

    fn set_flush_paused(&mut self, _paused: bool) -> Result<(), WorkloadError> {
        Err(WorkloadError::Unsupported(
            "the server backend cannot inject faults (its heap lives behind the socket)".into(),
        ))
    }

    fn crash_recover(&mut self) -> Result<(), WorkloadError> {
        Err(WorkloadError::Unsupported(
            "the server backend cannot inject faults (its heap lives behind the socket)".into(),
        ))
    }
}

impl Drop for ServerBackend {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            handle.stop_and_wait();
        }
    }
}

/// Builds a fresh, empty backend of the requested kind, sized for
/// `key_space` keys.
///
/// # Errors
///
/// Construction errors from the underlying layer.
pub fn make_backend(kind: BackendKind, key_space: u32) -> Result<Box<dyn Backend>, WorkloadError> {
    Ok(match kind {
        BackendKind::Raw => Box::new(RawBackend::new(key_space, false)?),
        BackendKind::Typed => Box::new(TypedBackend::new(key_space)?),
        BackendKind::Sharded => Box::new(RawBackend::new(key_space, true)?),
        BackendKind::Minidb => Box::new(MinidbBackend::new(key_space)?),
        BackendKind::Server => Box::new(ServerBackend::new(key_space)?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::state_digest;

    /// The entry-model contract, exercised against every embedded
    /// backend (the server adapter is covered by the matrix tests).
    fn contract(kind: BackendKind) {
        let mut b = make_backend(kind, 8).unwrap();
        assert_eq!(b.get(0).unwrap(), None);
        assert_eq!(b.fget(0, 0).unwrap(), None);
        b.set(0, b"hello").unwrap();
        assert_eq!(b.get(0).unwrap().as_deref(), Some(&b"hello"[..]));
        assert_eq!(b.fget(0, 3).unwrap(), Some(0), "fields default to zero");
        b.fset(0, 3, 99).unwrap();
        assert_eq!(b.fget(0, 3).unwrap(), Some(99));
        b.set(0, b"rewritten0").unwrap();
        assert_eq!(b.get(0).unwrap().as_deref(), Some(&b"rewritten0"[..]));
        assert_eq!(b.fget(0, 3).unwrap(), Some(99), "set keeps fields");
        // fset on an absent key makes a valueless entry.
        b.fset(1, 0, 7).unwrap();
        assert_eq!(b.get(1).unwrap(), None);
        assert_eq!(b.fget(1, 0).unwrap(), Some(7));
        assert!(b.del(0).unwrap());
        assert!(!b.del(0).unwrap());
        assert_eq!(b.get(0).unwrap(), None);
        assert_eq!(b.fget(0, 3).unwrap(), None, "del removes fields too");
        // Del-then-Set inside a txn leaves a fresh entry.
        b.fset(2, 1, 5).unwrap();
        b.txn(2, &[TxnPart::Del, TxnPart::Set(b"fresh".to_vec())])
            .unwrap();
        assert_eq!(b.get(2).unwrap().as_deref(), Some(&b"fresh"[..]));
        assert_eq!(b.fget(2, 1).unwrap(), Some(0), "old fields gone");
        // Set-then-Del leaves the key gone.
        b.txn(3, &[TxnPart::Set(b"doomed".to_vec()), TxnPart::Del])
            .unwrap();
        assert_eq!(b.fget(3, 0).unwrap(), None);
        b.commit(true).unwrap();
        scan_contract(b.as_mut());
    }

    /// Scan semantics on top of the state `contract` leaves behind:
    /// wk2 = "fresh" is the only *valued* entry (wk1 is a valueless
    /// fset-only entry and must be skipped). Then adds wk4..wk7 and
    /// checks ordering, bounds, limits, and inverted ranges.
    fn scan_contract(b: &mut dyn Backend) {
        assert_eq!(
            b.scan("", "", 100).unwrap(),
            vec![("wk2".to_string(), b"fresh".to_vec())],
            "full scan sees the valued entry and skips the valueless one"
        );
        for key in 4..8 {
            b.set(key, format!("v{key}").as_bytes()).unwrap();
        }
        b.commit(true).unwrap();
        let all = b.scan("", "", 100).unwrap();
        let names: Vec<&str> = all.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, ["wk2", "wk4", "wk5", "wk6", "wk7"]);
        // Half-open window: start inclusive, end exclusive.
        let window = b.scan("wk4", "wk6", 100).unwrap();
        let names: Vec<&str> = window.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, ["wk4", "wk5"]);
        assert_eq!(window[0].1, b"v4");
        // Limit truncates from the front of the order.
        let limited = b.scan("", "", 2).unwrap();
        let names: Vec<&str> = limited.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, ["wk2", "wk4"]);
        // An inverted range is empty, not an error.
        assert!(b.scan("wk6", "wk4", 100).unwrap().is_empty());
    }

    #[test]
    fn raw_contract() {
        contract(BackendKind::Raw);
    }

    #[test]
    fn typed_contract() {
        contract(BackendKind::Typed);
    }

    #[test]
    fn sharded_contract() {
        contract(BackendKind::Sharded);
    }

    #[test]
    fn minidb_contract() {
        contract(BackendKind::Minidb);
    }

    /// The server adapter's scan is the only one that exercises the real
    /// per-shard index path plus client-side merge, so it gets its own
    /// run of the same scan contract (the rest of the entry-model
    /// contract is covered for the server by the matrix tests).
    #[test]
    fn server_scan_merges_shard_pages() {
        let mut b = ServerBackend::new(64).unwrap();
        for key in 0..48 {
            b.set(key, format!("sv{key}").as_bytes()).unwrap();
        }
        // Keys hash across all 4 shards; the merged scan must interleave
        // them back into one lexicographic order.
        let all = b.scan("", "", 4096).unwrap();
        assert_eq!(all.len(), 48);
        let mut expected: Vec<(String, Vec<u8>)> = (0..48)
            .map(|k| (key_name(k), format!("sv{k}").into_bytes()))
            .collect();
        expected.sort();
        assert_eq!(all, expected);
        // A small limit forces per-shard page resumption and a merged
        // cutoff identical to the probe-scan rule.
        let limited = b.scan("wk2", "wk40", 5).unwrap();
        let want: Vec<(String, Vec<u8>)> = expected
            .iter()
            .filter(|(k, _)| k.as_str() >= "wk2" && k.as_str() < "wk40")
            .take(5)
            .cloned()
            .collect();
        assert_eq!(limited, want);
        // Valueless entries are skipped by the index scan too.
        b.fset(60, 1, 9).unwrap();
        assert!(!b
            .scan("", "", 4096)
            .unwrap()
            .iter()
            .any(|(k, _)| k == "wk60"));
    }

    #[test]
    fn digests_agree_on_identical_state() {
        let mut digests = Vec::new();
        for kind in [BackendKind::Raw, BackendKind::Typed, BackendKind::Minidb] {
            let mut b = make_backend(kind, 4).unwrap();
            b.set(0, b"same").unwrap();
            b.fset(1, 2, 11).unwrap();
            b.commit(true).unwrap();
            digests.push(state_digest(b.as_mut(), 4).unwrap());
        }
        assert_eq!(digests[0], digests[1]);
        assert_eq!(digests[1], digests[2]);
        // Pinned: digests recorded by earlier builds stay comparable.
        assert_eq!(digests[0], 0x87c1_a808_1622_a92d);
    }

    #[test]
    fn crash_loses_uncommitted_state_on_raw() {
        let mut b = RawBackend::new(4, false).unwrap();
        b.set(0, b"durable").unwrap();
        b.commit(true).unwrap();
        b.set(1, b"volatile").unwrap();
        b.crash_recover().unwrap();
        assert_eq!(b.get(0).unwrap().as_deref(), Some(&b"durable"[..]));
        assert_eq!(b.get(1).unwrap(), None, "uncommitted set lost");
        // The backend stays usable after recovery.
        b.set(1, b"again").unwrap();
        b.commit(true).unwrap();
        assert_eq!(b.get(1).unwrap().as_deref(), Some(&b"again"[..]));
    }

    #[test]
    fn paused_pipeline_commits_are_lost_on_crash() {
        let mut b = TypedBackend::new(4).unwrap();
        b.set(0, b"kept").unwrap();
        b.commit(true).unwrap();
        b.set_flush_paused(true).unwrap();
        b.set(1, b"sealed-not-applied").unwrap();
        b.commit(false).unwrap();
        b.crash_recover().unwrap();
        assert_eq!(b.get(0).unwrap().as_deref(), Some(&b"kept"[..]));
        assert_eq!(b.get(1).unwrap(), None, "paused-epoch commit discarded");
    }

    #[test]
    fn minidb_crash_preserves_every_op() {
        let mut b = MinidbBackend::new(4).unwrap();
        b.set(0, b"walled").unwrap();
        b.fset(1, 0, 3).unwrap();
        b.crash_recover().unwrap();
        assert_eq!(b.get(0).unwrap().as_deref(), Some(&b"walled"[..]));
        assert_eq!(b.fget(1, 0).unwrap(), Some(3));
    }
}
