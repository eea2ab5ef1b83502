//! The session-based heap manager behind the Table 1 heap APIs:
//! `createHeap(name, size)`, `loadHeap(name)`, `existsHeap(name)`.
//!
//! A [`HeapManager`] maps heap names to persisted device images in a
//! directory (one file per PJH instance) and keeps a **live registry** of
//! the heaps currently open: loading the same name twice yields the *same*
//! shared [`HeapHandle`], so every part of a process observes one
//! consistent heap.
//!
//! Durability is an explicit, **pipelined** commit point.
//! [`HeapHandle::commit`] *seals an epoch*: it snapshots the cache lines
//! persisted since the previous commit (copying their bytes under the
//! heap lock) and hands the snapshot to a per-heap background
//! [`FlushPipeline`], returning a [`CommitTicket`] immediately — mutations
//! in the next epoch proceed while the image sync runs off-thread, and
//! re-dirtied lines cannot leak into the sealed epoch because the snapshot
//! pinned their bytes. [`CommitTicket::wait`] (or the
//! [`HeapHandle::commit_sync`] shorthand) is the durability barrier: when
//! it returns, the image file holds at least the sealed epoch.
//!
//! # Example
//!
//! ```
//! use espresso_core::{HeapManager, LoadOptions, PjhConfig};
//! use espresso_object::FieldDesc;
//!
//! # fn main() -> Result<(), espresso_core::PjhError> {
//! let mgr = HeapManager::temp()?;
//! let jimmy = mgr.create("jimmy", 4 << 20, PjhConfig::small())?;
//! let p = jimmy.with_mut(|heap| {
//!     let k = heap.register_instance("Person", vec![FieldDesc::prim("id")])?;
//!     let p = heap.alloc_instance(k)?;
//!     heap.set_field(p, 0, 31);
//!     heap.flush_object(p);
//!     heap.set_root("jimmy_info", p)?;
//!     Ok::<_, espresso_core::PjhError>(p)
//! })?;
//! let ticket = jimmy.commit()?; // seals the epoch, sync runs off-thread
//! // ... epoch N+1 mutations would proceed here ...
//! ticket.wait()?;              // durability barrier
//!
//! // A second open anywhere in the process sees the same live heap.
//! let again = mgr.load("jimmy", LoadOptions::default())?;
//! assert_eq!(again.with(|heap| heap.get_root("jimmy_info")), Some(p));
//! # Ok(())
//! # }
//! ```

use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Weak};

use espresso_nvm::{EpochClock, EpochPin, FlushPipeline, LatencyModel, NvmConfig, NvmDevice};
use parking_lot::{Mutex, RwLock, RwLockWriteGuard};

use crate::heap::{LoadOptions, LoadReport, Pjh};
use crate::txn::HeapTxn;
use crate::{PjhConfig, PjhError};

/// What a commit sealed (and, once its ticket resolves, synced).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommitReport {
    /// Cache lines captured for the image file.
    pub synced_lines: usize,
    /// Bytes captured for the image file.
    pub synced_bytes: usize,
    /// The whole image was rewritten (first commit of a fresh file).
    pub full_rewrite: bool,
    /// Whether the handle is bound to an image file at all. Unmanaged
    /// handles (wrapped raw heaps) report `false` and sync nothing — their
    /// device's persistence domain is the durability boundary.
    pub managed: bool,
}

/// Where a sealed commit epoch stands, answered non-consumingly by
/// [`CommitTicket::state`]: the flush pipeline's own epoch state.
pub use espresso_nvm::EpochState as CommitState;

/// A sealed-but-possibly-not-yet-durable commit epoch, returned by
/// [`HeapHandle::commit`].
///
/// The epoch's contents were snapshotted when the ticket was issued;
/// [`wait`](Self::wait) blocks until the background apply has written them
/// to the image file and is the durability barrier. Dropping a ticket
/// without waiting is fine — the commit still becomes durable in the
/// background: the manager retains the heap's pipeline, and a later
/// `load` of the name waits for pending applies before mapping the
/// image.
#[derive(Debug)]
pub struct CommitTicket {
    /// Per-heap commit epoch this ticket seals (0 for unmanaged handles).
    epoch: u64,
    report: CommitReport,
    pipeline: Option<Arc<FlushPipeline>>,
}

impl CommitTicket {
    /// The sealed epoch (0 for unmanaged handles, whose commits have
    /// nothing to sync).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Where the sealed epoch stands right now, without consuming the
    /// ticket or blocking: in flight, durable, or failed (with the apply
    /// error's reason). Consistent with the pipeline's failure cascade —
    /// an aborted or failed epoch reports [`CommitState::Failed`] until a
    /// later commit re-captures its restored lines, after which it reads
    /// [`CommitState::Durable`], exactly as [`wait`](Self::wait) would
    /// resolve. Unmanaged handles' no-op commits are trivially durable.
    pub fn state(&self) -> CommitState {
        match &self.pipeline {
            None => CommitState::Durable,
            Some(p) => p.epoch_state(self.epoch),
        }
    }

    /// Blocks until the sealed epoch is durable in the image file.
    ///
    /// # Errors
    ///
    /// I/O errors from the background apply (the epoch's lines were
    /// restored, so a later commit re-captures them).
    pub fn wait(self) -> crate::Result<CommitReport> {
        if let Some(pipeline) = &self.pipeline {
            pipeline.wait_durable(self.epoch)?;
        }
        Ok(self.report)
    }
}

/// Lock order, outermost first — every multi-lock path must acquire in
/// this order (levels may be skipped, never reversed):
///
/// ```text
/// manager.live → manager.pipelines → handle.heap → handle.path
///              → handle.pipeline → handle.replica
/// ```
///
/// Notable holders: `commit` takes `heap.read → path → pipeline`;
/// `delete_heap` scopes `live`, then `pipelines`, then takes
/// `path → pipeline`; `create` takes `live → pipelines`; `load` takes
/// `pipelines` and `live` in *separate* scopes and never blocks on the
/// pipeline while holding either (see its body); a closing
/// `WriteSession` holds `heap.write` while briefly taking `replica`
/// twice — to compare generations, then to swap — and never across the
/// replica clone it builds between the two.
/// Read sessions take only `replica` (no `RwLock` at all).
struct HandleInner {
    name: String,
    /// Image file backing this heap; `None` for unmanaged handles and for
    /// handles detached by [`HeapManager::delete_heap`] (a stale commit
    /// must never clobber a successor heap's image).
    path: Mutex<Option<PathBuf>>,
    report: LoadReport,
    /// Background apply worker; shared by every clone of the handle so
    /// commits form one FIFO epoch sequence. Manager-backed handles get
    /// their name's pipeline at construction (the manager retains it, so
    /// applies outlive the handle and a reopen waits for them);
    /// unmanaged handles spawn one lazily if the crash hooks ask.
    pipeline: Mutex<Option<Arc<FlushPipeline>>>,
    heap: RwLock<Pjh>,
    /// Reclamation clock for lock-free read sessions: readers pin it, GC
    /// defers region reuse past it. For managed handles this *is* the
    /// commit pipeline's clock, so sealed commit epochs and reclamation
    /// epochs share one timeline.
    clock: Arc<EpochClock>,
    /// The published read replica and the metadata generation it was
    /// taken at: an owned snapshot of the heap's DRAM metadata over the
    /// same (internally synchronized) device. A closing write section
    /// republishes only when the generation moved (registrations, roots,
    /// GC — not plain object stores); readers clone the `Arc` and go —
    /// they never touch `heap`'s `RwLock`.
    replica: Mutex<(u64, Arc<Pjh>)>,
}

/// A shared, live handle to one open PJH instance.
///
/// Cheap to clone; all clones (and every [`HeapManager::load`] of the same
/// name while the heap stays open) refer to the same heap behind one
/// reader-writer lock. See [`HeapManager`] for the lifecycle.
#[derive(Clone)]
pub struct HeapHandle {
    inner: Arc<HandleInner>,
}

impl std::fmt::Debug for HeapHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HeapHandle")
            .field("name", &self.inner.name)
            .field("managed", &self.is_managed())
            .finish()
    }
}

/// A lock-free read-only session over one heap, returned by
/// [`HeapHandle::read`] — it derefs to [`Pjh`], so every raw and typed
/// getter works unchanged.
///
/// **What "non-blocking" guarantees.** Opening a session never waits on
/// the heap's writer lock: it pins the reclamation epoch (two atomic
/// stores on the hot path) and clones an `Arc` to the latest published
/// metadata replica. Concurrent writers, transactions, commits, and
/// collections all proceed while any number of sessions are open.
///
/// **What a session observes.** Data reads go to the shared device,
/// which is internally synchronized — a session sees committed object
/// *contents* live, including stores a concurrent writer lands after the
/// session opened. The session's *metadata* (klass table, name index,
/// summaries) is the snapshot published at the last write-section close.
/// There is no snapshot isolation across multiple fields; what the pin
/// buys is memory safety, not serializability.
///
/// **What a pinned epoch holds back.** GC may run and relocate objects
/// while sessions are open, but every region it frees is deferred: not
/// zeroed, not reallocated, not reused as an evacuation target until all
/// sessions pinned at or before the freeing epoch drop. Refs obtained
/// inside the session therefore stay readable (old images are kept
/// intact) for the session's whole lifetime. The cost of holding a
/// session across collections is space: deferred regions count as free
/// but are not reusable, so a long-pinned reader can drive an allocating
/// writer to [`PjhError::HeapFull`](crate::PjhError::HeapFull) until the
/// session drops.
pub struct ReadSession {
    replica: Arc<Pjh>,
    _pin: EpochPin,
}

impl ReadSession {
    /// The reclamation epoch this session pins: regions freed at or
    /// after it stay readable until the session drops.
    pub fn epoch(&self) -> u64 {
        self._pin.epoch()
    }
}

impl Deref for ReadSession {
    type Target = Pjh;
    fn deref(&self) -> &Pjh {
        &self.replica
    }
}

impl std::fmt::Debug for ReadSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReadSession")
            .field("epoch", &self.epoch())
            .finish()
    }
}

/// An exclusive write session over one heap, returned by
/// [`HeapHandle::write`]; derefs to [`Pjh`]. Holds the heap's writer
/// lock; on drop it publishes a fresh metadata replica so later read
/// sessions observe everything this section changed.
pub struct WriteSession<'a> {
    guard: Option<RwLockWriteGuard<'a, Pjh>>,
    inner: &'a HandleInner,
}

impl Deref for WriteSession<'_> {
    type Target = Pjh;
    fn deref(&self) -> &Pjh {
        self.guard.as_ref().expect("guard present until drop")
    }
}

impl DerefMut for WriteSession<'_> {
    fn deref_mut(&mut self) -> &mut Pjh {
        self.guard.as_mut().expect("guard present until drop")
    }
}

impl Drop for WriteSession<'_> {
    fn drop(&mut self) {
        // Publish while still holding the write lock: a reader pinning
        // between the publication and the lock release sees either this
        // replica or a later one, never a half-written section... of the
        // *metadata*; device contents are always live. Runs on unwind
        // too, so a panicking transaction still publishes its (aborted,
        // rolled-back) state. Skipped when `meta_gen` did not move: plain
        // stores and instance allocation stay clone-free, but array and
        // string allocation do not — `alloc_arr`/`alloc_bytes` go through
        // `register_prim_array`, which bumps `meta_gen` on every call, so
        // every such section republishes a full clone.
        //
        // `replica` is taken only to compare and to swap, never across
        // the clone, so read sessions opening meanwhile take the previous
        // replica instead of waiting; the old one is freed outside the
        // lock. Only writers publish, and they hold `heap.write`, so
        // nothing publishes in between.
        let guard = self.guard.take().expect("dropped once");
        let gen = guard.meta_gen;
        if self.inner.replica.lock().0 != gen {
            let fresh = Arc::new(guard.read_replica());
            let _previous = std::mem::replace(&mut *self.inner.replica.lock(), (gen, fresh));
        }
    }
}

impl HeapHandle {
    fn build(
        name: String,
        path: Option<PathBuf>,
        mut heap: Pjh,
        report: LoadReport,
        pipeline: Option<Arc<FlushPipeline>>,
        clock: Arc<EpochClock>,
    ) -> HeapHandle {
        heap.attach_epoch_clock(Arc::clone(&clock));
        let replica = (heap.meta_gen, Arc::new(heap.read_replica()));
        HeapHandle {
            inner: Arc::new(HandleInner {
                name,
                path: Mutex::new(path),
                report,
                pipeline: Mutex::new(pipeline),
                heap: RwLock::new(heap),
                clock,
                replica: Mutex::new(replica),
            }),
        }
    }

    fn managed(
        name: String,
        path: PathBuf,
        heap: Pjh,
        report: LoadReport,
        pipeline: Arc<FlushPipeline>,
    ) -> HeapHandle {
        // Managed handles pin readers against the pipeline's own clock:
        // sealed commit epochs tick the same counter GC defers against.
        let clock = pipeline.epoch_clock();
        HeapHandle::build(name, Some(path), heap, report, Some(pipeline), clock)
    }

    /// Wraps a raw heap in an unmanaged handle (no backing image file).
    /// [`commit`](Self::commit) becomes a no-op ticket; everything else —
    /// sharing, [`txn`](Self::txn), locking — works identically, which
    /// lets device-level tests and benches use the session API without a
    /// filesystem.
    pub fn from_pjh(heap: Pjh) -> HeapHandle {
        HeapHandle::build(
            "<unmanaged>".to_string(),
            None,
            heap,
            LoadReport::default(),
            None,
            Arc::new(EpochClock::new()),
        )
    }

    /// The heap's flush pipeline, spawned on first use.
    fn pipeline(&self) -> Arc<FlushPipeline> {
        let mut slot = self.inner.pipeline.lock();
        slot.get_or_insert_with(|| Arc::new(FlushPipeline::new()))
            .clone()
    }

    /// The heap's registered name (`"<unmanaged>"` for wrapped raw heaps).
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Whether this handle is bound to an image file (false for wrapped
    /// raw heaps, and for handles detached by `delete_heap`).
    pub fn is_managed(&self) -> bool {
        self.inner.path.lock().is_some()
    }

    /// What happened when the heap was loaded (all-default for heaps
    /// created fresh this session).
    pub fn load_report(&self) -> LoadReport {
        self.inner.report
    }

    /// Opens a **lock-free read-only session**: every typed getter
    /// (`get`, `get_ref`, `get_str`, `root::<T>`, …) and every raw read
    /// takes `&Pjh` through the returned [`ReadSession`]. Opening never
    /// blocks on (or takes) the heap's writer lock — it pins the
    /// reclamation epoch and borrows the latest published metadata
    /// replica, so any number of sessions run concurrently with writers,
    /// commits, and GC. See [`ReadSession`] for the exact guarantees and
    /// for what a long-held pin holds back.
    pub fn read(&self) -> ReadSession {
        // Pin FIRST, then take the replica: a GC completing in between
        // would defer its freed regions against an epoch ≥ ours, so
        // every ref this session can reach stays un-reclaimed.
        let pin = self.inner.clock.pin();
        let replica = Arc::clone(&self.inner.replica.lock().1);
        ReadSession { replica, _pin: pin }
    }

    /// Acquires the heap for writing (exclusive). The returned session
    /// publishes a fresh read replica when dropped.
    pub fn write(&self) -> WriteSession<'_> {
        WriteSession {
            guard: Some(self.inner.heap.write()),
            inner: &self.inner,
        }
    }

    /// Runs `f` in a read-only session (see [`read`](Self::read) — `f`
    /// takes no lock and runs concurrently with writers).
    pub fn with<R>(&self, f: impl FnOnce(&Pjh) -> R) -> R {
        f(&self.read())
    }

    /// Runs `f` with exclusive write access to the heap.
    pub fn with_mut<R>(&self, f: impl FnOnce(&mut Pjh) -> R) -> R {
        f(&mut self.write())
    }

    /// Allocator/collector statistics straight from the live heap (under
    /// the read lock rather than via the replica: free-list churn does
    /// not republish, so a replica's counters can lag).
    pub fn heap_stats(&self) -> crate::HeapStats {
        self.inner.heap.read().heap_stats()
    }

    /// Runs `f` inside an undo-logged transaction with exclusive access:
    /// commit on `Ok`, abort on `Err`, abort on panic (see
    /// [`Pjh::txn`]). Do not call [`commit`](Self::commit) or re-enter the
    /// handle from inside `f` — the heap lock is held for the whole scope.
    ///
    /// # Errors
    ///
    /// Propagates `f`'s error after aborting.
    pub fn txn<T>(&self, f: impl FnOnce(&mut HeapTxn<'_>) -> crate::Result<T>) -> crate::Result<T> {
        self.write().txn(f)
    }

    /// The heap's one [`PjhError::HeapFull`] policy, `with_mut`-shaped:
    /// runs `f` with exclusive write access; if it fails with `HeapFull`,
    /// runs a full collection ([`Pjh::gc_full`]) and `f` once more, and
    /// propagates whatever that second run returns. Any other error
    /// passes through without collecting. `f` must be re-runnable: what a
    /// failed first run allocated is garbage the collection reclaims.
    ///
    /// The collection is a full one because an incremental cycle under
    /// `HeapFull` harvests slots but opens no region, so the failure
    /// recurs; and it passes no extra roots, so callers must hold no
    /// unrooted references across the call.
    ///
    /// # Errors
    ///
    /// `f`'s error (a second `HeapFull` included); collection errors.
    pub fn with_mut_retry<T>(
        &self,
        mut f: impl FnMut(&mut Pjh) -> crate::Result<T>,
    ) -> crate::Result<T> {
        match self.with_mut(&mut f) {
            Err(PjhError::HeapFull { .. }) => {
                self.with_mut(|h| h.gc_full(&[]))?;
                self.with_mut(&mut f)
            }
            other => other,
        }
    }

    /// [`txn`](Self::txn) under the [`with_mut_retry`](Self::with_mut_retry)
    /// policy: the transaction that hit `HeapFull` was aborted (rolled
    /// back) before the collection runs, then `f` runs in a fresh one.
    ///
    /// # Errors
    ///
    /// As [`with_mut_retry`](Self::with_mut_retry).
    pub fn txn_retry<T>(
        &self,
        mut f: impl FnMut(&mut HeapTxn<'_>) -> crate::Result<T>,
    ) -> crate::Result<T> {
        self.with_mut_retry(|h| h.txn(&mut f))
    }

    /// The explicit commit point: **seals an epoch**. Every cache line
    /// persisted since the previous commit is snapshotted (bytes copied)
    /// and handed to the heap's background flush pipeline; the returned
    /// [`CommitTicket`] resolves when the image sync finishes. Mutations
    /// in the next epoch proceed immediately — lines dirtied again before
    /// the apply lands cannot contaminate the sealed epoch, because the
    /// snapshot pinned their contents.
    ///
    /// What lands in the file is exactly the device's persistence domain
    /// at seal time — a transaction torn by a mid-transaction commit is
    /// rolled back by the next load, like any crash.
    ///
    /// Use [`commit_sync`](Self::commit_sync) (or `ticket.wait()`) when
    /// the caller needs the durability barrier.
    ///
    /// # Errors
    ///
    /// None today at seal time; the I/O of the apply surfaces through the
    /// ticket. The `Result` keeps the seal fallible for future layouts.
    pub fn commit(&self) -> crate::Result<CommitTicket> {
        // A read guard suffices: it excludes every `&mut Pjh` mutator, and
        // the device snapshot below reads only the persisted image. The
        // path lock is held across the snapshot so a concurrent
        // `delete_heap` (which detaches the path and aborts queued
        // applies) serializes with in-flight seals instead of letting a
        // stale sync race a successor's image.
        let heap = self.inner.heap.read();
        let path = self.inner.path.lock();
        match path.as_ref() {
            Some(path) => {
                // The generation is read before the snapshot: if a failed
                // apply restores lines while we are snapshotting, the
                // pipeline refuses this (incomplete) snapshot instead of
                // applying it over the restored lines.
                let pipeline = self.pipeline();
                let seal_gen = pipeline.seal_generation();
                let snapshot = heap.device().snapshot_sync(path);
                let report = CommitReport {
                    synced_lines: snapshot.lines(),
                    synced_bytes: snapshot.bytes(),
                    full_rewrite: snapshot.is_full_rewrite(),
                    managed: true,
                };
                let epoch = pipeline.submit_sealed(seal_gen, heap.device(), path.clone(), snapshot);
                Ok(CommitTicket {
                    epoch,
                    report,
                    pipeline: Some(pipeline),
                })
            }
            None => Ok(CommitTicket {
                epoch: 0,
                report: CommitReport {
                    managed: false,
                    ..CommitReport::default()
                },
                pipeline: None,
            }),
        }
    }

    /// Commit with the durability barrier inline: seals the epoch and
    /// blocks until it reaches the image file. Equivalent to
    /// `self.commit()?.wait()`.
    ///
    /// # Errors
    ///
    /// I/O errors from the image sync.
    pub fn commit_sync(&self) -> crate::Result<CommitReport> {
        self.commit()?.wait()
    }

    /// Highest commit epoch sealed on this heap (0 before the first
    /// commit).
    pub fn sealed_epoch(&self) -> u64 {
        self.inner
            .pipeline
            .lock()
            .as_ref()
            .map_or(0, |p| p.sealed_epoch())
    }

    /// Highest commit epoch whose image sync has completed.
    pub fn durable_epoch(&self) -> u64 {
        self.inner
            .pipeline
            .lock()
            .as_ref()
            .map_or(0, |p| p.durable_epoch())
    }

    /// Commit epochs sealed but not yet applied: the depth of the flush
    /// pipeline's queue. A serving layer polls this to decide when the
    /// pipeline is lagging and new writes should be refused (backpressure)
    /// instead of queueing unboundedly behind a slow or paused apply.
    pub fn pending_commits(&self) -> usize {
        self.inner
            .pipeline
            .lock()
            .as_ref()
            .map_or(0, |p| p.pending())
    }

    /// Whether background applies are currently paused (see
    /// [`set_flush_paused`](Self::set_flush_paused)) — the observation
    /// half of the crash-injection hook, so callers can tell a paused
    /// pipeline from a merely slow one.
    pub fn flush_paused(&self) -> bool {
        self.inner
            .pipeline
            .lock()
            .as_ref()
            .is_some_and(|p| p.is_paused())
    }

    /// Pauses (or resumes) the background applies — with
    /// [`abort_pending_commits`](Self::abort_pending_commits), the
    /// deterministic crash-injection hook for the window between a sealed
    /// epoch and its image sync. While paused, `wait`/`commit_sync` on
    /// newly sealed epochs block — and so does a `HeapManager::load` of
    /// the name after the handles drop (it waits for pending applies), so
    /// resume or abort before closing the session.
    pub fn set_flush_paused(&self, paused: bool) {
        self.pipeline().set_paused(paused);
    }

    /// Discards every sealed-but-not-yet-applied commit, as if the
    /// process died between seal and apply: their tickets report errors,
    /// their lines are restored so the next commit re-captures them, and
    /// the image file keeps the last applied epoch. Returns how many
    /// commits were discarded.
    pub fn abort_pending_commits(&self) -> usize {
        self.inner
            .pipeline
            .lock()
            .as_ref()
            .map_or(0, |p| p.abort_pending())
    }
}

impl From<Pjh> for HeapHandle {
    fn from(heap: Pjh) -> HeapHandle {
        HeapHandle::from_pjh(heap)
    }
}

struct ManagerInner {
    dir: PathBuf,
    /// `temp()` managers own their directory and remove it on drop.
    owns_dir: bool,
    /// Live registry: name → open handle. Weak so dropping every handle
    /// closes the heap (a later load re-reads the image).
    live: Mutex<HashMap<String, Weak<HandleInner>>>,
    /// name → that heap's flush pipeline, retained **strongly** so
    /// background applies outlive their handles: a `load` of a
    /// just-closed name waits for the pipeline to go idle before mapping
    /// the image (otherwise it could read a half-applied epoch), and
    /// `delete_heap` waits before removing the file. Entries live until
    /// the heap is deleted or the manager drops.
    pipelines: Mutex<HashMap<String, Arc<FlushPipeline>>>,
}

impl Drop for ManagerInner {
    fn drop(&mut self) {
        // Drain every pipeline (applying still-queued commits) before the
        // directory disappears under them.
        for (_, pipeline) in self.pipelines.get_mut().drain() {
            drop(pipeline);
        }
        if self.owns_dir {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }
}

/// A directory of named persistent heaps with a live-handle registry.
///
/// Cheap to clone; clones share the registry (and, for
/// [`temp`](Self::temp) managers, ownership of the directory).
#[derive(Clone)]
pub struct HeapManager {
    inner: Arc<ManagerInner>,
}

impl std::fmt::Debug for HeapManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HeapManager")
            .field("dir", &self.inner.dir)
            .field("owns_dir", &self.inner.owns_dir)
            .finish()
    }
}

impl HeapManager {
    fn new(dir: PathBuf, owns_dir: bool) -> crate::Result<HeapManager> {
        std::fs::create_dir_all(&dir).map_err(espresso_nvm::NvmError::Io)?;
        Ok(HeapManager {
            inner: Arc::new(ManagerInner {
                dir,
                owns_dir,
                live: Mutex::new(HashMap::new()),
                pipelines: Mutex::new(HashMap::new()),
            }),
        })
    }

    /// Opens (creating if needed) a heap directory.
    ///
    /// # Errors
    ///
    /// I/O errors creating the directory.
    pub fn open(dir: impl AsRef<Path>) -> crate::Result<HeapManager> {
        HeapManager::new(dir.as_ref().to_path_buf(), false)
    }

    /// Opens a manager over a fresh unique temporary directory. The
    /// manager owns the directory: when the last clone drops, the
    /// directory and every image in it are removed.
    ///
    /// # Errors
    ///
    /// I/O errors creating the directory.
    pub fn temp() -> crate::Result<HeapManager> {
        let unique = format!(
            "espresso-heaps-{}-{:x}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos())
                .unwrap_or(0)
        );
        HeapManager::new(std::env::temp_dir().join(unique), true)
    }

    /// The directory holding the images.
    pub fn dir(&self) -> &Path {
        &self.inner.dir
    }

    fn path(&self, name: &str) -> PathBuf {
        self.inner.dir.join(format!("{name}.pjh"))
    }

    /// The retained flush pipeline for `name`, created on first use and
    /// reused across close/reopen cycles of the heap (so every apply to
    /// one image file funnels through one FIFO worker).
    fn pipeline_for(&self, name: &str) -> Arc<FlushPipeline> {
        self.inner
            .pipelines
            .lock()
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(FlushPipeline::new()))
            .clone()
    }

    /// `existsHeap`: whether a heap with this name exists — open in the
    /// live registry or persisted as an image.
    pub fn exists_heap(&self, name: &str) -> bool {
        self.live_handle(name).is_some() || self.path(name).exists()
    }

    fn live_handle(&self, name: &str) -> Option<HeapHandle> {
        let mut live = self.inner.live.lock();
        match live.get(name).and_then(Weak::upgrade) {
            Some(inner) => Some(HeapHandle { inner }),
            None => {
                live.remove(name); // prune the dead entry
                None
            }
        }
    }

    /// `createHeap(name, size)`: formats a new heap on a fresh device,
    /// writes its initial image, and registers the live handle.
    ///
    /// # Errors
    ///
    /// [`PjhError::HeapExists`] if the name is already taken (open or on
    /// disk); layout errors; I/O errors writing the initial image.
    pub fn create(&self, name: &str, size: usize, config: PjhConfig) -> crate::Result<HeapHandle> {
        let mut live = self.inner.live.lock();
        let open = live.get(name).and_then(Weak::upgrade).is_some();
        if open || self.path(name).exists() {
            return Err(PjhError::HeapExists {
                name: name.to_string(),
            });
        }
        let dev = NvmDevice::new(NvmConfig::with_size(size));
        let heap = Pjh::create(dev, config)?;
        let path = self.path(name);
        heap.device().save_image(&path)?;
        let handle = HeapHandle::managed(
            name.to_string(),
            path,
            heap,
            LoadReport::default(),
            self.pipeline_for(name),
        );
        live.insert(name.to_string(), Arc::downgrade(&handle.inner));
        Ok(handle)
    }

    /// `loadHeap(name)`: returns the live handle if the heap is already
    /// open (`options` are ignored then — they applied when it was first
    /// opened); otherwise maps the image and runs the loading pipeline
    /// (recovery, optional remap, optional zeroing scan, rollback of any
    /// transaction the last commit point captured mid-flight).
    ///
    /// # Errors
    ///
    /// [`PjhError::NoSuchHeap`] if the name is unknown; image and format
    /// errors otherwise.
    pub fn load(&self, name: &str, options: LoadOptions) -> crate::Result<HeapHandle> {
        // Lock discipline (this used to deadlock the whole manager): the
        // registry lock must NOT be held while waiting for the retained
        // pipeline to go idle — a paused pipeline makes that wait
        // unbounded, and with `live` held it would wedge every unrelated
        // `create`/`load` on the manager. So: check, wait with no locks
        // held, then re-take the registry lock and re-validate before
        // mapping.
        loop {
            if let Some(handle) = self.live_handle(name) {
                return Ok(handle);
            }
            let path = self.path(name);
            if !path.exists() {
                return Err(PjhError::NoSuchHeap {
                    name: name.to_string(),
                });
            }
            // The previous session's handles may be gone while their
            // commits are still applying (outstanding tickets, or a drain
            // in progress): wait for the retained pipeline to go idle so
            // the image read below can never observe a half-applied epoch.
            let pipeline = self.pipeline_for(name);
            pipeline.wait_idle();
            let mut live = self.inner.live.lock();
            // Re-validate under the lock: a racing load may have opened
            // the heap while we waited (use its live instance), and a
            // racing open-then-close may have queued fresh applies (wait
            // again) — two racing loads must never map two divergent
            // live heaps over the same image.
            if let Some(inner) = live.get(name).and_then(Weak::upgrade) {
                return Ok(HeapHandle { inner });
            }
            if !pipeline.is_idle() {
                drop(live);
                continue;
            }
            let dev = NvmDevice::load_image(&path, LatencyModel::zero())?;
            let (mut heap, report) = Pjh::load(dev, options)?;
            heap.txn_recover()?;
            let handle = HeapHandle::managed(name.to_string(), path, heap, report, pipeline);
            live.insert(name.to_string(), Arc::downgrade(&handle.inner));
            return Ok(handle);
        }
    }

    /// Loads the heap if it exists, creating it otherwise.
    ///
    /// # Errors
    ///
    /// Creation or loading errors.
    pub fn open_or_create(
        &self,
        name: &str,
        size: usize,
        config: PjhConfig,
    ) -> crate::Result<HeapHandle> {
        if self.exists_heap(name) {
            self.load(name, LoadOptions::default())
        } else {
            self.create(name, size, config)
        }
    }

    /// Deletes a heap image and drops its registry entry; returns whether
    /// the image existed. A live handle keeps operating on its in-memory
    /// device but is **detached** — its later commits become no-op
    /// tickets, and any commit still queued in its flush pipeline is
    /// aborted — rather than clobbering (or resurrecting the file under)
    /// whatever heap takes the name next.
    pub fn delete_heap(&self, name: &str) -> bool {
        // The registry lock is scoped to the lookup: waiting out an
        // in-flight image apply below must not stall unrelated
        // create/load traffic on the manager.
        let doomed = self
            .inner
            .live
            .lock()
            .remove(name)
            .and_then(|w| w.upgrade());
        let retained = self.inner.pipelines.lock().remove(name);
        if let Some(inner) = doomed {
            // Take the path lock first: `commit` holds it across
            // snapshot + submit, so once we hold it no new job can slip
            // into the pipeline behind the abort. An apply that already
            // left the queue cannot be aborted — wait it out, so a stale
            // in-flight sync never writes into (or re-creates the file
            // under) a successor heap.
            let mut path = inner.path.lock();
            if let Some(pipeline) = inner.pipeline.lock().as_ref() {
                pipeline.abort_pending();
                pipeline.wait_idle();
            }
            *path = None;
        } else if let Some(pipeline) = &retained {
            // No live handle, but the last session's applies may still be
            // in flight on the retained pipeline.
            pipeline.abort_pending();
            pipeline.wait_idle();
        }
        std::fs::remove_file(self.path(name)).is_ok()
    }

    /// Names of all heaps persisted in this directory, sorted.
    pub fn heap_names(&self) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(&self.inner.dir)
            .map(|rd| {
                rd.flatten()
                    .filter_map(|e| {
                        let p = e.path();
                        (p.extension().is_some_and(|x| x == "pjh"))
                            .then(|| p.file_stem().map(|s| s.to_string_lossy().into_owned()))
                            .flatten()
                    })
                    .collect()
            })
            .unwrap_or_default();
        names.sort();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GcEscalation, GcKind};
    use espresso_object::FieldDesc;

    #[test]
    fn create_exists_load_roundtrip() {
        let mgr = HeapManager::temp().unwrap();
        assert!(!mgr.exists_heap("jimmy"));
        let jimmy = mgr.create("jimmy", 4 << 20, PjhConfig::small()).unwrap();
        assert!(mgr.exists_heap("jimmy"));

        jimmy
            .with_mut(|h| {
                let k = h.register_instance(
                    "Person",
                    vec![FieldDesc::prim("id"), FieldDesc::reference("next")],
                )?;
                let p = h.alloc_instance(k)?;
                h.set_field(p, 0, 31);
                h.flush_object(p);
                h.set_root("jimmy_info", p)
            })
            .unwrap();
        let report = jimmy.commit_sync().unwrap();
        assert!(report.managed);
        assert!(report.synced_lines > 0);

        // Drop the live handle: the next load maps the committed image.
        drop(jimmy);
        let again = mgr.load("jimmy", LoadOptions::default()).unwrap();
        again.with(|h| {
            let p = h.get_root("jimmy_info").unwrap();
            assert_eq!(h.field(p, 0), 31);
        });
    }

    #[test]
    fn loading_twice_yields_the_same_live_instance() {
        let mgr = HeapManager::temp().unwrap();
        let a = mgr.create("app", 4 << 20, PjhConfig::small()).unwrap();
        let b = mgr.load("app", LoadOptions::default()).unwrap();
        // Writes through one handle are visible through the other without
        // any commit: they are the same heap.
        a.with_mut(|h| {
            let k = h.register_instance("T", vec![FieldDesc::prim("x")])?;
            let t = h.alloc_instance(k)?;
            h.set_field(t, 0, 7);
            h.set_root("t", t)
        })
        .unwrap();
        b.with(|h| {
            let t = h.get_root("t").unwrap();
            assert_eq!(h.field(t, 0), 7);
        });
        assert!(Arc::ptr_eq(&a.inner, &b.inner));
    }

    #[test]
    fn create_rejects_existing_names() {
        let mgr = HeapManager::temp().unwrap();
        let live = mgr.create("a", 4 << 20, PjhConfig::small()).unwrap();
        assert!(matches!(
            mgr.create("a", 4 << 20, PjhConfig::small()),
            Err(PjhError::HeapExists { .. })
        ));
        // Still taken after the handle closes: the image remains.
        drop(live);
        assert!(matches!(
            mgr.create("a", 4 << 20, PjhConfig::small()),
            Err(PjhError::HeapExists { .. })
        ));
        // Deleting frees the name.
        assert!(mgr.delete_heap("a"));
        mgr.create("a", 4 << 20, PjhConfig::small()).unwrap();
    }

    #[test]
    fn load_missing_heap_errors() {
        let mgr = HeapManager::temp().unwrap();
        assert!(matches!(
            mgr.load("ghost", LoadOptions::default()),
            Err(PjhError::NoSuchHeap { .. })
        ));
    }

    #[test]
    fn uncommitted_changes_do_not_reach_the_image() {
        let mgr = HeapManager::temp().unwrap();
        let a = mgr.create("a", 4 << 20, PjhConfig::small()).unwrap();
        a.with_mut(|h| {
            let k = h.register_instance("T", vec![FieldDesc::prim("x")])?;
            let t = h.alloc_instance(k)?;
            h.set_root("t", t)
        })
        .unwrap();
        // No commit: a reload sees the freshly created image.
        drop(a);
        let a2 = mgr.load("a", LoadOptions::default()).unwrap();
        a2.with(|h| {
            assert_eq!(h.get_root("t"), None);
            assert_eq!(h.census().objects, 0);
        });
    }

    #[test]
    fn commit_is_incremental() {
        let mgr = HeapManager::temp().unwrap();
        let a = mgr.create("a", 4 << 20, PjhConfig::small()).unwrap();
        a.with_mut(|h| {
            let k = h.register_instance("T", vec![FieldDesc::prim("x")])?;
            let t = h.alloc_instance(k)?;
            h.set_field(t, 0, 1);
            h.flush_object(t);
            h.set_root("t", t)
        })
        .unwrap();
        let first = a.commit_sync().unwrap();
        assert!(first.synced_lines > 0);
        // Nothing persisted since: the second commit writes nothing.
        let second = a.commit_sync().unwrap();
        assert_eq!(second.synced_lines, 0);
        // One more persisted field: the next commit is proportional to the
        // delta, not the heap size.
        a.with_mut(|h| {
            let t = h.get_root("t").unwrap();
            h.set_field(t, 0, 2);
            h.flush_field(t, 0);
        });
        let third = a.commit_sync().unwrap();
        assert!(third.synced_lines >= 1 && third.synced_lines < first.synced_lines);
    }

    #[test]
    fn commit_mid_txn_is_rolled_back_on_reload() {
        let mgr = HeapManager::temp().unwrap();
        let a = mgr.create("a", 4 << 20, PjhConfig::small()).unwrap();
        let t = a
            .txn(|t| {
                let k = t.register_instance("T", vec![FieldDesc::prim("x")])?;
                let obj = t.alloc_instance(k)?;
                t.set_field(obj, 0, 5);
                Ok(obj)
            })
            .unwrap();
        a.with_mut(|h| h.set_root("t", t)).unwrap();
        // Open a transaction, apply a store, and take a commit point
        // before it finishes — the image captures a torn transaction.
        a.with_mut(|h| {
            h.txn_begin().unwrap();
            h.txn_set_field(t, 0, 99);
        });
        a.commit_sync().unwrap();
        drop(a);
        let a2 = mgr.load("a", LoadOptions::default()).unwrap();
        a2.with(|h| {
            let t = h.get_root("t").unwrap();
            assert_eq!(h.field(t, 0), 5, "torn transaction rolled back");
        });
    }

    #[test]
    fn delete_detaches_live_handles_from_the_image() {
        let mgr = HeapManager::temp().unwrap();
        let stale = mgr.create("a", 4 << 20, PjhConfig::small()).unwrap();
        stale
            .with_mut(|h| {
                let k = h.register_instance("Old", vec![FieldDesc::prim("x")])?;
                let t = h.alloc_instance(k)?;
                h.flush_object(t);
                h.set_root("old", t)
            })
            .unwrap();
        assert!(mgr.delete_heap("a"));
        assert!(!stale.is_managed(), "deleted ⇒ detached");
        // A successor takes the name; the stale handle's commit must not
        // splice its lines into the successor's image.
        let fresh = mgr.create("a", 4 << 20, PjhConfig::small()).unwrap();
        fresh
            .with_mut(|h| {
                let k = h.register_instance("New", vec![FieldDesc::prim("y")])?;
                let t = h.alloc_instance(k)?;
                h.set_field(t, 0, 5);
                h.flush_object(t);
                h.set_root("new", t)
            })
            .unwrap();
        let stale_commit = stale.commit_sync().unwrap();
        assert!(!stale_commit.managed, "stale commit is a no-op");
        fresh.commit_sync().unwrap();
        drop(fresh);
        let reloaded = mgr.load("a", LoadOptions::default()).unwrap();
        reloaded.with(|h| {
            assert_eq!(h.get_root("old"), None, "no bleed-through");
            let t = h.get_root("new").unwrap();
            assert_eq!(h.field(t, 0), 5);
        });
    }

    #[test]
    fn temp_manager_removes_its_directory_on_drop() {
        let mgr = HeapManager::temp().unwrap();
        let dir = mgr.dir().to_path_buf();
        mgr.create("x", 4 << 20, PjhConfig::small()).unwrap();
        assert!(dir.exists());
        let clone = mgr.clone();
        drop(mgr);
        assert!(dir.exists(), "clone keeps the directory alive");
        drop(clone);
        assert!(!dir.exists(), "last clone removes the directory");
    }

    #[test]
    fn delete_and_list() {
        let mgr = HeapManager::temp().unwrap();
        mgr.create("x", 4 << 20, PjhConfig::small()).unwrap();
        mgr.create("y", 4 << 20, PjhConfig::small()).unwrap();
        assert_eq!(mgr.heap_names(), vec!["x", "y"]);
        assert!(mgr.delete_heap("x"));
        assert!(!mgr.delete_heap("x"));
        assert_eq!(mgr.heap_names(), vec!["y"]);
    }

    #[test]
    fn commit_pipeline_overlaps_the_next_epoch() {
        let mgr = HeapManager::temp().unwrap();
        let a = mgr.create("a", 4 << 20, PjhConfig::small()).unwrap();
        let (k, t) = a
            .with_mut(|h| {
                let k = h.register_instance("T", vec![FieldDesc::prim("x")])?;
                let t = h.alloc_instance(k)?;
                h.set_field(t, 0, 1);
                h.flush_object(t);
                h.set_root("t", t)?;
                Ok::<_, PjhError>((k, t))
            })
            .unwrap();
        // Hold the apply in the pipeline: epoch 1 is sealed, not durable.
        a.set_flush_paused(true);
        let ticket = a.commit().unwrap();
        assert_eq!(ticket.epoch(), 1);
        assert_ne!(ticket.state(), CommitState::Durable);
        assert_eq!(a.sealed_epoch(), 1);
        assert_eq!(a.durable_epoch(), 0);
        // Epoch 2 mutations proceed while epoch 1 is in flight — including
        // re-dirtying the very line epoch 1 sealed.
        a.with_mut(|h| {
            h.set_field(t, 0, 2);
            h.flush_field(t, 0);
            let t2 = h.alloc_instance(k)?;
            h.flush_object(t2);
            Ok::<_, PjhError>(())
        })
        .unwrap();
        a.set_flush_paused(false);
        let report = ticket.wait().unwrap();
        assert!(report.managed && report.synced_lines > 0);
        assert_eq!(a.durable_epoch(), 1);
        // The sealed epoch pinned its bytes: the image holds x == 1.
        drop(a);
        let a2 = mgr.load("a", LoadOptions::default()).unwrap();
        a2.with(|h| {
            let t = h.get_root("t").unwrap();
            assert_eq!(h.field(t, 0), 1, "epoch 2's store stayed out");
        });
    }

    #[test]
    fn reopen_after_async_commit_waits_for_the_apply() {
        let mgr = HeapManager::temp().unwrap();
        let a = mgr.create("a", 4 << 20, PjhConfig::small()).unwrap();
        a.with_mut(|h| {
            let k = h.register_instance("T", vec![FieldDesc::prim("x")])?;
            let t = h.alloc_instance(k)?;
            h.set_field(t, 0, 7);
            h.flush_object(t);
            h.set_root("t", t)
        })
        .unwrap();
        // Async commit; the ticket (which keeps the pipeline alive) and
        // the handle are dropped with the apply possibly still queued.
        drop(a.commit().unwrap());
        drop(a);
        // The manager retains the pipeline: load waits for it to go idle
        // before mapping the image, so the committed epoch is always
        // visible — never a torn, half-applied file.
        let a2 = mgr.load("a", LoadOptions::default()).unwrap();
        a2.with(|h| {
            let t = h.get_root("t").expect("async commit landed before load");
            assert_eq!(h.field(t, 0), 7);
        });
    }

    #[test]
    fn delete_after_close_cannot_be_resurrected_by_a_late_apply() {
        let mgr = HeapManager::temp().unwrap();
        let a = mgr.create("a", 4 << 20, PjhConfig::small()).unwrap();
        a.with_mut(|h| {
            let k = h.register_instance("Old", vec![FieldDesc::prim("x")])?;
            let t = h.alloc_instance(k)?;
            h.flush_object(t);
            h.set_root("old", t)
        })
        .unwrap();
        drop(a.commit().unwrap()); // async, maybe still queued
        drop(a); // close the session with the apply in flight
        assert!(mgr.delete_heap("a"), "image existed");
        // The retained pipeline was waited out before the file removal,
        // so no stale apply re-creates or rewrites it.
        assert!(!mgr.exists_heap("a"));
        let fresh = mgr.create("a", 4 << 20, PjhConfig::small()).unwrap();
        fresh.commit_sync().unwrap();
        drop(fresh);
        let reloaded = mgr.load("a", LoadOptions::default()).unwrap();
        reloaded.with(|h| assert_eq!(h.get_root("old"), None, "no bleed-through"));
    }

    #[test]
    fn ticket_state_distinguishes_in_flight_failed_and_durable() {
        let mgr = HeapManager::temp().unwrap();
        let a = mgr.create("a", 4 << 20, PjhConfig::small()).unwrap();
        a.with_mut(|h| {
            let k = h.register_instance("T", vec![FieldDesc::prim("x")])?;
            let t = h.alloc_instance(k)?;
            h.set_field(t, 0, 1);
            h.flush_object(t);
            h.set_root("t", t)
        })
        .unwrap();
        a.set_flush_paused(true);
        let ticket = a.commit().unwrap();
        // Queued behind a paused pipeline: in flight, and saying so does
        // not consume the ticket.
        assert_eq!(ticket.state(), CommitState::InFlight);
        assert_eq!(ticket.state(), CommitState::InFlight);
        // Abort: the ticket turns observably Failed — before this, the
        // only way to see the failure was consuming `wait()`.
        assert_eq!(a.abort_pending_commits(), 1);
        match ticket.state() {
            CommitState::Failed(reason) => assert!(!reason.is_empty(), "reason is surfaced"),
            other => panic!("aborted epoch reads {other:?}, expected Failed"),
        }
        assert_ne!(ticket.state(), CommitState::Durable);
        // A healing commit re-captures the restored lines; once it lands,
        // the old epoch's content is durably in the image and the ticket
        // reads Durable — exactly the pipeline's failure-cascade rule.
        a.set_flush_paused(false);
        let healed = a.commit().unwrap();
        healed.wait().unwrap();
        assert_eq!(ticket.state(), CommitState::Durable);
    }

    #[test]
    fn load_blocked_on_a_paused_pipeline_does_not_wedge_the_manager() {
        let mgr = HeapManager::temp().unwrap();
        let a = mgr.create("a", 4 << 20, PjhConfig::small()).unwrap();
        a.with_mut(|h| {
            let k = h.register_instance("T", vec![FieldDesc::prim("x")])?;
            let t = h.alloc_instance(k)?;
            h.set_field(t, 0, 7);
            h.flush_object(t);
            h.set_root("t", t)
        })
        .unwrap();
        // Seal an epoch into a paused pipeline, then close the session:
        // the retained pipeline holds a queued apply that cannot land.
        a.set_flush_paused(true);
        drop(a.commit().unwrap());
        drop(a);
        // The loader must park waiting for that apply WITHOUT holding the
        // registry lock.
        let loader = {
            let mgr = mgr.clone();
            std::thread::spawn(move || mgr.load("a", LoadOptions::default()))
        };
        std::thread::sleep(std::time::Duration::from_millis(50));
        // Regression: load() used to hold the registry lock across the
        // unbounded pipeline wait, so this unrelated create deadlocked
        // the whole manager.
        let (tx, rx) = std::sync::mpsc::channel();
        {
            let mgr = mgr.clone();
            std::thread::spawn(move || {
                let ok = mgr.create("b", 4 << 20, PjhConfig::small()).is_ok();
                let _ = tx.send(ok);
            });
        }
        assert!(rx
            .recv_timeout(std::time::Duration::from_secs(5))
            .expect("create of an unrelated heap proceeds while a load waits"),);
        // Resume the retained pipeline; the parked loader completes and
        // observes the commit it waited for.
        mgr.inner
            .pipelines
            .lock()
            .get("a")
            .unwrap()
            .set_paused(false);
        let a2 = loader.join().unwrap().unwrap();
        a2.with(|h| {
            let t = h.get_root("t").unwrap();
            assert_eq!(h.field(t, 0), 7);
        });
    }

    #[test]
    fn reloaded_heap_reports_why_gc_escalated_to_full() {
        let mgr = HeapManager::temp().unwrap();
        let a = mgr.create("a", 4 << 20, PjhConfig::small()).unwrap();
        a.with_mut(|h| {
            let k = h.register_instance("T", vec![FieldDesc::prim("x")])?;
            let t = h.alloc_instance(k)?;
            h.flush_object(t);
            h.set_root("t", t)
        })
        .unwrap();
        // A fresh heap has no incremental state: auto escalates and says
        // why. The next cycle runs incrementally with no escalation.
        let first = a.with_mut(|h| h.gc(&[])).unwrap();
        assert_eq!(first.kind, GcKind::Full);
        assert_eq!(first.escalation, Some(GcEscalation::IncrementalNotReady));
        let second = a.with_mut(|h| h.gc(&[])).unwrap();
        assert_eq!(second.kind, GcKind::Incremental);
        assert_eq!(second.escalation, None);
        a.commit_sync().unwrap();
        drop(a);
        // A reload drops the DRAM incremental state. This fallback used
        // to be silent — a `gc()` caller budgeting for an incremental
        // pause got a full compaction with no way to tell; now the report
        // carries the reason.
        let a2 = mgr.load("a", LoadOptions::default()).unwrap();
        let report = a2.with_mut(|h| h.gc(&[])).unwrap();
        assert_eq!(report.kind, GcKind::Full);
        assert_eq!(report.escalation, Some(GcEscalation::IncrementalNotReady));
        // An explicitly requested full collection is not an escalation.
        let forced = a2.with_mut(|h| h.gc_full(&[])).unwrap();
        assert_eq!(forced.escalation, None);
    }

    #[test]
    fn read_sessions_open_while_a_writer_holds_the_heap_lock() {
        let mgr = HeapManager::temp().unwrap();
        let a = mgr.create("a", 4 << 20, PjhConfig::small()).unwrap();
        let t = a
            .with_mut(|h| {
                let k = h.register_instance("T", vec![FieldDesc::prim("x")])?;
                let t = h.alloc_instance(k)?;
                h.set_field(t, 0, 9);
                h.flush_object(t);
                h.set_root("t", t)?;
                Ok::<_, PjhError>(t)
            })
            .unwrap();
        // Hold the exclusive writer lock for the whole scope.
        let writer = a.write();
        let (tx, rx) = std::sync::mpsc::channel();
        let reader = {
            let a = a.clone();
            std::thread::spawn(move || {
                let session = a.read(); // must not touch the writer lock
                let _ = tx.send(session.field(t, 0));
            })
        };
        // Regression: when read() shared the RwLock, this recv timed out
        // until the writer dropped.
        assert_eq!(
            rx.recv_timeout(std::time::Duration::from_secs(5))
                .expect("read session opens concurrently with a held write lock"),
            9
        );
        reader.join().unwrap();
        drop(writer);
    }

    #[test]
    fn pinned_reader_defers_region_reclamation_across_full_gc() {
        let mgr = HeapManager::temp().unwrap();
        let a = mgr.create("a", 1 << 20, PjhConfig::small()).unwrap();
        let (k, live, garbage) = a
            .with_mut(|h| {
                let k = h.register_instance("T", vec![FieldDesc::prim("x")])?;
                let mut garbage = Vec::new();
                for i in 0..64u64 {
                    let g = h.alloc_instance(k)?;
                    h.set_field(g, 0, 1000 + i);
                    h.flush_object(g);
                    garbage.push(g);
                }
                let live = h.alloc_instance(k)?;
                h.set_field(live, 0, 7);
                h.flush_object(live);
                h.set_root("live", live)?;
                Ok::<_, PjhError>((k, live, garbage))
            })
            .unwrap();
        let session = a.read();
        // A full compaction runs concurrently with the pinned session;
        // the regions it frees are deferred, not reclaimed.
        let report = a.with_mut(|h| h.gc_full(&[])).unwrap();
        assert_eq!(report.kind, GcKind::Full);
        // Every ref the session captured before the collection — live
        // (now relocated; its source copy is the one we read) and garbage
        // alike — still reads its original bytes.
        assert_eq!(session.field(live, 0), 7);
        for (i, g) in garbage.iter().enumerate() {
            assert_eq!(
                session.field(*g, 0),
                1000 + i as u64,
                "evacuated source region stays intact while pinned"
            );
        }
        // Deferred regions are unavailable to the allocator: exhaust the
        // reusable space and hit HeapFull even though `free` has slack.
        let exhausted = a.with_mut(|h| loop {
            match h.alloc_instance(k) {
                Ok(_) => {}
                Err(PjhError::HeapFull { .. }) => break true,
                Err(e) => panic!("unexpected allocation error: {e}"),
            }
        });
        assert!(exhausted);
        // Dropping the session drains the pin; the deferred regions
        // become reusable and the very same allocation succeeds.
        drop(session);
        a.with_mut(|h| h.alloc_instance(k))
            .expect("deferred regions reclaimed once the last pin drops");
    }

    #[test]
    fn aborted_pending_commit_recovers_to_last_durable_epoch() {
        let mgr = HeapManager::temp().unwrap();
        let a = mgr.create("a", 4 << 20, PjhConfig::small()).unwrap();
        let t = a
            .with_mut(|h| {
                let k = h.register_instance("T", vec![FieldDesc::prim("x")])?;
                let t = h.alloc_instance(k)?;
                h.set_field(t, 0, 10);
                h.flush_object(t);
                h.set_root("t", t)?;
                Ok::<_, PjhError>(t)
            })
            .unwrap();
        a.commit_sync().unwrap(); // epoch 1 durable
        a.with_mut(|h| {
            h.set_field(t, 0, 20);
            h.flush_field(t, 0);
        });
        a.set_flush_paused(true);
        let ticket = a.commit().unwrap(); // epoch 2 sealed, never applied
        assert_eq!(a.abort_pending_commits(), 1);
        assert!(ticket.wait().is_err(), "aborted epoch reports failure");
        // A retry commit re-captures the restored lines and heals.
        a.set_flush_paused(false);
        let healed = a.commit_sync().unwrap();
        assert!(healed.synced_lines > 0, "restored lines were re-captured");
        drop(a);
        let a2 = mgr.load("a", LoadOptions::default()).unwrap();
        a2.with(|h| {
            let t = h.get_root("t").unwrap();
            assert_eq!(h.field(t, 0), 20);
        });
    }
}
