//! A sharded multi-heap façade: one logical persistent heap spread over
//! N PJH instances, routed by key hash.
//!
//! A single PJH instance serializes every mutation behind one lock and
//! compacts as one unit; the multi-heap workloads in the roadmap (many
//! tenants, serving-scale object churn) want independent persistence
//! domains that can allocate, collect, and commit in isolation.
//! [`ShardedHeap`] opens `N` named heaps (`{base}.shard{i}`) through one
//! [`HeapManager`] and routes `register_instance` / `alloc_instance` /
//! root traffic across them by FNV-1a key hash. References never cross
//! shards — a [`ShardRef`] carries its shard index, and cross-shard
//! stores are rejected, so each shard remains an independently
//! crash-consistent, independently collectable heap.
//!
//! # Example
//!
//! ```
//! use espresso_core::{HeapManager, PjhConfig, ShardedHeap};
//! use espresso_object::FieldDesc;
//!
//! # fn main() -> Result<(), espresso_core::PjhError> {
//! let mgr = HeapManager::temp()?;
//! let heap = ShardedHeap::create(&mgr, "tenants", 4, 4 << 20, PjhConfig::small())?;
//! let k = heap.register_instance("Account", vec![FieldDesc::prim("balance")])?;
//! let acct = heap.alloc_instance("alice", &k)?;
//! heap.set_field(acct, 0, 100);
//! heap.flush_object(acct);
//! heap.set_root("alice", acct)?;
//! heap.commit_sync()?; // commits every shard in parallel, waits for all
//! assert_eq!(heap.get_root("alice"), Some(acct));
//! # Ok(())
//! # }
//! ```

use espresso_object::{fnv1a, FieldDesc, KlassId, PClass, PObject, Ref, FNV1A_OFFSET};

use crate::heap::{HeapCensus, LoadOptions};
use crate::manager::{CommitReport, CommitState, CommitTicket, HeapHandle, HeapManager};
use crate::txn::HeapTxn;
use crate::{PjhConfig, PjhError};

/// One sealed commit epoch per shard, returned by [`ShardedHeap::commit`].
///
/// Each shard's image sync runs on that shard's own flush pipeline, so the
/// applies proceed in parallel; [`wait`](Self::wait) is the all-shards
/// durability barrier.
#[derive(Debug)]
pub struct ShardedCommitTicket {
    tickets: Vec<CommitTicket>,
}

impl ShardedCommitTicket {
    /// Per-shard tickets, in shard order.
    pub fn tickets(&self) -> &[CommitTicket] {
        &self.tickets
    }

    /// Where the fan-out stands right now, without consuming the barrier
    /// or blocking — the sharded counterpart of [`CommitTicket::state`]
    /// (a serving layer's commit leader polls *this* to fan replies out as
    /// shards turn durable). Aggregation rules:
    ///
    /// * [`CommitState::Durable`] once **every** shard's epoch is durable
    ///   — the same condition under which [`wait`](Self::wait) returns
    ///   `Ok`.
    /// * [`CommitState::Failed`] as soon as **any** shard's epoch sits in
    ///   its pipeline's failure cascade uncovered (first failing shard's
    ///   reason, tagged with its index). Like the single-heap state, this
    ///   heals back to in-flight/durable once a later apply covers the
    ///   restored lines.
    /// * [`CommitState::InFlight`] otherwise.
    pub fn state(&self) -> CommitState {
        let mut all_durable = true;
        for (shard, ticket) in self.tickets.iter().enumerate() {
            match ticket.state() {
                CommitState::Durable => {}
                CommitState::InFlight => all_durable = false,
                CommitState::Failed(reason) => {
                    return CommitState::Failed(format!("shard {shard}: {reason}"));
                }
            }
        }
        if all_durable {
            CommitState::Durable
        } else {
            CommitState::InFlight
        }
    }

    /// Blocks until every shard's sealed epoch is durable, returning the
    /// aggregate report.
    ///
    /// # Errors
    ///
    /// The first shard's apply error (every ticket is still waited, so no
    /// pipeline is left mid-flight).
    pub fn wait(self) -> crate::Result<CommitReport> {
        let mut total = CommitReport::default();
        let mut first_err = None;
        for ticket in self.tickets {
            match ticket.wait() {
                Ok(r) => {
                    total.synced_lines += r.synced_lines;
                    total.synced_bytes += r.synced_bytes;
                    total.full_rewrite |= r.full_rewrite;
                    total.managed |= r.managed;
                }
                Err(e) => first_err = first_err.or(Some(e)),
            }
        }
        match first_err {
            None => Ok(total),
            Some(e) => Err(e),
        }
    }
}

/// A reference into one shard of a [`ShardedHeap`].
///
/// The plain [`Ref`] is only meaningful inside its shard's address space,
/// so the façade pairs it with the shard index and refuses to mix them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShardRef {
    /// Which shard the reference lives in.
    pub shard: usize,
    /// The in-shard reference.
    pub r: Ref,
}

/// A class registered on every shard (klass ids may differ per shard, so
/// the façade keeps one id per instance).
#[derive(Debug, Clone)]
pub struct ShardedKlass {
    ids: Vec<KlassId>,
}

impl ShardedKlass {
    /// The klass id within `shard`.
    pub fn id(&self, shard: usize) -> KlassId {
        self.ids[shard]
    }
}

/// FNV-1a hash of a routing key (stable across processes and restarts, so
/// a key always finds the shard that allocated it).
pub fn hash_key(key: &str) -> u64 {
    fnv1a(FNV1A_OFFSET, key.as_bytes())
}

/// N PJH instances behind one key-routed façade: see the module-level
/// overview above for routing and isolation rules.
#[derive(Debug, Clone)]
pub struct ShardedHeap {
    base: String,
    shards: Vec<HeapHandle>,
}

fn shard_name(base: &str, i: usize) -> String {
    format!("{base}.shard{i}")
}

impl ShardedHeap {
    /// Creates `shards` fresh heaps of `shard_size` bytes each under
    /// `base` and opens the façade over them.
    ///
    /// # Errors
    ///
    /// [`PjhError::HeapExists`] if any shard name is taken; creation
    /// errors otherwise.
    pub fn create(
        mgr: &HeapManager,
        base: &str,
        shards: usize,
        shard_size: usize,
        config: PjhConfig,
    ) -> crate::Result<ShardedHeap> {
        assert!(shards > 0, "a sharded heap needs at least one shard");
        let shards = (0..shards)
            .map(|i| mgr.create(&shard_name(base, i), shard_size, config.clone()))
            .collect::<crate::Result<Vec<_>>>()?;
        Ok(ShardedHeap {
            base: base.to_string(),
            shards,
        })
    }

    /// Opens an existing sharded heap, discovering the shard count from
    /// the manager (shards are numbered densely from 0). Shards already
    /// open in the manager's live registry are shared, like any load.
    ///
    /// # Errors
    ///
    /// [`PjhError::NoSuchHeap`] if `base` has no shard 0; loading errors
    /// otherwise.
    pub fn open(mgr: &HeapManager, base: &str, options: LoadOptions) -> crate::Result<ShardedHeap> {
        let mut shards = Vec::new();
        while mgr.exists_heap(&shard_name(base, shards.len())) {
            shards.push(mgr.load(&shard_name(base, shards.len()), options.clone())?);
        }
        if shards.is_empty() {
            return Err(PjhError::NoSuchHeap {
                name: shard_name(base, 0),
            });
        }
        Ok(ShardedHeap {
            base: base.to_string(),
            shards,
        })
    }

    /// Whether `base` names an existing sharded heap under `mgr`.
    pub fn exists(mgr: &HeapManager, base: &str) -> bool {
        mgr.exists_heap(&shard_name(base, 0))
    }

    /// The base name.
    pub fn base(&self) -> &str {
        &self.base
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard a routing key maps to.
    pub fn shard_of(&self, key: &str) -> usize {
        (hash_key(key) % self.shards.len() as u64) as usize
    }

    /// The handle of shard `i`.
    pub fn handle(&self, i: usize) -> &HeapHandle {
        &self.shards[i]
    }

    /// The handle the routing key maps to.
    pub fn handle_for(&self, key: &str) -> &HeapHandle {
        &self.shards[self.shard_of(key)]
    }

    // ---- routed class registration and allocation ----

    /// Registers an instance class on every shard.
    ///
    /// # Errors
    ///
    /// [`PjhError::KlassLayoutMismatch`] if any shard persisted a
    /// different layout for this name.
    pub fn register_instance(
        &self,
        name: &str,
        fields: Vec<FieldDesc>,
    ) -> crate::Result<ShardedKlass> {
        let ids = self
            .shards
            .iter()
            .map(|s| s.with_mut(|h| h.register_instance(name, fields.clone())))
            .collect::<crate::Result<Vec<_>>>()?;
        Ok(ShardedKlass { ids })
    }

    // ---- typed surface: schemas, roots, and sessions routed by key ----
    //
    // The façade's typed counterparts of `register_instance`/`set_root`/
    // `get_root`. Typed *transactions* need no new surface: `txn(key, f)`
    // already hands the closure a `HeapTxn`, whose typed allocation and
    // store methods all work per-shard. Field handles resolved from the
    // returned `PClass<T>` are positional (schema order), so one handle
    // set is valid on every shard even though klass ids differ.

    /// Registers (and validates) `T`'s schema on **every** shard, so a
    /// typed workload can touch any key without dropping to the raw word
    /// API. Returns the typed class handle; its field accessors are valid
    /// on all shards.
    ///
    /// # Errors
    ///
    /// [`PjhError::SchemaMismatch`] / [`PjhError::KlassLayoutMismatch`] if
    /// any shard persisted a different layout or fingerprint for
    /// `T::CLASS_NAME`.
    pub fn register<T: PObject + 'static>(&self) -> crate::Result<PClass<T>> {
        let mut first = None;
        for s in &self.shards {
            let class = s.with_mut(|h| h.register::<T>())?;
            first.get_or_insert(class);
        }
        Ok(first.expect("at least one shard"))
    }

    /// Allocates an instance in the shard `key` routes to.
    ///
    /// # Errors
    ///
    /// Allocation errors from the target shard.
    pub fn alloc_instance(&self, key: &str, klass: &ShardedKlass) -> crate::Result<ShardRef> {
        let shard = self.shard_of(key);
        let r = self.shards[shard].with_mut(|h| h.alloc_instance(klass.ids[shard]))?;
        Ok(ShardRef { shard, r })
    }

    // ---- field access through the owning shard ----

    /// Reads raw field `index`.
    pub fn field(&self, r: ShardRef, index: usize) -> u64 {
        self.shards[r.shard].with(|h| h.field(r.r, index))
    }

    /// Writes raw field `index` (volatile until flushed).
    pub fn set_field(&self, r: ShardRef, index: usize, value: u64) {
        self.shards[r.shard].with_mut(|h| h.set_field(r.r, index, value));
    }

    /// Reads reference field `index` (stays inside `r`'s shard).
    pub fn field_ref(&self, r: ShardRef, index: usize) -> ShardRef {
        ShardRef {
            shard: r.shard,
            r: self.shards[r.shard].with(|h| h.field_ref(r.r, index)),
        }
    }

    /// Writes reference field `index`.
    ///
    /// # Errors
    ///
    /// [`PjhError::SafetyViolation`] when `value` lives in a different
    /// shard — cross-shard pointers would dangle, every shard being its
    /// own address space and persistence domain.
    pub fn set_field_ref(&self, r: ShardRef, index: usize, value: ShardRef) -> crate::Result<()> {
        if value.shard != r.shard {
            return Err(PjhError::SafetyViolation {
                reason: format!(
                    "cross-shard reference (object in shard {}, value in shard {})",
                    r.shard, value.shard
                ),
            });
        }
        self.shards[r.shard].with_mut(|h| h.set_field_ref(r.r, index, value.r))
    }

    /// Persists every data word of the object (`Object.flush`).
    pub fn flush_object(&self, r: ShardRef) {
        self.shards[r.shard].with(|h| h.flush_object(r.r));
    }

    // ---- routed roots ----

    /// Publishes `r` under `key` in the shard `key` routes to.
    ///
    /// # Errors
    ///
    /// [`PjhError::SafetyViolation`] if `r` lives in a different shard
    /// than `key` routes to (allocate with the same key to colocate);
    /// name-table errors otherwise.
    pub fn set_root(&self, key: &str, r: ShardRef) -> crate::Result<()> {
        let shard = self.shard_of(key);
        if r.shard != shard {
            return Err(PjhError::SafetyViolation {
                reason: format!(
                    "root {key:?} routes to shard {shard} but the object lives in shard {}",
                    r.shard
                ),
            });
        }
        self.shards[shard].with_mut(|h| h.set_root(key, r.r))
    }

    /// Fetches the root published under `key`.
    pub fn get_root(&self, key: &str) -> Option<ShardRef> {
        let shard = self.shard_of(key);
        self.shards[shard]
            .with(|h| h.get_root(key))
            .map(|r| ShardRef { shard, r })
    }

    /// Removes the root published under `key`; returns whether it existed.
    pub fn remove_root(&self, key: &str) -> bool {
        let shard = self.shard_of(key);
        self.shards[shard].with_mut(|h| h.remove_root(key))
    }

    // ---- shard-scoped transactions, commits, maintenance ----

    /// Runs an undo-logged transaction on the shard `key` routes to (see
    /// `HeapHandle::txn`). Transactions never span shards: each shard is
    /// its own atomicity domain.
    ///
    /// # Errors
    ///
    /// Propagates the closure's error after aborting.
    pub fn txn<T>(
        &self,
        key: &str,
        f: impl FnOnce(&mut HeapTxn<'_>) -> crate::Result<T>,
    ) -> crate::Result<T> {
        self.handle_for(key).txn(f)
    }

    /// Commits every shard: seals one epoch per shard and fans the image
    /// syncs out across the shards' flush pipelines — the applies run in
    /// parallel, and mutations of the next epoch proceed on every shard
    /// immediately. The returned [`ShardedCommitTicket`] is the all-shards
    /// durability barrier; [`commit_sync`](Self::commit_sync) waits
    /// inline.
    ///
    /// # Errors
    ///
    /// Seal-time errors from any shard (apply errors surface through the
    /// ticket).
    pub fn commit(&self) -> crate::Result<ShardedCommitTicket> {
        let tickets = self
            .shards
            .iter()
            .map(HeapHandle::commit)
            .collect::<crate::Result<Vec<_>>>()?;
        Ok(ShardedCommitTicket { tickets })
    }

    /// Commits every shard and blocks until all are durable, returning
    /// the aggregate report. Equivalent to `self.commit()?.wait()`.
    ///
    /// # Errors
    ///
    /// The first shard's I/O error.
    pub fn commit_sync(&self) -> crate::Result<CommitReport> {
        self.commit()?.wait()
    }

    /// Deepest per-shard flush-pipeline queue: commit epochs sealed but
    /// not yet applied, maximized over shards. The serving layer's
    /// backpressure signal — when one shard's pipeline lags, writes
    /// routed anywhere may still be waiting on it at the all-shards
    /// barrier, so the worst shard is the honest number.
    pub fn pending_commits(&self) -> usize {
        self.shards
            .iter()
            .map(HeapHandle::pending_commits)
            .max()
            .unwrap_or(0)
    }

    /// Pauses (or resumes) background applies on **every** shard — the
    /// fan-out of [`HeapHandle::set_flush_paused`], used by tests to make
    /// a lagging flush pipeline deterministic.
    pub fn set_flush_paused(&self, paused: bool) {
        for s in &self.shards {
            s.set_flush_paused(paused);
        }
    }

    /// Collects every shard, fanning the collections out on a scoped
    /// thread pool (one thread per shard) — shards are independent GC
    /// domains, so their collections never need to serialize.
    ///
    /// # Errors
    ///
    /// The first shard's device error.
    pub fn gc(&self) -> crate::Result<()> {
        let mut results: Vec<crate::Result<()>> = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .shards
                .iter()
                .map(|s| scope.spawn(move || s.with_mut(|h| h.gc(&[]).map(|_| ()))))
                .collect();
            results.extend(
                handles
                    .into_iter()
                    .map(|j| j.join().expect("shard gc thread panicked")),
            );
        });
        results.into_iter().collect()
    }

    /// Aggregate allocator/collector statistics over all shards.
    pub fn heap_stats(&self) -> crate::HeapStats {
        let mut total = crate::HeapStats::default();
        for s in &self.shards {
            total.merge(&s.heap_stats());
        }
        total
    }

    /// Aggregate census over all shards.
    pub fn census(&self) -> HeapCensus {
        let mut total = HeapCensus::default();
        for s in &self.shards {
            let c = s.with(|h| h.census());
            total.objects += c.objects;
            total.object_words += c.object_words;
            total.free_regions += c.free_regions;
            total.total_regions += c.total_regions;
            total.segment_klasses += c.segment_klasses;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fields() -> Vec<FieldDesc> {
        vec![FieldDesc::prim("v"), FieldDesc::reference("next")]
    }

    #[test]
    fn routes_keys_across_all_shards() {
        let mgr = HeapManager::temp().unwrap();
        let sh = ShardedHeap::create(&mgr, "s", 4, 4 << 20, PjhConfig::small()).unwrap();
        let k = sh.register_instance("Rec", fields()).unwrap();
        let mut used = [false; 4];
        for i in 0..64 {
            let key = format!("key{i}");
            let r = sh.alloc_instance(&key, &k).unwrap();
            used[r.shard] = true;
            sh.set_field(r, 0, i);
            assert_eq!(sh.field(r, 0), i);
        }
        assert!(used.iter().all(|&u| u), "64 keys should hit all 4 shards");
        // Routing is part of the on-disk format: a key must keep finding
        // the shard that allocated it, across builds.
        assert_eq!(hash_key("c0k00042"), 0xacd8_d468_6419_55eb);
        assert_eq!(sh.census().objects, 64);
    }

    #[test]
    fn cross_shard_references_are_rejected() {
        let mgr = HeapManager::temp().unwrap();
        let sh = ShardedHeap::create(&mgr, "x", 2, 4 << 20, PjhConfig::small()).unwrap();
        let k = sh.register_instance("Rec", fields()).unwrap();
        // Find two keys on different shards.
        let a = sh.alloc_instance("aaa", &k).unwrap();
        let mut i = 0;
        let b = loop {
            let key = format!("b{i}");
            if sh.shard_of(&key) != a.shard {
                break sh.alloc_instance(&key, &k).unwrap();
            }
            i += 1;
        };
        assert!(matches!(
            sh.set_field_ref(a, 1, b),
            Err(PjhError::SafetyViolation { .. })
        ));
        // Same-shard references are fine.
        let a2 = sh.alloc_instance("aaa", &k).unwrap();
        assert_eq!(a2.shard, a.shard);
        sh.set_field_ref(a, 1, a2).unwrap();
        assert_eq!(sh.field_ref(a, 1), a2);
    }

    #[test]
    fn roots_route_with_their_keys() {
        let mgr = HeapManager::temp().unwrap();
        let sh = ShardedHeap::create(&mgr, "r", 4, 4 << 20, PjhConfig::small()).unwrap();
        let k = sh.register_instance("Rec", fields()).unwrap();
        for i in 0..16 {
            let key = format!("user{i}");
            let r = sh.alloc_instance(&key, &k).unwrap();
            sh.set_field(r, 0, i);
            sh.flush_object(r);
            sh.set_root(&key, r).unwrap();
        }
        for i in 0..16 {
            let key = format!("user{i}");
            let r = sh.get_root(&key).unwrap();
            assert_eq!(r.shard, sh.shard_of(&key));
            assert_eq!(sh.field(r, 0), i);
        }
        assert!(sh.remove_root("user3"));
        assert_eq!(sh.get_root("user3"), None);
    }

    #[test]
    fn four_shard_alloc_commit_reload_end_to_end() {
        let mgr = HeapManager::temp().unwrap();
        let sh = ShardedHeap::create(&mgr, "e2e", 4, 4 << 20, PjhConfig::small()).unwrap();
        let k = sh.register_instance("Rec", fields()).unwrap();
        for i in 0..32 {
            let key = format!("k{i}");
            let r = sh.alloc_instance(&key, &k).unwrap();
            sh.txn(&key, |t| {
                t.set_field(r.r, 0, i * 11);
                Ok(())
            })
            .unwrap();
            sh.set_root(&key, r).unwrap();
        }
        let report = sh.commit_sync().unwrap();
        assert!(report.managed && report.synced_lines > 0);
        // Close every shard, then reopen from the images.
        drop(sh);
        let sh2 = ShardedHeap::open(&mgr, "e2e", LoadOptions::default()).unwrap();
        assert_eq!(sh2.num_shards(), 4);
        for i in 0..32 {
            let key = format!("k{i}");
            let r = sh2.get_root(&key).expect("root survived per shard");
            assert_eq!(sh2.field(r, 0), i * 11);
        }
        for i in 0..4 {
            sh2.handle(i).with(|h| h.verify_integrity().unwrap());
        }
    }

    #[test]
    fn txn_routes_and_aborts_per_shard() {
        let mgr = HeapManager::temp().unwrap();
        let sh = ShardedHeap::create(&mgr, "t", 2, 4 << 20, PjhConfig::small()).unwrap();
        let k = sh.register_instance("Rec", fields()).unwrap();
        let r = sh.alloc_instance("k", &k).unwrap();
        sh.txn("k", |t| {
            t.set_field(r.r, 0, 1);
            Ok(())
        })
        .unwrap();
        let out: crate::Result<()> = sh.txn("k", |t| {
            t.set_field(r.r, 0, 99);
            Err(PjhError::NotAHeap)
        });
        assert!(out.is_err());
        assert_eq!(sh.field(r, 0), 1, "shard-local abort rolled back");
    }

    #[test]
    fn commit_fans_out_one_epoch_per_shard() {
        let mgr = HeapManager::temp().unwrap();
        let sh = ShardedHeap::create(&mgr, "fan", 4, 4 << 20, PjhConfig::small()).unwrap();
        let k = sh.register_instance("Rec", fields()).unwrap();
        for i in 0..32 {
            let key = format!("k{i}");
            let r = sh.alloc_instance(&key, &k).unwrap();
            sh.set_field(r, 0, i);
            sh.flush_object(r);
        }
        let ticket = sh.commit().unwrap();
        assert_eq!(ticket.tickets().len(), 4);
        let report = ticket.wait().unwrap();
        assert!(report.managed && report.synced_lines > 0);
        for i in 0..4 {
            assert_eq!(sh.handle(i).sealed_epoch(), 1);
            assert_eq!(sh.handle(i).durable_epoch(), 1);
        }
    }

    #[test]
    fn gc_collects_every_shard_in_parallel() {
        let mgr = HeapManager::temp().unwrap();
        let sh = ShardedHeap::create(&mgr, "gc", 4, 4 << 20, PjhConfig::small()).unwrap();
        let k = sh.register_instance("Rec", fields()).unwrap();
        // Garbage everywhere, one live root per shard-ish key.
        for i in 0..64 {
            let key = format!("g{i}");
            let r = sh.alloc_instance(&key, &k).unwrap();
            if i % 8 == 0 {
                sh.set_root(&key, r).unwrap();
            }
        }
        let before = sh.census().objects;
        sh.gc().unwrap();
        let after = sh.census().objects;
        assert!(after < before, "garbage reclaimed ({before} -> {after})");
        for i in 0..64 {
            let key = format!("g{i}");
            if i % 8 == 0 {
                let r = sh.get_root(&key).expect("live root survived gc");
                assert_eq!(r.shard, sh.shard_of(&key));
            }
        }
        for i in 0..4 {
            sh.handle(i).with(|h| h.verify_integrity().unwrap());
        }
    }

    #[test]
    fn sharded_ticket_state_is_non_consuming_and_aggregates() {
        let mgr = HeapManager::temp().unwrap();
        let sh = ShardedHeap::create(&mgr, "st", 2, 4 << 20, PjhConfig::small()).unwrap();
        let k = sh.register_instance("Rec", fields()).unwrap();
        for i in 0..16 {
            let key = format!("k{i}");
            let r = sh.alloc_instance(&key, &k).unwrap();
            sh.set_field(r, 0, i);
            sh.flush_object(r);
        }
        // Hold every shard's apply: the fan-out is observably in flight,
        // and asking does not consume the barrier.
        sh.set_flush_paused(true);
        let ticket = sh.commit().unwrap();
        assert_eq!(ticket.state(), CommitState::InFlight);
        assert_eq!(ticket.state(), CommitState::InFlight);
        assert!(sh.pending_commits() >= 1, "queued applies are observable");
        // Abort one shard's queued apply: the aggregate turns Failed with
        // the shard named, while the other shard is merely in flight.
        assert_eq!(sh.handle(0).abort_pending_commits(), 1);
        match ticket.state() {
            CommitState::Failed(reason) => {
                assert!(reason.starts_with("shard 0:"), "{reason}");
            }
            other => panic!("one aborted shard must surface as Failed, got {other:?}"),
        }
        // Resume and heal shard 0 with a fresh commit; once every shard's
        // epoch is durable the same barrier reads Durable — and `wait`
        // (the consuming path) agrees.
        sh.set_flush_paused(false);
        sh.handle(0).commit_sync().unwrap();
        sh.handle(1).commit_sync().unwrap();
        assert_eq!(ticket.state(), CommitState::Durable);
        assert_eq!(sh.pending_commits(), 0);
    }

    #[test]
    fn typed_surface_routes_by_key() {
        use espresso_object::{PObject, Schema};
        struct Acct;
        impl PObject for Acct {
            const CLASS_NAME: &'static str = "ShardAcct";
            fn schema() -> Schema {
                Schema::builder("ShardAcct")
                    .u64_field("bal")
                    .str_field("owner")
                    .build()
            }
        }
        let mgr = HeapManager::temp().unwrap();
        let sh = ShardedHeap::create(&mgr, "ty", 4, 4 << 20, PjhConfig::small()).unwrap();
        let class = sh.register::<Acct>().unwrap();
        let bal = class.field::<u64>("bal").unwrap();
        let owner = class.str_field("owner").unwrap();
        // Typed txn + typed root per key, across all shards.
        for i in 0..16u64 {
            let key = format!("acct{i}");
            let acct = sh
                .txn(&key, |t| {
                    let a = t.alloc::<Acct>()?;
                    t.set(a, bal, i * 100);
                    t.set_str(a, owner, &format!("user{i}"))?;
                    Ok(a)
                })
                .unwrap();
            sh.handle_for(&key).set_root_typed(&key, acct).unwrap();
        }
        sh.commit_sync().unwrap();
        for i in 0..16u64 {
            let key = format!("acct{i}");
            let session = sh.handle_for(&key).read();
            let a = session.root::<Acct>(&key).unwrap().expect("typed root");
            assert_eq!(session.get(a, bal), i * 100);
            assert_eq!(
                session.get_str(a, owner).as_deref(),
                Some(format!("user{i}").as_str())
            );
        }
        // Reopen: schemas revalidate on every shard, typed roots survive.
        drop(sh);
        let sh2 = ShardedHeap::open(&mgr, "ty", LoadOptions::default()).unwrap();
        sh2.register::<Acct>().unwrap();
        let a = sh2
            .handle_for("acct3")
            .root::<Acct>("acct3")
            .unwrap()
            .expect("reloaded root");
        assert_eq!(sh2.handle_for("acct3").with(|h| h.get(a, bal)), 300);
    }

    #[test]
    fn open_missing_base_errors() {
        let mgr = HeapManager::temp().unwrap();
        assert!(!ShardedHeap::exists(&mgr, "nope"));
        assert!(matches!(
            ShardedHeap::open(&mgr, "nope", LoadOptions::default()),
            Err(PjhError::NoSuchHeap { .. })
        ));
    }
}
