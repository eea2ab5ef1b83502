//! The PJO provider (modified-DataNucleus equivalent).

use std::collections::HashMap;
use std::fmt;
use std::time::Instant;

use espresso_core::{CommitReport, CommitTicket, HeapHandle, Pjh, PjhError, ReadSession};
use espresso_jpa::{EntityMeta, EntityObject};
use espresso_minidb::{ColType, Connection, DbError, Value};
use espresso_object::{Ref, Schema};

/// Errors from the PJO provider.
#[derive(Debug)]
pub enum PjoError {
    /// Backend database failure.
    Db(DbError),
    /// Persistent heap failure.
    Pjh(PjhError),
}

impl fmt::Display for PjoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PjoError::Db(e) => write!(f, "backend database: {e}"),
            PjoError::Pjh(e) => write!(f, "persistent heap: {e}"),
        }
    }
}

impl std::error::Error for PjoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PjoError::Db(e) => Some(e),
            PjoError::Pjh(e) => Some(e),
        }
    }
}

impl From<DbError> for PjoError {
    fn from(e: DbError) -> Self {
        PjoError::Db(e)
    }
}

impl From<PjhError> for PjoError {
    fn from(e: PjhError) -> Self {
        PjoError::Pjh(e)
    }
}

/// Provider-side counters; the "transformation" column of Figure 17 is
/// `ship_ns` here (object → DBPersistable handoff), which PJO makes tiny.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PjoStats {
    /// Nanoseconds preparing/shipping DBPersistable objects (PJO's whole
    /// "transformation" replacement).
    pub ship_ns: u64,
    /// Nanoseconds maintaining PJH copies (deduplication writes).
    pub dedup_ns: u64,
    /// Backend calls issued.
    pub statements: u64,
    /// Transactions committed.
    pub commits: u64,
    /// `find` calls answered from the PJH copy instead of the backend.
    pub dedup_hits: u64,
}

enum Pending {
    Insert(EntityObject),
    Update(EntityObject),
    Remove(EntityMeta, Value),
}

fn key_i64(v: &Value) -> i64 {
    match v {
        Value::Int(i) => *i,
        _ => 0,
    }
}

/// The typed schema of an entity's DBPersistable copy: `Int` columns
/// become `i64` fields, `Text` columns become `str` fields (length-
/// prefixed byte arrays, `Pjh::alloc_string`'s representation). Going
/// through [`Pjh::register_schema`] gives the dedup copies the same
/// schema-evolution guard as hand-declared classes — an entity whose
/// column types drifted from the heap image is rejected with a real
/// error at registration.
fn pjh_schema(meta: &EntityMeta) -> Schema {
    meta.fields()
        .iter()
        .fold(
            Schema::builder(&format!("DB{}", meta.name())),
            |b, (n, t)| match t {
                ColType::Int => b.i64_field(n),
                ColType::Text => b.str_field(n),
            },
        )
        .build()
}

fn pjh_klass(h: &mut Pjh, meta: &EntityMeta) -> Result<espresso_object::KlassId, PjhError> {
    h.register_schema(&pjh_schema(meta))
}

/// The PJO entity manager: JPA's API, PJH's data path. See the
/// [crate docs](crate).
///
/// The persistent heap is held through a shared [`HeapHandle`], so the
/// same heap can serve other sessions concurrently;
/// [`commit`](Self::commit) ends with the handle's commit point when the
/// heap is manager-backed.
pub struct PjoEntityManager {
    conn: Connection,
    pjh: HeapHandle,
    pending: Vec<Pending>,
    /// Deduplicated copies: (table, pk) → PJH object.
    copies: HashMap<(String, i64), Ref>,
    dedup: bool,
    stats: PjoStats,
}

impl fmt::Debug for PjoEntityManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PjoEntityManager")
            .field("pending", &self.pending.len())
            .field("copies", &self.copies.len())
            .finish()
    }
}

impl PjoEntityManager {
    /// Wraps a backend connection and a persistent heap (a shared
    /// [`HeapHandle`] or a raw [`Pjh`], which is wrapped in an unmanaged
    /// handle).
    pub fn new(conn: Connection, pjh: impl Into<HeapHandle>) -> PjoEntityManager {
        PjoEntityManager {
            conn,
            pjh: pjh.into(),
            pending: Vec::new(),
            copies: HashMap::new(),
            dedup: false,
            stats: PjoStats::default(),
        }
    }

    /// Enables or disables the data-deduplication optimization (§5,
    /// Figure 14d): when on, commits also write a DBPersistable copy into
    /// PJH and `find` hydrates from it. Off by default because it trades
    /// extra commit work for cheaper retrieves.
    pub fn set_dedup(&mut self, enabled: bool) {
        self.dedup = enabled;
    }

    /// Provider counters.
    pub fn stats(&self) -> PjoStats {
        self.stats
    }

    /// Resets the provider counters.
    pub fn reset_stats(&mut self) {
        self.stats = PjoStats::default();
    }

    /// A read-only session over the persistent heap holding the
    /// deduplicated copies. Lock-free: it never blocks (or is blocked
    /// by) writers — see [`ReadSession`] for the exact guarantees.
    pub fn pjh(&self) -> ReadSession {
        self.pjh.read()
    }

    /// The backend connection.
    pub fn connection(&mut self) -> &mut Connection {
        &mut self.conn
    }

    /// Creates backend tables directly (no DDL text).
    ///
    /// # Errors
    ///
    /// Database errors.
    pub fn create_schema(&mut self, metas: &[&EntityMeta]) -> crate::Result<()> {
        for meta in metas {
            self.conn
                .create_table_direct(meta.name(), meta.fields().to_vec(), meta.pk())?;
            for c in 0..meta.collections().len() {
                self.conn.create_table_direct(
                    &meta.collection_table(c),
                    vec![
                        ("rowid".to_string(), ColType::Int),
                        ("owner".to_string(), ColType::Int),
                        ("idx".to_string(), ColType::Int),
                        ("value".to_string(), ColType::Int),
                    ],
                    0,
                )?;
            }
        }
        Ok(())
    }

    /// Starts a transaction.
    pub fn begin(&mut self) {
        self.pending.clear();
        self.conn.begin();
    }

    /// Schedules an insert (`em.persist(p)` — unchanged from JPA).
    pub fn persist(&mut self, obj: EntityObject) {
        self.pending.push(Pending::Insert(obj));
    }

    /// Schedules an update; only dirty fields will reach the backend.
    pub fn merge(&mut self, obj: EntityObject) {
        self.pending.push(Pending::Update(obj));
    }

    /// Schedules a removal by key.
    pub fn remove(&mut self, meta: &EntityMeta, key: Value) {
        self.pending.push(Pending::Remove(meta.clone(), key));
    }

    // ---- the PJH DBPersistable copy (Figure 14) ----

    fn store_copy(&mut self, obj: &EntityObject) -> crate::Result<Ref> {
        let t0 = Instant::now();
        // One write-lock scope covers the whole copy: klass resolution,
        // allocation, field stores, and the object flush.
        let copy = {
            let mut h = self.pjh.write();
            let kid = pjh_klass(&mut h, obj.meta())?;
            let copy = h.alloc_instance(kid)?;
            for (i, (_, ty)) in obj.meta().fields().iter().enumerate() {
                match ty {
                    ColType::Int => h.set_field(copy, i, key_i64(obj.get(i)) as u64),
                    ColType::Text => {
                        let s = match obj.get(i) {
                            Value::Str(s) => s.clone(),
                            _ => String::new(),
                        };
                        let r = h.alloc_string(&s)?;
                        h.set_field_ref(copy, i, r)?;
                    }
                }
            }
            h.flush_object(copy);
            copy
        };
        self.copies
            .insert((obj.meta().name().to_string(), key_i64(obj.key())), copy);
        self.stats.dedup_ns += t0.elapsed().as_nanos() as u64;
        Ok(copy)
    }

    /// The deduplicated PJH copy of `(meta, key)`, if one exists.
    pub fn dedup_ref(&self, meta: &EntityMeta, key: &Value) -> Option<Ref> {
        self.copies
            .get(&(meta.name().to_string(), key_i64(key)))
            .copied()
    }

    fn hydrate_from_copy(&self, meta: &EntityMeta, copy: Ref) -> EntityObject {
        let h = self.pjh.read();
        let mut obj = meta.instantiate();
        for (i, (_, ty)) in meta.fields().iter().enumerate() {
            let v = match ty {
                ColType::Int => Value::Int(h.field(copy, i) as i64),
                ColType::Text => {
                    let r = h.field_ref(copy, i);
                    if r.is_null() {
                        Value::Null
                    } else {
                        Value::Str(h.read_string(r))
                    }
                }
            };
            obj.set(i, v);
        }
        obj
    }

    // ---- query & commit ----

    /// Loads an entity. Served from the PJH copy (data deduplication) when
    /// one exists and the entity has no collections; otherwise from the
    /// backend through the direct interface.
    ///
    /// # Errors
    ///
    /// Database errors.
    pub fn find(&mut self, meta: &EntityMeta, key: &Value) -> crate::Result<Option<EntityObject>> {
        if meta.collections().is_empty() {
            if let Some(copy) = self.dedup_ref(meta, key) {
                self.stats.dedup_hits += 1;
                let mut obj = self.hydrate_from_copy(meta, copy);
                obj.clear_dirty_public();
                return Ok(Some(obj));
            }
        }
        let Some(row) = self.conn.find_row(meta.name(), key)? else {
            return Ok(None);
        };
        let mut obj = meta.instantiate();
        for (i, v) in row.into_iter().enumerate() {
            obj.set(i, v);
        }
        for c in 0..meta.collections().len() {
            let rows = self.conn.find_rows_by(&meta.collection_table(c), 1, key)?;
            let mut items: Vec<(i64, i64)> = rows
                .into_iter()
                .map(|r| (key_i64(&r[2]), key_i64(&r[3])))
                .collect();
            items.sort_unstable();
            obj.set_collection(c, items.into_iter().map(|(_, v)| v).collect());
        }
        obj.clear_dirty_public();
        Ok(Some(obj))
    }

    fn flush_collections(&mut self, obj: &EntityObject, rowid: &mut i64) -> crate::Result<()> {
        for c in 0..obj.meta().collections().len() {
            let table = obj.meta().collection_table(c);
            let key = obj.key().clone();
            for row in self.conn.find_rows_by(&table, 1, &key)? {
                self.conn.delete_row(&table, &row[0])?;
                self.stats.statements += 1;
            }
            for (idx, v) in obj.collection(c).iter().enumerate() {
                *rowid += 1;
                self.conn.persist_row(
                    &table,
                    vec![
                        Value::Int(key_i64(&key) * 1_000_000 + *rowid),
                        key.clone(),
                        Value::Int(idx as i64),
                        Value::Int(*v),
                    ],
                )?;
                self.stats.statements += 1;
            }
        }
        Ok(())
    }

    /// Commits: DBPersistable objects go straight to the backend — no SQL
    /// text anywhere on this path — and PJH copies are written for
    /// deduplication.
    ///
    /// JPA promises durability when `commit` returns, so this ends with
    /// the heap's synchronous commit barrier. Use
    /// [`commit_async`](Self::commit_async) to overlap the image sync
    /// with the next transaction instead.
    ///
    /// # Errors
    ///
    /// Database or heap errors.
    pub fn commit(&mut self) -> crate::Result<()> {
        self.commit_backend()?;
        // Transaction boundary == durability boundary: when the heap is
        // manager-backed, wait out the incremental image sync of the dedup
        // copies (a no-op report for unmanaged heaps) — JPA `commit()`
        // promises durability on return, so this is the sync barrier.
        let _: CommitReport = self.pjh.commit_sync()?;
        self.stats.commits += 1;
        Ok(())
    }

    /// The opt-in pipelined commit: identical to [`commit`](Self::commit)
    /// on the backend side, but the heap commit only **seals** the epoch
    /// holding the dedup copies and returns its [`CommitTicket`] — the
    /// image sync runs on the heap's background flush pipeline while the
    /// caller starts the next transaction. `ticket.wait()` is the
    /// durability barrier; dropping the ticket still commits in the
    /// background (a later load waits for pending applies).
    ///
    /// This relaxes JPA's durable-on-return promise for callers that
    /// batch transactions and take one barrier at the end; `commit()`
    /// keeps the strict semantics.
    ///
    /// # Errors
    ///
    /// Database or heap errors at seal time; apply-time I/O errors
    /// surface through the ticket.
    pub fn commit_async(&mut self) -> crate::Result<CommitTicket> {
        self.commit_backend()?;
        let ticket = self.pjh.commit()?;
        self.stats.commits += 1;
        Ok(ticket)
    }

    /// The backend half of a commit: drains the pending queue into the
    /// database (and the dedup copies into the heap), then commits the
    /// database transaction.
    fn commit_backend(&mut self) -> crate::Result<()> {
        let pending = std::mem::take(&mut self.pending);
        let mut rowid = 0i64;
        for op in &pending {
            match op {
                Pending::Insert(obj) => {
                    let t0 = Instant::now();
                    let row = obj.values_vec(); // the whole "transformation"
                    self.stats.ship_ns += t0.elapsed().as_nanos() as u64;
                    self.conn.persist_row(obj.meta().name(), row)?;
                    self.stats.statements += 1;
                    self.flush_collections(obj, &mut rowid)?;
                    if self.dedup {
                        self.store_copy(obj)?;
                    }
                }
                Pending::Update(obj) => {
                    // §5 field-level tracking: ship only the dirty bitmap's
                    // columns.
                    let t0 = Instant::now();
                    let fields: Vec<(usize, Value)> = obj
                        .dirty_fields()
                        .into_iter()
                        .filter(|&i| i != obj.meta().pk())
                        .map(|i| (i, obj.get(i).clone()))
                        .collect();
                    self.stats.ship_ns += t0.elapsed().as_nanos() as u64;
                    self.conn
                        .update_fields(obj.meta().name(), obj.key(), &fields)?;
                    self.stats.statements += 1;
                    if !obj.meta().collections().is_empty() {
                        self.flush_collections(obj, &mut rowid)?;
                    }
                    if self.dedup {
                        // Copy-on-write refresh of the dedup copy.
                        self.store_copy(obj)?;
                    }
                }
                Pending::Remove(meta, key) => {
                    self.conn.delete_row(meta.name(), key)?;
                    self.stats.statements += 1;
                    for c in 0..meta.collections().len() {
                        let table = meta.collection_table(c);
                        for row in self.conn.find_rows_by(&table, 1, key)? {
                            self.conn.delete_row(&table, &row[0])?;
                        }
                    }
                    self.copies.remove(&(meta.name().to_string(), key_i64(key)));
                }
            }
        }
        self.conn.commit()?;
        Ok(())
    }

    /// Drops unreferenced PJH copies (e.g. after removals) by collecting
    /// the persistent heap with the live copies as roots. Forces a full
    /// compacting cycle: copy reclamation is about space, so trading pause
    /// time for maximum reclamation is the right call here (the heap's
    /// incremental mode would leave dead copies in partially-live regions).
    ///
    /// # Errors
    ///
    /// Heap errors.
    pub fn gc_copies(&mut self) -> crate::Result<()> {
        let roots: Vec<Ref> = self.copies.values().copied().collect();
        let report = self.pjh.with_mut(|h| h.gc_full(&roots))?;
        for r in self.copies.values_mut() {
            if let Some(&new) = report.relocations.get(&r.addr()) {
                *r = Ref::new(espresso_object::Space::Persistent, new);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use espresso_core::PjhConfig;
    use espresso_minidb::Database;
    use espresso_nvm::{NvmConfig, NvmDevice};

    fn em() -> (Database, PjoEntityManager) {
        let db = Database::create(NvmDevice::new(NvmConfig::with_size(4 << 20))).unwrap();
        let pjh = Pjh::create(
            NvmDevice::new(NvmConfig::with_size(8 << 20)),
            PjhConfig::small(),
        )
        .unwrap();
        let em = PjoEntityManager::new(db.connect(), pjh);
        (db, em)
    }

    fn person() -> EntityMeta {
        EntityMeta::builder("person")
            .pk_field("id", ColType::Int)
            .field("name", ColType::Text)
            .field("age", ColType::Int)
            .build()
    }

    fn mk(meta: &EntityMeta, id: i64, name: &str, age: i64) -> EntityObject {
        let mut o = meta.instantiate();
        o.set(0, Value::Int(id));
        o.set(1, Value::Str(name.into()));
        o.set(2, Value::Int(age));
        o
    }

    #[test]
    fn crud_lifecycle_matches_jpa_semantics() {
        let (_db, mut em) = em();
        let meta = person();
        em.create_schema(&[&meta]).unwrap();
        em.begin();
        em.persist(mk(&meta, 1, "Ann", 30));
        em.persist(mk(&meta, 2, "Bob", 40));
        em.commit().unwrap();

        let mut ann = em.find(&meta, &Value::Int(1)).unwrap().unwrap();
        assert_eq!(ann.get(1), &Value::Str("Ann".into()));

        em.begin();
        ann.set(2, Value::Int(31));
        em.merge(ann);
        em.commit().unwrap();
        assert_eq!(
            em.find(&meta, &Value::Int(1)).unwrap().unwrap().get(2),
            &Value::Int(31)
        );

        em.begin();
        em.remove(&meta, Value::Int(1));
        em.commit().unwrap();
        assert!(em.find(&meta, &Value::Int(1)).unwrap().is_none());
    }

    #[test]
    fn no_sql_text_on_the_pjo_path() {
        let (db, mut em) = em();
        let meta = person();
        em.create_schema(&[&meta]).unwrap();
        db.reset_stats();
        em.begin();
        for i in 0..100 {
            em.persist(mk(&meta, i, "X", i));
        }
        em.commit().unwrap();
        assert_eq!(db.stats().parse_ns, 0, "no statement was ever parsed");
        assert_eq!(db.row_count("person").unwrap(), 100);
    }

    #[test]
    fn dedup_copy_lives_in_pjh_and_serves_find() {
        let (_db, mut em) = em();
        em.set_dedup(true);
        let meta = person();
        em.create_schema(&[&meta]).unwrap();
        em.begin();
        em.persist(mk(&meta, 1, "Ann", 30));
        em.commit().unwrap();
        let copy = em.dedup_ref(&meta, &Value::Int(1)).expect("copy exists");
        assert!(copy.is_persistent());
        assert_eq!(em.pjh().klass_of(copy).name(), "DBperson");
        let before = em.stats().dedup_hits;
        let found = em.find(&meta, &Value::Int(1)).unwrap().unwrap();
        assert_eq!(em.stats().dedup_hits, before + 1);
        assert_eq!(found.get(1), &Value::Str("Ann".into()));
        assert_eq!(found.get(2), &Value::Int(30));
    }

    #[test]
    fn field_level_tracking_updates_only_dirty_columns() {
        let (_db, mut em) = em();
        let meta = person();
        em.create_schema(&[&meta]).unwrap();
        em.begin();
        em.persist(mk(&meta, 1, "Ann", 30));
        em.commit().unwrap();
        let mut obj = em.find(&meta, &Value::Int(1)).unwrap().unwrap();
        obj.set(2, Value::Int(99)); // only age dirty
        assert_eq!(obj.dirty_fields(), vec![2]);
        em.begin();
        em.merge(obj);
        em.commit().unwrap();
        let o = em.find(&meta, &Value::Int(1)).unwrap().unwrap();
        assert_eq!(
            o.get(1),
            &Value::Str("Ann".into()),
            "untouched column preserved"
        );
        assert_eq!(o.get(2), &Value::Int(99));
    }

    #[test]
    fn collections_roundtrip_direct() {
        let (db, mut em) = em();
        let cart = EntityMeta::builder("cart")
            .pk_field("id", ColType::Int)
            .collection("items")
            .build();
        em.create_schema(&[&cart]).unwrap();
        em.begin();
        let mut c = cart.instantiate();
        c.set(0, Value::Int(3));
        c.set_collection(0, vec![7, 8, 9]);
        em.persist(c);
        em.commit().unwrap();
        assert_eq!(db.row_count("cart_items").unwrap(), 3);
        let c = em.find(&cart, &Value::Int(3)).unwrap().unwrap();
        assert_eq!(c.collection(0), &[7, 8, 9]);
    }

    #[test]
    fn backend_rows_survive_crash() {
        let dev = NvmDevice::new(NvmConfig::with_size(4 << 20));
        let db = Database::create(dev.clone()).unwrap();
        let pjh = Pjh::create(
            NvmDevice::new(NvmConfig::with_size(8 << 20)),
            PjhConfig::small(),
        )
        .unwrap();
        let mut em = PjoEntityManager::new(db.connect(), pjh);
        let meta = person();
        em.create_schema(&[&meta]).unwrap();
        em.begin();
        em.persist(mk(&meta, 1, "Ann", 30));
        em.commit().unwrap();
        dev.crash();
        let db2 = Database::open(dev).unwrap();
        assert_eq!(db2.row_count("person").unwrap(), 1);
    }

    #[test]
    fn commit_async_returns_the_ticket_and_lands_in_the_image() {
        use espresso_core::{HeapManager, LoadOptions};
        let mgr = HeapManager::temp().unwrap();
        let handle = mgr.create("dedup", 8 << 20, PjhConfig::small()).unwrap();
        let db = Database::create(NvmDevice::new(NvmConfig::with_size(4 << 20))).unwrap();
        let mut em = PjoEntityManager::new(db.connect(), handle.clone());
        em.set_dedup(true);
        let meta = person();
        em.create_schema(&[&meta]).unwrap();
        em.begin();
        em.persist(mk(&meta, 1, "Ann", 30));
        let ticket = em.commit_async().unwrap();
        assert!(ticket.epoch() >= 1, "manager-backed heap seals an epoch");
        // The durability barrier is explicit now.
        ticket.wait().unwrap();
        assert_eq!(em.stats().commits, 1);
        // The dedup copy reached the image: a reload of the heap sees it.
        drop(em);
        drop(handle);
        let reloaded = mgr.load("dedup", LoadOptions::default()).unwrap();
        reloaded.with(|h| {
            let mut found = false;
            h.for_each_object(|_, k| found |= k.name() == "DBperson");
            assert!(found, "dedup copy object survived in the image");
        });
    }

    #[test]
    fn drifted_entity_schema_is_rejected_by_the_dedup_path() {
        use espresso_core::{HeapManager, LoadOptions};
        let mgr = HeapManager::temp().unwrap();
        let handle = mgr.create("drift", 8 << 20, PjhConfig::small()).unwrap();
        let db = Database::create(NvmDevice::new(NvmConfig::with_size(4 << 20))).unwrap();
        let mut em = PjoEntityManager::new(db.connect(), handle.clone());
        em.set_dedup(true);
        let meta = person();
        em.create_schema(&[&meta]).unwrap();
        em.begin();
        em.persist(mk(&meta, 1, "Ann", 30));
        em.commit().unwrap();
        drop(em);
        drop(handle);
        // Same entity name, but the "age" column became Text: the copy
        // klass would reinterpret persisted words, so registration fails.
        let drifted = EntityMeta::builder("person")
            .pk_field("id", ColType::Int)
            .field("name", ColType::Text)
            .field("age", ColType::Text)
            .build();
        let handle = mgr.load("drift", LoadOptions::default()).unwrap();
        let db2 = Database::create(NvmDevice::new(NvmConfig::with_size(4 << 20))).unwrap();
        let mut em = PjoEntityManager::new(db2.connect(), handle);
        em.set_dedup(true);
        em.create_schema(&[&drifted]).unwrap();
        em.begin();
        let mut o = drifted.instantiate();
        o.set(0, Value::Int(2));
        o.set(1, Value::Str("Bob".into()));
        o.set(2, Value::Str("forty".into()));
        em.persist(o);
        let err = em.commit().unwrap_err();
        assert!(
            matches!(
                err,
                PjoError::Pjh(
                    PjhError::SchemaMismatch { .. } | PjhError::KlassLayoutMismatch { .. }
                )
            ),
            "got {err}"
        );
    }

    #[test]
    fn gc_copies_keeps_live_data() {
        let (_db, mut em) = em();
        em.set_dedup(true);
        let meta = person();
        em.create_schema(&[&meta]).unwrap();
        for i in 0..50 {
            em.begin();
            em.persist(mk(&meta, i, "N", i));
            em.commit().unwrap();
        }
        // Remove half; their copies become garbage.
        for i in 0..25 {
            em.begin();
            em.remove(&meta, Value::Int(i));
            em.commit().unwrap();
        }
        em.gc_copies().unwrap();
        em.pjh().verify_integrity().unwrap();
        let o = em.find(&meta, &Value::Int(30)).unwrap().unwrap();
        assert_eq!(o.get(2), &Value::Int(30));
    }
}
