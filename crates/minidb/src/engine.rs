//! Tables, executor, transactions, and the two front doors (SQL strings
//! vs `DBPersistable` direct calls).

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::fmt;
use std::ops::Bound;
use std::sync::Arc;
use std::time::Instant;

use espresso_nvm::NvmDevice;
use parking_lot::Mutex;

use crate::sql::{parse, ColType, Predicate, Statement, Value};
use crate::wal::{Redo, Wal};

/// Errors reported by the database.
#[derive(Debug)]
pub enum DbError {
    /// SQL could not be parsed.
    Syntax(String),
    /// Unknown table.
    NoSuchTable(String),
    /// Unknown column.
    NoSuchColumn(String),
    /// Duplicate primary key on insert.
    DuplicateKey(Value),
    /// Row arity does not match the schema.
    WrongArity {
        /// Columns in the schema.
        expected: usize,
        /// Values supplied.
        got: usize,
    },
    /// A table with this name already exists.
    TableExists(String),
    /// An index with this name already exists.
    IndexExists(String),
    /// The write-ahead log is full.
    LogFull,
    /// The device does not hold a database image.
    NotADatabase,
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Syntax(m) => write!(f, "syntax error: {m}"),
            DbError::NoSuchTable(t) => write!(f, "no such table {t}"),
            DbError::NoSuchColumn(c) => write!(f, "no such column {c}"),
            DbError::DuplicateKey(k) => write!(f, "duplicate primary key {k}"),
            DbError::WrongArity { expected, got } => {
                write!(f, "expected {expected} values, got {got}")
            }
            DbError::TableExists(t) => write!(f, "table {t} already exists"),
            DbError::IndexExists(i) => write!(f, "index {i} already exists"),
            DbError::LogFull => write!(f, "write-ahead log is full"),
            DbError::NotADatabase => write!(f, "device does not hold a database image"),
        }
    }
}

impl std::error::Error for DbError {}

/// Result set of a statement.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryResult {
    /// Column names (SELECT only).
    pub columns: Vec<String>,
    /// Result rows (SELECT only).
    pub rows: Vec<Vec<Value>>,
    /// Rows inserted/updated/deleted.
    pub affected: usize,
}

/// Phase counters backing the Figure 17 breakdown.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DbStats {
    /// Nanoseconds tokenizing + parsing SQL text.
    pub parse_ns: u64,
    /// Nanoseconds executing statements (storage engine work).
    pub exec_ns: u64,
    /// Nanoseconds in WAL serialization and flushing.
    pub wal_ns: u64,
    /// Group flushes written to the WAL (length persists / rotations).
    pub wal_flushes: u64,
    /// Transactions made durable through those flushes. Under concurrent
    /// commits this exceeds `wal_flushes`: the difference is the group
    /// commit's batching win.
    pub wal_txns: u64,
    /// Statements executed.
    pub statements: u64,
    /// Rows returned by SELECTs.
    pub rows_read: u64,
    /// Rows written by INSERT/UPDATE/DELETE.
    pub rows_written: u64,
    /// SELECT predicates answered through a secondary index instead of a
    /// full scan.
    pub index_lookups: u64,
}

impl DbStats {
    /// Difference `self - earlier`.
    #[must_use]
    pub fn since(&self, earlier: &DbStats) -> DbStats {
        DbStats {
            parse_ns: self.parse_ns - earlier.parse_ns,
            exec_ns: self.exec_ns - earlier.exec_ns,
            wal_ns: self.wal_ns - earlier.wal_ns,
            wal_flushes: self.wal_flushes - earlier.wal_flushes,
            wal_txns: self.wal_txns - earlier.wal_txns,
            statements: self.statements - earlier.statements,
            rows_read: self.rows_read - earlier.rows_read,
            rows_written: self.rows_written - earlier.rows_written,
            index_lookups: self.index_lookups - earlier.index_lookups,
        }
    }
}

/// An in-memory secondary index: column value → set of primary keys.
/// Rebuilt from the rows on WAL replay (only the definition is logged).
#[derive(Debug, Clone)]
struct TableIndex {
    name: String,
    column: usize,
    map: BTreeMap<Value, BTreeSet<Value>>,
}

#[derive(Debug, Clone)]
struct Table {
    columns: Vec<(String, ColType)>,
    primary_key: usize,
    rows: BTreeMap<Value, Vec<Value>>,
    indexes: Vec<TableIndex>,
}

impl Table {
    fn new(columns: Vec<(String, ColType)>, primary_key: usize) -> Table {
        Table {
            columns,
            primary_key,
            rows: BTreeMap::new(),
            indexes: Vec::new(),
        }
    }

    fn col_index(&self, name: &str) -> Result<usize, DbError> {
        self.columns
            .iter()
            .position(|(c, _)| c == name)
            .ok_or_else(|| DbError::NoSuchColumn(name.to_string()))
    }

    fn index_on(&self, column: usize) -> Option<&TableIndex> {
        self.indexes.iter().find(|ix| ix.column == column)
    }

    /// Defines (and backfills) a secondary index over `column`.
    fn add_index(&mut self, name: String, column: usize) {
        let mut ix = TableIndex {
            name,
            column,
            map: BTreeMap::new(),
        };
        for row in self.rows.values() {
            ix.map
                .entry(row[column].clone())
                .or_default()
                .insert(row[self.primary_key].clone());
        }
        self.indexes.push(ix);
    }

    fn index_add(&mut self, row: &[Value]) {
        let pk = &row[self.primary_key];
        for ix in &mut self.indexes {
            ix.map
                .entry(row[ix.column].clone())
                .or_default()
                .insert(pk.clone());
        }
    }

    fn index_remove(&mut self, row: &[Value]) {
        let pk = &row[self.primary_key];
        for ix in &mut self.indexes {
            if let Some(set) = ix.map.get_mut(&row[ix.column]) {
                set.remove(pk);
                if set.is_empty() {
                    ix.map.remove(&row[ix.column]);
                }
            }
        }
    }

    /// Inserts or replaces a row (keyed by its own primary-key column),
    /// keeping every secondary index in step. All row mutation funnels
    /// through here and [`erase_row`](Self::erase_row) so no code path
    /// can leave an index stale.
    fn store_row(&mut self, row: Vec<Value>) {
        let key = row[self.primary_key].clone();
        if let Some(old) = self.rows.remove(&key) {
            self.index_remove(&old);
        }
        self.index_add(&row);
        self.rows.insert(key, row);
    }

    /// Removes a row by primary key, keeping every secondary index in
    /// step.
    fn erase_row(&mut self, key: &Value) -> Option<Vec<Value>> {
        let old = self.rows.remove(key)?;
        self.index_remove(&old);
        Some(old)
    }
}

enum Undo {
    DropTable(String),
    DropIndex(String, String),
    RemoveRow(String, Value),
    RestoreRow(String, Value, Vec<Value>),
}

/// Applies one undo record against the in-memory tables.
fn apply_undo(tables: &mut HashMap<String, Table>, op: Undo) {
    match op {
        Undo::DropTable(name) => {
            tables.remove(&name);
        }
        Undo::DropIndex(table, name) => {
            if let Some(t) = tables.get_mut(&table) {
                t.indexes.retain(|ix| ix.name != name);
            }
        }
        Undo::RemoveRow(table, key) => {
            if let Some(t) = tables.get_mut(&table) {
                t.erase_row(&key);
            }
        }
        Undo::RestoreRow(table, key, row) => {
            if let Some(t) = tables.get_mut(&table) {
                debug_assert_eq!(row[t.primary_key], key);
                t.store_row(row);
            }
        }
    }
}

struct Inner {
    wal: Wal,
    tables: HashMap<String, Table>,
    stats: DbStats,
    txn: Option<(Vec<Undo>, Vec<Redo>)>,
    /// Commits whose redo is applied in memory but not yet in the WAL:
    /// `(sequence, records)`, drained wholesale by the next group flush.
    group: VecDeque<(u64, Vec<Redo>)>,
    /// Next commit sequence number to hand out.
    next_seq: u64,
    /// Every commit sequence at or below this is durable in the WAL.
    durable_seq: u64,
    /// Sequence the current statement enqueued, for the connection to
    /// flush after releasing the engine lock (the group-commit window).
    pending_flush: Option<u64>,
    /// Auto-checkpoint knob: once the WAL tail (bytes a reopen would
    /// replay) exceeds this *and* outweighs a fresh snapshot, a
    /// checkpoint is written at the next commit-quiesce point.
    ckpt_threshold: usize,
    /// Records replayed by the `open` that produced this instance.
    replayed: usize,
}

/// An embedded database bound to one NVM device. Cheap to clone; clones
/// share the instance.
#[derive(Clone)]
pub struct Database {
    inner: Arc<Mutex<Inner>>,
}

impl fmt::Debug for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Database")
            .field("tables", &self.inner.lock().tables.len())
            .finish()
    }
}

impl Database {
    /// Formats a fresh database on `dev`.
    ///
    /// # Errors
    ///
    /// None today; signature reserved for layout validation.
    pub fn create(dev: NvmDevice) -> crate::Result<Database> {
        let wal = Wal::format(dev);
        Ok(Database {
            inner: Arc::new(Mutex::new(Inner {
                wal,
                tables: HashMap::new(),
                stats: DbStats::default(),
                txn: None,
                group: VecDeque::new(),
                next_seq: 1,
                durable_seq: 0,
                pending_flush: None,
                ckpt_threshold: DEFAULT_CKPT_THRESHOLD,
                replayed: 0,
            })),
        })
    }

    /// Opens an existing database, replaying only the committed WAL tail
    /// since the last checkpoint.
    ///
    /// # Errors
    ///
    /// [`DbError::NotADatabase`] on a foreign image.
    pub fn open(dev: NvmDevice) -> crate::Result<Database> {
        let wal = Wal::open(dev).ok_or(DbError::NotADatabase)?;
        let mut tables = HashMap::new();
        let mut replayed = 0;
        for record in wal.replay() {
            apply_redo(&mut tables, record);
            replayed += 1;
        }
        Ok(Database {
            inner: Arc::new(Mutex::new(Inner {
                wal,
                tables,
                stats: DbStats::default(),
                txn: None,
                group: VecDeque::new(),
                next_seq: 1,
                durable_seq: 0,
                pending_flush: None,
                ckpt_threshold: DEFAULT_CKPT_THRESHOLD,
                replayed,
            })),
        })
    }

    /// Records replayed by the `open` that produced this instance (0 for
    /// a freshly created database). After a checkpoint, reopening replays
    /// only the tail, so this stays small regardless of history length.
    pub fn replayed_records(&self) -> usize {
        self.inner.lock().replayed
    }

    /// Sets the auto-checkpoint threshold in WAL-tail bytes (0 forces a
    /// checkpoint attempt after every quiesced commit that grew the tail
    /// beyond one snapshot).
    pub fn set_checkpoint_threshold(&self, bytes: usize) {
        self.inner.lock().ckpt_threshold = bytes;
    }

    /// Writes a checkpoint now (if no explicit transaction is open):
    /// commits a snapshot of every table and advances the replay pointer,
    /// so the next `open` replays only records committed after this
    /// point. Returns whether a checkpoint was written.
    pub fn checkpoint(&self) -> bool {
        let mut inner = self.inner.lock();
        if inner.txn.is_some() {
            return false; // not quiesced
        }
        force_checkpoint(&mut inner)
    }

    /// Opens a connection (all connections share one serialized engine,
    /// like embedded H2).
    pub fn connect(&self) -> Connection {
        Connection { db: self.clone() }
    }

    /// Runs `stmt` under the engine lock, then — with the lock released —
    /// flushes whatever commit it enqueued. The unlock between apply and
    /// flush is the group-commit window: commits from other connections
    /// that land in it ride the same WAL flush.
    fn run(&self, stmt: Statement) -> crate::Result<QueryResult> {
        let mut inner = self.inner.lock();
        let result = run_statement(&mut inner, stmt);
        match result {
            Ok(result) => {
                self.finish_pending(inner)?;
                Ok(result)
            }
            Err(e) => Err(e),
        }
    }

    /// Makes commit `seq` durable. If another connection's flush already
    /// covered it (this commit was batched), returns immediately;
    /// otherwise this caller becomes the leader and drains every queued
    /// commit into one WAL append.
    fn flush_group(&self, seq: u64) -> crate::Result<()> {
        flush_group_locked(&mut self.inner.lock(), seq)
    }

    /// The one exit path for statements that may have enqueued a commit:
    /// takes the pending sequence, releases the engine lock (opening the
    /// group-commit window), and runs the leader flush. Every write path
    /// funnels through here so the acknowledge-implies-durable handshake
    /// cannot drift between call sites.
    fn finish_pending(&self, mut inner: parking_lot::MutexGuard<'_, Inner>) -> crate::Result<()> {
        let seq = inner.pending_flush.take();
        drop(inner);
        match seq {
            Some(seq) => self.flush_group(seq),
            None => Ok(()),
        }
    }

    /// Phase counters.
    pub fn stats(&self) -> DbStats {
        self.inner.lock().stats
    }

    /// Resets the phase counters.
    pub fn reset_stats(&self) {
        self.inner.lock().stats = DbStats::default();
    }

    /// Row count of a table.
    ///
    /// # Errors
    ///
    /// [`DbError::NoSuchTable`].
    pub fn row_count(&self, table: &str) -> crate::Result<usize> {
        let inner = self.inner.lock();
        inner
            .tables
            .get(table)
            .map(|t| t.rows.len())
            .ok_or_else(|| DbError::NoSuchTable(table.to_string()))
    }
}

fn apply_redo(tables: &mut HashMap<String, Table>, record: Redo) {
    match record {
        Redo::CreateTable {
            name,
            columns,
            primary_key,
        } => {
            tables.insert(name, Table::new(columns, primary_key));
        }
        Redo::Insert { table, row } => {
            if let Some(t) = tables.get_mut(&table) {
                t.store_row(row);
            }
        }
        Redo::Update { table, key, row } => {
            if let Some(t) = tables.get_mut(&table) {
                debug_assert_eq!(row[t.primary_key], key);
                t.store_row(row);
            }
        }
        Redo::Delete { table, key } => {
            if let Some(t) = tables.get_mut(&table) {
                t.erase_row(&key);
            }
        }
        Redo::CreateIndex {
            table,
            name,
            column,
        } => {
            if let Some(t) = tables.get_mut(&table) {
                if column < t.columns.len() && !t.indexes.iter().any(|ix| ix.name == name) {
                    t.add_index(name, column);
                }
            }
        }
    }
}

/// A connection: the JDBC-like SQL boundary plus the `DBPersistable`
/// direct interface (§5).
#[derive(Debug, Clone)]
pub struct Connection {
    db: Database,
}

impl Connection {
    /// Executes one SQL statement.
    ///
    /// # Errors
    ///
    /// Syntax and execution errors.
    pub fn execute(&mut self, sql: &str) -> crate::Result<QueryResult> {
        self.execute_params(sql, &[])
    }

    /// Executes one SQL statement with `?` placeholders bound from
    /// `params` (the prepared-statement path DataNucleus uses).
    ///
    /// # Errors
    ///
    /// Syntax and execution errors.
    pub fn execute_params(&mut self, sql: &str, params: &[Value]) -> crate::Result<QueryResult> {
        let t0 = Instant::now();
        let stmt = parse(sql, params).map_err(DbError::Syntax)?;
        let parse_ns = t0.elapsed().as_nanos() as u64;
        self.db.inner.lock().stats.parse_ns += parse_ns;
        self.db.run(stmt)
    }

    // ---- DBPersistable direct interface (§5) ----

    /// Creates a table without SQL.
    ///
    /// # Errors
    ///
    /// [`DbError::TableExists`].
    pub fn create_table_direct(
        &mut self,
        name: &str,
        columns: Vec<(String, ColType)>,
        primary_key: usize,
    ) -> crate::Result<()> {
        self.db
            .run(Statement::CreateTable {
                name: name.to_string(),
                columns,
                primary_key,
            })
            .map(|_| ())
    }

    /// `persistInTable`: ships an object's fields straight to storage.
    ///
    /// # Errors
    ///
    /// Arity / key errors.
    pub fn persist_row(&mut self, table: &str, row: Vec<Value>) -> crate::Result<()> {
        self.db
            .run(Statement::Insert {
                table: table.to_string(),
                values: row,
            })
            .map(|_| ())
    }

    /// Point lookup by primary key, no SQL.
    ///
    /// # Errors
    ///
    /// [`DbError::NoSuchTable`].
    pub fn find_row(&mut self, table: &str, key: &Value) -> crate::Result<Option<Vec<Value>>> {
        let mut inner = self.db.inner.lock();
        let t0 = Instant::now();
        let t = inner
            .tables
            .get(table)
            .ok_or_else(|| DbError::NoSuchTable(table.to_string()))?;
        let row = t.rows.get(key).cloned();
        inner.stats.exec_ns += t0.elapsed().as_nanos() as u64;
        inner.stats.statements += 1;
        if row.is_some() {
            inner.stats.rows_read += 1;
        }
        Ok(row)
    }

    /// Equality scan over any column, no SQL (used by the PJO provider to
    /// load collection members).
    ///
    /// # Errors
    ///
    /// Table/column errors.
    pub fn find_rows_by(
        &mut self,
        table: &str,
        column: usize,
        value: &Value,
    ) -> crate::Result<Vec<Vec<Value>>> {
        let mut inner = self.db.inner.lock();
        let t0 = Instant::now();
        let t = inner
            .tables
            .get(table)
            .ok_or_else(|| DbError::NoSuchTable(table.to_string()))?;
        if column >= t.columns.len() {
            return Err(DbError::NoSuchColumn(format!("#{column}")));
        }
        let mut used_index = false;
        let rows: Vec<Vec<Value>> = if let Some(ix) = t.index_on(column) {
            used_index = true;
            ix.map
                .get(value)
                .into_iter()
                .flatten()
                .filter_map(|k| t.rows.get(k))
                .cloned()
                .collect()
        } else {
            t.rows
                .values()
                .filter(|r| &r[column] == value)
                .cloned()
                .collect()
        };
        inner.stats.exec_ns += t0.elapsed().as_nanos() as u64;
        inner.stats.statements += 1;
        inner.stats.rows_read += rows.len() as u64;
        inner.stats.index_lookups += u64::from(used_index);
        Ok(rows)
    }

    /// Field-level update (§5 field-level tracking): only the listed
    /// `(column index, value)` pairs are touched.
    ///
    /// # Errors
    ///
    /// Table/key errors.
    pub fn update_fields(
        &mut self,
        table: &str,
        key: &Value,
        fields: &[(usize, Value)],
    ) -> crate::Result<usize> {
        let mut inner = self.db.inner.lock();
        let t0 = Instant::now();
        let t = inner
            .tables
            .get_mut(table)
            .ok_or_else(|| DbError::NoSuchTable(table.to_string()))?;
        let Some(row) = t.rows.get(key).cloned() else {
            inner.stats.exec_ns += t0.elapsed().as_nanos() as u64;
            return Ok(0);
        };
        let mut new_row = row.clone();
        for (i, v) in fields {
            new_row[*i] = v.clone();
        }
        t.store_row(new_row.clone());
        inner.stats.exec_ns += t0.elapsed().as_nanos() as u64;
        inner.stats.statements += 1;
        inner.stats.rows_written += 1;
        let undo = Undo::RestoreRow(table.to_string(), key.clone(), row);
        let redo = Redo::Update {
            table: table.to_string(),
            key: key.clone(),
            row: new_row,
        };
        finish_write(&mut inner, vec![undo], vec![redo]);
        self.db.finish_pending(inner)?;
        Ok(1)
    }

    /// Point delete by primary key, no SQL.
    ///
    /// # Errors
    ///
    /// Table errors.
    pub fn delete_row(&mut self, table: &str, key: &Value) -> crate::Result<usize> {
        let pk = pk_name(&self.db.inner.lock(), table)?;
        self.db
            .run(Statement::Delete {
                table: table.to_string(),
                filter: (pk, key.clone()),
            })
            .map(|r| r.affected)
    }

    /// Begins an explicit transaction.
    pub fn begin(&mut self) {
        let mut inner = self.db.inner.lock();
        if inner.txn.is_none() {
            inner.txn = Some((Vec::new(), Vec::new()));
        }
    }

    /// Commits the explicit transaction (the WAL group flush happens
    /// here).
    ///
    /// # Errors
    ///
    /// [`DbError::LogFull`] when neither the active log area nor a
    /// rotating checkpoint can hold the state.
    pub fn commit(&mut self) -> crate::Result<()> {
        let mut inner = self.db.inner.lock();
        let Some((_, redo)) = inner.txn.take() else {
            return Ok(());
        };
        enqueue_commit(&mut inner, redo);
        self.db.finish_pending(inner)
    }

    /// Rolls the explicit transaction back.
    pub fn rollback(&mut self) {
        let mut inner = self.db.inner.lock();
        let Some((undo, _)) = inner.txn.take() else {
            return;
        };
        for op in undo.into_iter().rev() {
            apply_undo(&mut inner.tables, op);
        }
    }
}

/// Default WAL-tail size that arms an automatic checkpoint (16 KiB).
const DEFAULT_CKPT_THRESHOLD: usize = 16 << 10;

/// Serializes the whole engine state as redo records: `CreateTable` per
/// table (which resets it on replay) followed by its index definitions
/// and its rows, in deterministic (sorted) table order. Index contents
/// are not logged — replay rebuilds them as the row records stream in.
fn snapshot_records(tables: &HashMap<String, Table>) -> Vec<Redo> {
    let mut names: Vec<&String> = tables.keys().collect();
    names.sort();
    let mut out = Vec::new();
    for name in names {
        let t = &tables[name];
        out.push(Redo::CreateTable {
            name: name.clone(),
            columns: t.columns.clone(),
            primary_key: t.primary_key,
        });
        for ix in &t.indexes {
            out.push(Redo::CreateIndex {
                table: name.clone(),
                name: ix.name.clone(),
                column: ix.column,
            });
        }
        for row in t.rows.values() {
            out.push(Redo::Insert {
                table: name.clone(),
                row: row.clone(),
            });
        }
    }
    out
}

/// Writes a rotating checkpoint unconditionally (caller checks
/// quiescence). Returns whether the WAL accepted it. On success, every
/// commit applied in memory — including any still queued for a group
/// flush — is embodied by the snapshot, so the queue is drained and the
/// durable sequence catches up.
fn force_checkpoint(inner: &mut Inner) -> bool {
    let t0 = Instant::now();
    let snapshot = snapshot_records(&inner.tables);
    let ok = inner.wal.checkpoint(&snapshot);
    inner.stats.wal_ns += t0.elapsed().as_nanos() as u64;
    if ok {
        inner.stats.wal_flushes += 1;
        inner.stats.wal_txns += inner.group.len() as u64;
        inner.group.clear();
        inner.durable_seq = inner.next_seq - 1;
    }
    ok
}

/// The group-commit leader path: drains every queued commit into one WAL
/// append (a single length persist for the whole batch). Falls back to a
/// rotating checkpoint when the active area is full — the snapshot
/// reconstructs the in-memory state, which already includes the drained
/// commits, so rotation both compacts the log and lands the batch.
fn flush_group_locked(inner: &mut Inner, seq: u64) -> crate::Result<()> {
    if inner.durable_seq >= seq {
        return Ok(()); // batched into an earlier leader's flush
    }
    let drained: Vec<(u64, Vec<Redo>)> = inner.group.drain(..).collect();
    debug_assert!(
        drained.iter().any(|(s, _)| *s == seq),
        "sequence neither durable nor queued"
    );
    let last = drained.last().map_or(seq, |(s, _)| *s);
    let t0 = Instant::now();
    let batches: Vec<&[Redo]> = drained.iter().map(|(_, r)| r.as_slice()).collect();
    let ok = inner.wal.commit_batch(&batches);
    inner.stats.wal_ns += t0.elapsed().as_nanos() as u64;
    if ok {
        inner.durable_seq = last;
        inner.stats.wal_flushes += 1;
        inner.stats.wal_txns += drained.len() as u64;
        if inner.txn.is_none() {
            maybe_checkpoint(inner);
        }
        return Ok(());
    }
    if inner.txn.is_none() && force_checkpoint(inner) {
        inner.stats.wal_txns += drained.len() as u64;
        return Ok(());
    }
    // Could not persist (snapshot larger than an area, or a transaction
    // holds the engine mid-flight): requeue so a later leader retries.
    for batch in drained.into_iter().rev() {
        inner.group.push_front(batch);
    }
    Err(DbError::LogFull)
}

/// Auto-checkpoint policy, run at commit-quiesce points: checkpoint when
/// the tail a reopen would replay exceeds the threshold *and* is worth
/// more than the snapshot it would be replaced by (a cheap row-count
/// estimate keeps this O(1) per commit). A full WAL is ignored — the
/// checkpoint is an optimization, never a correctness requirement.
fn maybe_checkpoint(inner: &mut Inner) {
    debug_assert!(inner.txn.is_none(), "checkpoints only at quiesce points");
    let tail = inner.wal.tail_bytes();
    if tail < inner.ckpt_threshold.max(1) {
        return;
    }
    // ~32 bytes per row + per-table overhead approximates the snapshot.
    let estimate: usize = inner
        .tables
        .values()
        .map(|t| 64 + t.rows.len() * 32)
        .sum::<usize>();
    if tail > estimate {
        let _ = force_checkpoint(inner);
    }
}

/// Whether a normalised range can hold no value at all (guards the
/// `BTreeMap::range` panic on inverted bounds).
fn range_is_empty(lo: &Bound<Value>, hi: &Bound<Value>) -> bool {
    match (lo, hi) {
        (Bound::Included(a), Bound::Included(b)) => a > b,
        (Bound::Included(a), Bound::Excluded(b))
        | (Bound::Excluded(a), Bound::Included(b))
        | (Bound::Excluded(a), Bound::Excluded(b)) => a >= b,
        (Bound::Unbounded, _) | (_, Bound::Unbounded) => false,
    }
}

/// Whether `v` falls inside `[lo, hi]` — the full-scan fallback for
/// range predicates over unindexed non-key columns.
fn value_in_bounds(v: &Value, lo: &Bound<Value>, hi: &Bound<Value>) -> bool {
    (match lo {
        Bound::Unbounded => true,
        Bound::Included(b) => v >= b,
        Bound::Excluded(b) => v > b,
    }) && (match hi {
        Bound::Unbounded => true,
        Bound::Included(b) => v <= b,
        Bound::Excluded(b) => v < b,
    })
}

fn pk_name(inner: &Inner, table: &str) -> crate::Result<String> {
    let t = inner
        .tables
        .get(table)
        .ok_or_else(|| DbError::NoSuchTable(table.to_string()))?;
    Ok(t.columns[t.primary_key].0.clone())
}

/// Queues a commit's redo for the next group flush and records its
/// sequence in `pending_flush` — the connection flushes after dropping
/// the engine lock, opening the window in which concurrent commits pile
/// into one batch.
fn enqueue_commit(inner: &mut Inner, redo: Vec<Redo>) {
    if redo.is_empty() {
        return;
    }
    let seq = inner.next_seq;
    inner.next_seq += 1;
    inner.group.push_back((seq, redo));
    inner.pending_flush = Some(seq);
}

fn finish_write(inner: &mut Inner, undo: Vec<Undo>, redo: Vec<Redo>) {
    if let Some((u, r)) = &mut inner.txn {
        u.extend(undo);
        r.extend(redo);
    } else {
        enqueue_commit(inner, redo);
    }
}

fn run_statement(inner: &mut Inner, stmt: Statement) -> crate::Result<QueryResult> {
    let t0 = Instant::now();
    inner.stats.statements += 1;
    let result = match stmt {
        Statement::Begin => {
            if inner.txn.is_none() {
                inner.txn = Some((Vec::new(), Vec::new()));
            }
            Ok(QueryResult::default())
        }
        Statement::Commit => {
            inner.stats.exec_ns += t0.elapsed().as_nanos() as u64;
            let Some((_, redo)) = inner.txn.take() else {
                return Ok(QueryResult::default());
            };
            enqueue_commit(inner, redo);
            return Ok(QueryResult::default());
        }
        Statement::Rollback => {
            let undo = inner.txn.take().map(|(u, _)| u).unwrap_or_default();
            for op in undo.into_iter().rev() {
                apply_undo(&mut inner.tables, op);
            }
            Ok(QueryResult::default())
        }
        Statement::CreateTable {
            name,
            columns,
            primary_key,
        } => {
            if inner.tables.contains_key(&name) {
                Err(DbError::TableExists(name))
            } else {
                inner
                    .tables
                    .insert(name.clone(), Table::new(columns.clone(), primary_key));
                let undo = Undo::DropTable(name.clone());
                let redo = Redo::CreateTable {
                    name,
                    columns,
                    primary_key,
                };
                inner.stats.exec_ns += t0.elapsed().as_nanos() as u64;
                finish_write(inner, vec![undo], vec![redo]);
                return Ok(QueryResult::default());
            }
        }
        Statement::Insert { table, values } => {
            let t = inner
                .tables
                .get_mut(&table)
                .ok_or_else(|| DbError::NoSuchTable(table.clone()))?;
            if values.len() != t.columns.len() {
                Err(DbError::WrongArity {
                    expected: t.columns.len(),
                    got: values.len(),
                })
            } else {
                let key = values[t.primary_key].clone();
                if t.rows.contains_key(&key) {
                    Err(DbError::DuplicateKey(key))
                } else {
                    t.store_row(values.clone());
                    inner.stats.rows_written += 1;
                    let undo = Undo::RemoveRow(table.clone(), key);
                    let redo = Redo::Insert { table, row: values };
                    inner.stats.exec_ns += t0.elapsed().as_nanos() as u64;
                    finish_write(inner, vec![undo], vec![redo]);
                    return Ok(QueryResult {
                        affected: 1,
                        ..QueryResult::default()
                    });
                }
            }
        }
        Statement::CreateIndex {
            name,
            table,
            column,
        } => {
            if inner
                .tables
                .values()
                .any(|t| t.indexes.iter().any(|ix| ix.name == name))
            {
                Err(DbError::IndexExists(name))
            } else {
                let t = inner
                    .tables
                    .get_mut(&table)
                    .ok_or_else(|| DbError::NoSuchTable(table.clone()))?;
                let ci = t.col_index(&column)?;
                t.add_index(name.clone(), ci);
                let undo = Undo::DropIndex(table.clone(), name.clone());
                let redo = Redo::CreateIndex {
                    table,
                    name,
                    column: ci,
                };
                inner.stats.exec_ns += t0.elapsed().as_nanos() as u64;
                finish_write(inner, vec![undo], vec![redo]);
                return Ok(QueryResult::default());
            }
        }
        Statement::Select { table, filter } => {
            let t = inner
                .tables
                .get(&table)
                .ok_or_else(|| DbError::NoSuchTable(table.clone()))?;
            let columns: Vec<String> = t.columns.iter().map(|(c, _)| c.clone()).collect();
            let mut used_index = false;
            let rows: Vec<Vec<Value>> = match &filter {
                Some(Predicate::Eq(col, v)) => {
                    let ci = t.col_index(col)?;
                    if ci == t.primary_key {
                        t.rows.get(v).cloned().into_iter().collect()
                    } else if let Some(ix) = t.index_on(ci) {
                        used_index = true;
                        ix.map
                            .get(v)
                            .into_iter()
                            .flatten()
                            .filter_map(|k| t.rows.get(k))
                            .cloned()
                            .collect()
                    } else {
                        t.rows.values().filter(|r| &r[ci] == v).cloned().collect()
                    }
                }
                Some(Predicate::Range { column, lo, hi }) => {
                    let ci = t.col_index(column)?;
                    if range_is_empty(lo, hi) {
                        Vec::new()
                    } else if ci == t.primary_key {
                        t.rows
                            .range((lo.clone(), hi.clone()))
                            .map(|(_, r)| r.clone())
                            .collect()
                    } else if let Some(ix) = t.index_on(ci) {
                        used_index = true;
                        ix.map
                            .range((lo.clone(), hi.clone()))
                            .flat_map(|(_, pks)| pks.iter().filter_map(|k| t.rows.get(k)))
                            .cloned()
                            .collect()
                    } else {
                        t.rows
                            .values()
                            .filter(|r| value_in_bounds(&r[ci], lo, hi))
                            .cloned()
                            .collect()
                    }
                }
                None => t.rows.values().cloned().collect(),
            };
            inner.stats.rows_read += rows.len() as u64;
            inner.stats.index_lookups += u64::from(used_index);
            Ok(QueryResult {
                affected: rows.len(),
                columns,
                rows,
            })
        }
        Statement::Update {
            table,
            sets,
            filter,
        } => {
            let t = inner
                .tables
                .get_mut(&table)
                .ok_or_else(|| DbError::NoSuchTable(table.clone()))?;
            let fci = t.col_index(&filter.0)?;
            let set_idx: Vec<(usize, Value)> = {
                let mut v = Vec::new();
                for (c, val) in &sets {
                    v.push((t.col_index(c)?, val.clone()));
                }
                v
            };
            let keys: Vec<Value> = if fci == t.primary_key {
                t.rows
                    .contains_key(&filter.1)
                    .then(|| filter.1.clone())
                    .into_iter()
                    .collect()
            } else {
                t.rows
                    .iter()
                    .filter(|(_, r)| r[fci] == filter.1)
                    .map(|(k, _)| k.clone())
                    .collect()
            };
            let mut undo = Vec::new();
            let mut redo = Vec::new();
            for key in &keys {
                let old = t.rows.get(key).cloned().expect("key listed above");
                let mut new_row = old.clone();
                for (i, v) in &set_idx {
                    new_row[*i] = v.clone();
                }
                t.store_row(new_row.clone());
                undo.push(Undo::RestoreRow(table.clone(), key.clone(), old));
                redo.push(Redo::Update {
                    table: table.clone(),
                    key: key.clone(),
                    row: new_row,
                });
            }
            inner.stats.rows_written += keys.len() as u64;
            let affected = keys.len();
            inner.stats.exec_ns += t0.elapsed().as_nanos() as u64;
            finish_write(inner, undo, redo);
            return Ok(QueryResult {
                affected,
                ..QueryResult::default()
            });
        }
        Statement::Delete { table, filter } => {
            let t = inner
                .tables
                .get_mut(&table)
                .ok_or_else(|| DbError::NoSuchTable(table.clone()))?;
            let fci = t.col_index(&filter.0)?;
            let keys: Vec<Value> = if fci == t.primary_key {
                t.rows
                    .contains_key(&filter.1)
                    .then(|| filter.1.clone())
                    .into_iter()
                    .collect()
            } else {
                t.rows
                    .iter()
                    .filter(|(_, r)| r[fci] == filter.1)
                    .map(|(k, _)| k.clone())
                    .collect()
            };
            let mut undo = Vec::new();
            let mut redo = Vec::new();
            for key in &keys {
                let old = t.erase_row(key).expect("key listed above");
                undo.push(Undo::RestoreRow(table.clone(), key.clone(), old));
                redo.push(Redo::Delete {
                    table: table.clone(),
                    key: key.clone(),
                });
            }
            inner.stats.rows_written += keys.len() as u64;
            let affected = keys.len();
            inner.stats.exec_ns += t0.elapsed().as_nanos() as u64;
            finish_write(inner, undo, redo);
            return Ok(QueryResult {
                affected,
                ..QueryResult::default()
            });
        }
    };
    inner.stats.exec_ns += t0.elapsed().as_nanos() as u64;
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use espresso_nvm::NvmConfig;

    fn db() -> (NvmDevice, Database, Connection) {
        let dev = NvmDevice::new(NvmConfig::with_size(4 << 20));
        let db = Database::create(dev.clone()).unwrap();
        let conn = db.connect();
        (dev, db, conn)
    }

    fn setup_person(conn: &mut Connection) {
        conn.execute("CREATE TABLE person (id INT PRIMARY KEY, name TEXT, age INT)")
            .unwrap();
        conn.execute("INSERT INTO person VALUES (1, 'Ann', 30)")
            .unwrap();
        conn.execute("INSERT INTO person VALUES (2, 'Bob', 40)")
            .unwrap();
    }

    #[test]
    fn crud_roundtrip() {
        let (_dev, _db, mut conn) = db();
        setup_person(&mut conn);
        let r = conn.execute("SELECT * FROM person WHERE id = 2").unwrap();
        assert_eq!(
            r.rows,
            vec![vec![
                Value::Int(2),
                Value::Str("Bob".into()),
                Value::Int(40)
            ]]
        );
        assert_eq!(
            conn.execute("UPDATE person SET age = 41 WHERE id = 2")
                .unwrap()
                .affected,
            1
        );
        let r = conn.execute("SELECT * FROM person WHERE id = 2").unwrap();
        assert_eq!(r.rows[0][2], Value::Int(41));
        assert_eq!(
            conn.execute("DELETE FROM person WHERE id = 1")
                .unwrap()
                .affected,
            1
        );
        assert_eq!(conn.execute("SELECT * FROM person").unwrap().rows.len(), 1);
    }

    #[test]
    fn non_pk_filters_scan() {
        let (_dev, _db, mut conn) = db();
        setup_person(&mut conn);
        conn.execute("INSERT INTO person VALUES (3, 'Ann', 50)")
            .unwrap();
        let r = conn
            .execute("SELECT * FROM person WHERE name = 'Ann'")
            .unwrap();
        assert_eq!(r.rows.len(), 2);
        assert_eq!(
            conn.execute("UPDATE person SET age = 0 WHERE name = 'Ann'")
                .unwrap()
                .affected,
            2
        );
        assert_eq!(
            conn.execute("DELETE FROM person WHERE name = 'Ann'")
                .unwrap()
                .affected,
            2
        );
    }

    #[test]
    fn constraint_errors() {
        let (_dev, _db, mut conn) = db();
        setup_person(&mut conn);
        assert!(matches!(
            conn.execute("INSERT INTO person VALUES (1, 'Dup', 1)"),
            Err(DbError::DuplicateKey(_))
        ));
        assert!(matches!(
            conn.execute("INSERT INTO person VALUES (9, 'Short')"),
            Err(DbError::WrongArity { .. })
        ));
        assert!(matches!(
            conn.execute("SELECT * FROM ghost"),
            Err(DbError::NoSuchTable(_))
        ));
        assert!(matches!(
            conn.execute("SELECT * FROM person WHERE ghost = 1"),
            Err(DbError::NoSuchColumn(_))
        ));
        assert!(matches!(
            conn.execute("CREATE TABLE person (id INT PRIMARY KEY)"),
            Err(DbError::TableExists(_))
        ));
    }

    #[test]
    fn committed_data_survives_crash() {
        let (dev, _db, mut conn) = db();
        setup_person(&mut conn);
        dev.crash();
        let db2 = Database::open(dev).unwrap();
        let mut conn2 = db2.connect();
        let r = conn2.execute("SELECT * FROM person").unwrap();
        assert_eq!(r.rows.len(), 2);
    }

    #[test]
    fn explicit_transaction_commits_atomically() {
        let (dev, _db, mut conn) = db();
        setup_person(&mut conn);
        conn.execute("BEGIN").unwrap();
        conn.execute("INSERT INTO person VALUES (3, 'Cid', 20)")
            .unwrap();
        conn.execute("UPDATE person SET age = 99 WHERE id = 1")
            .unwrap();
        // Crash before commit: neither change is durable.
        dev.crash();
        let db2 = Database::open(dev.clone()).unwrap();
        let mut c2 = db2.connect();
        assert_eq!(c2.execute("SELECT * FROM person").unwrap().rows.len(), 2);
        let r = c2.execute("SELECT * FROM person WHERE id = 1").unwrap();
        assert_eq!(r.rows[0][2], Value::Int(30));
        // Now commit properly and crash.
        c2.execute("BEGIN").unwrap();
        c2.execute("INSERT INTO person VALUES (3, 'Cid', 20)")
            .unwrap();
        c2.execute("UPDATE person SET age = 99 WHERE id = 1")
            .unwrap();
        c2.execute("COMMIT").unwrap();
        dev.crash();
        let db3 = Database::open(dev).unwrap();
        let mut c3 = db3.connect();
        assert_eq!(c3.execute("SELECT * FROM person").unwrap().rows.len(), 3);
        assert_eq!(
            c3.execute("SELECT * FROM person WHERE id = 1")
                .unwrap()
                .rows[0][2],
            Value::Int(99)
        );
    }

    #[test]
    fn rollback_restores_memory_state() {
        let (_dev, _db, mut conn) = db();
        setup_person(&mut conn);
        conn.execute("BEGIN").unwrap();
        conn.execute("DELETE FROM person WHERE id = 1").unwrap();
        conn.execute("INSERT INTO person VALUES (7, 'Tmp', 1)")
            .unwrap();
        conn.execute("UPDATE person SET name = 'X' WHERE id = 2")
            .unwrap();
        conn.execute("ROLLBACK").unwrap();
        let r = conn.execute("SELECT * FROM person").unwrap();
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0][1], Value::Str("Ann".into()));
        assert_eq!(r.rows[1][1], Value::Str("Bob".into()));
    }

    #[test]
    fn direct_interface_matches_sql_results() {
        let (_dev, db, mut conn) = db();
        conn.create_table_direct(
            "person",
            vec![("id".into(), ColType::Int), ("name".into(), ColType::Text)],
            0,
        )
        .unwrap();
        conn.persist_row("person", vec![Value::Int(1), Value::Str("Ann".into())])
            .unwrap();
        assert_eq!(
            conn.find_row("person", &Value::Int(1)).unwrap(),
            Some(vec![Value::Int(1), Value::Str("Ann".into())])
        );
        conn.update_fields("person", &Value::Int(1), &[(1, Value::Str("Ann2".into()))])
            .unwrap();
        let via_sql = conn.execute("SELECT * FROM person WHERE id = 1").unwrap();
        assert_eq!(via_sql.rows[0][1], Value::Str("Ann2".into()));
        assert_eq!(conn.delete_row("person", &Value::Int(1)).unwrap(), 1);
        assert_eq!(db.row_count("person").unwrap(), 0);
    }

    #[test]
    fn direct_interface_skips_parse_time() {
        let (_dev, db, mut conn) = db();
        conn.create_table_direct(
            "t",
            vec![("id".into(), ColType::Int), ("v".into(), ColType::Int)],
            0,
        )
        .unwrap();
        db.reset_stats();
        for i in 0..100 {
            conn.persist_row("t", vec![Value::Int(i), Value::Int(i)])
                .unwrap();
        }
        let direct = db.stats();
        assert_eq!(direct.parse_ns, 0, "no SQL text on the direct path");
        db.reset_stats();
        for i in 100..200 {
            conn.execute(&format!("INSERT INTO t VALUES ({i}, {i})"))
                .unwrap();
        }
        let sql = db.stats();
        assert!(sql.parse_ns > 0, "SQL path pays for parsing");
    }

    #[test]
    fn explicit_checkpoint_trims_reopen_replay() {
        let (dev, db, mut conn) = db();
        setup_person(&mut conn);
        for i in 10..110 {
            conn.execute(&format!("INSERT INTO person VALUES ({i}, 'P', {i})"))
                .unwrap();
        }
        assert!(db.checkpoint());
        conn.execute("INSERT INTO person VALUES (999, 'Tail', 1)")
            .unwrap();
        dev.crash();
        let db2 = Database::open(dev).unwrap();
        // Snapshot (1 create + 102 inserts) + 1 tail insert, not the
        // 102-statement history plus creates.
        assert_eq!(db2.replayed_records(), 104);
        assert_eq!(db2.row_count("person").unwrap(), 103);
        let mut c2 = db2.connect();
        let r = c2.execute("SELECT * FROM person WHERE id = 999").unwrap();
        assert_eq!(r.rows[0][1], Value::Str("Tail".into()));
    }

    #[test]
    fn auto_checkpoint_bounds_reopen_replay() {
        let (dev, db, mut conn) = db();
        db.set_checkpoint_threshold(0); // checkpoint whenever it pays off
        conn.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
            .unwrap();
        // Heavy update churn on few rows: history grows, state does not.
        for i in 0..20 {
            conn.execute(&format!("INSERT INTO t VALUES ({i}, 0)"))
                .unwrap();
        }
        for round in 0..50 {
            for i in 0..20 {
                conn.execute(&format!("UPDATE t SET v = {round} WHERE id = {i}"))
                    .unwrap();
            }
        }
        dev.crash();
        let db2 = Database::open(dev).unwrap();
        assert_eq!(db2.row_count("t").unwrap(), 20);
        assert!(
            db2.replayed_records() < 200,
            "replayed {} records; auto-checkpoint should bound the tail far below the ~1020-record history",
            db2.replayed_records()
        );
        let mut c2 = db2.connect();
        let r = c2.execute("SELECT * FROM t WHERE id = 7").unwrap();
        assert_eq!(r.rows[0][1], Value::Int(49));
    }

    #[test]
    fn group_commit_batches_queued_txns_under_one_flush() {
        let (dev, db, mut conn) = db();
        conn.create_table_direct(
            "t",
            vec![("id".into(), ColType::Int), ("v".into(), ColType::Int)],
            0,
        )
        .unwrap();
        db.reset_stats();
        // Deterministic window: apply + enqueue two commits under the
        // engine lock (exactly what two racing connections do inside the
        // group-commit window), then run one leader flush.
        let (seq1, seq2) = {
            let mut inner = db.inner.lock();
            run_statement(
                &mut inner,
                Statement::Insert {
                    table: "t".into(),
                    values: vec![Value::Int(1), Value::Int(10)],
                },
            )
            .unwrap();
            let seq1 = inner.pending_flush.take().unwrap();
            run_statement(
                &mut inner,
                Statement::Insert {
                    table: "t".into(),
                    values: vec![Value::Int(2), Value::Int(20)],
                },
            )
            .unwrap();
            let seq2 = inner.pending_flush.take().unwrap();
            (seq1, seq2)
        };
        db.flush_group(seq2).unwrap();
        db.flush_group(seq1).unwrap(); // already covered by the leader
        let s = db.stats();
        assert_eq!(s.wal_txns, 2, "both transactions durable");
        assert_eq!(s.wal_flushes, 1, "one WAL flush for the batch");
        dev.crash();
        let db2 = Database::open(dev).unwrap();
        assert_eq!(db2.row_count("t").unwrap(), 2);
    }

    #[test]
    fn concurrent_autocommits_all_survive_a_crash() {
        let (dev, db, mut conn) = db();
        conn.create_table_direct(
            "t",
            vec![("id".into(), ColType::Int), ("v".into(), ColType::Int)],
            0,
        )
        .unwrap();
        db.reset_stats();
        let threads = 4;
        let per_thread = 25;
        std::thread::scope(|s| {
            for t in 0..threads {
                let db = db.clone();
                s.spawn(move || {
                    let mut conn = db.connect();
                    for i in 0..per_thread {
                        let id = t * per_thread + i;
                        conn.persist_row("t", vec![Value::Int(id as i64), Value::Int(id as i64)])
                            .unwrap();
                    }
                });
            }
        });
        let s = db.stats();
        assert_eq!(s.wal_txns, (threads * per_thread) as u64);
        assert!(
            s.wal_flushes <= s.wal_txns,
            "a flush never covers less than one txn"
        );
        dev.crash();
        let db2 = Database::open(dev).unwrap();
        assert_eq!(db2.row_count("t").unwrap(), threads * per_thread);
    }

    #[test]
    fn full_log_rotates_instead_of_failing() {
        // A device so small the WAL areas hold only a handful of records:
        // update churn on a tiny table must keep committing forever,
        // because the rotation fallback reclaims the history each time
        // the active area fills.
        let dev = NvmDevice::new(NvmConfig::with_size(8 << 10));
        let db = Database::create(dev.clone()).unwrap();
        let mut conn = db.connect();
        conn.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
            .unwrap();
        for i in 0..8 {
            conn.execute(&format!("INSERT INTO t VALUES ({i}, 0)"))
                .unwrap();
        }
        for round in 0..200 {
            for i in 0..8 {
                conn.execute(&format!("UPDATE t SET v = {round} WHERE id = {i}"))
                    .unwrap();
            }
        }
        dev.crash();
        let db2 = Database::open(dev).unwrap();
        assert_eq!(db2.row_count("t").unwrap(), 8);
        let mut c2 = db2.connect();
        let r = c2.execute("SELECT * FROM t WHERE id = 3").unwrap();
        assert_eq!(r.rows[0][1], Value::Int(199));
    }

    #[test]
    fn checkpoint_refused_inside_open_transaction() {
        let (_dev, db, mut conn) = db();
        setup_person(&mut conn);
        conn.begin();
        conn.execute("INSERT INTO person VALUES (3, 'Cid', 20)")
            .unwrap();
        assert!(!db.checkpoint(), "not quiesced");
        conn.commit().unwrap();
        assert!(db.checkpoint());
    }

    #[test]
    fn prepared_statements_bind_params() {
        let (_dev, _db, mut conn) = db();
        setup_person(&mut conn);
        let r = conn
            .execute_params("SELECT * FROM person WHERE id = ?", &[Value::Int(2)])
            .unwrap();
        assert_eq!(r.rows[0][1], Value::Str("Bob".into()));
        conn.execute_params(
            "INSERT INTO person VALUES (?, ?, ?)",
            &[Value::Int(5), Value::Str("Eve".into()), Value::Int(25)],
        )
        .unwrap();
        assert_eq!(conn.execute("SELECT * FROM person").unwrap().rows.len(), 3);
    }

    #[test]
    fn select_columns_reported() {
        let (_dev, _db, mut conn) = db();
        setup_person(&mut conn);
        let r = conn.execute("SELECT * FROM person").unwrap();
        assert_eq!(r.columns, vec!["id", "name", "age"]);
    }

    #[test]
    fn range_predicates_on_the_primary_key() {
        let (_dev, _db, mut conn) = db();
        conn.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
            .unwrap();
        for i in 0..10 {
            conn.execute(&format!("INSERT INTO t VALUES ({i}, {})", i * 10))
                .unwrap();
        }
        let r = conn
            .execute("SELECT * FROM t WHERE id >= 3 AND id < 6")
            .unwrap();
        assert_eq!(
            r.rows.iter().map(|r| r[0].clone()).collect::<Vec<_>>(),
            vec![Value::Int(3), Value::Int(4), Value::Int(5)]
        );
        assert_eq!(
            conn.execute("SELECT * FROM t WHERE id > 7")
                .unwrap()
                .rows
                .len(),
            2
        );
        // Inverted bounds yield an empty result, not a panic.
        assert!(conn
            .execute("SELECT * FROM t WHERE id > 6 AND id <= 3")
            .unwrap()
            .rows
            .is_empty());
    }

    #[test]
    fn secondary_index_serves_equality_and_range_selects() {
        let (_dev, db, mut conn) = db();
        setup_person(&mut conn);
        conn.execute("INSERT INTO person VALUES (3, 'Cid', 35)")
            .unwrap();
        conn.execute("CREATE INDEX by_age ON person (age)").unwrap();
        db.reset_stats();
        let r = conn.execute("SELECT * FROM person WHERE age = 35").unwrap();
        assert_eq!(
            r.rows,
            vec![vec![
                Value::Int(3),
                Value::Str("Cid".into()),
                Value::Int(35)
            ]]
        );
        let r = conn
            .execute("SELECT * FROM person WHERE age >= 30 AND age < 40")
            .unwrap();
        assert_eq!(r.rows.len(), 2, "ages 30 and 35");
        assert_eq!(db.stats().index_lookups, 2, "both selects used the index");
        // Unindexed column still answers, via the scan fallback.
        let r = conn
            .execute("SELECT * FROM person WHERE name >= 'B' AND name <= 'D'")
            .unwrap();
        assert_eq!(r.rows.len(), 2, "Bob and Cid");
        assert_eq!(db.stats().index_lookups, 2, "no index over name");
    }

    #[test]
    fn index_tracks_insert_update_delete() {
        let (_dev, db, mut conn) = db();
        setup_person(&mut conn);
        conn.execute("CREATE INDEX by_age ON person (age)").unwrap();
        conn.execute("INSERT INTO person VALUES (3, 'Cid', 30)")
            .unwrap();
        assert_eq!(
            conn.execute("SELECT * FROM person WHERE age = 30")
                .unwrap()
                .rows
                .len(),
            2
        );
        conn.execute("UPDATE person SET age = 31 WHERE id = 1")
            .unwrap();
        assert_eq!(
            conn.execute("SELECT * FROM person WHERE age = 30")
                .unwrap()
                .rows
                .len(),
            1
        );
        assert_eq!(
            conn.execute("SELECT * FROM person WHERE age = 31")
                .unwrap()
                .rows
                .len(),
            1
        );
        conn.execute("DELETE FROM person WHERE age = 31").unwrap();
        assert!(conn
            .execute("SELECT * FROM person WHERE age = 31")
            .unwrap()
            .rows
            .is_empty());
        assert!(db.stats().index_lookups >= 4);
    }

    #[test]
    fn index_definition_survives_crash_and_checkpoint() {
        let (dev, _db, mut conn) = db();
        setup_person(&mut conn);
        conn.execute("CREATE INDEX by_age ON person (age)").unwrap();
        conn.execute("INSERT INTO person VALUES (3, 'Cid', 40)")
            .unwrap();
        dev.crash();
        // Replay rebuilds the index over the replayed rows.
        let db2 = Database::open(dev.clone()).unwrap();
        let mut c2 = db2.connect();
        db2.reset_stats();
        assert_eq!(
            c2.execute("SELECT * FROM person WHERE age = 40")
                .unwrap()
                .rows
                .len(),
            2
        );
        assert_eq!(db2.stats().index_lookups, 1);
        // A checkpoint snapshot carries the definition across rotation.
        assert!(db2.checkpoint());
        c2.execute("INSERT INTO person VALUES (4, 'Dee', 40)")
            .unwrap();
        dev.crash();
        let db3 = Database::open(dev).unwrap();
        let mut c3 = db3.connect();
        db3.reset_stats();
        assert_eq!(
            c3.execute("SELECT * FROM person WHERE age = 40")
                .unwrap()
                .rows
                .len(),
            3
        );
        assert_eq!(db3.stats().index_lookups, 1);
        assert!(matches!(
            c3.execute("CREATE INDEX by_age ON person (age)"),
            Err(DbError::IndexExists(_))
        ));
    }

    #[test]
    fn create_index_rolls_back_with_the_transaction() {
        let (_dev, db, mut conn) = db();
        setup_person(&mut conn);
        conn.execute("BEGIN").unwrap();
        conn.execute("CREATE INDEX by_age ON person (age)").unwrap();
        conn.execute("ROLLBACK").unwrap();
        db.reset_stats();
        assert_eq!(
            conn.execute("SELECT * FROM person WHERE age = 30")
                .unwrap()
                .rows
                .len(),
            1
        );
        assert_eq!(db.stats().index_lookups, 0, "index definition undone");
        // And the name is free again.
        conn.execute("CREATE INDEX by_age ON person (age)").unwrap();
    }

    #[test]
    fn find_rows_by_uses_the_index() {
        let (_dev, db, mut conn) = db();
        setup_person(&mut conn);
        conn.execute("CREATE INDEX by_name ON person (name)")
            .unwrap();
        db.reset_stats();
        let rows = conn
            .find_rows_by("person", 1, &Value::Str("Bob".into()))
            .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(db.stats().index_lookups, 1);
    }

    #[test]
    fn create_index_errors() {
        let (_dev, _db, mut conn) = db();
        setup_person(&mut conn);
        assert!(matches!(
            conn.execute("CREATE INDEX i ON ghost (x)"),
            Err(DbError::NoSuchTable(_))
        ));
        assert!(matches!(
            conn.execute("CREATE INDEX i ON person (ghost)"),
            Err(DbError::NoSuchColumn(_))
        ));
        conn.execute("CREATE INDEX i ON person (age)").unwrap();
        assert!(matches!(
            conn.execute("CREATE INDEX i ON person (name)"),
            Err(DbError::IndexExists(_))
        ));
    }
}
