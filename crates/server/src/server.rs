//! The serving front end: a TCP server mapping the wire protocol onto a
//! [`ShardedHeap`].
//!
//! # How requests meet the heap
//!
//! * **Reads (`GET`/`FGET`) ride lock-free read sessions.** Each read
//!   pins the reclamation epoch and goes through the shard's published
//!   metadata replica ([`HeapHandle::read`]) — it never touches the
//!   heap's writer lock, so reads keep flowing while writers commit and
//!   while the flush pipeline is paused or lagging.
//! * **Writes (`SET`/`DEL`/`FSET`/`TXN`) are applied under the shard's
//!   undo-logged transaction engine and acknowledged on *durability*.**
//!   The durability wait is where connections cooperate: a per-shard
//!   `GroupCommitter` batches every connection's pending commit request
//!   into **one epoch seal** — the first writer to arrive becomes the
//!   leader, seals the epoch (capturing every already-applied mutation),
//!   and polls the `CommitTicket` while followers park; when the epoch
//!   turns durable, all of them are answered at once. This is the same
//!   leader-drain idiom as minidb's WAL group commit, lifted across
//!   connections.
//! * **Backpressure.** Before a write is applied, the shard's flush
//!   pipeline depth ([`HeapHandle::pending_commits`]) and the committer's
//!   waiter count are checked against `max_pending`; past the bound the
//!   server answers [`Status::Busy`] without touching the heap. A write
//!   that was applied but cannot be made durable within `commit_timeout`
//!   (e.g. the pipeline is paused) is also answered `BUSY` — bounded
//!   queues and bounded waits, so a lagging flush pipeline degrades into
//!   refusals, never into unbounded memory or hung connections.
//!
//! # Data model
//!
//! Every key owns one persistent [`KvEntry`] object in the shard the key
//! hashes to, published under the key in that shard's root table. The
//! entry's schema has three typed fields: `data` (a u64 array packing
//! the raw value bytes), `fields` ([`NUM_FIELDS`] u64 slots addressed by
//! `FGET`/`FSET`), and `key` (the entry's own key string, the field the
//! shard's secondary index is declared over). `DEL` unpublishes the root
//! and removes the index entry; the entry becomes garbage for the
//! shard's GC.
//!
//! # Range scans
//!
//! Each shard maintains one persistent [`Index`] (`espresso-index`
//! B-tree) named `kv` over the `key` field. Every write keeps it in
//! step **inside the same undo-logged transaction** as the entry
//! mutation — an abort (or crash) rolls back both together. `SCAN`
//! walks one shard's index through the same lock-free read sessions as
//! `GET`, so scans are never answered `BUSY` and always observe a
//! consistent tree snapshot.

use std::collections::{HashMap, VecDeque};
use std::io::BufWriter;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use espresso_core::{
    CommitState, HeapHandle, HeapManager, HeapTxn, LoadOptions, PjhConfig, PjhError, ShardedHeap,
};
use espresso_index::{Index, Key};
use espresso_object::{ArrFld, PArr, PObject, PRef, Schema, StrFld};

use crate::protocol::{
    self, Request, Response, Status, TxnOp, MAX_KEY, MAX_SCAN_BYTES, MAX_VALUE, NUM_FIELDS,
    PROTOCOL_VERSION,
};

/// Name of the per-shard secondary index over [`KvEntry`]'s `key` field.
pub const KV_INDEX: &str = "kv";

/// The persistent object behind every key: raw value bytes in `data`,
/// [`NUM_FIELDS`] typed u64 slots in `fields`, and the entry's own key
/// string in `key` (the indexed field backing `SCAN`).
pub struct KvEntry;

impl PObject for KvEntry {
    const CLASS_NAME: &'static str = "EspressoKvEntry";
    fn schema() -> Schema {
        Schema::builder(Self::CLASS_NAME)
            .array_field("data")
            .array_field("fields")
            .str_field("key")
            .build()
    }
}

/// Server construction/runtime errors.
#[derive(Debug)]
pub enum ServerError {
    /// Heap creation/loading failed.
    Heap(PjhError),
    /// Socket setup failed.
    Io(std::io::Error),
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Heap(e) => write!(f, "heap error: {e}"),
            ServerError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl From<PjhError> for ServerError {
    fn from(e: PjhError) -> ServerError {
        ServerError::Heap(e)
    }
}

impl From<std::io::Error> for ServerError {
    fn from(e: std::io::Error) -> ServerError {
        ServerError::Io(e)
    }
}

impl std::error::Error for ServerError {}

/// Configuration for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (see
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Number of heap shards (each with its own flush pipeline and group
    /// committer).
    pub shards: usize,
    /// Bytes per shard.
    pub shard_bytes: usize,
    /// Heap directory; `None` uses a fresh temp directory owned by the
    /// server (removed when it stops).
    pub dir: Option<PathBuf>,
    /// Sharded-heap base name (`{base}.shard{i}` images).
    pub base: String,
    /// Backpressure bound: a write is refused `BUSY` when the target
    /// shard's flush-pipeline queue or durability-waiter count exceeds
    /// this.
    pub max_pending: usize,
    /// How long a write may wait for its epoch to turn durable before
    /// being answered `BUSY`.
    pub commit_timeout: Duration,
    /// Per-shard name-table capacity. Every raw key is a named root, so
    /// this bounds the distinct keys a shard can hold; the core default
    /// (256) suits embedded use but is far too small for a KV front end.
    pub name_table_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            shards: 4,
            shard_bytes: 16 << 20,
            dir: None,
            base: "kv".to_string(),
            max_pending: 64,
            commit_timeout: Duration::from_secs(1),
            name_table_capacity: 8 << 10,
        }
    }
}

/// Cross-connection group commit for one shard: the leader-drain idiom.
///
/// A *generation* is one cohort of writers acknowledged by one epoch
/// seal. Writers apply their mutation first, then join the current
/// generation; the first joiner with no active leader seals **after**
/// closing the generation (so the snapshot provably contains every
/// member's mutation) and everyone in it is released together when the
/// epoch turns durable.
struct GroupCommitter {
    state: Mutex<GcState>,
    cond: Condvar,
}

struct GcState {
    /// Generation currently accepting members. Starts at 1 so that no
    /// member is ever "already covered" by the initial `completed_gen`.
    open_gen: u64,
    /// Highest generation whose drain has completed.
    completed_gen: u64,
    /// A leader is sealing/waiting right now.
    leader_active: bool,
    /// Members currently inside `commit_durable` (backpressure input).
    waiting: usize,
    /// Recent drain outcomes by generation; cohort members resolve their
    /// reply from the first drain at or past their generation.
    results: VecDeque<(u64, CommitOutcome)>,
    /// Drains performed (stats: epoch seals issued by this committer).
    drains: u64,
    /// Writers acknowledged across all drains (stats: `acked / drains`
    /// is the coalescing factor).
    acked: u64,
}

/// How a durability wait ended: a leader's drain produces one, and every
/// member of its cohort inherits it.
#[derive(Clone)]
enum CommitOutcome {
    /// The sealed epoch covering the write is durable in the image file.
    Durable,
    /// The seal landed but durability missed the deadline (paused or
    /// lagging pipeline): answered `BUSY`; the mutation is applied and
    /// the epoch may still become durable later.
    TimedOut,
    /// The seal or flush failed, or was aborted.
    Failed(String),
}

impl GroupCommitter {
    fn new() -> GroupCommitter {
        GroupCommitter {
            state: Mutex::new(GcState {
                open_gen: 1,
                completed_gen: 0,
                leader_active: false,
                waiting: 0,
                results: VecDeque::new(),
                drains: 0,
                acked: 0,
            }),
            cond: Condvar::new(),
        }
    }

    /// Members currently parked in [`commit_durable`](Self::commit_durable).
    fn waiting(&self) -> usize {
        self.state.lock().unwrap().waiting
    }

    fn drains_and_acked(&self) -> (u64, u64) {
        let st = self.state.lock().unwrap();
        (st.drains, st.acked)
    }

    /// Joins the open generation and blocks until a leader-sealed epoch
    /// covering it turns durable (or the deadline passes). The caller
    /// must have **already applied** its mutation — membership means "my
    /// stores happened before this generation's seal".
    fn commit_durable(&self, handle: &HeapHandle, timeout: Duration) -> CommitOutcome {
        let deadline = Instant::now() + timeout;
        let mut st = self.state.lock().unwrap();
        let my_gen = st.open_gen;
        st.waiting += 1;
        let outcome = loop {
            if st.completed_gen >= my_gen {
                // Covered: the drain that completed a generation ≥ mine
                // sealed after my mutation was applied; inherit its
                // outcome.
                let outcome = st
                    .results
                    .iter()
                    .find(|(g, _)| *g >= my_gen)
                    .map_or(CommitOutcome::TimedOut, |(_, outcome)| outcome.clone());
                if matches!(outcome, CommitOutcome::Durable) {
                    st.acked += 1;
                }
                break outcome;
            }
            if !st.leader_active {
                // Become the leader: close the generation (later writers
                // join the next one), seal with no lock held, publish the
                // outcome for the whole cohort.
                st.leader_active = true;
                let lead_gen = st.open_gen;
                st.open_gen += 1;
                drop(st);
                let result = seal_and_wait(handle, deadline);
                st = self.state.lock().unwrap();
                st.leader_active = false;
                st.completed_gen = lead_gen;
                st.drains += 1;
                st.results.push_back((lead_gen, result));
                while st.results.len() > 32 {
                    st.results.pop_front();
                }
                self.cond.notify_all();
                // Loop: completed_gen ≥ my_gen resolves our own outcome
                // through the same path as every cohort member.
                continue;
            }
            let (guard, wait) = self
                .cond
                .wait_timeout(st, deadline.saturating_duration_since(Instant::now()))
                .unwrap();
            st = guard;
            if wait.timed_out() && st.completed_gen < my_gen {
                break CommitOutcome::TimedOut;
            }
        };
        st.waiting -= 1;
        outcome
    }
}

/// Seals one epoch on `handle` and waits for it, bounded by `deadline`.
fn seal_and_wait(handle: &HeapHandle, deadline: Instant) -> CommitOutcome {
    match handle.commit() {
        Ok(ticket) => poll_durable(|| ticket.state(), deadline),
        Err(e) => CommitOutcome::Failed(e.to_string()),
    }
}

/// Polls a commit barrier's state until durable, failed, or the deadline
/// passes. Polling (not `wait()`) keeps the barrier non-consuming *and*
/// bounded: a paused pipeline turns into a timeout, never a hung
/// connection or a hung shutdown.
fn poll_durable(state: impl Fn() -> CommitState, deadline: Instant) -> CommitOutcome {
    loop {
        match state() {
            CommitState::Durable => return CommitOutcome::Durable,
            CommitState::Failed(reason) => return CommitOutcome::Failed(reason),
            CommitState::InFlight => {
                if Instant::now() >= deadline {
                    return CommitOutcome::TimedOut;
                }
                std::thread::sleep(Duration::from_micros(200));
            }
        }
    }
}

#[derive(Default)]
struct Counters {
    pings: AtomicU64,
    gets: AtomicU64,
    sets: AtomicU64,
    dels: AtomicU64,
    fgets: AtomicU64,
    fsets: AtomicU64,
    txns: AtomicU64,
    scans: AtomicU64,
    stats: AtomicU64,
    busy: AtomicU64,
    errors: AtomicU64,
    bad_frames: AtomicU64,
    conns_opened: AtomicU64,
    conns_closed: AtomicU64,
}

struct Inner {
    heap: ShardedHeap,
    /// Keeps the heap directory alive (temp managers remove it on drop).
    _mgr: HeapManager,
    committers: Vec<GroupCommitter>,
    /// Typed field handles into [`KvEntry`] (indices; identical on every
    /// shard because the schema is).
    data_fld: ArrFld<KvEntry>,
    fields_fld: ArrFld<KvEntry>,
    key_fld: StrFld<KvEntry>,
    /// Per-shard secondary index over the `key` field (DRAM handles; the
    /// trees themselves live in the shard heaps and survive restarts).
    indexes: Vec<Index<KvEntry>>,
    config: ServerConfig,
    counters: Counters,
    started: Instant,
    shutdown: AtomicBool,
    /// Live connection sockets by id, shut down to unblock readers on
    /// stop; each entry is removed by its connection's [`ConnCleanup`].
    conns: Mutex<Vec<(u64, TcpStream)>>,
    next_conn_id: AtomicU64,
}

/// Drop guard owned by each connection thread: removes the connection's
/// registry entry and closes its socket even if the handler panics —
/// without it, a dying handler would leave the registry clone's FD open
/// and the client blocked in `read` forever.
struct ConnCleanup {
    inner: Arc<Inner>,
    id: u64,
}

impl Drop for ConnCleanup {
    fn drop(&mut self) {
        let mut conns = self.inner.conns.lock().unwrap();
        if let Some(pos) = conns.iter().position(|(id, _)| *id == self.id) {
            let (_, stream) = conns.swap_remove(pos);
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        drop(conns);
        self.inner
            .counters
            .conns_closed
            .fetch_add(1, Ordering::Relaxed);
    }
}

/// A running server; dropping the handle does **not** stop it — call
/// [`stop`](Self::stop) or send the `SHUTDOWN` opcode, then
/// [`wait`](Self::wait).
pub struct ServerHandle {
    addr: SocketAddr,
    inner: Arc<Inner>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

/// The server: see the module docs for the serving model.
pub struct Server;

impl Server {
    /// Opens (or creates) the sharded heap and starts accepting
    /// connections. Returns once the listener is bound.
    ///
    /// # Errors
    ///
    /// Heap creation/open errors; socket bind errors.
    pub fn start(config: ServerConfig) -> Result<ServerHandle, ServerError> {
        let mgr = match &config.dir {
            Some(dir) => HeapManager::open(dir)?,
            None => HeapManager::temp()?,
        };
        let heap = if ShardedHeap::exists(&mgr, &config.base) {
            ShardedHeap::open(&mgr, &config.base, LoadOptions::default())?
        } else {
            ShardedHeap::create(
                &mgr,
                &config.base,
                config.shards,
                config.shard_bytes,
                PjhConfig {
                    name_table_capacity: config.name_table_capacity,
                    ..PjhConfig::default()
                },
            )?
        };
        // Register the entry schema on every shard up front: validates
        // persisted fingerprints on reopen, and publishes the klass into
        // each shard's read replica before the first GET. The per-shard
        // `kv` index over the `key` field is opened (or created, on a
        // fresh shard) in the same pass, so every write path below can
        // assume it exists.
        let mut fld = None;
        let mut indexes = Vec::with_capacity(heap.num_shards());
        for i in 0..heap.num_shards() {
            let class = heap
                .handle(i)
                .register::<KvEntry>()
                .map_err(ServerError::Heap)?;
            if fld.is_none() {
                let data = class.arr_field("data").expect("declared field");
                let fields = class.arr_field("fields").expect("declared field");
                let key = class.str_field("key").expect("declared field");
                fld = Some((data, fields, key));
            }
            indexes.push(
                heap.handle(i)
                    .with_mut(|h| Index::<KvEntry>::open_or_create(h, KV_INDEX, "key"))
                    .map_err(ServerError::Heap)?,
            );
        }
        let (data_fld, fields_fld, key_fld) = fld.expect("at least one shard");
        let committers = (0..heap.num_shards())
            .map(|_| GroupCommitter::new())
            .collect();

        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let inner = Arc::new(Inner {
            heap,
            _mgr: mgr,
            committers,
            data_fld,
            fields_fld,
            key_fld,
            indexes,
            config,
            counters: Counters::default(),
            started: Instant::now(),
            shutdown: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
            next_conn_id: AtomicU64::new(0),
        });
        let accept_inner = Arc::clone(&inner);
        let accept_thread = std::thread::Builder::new()
            .name("espresso-accept".to_string())
            .spawn(move || accept_loop(&listener, &accept_inner))
            .expect("spawn accept thread");
        Ok(ServerHandle {
            addr,
            inner,
            accept_thread: Some(accept_thread),
        })
    }
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The served heap — test and bench access to the pause/abort crash
    /// hooks and to shard state.
    pub fn heap(&self) -> &ShardedHeap {
        &self.inner.heap
    }

    /// Asks the server to stop (idempotent): stops accepting, unblocks
    /// every connection, resumes a paused flush pipeline so the final
    /// commit can land. [`wait`](Self::wait) joins the drain.
    pub fn stop(&self) {
        trigger_shutdown(&self.inner, self.addr);
    }

    /// Blocks until the server has fully stopped (accept loop joined,
    /// connections drained, final all-shards commit sealed and waited).
    pub fn wait(mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }

    /// [`stop`](Self::stop) then [`wait`](Self::wait).
    pub fn stop_and_wait(self) {
        self.stop();
        self.wait();
    }
}

fn trigger_shutdown(inner: &Arc<Inner>, addr: SocketAddr) {
    if inner.shutdown.swap(true, Ordering::SeqCst) {
        return;
    }
    // A paused pipeline would wedge the final commit and any parked
    // durability waiters: resume before draining.
    inner.heap.set_flush_paused(false);
    // Unblock every connection reader, then the accept loop itself.
    for (_, conn) in inner.conns.lock().unwrap().iter() {
        let _ = conn.shutdown(std::net::Shutdown::Both);
    }
    let _ = TcpStream::connect(addr);
}

fn accept_loop(listener: &TcpListener, inner: &Arc<Inner>) {
    let mut workers = Vec::new();
    for stream in listener.incoming() {
        if inner.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        inner.counters.conns_opened.fetch_add(1, Ordering::Relaxed);
        let id = inner.next_conn_id.fetch_add(1, Ordering::Relaxed);
        inner
            .conns
            .lock()
            .unwrap()
            .push((id, stream.try_clone().expect("clone connection socket")));
        let conn_inner = Arc::clone(inner);
        let addr = listener.local_addr().expect("listener addr");
        workers.push(
            std::thread::Builder::new()
                .name("espresso-conn".to_string())
                .spawn(move || {
                    let _cleanup = ConnCleanup {
                        inner: Arc::clone(&conn_inner),
                        id,
                    };
                    serve_connection(stream, &conn_inner, addr);
                })
                .expect("spawn connection thread"),
        );
    }
    for w in workers {
        let _ = w.join();
    }
    // Final checkpoint: seal every shard and poll the fan-out barrier
    // non-consumingly (ShardedCommitTicket::state), bounded by the commit
    // timeout — shutdown must not hang on a wedged shard.
    if let Ok(ticket) = inner.heap.commit() {
        let deadline = Instant::now() + inner.config.commit_timeout;
        match poll_durable(|| ticket.state(), deadline) {
            CommitOutcome::Durable => {}
            CommitOutcome::Failed(reason) => {
                eprintln!("espresso-server: final commit failed: {reason}");
            }
            CommitOutcome::TimedOut => {
                eprintln!("espresso-server: final commit still in flight at shutdown");
            }
        }
    }
}

fn serve_connection(stream: TcpStream, inner: &Arc<Inner>, server_addr: SocketAddr) {
    let mut reader = stream.try_clone().expect("clone connection socket");
    let mut writer = BufWriter::new(stream);
    loop {
        if inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let body = match protocol::read_frame(&mut reader) {
            Ok(Some(body)) => body,
            Ok(None) => return, // clean close between frames
            Err(protocol::ProtocolError::Io(_)) => return,
            Err(e) => {
                // Framing is broken (oversized length prefix): answer and
                // drop the connection — resynchronization is impossible.
                inner.counters.bad_frames.fetch_add(1, Ordering::Relaxed);
                let resp = Response::bad_request(e.to_string());
                let _ = protocol::write_frame(&mut writer, &protocol::encode_response(&resp));
                return;
            }
        };
        let (resp, shutdown) = match protocol::decode_request(&body) {
            Ok(req) => handle_request(inner, req),
            Err(e) => {
                inner.counters.bad_frames.fetch_add(1, Ordering::Relaxed);
                let _ = protocol::write_frame(
                    &mut writer,
                    &protocol::encode_response(&Response::bad_request(e.to_string())),
                );
                return; // same: cannot trust the stream position anymore
            }
        };
        if protocol::write_frame(&mut writer, &protocol::encode_response(&resp)).is_err() {
            return;
        }
        if shutdown {
            trigger_shutdown(inner, server_addr);
            return;
        }
    }
}

/// Handles one decoded request; the bool asks the caller to trigger
/// server shutdown after replying.
fn handle_request(inner: &Arc<Inner>, req: Request) -> (Response, bool) {
    let c = &inner.counters;
    let resp = match req {
        Request::Ping => {
            c.pings.fetch_add(1, Ordering::Relaxed);
            Response::status(Status::Ok)
        }
        Request::Get { key } => {
            c.gets.fetch_add(1, Ordering::Relaxed);
            op_get(inner, &key)
        }
        Request::Set { key, value } => {
            c.sets.fetch_add(1, Ordering::Relaxed);
            ack_applied(inner, apply_ops(inner, &[TxnOp::Set { key, value }]))
        }
        Request::Del { key } => {
            c.dels.fetch_add(1, Ordering::Relaxed);
            match apply_ops(inner, &[TxnOp::Del { key }]) {
                // Nothing was mutated, so there is no commit to wait on.
                Ok((_, existed)) if !existed[0] => Response::status(Status::NotFound),
                applied => ack_applied(inner, applied),
            }
        }
        Request::FGet { key, index } => {
            c.fgets.fetch_add(1, Ordering::Relaxed);
            op_fget(inner, &key, index)
        }
        Request::FSet { key, index, value } => {
            c.fsets.fetch_add(1, Ordering::Relaxed);
            ack_applied(
                inner,
                apply_ops(inner, &[TxnOp::FSet { key, index, value }]),
            )
        }
        Request::Txn { ops } => {
            c.txns.fetch_add(1, Ordering::Relaxed);
            ack_applied(inner, apply_ops(inner, &ops))
        }
        Request::Scan {
            shard,
            start,
            end,
            limit,
        } => {
            c.scans.fetch_add(1, Ordering::Relaxed);
            op_scan(inner, shard, &start, &end, limit)
        }
        Request::Stats => {
            c.stats.fetch_add(1, Ordering::Relaxed);
            Response::ok(render_stats(inner).into_bytes())
        }
        Request::FlushCtl { pause } => {
            inner.heap.set_flush_paused(pause);
            Response::status(Status::Ok)
        }
        Request::Shutdown => return (Response::status(Status::Ok), true),
    };
    match resp.status {
        Status::Busy => {
            c.busy.fetch_add(1, Ordering::Relaxed);
        }
        Status::Err => {
            c.errors.fetch_add(1, Ordering::Relaxed);
        }
        _ => {}
    }
    (resp, false)
}

// ---- operations ----

/// Replies to a write: whatever refused it, or — once applied — `OK`
/// after joining the shard's group commit, so the reply is sent only
/// when a sealed epoch covering the mutation is durable.
fn ack_applied(inner: &Arc<Inner>, applied: Result<(usize, Vec<bool>), Response>) -> Response {
    let shard = match applied {
        Ok((shard, _)) => shard,
        Err(refusal) => return refusal,
    };
    match inner.committers[shard]
        .commit_durable(inner.heap.handle(shard), inner.config.commit_timeout)
    {
        CommitOutcome::Durable => Response::status(Status::Ok),
        CommitOutcome::TimedOut => Response::status(Status::Busy),
        CommitOutcome::Failed(reason) => Response::err(format!("commit failed: {reason}")),
    }
}

fn op_get(inner: &Arc<Inner>, key: &str) -> Response {
    let session = inner.heap.handle_for(key).read();
    let entry: Option<PRef<KvEntry>> = match session.root::<KvEntry>(key) {
        Ok(e) => e,
        Err(e) => return Response::err(e.to_string()),
    };
    let Some(entry) = entry else {
        return Response::status(Status::NotFound);
    };
    let Some(data) = session.get_arr(entry, inner.data_fld) else {
        // Entry exists (e.g. created by FSET) but holds no value.
        return Response::status(Status::NotFound);
    };
    Response::ok(session.read_bytes(data.raw()))
}

fn op_fget(inner: &Arc<Inner>, key: &str, index: u8) -> Response {
    if usize::from(index) >= NUM_FIELDS {
        return Response::err(format!(
            "field index {index} out of range (0..{NUM_FIELDS})"
        ));
    }
    let session = inner.heap.handle_for(key).read();
    let entry: Option<PRef<KvEntry>> = match session.root::<KvEntry>(key) {
        Ok(e) => e,
        Err(e) => return Response::err(e.to_string()),
    };
    let Some(entry) = entry else {
        return Response::status(Status::NotFound);
    };
    let Some(fields) = session.get_arr(entry, inner.fields_fld) else {
        return Response::status(Status::NotFound);
    };
    let v = session.arr_get(fields, usize::from(index));
    Response::ok(v.to_be_bytes().to_vec())
}

/// Allocates one fresh [`KvEntry`] for `key` inside `t`: fields array,
/// back-pointer `key` string, and the shard index entry, all in the one
/// transaction. The entry's own stores are unlogged init stores (it is
/// transaction-fresh and unreachable until published), so the log cost
/// is exactly the index insert's two records — which is what keeps a
/// full [`protocol::MAX_TXN_OPS`]-op transaction inside the bounded
/// undo log. The entry is flushed here; the caller publishes it after
/// the transaction commits.
fn create_entry(
    inner: &Inner,
    t: &mut HeapTxn<'_>,
    idx: &Index<KvEntry>,
    key: &str,
) -> Result<PRef<KvEntry>, PjhError> {
    let entry = t.alloc::<KvEntry>()?;
    let fields = t.alloc_arr(NUM_FIELDS)?;
    t.init_field_ref(entry.raw(), inner.fields_fld.index(), fields.raw())?;
    let key_str = t.alloc_string(key)?;
    t.init_field_ref(entry.raw(), inner.key_fld.index(), key_str)?;
    // Init stores are volatile: persist the entry before the index
    // insert's logged root swap can make it reachable.
    t.heap().flush(entry);
    idx.insert(t, &Key::Str(key.to_string()), entry)?;
    Ok(entry)
}

fn op_scan(inner: &Arc<Inner>, shard: u16, start: &str, end: &str, limit: u32) -> Response {
    use std::ops::Bound;
    let shard = usize::from(shard);
    if shard >= inner.heap.num_shards() {
        return Response::err(format!(
            "shard {shard} out of range (0..{})",
            inner.heap.num_shards()
        ));
    }
    // Same lock-free read path as GET: the session pins a consistent
    // snapshot of the shard, and every index node reachable from the
    // root published at pin time is immutable.
    let session = inner.heap.handle(shard).read();
    let lo = if start.is_empty() {
        Bound::Unbounded
    } else {
        Bound::Included(Key::Str(start.to_string()))
    };
    let hi = if end.is_empty() {
        Bound::Unbounded
    } else {
        Bound::Excluded(Key::Str(end.to_string()))
    };
    let iter = match inner.indexes[shard].range(&session, (lo, hi)) {
        Ok(it) => it,
        Err(e) => return Response::err(e.to_string()),
    };
    let mut items: Vec<protocol::ScanItem> = Vec::new();
    let mut bytes = 0usize;
    let mut truncated = false;
    for (key, entry) in iter {
        let Key::Str(key) = key else {
            return Response::err("kv index key is not a string".to_string());
        };
        // Field-only entries (FSET with no SET) hold no value and are
        // skipped, exactly as GET answers NOT_FOUND for them.
        let Some(data) = session.get_arr(entry, inner.data_fld) else {
            continue;
        };
        if items.len() >= limit as usize {
            truncated = true;
            break;
        }
        let value = session.read_bytes(data.raw());
        if bytes + key.len() + value.len() > MAX_SCAN_BYTES {
            truncated = true;
            break;
        }
        bytes += key.len() + value.len();
        items.push((key, value));
    }
    Response::ok(protocol::encode_scan_items(truncated, &items))
}

/// The one write path: `SET`, `FSET` and `DEL` are one-op calls of what
/// `TXN` runs. Routes to the shard, validates, checks admission, then
/// applies `ops` atomically. `Ok` carries the shard to acknowledge on and,
/// per op, whether its key had an entry before the op ran; `Err` is the
/// reply for a write that was refused and not applied.
fn apply_ops(inner: &Arc<Inner>, ops: &[TxnOp]) -> Result<(usize, Vec<bool>), Response> {
    let Some(first) = ops.first() else {
        return Err(Response::err("empty transaction"));
    };
    let shard = inner.heap.shard_of(first.key());
    for op in &ops[1..] {
        let s = inner.heap.shard_of(op.key());
        if s != shard {
            return Err(Response::err(format!(
                "cross-shard transaction: key {:?} routes to shard {s}, {:?} to shard {shard} \
                 (shards are independent atomicity domains)",
                op.key(),
                first.key()
            )));
        }
    }
    for op in ops {
        if let TxnOp::FSet { index, .. } = op {
            if usize::from(*index) >= NUM_FIELDS {
                return Err(Response::err(format!(
                    "field index {index} out of range (0..{NUM_FIELDS})"
                )));
            }
        }
    }
    // Checked before the mutation so refused writes are never applied.
    let bound = inner.config.max_pending;
    if inner.heap.handle(shard).pending_commits() > bound
        || inner.committers[shard].waiting() >= bound
    {
        return Err(Response::status(Status::Busy));
    }
    let data_fld = inner.data_fld;
    let fields_fld = inner.fields_fld;
    let idx = &inner.indexes[shard];
    // On `HeapFull` the core policy collects the shard (reclaiming dead
    // entries and replaced values) and re-runs the whole section.
    let applied = inner.heap.handle(shard).with_mut_retry(|h| {
        // All object mutations run inside one undo-logged transaction;
        // the net root change per key is staged and applied right after
        // it commits, still under this write session — so no epoch can
        // seal a state where the transaction landed but the roots did
        // not, and an abort leaves the root table untouched. Root-table
        // updates are not undo-logged, so a crash exactly between the two
        // can leave a deleted key readable but unscannable until deleted
        // again, or a fresh entry as unreachable garbage; it can never
        // leave the index pointing at reclaimed storage (index references
        // keep entries live). Staging is *per key, in op order* (a map,
        // not publish/unpublish lists): `Del k` then `Set k` must leave a
        // fresh entry published, and `Set k` then `Del k` must leave the
        // key gone.
        let mut staged: HashMap<&str, Option<PRef<KvEntry>>> = HashMap::new();
        let mut existed = Vec::with_capacity(ops.len());
        // Value arrays are filled unlogged before the transaction (fresh
        // objects need no undo records — see `Pjh::alloc_bytes`); the
        // transaction links them, so its log cost is a few words per op
        // regardless of value sizes.
        let mut value_arrs: Vec<PArr> = Vec::new();
        for op in ops {
            if let TxnOp::Set { value, .. } = op {
                value_arrs.push(PArr::from_raw_unchecked(h.alloc_bytes(value)?));
            }
        }
        h.txn(|t| {
            let mut next_arr = value_arrs.iter();
            for op in ops {
                let key = op.key();
                // The key's current entry: the staged view if an earlier
                // op touched it (`None` = staged-deleted), else the
                // published root.
                let current = match staged.get(key) {
                    Some(view) => *view,
                    None => t.root::<KvEntry>(key)?,
                };
                existed.push(current.is_some());
                // Fresh entries are index-inserted on creation and `Del`
                // removes the current entry from the index — so the index
                // mutations mirror the ops in order and the log cost
                // stays at most three records per op.
                let entry = match (op, current) {
                    (TxnOp::Del { .. }, Some(entry)) => {
                        idx.remove(t, &Key::Str(key.to_string()), entry)?;
                        staged.insert(key, None);
                        continue;
                    }
                    (TxnOp::Del { .. }, None) => continue,
                    (_, Some(entry)) => entry,
                    (_, None) => {
                        let entry = create_entry(inner, t, idx, key)?;
                        staged.insert(key, Some(entry));
                        entry
                    }
                };
                match op {
                    TxnOp::Set { .. } => {
                        let arr = *next_arr.next().expect("one array per Set op");
                        t.set_arr(entry, data_fld, Some(arr))?;
                    }
                    TxnOp::FSet { index, value, .. } => {
                        let fields = t
                            .get_arr(entry, fields_fld)
                            .expect("entries always carry a fields array");
                        t.arr_set(fields, usize::from(*index), *value);
                    }
                    TxnOp::Del { .. } => unreachable!("handled above"),
                }
            }
            Ok(())
        })?;
        for (key, action) in &staged {
            match action {
                Some(entry) => h.set_root_typed(key, *entry)?,
                None => {
                    h.remove_root(key);
                }
            }
        }
        Ok(existed)
    });
    match applied {
        Ok(existed) => Ok((shard, existed)),
        Err(e) => Err(Response::err(e.to_string())),
    }
}

fn render_stats(inner: &Arc<Inner>) -> String {
    use std::fmt::Write as _;
    let c = &inner.counters;
    let mut out = String::new();
    let _ = writeln!(out, "version={PROTOCOL_VERSION}");
    let _ = writeln!(out, "shards={}", inner.heap.num_shards());
    let _ = writeln!(out, "uptime_ms={}", inner.started.elapsed().as_millis());
    let _ = writeln!(out, "max_value_bytes={MAX_VALUE}");
    let _ = writeln!(out, "max_key_bytes={MAX_KEY}");
    let _ = writeln!(out, "num_fields={NUM_FIELDS}");
    let _ = writeln!(out, "max_pending={}", inner.config.max_pending);
    let _ = writeln!(
        out,
        "conns_open={}",
        c.conns_opened.load(Ordering::Relaxed) - c.conns_closed.load(Ordering::Relaxed)
    );
    for (name, v) in [
        ("ops_ping", &c.pings),
        ("ops_get", &c.gets),
        ("ops_set", &c.sets),
        ("ops_del", &c.dels),
        ("ops_fget", &c.fgets),
        ("ops_fset", &c.fsets),
        ("ops_txn", &c.txns),
        ("ops_scan", &c.scans),
        ("ops_stats", &c.stats),
        ("busy", &c.busy),
        ("errors", &c.errors),
        ("bad_frames", &c.bad_frames),
    ] {
        let _ = writeln!(out, "{name}={}", v.load(Ordering::Relaxed));
    }
    let (mut drains, mut acked) = (0u64, 0u64);
    for committer in &inner.committers {
        let (d, a) = committer.drains_and_acked();
        drains += d;
        acked += a;
    }
    let _ = writeln!(out, "group_drains={drains}");
    let _ = writeln!(out, "group_acked={acked}");
    for i in 0..inner.heap.num_shards() {
        let h = inner.heap.handle(i);
        let index_len = inner.indexes[i].len(&h.read()).unwrap_or(0);
        let _ = writeln!(
            out,
            "shard{i}.sealed={} shard{i}.durable={} shard{i}.pending={} shard{i}.flush_paused={} \
             shard{i}.index_len={index_len}",
            h.sealed_epoch(),
            h.durable_epoch(),
            h.pending_commits(),
            h.flush_paused()
        );
        let s = h.heap_stats();
        let _ = writeln!(
            out,
            "shard{i}.bump_top_words={} shard{i}.free_list_slots={} \
             shard{i}.free_list_words={} shard{i}.deferred_slots={} \
             shard{i}.reused_slots={} shard{i}.free_regions={} \
             shard{i}.gc={} shard{i}.gc_full={}",
            s.bump_top_words,
            s.free_list_slots,
            s.free_list_words,
            s.deferred_slots,
            s.reused_slots,
            s.free_regions,
            s.gc_count,
            s.gc_full_count
        );
    }
    out
}
