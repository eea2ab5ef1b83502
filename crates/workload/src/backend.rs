//! The [`Backend`] trait: one op vocabulary every persistence layer
//! implements, so a single trace replays identically against all of
//! them, plus the [`state_digest`] that proves two replays converged.
//!
//! # The shared entry model
//!
//! Every adapter exposes the server's KV data model (see
//! `crates/server/src/server.rs`): each key owns one *entry* holding an
//! optional byte value plus [`NUM_FIELDS`] u64 slots.
//! The contract every backend must honor, because the digest hashes
//! exactly this state:
//!
//! * `set` creates the entry if absent (fields all zero) and replaces
//!   only the value.
//! * `fset` creates the entry if absent, with **no** value.
//! * `get` on an entry without a value reports "not found", like the
//!   server's `GET` on a key that only ever saw `FSET`.
//! * `fget` answers for any existing entry (fields default to 0) and
//!   `None` only when the entry itself is absent.
//! * `del` removes the whole entry — value and fields.
//! * `txn` applies its parts to one key in order, atomically: `Del` then
//!   `Set` leaves a fresh entry; `Set` then `Del` leaves the key gone.
//! * `scan` answers the keys in `[start, end)` by lexicographic name
//!   (an empty bound is unbounded on that side) in ascending order, at
//!   most `limit` of them, **skipping valueless entries** — exactly the
//!   server `SCAN` semantics, so one trace's scans converge everywhere.

use espresso_object::{fnv1a, FNV1A_OFFSET};

use crate::trace::TxnPart;
use crate::{WorkloadError, NUM_FIELDS};

/// The five persistence layers a trace can drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Raw word-level `Pjh` API on a single managed heap.
    Raw,
    /// Typed-object sessions (`PObject` schema + `PRef`) on a single
    /// managed heap — the server's data path minus sharding and TCP.
    Typed,
    /// `ShardedHeap` with raw per-shard ops and fan-out commits.
    Sharded,
    /// The WAL-durable relational engine (`espresso-minidb`).
    Minidb,
    /// A live `espresso-server` over loopback TCP, driven through the
    /// blocking client.
    Server,
}

impl BackendKind {
    /// Every kind, in matrix display order.
    pub const ALL: [BackendKind; 5] = [
        BackendKind::Raw,
        BackendKind::Typed,
        BackendKind::Sharded,
        BackendKind::Minidb,
        BackendKind::Server,
    ];

    /// Stable lowercase name (CLI argument and report label).
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Raw => "raw",
            BackendKind::Typed => "typed",
            BackendKind::Sharded => "sharded",
            BackendKind::Minidb => "minidb",
            BackendKind::Server => "server",
        }
    }

    /// Parses a CLI name.
    ///
    /// # Errors
    ///
    /// [`WorkloadError::Invalid`] naming the accepted spellings.
    pub fn parse(s: &str) -> Result<BackendKind, WorkloadError> {
        BackendKind::ALL
            .into_iter()
            .find(|k| k.name() == s)
            .ok_or_else(|| {
                WorkloadError::Invalid(format!(
                    "unknown backend {s:?} (expected raw|typed|sharded|minidb|server)"
                ))
            })
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What a crash preserves, which decides the expected post-recovery
/// state (see `crate::replay::durable_prefix`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Durability {
    /// State becomes durable at `Commit` ops whose flush was awaited:
    /// a crash rolls back to the last such commit. The PJH-backed
    /// adapters.
    EpochCommit,
    /// Every op is WAL-durable before it returns: a crash preserves
    /// everything executed. minidb.
    PerOp,
}

/// One persistence layer under test. Keys are trace indices
/// (`0..key_space`); adapters map them through
/// [`key_name`](crate::trace::key_name) so on-heap root names match the
/// server's keyspace conventions.
pub trait Backend {
    /// Which adapter this is.
    fn kind(&self) -> BackendKind;

    /// Reads the value, `None` when the key is absent **or** its entry
    /// holds no value.
    fn get(&mut self, key: u32) -> Result<Option<Vec<u8>>, WorkloadError>;

    /// Writes the value, creating the entry if needed.
    fn set(&mut self, key: u32, value: &[u8]) -> Result<(), WorkloadError>;

    /// Removes the entry; reports whether it existed.
    fn del(&mut self, key: u32) -> Result<bool, WorkloadError>;

    /// Reads field `index`; `None` when the entry is absent.
    fn fget(&mut self, key: u32, index: u8) -> Result<Option<u64>, WorkloadError>;

    /// Writes field `index`, creating the entry (valueless) if needed.
    fn fset(&mut self, key: u32, index: u8, value: u64) -> Result<(), WorkloadError>;

    /// Applies parts to one key, in order, atomically.
    fn txn(&mut self, key: u32, parts: &[TxnPart]) -> Result<(), WorkloadError>;

    /// Range scan: entries whose key name lies in `[start, end)`
    /// (lexicographic; an empty string is unbounded on that side), in
    /// ascending key order, at most `limit`, valueless entries skipped.
    fn scan(
        &mut self,
        start: &str,
        end: &str,
        limit: u32,
    ) -> Result<Vec<(String, Vec<u8>)>, WorkloadError>;

    /// Seals a commit epoch; `wait` blocks until it is durable.
    /// Always-durable backends treat this as a no-op.
    fn commit(&mut self, wait: bool) -> Result<(), WorkloadError>;

    /// This backend's crash-durability granularity.
    fn durability(&self) -> Durability;

    /// Whether [`set_flush_paused`](Self::set_flush_paused) and
    /// [`crash_recover`](Self::crash_recover) work here. The TCP server
    /// adapter says no: its heap lives behind the socket, and pausing
    /// its pipeline would just turn acknowledged writes into `BUSY`.
    fn supports_faults(&self) -> bool {
        true
    }

    /// One-line allocator/GC statistics for the replay summary
    /// (`HeapStats::summary_line`), `None` where the layer exposes no
    /// heap internals (minidb, the TCP server).
    fn heap_stats(&self) -> Option<String> {
        None
    }

    /// Pauses (or resumes) the background flush pipeline, so commits
    /// sealed inside the window stay non-durable.
    fn set_flush_paused(&mut self, paused: bool) -> Result<(), WorkloadError>;

    /// Simulates a crash: discard everything non-durable, then recover
    /// from the persisted image. The backend must be usable afterwards.
    fn crash_recover(&mut self) -> Result<(), WorkloadError>;
}

fn feed(h: &mut u64, bytes: &[u8]) {
    *h = fnv1a(*h, bytes);
}

/// Hashes the backend's full observable state: for every key in index
/// order, entry presence, the value (length-prefixed) or its absence,
/// and all [`NUM_FIELDS`] field slots. FNV-1a 64 —
/// two backends (or two runs) that replayed to the same state produce
/// the same digest, and that is the harness's convergence proof.
///
/// # Errors
///
/// Propagates backend read errors.
pub fn state_digest(backend: &mut dyn Backend, key_space: u32) -> Result<u64, WorkloadError> {
    let mut h = FNV1A_OFFSET;
    for key in 0..key_space {
        // Field 0 probes entry existence: `fget` answers for any live
        // entry, even one that never saw a `set`.
        match backend.fget(key, 0)? {
            None => feed(&mut h, &[0]),
            Some(_) => {
                feed(&mut h, &[1]);
                match backend.get(key)? {
                    None => feed(&mut h, &[0]),
                    Some(value) => {
                        feed(&mut h, &[1]);
                        feed(&mut h, &(value.len() as u32).to_be_bytes());
                        feed(&mut h, &value);
                    }
                }
                for index in 0..NUM_FIELDS as u8 {
                    let v = backend.fget(key, index)?.unwrap_or(0);
                    feed(&mut h, &v.to_be_bytes());
                }
            }
        }
    }
    Ok(h)
}

/// Running digest over every scan result set a replay observes.
///
/// The final-state digest alone cannot tell whether two backends *saw*
/// the same ranges mid-replay — a backend whose scans return garbage but
/// whose writes land would still converge. This folds each scan's query
/// (bounds and limit) and its full result list (keys and values, length-
/// prefixed) into one FNV-1a stream, so the matrix comparison also proves
/// every intermediate range observation agreed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanDigest {
    h: u64,
    scans: u64,
}

impl Default for ScanDigest {
    fn default() -> ScanDigest {
        ScanDigest::new()
    }
}

impl ScanDigest {
    /// An empty accumulator (no scans observed yet).
    pub fn new() -> ScanDigest {
        ScanDigest {
            h: FNV1A_OFFSET,
            scans: 0,
        }
    }

    /// Folds one scan — its query and its result set — into the digest.
    pub fn fold(&mut self, start: &str, end: &str, limit: u32, items: &[(String, Vec<u8>)]) {
        self.scans += 1;
        feed(&mut self.h, &(start.len() as u32).to_be_bytes());
        feed(&mut self.h, start.as_bytes());
        feed(&mut self.h, &(end.len() as u32).to_be_bytes());
        feed(&mut self.h, end.as_bytes());
        feed(&mut self.h, &limit.to_be_bytes());
        feed(&mut self.h, &(items.len() as u32).to_be_bytes());
        for (key, value) in items {
            feed(&mut self.h, &(key.len() as u32).to_be_bytes());
            feed(&mut self.h, key.as_bytes());
            feed(&mut self.h, &(value.len() as u32).to_be_bytes());
            feed(&mut self.h, value);
        }
    }

    /// Number of scans folded so far.
    pub fn scans(&self) -> u64 {
        self.scans
    }

    /// Combines a final-state digest with the accumulated scan digest.
    /// With no scans folded this is `state` unchanged, so scan-free
    /// replays (and every pre-v2 trace) keep their historical digests.
    pub fn combined(&self, state: u64) -> u64 {
        if self.scans == 0 {
            return state;
        }
        let mut h = FNV1A_OFFSET;
        feed(&mut h, &state.to_be_bytes());
        feed(&mut h, &self.scans.to_be_bytes());
        feed(&mut h, &self.h.to_be_bytes());
        h
    }
}
