//! Persistent Java Heap (PJH) — the paper's primary contribution (§3, §4).
//!
//! An NVM-backed heap for a managed runtime that stores ordinary objects
//! (same header layout as the volatile heap), keeps its own metadata —
//! name table, Klass segment, metadata area — in NVM, and guarantees that
//! *heap metadata* is crash consistent:
//!
//! * **Crash-consistent allocation** (§4.1): the persisted allocation top
//!   is advanced before an object header becomes visible, so recovery never
//!   interprets torn allocations.
//! * **Crash-consistent GC** (§4.2): a region-based mark-summarize-compact
//!   collector that persists its mark bitmap before moving anything, uses
//!   the source copy of each object as an undo log, stamps objects with a
//!   global timestamp as they are processed, and tracks finished regions in
//!   a persisted region bitmap.
//! * **Recovery** (§4.3): reloading a heap that crashed mid-collection
//!   re-derives the idempotent summary from the persisted bitmaps and
//!   finishes the compaction.
//!
//! Heap instances are managed by name through [`HeapManager`]
//! (`createHeap` / `loadHeap` / `existsHeap` of Table 1), which hands out
//! shared live [`HeapHandle`]s: opening the same name twice yields the
//! same instance, [`HeapHandle::commit`] is the explicit (incremental)
//! durability boundary, and [`HeapHandle::txn`] runs undo-logged ACID
//! transactions (see [`HeapTxn`]). [`ShardedHeap`] spreads one logical
//! heap over N instances by key hash for multi-heap workloads. Objects
//! are published across restarts through named roots (`setRoot` /
//! `getRoot`).
//!
//! # Example
//!
//! ```
//! use espresso_core::{Pjh, PjhConfig};
//! use espresso_nvm::{NvmConfig, NvmDevice};
//! use espresso_object::FieldDesc;
//!
//! # fn main() -> Result<(), espresso_core::PjhError> {
//! let dev = NvmDevice::new(NvmConfig::with_size(8 << 20));
//! let mut heap = Pjh::create(dev.clone(), PjhConfig::small())?;
//! let person = heap.register_instance(
//!     "Person",
//!     vec![FieldDesc::prim("id"), FieldDesc::reference("name")],
//! )?;
//! let p = heap.alloc_instance(person)?;   // `pnew Person(...)`
//! heap.set_field(p, 0, 42);
//! heap.flush_object(p);
//! heap.set_root("boss", p)?;
//!
//! // Power failure, then reload from the same device.
//! dev.crash();
//! let (mut heap, report) = Pjh::load(dev, espresso_core::LoadOptions::default())?;
//! assert!(!report.recovered_gc);
//! let p = heap.get_root("boss").expect("root survived");
//! assert_eq!(heap.field(p, 0), 42);
//! # let _ = &mut heap;
//! # Ok(())
//! # }
//! ```

mod bitmap;
mod gc;
mod heap;
mod klass_segment;
mod layout;
mod manager;
mod name_table;
mod shard;
mod txn;
mod typed;

pub use bitmap::Bitmap;
pub use gc::{GcEscalation, GcKind, GcReport, RegionSummary};
pub use heap::{HeapCensus, HeapStats, LoadOptions, LoadReport, Pjh, SafetyLevel};
pub use klass_segment::PKlassTable;
pub use layout::{Layout, MAX_NAME_LEN};
pub use manager::{
    CommitReport, CommitState, CommitTicket, HeapHandle, HeapManager, ReadSession, WriteSession,
};
pub use name_table::EntryKind;
pub use shard::{hash_key, ShardRef, ShardedCommitTicket, ShardedHeap, ShardedKlass};
pub use txn::HeapTxn;
// Re-export the schema vocabulary so typed callers need only this crate.
pub use espresso_object::{
    ArrFld, FieldType, Fld, PArr, PClass, PClassBuilder, PObject, PRef, PValue, RefFld, Schema,
    SchemaError, SchemaField, StrFld,
};

use std::fmt;

/// Construction parameters for a PJH instance.
#[derive(Debug, Clone)]
pub struct PjhConfig {
    /// Region size in bytes (power of two, minimum 4 KiB).
    pub region_size: usize,
    /// Name table capacity in entries.
    pub name_table_capacity: usize,
    /// Virtual base address the heap is created at (the address hint).
    pub base_address: u64,
    /// When `false`, the collector skips every flush/fence it issues for
    /// crash consistency — the §6.4 baseline ("remove all the clflush
    /// operations").
    pub recoverable_gc: bool,
    /// Whether the v3 allocation path may serve allocations from the
    /// per-size-class free lists over dead object slots. DRAM-only policy
    /// (the persisted image is identical either way); `false` gives the
    /// bump-only baseline the churn benchmark compares against.
    pub alloc_reuse: bool,
}

impl PjhConfig {
    /// Small regions and tables, for tests.
    pub fn small() -> Self {
        PjhConfig {
            region_size: 4096,
            ..PjhConfig::default()
        }
    }
}

impl Default for PjhConfig {
    fn default() -> Self {
        PjhConfig {
            region_size: 64 << 10,
            name_table_capacity: 256,
            base_address: 0x5000_0000_0000,
            recoverable_gc: true,
            alloc_reuse: true,
        }
    }
}

/// Errors reported by PJH operations.
#[derive(Debug)]
pub enum PjhError {
    /// The device is too small for metadata plus two regions.
    HeapTooSmall {
        /// Device size in bytes.
        size: usize,
    },
    /// The device does not contain a formatted PJH image.
    NotAHeap,
    /// Allocation failed; run a collection and retry.
    HeapFull {
        /// Words requested by the failing allocation.
        requested_words: usize,
    },
    /// An object larger than one region was requested (objects never span
    /// regions; see DESIGN.md).
    ObjectTooLarge {
        /// Words requested.
        requested_words: usize,
    },
    /// The name table is out of slots.
    NameTableFull,
    /// A name exceeds [`MAX_NAME_LEN`].
    NameTooLong {
        /// The offending name.
        name: String,
    },
    /// The Klass segment is out of space.
    KlassSegmentFull,
    /// A class registration disagrees with the layout persisted in the
    /// Klass segment.
    KlassLayoutMismatch {
        /// The class name.
        name: String,
    },
    /// A typed-layer violation: a declared schema disagrees with the
    /// schema persisted in the heap (schema evolution), a field was
    /// accessed with the wrong type, or a typed handle's class check
    /// failed.
    SchemaMismatch {
        /// The class name.
        class: String,
        /// Human-readable description of the disagreement.
        detail: String,
    },
    /// A store or allocation violated the configured safety level (§3.4).
    SafetyViolation {
        /// Human-readable description.
        reason: String,
    },
    /// An underlying device error (image I/O).
    Nvm(espresso_nvm::NvmError),
    /// A named heap was not found by the manager.
    NoSuchHeap {
        /// The heap name.
        name: String,
    },
    /// A heap with this name already exists (open or on disk).
    HeapExists {
        /// The heap name.
        name: String,
    },
}

impl fmt::Display for PjhError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PjhError::HeapTooSmall { size } => {
                write!(f, "device of {size} bytes is too small for a heap")
            }
            PjhError::NotAHeap => write!(f, "device does not contain a persistent heap image"),
            PjhError::HeapFull { requested_words } => {
                write!(f, "persistent heap full allocating {requested_words} words")
            }
            PjhError::ObjectTooLarge { requested_words } => {
                write!(
                    f,
                    "object of {requested_words} words exceeds the region size"
                )
            }
            PjhError::NameTableFull => write!(f, "name table is full"),
            PjhError::NameTooLong { name } => write!(f, "name too long: {name:?}"),
            PjhError::KlassSegmentFull => write!(f, "klass segment is full"),
            PjhError::KlassLayoutMismatch { name } => {
                write!(f, "class {name} disagrees with the persisted layout")
            }
            PjhError::SchemaMismatch { class, detail } => {
                write!(f, "schema mismatch on class {class}: {detail}")
            }
            PjhError::SafetyViolation { reason } => write!(f, "memory safety violation: {reason}"),
            PjhError::Nvm(e) => write!(f, "nvm device error: {e}"),
            PjhError::NoSuchHeap { name } => write!(f, "no heap named {name:?}"),
            PjhError::HeapExists { name } => write!(f, "heap {name:?} already exists"),
        }
    }
}

impl std::error::Error for PjhError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PjhError::Nvm(e) => Some(e),
            _ => None,
        }
    }
}

impl From<espresso_nvm::NvmError> for PjhError {
    fn from(e: espresso_nvm::NvmError) -> Self {
        PjhError::Nvm(e)
    }
}

impl From<espresso_object::SchemaError> for PjhError {
    fn from(e: espresso_object::SchemaError) -> Self {
        PjhError::SchemaMismatch {
            class: e.class,
            detail: e.detail,
        }
    }
}

/// Result alias for PJH operations.
pub type Result<T> = std::result::Result<T, PjhError>;
