//! Object model shared by the volatile heap and the Persistent Java Heap.
//!
//! Mirrors the HotSpot layout the paper builds on (§3.1): every object
//! carries a two-word header — a *mark word* (GC age, mark bit, and the
//! GC timestamp Espresso repurposes for its crash-consistent collector,
//! §4.2) and a *class word* pointing at the object's [`Klass`] metadata.
//! Arrays add a length word. Data fields follow, one 64-bit word each.
//!
//! References ([`Ref`]) are tagged with the space they point into
//! ([`Space::Volatile`] vs [`Space::Persistent`]), because Espresso
//! deliberately decouples the persistence of an object from the persistence
//! of its fields (§3.4): an NVM object may hold a DRAM pointer.
//!
//! # Example
//!
//! ```
//! use espresso_object::{FieldDesc, FieldKind, KlassRegistry, Ref, Space};
//!
//! let mut reg = KlassRegistry::new();
//! let person = reg.register_instance(
//!     "Person",
//!     vec![FieldDesc::prim("id"), FieldDesc::reference("name")],
//! );
//! let k = reg.by_id(person).unwrap();
//! assert_eq!(k.instance_words(), 4); // 2 header words + 2 fields
//! let r = Ref::new(Space::Persistent, 4096);
//! assert_eq!(r.space(), Space::Persistent);
//! assert_eq!(r.addr(), 4096);
//! ```

mod header;
mod klass;
mod refs;
mod schema;

pub use header::{
    mark, ARRAY_HEADER_WORDS, ARRAY_LENGTH_WORD, HEADER_WORDS, KLASS_WORD, MARK_WORD,
};
pub use klass::{FieldDesc, FieldKind, Klass, KlassId, KlassRegistry, ObjKind};
pub use refs::{Ref, Space};
pub use schema::{
    ArrFld, FieldType, Fld, PArr, PClass, PClassBuilder, PObject, PRef, PValue, RefFld, Schema,
    SchemaError, SchemaField, StrFld,
};

/// Size of one heap word in bytes. Every field occupies one word.
pub const WORD: usize = 8;

/// Minimum object footprint in words (a field-less instance).
pub const MIN_OBJECT_WORDS: usize = HEADER_WORDS;

/// FNV-1a 64 offset basis: the state [`fnv1a`] starts from.
pub const FNV1A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into FNV-1a 64 state `h` (start from [`FNV1A_OFFSET`]).
/// The one stable hash of the stack: schema fingerprints are persisted,
/// shard routing must send a key to the shard that allocated it, and the
/// workload digest is compared across backends — so the output is part
/// of the on-disk format and must never change.
pub const fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    let mut i = 0;
    while i < bytes.len() {
        h = (h ^ bytes[i] as u64).wrapping_mul(0x0000_0100_0000_01b3);
        i += 1;
    }
    h
}
