//! The typed persistence layer: schema registration with evolution
//! checks, typed allocation, typed named accessors, typed roots, and
//! read-only sessions.
//!
//! The raw heap surface ([`Pjh::field`], [`Pjh::set_field`], untyped
//! [`Ref`]s) stays available as the documented low-level escape hatch;
//! this module is the API applications are expected to program against:
//!
//! * **Declare** a class once with [`Schema::builder`] and bind it to a
//!   marker type via [`PObject`].
//! * **Register** it on a heap with [`Pjh::register`] /
//!   `HeapHandle::register` — this validates the declaration against the
//!   heap's *persisted* Klass table and schema fingerprint, on create and
//!   on every later load, so an incompatible layout surfaces as
//!   [`PjhError::SchemaMismatch`] instead of silently reinterpreting
//!   words.
//! * **Allocate** with `txn.alloc::<T>()` inside a transaction scope and
//!   mutate through [`Fld`]/[`RefFld`]/[`StrFld`]/[`ArrFld`] handles whose
//!   value types were checked when the handle was resolved (once, by
//!   name, against the schema).
//! * **Publish** with [`Pjh::set_root_typed`] and re-enter with
//!   `root::<T>(name)`, which verifies the stored object's class.
//! * **Read concurrently**: every typed getter takes `&Pjh`, so a
//!   [`HeapHandle::read`] guard (or [`HeapHandle::with`]) is a read-only
//!   session — concurrent readers share the `RwLock` read side instead of
//!   serializing behind writers.
//!
//! # Example
//!
//! ```
//! use espresso_core::{HeapManager, PjhConfig, PObject, PRef, Schema};
//!
//! struct Account;
//! impl PObject for Account {
//!     const CLASS_NAME: &'static str = "Account";
//!     fn schema() -> Schema {
//!         Schema::builder("Account")
//!             .u64_field("id")
//!             .i64_field("balance")
//!             .str_field("owner")
//!             .ref_field::<Account>("parent")
//!             .build()
//!     }
//! }
//!
//! # fn main() -> Result<(), espresso_core::PjhError> {
//! let mgr = HeapManager::temp()?;
//! let bank = mgr.create("bank", 4 << 20, PjhConfig::small())?;
//! let account = bank.register::<Account>()?;
//! let (id, balance) = (account.field::<u64>("id")?, account.field::<i64>("balance")?);
//! let owner = account.str_field("owner")?;
//!
//! let acct: PRef<Account> = bank.txn(|t| {
//!     let a = t.alloc::<Account>()?;
//!     t.set(a, id, 7u64);
//!     t.set(a, balance, -250i64);
//!     t.set_str(a, owner, "ada")?;
//!     Ok(a)
//! })?;
//! bank.set_root_typed("chief", acct)?;
//! bank.commit_sync()?;
//!
//! // A read-only session: typed getters on the shared read guard.
//! let h = bank.read();
//! let chief = h.root::<Account>("chief")?.expect("published");
//! assert_eq!(h.get(chief, id), 7);
//! assert_eq!(h.get(chief, balance), -250);
//! assert_eq!(h.get_str(chief, owner).as_deref(), Some("ada"));
//! # Ok(())
//! # }
//! ```

use std::any::TypeId;
use std::collections::HashMap;

use espresso_object::{
    ArrFld, Fld, KlassId, PArr, PClass, PObject, PRef, PValue, Ref, RefFld, Schema, StrFld,
    ARRAY_HEADER_WORDS, WORD,
};

use crate::heap::Pjh;
use crate::manager::HeapHandle;
use crate::name_table::EntryKind;
use crate::txn::HeapTxn;
use crate::PjhError;

/// DRAM-side typed-layer session state embedded in [`Pjh`].
///
/// Both maps are caches over persisted truth (the Klass table and the
/// fingerprint entries): a reload starts empty, so the first registration
/// of every class after a load re-runs the full validation.
#[derive(Debug, Clone, Default)]
pub(crate) struct SchemaCache {
    /// Class name → fingerprint validated against NVM this session.
    validated: HashMap<String, u64>,
    /// Rust marker type → resolved klass id, so `alloc::<T>()` in a hot
    /// loop costs one `TypeId` hash instead of rebuilding and re-hashing
    /// the schema.
    by_type: HashMap<TypeId, KlassId>,
}

impl Pjh {
    // ---- registration & validation ----

    /// Registers a declared schema, validating it against everything the
    /// heap has persisted about the class. This is the typed counterpart
    /// of [`register_instance`](Self::register_instance) and the
    /// schema-evolution guard: it runs the same field-count and
    /// reference-bitmap reconciliation against the Klass segment, **and**
    /// compares the schema's [`fingerprint`](Schema::fingerprint) (field
    /// names, order, and declared types, including `ref` targets) against
    /// the fingerprint persisted when the class was first registered.
    ///
    /// Call it on a fresh heap to declare the layout and after every load
    /// to re-validate it — an application whose declaration drifted from
    /// the image gets a real error here instead of silently reading
    /// reinterpreted words.
    ///
    /// # Errors
    ///
    /// [`PjhError::KlassLayoutMismatch`] when the field count or reference
    /// bitmap disagrees with the persisted Klass record;
    /// [`PjhError::SchemaMismatch`] when the shape matches but a field's
    /// name or declared type changed; name-table errors persisting a new
    /// fingerprint.
    pub fn register_schema(&mut self, schema: &Schema) -> crate::Result<KlassId> {
        let name = schema.name();
        let fp = schema.fingerprint();
        if let Some(&validated) = self.schemas.validated.get(name) {
            if validated == fp {
                return Ok(self
                    .lookup_klass(name)
                    .expect("validated schema has a registered klass"));
            }
            return Err(PjhError::SchemaMismatch {
                class: name.to_string(),
                detail: format!(
                    "a different schema for this class (fingerprint {validated:#018x}) was \
                     already registered in this session; declared fingerprint is {fp:#018x}"
                ),
            });
        }
        // Shape check (count + reference bitmap) against the Klass
        // segment, reconciling a reloaded placeholder in the process.
        let kid = self.register_instance(name, schema.field_descs())?;
        // Full declared-layout check against the persisted fingerprint.
        match self.names.get(&self.dev, EntryKind::Schema, name) {
            Some(stored) if stored != fp => {
                return Err(PjhError::SchemaMismatch {
                    class: name.to_string(),
                    detail: format!(
                        "declared schema (fingerprint {fp:#018x}) disagrees with the schema \
                         persisted in this heap (fingerprint {stored:#018x}); a field's name \
                         or declared type changed since the class was first registered"
                    ),
                });
            }
            Some(_) => {}
            None => {
                self.names.set(&self.dev, EntryKind::Schema, name, fp)?;
            }
        }
        self.schemas.validated.insert(name.to_string(), fp);
        Ok(kid)
    }

    /// Registers `T`'s schema (see [`register_schema`](Self::register_schema))
    /// and returns the typed class handle used to resolve field accessors.
    ///
    /// # Errors
    ///
    /// Same as [`register_schema`](Self::register_schema).
    pub fn register<T: PObject + 'static>(&mut self) -> crate::Result<PClass<T>> {
        let schema = T::schema();
        let kid = self.register_schema(&schema)?;
        self.schemas.by_type.insert(TypeId::of::<T>(), kid);
        Ok(PClass::new(kid, schema))
    }

    /// Whether `name`'s schema has been validated against this heap in
    /// this session (used by wrappers to skip the write-locking
    /// registration path).
    pub fn schema_validated(&self, name: &str) -> bool {
        self.schemas.validated.contains_key(name)
    }

    /// Resolves the klass id for marker type `T`, registering (and
    /// validating) its schema on first use in this session.
    pub(crate) fn typed_klass<T: PObject + 'static>(&mut self) -> crate::Result<KlassId> {
        if let Some(&kid) = self.schemas.by_type.get(&TypeId::of::<T>()) {
            return Ok(kid);
        }
        let kid = self.register_schema(&T::schema())?;
        self.schemas.by_type.insert(TypeId::of::<T>(), kid);
        Ok(kid)
    }

    // ---- typed allocation ----

    /// Allocates an instance of `T` (registering the schema on first
    /// use), zero-initialized like every `pnew`. Prefer the transactional
    /// [`HeapTxn::alloc`] for mutations that must be atomic with the
    /// stores publishing the object.
    ///
    /// # Errors
    ///
    /// Schema validation errors on first use; allocation errors.
    pub fn alloc<T: PObject + 'static>(&mut self) -> crate::Result<PRef<T>> {
        let kid = self.typed_klass::<T>()?;
        Ok(PRef::from_raw_unchecked(self.alloc_instance(kid)?))
    }

    /// Allocates a primitive (`u64`) array of `len` elements as a typed
    /// array handle.
    ///
    /// # Errors
    ///
    /// Allocation errors.
    pub fn alloc_arr(&mut self, len: usize) -> crate::Result<PArr> {
        let kid = self.register_prim_array();
        Ok(PArr::from_raw_unchecked(self.alloc_array(kid, len)?))
    }

    /// Allocates and fully persists a byte array: a `u64` array whose
    /// word 0 is the byte length and whose following words pack the bytes
    /// 8-per-word little-endian, flushed once. The array is fresh and
    /// unreachable, so it needs no undo logging however large it is —
    /// fill it outside a transaction and let the transaction link it.
    /// This is the one owner of the format: `str`-typed fields
    /// ([`StrFld`]), server values and workload values all store it.
    ///
    /// # Errors
    ///
    /// Allocation errors.
    pub fn alloc_bytes(&mut self, bytes: &[u8]) -> crate::Result<Ref> {
        let kid = self.register_prim_array();
        let arr = self.alloc_array(kid, 1 + bytes.len().div_ceil(8))?;
        self.array_set(arr, 0, bytes.len() as u64);
        for (i, chunk) in bytes.chunks(8).enumerate() {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.array_set(arr, 1 + i, u64::from_le_bytes(w));
        }
        self.flush_object(arr);
        Ok(arr)
    }

    /// Reads back the bytes stored by [`alloc_bytes`](Self::alloc_bytes)
    /// with one bulk device read (the device is little-endian, so the
    /// packed words are the bytes in order).
    ///
    /// # Panics
    ///
    /// Panics on null or non-array references, and when the stored length
    /// exceeds the array.
    pub fn read_bytes(&self, arr: Ref) -> Vec<u8> {
        let len = self.array_get(arr, 0) as usize;
        assert!(
            len.div_ceil(8) < self.array_len(arr),
            "byte length {len} exceeds its array at {arr:?}"
        );
        let mut bytes = vec![0u8; len];
        self.dev.read_bytes(
            self.obj_off(arr) + (ARRAY_HEADER_WORDS + 1) * WORD,
            &mut bytes,
        );
        bytes
    }

    /// [`alloc_bytes`](Self::alloc_bytes) of the string's UTF-8 bytes.
    ///
    /// # Errors
    ///
    /// Allocation errors.
    pub fn alloc_string(&mut self, s: &str) -> crate::Result<Ref> {
        self.alloc_bytes(s.as_bytes())
    }

    /// Reads back a string stored by [`alloc_string`](Self::alloc_string)
    /// (lossy on non-UTF-8 payloads).
    ///
    /// # Panics
    ///
    /// As [`read_bytes`](Self::read_bytes).
    pub fn read_string(&self, arr: Ref) -> String {
        String::from_utf8_lossy(&self.read_bytes(arr)).into_owned()
    }

    // ---- typed reads (available on `&Pjh`, i.e. in read sessions) ----

    /// Reads a primitive field through its resolved typed handle.
    pub fn get<T, V: PValue>(&self, obj: PRef<T>, f: Fld<T, V>) -> V {
        V::from_word(self.field(obj.raw(), f.index()))
    }

    /// Reads a reference field; `None` for null.
    pub fn get_ref<T, U>(&self, obj: PRef<T>, f: RefFld<T, U>) -> Option<PRef<U>> {
        let r = self.field_ref(obj.raw(), f.index());
        (!r.is_null()).then(|| PRef::from_raw_unchecked(r))
    }

    /// Reads a string field; `None` for null.
    pub fn get_str<T>(&self, obj: PRef<T>, f: StrFld<T>) -> Option<String> {
        let r = self.field_ref(obj.raw(), f.index());
        (!r.is_null()).then(|| self.read_string(r))
    }

    /// Reads a primitive-array field; `None` for null.
    pub fn get_arr<T>(&self, obj: PRef<T>, f: ArrFld<T>) -> Option<PArr> {
        let r = self.field_ref(obj.raw(), f.index());
        (!r.is_null()).then(|| PArr::from_raw_unchecked(r))
    }

    /// Length of a typed array.
    pub fn arr_len(&self, arr: PArr) -> usize {
        self.array_len(arr.raw())
    }

    /// Reads element `i` of a typed array.
    pub fn arr_get(&self, arr: PArr, i: usize) -> u64 {
        self.array_get(arr.raw(), i)
    }

    /// Checks that `r` points at an instance of `T` and wraps it. The
    /// verified bridge from the raw world into the typed one (the
    /// unverified one is [`PRef::from_raw_unchecked`]).
    ///
    /// # Errors
    ///
    /// [`PjhError::SchemaMismatch`] when the object's class is not
    /// `T::CLASS_NAME`.
    ///
    /// # Panics
    ///
    /// Panics on null or foreign references (like
    /// [`klass_of`](Self::klass_of)).
    pub fn cast<T: PObject>(&self, r: Ref) -> crate::Result<PRef<T>> {
        let klass = self.klass_of(r);
        if klass.name() != T::CLASS_NAME {
            return Err(PjhError::SchemaMismatch {
                class: T::CLASS_NAME.to_string(),
                detail: format!("reference {r:?} points at an instance of {}", klass.name()),
            });
        }
        Ok(PRef::from_raw_unchecked(r))
    }

    // ---- typed roots ----

    /// Fetches a typed root: `None` when the name is unknown (or was
    /// nullified by the zeroing scan), the typed handle when the stored
    /// object is an instance of `T`.
    ///
    /// # Errors
    ///
    /// [`PjhError::SchemaMismatch`] when the root exists but holds an
    /// instance of a different class.
    pub fn root<T: PObject>(&self, name: &str) -> crate::Result<Option<PRef<T>>> {
        match self.get_root(name) {
            None => Ok(None),
            Some(r) => {
                let klass = self.klass_of(r);
                if klass.name() != T::CLASS_NAME {
                    return Err(PjhError::SchemaMismatch {
                        class: T::CLASS_NAME.to_string(),
                        detail: format!(
                            "root {name:?} holds an instance of {}, not {}",
                            klass.name(),
                            T::CLASS_NAME
                        ),
                    });
                }
                Ok(Some(PRef::from_raw_unchecked(r)))
            }
        }
    }

    /// Publishes a typed reference under `name` — the typed `setRoot`.
    ///
    /// # Errors
    ///
    /// Name-table errors.
    pub fn set_root_typed<T: PObject>(&mut self, name: &str, r: PRef<T>) -> crate::Result<()> {
        self.set_root(name, r.raw())
    }

    // ---- typed unlogged writes (volatile until flushed, like
    //      `set_field`; use `HeapTxn` for ACID mutations) ----

    /// Writes a primitive field (volatile until flushed).
    pub fn put<T, V: PValue>(&mut self, obj: PRef<T>, f: Fld<T, V>, value: V) {
        self.set_field(obj.raw(), f.index(), value.to_word());
    }

    /// Writes a reference field (volatile until flushed).
    ///
    /// # Errors
    ///
    /// Safety violations from the heap.
    pub fn put_ref<T, U>(
        &mut self,
        obj: PRef<T>,
        f: RefFld<T, U>,
        value: Option<PRef<U>>,
    ) -> crate::Result<()> {
        let raw = value.map_or(Ref::NULL, PRef::raw);
        self.set_field_ref(obj.raw(), f.index(), raw)
    }

    /// Allocates (and persists) the string payload, then writes the field
    /// reference (the field word itself is volatile until flushed).
    ///
    /// # Errors
    ///
    /// Allocation errors; safety violations.
    pub fn put_str<T>(&mut self, obj: PRef<T>, f: StrFld<T>, s: &str) -> crate::Result<()> {
        let arr = self.alloc_string(s)?;
        self.set_field_ref(obj.raw(), f.index(), arr)
    }

    /// Writes a primitive-array field (volatile until flushed).
    ///
    /// # Errors
    ///
    /// Safety violations from the heap.
    pub fn put_arr<T>(
        &mut self,
        obj: PRef<T>,
        f: ArrFld<T>,
        value: Option<PArr>,
    ) -> crate::Result<()> {
        let raw = value.map_or(Ref::NULL, PArr::raw);
        self.set_field_ref(obj.raw(), f.index(), raw)
    }

    /// Persists every data word of a typed object with one trailing fence
    /// (the typed `Object.flush`).
    pub fn flush<T>(&self, obj: PRef<T>) {
        self.flush_object(obj.raw());
    }
}

impl HeapTxn<'_> {
    // ---- typed transactional surface: allocation plus logged,
    //      persisted stores ----

    /// Typed allocation inside the transaction scope — `pnew T()`.
    /// Registers (and validates) `T`'s schema on its first use on this
    /// heap. New objects need no undo: they are unreachable until a
    /// logged pointer store publishes them.
    ///
    /// # Errors
    ///
    /// Schema validation errors on first use; allocation errors.
    pub fn alloc<T: PObject + 'static>(&mut self) -> crate::Result<PRef<T>> {
        let r = self.heap_internal().alloc::<T>()?;
        self.note_fresh(r.raw());
        Ok(r)
    }

    /// Allocates a primitive array as a typed handle.
    ///
    /// # Errors
    ///
    /// Allocation errors.
    pub fn alloc_arr(&mut self, len: usize) -> crate::Result<PArr> {
        let a = self.heap_internal().alloc_arr(len)?;
        self.note_fresh(a.raw());
        Ok(a)
    }

    /// Registers `T`'s schema (validating against the persisted layout)
    /// and returns the typed class handle.
    ///
    /// # Errors
    ///
    /// Same as [`Pjh::register_schema`].
    pub fn register<T: PObject + 'static>(&mut self) -> crate::Result<PClass<T>> {
        self.heap_internal().register::<T>()
    }

    /// Logged, persisted primitive-field store.
    pub fn set<T, V: PValue>(&mut self, obj: PRef<T>, f: Fld<T, V>, value: V) {
        self.set_field(obj.raw(), f.index(), value.to_word());
    }

    /// Logged, persisted reference-field store.
    ///
    /// # Errors
    ///
    /// Safety violations from the heap.
    pub fn set_ref<T, U>(
        &mut self,
        obj: PRef<T>,
        f: RefFld<T, U>,
        value: Option<PRef<U>>,
    ) -> crate::Result<()> {
        let raw = value.map_or(Ref::NULL, PRef::raw);
        self.set_field_ref(obj.raw(), f.index(), raw)
    }

    /// Allocates the string payload (no undo needed: unreachable until
    /// published), then stores the field reference through the log.
    ///
    /// # Errors
    ///
    /// Allocation errors; safety violations.
    pub fn set_str<T>(&mut self, obj: PRef<T>, f: StrFld<T>, s: &str) -> crate::Result<()> {
        let arr = self.heap_internal().alloc_string(s)?;
        self.note_fresh(arr);
        self.set_field_ref(obj.raw(), f.index(), arr)
    }

    /// Logged, persisted primitive-array-field store.
    ///
    /// # Errors
    ///
    /// Safety violations from the heap.
    pub fn set_arr<T>(
        &mut self,
        obj: PRef<T>,
        f: ArrFld<T>,
        value: Option<PArr>,
    ) -> crate::Result<()> {
        let raw = value.map_or(Ref::NULL, PArr::raw);
        self.set_field_ref(obj.raw(), f.index(), raw)
    }

    /// Logged, persisted typed-array element store.
    pub fn arr_set(&mut self, arr: PArr, i: usize, value: u64) {
        self.array_set(arr.raw(), i, value);
    }
}

impl HeapHandle {
    // ---- typed session conveniences ----

    /// Registers (and validates) `T`'s schema on the shared heap; see
    /// [`Pjh::register_schema`] for the evolution check.
    ///
    /// # Errors
    ///
    /// Same as [`Pjh::register_schema`].
    pub fn register<T: PObject + 'static>(&self) -> crate::Result<PClass<T>> {
        self.with_mut(|h| h.register::<T>())
    }

    /// Fetches a typed root under the shared read lock.
    ///
    /// # Errors
    ///
    /// [`PjhError::SchemaMismatch`] when the root holds a different class.
    pub fn root<T: PObject>(&self, name: &str) -> crate::Result<Option<PRef<T>>> {
        self.with(|h| h.root(name))
    }

    /// Publishes a typed root.
    ///
    /// # Errors
    ///
    /// Name-table errors.
    pub fn set_root_typed<T: PObject>(&self, name: &str, r: PRef<T>) -> crate::Result<()> {
        self.with_mut(|h| h.set_root_typed(name, r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HeapManager, LoadOptions, PjhConfig};
    use espresso_nvm::{NvmConfig, NvmDevice};

    struct Person;
    impl PObject for Person {
        const CLASS_NAME: &'static str = "Person";
        fn schema() -> Schema {
            Schema::builder("Person")
                .u64_field("id")
                .i64_field("delta")
                .bool_field("active")
                .f64_field("score")
                .ref_field::<Person>("friend")
                .str_field("name")
                .array_field("history")
                .build()
        }
    }

    struct Dept;
    impl PObject for Dept {
        const CLASS_NAME: &'static str = "Dept";
        fn schema() -> Schema {
            Schema::builder("Dept").u64_field("id").build()
        }
    }

    fn new_heap() -> (NvmDevice, Pjh) {
        let dev = NvmDevice::new(NvmConfig::with_size(8 << 20));
        let heap = Pjh::create(dev.clone(), PjhConfig::small()).unwrap();
        (dev, heap)
    }

    #[test]
    fn typed_field_roundtrip_every_value_type() {
        let (_dev, mut h) = new_heap();
        let person = h.register::<Person>().unwrap();
        let id = person.field::<u64>("id").unwrap();
        let delta = person.field::<i64>("delta").unwrap();
        let active = person.field::<bool>("active").unwrap();
        let score = person.field::<f64>("score").unwrap();
        let p = h.alloc::<Person>().unwrap();
        h.put(p, id, 42u64);
        h.put(p, delta, -7i64);
        h.put(p, active, true);
        h.put(p, score, 2.5f64);
        assert_eq!(h.get(p, id), 42);
        assert_eq!(h.get(p, delta), -7);
        assert!(h.get(p, active));
        assert_eq!(h.get(p, score), 2.5);
    }

    #[test]
    fn typed_refs_strings_and_arrays() {
        let (_dev, mut h) = new_heap();
        let person = h.register::<Person>().unwrap();
        let friend = person.ref_field::<Person>("friend").unwrap();
        let name = person.str_field("name").unwrap();
        let history = person.arr_field("history").unwrap();
        let a = h.alloc::<Person>().unwrap();
        let b = h.alloc::<Person>().unwrap();
        assert_eq!(h.get_ref(a, friend), None);
        h.put_ref(a, friend, Some(b)).unwrap();
        assert_eq!(h.get_ref(a, friend), Some(b));
        h.put_str(a, name, "ada lovelace").unwrap();
        assert_eq!(h.get_str(a, name).as_deref(), Some("ada lovelace"));
        assert_eq!(h.get_str(b, name), None);
        let arr = h.alloc_arr(3).unwrap();
        h.array_set(arr.raw(), 1, 99);
        h.put_arr(a, history, Some(arr)).unwrap();
        let back = h.get_arr(a, history).unwrap();
        assert_eq!(h.arr_len(back), 3);
        assert_eq!(h.arr_get(back, 1), 99);
        // Clearing a ref field stores null.
        h.put_ref(a, friend, None).unwrap();
        assert_eq!(h.get_ref(a, friend), None);
    }

    #[test]
    fn typed_txn_allocates_and_aborts_atomically() {
        let (_dev, mut h) = new_heap();
        let person = h.register::<Person>().unwrap();
        let id = person.field::<u64>("id").unwrap();
        let p = h
            .txn(|t| {
                let p = t.alloc::<Person>()?;
                t.set(p, id, 5u64);
                Ok(p)
            })
            .unwrap();
        assert_eq!(h.get(p, id), 5);
        let r: crate::Result<()> = h.txn(|t| {
            t.set(p, id, 99u64);
            Err(PjhError::NotAHeap)
        });
        assert!(r.is_err());
        assert_eq!(h.get(p, id), 5, "aborted typed store rolled back");
    }

    #[test]
    fn typed_roots_check_the_class() {
        let (_dev, mut h) = new_heap();
        h.register::<Person>().unwrap();
        h.register::<Dept>().unwrap();
        let p = h.alloc::<Person>().unwrap();
        h.set_root_typed("boss", p).unwrap();
        assert_eq!(h.root::<Person>("boss").unwrap(), Some(p));
        assert_eq!(h.root::<Person>("ghost").unwrap(), None);
        match h.root::<Dept>("boss") {
            Err(PjhError::SchemaMismatch { class, detail }) => {
                assert_eq!(class, "Dept");
                assert!(detail.contains("Person"), "{detail}");
            }
            other => panic!("expected SchemaMismatch, got {other:?}"),
        }
        // cast: the verified raw→typed bridge.
        let raw = p.raw();
        assert_eq!(h.cast::<Person>(raw).unwrap(), p);
        assert!(h.cast::<Dept>(raw).is_err());
    }

    #[test]
    fn schema_fingerprint_survives_reload_and_rejects_evolution() {
        let mgr = HeapManager::temp().unwrap();
        let handle = mgr.create("app", 4 << 20, PjhConfig::small()).unwrap();
        let person = handle.register::<Person>().unwrap();
        let id = person.field::<u64>("id").unwrap();
        let p = handle
            .txn(|t| {
                let p = t.alloc::<Person>()?;
                t.set(p, id, 31u64);
                Ok(p)
            })
            .unwrap();
        handle.set_root_typed("me", p).unwrap();
        handle.commit_sync().unwrap();
        drop(handle);

        // Same declaration revalidates cleanly after the reload.
        let again = mgr.load("app", LoadOptions::default()).unwrap();
        let person = again.register::<Person>().unwrap();
        let id = person.field::<u64>("id").unwrap();
        let me = again.root::<Person>("me").unwrap().unwrap();
        assert_eq!(again.with(|h| h.get(me, id)), 31);
        drop(again);

        // An incompatible declaration with the SAME word shape (u64→f64:
        // count and ref bitmap unchanged) is caught by the fingerprint.
        struct EvolvedPerson;
        impl PObject for EvolvedPerson {
            const CLASS_NAME: &'static str = "Person";
            fn schema() -> Schema {
                Schema::builder("Person")
                    .f64_field("id") // was u64
                    .i64_field("delta")
                    .bool_field("active")
                    .f64_field("score")
                    .ref_field::<EvolvedPerson>("friend")
                    .str_field("name")
                    .array_field("history")
                    .build()
            }
        }
        let reloaded = mgr.load("app", LoadOptions::default()).unwrap();
        match reloaded.register::<EvolvedPerson>() {
            Err(PjhError::SchemaMismatch { class, .. }) => assert_eq!(class, "Person"),
            other => panic!("expected SchemaMismatch, got {other:?}"),
        }

        // A declaration that also changes the ref bitmap fails the shape
        // check (the pre-existing KlassLayoutMismatch error).
        struct RefPerson;
        impl PObject for RefPerson {
            const CLASS_NAME: &'static str = "Person";
            fn schema() -> Schema {
                Schema::builder("Person")
                    .ref_field::<RefPerson>("id") // prim → ref
                    .i64_field("delta")
                    .bool_field("active")
                    .f64_field("score")
                    .ref_field::<RefPerson>("friend")
                    .str_field("name")
                    .array_field("history")
                    .build()
            }
        }
        assert!(matches!(
            reloaded.register::<RefPerson>(),
            Err(PjhError::KlassLayoutMismatch { .. })
        ));
    }

    #[test]
    fn conflicting_schema_in_one_session_is_rejected() {
        let (_dev, mut h) = new_heap();
        h.register::<Person>().unwrap();
        let conflicting = Schema::builder("Person").u64_field("only").build();
        assert!(matches!(
            h.register_schema(&conflicting),
            Err(PjhError::SchemaMismatch { .. })
        ));
        // Re-registering the identical schema stays cheap and fine.
        h.register::<Person>().unwrap();
        assert!(h.schema_validated("Person"));
    }

    #[test]
    fn typed_accessors_survive_gc_relocation() {
        let (_dev, mut h) = new_heap();
        let person = h.register::<Person>().unwrap();
        let id = person.field::<u64>("id").unwrap();
        let friend = person.ref_field::<Person>("friend").unwrap();
        let name = person.str_field("name").unwrap();
        // Garbage + a live typed chain.
        for _ in 0..300 {
            h.alloc::<Person>().unwrap();
        }
        let a = h.alloc::<Person>().unwrap();
        let b = h.alloc::<Person>().unwrap();
        h.put(a, id, 1u64);
        h.put(b, id, 2u64);
        h.put_ref(a, friend, Some(b)).unwrap();
        h.put_str(b, name, "bee").unwrap();
        h.flush(a);
        h.flush(b);
        h.set_root_typed("chain", a).unwrap();
        h.gc_full(&[]).unwrap();
        // Old PRefs are stale after compaction — re-enter via the root.
        let a = h.root::<Person>("chain").unwrap().unwrap();
        assert_eq!(h.get(a, id), 1);
        let b = h.get_ref(a, friend).unwrap();
        assert_eq!(h.get(b, id), 2);
        assert_eq!(h.get_str(b, name).as_deref(), Some("bee"));
        h.verify_integrity().unwrap();
    }

    #[test]
    fn string_roundtrip_odd_lengths() {
        let (_dev, mut h) = new_heap();
        for s in [
            "",
            "a",
            "1234567",
            "12345678",
            "123456789",
            "日本語テキスト",
        ] {
            let arr = h.alloc_string(s).unwrap();
            assert_eq!(h.read_string(arr), s);
        }
    }

    #[test]
    fn dynamic_schema_registration_for_metadata_driven_callers() {
        // The PJO provider path: schemas built at runtime from entity
        // metadata, no marker type.
        let (_dev, mut h) = new_heap();
        let schema = Schema::builder("DBorder")
            .i64_field("id")
            .str_field("label")
            .build();
        let kid = h.register_schema(&schema).unwrap();
        assert_eq!(h.lookup_klass("DBorder"), Some(kid));
        assert_eq!(h.register_schema(&schema).unwrap(), kid, "idempotent");
    }
}
