//! Declared schemas and typed object handles — the metadata half of the
//! typed persistence layer.
//!
//! The raw heap API is word-granular: callers juggle klass ids, untyped
//! [`Ref`]s, and positional `field(r, index)` accessors. This module is
//! the declarative layer above it, the same move JPA-style ORMs and PCJ's
//! typed collections make over raw NVM:
//!
//! * [`Schema`] / [`PClassBuilder`] declare named, typed fields
//!   (`u64` / `i64` / `bool` / `f64` / `ref<T>` / strings / arrays).
//! * [`PObject`] binds a Rust marker type to a schema, giving the typed
//!   APIs a compile-time anchor.
//! * [`PRef<T>`] is a typed handle: the same word as a [`Ref`] at runtime,
//!   but parameterized by the class it points at, so a `PRef<Employee>`
//!   cannot be stored into a field declared `ref<Department>`.
//! * [`PClass<T>`] resolves field names to offsets **once**, yielding
//!   [`Fld`] / [`RefFld`] / [`StrFld`] / [`ArrFld`] handles whose value
//!   types are checked at compile time.
//!
//! Registration and validation against a live heap (including the
//! schema-evolution check that rejects incompatible persisted layouts)
//! live in `espresso-core`; this module is pure metadata and has no
//! device dependency.
//!
//! # Example
//!
//! ```
//! use espresso_object::{PObject, PRef, Schema};
//!
//! struct Person;
//! impl PObject for Person {
//!     const CLASS_NAME: &'static str = "Person";
//!     fn schema() -> Schema {
//!         Schema::builder("Person")
//!             .u64_field("id")
//!             .f64_field("score")
//!             .bool_field("active")
//!             .str_field("name")
//!             .ref_field::<Person>("friend")
//!             .build()
//!     }
//! }
//!
//! let schema = Person::schema();
//! assert_eq!(schema.len(), 5);
//! assert!(schema.field("friend").is_some());
//! assert!(PRef::<Person>::null().is_null());
//! ```

use std::collections::HashSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::marker::PhantomData;
use std::sync::Arc;

use crate::{fnv1a, FieldDesc, FieldKind, KlassId, Ref, FNV1A_OFFSET};

/// The declared type of one schema field.
///
/// Every field still occupies one 64-bit heap word — the type governs how
/// that word is interpreted, which accessors the typed layer offers for
/// it, and whether the GC traces it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum FieldType {
    /// An unsigned 64-bit integer.
    U64,
    /// A signed 64-bit integer (stored as its two's-complement bits).
    I64,
    /// A boolean (stored as 0 / 1).
    Bool,
    /// A double-precision float (stored as its IEEE-754 bits).
    F64,
    /// A reference to an instance of the named class (`ref<T>`).
    Ref {
        /// Class name of the referent.
        target: String,
    },
    /// A reference to a length-prefixed byte string stored in a primitive
    /// array (see `Pjh::alloc_string` in `espresso-core`).
    Str,
    /// A reference to a primitive (`u64`) array.
    Array,
    /// A reference to an object array whose elements are instances of the
    /// named class.
    RefArray {
        /// Element class name.
        target: String,
    },
}

impl FieldType {
    /// Whether the GC must trace this field.
    pub fn kind(&self) -> FieldKind {
        match self {
            FieldType::U64 | FieldType::I64 | FieldType::Bool | FieldType::F64 => FieldKind::Prim,
            _ => FieldKind::Reference,
        }
    }

    /// Stable tag mixed into the schema fingerprint. Changing a field's
    /// declared type — even between two primitive interpretations of the
    /// same word, like `u64` → `f64` — changes the fingerprint.
    fn fingerprint_tag(&self) -> u64 {
        match self {
            FieldType::U64 => 1,
            FieldType::I64 => 2,
            FieldType::Bool => 3,
            FieldType::F64 => 4,
            FieldType::Ref { .. } => 5,
            FieldType::Str => 6,
            FieldType::Array => 7,
            FieldType::RefArray { .. } => 8,
        }
    }
}

impl fmt::Display for FieldType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldType::U64 => write!(f, "u64"),
            FieldType::I64 => write!(f, "i64"),
            FieldType::Bool => write!(f, "bool"),
            FieldType::F64 => write!(f, "f64"),
            FieldType::Ref { target } => write!(f, "ref<{target}>"),
            FieldType::Str => write!(f, "str"),
            FieldType::Array => write!(f, "array<u64>"),
            FieldType::RefArray { target } => write!(f, "array<ref<{target}>>"),
        }
    }
}

/// One declared field: a name and a [`FieldType`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaField {
    /// Field name, unique within its schema.
    pub name: String,
    /// Declared type.
    pub ty: FieldType,
}

/// A declared class layout: an ordered list of named, typed fields.
///
/// Built with [`Schema::builder`]; registered and validated against a
/// heap's persisted Klass table by `Pjh::register_schema` in
/// `espresso-core`. Two schemas are layout-compatible iff their
/// [`fingerprint`](Self::fingerprint)s match.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    name: String,
    fields: Vec<SchemaField>,
}

impl Schema {
    /// Starts declaring a schema for class `name`.
    pub fn builder(name: &str) -> PClassBuilder {
        PClassBuilder {
            name: name.to_string(),
            fields: Vec::new(),
            seen: HashSet::new(),
        }
    }

    /// The class name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The declared fields, in layout order.
    pub fn fields(&self) -> &[SchemaField] {
        &self.fields
    }

    /// Number of declared fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Whether the schema declares no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Resolves a field name to `(index, type)`.
    pub fn field(&self, name: &str) -> Option<(usize, &FieldType)> {
        self.fields
            .iter()
            .position(|f| f.name == name)
            .map(|i| (i, &self.fields[i].ty))
    }

    /// The untyped field list the raw Klass layer stores.
    pub fn field_descs(&self) -> Vec<FieldDesc> {
        self.fields
            .iter()
            .map(|f| FieldDesc {
                name: f.name.clone(),
                kind: f.ty.kind(),
            })
            .collect()
    }

    /// A stable 64-bit digest of the full declared layout: class name,
    /// field order, field names, and field types (including `ref` targets).
    ///
    /// The heap persists this fingerprint alongside the Klass record;
    /// re-registering a class whose fingerprint disagrees is the
    /// schema-evolution error the typed layer turns into a real
    /// `SchemaMismatch` instead of silent reinterpretation.
    pub fn fingerprint(&self) -> u64 {
        // Each part ends with a 0xFF separator so ("ab","c") and
        // ("a","bc") digest differently.
        let write = |h: u64, bytes: &[u8]| fnv1a(fnv1a(h, bytes), &[0xFF]);
        let mut h = write(FNV1A_OFFSET, self.name.as_bytes());
        for f in &self.fields {
            h = write(h, f.name.as_bytes());
            h = write(h, &f.ty.fingerprint_tag().to_le_bytes());
            match &f.ty {
                FieldType::Ref { target } | FieldType::RefArray { target } => {
                    h = write(h, target.as_bytes());
                }
                _ => {}
            }
        }
        // Fingerprints are persisted in name-table value slots where 0
        // means "absent"; keep the digest non-zero.
        h.max(1)
    }
}

/// Builder for a [`Schema`]: declare fields in layout order, then
/// [`build`](Self::build).
///
/// # Panics
///
/// Field-declaring methods panic on duplicate field names — a schema is a
/// static declaration, so a duplicate is a programming error, not a
/// runtime condition.
#[derive(Debug)]
pub struct PClassBuilder {
    name: String,
    fields: Vec<SchemaField>,
    seen: HashSet<String>,
}

impl PClassBuilder {
    fn push(mut self, name: &str, ty: FieldType) -> PClassBuilder {
        assert!(
            self.seen.insert(name.to_string()),
            "duplicate field {name:?} in schema {}",
            self.name
        );
        self.fields.push(SchemaField {
            name: name.to_string(),
            ty,
        });
        self
    }

    /// Declares a `u64` field.
    pub fn u64_field(self, name: &str) -> PClassBuilder {
        self.push(name, FieldType::U64)
    }

    /// Declares an `i64` field.
    pub fn i64_field(self, name: &str) -> PClassBuilder {
        self.push(name, FieldType::I64)
    }

    /// Declares a `bool` field.
    pub fn bool_field(self, name: &str) -> PClassBuilder {
        self.push(name, FieldType::Bool)
    }

    /// Declares an `f64` field.
    pub fn f64_field(self, name: &str) -> PClassBuilder {
        self.push(name, FieldType::F64)
    }

    /// Declares a reference field targeting the class of `T` (`ref<T>`).
    pub fn ref_field<T: PObject>(self, name: &str) -> PClassBuilder {
        self.ref_named(name, T::CLASS_NAME)
    }

    /// Declares a reference field targeting a class known only by name
    /// (for dynamic schemas, e.g. ones derived from entity metadata).
    pub fn ref_named(self, name: &str, target: &str) -> PClassBuilder {
        self.push(
            name,
            FieldType::Ref {
                target: target.to_string(),
            },
        )
    }

    /// Declares a string field (a traced reference to a length-prefixed
    /// byte array).
    pub fn str_field(self, name: &str) -> PClassBuilder {
        self.push(name, FieldType::Str)
    }

    /// Declares a primitive-array field (a traced reference to a `u64`
    /// array).
    pub fn array_field(self, name: &str) -> PClassBuilder {
        self.push(name, FieldType::Array)
    }

    /// Declares an object-array field with a by-name element class.
    pub fn ref_array_named(self, name: &str, target: &str) -> PClassBuilder {
        self.push(
            name,
            FieldType::RefArray {
                target: target.to_string(),
            },
        )
    }

    /// Finishes the declaration.
    pub fn build(self) -> Schema {
        Schema {
            name: self.name,
            fields: self.fields,
        }
    }
}

/// A Rust marker type bound to a persistent class declaration.
///
/// Implementing `PObject` for a zero-sized marker gives the typed heap
/// APIs (`register::<T>()`, `alloc::<T>()`, `root::<T>(name)`,
/// [`PRef<T>`]) their compile-time anchor. [`Self::schema`] must be pure:
/// it is re-evaluated on every registration and its
/// [`fingerprint`](Schema::fingerprint) is what the heap validates
/// against the persisted layout.
pub trait PObject {
    /// The persistent class name (must equal `schema().name()`).
    const CLASS_NAME: &'static str;

    /// The declared layout.
    fn schema() -> Schema;
}

/// Typed-layer errors: unknown fields, type mismatches, wrong referents.
///
/// `espresso-core` wraps this into its `PjhError::SchemaMismatch`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaError {
    /// The class whose schema was violated.
    pub class: String,
    /// What went wrong.
    pub detail: String,
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "schema violation on {}: {}", self.class, self.detail)
    }
}

impl std::error::Error for SchemaError {}

/// A typed reference to an instance of `T` in the persistent heap.
///
/// The runtime representation is exactly a [`Ref`]; the type parameter
/// exists only at compile time, so `PRef` is free to copy and store.
/// Typed handles are produced by the typed allocation and root APIs in
/// `espresso-core`, which guarantee the referent's class; re-wrapping an
/// arbitrary raw reference is possible through
/// [`from_raw_unchecked`](Self::from_raw_unchecked) as the documented
/// low-level escape hatch.
pub struct PRef<T> {
    raw: Ref,
    _t: PhantomData<fn() -> T>,
}

// Manual impls: derives would bound them on `T`, but the phantom carries
// no `T` value.
impl<T> Clone for PRef<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for PRef<T> {}
impl<T> PartialEq for PRef<T> {
    fn eq(&self, other: &Self) -> bool {
        self.raw == other.raw
    }
}
impl<T> Eq for PRef<T> {}
impl<T> Hash for PRef<T> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.raw.hash(state);
    }
}

impl<T: PObject> fmt::Debug for PRef<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PRef<{}>({:?})", T::CLASS_NAME, self.raw)
    }
}

impl<T> PRef<T> {
    /// The null typed reference.
    pub fn null() -> PRef<T> {
        PRef {
            raw: Ref::NULL,
            _t: PhantomData,
        }
    }

    /// Whether this is the null reference.
    pub fn is_null(self) -> bool {
        self.raw.is_null()
    }

    /// The untyped reference (the raw escape hatch, e.g. for `set_root`
    /// or the positional accessors).
    pub fn raw(self) -> Ref {
        self.raw
    }

    /// Wraps a raw reference **without checking** that it points at an
    /// instance of `T`. This is the low-level escape hatch for code that
    /// has established the class some other way; prefer the typed roots
    /// and typed allocation, or `Pjh::cast`, which verify it.
    pub fn from_raw_unchecked(raw: Ref) -> PRef<T> {
        PRef {
            raw,
            _t: PhantomData,
        }
    }
}

/// A typed handle to a `u64` array in the persistent heap (the referent
/// of a [`FieldType::Array`] field).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PArr {
    raw: Ref,
}

impl PArr {
    /// The untyped reference.
    pub fn raw(self) -> Ref {
        self.raw
    }

    /// Whether this is the null array.
    pub fn is_null(self) -> bool {
        self.raw.is_null()
    }

    /// Wraps a raw reference without checking that it is a primitive
    /// array (escape hatch; the typed allocation APIs verify it).
    pub fn from_raw_unchecked(raw: Ref) -> PArr {
        PArr { raw }
    }
}

/// A primitive-valued field of `T`, resolved once from a name to an
/// offset. The value type `V` was checked against the declaration when
/// the handle was created, so accessors taking a `Fld<T, V>` are
/// type-safe at compile time.
pub struct Fld<T, V> {
    index: usize,
    _m: PhantomData<fn(T) -> V>,
}

impl<T, V> Clone for Fld<T, V> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T, V> Copy for Fld<T, V> {}
impl<T, V> fmt::Debug for Fld<T, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fld(#{})", self.index)
    }
}

impl<T, V> Fld<T, V> {
    /// The resolved field index.
    pub fn index(self) -> usize {
        self.index
    }
}

/// A reference-valued field of `T` targeting instances of `U`.
pub struct RefFld<T, U> {
    index: usize,
    _m: PhantomData<fn(T) -> U>,
}

impl<T, U> Clone for RefFld<T, U> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T, U> Copy for RefFld<T, U> {}
impl<T, U> fmt::Debug for RefFld<T, U> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RefFld(#{})", self.index)
    }
}

impl<T, U> RefFld<T, U> {
    /// The resolved field index.
    pub fn index(self) -> usize {
        self.index
    }
}

/// A string-valued field of `T`.
pub struct StrFld<T> {
    index: usize,
    _m: PhantomData<fn(T)>,
}

impl<T> Clone for StrFld<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for StrFld<T> {}
impl<T> fmt::Debug for StrFld<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "StrFld(#{})", self.index)
    }
}

impl<T> StrFld<T> {
    /// The resolved field index.
    pub fn index(self) -> usize {
        self.index
    }
}

/// A primitive-array-valued field of `T`.
pub struct ArrFld<T> {
    index: usize,
    _m: PhantomData<fn(T)>,
}

impl<T> Clone for ArrFld<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for ArrFld<T> {}
impl<T> fmt::Debug for ArrFld<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ArrFld(#{})", self.index)
    }
}

impl<T> ArrFld<T> {
    /// The resolved field index.
    pub fn index(self) -> usize {
        self.index
    }
}

/// A primitive value that fits one heap word under a declared
/// [`FieldType`]: `u64`, `i64`, `bool`, or `f64`.
pub trait PValue: Copy + private::Sealed {
    /// Whether `ty` declares this value type.
    fn matches(ty: &FieldType) -> bool;

    /// Human-readable type name for error messages.
    fn type_name() -> &'static str;

    /// Encodes the value into its heap word.
    fn to_word(self) -> u64;

    /// Decodes a heap word.
    fn from_word(w: u64) -> Self;
}

mod private {
    pub trait Sealed {}
    impl Sealed for u64 {}
    impl Sealed for i64 {}
    impl Sealed for bool {}
    impl Sealed for f64 {}
}

impl PValue for u64 {
    fn matches(ty: &FieldType) -> bool {
        *ty == FieldType::U64
    }
    fn type_name() -> &'static str {
        "u64"
    }
    fn to_word(self) -> u64 {
        self
    }
    fn from_word(w: u64) -> Self {
        w
    }
}

impl PValue for i64 {
    fn matches(ty: &FieldType) -> bool {
        *ty == FieldType::I64
    }
    fn type_name() -> &'static str {
        "i64"
    }
    fn to_word(self) -> u64 {
        self as u64
    }
    fn from_word(w: u64) -> Self {
        w as i64
    }
}

impl PValue for bool {
    fn matches(ty: &FieldType) -> bool {
        *ty == FieldType::Bool
    }
    fn type_name() -> &'static str {
        "bool"
    }
    fn to_word(self) -> u64 {
        self as u64
    }
    fn from_word(w: u64) -> Self {
        w != 0
    }
}

impl PValue for f64 {
    fn matches(ty: &FieldType) -> bool {
        *ty == FieldType::F64
    }
    fn type_name() -> &'static str {
        "f64"
    }
    fn to_word(self) -> u64 {
        self.to_bits()
    }
    fn from_word(w: u64) -> Self {
        f64::from_bits(w)
    }
}

/// A registered, validated class of `T` on some heap: the klass id plus
/// the schema, with field-name resolution done **once** per handle.
///
/// Produced by `Pjh::register::<T>()` (or `HeapHandle::register::<T>()`)
/// in `espresso-core` after the schema passed the persisted-layout and
/// fingerprint checks; cheap to clone (the schema is shared).
pub struct PClass<T: PObject> {
    id: KlassId,
    schema: Arc<Schema>,
    _t: PhantomData<fn() -> T>,
}

impl<T: PObject> fmt::Debug for PClass<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PClass")
            .field("class", &T::CLASS_NAME)
            .field("id", &self.id)
            .finish()
    }
}

impl<T: PObject> Clone for PClass<T> {
    fn clone(&self) -> Self {
        PClass {
            id: self.id,
            schema: self.schema.clone(),
            _t: PhantomData,
        }
    }
}

impl<T: PObject> PClass<T> {
    /// Binds a validated klass id to `T`'s schema. Called by the heap's
    /// registration path; the id must come from registering this very
    /// schema.
    ///
    /// # Panics
    ///
    /// Panics if `schema`'s class name is not `T::CLASS_NAME`.
    pub fn new(id: KlassId, schema: Schema) -> PClass<T> {
        assert_eq!(
            schema.name(),
            T::CLASS_NAME,
            "schema {} bound to marker type {}",
            schema.name(),
            T::CLASS_NAME
        );
        PClass {
            id,
            schema: Arc::new(schema),
            _t: PhantomData,
        }
    }

    /// The heap-assigned klass id.
    pub fn id(&self) -> KlassId {
        self.id
    }

    /// The declared schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    fn resolve(&self, name: &str) -> Result<(usize, &FieldType), SchemaError> {
        self.schema.field(name).ok_or_else(|| SchemaError {
            class: T::CLASS_NAME.to_string(),
            detail: format!("no field named {name:?}"),
        })
    }

    /// Resolves a primitive field, checking the requested value type `V`
    /// against the declaration.
    ///
    /// # Errors
    ///
    /// Unknown field name, or a declared type other than `V`.
    pub fn field<V: PValue>(&self, name: &str) -> Result<Fld<T, V>, SchemaError> {
        let (index, ty) = self.resolve(name)?;
        if !V::matches(ty) {
            return Err(SchemaError {
                class: T::CLASS_NAME.to_string(),
                detail: format!(
                    "field {name:?} is declared {ty}, accessed as {}",
                    V::type_name()
                ),
            });
        }
        Ok(Fld {
            index,
            _m: PhantomData,
        })
    }

    /// Resolves a reference field, checking that its declared target is
    /// `U`'s class.
    ///
    /// # Errors
    ///
    /// Unknown field name, a non-`ref` declaration, or a different target
    /// class.
    pub fn ref_field<U: PObject>(&self, name: &str) -> Result<RefFld<T, U>, SchemaError> {
        let (index, ty) = self.resolve(name)?;
        match ty {
            FieldType::Ref { target } if target == U::CLASS_NAME => Ok(RefFld {
                index,
                _m: PhantomData,
            }),
            other => Err(SchemaError {
                class: T::CLASS_NAME.to_string(),
                detail: format!(
                    "field {name:?} is declared {other}, accessed as ref<{}>",
                    U::CLASS_NAME
                ),
            }),
        }
    }

    /// Resolves a string field.
    ///
    /// # Errors
    ///
    /// Unknown field name or a non-`str` declaration.
    pub fn str_field(&self, name: &str) -> Result<StrFld<T>, SchemaError> {
        let (index, ty) = self.resolve(name)?;
        if *ty != FieldType::Str {
            return Err(SchemaError {
                class: T::CLASS_NAME.to_string(),
                detail: format!("field {name:?} is declared {ty}, accessed as str"),
            });
        }
        Ok(StrFld {
            index,
            _m: PhantomData,
        })
    }

    /// Resolves a primitive-array field.
    ///
    /// # Errors
    ///
    /// Unknown field name or a non-`array<u64>` declaration.
    pub fn arr_field(&self, name: &str) -> Result<ArrFld<T>, SchemaError> {
        let (index, ty) = self.resolve(name)?;
        if *ty != FieldType::Array {
            return Err(SchemaError {
                class: T::CLASS_NAME.to_string(),
                detail: format!("field {name:?} is declared {ty}, accessed as array<u64>"),
            });
        }
        Ok(ArrFld {
            index,
            _m: PhantomData,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Person;
    impl PObject for Person {
        const CLASS_NAME: &'static str = "Person";
        fn schema() -> Schema {
            Schema::builder("Person")
                .u64_field("id")
                .i64_field("balance")
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

    #[test]
    fn builder_declares_in_order() {
        let s = Person::schema();
        assert_eq!(s.name(), "Person");
        assert_eq!(s.len(), 7);
        assert_eq!(s.field("id"), Some((0, &FieldType::U64)));
        assert_eq!(s.field("name"), Some((5, &FieldType::Str)));
        assert_eq!(s.field("nope"), None);
        let descs = s.field_descs();
        assert_eq!(descs[0].kind, FieldKind::Prim);
        assert_eq!(descs[4].kind, FieldKind::Reference);
        assert_eq!(descs[5].kind, FieldKind::Reference);
        assert_eq!(descs[6].kind, FieldKind::Reference);
    }

    #[test]
    #[should_panic(expected = "duplicate field")]
    fn duplicate_field_panics() {
        let _ = Schema::builder("X").u64_field("a").f64_field("a");
    }

    #[test]
    fn fingerprint_tracks_every_declared_aspect() {
        let base = Schema::builder("P").u64_field("a").build().fingerprint();
        // Same layout, same fingerprint.
        assert_eq!(
            base,
            Schema::builder("P").u64_field("a").build().fingerprint()
        );
        // Renamed field.
        assert_ne!(
            base,
            Schema::builder("P").u64_field("b").build().fingerprint()
        );
        // Same word, different interpretation.
        assert_ne!(
            base,
            Schema::builder("P").f64_field("a").build().fingerprint()
        );
        assert_ne!(
            base,
            Schema::builder("P").i64_field("a").build().fingerprint()
        );
        // Different class name.
        assert_ne!(
            base,
            Schema::builder("Q").u64_field("a").build().fingerprint()
        );
        // Ref target changes the digest.
        let r1 = Schema::builder("P")
            .ref_named("x", "A")
            .build()
            .fingerprint();
        let r2 = Schema::builder("P")
            .ref_named("x", "B")
            .build()
            .fingerprint();
        assert_ne!(r1, r2);
        // Field-boundary ambiguity resolved by the separator.
        let s1 = Schema::builder("P")
            .u64_field("ab")
            .u64_field("c")
            .build()
            .fingerprint();
        let s2 = Schema::builder("P")
            .u64_field("a")
            .u64_field("bc")
            .build()
            .fingerprint();
        assert_ne!(s1, s2);
        assert_ne!(base, 0, "fingerprints are non-zero");
    }

    #[test]
    fn pclass_resolves_typed_fields_once() {
        let c: PClass<Person> = PClass::new(KlassId(3), Person::schema());
        assert_eq!(c.id(), KlassId(3));
        let id = c.field::<u64>("id").unwrap();
        assert_eq!(id.index(), 0);
        let score = c.field::<f64>("score").unwrap();
        assert_eq!(score.index(), 3);
        let friend = c.ref_field::<Person>("friend").unwrap();
        assert_eq!(friend.index(), 4);
        assert_eq!(c.str_field("name").unwrap().index(), 5);
        assert_eq!(c.arr_field("history").unwrap().index(), 6);
    }

    #[test]
    fn pclass_rejects_wrong_types_at_resolution() {
        let c: PClass<Person> = PClass::new(KlassId(0), Person::schema());
        let e = c.field::<f64>("id").unwrap_err();
        assert!(e.detail.contains("declared u64"), "{e}");
        assert!(c.field::<u64>("ghost").is_err());
        let e = c.ref_field::<Dept>("friend").unwrap_err();
        assert!(e.detail.contains("ref<Dept>"), "{e}");
        assert!(c.str_field("id").is_err());
        assert!(c.arr_field("name").is_err());
        // bool/i64 mismatches too.
        assert!(c.field::<bool>("balance").is_err());
        assert!(c.field::<i64>("active").is_err());
    }

    #[test]
    fn pvalue_roundtrips() {
        assert_eq!(u64::from_word(7u64.to_word()), 7);
        assert_eq!(i64::from_word((-9i64).to_word()), -9);
        assert!(bool::from_word(true.to_word()));
        assert!(!bool::from_word(false.to_word()));
        let f = -1234.5678f64;
        assert_eq!(f64::from_word(f.to_word()), f);
    }

    #[test]
    fn pref_is_a_transparent_typed_word() {
        let n: PRef<Person> = PRef::null();
        assert!(n.is_null());
        let raw = Ref::new(crate::Space::Persistent, 4096);
        let p: PRef<Person> = PRef::from_raw_unchecked(raw);
        assert_eq!(p.raw(), raw);
        assert_ne!(p, PRef::null());
        let q = p; // Copy without T: Copy
        assert_eq!(q, p);
        assert_eq!(format!("{p:?}"), format!("PRef<Person>({raw:?})"));
    }
}
