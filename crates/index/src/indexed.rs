//! [`IndexedHeap`]: a per-class façade that keeps every registered index
//! in sync with object mutations automatically, inside one transaction.

use espresso_core::{HeapHandle, HeapTxn, PjhError, ReadSession};
use espresso_object::{Fld, PClass, PObject, PRef, StrFld};

use crate::tree::Index;
use crate::Key;

/// A heap handle specialised for one object class `T`, carrying the
/// class's registered schema and its set of secondary indexes.
///
/// Mutations issued through this type (`create_object`, `put_*`,
/// `remove_object`) bundle the field write and all affected index
/// maintenance into **one** transaction, so an abort or crash rolls back
/// both together and no path can observe an object whose indexed field
/// disagrees with the index. They run under the heap's one
/// [`PjhError::HeapFull`] policy ([`HeapHandle::txn_retry`]): one full
/// collection, one retry.
///
/// Objects mutated through raw [`espresso_core::Pjh`] APIs bypass index
/// maintenance; mix the two styles only for non-indexed fields.
pub struct IndexedHeap<T: PObject> {
    handle: HeapHandle,
    class: PClass<T>,
    indexes: Vec<Index<T>>,
}

impl<T: PObject + 'static> IndexedHeap<T> {
    /// Wraps `handle`, registering `T`'s schema (idempotent).
    ///
    /// # Errors
    ///
    /// Schema registration errors ([`PjhError::SchemaMismatch`] on
    /// fingerprint drift).
    pub fn open(handle: HeapHandle) -> espresso_core::Result<IndexedHeap<T>> {
        let class = handle.with_mut(|h| h.register::<T>())?;
        Ok(IndexedHeap {
            handle,
            class,
            indexes: Vec::new(),
        })
    }

    /// The underlying heap handle.
    pub fn handle(&self) -> &HeapHandle {
        &self.handle
    }

    /// The registered class, for resolving field handles.
    pub fn class(&self) -> &PClass<T> {
        &self.class
    }

    /// A pinned lock-free read session (see
    /// [`HeapHandle::read`]).
    pub fn read(&self) -> ReadSession {
        self.handle.read()
    }

    /// The indexes this façade maintains.
    pub fn indexes(&self) -> &[Index<T>] {
        &self.indexes
    }

    /// Looks up a maintained index by name.
    pub fn index(&self, name: &str) -> Option<&Index<T>> {
        self.indexes.iter().find(|i| i.name() == name)
    }

    /// Creates a new index over `field` and backfills it from every live
    /// instance of `T` already in the heap (a full collection runs first
    /// so dead-but-uncollected objects are not resurrected into the
    /// index). The index is maintained by this façade from then on.
    ///
    /// # Errors
    ///
    /// As [`Index::create`], plus collection and allocation errors during
    /// the backfill.
    pub fn create_index(&mut self, name: &str, field: &str) -> espresso_core::Result<()> {
        let idx = self.handle.with_mut(|h| {
            let idx = Index::<T>::create(h, name, field)?;
            h.gc_full(&[])?;
            let entries = idx.heap_walk(h);
            // Backfill in bounded batches so no transaction outgrows the
            // undo log.
            for chunk in entries.chunks(32) {
                h.txn(|t| {
                    for (k, r) in chunk {
                        idx.insert(t, k, PRef::from_raw_unchecked(*r))?;
                    }
                    Ok(())
                })?;
            }
            Ok::<_, PjhError>(idx)
        })?;
        self.indexes.push(idx);
        Ok(())
    }

    /// Opens an existing index by name and maintains it from then on.
    ///
    /// # Errors
    ///
    /// As [`Index::open`].
    pub fn open_index(&mut self, name: &str) -> espresso_core::Result<()> {
        let idx = self.handle.with_mut(|h| Index::<T>::open(h, name))?;
        self.indexes.push(idx);
        Ok(())
    }

    /// Allocates a `T`, runs `setup` to populate it, then inserts it into
    /// every maintained index — all in one transaction. Integer fields
    /// `setup` leaves untouched are indexed at their default value `0`;
    /// an unset `str` key field leaves the object out of that index.
    ///
    /// The returned reference is kept live by the index entries (and by
    /// whatever links `setup` created); it is invalidated by the next
    /// collection, so re-find objects through queries, not cached refs.
    ///
    /// # Errors
    ///
    /// Allocation errors, or whatever `setup` returns.
    pub fn create_object(
        &self,
        setup: impl Fn(&mut HeapTxn<'_>, PRef<T>) -> espresso_core::Result<()>,
    ) -> espresso_core::Result<PRef<T>> {
        self.handle.txn_retry(|t| {
            let obj = t.alloc::<T>()?;
            setup(t, obj)?;
            for idx in &self.indexes {
                if let Some(k) = idx.key_of(t.heap(), obj) {
                    idx.insert(t, &k, obj)?;
                }
            }
            Ok(obj)
        })
    }

    /// Removes `obj` from every maintained index (the object itself
    /// becomes garbage once nothing else references it).
    ///
    /// # Errors
    ///
    /// Index-maintenance allocation errors.
    pub fn remove_object(&self, obj: PRef<T>) -> espresso_core::Result<()> {
        self.handle.txn_retry(|t| {
            for idx in &self.indexes {
                if let Some(k) = idx.key_of(t.heap(), obj) {
                    idx.remove(t, &k, obj)?;
                }
            }
            Ok(())
        })
    }

    fn put_keyed(
        &self,
        obj: PRef<T>,
        field_index: usize,
        new_key: &Key,
        apply: impl Fn(&mut HeapTxn<'_>) -> espresso_core::Result<()>,
    ) -> espresso_core::Result<()> {
        self.handle.txn_retry(|t| {
            for idx in self.indexes.iter().filter(|i| i.field_index == field_index) {
                if let Some(old) = idx.key_of(t.heap(), obj) {
                    idx.remove(t, &old, obj)?;
                }
            }
            apply(t)?;
            for idx in self.indexes.iter().filter(|i| i.field_index == field_index) {
                idx.insert(t, new_key, obj)?;
            }
            Ok(())
        })
    }

    /// Writes a `u64` field and refreshes every index over it, in one
    /// transaction.
    ///
    /// # Errors
    ///
    /// Index-maintenance allocation errors.
    pub fn put_u64(&self, obj: PRef<T>, f: Fld<T, u64>, v: u64) -> espresso_core::Result<()> {
        self.put_keyed(obj, f.index(), &Key::U64(v), |t| {
            t.set(obj, f, v);
            Ok(())
        })
    }

    /// Writes a `str` field and refreshes every index over it, in one
    /// transaction.
    ///
    /// # Errors
    ///
    /// String-allocation and index-maintenance errors.
    pub fn put_str(&self, obj: PRef<T>, f: StrFld<T>, s: &str) -> espresso_core::Result<()> {
        self.put_keyed(obj, f.index(), &Key::Str(s.to_string()), |t| {
            t.set_str(obj, f, s)
        })
    }
}
