//! The persistent name table (§3.1): string constants → Klass entries and
//! root entries.
//!
//! Fixed-capacity array of 128-byte entries. Insertion is crash-consistent:
//! the payload (value, length, name bytes) is written and persisted before
//! the `state` word that makes the entry visible, so a torn insert leaves
//! an entry that the load-time scan treats as empty.

use std::collections::HashMap;

use espresso_nvm::NvmDevice;

use crate::bitmap::Bitmap;
use crate::layout::{Layout, MAX_NAME_LEN, NAME_ENTRY_SIZE};
use crate::PjhError;

/// The entry kinds the table distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EntryKind {
    /// Maps a class name to its record offset in the Klass segment.
    Klass,
    /// Maps a user-chosen name to a root object address (§3.3).
    Root,
    /// Maps a class name to its declared-schema fingerprint (the typed
    /// layer's schema-evolution guard; see `Pjh::register_schema`).
    Schema,
}

impl EntryKind {
    fn tag(self) -> u64 {
        match self {
            EntryKind::Klass => 1,
            EntryKind::Root => 2,
            EntryKind::Schema => 3,
        }
    }

    fn from_tag(tag: u64) -> Option<EntryKind> {
        match tag {
            1 => Some(EntryKind::Klass),
            2 => Some(EntryKind::Root),
            3 => Some(EntryKind::Schema),
            _ => None,
        }
    }
}

/// DRAM-side view of the on-NVM name table.
#[derive(Debug, Clone)]
pub struct NameTable {
    off: usize,
    /// (kind, name) → slot index.
    index: HashMap<(EntryKind, String), usize>,
    used: usize,
    /// Slots whose tag word is not a valid kind: `set` takes the lowest
    /// one instead of scanning `cap` tag words on the device. A slot with
    /// a valid tag but a torn payload is not indexed and not free. (A
    /// bitmap, not a list: every replica publication clones this table.)
    free: Bitmap,
}

impl NameTable {
    /// Scans the device and rebuilds the in-memory index.
    pub fn attach(dev: &NvmDevice, layout: &Layout) -> NameTable {
        let off = layout.name_table_off;
        let cap = layout.name_table_cap;
        let mut index = HashMap::new();
        let mut used = 0;
        let mut free = Bitmap::new(cap);
        for slot in 0..cap {
            let e = off + slot * NAME_ENTRY_SIZE;
            let Some(kind) = EntryKind::from_tag(dev.read_u64(e)) else {
                free.set(slot);
                continue;
            };
            let len = dev.read_u64(e + 16) as usize;
            if len > MAX_NAME_LEN {
                continue; // torn entry: ignore
            }
            let mut buf = vec![0u8; len];
            dev.read_bytes(e + 24, &mut buf);
            let Ok(name) = String::from_utf8(buf) else {
                continue;
            };
            index.insert((kind, name), slot);
            used += 1;
        }
        NameTable {
            off,
            index,
            used,
            free,
        }
    }

    fn entry_off(&self, slot: usize) -> usize {
        self.off + slot * NAME_ENTRY_SIZE
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.used
    }

    /// Whether the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.used == 0
    }

    /// Looks up the value for `(kind, name)`.
    pub fn get(&self, dev: &NvmDevice, kind: EntryKind, name: &str) -> Option<u64> {
        let slot = *self.index.get(&(kind, name.to_string()))?;
        Some(dev.read_u64(self.entry_off(slot) + 8))
    }

    /// Inserts or updates `(kind, name) -> value`, crash-consistently.
    ///
    /// # Errors
    ///
    /// [`PjhError::NameTooLong`] or [`PjhError::NameTableFull`].
    pub fn set(
        &mut self,
        dev: &NvmDevice,
        kind: EntryKind,
        name: &str,
        value: u64,
    ) -> Result<(), PjhError> {
        if name.len() > MAX_NAME_LEN {
            return Err(PjhError::NameTooLong {
                name: name.to_string(),
            });
        }
        if let Some(&slot) = self.index.get(&(kind, name.to_string())) {
            // 8-byte in-place update: atomic at word granularity.
            let e = self.entry_off(slot);
            dev.write_u64(e + 8, value);
            dev.persist(e + 8, 8);
            return Ok(());
        }
        let slot = self.free.next_set(0).ok_or(PjhError::NameTableFull)?;
        self.free.clear(slot);
        let e = self.entry_off(slot);
        // Payload first...
        dev.write_u64(e + 8, value);
        dev.write_u64(e + 16, name.len() as u64);
        dev.write_bytes(e + 24, name.as_bytes());
        dev.persist(e, NAME_ENTRY_SIZE);
        // ...state word last.
        dev.write_u64(e, kind.tag());
        dev.persist(e, 8);
        self.index.insert((kind, name.to_string()), slot);
        self.used += 1;
        Ok(())
    }

    /// Removes an entry if present; returns whether it existed.
    pub fn remove(&mut self, dev: &NvmDevice, kind: EntryKind, name: &str) -> bool {
        let Some(slot) = self.index.remove(&(kind, name.to_string())) else {
            return false;
        };
        let e = self.entry_off(slot);
        dev.write_u64(e, 0);
        dev.persist(e, 8);
        self.used -= 1;
        self.free.set(slot);
        true
    }

    /// All entries of `kind` as `(name, value)` pairs.
    pub fn entries(&self, dev: &NvmDevice, kind: EntryKind) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = self
            .index
            .iter()
            .filter(|((k, _), _)| *k == kind)
            .map(|((_, name), &slot)| (name.clone(), dev.read_u64(self.entry_off(slot) + 8)))
            .collect();
        out.sort();
        out
    }

    /// Rewrites the value of every `kind` entry through `f`, persisting
    /// each change. Used by the collector to forward root addresses.
    pub fn rewrite_values(
        &mut self,
        dev: &NvmDevice,
        kind: EntryKind,
        mut f: impl FnMut(u64) -> u64,
    ) {
        for ((k, _), &slot) in self.index.iter() {
            if *k != kind {
                continue;
            }
            let e = self.entry_off(slot) + 8;
            let old = dev.read_u64(e);
            let new = f(old);
            if new != old {
                dev.write_u64(e, new);
                dev.persist(e, 8);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PjhConfig;
    use espresso_nvm::NvmConfig;

    fn setup() -> (NvmDevice, Layout) {
        let dev = NvmDevice::new(NvmConfig::with_size(4 << 20));
        let layout = Layout::compute(dev.size(), &PjhConfig::default()).unwrap();
        (dev, layout)
    }

    #[test]
    fn set_get_roundtrip() {
        let (dev, layout) = setup();
        let mut t = NameTable::attach(&dev, &layout);
        t.set(&dev, EntryKind::Root, "jimmy", 0xBEEF).unwrap();
        t.set(&dev, EntryKind::Klass, "jimmy", 0xF00D).unwrap();
        assert_eq!(t.get(&dev, EntryKind::Root, "jimmy"), Some(0xBEEF));
        assert_eq!(t.get(&dev, EntryKind::Klass, "jimmy"), Some(0xF00D));
        assert_eq!(t.get(&dev, EntryKind::Root, "nope"), None);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn update_in_place() {
        let (dev, layout) = setup();
        let mut t = NameTable::attach(&dev, &layout);
        t.set(&dev, EntryKind::Root, "r", 1).unwrap();
        t.set(&dev, EntryKind::Root, "r", 2).unwrap();
        assert_eq!(t.get(&dev, EntryKind::Root, "r"), Some(2));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn persisted_entries_survive_crash_and_reattach() {
        let (dev, layout) = setup();
        let mut t = NameTable::attach(&dev, &layout);
        t.set(&dev, EntryKind::Root, "kept", 42).unwrap();
        dev.crash();
        let t2 = NameTable::attach(&dev, &layout);
        assert_eq!(t2.get(&dev, EntryKind::Root, "kept"), Some(42));
    }

    #[test]
    fn torn_insert_is_invisible_after_crash() {
        let (dev, layout) = setup();
        let mut t = NameTable::attach(&dev, &layout);
        t.set(&dev, EntryKind::Root, "a", 1).unwrap();
        // Allow the payload persist (2+ lines) but drop the state persist.
        // The payload of a 128-byte entry takes 2 line flushes; the state
        // flush is the 3rd for the new entry.
        let before = dev.stats().line_flushes;
        t.set(&dev, EntryKind::Root, "b", 2).unwrap();
        let per_insert = dev.stats().line_flushes - before;
        assert!(per_insert >= 2);
        dev.schedule_crash_after_line_flushes(per_insert - 1);
        t.set(&dev, EntryKind::Root, "c", 3).unwrap();
        dev.recover();
        let t2 = NameTable::attach(&dev, &layout);
        assert_eq!(t2.get(&dev, EntryKind::Root, "a"), Some(1));
        assert_eq!(t2.get(&dev, EntryKind::Root, "b"), Some(2));
        assert_eq!(
            t2.get(&dev, EntryKind::Root, "c"),
            None,
            "torn insert must be invisible"
        );
    }

    #[test]
    fn remove_frees_slot() {
        let (dev, layout) = setup();
        let mut t = NameTable::attach(&dev, &layout);
        t.set(&dev, EntryKind::Root, "r", 1).unwrap();
        assert!(t.remove(&dev, EntryKind::Root, "r"));
        assert!(!t.remove(&dev, EntryKind::Root, "r"));
        assert_eq!(t.get(&dev, EntryKind::Root, "r"), None);
        dev.crash();
        let t2 = NameTable::attach(&dev, &layout);
        assert_eq!(t2.get(&dev, EntryKind::Root, "r"), None);
    }

    #[test]
    fn rejects_long_names() {
        let (dev, layout) = setup();
        let mut t = NameTable::attach(&dev, &layout);
        let long = "x".repeat(MAX_NAME_LEN + 1);
        assert!(matches!(
            t.set(&dev, EntryKind::Root, &long, 1),
            Err(PjhError::NameTooLong { .. })
        ));
    }

    #[test]
    fn fills_to_capacity_then_errors() {
        let (dev, layout) = setup();
        let mut t = NameTable::attach(&dev, &layout);
        for i in 0..layout.name_table_cap {
            t.set(&dev, EntryKind::Root, &format!("r{i}"), i as u64)
                .unwrap();
        }
        assert!(matches!(
            t.set(&dev, EntryKind::Root, "overflow", 0),
            Err(PjhError::NameTableFull)
        ));
        // Removing one slot makes room again.
        t.remove(&dev, EntryKind::Root, "r0");
        t.set(&dev, EntryKind::Root, "overflow", 9).unwrap();
    }

    #[test]
    fn rewrite_values_persists() {
        let (dev, layout) = setup();
        let mut t = NameTable::attach(&dev, &layout);
        t.set(&dev, EntryKind::Root, "a", 10).unwrap();
        t.set(&dev, EntryKind::Klass, "k", 99).unwrap();
        t.rewrite_values(&dev, EntryKind::Root, |v| v + 1);
        dev.crash();
        let t2 = NameTable::attach(&dev, &layout);
        assert_eq!(t2.get(&dev, EntryKind::Root, "a"), Some(11));
        assert_eq!(t2.get(&dev, EntryKind::Klass, "k"), Some(99));
    }
}
