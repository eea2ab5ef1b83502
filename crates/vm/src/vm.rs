//! The `Vm` type: class resolution, dual-heap allocation, GC choreography.

use std::collections::HashMap;
use std::fmt;

use espresso_core::{GcReport, Pjh, PjhConfig, PjhError};
use espresso_nvm::{NvmConfig, NvmDevice};
use espresso_object::{FieldDesc, KlassId, Ref, Space};
use espresso_runtime::{GcResult, Handle, HeapError, VolatileHeap, VolatileHeapConfig};

/// Errors surfaced by VM operations.
#[derive(Debug)]
pub enum VmError {
    /// The class name was never defined via [`Vm::define_class`].
    UnknownClass {
        /// The unresolved name.
        name: String,
    },
    /// A persistent operation was attempted with no PJH attached.
    NoPersistentHeap,
    /// A checked cast failed.
    ClassCast {
        /// The class the cast demanded.
        expected: String,
        /// The class the object actually has.
        found: String,
    },
    /// Volatile-heap failure.
    Heap(HeapError),
    /// Persistent-heap failure.
    Pjh(PjhError),
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::UnknownClass { name } => write!(f, "unknown class {name}"),
            VmError::NoPersistentHeap => write!(f, "no persistent heap attached"),
            VmError::ClassCast { expected, found } => {
                write!(
                    f,
                    "ClassCastException: {found} cannot be cast to {expected}"
                )
            }
            VmError::Heap(e) => write!(f, "volatile heap: {e}"),
            VmError::Pjh(e) => write!(f, "persistent heap: {e}"),
        }
    }
}

impl std::error::Error for VmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            VmError::Heap(e) => Some(e),
            VmError::Pjh(e) => Some(e),
            _ => None,
        }
    }
}

impl From<HeapError> for VmError {
    fn from(e: HeapError) -> Self {
        VmError::Heap(e)
    }
}

impl From<PjhError> for VmError {
    fn from(e: PjhError) -> Self {
        VmError::Pjh(e)
    }
}

/// VM construction parameters.
#[derive(Debug, Clone, Default)]
pub struct VmConfig {
    /// Volatile heap sizing.
    pub volatile: VolatileHeapConfig,
    /// Persistent heap parameters (used when a PJH is created through the
    /// VM).
    pub pjh: PjhConfig,
}

impl VmConfig {
    /// Small heaps for tests.
    pub fn small() -> Self {
        VmConfig {
            volatile: VolatileHeapConfig::small(),
            pjh: PjhConfig::small(),
        }
    }
}

/// A constant-pool slot: the single resolved Klass the stock JVM keeps per
/// class symbol (§3.2). `checkcast_strict` consults this to reproduce the
/// Figure 10 ClassCastException.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Resolved {
    space: Space,
    kid: KlassId,
}

/// The unified VM. See the [crate docs](crate) for an example.
pub struct Vm {
    volatile: VolatileHeap,
    pjh: Option<Pjh>,
    class_defs: HashMap<String, Vec<FieldDesc>>,
    constant_pool: HashMap<String, Resolved>,
}

impl fmt::Debug for Vm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Vm")
            .field("classes", &self.class_defs.len())
            .field("persistent_heap", &self.pjh.is_some())
            .finish()
    }
}

impl Vm {
    /// A VM with only the volatile heap.
    pub fn new(config: VmConfig) -> Vm {
        Vm {
            volatile: VolatileHeap::new(config.volatile),
            pjh: None,
            class_defs: HashMap::new(),
            constant_pool: HashMap::new(),
        }
    }

    /// A VM with a freshly created persistent heap of `pjh_bytes` on a new
    /// simulated device.
    ///
    /// # Errors
    ///
    /// Heap-formatting errors.
    pub fn with_persistent_heap(config: VmConfig, pjh_bytes: usize) -> crate::Result<Vm> {
        let dev = NvmDevice::new(NvmConfig::with_size(pjh_bytes));
        let pjh = Pjh::create(dev, config.pjh.clone())?;
        let mut vm = Vm::new(config);
        vm.attach_pjh(pjh);
        Ok(vm)
    }

    /// Attaches (replaces) the persistent heap, re-registering every
    /// defined class against it.
    pub fn attach_pjh(&mut self, pjh: Pjh) -> Option<Pjh> {
        self.pjh.replace(pjh)
    }

    /// The attached persistent heap, if any.
    pub fn pjh(&self) -> Option<&Pjh> {
        self.pjh.as_ref()
    }

    /// The volatile heap.
    pub fn volatile(&self) -> &VolatileHeap {
        &self.volatile
    }

    // ---- classes ----

    /// Defines a class usable from both `new` and `pnew`. Field names must
    /// be unique; layout must match any previously persisted definition.
    ///
    /// # Errors
    ///
    /// [`PjhError::KlassLayoutMismatch`] wrapped in [`VmError::Pjh`].
    pub fn define_class(&mut self, name: &str, fields: Vec<FieldDesc>) -> crate::Result<()> {
        self.volatile.register_instance(name, fields.clone());
        if let Some(pjh) = &mut self.pjh {
            pjh.register_instance(name, fields.clone())?;
        }
        self.class_defs.insert(name.to_string(), fields);
        Ok(())
    }

    fn volatile_kid(&mut self, name: &str) -> crate::Result<KlassId> {
        match self.volatile.registry().by_name(name) {
            Some(k) => Ok(k.id()),
            None => Err(VmError::UnknownClass {
                name: name.to_string(),
            }),
        }
    }

    fn persistent_kid(&mut self, name: &str) -> crate::Result<KlassId> {
        let fields = self
            .class_defs
            .get(name)
            .cloned()
            .ok_or_else(|| VmError::UnknownClass {
                name: name.to_string(),
            })?;
        let pjh = self.pjh.as_mut().ok_or(VmError::NoPersistentHeap)?;
        Ok(pjh.register_instance(name, fields)?)
    }

    // ---- allocation ----

    /// `new`: allocates in DRAM, collecting (with cross-heap roots) under
    /// pressure.
    ///
    /// # Errors
    ///
    /// [`VmError::UnknownClass`]; [`HeapError::OutOfMemory`] after GC.
    pub fn new_instance(&mut self, name: &str) -> crate::Result<Ref> {
        let kid = self.volatile_kid(name)?;
        let r = self.alloc_volatile(|h, _| h.alloc_instance_no_gc(kid))?;
        self.constant_pool.insert(
            name.to_string(),
            Resolved {
                space: Space::Volatile,
                kid,
            },
        );
        Ok(r)
    }

    /// `pnew`: allocates in NVM, collecting the persistent space (with
    /// DRAM-held roots) under pressure (§3.2).
    ///
    /// # Errors
    ///
    /// [`VmError::UnknownClass`], [`VmError::NoPersistentHeap`], persistent
    /// heap errors.
    pub fn pnew_instance(&mut self, name: &str) -> crate::Result<Ref> {
        let kid = self.persistent_kid(name)?;
        let r = self.alloc_persistent(|p| p.alloc_instance(kid))?;
        self.constant_pool.insert(
            name.to_string(),
            Resolved {
                space: Space::Persistent,
                kid,
            },
        );
        Ok(r)
    }

    /// `newarray`: a DRAM primitive (long) array.
    ///
    /// # Errors
    ///
    /// [`HeapError::OutOfMemory`] after GC.
    pub fn new_prim_array(&mut self, len: usize) -> crate::Result<Ref> {
        let kid = self.volatile.register_prim_array();
        self.alloc_volatile(|h, _| h.alloc_array_no_gc(kid, len))
    }

    /// `pnewarray`: an NVM primitive (long) array (§3.2).
    ///
    /// # Errors
    ///
    /// Persistent-heap errors.
    pub fn pnew_prim_array(&mut self, len: usize) -> crate::Result<Ref> {
        let pjh = self.pjh.as_mut().ok_or(VmError::NoPersistentHeap)?;
        let kid = pjh.register_prim_array();
        self.alloc_persistent(|p| p.alloc_array(kid, len))
    }

    /// `anewarray`: a DRAM object array.
    ///
    /// # Errors
    ///
    /// [`HeapError::OutOfMemory`] after GC.
    pub fn new_obj_array(&mut self, elem: &str, len: usize) -> crate::Result<Ref> {
        let kid = self.volatile.register_obj_array(elem);
        self.alloc_volatile(|h, _| h.alloc_array_no_gc(kid, len))
    }

    /// `panewarray`: an NVM object array (§3.2).
    ///
    /// # Errors
    ///
    /// Persistent-heap errors.
    pub fn pnew_obj_array(&mut self, elem: &str, len: usize) -> crate::Result<Ref> {
        let pjh = self.pjh.as_mut().ok_or(VmError::NoPersistentHeap)?;
        let kid = pjh.register_obj_array(elem);
        self.alloc_persistent(|p| p.alloc_array(kid, len))
    }

    fn alloc_volatile(
        &mut self,
        mut alloc: impl FnMut(&mut VolatileHeap, ()) -> espresso_runtime::Result<Ref>,
    ) -> crate::Result<Ref> {
        match alloc(&mut self.volatile, ()) {
            Ok(r) => Ok(r),
            Err(HeapError::OutOfMemory { .. }) => {
                self.gc_young();
                if let Ok(r) = alloc(&mut self.volatile, ()) {
                    return Ok(r);
                }
                self.gc_full()?;
                alloc(&mut self.volatile, ()).map_err(VmError::from)
            }
            Err(e) => Err(e.into()),
        }
    }

    fn alloc_persistent(
        &mut self,
        mut alloc: impl FnMut(&mut Pjh) -> espresso_core::Result<Ref>,
    ) -> crate::Result<Ref> {
        let first = {
            let pjh = self.pjh.as_mut().ok_or(VmError::NoPersistentHeap)?;
            alloc(pjh)
        };
        match first {
            Ok(r) => Ok(r),
            Err(PjhError::HeapFull { .. }) => {
                self.gc_persistent()?;
                let pjh = self.pjh.as_mut().expect("checked above");
                alloc(pjh).map_err(VmError::from)
            }
            Err(e) => Err(e.into()),
        }
    }

    // ---- unified field access ----

    /// Reads raw field `index`, whichever heap holds the object.
    pub fn field(&self, r: Ref, index: usize) -> u64 {
        match r.space() {
            Space::Volatile => self.volatile.field(r, index),
            Space::Persistent => self
                .pjh
                .as_ref()
                .expect("persistent ref without pjh")
                .field(r, index),
        }
    }

    /// Writes raw field `index`.
    pub fn set_field(&mut self, r: Ref, index: usize, value: u64) {
        match r.space() {
            Space::Volatile => self.volatile.set_field(r, index, value),
            Space::Persistent => self
                .pjh
                .as_mut()
                .expect("persistent ref without pjh")
                .set_field(r, index, value),
        }
    }

    /// Reads reference field `index`.
    pub fn field_ref(&self, r: Ref, index: usize) -> Ref {
        Ref::from_raw(self.field(r, index))
    }

    /// Writes reference field `index`; cross-space stores are legal (§3.4)
    /// subject to the persistent heap's safety level.
    ///
    /// # Errors
    ///
    /// [`PjhError::SafetyViolation`] under type-based safety.
    pub fn set_field_ref(&mut self, r: Ref, index: usize, value: Ref) -> crate::Result<()> {
        match r.space() {
            Space::Volatile => {
                self.volatile.set_field_ref(r, index, value);
                Ok(())
            }
            Space::Persistent => Ok(self
                .pjh
                .as_mut()
                .expect("persistent ref without pjh")
                .set_field_ref(r, index, value)?),
        }
    }

    /// Array length.
    pub fn array_len(&self, r: Ref) -> usize {
        match r.space() {
            Space::Volatile => self.volatile.array_len(r),
            Space::Persistent => self
                .pjh
                .as_ref()
                .expect("persistent ref without pjh")
                .array_len(r),
        }
    }

    /// Array element read.
    pub fn array_get(&self, r: Ref, i: usize) -> u64 {
        match r.space() {
            Space::Volatile => self.volatile.array_get(r, i),
            Space::Persistent => self
                .pjh
                .as_ref()
                .expect("persistent ref without pjh")
                .array_get(r, i),
        }
    }

    /// Array element write (primitive).
    pub fn array_set(&mut self, r: Ref, i: usize, value: u64) {
        match r.space() {
            Space::Volatile => self.volatile.array_set(r, i, value),
            Space::Persistent => self
                .pjh
                .as_mut()
                .expect("persistent ref without pjh")
                .array_set(r, i, value),
        }
    }

    /// Array element read (reference).
    pub fn array_get_ref(&self, r: Ref, i: usize) -> Ref {
        Ref::from_raw(self.array_get(r, i))
    }

    /// Array element write (reference).
    ///
    /// # Errors
    ///
    /// [`PjhError::SafetyViolation`] under type-based safety.
    pub fn array_set_ref(&mut self, r: Ref, i: usize, value: Ref) -> crate::Result<()> {
        match r.space() {
            Space::Volatile => {
                self.volatile.array_set_ref(r, i, value);
                Ok(())
            }
            Space::Persistent => Ok(self
                .pjh
                .as_mut()
                .expect("persistent ref without pjh")
                .array_set_ref(r, i, value)?),
        }
    }

    /// Index of a named field of `r`'s class.
    pub fn field_index(&self, r: Ref, name: &str) -> Option<usize> {
        self.klass_arc(r).field_index(name)
    }

    fn klass_arc(&self, r: Ref) -> std::sync::Arc<espresso_object::Klass> {
        match r.space() {
            Space::Volatile => self.volatile.klass_of(r),
            Space::Persistent => self
                .pjh
                .as_ref()
                .expect("persistent ref without pjh")
                .klass_of(r),
        }
    }

    /// Name of the object's class.
    pub fn klass_name(&self, r: Ref) -> String {
        self.klass_arc(r).name().to_string()
    }

    // ---- type checks (§3.2) ----

    /// Alias-aware `instanceof`: volatile and persistent Klasses of one
    /// logical class are interchangeable.
    pub fn instance_of(&self, r: Ref, name: &str) -> bool {
        !r.is_null() && self.klass_arc(r).name() == name
    }

    /// Alias-aware `checkcast` — Espresso's extended type check.
    ///
    /// # Errors
    ///
    /// [`VmError::ClassCast`] when the logical classes differ.
    pub fn checkcast(&self, r: Ref, name: &str) -> crate::Result<()> {
        if self.instance_of(r, name) {
            Ok(())
        } else {
            Err(VmError::ClassCast {
                expected: name.to_string(),
                found: if r.is_null() {
                    "null".to_string()
                } else {
                    self.klass_name(r)
                },
            })
        }
    }

    /// Stock-JVM `checkcast`: compares the object's physical Klass against
    /// the single constant-pool resolution, reproducing the spurious
    /// ClassCastException of Figure 10 when the same class exists in both
    /// spaces.
    ///
    /// # Errors
    ///
    /// [`VmError::ClassCast`] whenever the physical Klasses differ — even
    /// for aliases of the same logical class.
    pub fn checkcast_strict(&mut self, r: Ref, name: &str) -> crate::Result<()> {
        let actual_kid = self.klass_arc(r).id();
        let actual = Resolved {
            space: r.space(),
            kid: actual_kid,
        };
        let slot = *self.constant_pool.entry(name.to_string()).or_insert(actual);
        if slot == actual && self.klass_arc(r).name() == name {
            Ok(())
        } else {
            Err(VmError::ClassCast {
                expected: name.to_string(),
                found: self.klass_name(r),
            })
        }
    }

    // ---- roots & handles ----

    /// `setRoot` on the persistent heap.
    ///
    /// # Errors
    ///
    /// [`VmError::NoPersistentHeap`]; name-table errors.
    pub fn set_root(&mut self, name: &str, r: Ref) -> crate::Result<()> {
        let pjh = self.pjh.as_mut().ok_or(VmError::NoPersistentHeap)?;
        Ok(pjh.set_root(name, r)?)
    }

    /// `getRoot` on the persistent heap.
    pub fn get_root(&self, name: &str) -> Option<Ref> {
        self.pjh.as_ref()?.get_root(name)
    }

    /// Pins a volatile object across collections.
    pub fn add_handle(&mut self, r: Ref) -> Handle {
        self.volatile.add_root(r)
    }

    /// Current value of a handle.
    pub fn handle(&self, h: Handle) -> Option<Ref> {
        self.volatile.root(h)
    }

    // ---- persistence (§3.5) ----

    /// Persists one field of a persistent object; no-op for volatile
    /// objects.
    pub fn flush_field(&self, r: Ref, index: usize) {
        if r.is_persistent() {
            if let Some(pjh) = &self.pjh {
                pjh.flush_field(r, index);
            }
        }
    }

    /// Persists a whole persistent object; no-op for volatile objects.
    pub fn flush_object(&self, r: Ref) {
        if r.is_persistent() {
            if let Some(pjh) = &self.pjh {
                pjh.flush_object(r);
            }
        }
    }

    // ---- GC choreography (§3.4) ----

    /// Young collection with NVM-held DRAM pointers as extra roots; those
    /// NVM slots are patched afterwards.
    pub fn gc_young(&mut self) -> GcResult {
        let extra = self
            .pjh
            .as_ref()
            .map(|p| p.volatile_refs())
            .unwrap_or_default();
        let result = self.volatile.collect_young(&extra);
        self.patch_pjh_after_volatile_gc(&result);
        result
    }

    /// Full volatile collection, same root/patch protocol.
    ///
    /// # Errors
    ///
    /// [`HeapError::OutOfMemory`] if the live set exceeds the old space.
    pub fn gc_full(&mut self) -> crate::Result<GcResult> {
        let extra = self
            .pjh
            .as_ref()
            .map(|p| p.volatile_refs())
            .unwrap_or_default();
        let result = self.volatile.collect_full(&extra)?;
        self.patch_pjh_after_volatile_gc(&result);
        Ok(result)
    }

    fn patch_pjh_after_volatile_gc(&mut self, result: &GcResult) {
        if result.relocations.is_empty() {
            return;
        }
        if let Some(pjh) = &mut self.pjh {
            pjh.rewrite_refs(|r| {
                if r.is_volatile() {
                    match result.relocations.get(&r.addr()) {
                        Some(&new) => Ref::new(Space::Volatile, new),
                        None => r,
                    }
                } else {
                    r
                }
            });
        }
    }

    /// Persistent collection with DRAM-held NVM pointers as extra roots;
    /// volatile slots holding moved persistent objects are patched from
    /// the relocation table.
    ///
    /// # Errors
    ///
    /// [`VmError::NoPersistentHeap`]; device errors.
    pub fn gc_persistent(&mut self) -> crate::Result<GcReport> {
        let extra = self.volatile.persistent_refs();
        let pjh = self.pjh.as_mut().ok_or(VmError::NoPersistentHeap)?;
        let report = pjh.gc(&extra)?;
        if !report.relocations.is_empty() {
            self.volatile.rewrite_refs(|r| {
                if r.is_persistent() {
                    match report.relocations.get(&r.addr()) {
                        Some(&new) => Ref::new(Space::Persistent, new),
                        None => r,
                    }
                } else {
                    r
                }
            });
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vm() -> Vm {
        Vm::with_persistent_heap(VmConfig::small(), 4 << 20).unwrap()
    }

    fn define_person(vm: &mut Vm) {
        vm.define_class(
            "Person",
            vec![FieldDesc::prim("id"), FieldDesc::reference("name")],
        )
        .unwrap();
    }

    #[test]
    fn new_and_pnew_share_a_logical_class() {
        let mut vm = vm();
        define_person(&mut vm);
        let a = vm.new_instance("Person").unwrap();
        let b = vm.pnew_instance("Person").unwrap();
        assert_eq!(a.space(), Space::Volatile);
        assert_eq!(b.space(), Space::Persistent);
        assert_eq!(vm.klass_name(a), "Person");
        assert_eq!(vm.klass_name(b), "Person");
    }

    #[test]
    fn figure_10_strict_cast_throws_alias_cast_does_not() {
        let mut vm = vm();
        define_person(&mut vm);
        // Person a = new Person(...);
        let a = vm.new_instance("Person").unwrap();
        // Person b = pnew Person(...);  -- re-resolves the constant pool
        //                                  slot to the persistent Klass.
        let _b = vm.pnew_instance("Person").unwrap();
        // somefunc((Person) a);  -- stock JVM: ClassCastException!
        assert!(matches!(
            vm.checkcast_strict(a, "Person"),
            Err(VmError::ClassCast { .. })
        ));
        // Espresso's alias-aware check accepts the redundant cast.
        vm.checkcast(a, "Person").unwrap();
        assert!(vm.instance_of(a, "Person"));
    }

    #[test]
    fn strict_cast_still_rejects_truly_wrong_classes() {
        let mut vm = vm();
        define_person(&mut vm);
        vm.define_class("Car", vec![FieldDesc::prim("vin")])
            .unwrap();
        let c = vm.new_instance("Car").unwrap();
        assert!(matches!(
            vm.checkcast(c, "Person"),
            Err(VmError::ClassCast { .. })
        ));
        assert!(matches!(
            vm.checkcast_strict(c, "Person"),
            Err(VmError::ClassCast { .. })
        ));
    }

    #[test]
    fn mixed_space_references_work() {
        let mut vm = vm();
        define_person(&mut vm);
        let dram = vm.new_instance("Person").unwrap();
        vm.set_field(dram, 0, 7);
        let nvm = vm.pnew_instance("Person").unwrap();
        vm.set_field(nvm, 0, 8);
        // NVM -> DRAM pointer (legal at default safety, §3.4).
        vm.set_field_ref(nvm, 1, dram).unwrap();
        // DRAM -> NVM pointer.
        vm.set_field_ref(dram, 1, nvm).unwrap();
        assert_eq!(vm.field(vm.field_ref(nvm, 1), 0), 7);
        assert_eq!(vm.field(vm.field_ref(dram, 1), 0), 8);
    }

    #[test]
    fn volatile_gc_patches_nvm_held_pointers() {
        let mut vm = vm();
        define_person(&mut vm);
        let dram = vm.new_instance("Person").unwrap();
        vm.set_field(dram, 0, 123);
        let nvm = vm.pnew_instance("Person").unwrap();
        vm.set_field_ref(nvm, 1, dram).unwrap();
        // The DRAM object is reachable *only* from NVM. Churn through
        // several young collections.
        for _ in 0..5 {
            vm.gc_young();
        }
        let dram2 = vm.field_ref(nvm, 1);
        assert!(dram2.is_volatile());
        assert_eq!(
            vm.field(dram2, 0),
            123,
            "NVM-held DRAM pointer kept alive and patched"
        );
    }

    #[test]
    fn persistent_gc_patches_dram_held_pointers() {
        let mut vm = vm();
        define_person(&mut vm);
        let nvm = vm.pnew_instance("Person").unwrap();
        vm.set_field(nvm, 0, 321);
        vm.flush_object(nvm);
        let dram = vm.new_instance("Person").unwrap();
        vm.set_field_ref(dram, 1, nvm).unwrap();
        let h = vm.add_handle(dram);
        // Garbage in the persistent space, then collect it. The NVM object
        // is reachable only through DRAM.
        for _ in 0..100 {
            vm.pnew_instance("Person").unwrap();
        }
        let report = vm.gc_persistent().unwrap();
        assert_eq!(report.live_objects, 1);
        let dram = vm.handle(h).unwrap();
        let nvm2 = vm.field_ref(dram, 1);
        assert!(nvm2.is_persistent());
        assert_eq!(vm.field(nvm2, 0), 321);
        vm.pjh().unwrap().verify_integrity().unwrap();
    }

    #[test]
    fn pnew_collects_when_full_and_recovers_space() {
        let mut vm = vm();
        define_person(&mut vm);
        let keep = vm.pnew_instance("Person").unwrap();
        vm.set_field(keep, 0, 5);
        vm.flush_object(keep);
        vm.set_root("keep", keep).unwrap();
        // Allocate more garbage than the heap holds; since every object is
        // unreachable, auto-GC keeps reclaiming and pnew never fails.
        for _ in 0..200_000 {
            vm.pnew_instance("Person").unwrap();
        }
        let keep = vm.get_root("keep").unwrap();
        assert_eq!(vm.field(keep, 0), 5);
        assert!(vm.pjh().unwrap().gc_count() >= 1, "auto-GC ran");
    }

    #[test]
    fn volatile_allocation_pressure_auto_collects() {
        let mut vm = vm();
        define_person(&mut vm);
        for _ in 0..20_000 {
            vm.new_instance("Person").unwrap();
        }
        assert!(vm.volatile().stats().young_gcs > 0);
    }

    #[test]
    fn arrays_in_both_spaces() {
        let mut vm = vm();
        define_person(&mut vm);
        let va = vm.new_prim_array(4).unwrap();
        let pa = vm.pnew_prim_array(4).unwrap();
        vm.array_set(va, 0, 1);
        vm.array_set(pa, 0, 2);
        assert_eq!(vm.array_get(va, 0), 1);
        assert_eq!(vm.array_get(pa, 0), 2);
        let voa = vm.new_obj_array("Person", 2).unwrap();
        let poa = vm.pnew_obj_array("Person", 2).unwrap();
        let p = vm.pnew_instance("Person").unwrap();
        vm.array_set_ref(voa, 0, p).unwrap();
        vm.array_set_ref(poa, 1, p).unwrap();
        assert_eq!(vm.array_get_ref(voa, 0), p);
        assert_eq!(vm.array_get_ref(poa, 1), p);
    }

    #[test]
    fn unknown_class_errors() {
        let mut vm = vm();
        assert!(matches!(
            vm.new_instance("Ghost"),
            Err(VmError::UnknownClass { .. })
        ));
        assert!(matches!(
            vm.pnew_instance("Ghost"),
            Err(VmError::UnknownClass { .. })
        ));
    }

    #[test]
    fn no_pjh_errors() {
        let mut vm = Vm::new(VmConfig::small());
        vm.define_class("T", vec![FieldDesc::prim("x")]).unwrap();
        assert!(matches!(
            vm.pnew_instance("T"),
            Err(VmError::NoPersistentHeap)
        ));
        assert!(matches!(
            vm.set_root("r", Ref::NULL),
            Err(VmError::NoPersistentHeap)
        ));
    }

    #[test]
    fn field_index_by_name() {
        let mut vm = vm();
        define_person(&mut vm);
        let p = vm.pnew_instance("Person").unwrap();
        assert_eq!(vm.field_index(p, "id"), Some(0));
        assert_eq!(vm.field_index(p, "name"), Some(1));
        assert_eq!(vm.field_index(p, "ghost"), None);
    }
}
