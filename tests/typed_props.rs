//! Property-based tests for the typed persistence layer: schema
//! round-trips through create/load, typed accessors across `gc_full`
//! relocation and reload, schema-mismatch rejection on load, and
//! concurrent read-only sessions racing a writer.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use espresso::heap::{
    FieldType, HeapManager, LoadOptions, PObject, PRef, PjhConfig, PjhError, Schema,
};
use proptest::prelude::*;

/// One randomly generated field declaration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FieldPick {
    U64,
    I64,
    Bool,
    F64,
    SelfRef,
    Str,
    Arr,
}

impl FieldPick {
    fn apply(self, b: espresso::heap::PClassBuilder, name: &str) -> espresso::heap::PClassBuilder {
        match self {
            FieldPick::U64 => b.u64_field(name),
            FieldPick::I64 => b.i64_field(name),
            FieldPick::Bool => b.bool_field(name),
            FieldPick::F64 => b.f64_field(name),
            FieldPick::SelfRef => b.ref_named(name, "Rand"),
            FieldPick::Str => b.str_field(name),
            FieldPick::Arr => b.array_field(name),
        }
    }
}

fn field_pick() -> impl Strategy<Value = FieldPick> {
    prop_oneof![
        Just(FieldPick::U64),
        Just(FieldPick::I64),
        Just(FieldPick::Bool),
        Just(FieldPick::F64),
        Just(FieldPick::SelfRef),
        Just(FieldPick::Str),
        Just(FieldPick::Arr),
    ]
}

fn build_schema(picks: &[FieldPick]) -> Schema {
    picks
        .iter()
        .enumerate()
        .fold(Schema::builder("Rand"), |b, (i, p)| {
            p.apply(b, &format!("f{i}"))
        })
        .build()
}

/// The statically-declared chain type used by the GC and concurrency
/// properties.
struct Link;
impl PObject for Link {
    const CLASS_NAME: &'static str = "Link";
    fn schema() -> Schema {
        Schema::builder("Link")
            .u64_field("a")
            .u64_field("b")
            .ref_field::<Link>("next")
            .str_field("tag")
            .build()
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// A randomly declared schema registers, stores one typed value per
    /// field, survives commit + reload, revalidates, and reads back the
    /// same values through re-resolved field handles.
    #[test]
    fn random_schema_roundtrips_through_create_commit_load(
        picks in proptest::collection::vec(field_pick(), 1..12),
        seed in any::<u64>(),
    ) {
        let schema = build_schema(&picks);
        let mgr = HeapManager::temp().unwrap();
        let handle = mgr.create("p", 8 << 20, PjhConfig::small()).unwrap();
        let kid = handle.with_mut(|h| h.register_schema(&schema)).unwrap();
        let obj = handle.with_mut(|h| {
            let obj = h.alloc_instance(kid)?;
            for (i, pick) in picks.iter().enumerate() {
                match pick {
                    FieldPick::SelfRef | FieldPick::Arr => {} // stay null
                    FieldPick::Str => {
                        let s = h.alloc_string(&format!("s{}", seed.wrapping_add(i as u64)))?;
                        h.set_field_ref(obj, i, s)?;
                    }
                    _ => h.set_field(obj, i, seed.rotate_left(i as u32)),
                }
            }
            h.flush_object(obj);
            h.set_root("o", obj)?;
            Ok::<_, PjhError>(obj)
        }).unwrap();
        prop_assert!(!obj.is_null());
        handle.commit_sync().unwrap();
        drop(handle);

        let again = mgr.load("p", LoadOptions::default()).unwrap();
        // Revalidation after load: identical declaration passes...
        again.with_mut(|h| h.register_schema(&schema)).unwrap();
        again.with(|h| {
            let obj = h.get_root("o").unwrap();
            for (i, pick) in picks.iter().enumerate() {
                match pick {
                    FieldPick::SelfRef | FieldPick::Arr => {
                        assert!(h.field_ref(obj, i).is_null());
                    }
                    FieldPick::Str => {
                        let s = h.field_ref(obj, i);
                        assert_eq!(
                            h.read_string(s),
                            format!("s{}", seed.wrapping_add(i as u64))
                        );
                    }
                    _ => assert_eq!(h.field(obj, i), seed.rotate_left(i as u32)),
                }
            }
        });
        // ...and a drifted one (one field's declared type changed, word
        // shape preserved so only the fingerprint can catch it) fails.
        let mut drifted = picks.clone();
        for d in drifted.iter_mut() {
            *d = match *d {
                FieldPick::U64 => FieldPick::I64,
                FieldPick::I64 => FieldPick::F64,
                FieldPick::Bool => FieldPick::U64,
                FieldPick::F64 => FieldPick::Bool,
                FieldPick::SelfRef => FieldPick::Str,
                FieldPick::Str => FieldPick::Arr,
                FieldPick::Arr => FieldPick::SelfRef,
            };
        }
        drop(again);
        let drifted_schema = build_schema(&drifted);
        prop_assert!(drifted_schema.fingerprint() != schema.fingerprint());
        let fresh = mgr.load("p", LoadOptions::default()).unwrap();
        let err = fresh.with_mut(|h| h.register_schema(&drifted_schema)).unwrap_err();
        prop_assert!(
            matches!(err, PjhError::SchemaMismatch { .. }),
            "drifted schema must be rejected, got {err:?}"
        );
    }

    /// Typed accessors keep working across `gc_full` relocation and a
    /// crash/reload: the chain is re-entered through its typed root and
    /// every field (prim, ref, string) reads back exactly.
    #[test]
    fn typed_chain_survives_gc_full_and_reload(
        len in 1usize..24,
        garbage in 1usize..300,
        vals in proptest::collection::vec(any::<u64>(), 24..25),
    ) {
        let mgr = HeapManager::temp().unwrap();
        let handle = mgr.create("gc", 16 << 20, PjhConfig::small()).unwrap();
        let link = handle.register::<Link>().unwrap();
        let a = link.field::<u64>("a").unwrap();
        let b = link.field::<u64>("b").unwrap();
        let next = link.ref_field::<Link>("next").unwrap();
        let tag = link.str_field("tag").unwrap();
        handle.with_mut(|h| {
            let mut head: Option<PRef<Link>> = None;
            for (i, &val) in vals.iter().enumerate().take(len) {
                for _ in 0..(garbage / len).max(1) {
                    h.alloc::<Link>()?; // interleaved garbage
                }
                let n = h.alloc::<Link>()?;
                h.put(n, a, val);
                h.put(n, b, val.wrapping_mul(3));
                h.put_ref(n, next, head)?;
                h.put_str(n, tag, &format!("n{i}"))?;
                h.flush(n);
                head = Some(n);
            }
            h.set_root_typed("chain", head.unwrap())?;
            h.gc_full(&[])?;
            Ok::<_, PjhError>(())
        }).unwrap();
        // Walk after relocation, in the same session.
        let check = |h: &espresso::heap::Pjh| {
            let mut cur = h.root::<Link>("chain").unwrap();
            let mut i = len;
            while let Some(n) = cur {
                i -= 1;
                assert_eq!(h.get(n, a), vals[i]);
                assert_eq!(h.get(n, b), vals[i].wrapping_mul(3));
                assert_eq!(h.get_str(n, tag).as_deref(), Some(format!("n{i}").as_str()));
                cur = h.get_ref(n, next);
            }
            assert_eq!(i, 0, "walked the whole chain");
            h.verify_integrity().unwrap();
        };
        handle.with(check);
        handle.commit_sync().unwrap();
        drop(handle);
        // And again after a reload (schema revalidated first).
        let again = mgr.load("gc", LoadOptions::default()).unwrap();
        again.register::<Link>().unwrap();
        again.with(check);
    }
}

/// Concurrent read-only sessions race a writer: readers open lock-free
/// epoch-pinned sessions and do typed reads while the writer mutates
/// pairs inside transactions. Read sessions give memory safety, not
/// snapshot isolation — data reads are live, so a reader *may* see field
/// `a` from one transaction and `b` from the next (for an isolated view,
/// run the reads inside `handle.txn`). What must still hold, with one
/// writer incrementing the pair: every observed value is one the writer
/// actually wrote, `a` is monotone within a reader, and `b` never lags
/// more than one transaction behind the `a` read just before it.
#[test]
fn concurrent_read_sessions_race_a_writer() {
    let mgr = HeapManager::temp().unwrap();
    let handle = mgr.create("race", 8 << 20, PjhConfig::small()).unwrap();
    let link = handle.register::<Link>().unwrap();
    let a = link.field::<u64>("a").unwrap();
    let b = link.field::<u64>("b").unwrap();
    let obj = handle
        .txn(|t| {
            let n = t.alloc::<Link>()?;
            t.set(n, a, 0u64);
            t.set(n, b, 0u64);
            Ok(n)
        })
        .unwrap();
    handle.set_root_typed("obj", obj).unwrap();

    const ROUNDS: u64 = 300;
    // 7 is odd, so it has a multiplicative inverse mod 2^64: recover the
    // round that produced an observed `b` even under wrapping.
    const INV7: u64 = 0x6db6_db6d_b6db_6db7;
    let stop = AtomicBool::new(false);
    // Upper bound on any value the writer may have written, published
    // *before* each transaction runs (so it over-approximates, never
    // under-approximates, what a racing reader can see).
    let ceiling = AtomicU64::new(0);
    let reads = [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)];
    let mut last = ROUNDS;
    std::thread::scope(|scope| {
        let mut readers = Vec::new();
        for counter in &reads {
            let handle = handle.clone();
            let (stop, ceiling) = (&stop, &ceiling);
            readers.push(scope.spawn(move || {
                let mut prev_a = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    // A lock-free read session: pins an epoch, never
                    // touches the writer lock, reads data live.
                    let h = handle.read();
                    let o = h.root::<Link>("obj").unwrap().unwrap();
                    let x = h.get(o, a);
                    let y = h.get(o, b);
                    let bound = ceiling.load(Ordering::SeqCst);
                    assert!(x <= bound, "a={x} was never written (bound {bound})");
                    let k = y.wrapping_mul(INV7);
                    assert!(
                        k <= bound,
                        "b={y} (round {k}) was never written (bound {bound})"
                    );
                    // Writes go a-then-b: by the time a=x is visible, b
                    // is at least round x-1, and only moves forward.
                    assert!(
                        k + 1 >= x,
                        "b={y} (round {k}) lags more than one txn behind a={x}"
                    );
                    assert!(x >= prev_a, "a went backwards: {prev_a} -> {x}");
                    prev_a = x;
                    counter.fetch_add(1, Ordering::Relaxed);
                }
            }));
        }
        // At least ROUNDS transactions, then keep mutating until every
        // reader has demonstrably raced the writer (bounded, so a wedged
        // scheduler fails the test instead of hanging it).
        let mut i = 0u64;
        loop {
            i += 1;
            ceiling.store(i, Ordering::SeqCst);
            handle
                .txn(|t| {
                    // Reads inside a transaction go through its deref to
                    // `Pjh` and see the transaction's own stores.
                    let o = t.root::<Link>("obj")?.expect("published root");
                    assert_eq!(t.get(o, a), i - 1);
                    t.set(obj, a, i);
                    assert_eq!(t.get(obj, a), i);
                    t.set(obj, b, i.wrapping_mul(7));
                    Ok(())
                })
                .unwrap();
            let all_raced = reads.iter().all(|c| c.load(Ordering::Relaxed) > 0);
            if i >= ROUNDS && all_raced {
                break;
            }
            assert!(i < 2_000_000, "readers never got scheduled");
        }
        last = i;
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
    });
    assert!(reads.iter().all(|c| c.load(Ordering::Relaxed) > 0));
    // Final state is the last written pair.
    let h = handle.read();
    assert_eq!(h.get(obj, a), last);
    assert_eq!(h.get(obj, b), last.wrapping_mul(7));
}

/// The fingerprint distinguishes every declared field type from every
/// other (pairwise), so no single-type drift can slip through.
#[test]
fn fingerprints_are_pairwise_distinct_across_field_types() {
    let types = [
        FieldPick::U64,
        FieldPick::I64,
        FieldPick::Bool,
        FieldPick::F64,
        FieldPick::SelfRef,
        FieldPick::Str,
        FieldPick::Arr,
    ];
    let fps: Vec<u64> = types
        .iter()
        .map(|p| build_schema(&[*p]).fingerprint())
        .collect();
    for i in 0..fps.len() {
        for j in 0..i {
            assert_ne!(fps[i], fps[j], "{:?} vs {:?}", types[i], types[j]);
        }
    }
    // And ref targets are part of the digest.
    let r1 = Schema::builder("Rand").ref_named("f0", "A").build();
    let r2 = Schema::builder("Rand").ref_named("f0", "B").build();
    assert_ne!(r1.fingerprint(), r2.fingerprint());
    assert!(matches!(r1.field("f0"), Some((0, FieldType::Ref { .. }))));
    // Fingerprints are persisted in heap images: the digest of a given
    // declaration is part of the on-disk format and must never move.
    let pinned = Schema::builder("PinAcct")
        .u64_field("id")
        .str_field("owner")
        .ref_named("parent", "PinAcct")
        .build();
    assert_eq!(pinned.fingerprint(), 0x28ee_a867_f4d7_47f7);
}

/// The byte-array format (`alloc_bytes`/`read_bytes`) round-trips every
/// length around the word boundaries, carries non-UTF-8 payloads, and is
/// the representation `alloc_string`/`read_string` wrap.
#[test]
fn byte_arrays_roundtrip_every_length_and_back_strings() {
    let mgr = HeapManager::temp().unwrap();
    let handle = mgr.create("bytes", 4 << 20, PjhConfig::small()).unwrap();
    let mut h = handle.write();
    let mut payloads: Vec<Vec<u8>> = (0..=17usize)
        .map(|len| (0..len).map(|i| (len * 16 + i) as u8).collect())
        .collect();
    payloads.push(vec![0xff, 0xfe, 0x00, 0x80, 0xc3, 0x28, 0xf0, 0x9f, 0x92]);
    for payload in &payloads {
        let arr = h.alloc_bytes(payload).unwrap();
        assert_eq!(h.array_len(arr), 1 + payload.len().div_ceil(8));
        assert_eq!(&h.read_bytes(arr), payload);
    }
    let s = "café ☕ espresso";
    let arr = h.alloc_bytes(s.as_bytes()).unwrap();
    assert_eq!(h.read_string(arr), s);
    let arr = h.alloc_string(s).unwrap();
    assert_eq!(h.read_bytes(arr), s.as_bytes());
}
