//! Property tests for the session-based heap API: shared `HeapHandle`s,
//! `txn` abort-on-panic, `ShardedHeap` commit→reload durability, and the
//! async commit pipeline's crash windows (seal→apply aborts, concurrent
//! `commit()` + `txn()` interleavings).

use espresso::heap::{HeapManager, LoadOptions, PjhConfig, PjhError, ShardedHeap};
use espresso::object::FieldDesc;
use proptest::prelude::*;

fn rec_fields() -> Vec<FieldDesc> {
    vec![FieldDesc::prim("a"), FieldDesc::prim("b")]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Two handles obtained for the same heap name are one live instance:
    /// any interleaving of writes through either is observed by both,
    /// field for field.
    #[test]
    fn two_handles_to_one_name_observe_each_others_writes(
        writes in proptest::collection::vec((any::<bool>(), 0usize..8, any::<u64>()), 1..40),
    ) {
        let mgr = HeapManager::temp().unwrap();
        let a = mgr.create("shared", 4 << 20, PjhConfig::small()).unwrap();
        let b = mgr.load("shared", LoadOptions::default()).unwrap();
        let objs = a.with_mut(|h| {
            let k = h.register_instance("Rec", rec_fields()).unwrap();
            (0..8).map(|_| h.alloc_instance(k).unwrap()).collect::<Vec<_>>()
        });
        let mut model = [0u64; 8];
        for (via_b, i, v) in writes {
            let writer = if via_b { &b } else { &a };
            writer.with_mut(|h| h.set_field(objs[i], 0, v));
            model[i] = v;
        }
        for (i, obj) in objs.iter().enumerate() {
            prop_assert_eq!(a.with(|h| h.field(*obj, 0)), model[i]);
            prop_assert_eq!(b.with(|h| h.field(*obj, 0)), model[i]);
        }
    }

    /// A transaction that panics mid-flight aborts: every logged store is
    /// rolled back to its pre-transaction value, and the heap stays
    /// usable afterwards.
    #[test]
    fn txn_panic_restores_pre_state(
        committed in proptest::collection::vec(any::<u64>(), 4..5),
        torn in proptest::collection::vec((0usize..4, any::<u64>()), 1..12),
    ) {
        let mgr = HeapManager::temp().unwrap();
        let handle = mgr.create("txn", 4 << 20, PjhConfig::small()).unwrap();
        let objs = handle.with_mut(|h| {
            let k = h.register_instance("Rec", rec_fields()).unwrap();
            (0..4).map(|_| h.alloc_instance(k).unwrap()).collect::<Vec<_>>()
        });
        // Committed baseline state.
        handle.txn(|t| {
            for (i, v) in committed.iter().enumerate() {
                t.set_field(objs[i], 0, *v);
            }
            Ok(())
        }).unwrap();
        // A transaction that applies `torn` stores, then panics.
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _: Result<(), PjhError> = handle.txn(|t| {
                for (i, v) in &torn {
                    t.set_field(objs[*i], 0, *v);
                }
                panic!("power struggle");
            });
        }));
        prop_assert!(caught.is_err());
        for (i, v) in committed.iter().enumerate() {
            prop_assert_eq!(handle.with(|h| h.field(objs[i], 0)), *v,
                "panic must roll back to the committed value");
        }
        // Still usable: the next transaction commits normally.
        handle.txn(|t| { t.set_field(objs[0], 1, 77); Ok(()) }).unwrap();
        prop_assert_eq!(handle.with(|h| h.field(objs[0], 1)), 77);
    }

    /// ShardedHeap: roots written through the façade survive a
    /// commit→close→reload cycle on every shard, whatever the key mix.
    #[test]
    fn sharded_roots_survive_commit_reload_per_shard(
        key_ids in proptest::collection::vec(0u32..10_000, 1..24),
        shards in 1usize..5,
    ) {
        let keys: std::collections::BTreeSet<String> =
            key_ids.iter().map(|id| format!("user{id}")).collect();
        let mgr = HeapManager::temp().unwrap();
        let sh = ShardedHeap::create(&mgr, "props", shards, 4 << 20, PjhConfig::small()).unwrap();
        let k = sh.register_instance("Rec", rec_fields()).unwrap();
        let mut expect = Vec::new();
        for (n, key) in keys.iter().enumerate() {
            let r = sh.alloc_instance(key, &k).unwrap();
            sh.txn(key, |t| { t.set_field(r.r, 0, n as u64); Ok(()) }).unwrap();
            sh.set_root(key, r).unwrap();
            expect.push((key.clone(), n as u64));
        }
        sh.commit_sync().unwrap();
        drop(sh);
        let sh2 = ShardedHeap::open(&mgr, "props", LoadOptions::default()).unwrap();
        prop_assert_eq!(sh2.num_shards(), shards);
        for (key, v) in expect {
            let r = sh2.get_root(&key).expect("root survived");
            prop_assert_eq!(r.shard, sh2.shard_of(&key));
            prop_assert_eq!(sh2.field(r, 0), v);
        }
    }

    /// A pipeline that dies between seal and apply (pause + abort) loses
    /// exactly the sealed-but-unapplied epoch: reloading the image
    /// recovers the last *applied* epoch, bit for bit, whatever the torn
    /// epoch had mutated.
    #[test]
    fn pipeline_killed_between_seal_and_apply_recovers_last_applied_epoch(
        committed in proptest::collection::vec(any::<u64>(), 8..9),
        torn in proptest::collection::vec((0usize..8, any::<u64>()), 1..24),
    ) {
        let mgr = HeapManager::temp().unwrap();
        let handle = mgr.create("pipe", 4 << 20, PjhConfig::small()).unwrap();
        let objs = handle.with_mut(|h| {
            let k = h.register_instance("Rec", rec_fields()).unwrap();
            let objs: Vec<_> = (0..8).map(|_| h.alloc_instance(k).unwrap()).collect();
            for (i, o) in objs.iter().enumerate() {
                h.set_root(&format!("o{i}"), *o).unwrap();
            }
            objs
        });
        handle.txn(|t| {
            for (i, v) in committed.iter().enumerate() {
                t.set_field(objs[i], 0, *v);
            }
            Ok(())
        }).unwrap();
        handle.commit_sync().unwrap(); // the last applied epoch
        // The torn epoch: mutations sealed into a commit whose apply
        // never runs.
        handle.with_mut(|h| {
            for (i, v) in &torn {
                h.set_field(objs[*i], 0, *v);
                h.flush_field(objs[*i], 0);
            }
        });
        handle.set_flush_paused(true);
        let ticket = handle.commit().unwrap();
        prop_assert_eq!(handle.abort_pending_commits(), 1);
        prop_assert!(ticket.wait().is_err(), "the torn epoch must report failure");
        drop(handle);
        let reloaded = mgr.load("pipe", LoadOptions::default()).unwrap();
        reloaded.with(|h| {
            for (i, v) in committed.iter().enumerate() {
                let o = h.get_root(&format!("o{i}")).unwrap();
                assert_eq!(h.field(o, 0), *v, "object {i}: last applied epoch");
            }
        });
    }

    /// After an aborted apply, one ordinary commit re-captures every
    /// restored line: the next reload sees the full post-abort state —
    /// nothing from the discarded epoch is ever silently lost.
    #[test]
    fn commit_after_aborted_apply_heals_the_image(
        torn in proptest::collection::vec((0usize..8, any::<u64>()), 1..24),
    ) {
        let mgr = HeapManager::temp().unwrap();
        let handle = mgr.create("heal", 4 << 20, PjhConfig::small()).unwrap();
        let objs = handle.with_mut(|h| {
            let k = h.register_instance("Rec", rec_fields()).unwrap();
            let objs: Vec<_> = (0..8).map(|_| h.alloc_instance(k).unwrap()).collect();
            for (i, o) in objs.iter().enumerate() {
                h.set_root(&format!("o{i}"), *o).unwrap();
            }
            objs
        });
        handle.commit_sync().unwrap();
        let mut model = [0u64; 8];
        handle.with_mut(|h| {
            for (i, v) in &torn {
                h.set_field(objs[*i], 0, *v);
                h.flush_field(objs[*i], 0);
            }
        });
        for (i, v) in &torn {
            model[*i] = *v;
        }
        handle.set_flush_paused(true);
        let ticket = handle.commit().unwrap();
        handle.abort_pending_commits();
        prop_assert!(ticket.wait().is_err());
        // The retry: restored lines ride the next sealed epoch.
        handle.set_flush_paused(false);
        handle.commit_sync().unwrap();
        drop(handle);
        let reloaded = mgr.load("heal", LoadOptions::default()).unwrap();
        reloaded.with(|h| {
            for (i, want) in model.iter().enumerate() {
                let o = h.get_root(&format!("o{i}")).unwrap();
                assert_eq!(h.field(o, 0), *want, "object {i} healed");
            }
        });
    }

    /// Transactions racing asynchronous commit points stay atomic: a
    /// writer thread runs `txn`s (each sets both fields of an object to
    /// one value) while another thread seals commit epochs; after the
    /// final durability barrier and a reload, every object's field pair
    /// is consistent and equals the writer's final value.
    #[test]
    fn concurrent_commits_and_txns_stay_atomic_through_reload(
        writes in proptest::collection::vec((0usize..6, 1u64..u64::MAX), 4..40),
        commits in 1usize..6,
    ) {
        let mgr = HeapManager::temp().unwrap();
        let handle = mgr.create("race", 4 << 20, PjhConfig::small()).unwrap();
        let objs = handle.with_mut(|h| {
            let k = h.register_instance("Rec", rec_fields()).unwrap();
            let objs: Vec<_> = (0..6).map(|_| h.alloc_instance(k).unwrap()).collect();
            for (i, o) in objs.iter().enumerate() {
                h.set_root(&format!("o{i}"), *o).unwrap();
            }
            objs
        });
        handle.commit_sync().unwrap();
        let mut model = [0u64; 6];
        for (i, v) in &writes {
            model[*i] = *v;
        }
        let per_committer = writes.len().div_ceil(commits);
        std::thread::scope(|scope| {
            let writer_handle = handle.clone();
            let writer_objs = objs.clone();
            let writer_writes = writes.clone();
            scope.spawn(move || {
                for (i, v) in &writer_writes {
                    writer_handle
                        .txn(|t| {
                            t.set_field(writer_objs[*i], 0, *v);
                            t.set_field(writer_objs[*i], 1, *v);
                            Ok(())
                        })
                        .unwrap();
                }
            });
            let committer_handle = handle.clone();
            scope.spawn(move || {
                for _ in 0..per_committer {
                    // Async seal: the apply overlaps the writer's txns.
                    drop(committer_handle.commit().unwrap());
                    std::thread::yield_now();
                }
            });
        });
        handle.commit_sync().unwrap();
        drop(handle);
        let reloaded = mgr.load("race", LoadOptions::default()).unwrap();
        reloaded.with(|h| {
            for (i, want) in model.iter().enumerate() {
                let o = h.get_root(&format!("o{i}")).unwrap();
                let a = h.field(o, 0);
                let b = h.field(o, 1);
                assert_eq!(a, b, "object {i}: txn atomicity under racing commits");
                assert_eq!(a, *want, "object {i}: final barrier covers all txns");
            }
        });
    }
}

/// The heap's one `HeapFull` policy (`with_mut_retry` / `txn_retry`): a
/// section that succeeds runs once and collects nothing; one that hits
/// `HeapFull` gets exactly one full collection and one re-run; a second
/// `HeapFull` propagates; any other error passes through uncollected.
#[test]
fn heap_full_policy_collects_once_and_retries_once() {
    let mgr = HeapManager::temp().unwrap();
    let handle = mgr.create("full", 1 << 20, PjhConfig::small()).unwrap();
    let k = handle
        .with_mut(|h| h.register_instance("Rec", rec_fields()))
        .unwrap();
    let full_gcs = || handle.heap_stats().gc_full_count;

    // No HeapFull: one run, no collection.
    let mut runs = 0;
    handle
        .txn_retry(|t| {
            runs += 1;
            t.alloc_instance(k)
        })
        .unwrap();
    assert_eq!((runs, full_gcs()), (1, 0));

    // Fill the heap with garbage; the allocation that no longer fits is
    // re-run after one full collection and then succeeds.
    handle.with_mut(|h| while h.alloc_instance(k).is_ok() {});
    let mut runs = 0;
    handle
        .with_mut_retry(|h| {
            runs += 1;
            h.alloc_instance(k)
        })
        .unwrap();
    assert_eq!((runs, full_gcs()), (2, 1));

    // Still full after the collection: the second HeapFull propagates.
    let mut runs = 0;
    let out: Result<(), PjhError> = handle.with_mut_retry(|_| {
        runs += 1;
        Err(PjhError::HeapFull { requested_words: 4 })
    });
    assert!(matches!(out, Err(PjhError::HeapFull { .. })));
    assert_eq!((runs, full_gcs()), (2, 2));

    // Any other error: one run, no collection.
    let mut runs = 0;
    let out: Result<(), PjhError> = handle.txn_retry(|_| {
        runs += 1;
        Err(PjhError::NotAHeap)
    });
    assert!(matches!(out, Err(PjhError::NotAHeap)));
    assert_eq!((runs, full_gcs()), (1, 2));
}
