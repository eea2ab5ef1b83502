//! End-to-end tests for espresso-server over real TCP connections:
//! basic operations, transaction atomicity and cross-shard rejection,
//! backpressure under a paused flush pipeline, group-commit coalescing,
//! and persistence across a server restart.

use std::time::Duration;

use espresso_server::client::Client;
use espresso_server::protocol::{Request, Status, TxnOp, NUM_FIELDS};
use espresso_server::server::{Server, ServerConfig, ServerHandle};

fn start(config: ServerConfig) -> ServerHandle {
    Server::start(config).expect("start server")
}

fn small() -> ServerConfig {
    ServerConfig {
        shards: 2,
        shard_bytes: 4 << 20,
        ..ServerConfig::default()
    }
}

#[test]
fn basic_ops_roundtrip_over_the_wire() {
    let handle = start(small());
    let mut c = Client::connect(handle.addr()).expect("connect");

    assert!(c.ping().unwrap());
    assert_eq!(c.get("missing").unwrap(), None);
    assert!(!c.del("missing").unwrap());

    // Raw values: empty, unaligned, and multi-word sizes all roundtrip.
    for value in [&b""[..], &b"x"[..], &b"123456789"[..], &[7u8; 4096][..]] {
        c.set("k", value).unwrap();
        assert_eq!(c.get("k").unwrap().as_deref(), Some(value));
    }
    assert!(c.del("k").unwrap());
    assert_eq!(c.get("k").unwrap(), None);

    // Typed fields: unset slots read 0, every slot is addressable, and
    // fields coexist with the raw value.
    c.set("typed", b"payload").unwrap();
    assert_eq!(c.fget("typed", 0).unwrap(), Some(0));
    for i in 0..NUM_FIELDS as u8 {
        c.fset("typed", i, u64::from(i) * 1000 + 7).unwrap();
    }
    for i in 0..NUM_FIELDS as u8 {
        assert_eq!(c.fget("typed", i).unwrap(), Some(u64::from(i) * 1000 + 7));
    }
    assert_eq!(c.get("typed").unwrap().as_deref(), Some(&b"payload"[..]));
    // FSET may create an entry with no raw value: FGET sees it, GET does not.
    c.fset("fields-only", 3, 42).unwrap();
    assert_eq!(c.fget("fields-only", 3).unwrap(), Some(42));
    assert_eq!(c.get("fields-only").unwrap(), None);
    // Out-of-range field indexes are errors, not panics.
    assert!(c.fset("typed", NUM_FIELDS as u8, 1).is_err());

    let stats = c.stats().unwrap();
    assert!(stats.contains("shards=2"), "stats:\n{stats}");
    assert!(stats.contains("ops_set="), "stats:\n{stats}");

    c.shutdown().unwrap();
    handle.wait();
}

/// Keys in `prefix0..` that route to the wanted shard (in-process peek at
/// the routing hash; clients learn it only via the TXN error).
fn keys_on_shard(handle: &ServerHandle, shard: usize, n: usize, prefix: &str) -> Vec<String> {
    (0..)
        .map(|i| format!("{prefix}{i}"))
        .filter(|k| handle.heap().shard_of(k) == shard)
        .take(n)
        .collect()
}

#[test]
fn txn_is_atomic_within_a_shard_and_rejects_cross_shard_key_sets() {
    let handle = start(small());
    let mut c = Client::connect(handle.addr()).expect("connect");

    let same = keys_on_shard(&handle, 0, 3, "t");
    c.set(&same[2], b"doomed").unwrap();
    c.txn(vec![
        TxnOp::Set {
            key: same[0].clone(),
            value: b"first".to_vec(),
        },
        TxnOp::FSet {
            key: same[1].clone(),
            index: 1,
            value: 99,
        },
        TxnOp::Del {
            key: same[2].clone(),
        },
    ])
    .unwrap();
    assert_eq!(c.get(&same[0]).unwrap().as_deref(), Some(&b"first"[..]));
    assert_eq!(c.fget(&same[1], 1).unwrap(), Some(99));
    assert_eq!(c.get(&same[2]).unwrap(), None);

    // A key set spanning shards is refused with ERR and applies nothing.
    let other = keys_on_shard(&handle, 1, 1, "x");
    let resp = c
        .request(&Request::Txn {
            ops: vec![
                TxnOp::Set {
                    key: same[0].clone(),
                    value: b"second".to_vec(),
                },
                TxnOp::Set {
                    key: other[0].clone(),
                    value: b"other-shard".to_vec(),
                },
            ],
        })
        .unwrap();
    assert_eq!(resp.status, Status::Err);
    assert!(String::from_utf8_lossy(&resp.payload).contains("cross-shard"));
    assert_eq!(c.get(&same[0]).unwrap().as_deref(), Some(&b"first"[..]));
    assert_eq!(c.get(&other[0]).unwrap(), None);

    // Empty transactions are errors too.
    let resp = c.request(&Request::Txn { ops: vec![] }).unwrap();
    assert_eq!(resp.status, Status::Err);

    // Sub-ops apply in order: Del-then-Set leaves a fresh entry (typed
    // fields reset, new value live), Set-then-Del leaves the key gone.
    c.fset(&same[0], 2, 5).unwrap();
    c.txn(vec![
        TxnOp::Del {
            key: same[0].clone(),
        },
        TxnOp::Set {
            key: same[0].clone(),
            value: b"reborn".to_vec(),
        },
    ])
    .unwrap();
    assert_eq!(c.get(&same[0]).unwrap().as_deref(), Some(&b"reborn"[..]));
    assert_eq!(c.fget(&same[0], 2).unwrap(), Some(0));
    c.txn(vec![
        TxnOp::Set {
            key: same[1].clone(),
            value: b"doomed".to_vec(),
        },
        TxnOp::Del {
            key: same[1].clone(),
        },
    ])
    .unwrap();
    assert_eq!(c.get(&same[1]).unwrap(), None);

    handle.stop_and_wait();
}

#[test]
fn scan_serves_ordered_ranges_over_the_index() {
    let handle = start(ServerConfig {
        shards: 1,
        shard_bytes: 8 << 20,
        ..ServerConfig::default()
    });
    let mut c = Client::connect(handle.addr()).expect("connect");

    for k in ["delta", "alpha", "echo", "bravo", "charlie"] {
        c.set(k, k.to_uppercase().as_bytes()).unwrap();
    }
    // Full scan: every key, ascending, values intact.
    let page = c.scan(0, "", "", 100).unwrap();
    assert!(!page.truncated);
    let got: Vec<&str> = page.items.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(got, ["alpha", "bravo", "charlie", "delta", "echo"]);
    assert_eq!(page.items[0].1, b"ALPHA");

    // Half-open range [bravo, delta).
    let page = c.scan(0, "bravo", "delta", 100).unwrap();
    let got: Vec<&str> = page.items.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(got, ["bravo", "charlie"]);

    // A limit pages through the range; resuming just past the last
    // returned key continues without overlap or gaps.
    let first = c.scan(0, "", "", 2).unwrap();
    assert!(first.truncated);
    assert_eq!(first.items.len(), 2);
    let resume = format!("{}\0", first.items[1].0);
    let rest = c.scan(0, &resume, "", 100).unwrap();
    assert!(!rest.truncated);
    assert_eq!(first.items.len() + rest.items.len(), 5);

    // Field-only entries hold no value and are skipped, mirroring GET.
    c.fset("fields-only", 0, 9).unwrap();
    let page = c.scan(0, "", "", 100).unwrap();
    assert!(page.items.iter().all(|(k, _)| k != "fields-only"));

    // DEL removes a key from scans; a TXN's Del+Set of one key keeps it
    // visible with the new value, and its plain Del hides the key.
    assert!(c.del("charlie").unwrap());
    let page = c.scan(0, "", "", 100).unwrap();
    assert!(page.items.iter().all(|(k, _)| k != "charlie"));
    c.txn(vec![
        TxnOp::Del {
            key: "alpha".into(),
        },
        TxnOp::Set {
            key: "alpha".into(),
            value: b"reborn".to_vec(),
        },
        TxnOp::Del {
            key: "bravo".into(),
        },
    ])
    .unwrap();
    let page = c.scan(0, "", "", 100).unwrap();
    let got: Vec<&str> = page.items.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(got, ["alpha", "delta", "echo"]);
    assert_eq!(page.items[0].1, b"reborn");

    // Out-of-range shards are well-formed errors, not hangs or panics.
    assert!(c.scan(9, "", "", 10).is_err());

    let stats = c.stats().unwrap();
    assert!(stats.contains("ops_scan="), "stats:\n{stats}");
    // 4 = alpha, delta, echo, plus the field-only entry (indexed even
    // though scans skip it for holding no value).
    assert!(stats.contains("shard0.index_len=4"), "stats:\n{stats}");

    c.shutdown().unwrap();
    handle.wait();
}

#[test]
fn paused_flush_pipeline_yields_busy_and_reads_keep_flowing() {
    let handle = start(ServerConfig {
        shards: 2,
        shard_bytes: 4 << 20,
        max_pending: 2,
        commit_timeout: Duration::from_millis(100),
        ..ServerConfig::default()
    });
    let mut c = Client::connect(handle.addr()).expect("connect");

    c.set("stable", b"before-pause").unwrap();
    c.flushctl(true).unwrap();

    // Writes now time out or are refused at admission: every answer is
    // definitive (BUSY), no connection hangs, no unbounded queueing.
    let mut saw_busy = 0;
    for i in 0..10 {
        let resp = c
            .request(&Request::Set {
                key: format!("paused-{i}"),
                value: b"v".to_vec(),
            })
            .unwrap();
        assert_ne!(resp.status, Status::Ok, "write acked while flush is paused");
        if resp.status == Status::Busy {
            saw_busy += 1;
        }
    }
    assert!(saw_busy > 0, "paused pipeline never answered BUSY");

    // Lock-free reads — point lookups and index scans — ride through
    // the pause.
    assert_eq!(
        c.get("stable").unwrap().as_deref(),
        Some(&b"before-pause"[..])
    );
    let shard = handle.heap().shard_of("stable") as u16;
    let page = c.scan(shard, "", "", 10).unwrap();
    assert!(page.items.iter().any(|(k, _)| k == "stable"));

    // Resume: writes become durable again (retry the admission window).
    c.flushctl(false).unwrap();
    let mut recovered = false;
    for _ in 0..50 {
        if c.set("after-resume", b"v").is_ok() {
            recovered = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(recovered, "writes never recovered after resume");

    c.shutdown().unwrap();
    handle.wait();
}

#[test]
fn concurrent_writers_coalesce_into_shared_epoch_seals() {
    let handle = start(ServerConfig {
        shards: 1,
        shard_bytes: 8 << 20,
        commit_timeout: Duration::from_secs(10),
        ..ServerConfig::default()
    });
    let addr = handle.addr();
    const WRITERS: usize = 8;
    const OPS: usize = 25;
    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            scope.spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                for i in 0..OPS {
                    c.set(&format!("w{w}-k{i}"), b"value").expect("durable set");
                }
            });
        }
    });
    let mut c = Client::connect(addr).expect("connect");
    let stats = c.stats().unwrap();
    let field = |name: &str| -> u64 {
        stats
            .lines()
            .find_map(|l| l.strip_prefix(&format!("{name}=")))
            .unwrap_or_else(|| panic!("missing {name} in stats:\n{stats}"))
            .trim()
            .parse()
            .unwrap()
    };
    let drains = field("group_drains");
    let acked = field("group_acked");
    assert_eq!(acked, (WRITERS * OPS) as u64);
    assert!(
        drains < acked,
        "no coalescing: {drains} epoch seals for {acked} acked writes"
    );
    c.shutdown().unwrap();
    handle.wait();
}

#[test]
fn data_survives_a_server_restart_on_a_persistent_dir() {
    let dir = std::env::temp_dir().join(format!("espresso-server-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let config = ServerConfig {
        shards: 2,
        shard_bytes: 4 << 20,
        dir: Some(dir.clone()),
        ..ServerConfig::default()
    };

    let handle = start(config.clone());
    let mut c = Client::connect(handle.addr()).expect("connect");
    c.set("persistent", b"survives restarts").unwrap();
    c.fset("persistent", 2, 777).unwrap();
    c.shutdown().unwrap();
    handle.wait();

    let handle = start(config);
    let mut c = Client::connect(handle.addr()).expect("connect");
    assert_eq!(
        c.get("persistent").unwrap().as_deref(),
        Some(&b"survives restarts"[..])
    );
    assert_eq!(c.fget("persistent", 2).unwrap(), Some(777));
    // The secondary index is persistent state too: scans work on the
    // reopened heap without any rebuild.
    let mut scanned = Vec::new();
    for shard in 0..2 {
        scanned.extend(c.scan(shard, "", "", 10).unwrap().items);
    }
    assert_eq!(
        scanned,
        vec![("persistent".to_string(), b"survives restarts".to_vec())]
    );
    handle.stop_and_wait();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn loadgen_scan_mix_reports_scan_latencies() {
    use espresso_server::load::{run_load, LoadConfig};

    let handle = start(small());
    let report = run_load(&LoadConfig {
        addr: handle.addr(),
        conns: 2,
        ops: 400,
        read_pct: 50,
        keys_per_conn: 32,
        value_len: 24,
        zipf_theta: 0.0,
        check: true,
        scan_pct: 20,
        scan_limit: 16,
        ..LoadConfig::default()
    })
    .expect("load run");
    assert_eq!(report.errors, 0, "report: {report:?}");
    assert_eq!(report.check_failures, 0, "report: {report:?}");
    // ~20% of 400 ops scan; the band is wide because the mix is drawn.
    assert!(
        report.scans_done > 30 && report.scans_done < 150,
        "scans_done = {}",
        report.scans_done
    );
    // Writes happened before most scans, so result sets are non-empty
    // and capped by the page limit.
    assert!(report.scan_items > 0, "report: {report:?}");
    assert!(report.scan_p99_us >= report.scan_p50_us);

    let mut c = Client::connect(handle.addr()).expect("connect");
    c.shutdown().unwrap();
    handle.wait();
}

/// `SET`, `FSET` and `DEL` are one-op calls of the `TXN` path: the single
/// verb on one key and the equivalent one-op `TXN` on another leave the
/// same GET/FGET/SCAN-visible state. The one wire difference is a lone
/// `DEL` of a missing key, which answers `NOT_FOUND` without joining a
/// group commit.
#[test]
fn single_verbs_match_their_one_op_txns() {
    let handle = start(small());
    let mut c = Client::connect(handle.addr()).expect("connect");
    // Per key: (GET, FGET 2, whether any shard's SCAN lists it).
    let visible = |c: &mut Client, key: &str| {
        let scanned = (0..2).any(|shard| {
            let page = c.scan(shard, key, "", 1).unwrap();
            page.items.first().is_some_and(|(k, _)| k == key)
        });
        (c.get(key).unwrap(), c.fget(key, 2).unwrap(), scanned)
    };
    let set = |key: &str| TxnOp::Set {
        key: key.to_string(),
        value: b"espresso".to_vec(),
    };
    let fset = |key: &str| TxnOp::FSet {
        key: key.to_string(),
        index: 2,
        value: 9,
    };
    let del = |key: &str| TxnOp::Del {
        key: key.to_string(),
    };

    // FSET on a fresh key: a valueless entry, skipped by SCAN.
    c.fset("verb-f", 2, 9).unwrap();
    c.txn(vec![fset("txn-f")]).unwrap();
    assert_eq!(visible(&mut c, "verb-f"), (None, Some(9), false));
    assert_eq!(visible(&mut c, "txn-f"), visible(&mut c, "verb-f"));

    // SET on a fresh key, then FSET on the existing entry.
    c.set("verb", b"espresso").unwrap();
    c.txn(vec![set("txn")]).unwrap();
    let fresh = (Some(b"espresso".to_vec()), Some(0), true);
    assert_eq!(visible(&mut c, "verb"), fresh);
    assert_eq!(visible(&mut c, "txn"), fresh);
    c.fset("verb", 2, 9).unwrap();
    c.txn(vec![fset("txn")]).unwrap();
    assert_eq!(visible(&mut c, "verb").1, Some(9));
    assert_eq!(visible(&mut c, "txn"), visible(&mut c, "verb"));

    // DEL of a live key.
    assert!(c.del("verb").unwrap());
    c.txn(vec![del("txn")]).unwrap();
    assert_eq!(visible(&mut c, "verb"), (None, None, false));
    assert_eq!(visible(&mut c, "txn"), (None, None, false));

    // DEL of a missing key: NOT_FOUND, and no epoch was sealed for it;
    // the same op inside a TXN keeps answering OK.
    let drains = |c: &mut Client| {
        let stats = c.stats().unwrap();
        let line = stats.lines().find(|l| l.starts_with("group_drains="));
        line.expect("group_drains in STATS").to_string()
    };
    let before = drains(&mut c);
    assert!(!c.del("verb").unwrap());
    assert_eq!(drains(&mut c), before);
    c.txn(vec![del("txn")]).unwrap();

    c.shutdown().unwrap();
    handle.wait();
}
