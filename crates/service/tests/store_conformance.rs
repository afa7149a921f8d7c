//! The shared [`ResultStore`] conformance suite, run against both
//! backends, plus the journal-specific persistence and crash-recovery
//! tests.
//!
//! The conformance contract (documented on the trait): unknown ids read
//! as `None`, put/get round-trips are bit-identical (coverage detections
//! and every stats counter), re-`put` of an id replaces, and `ids` lists
//! first-`put` order without duplicates. The journal additionally
//! survives reopen, and — the crash-injection test — deterministically
//! recovers every completed record when the file loses an arbitrary
//! number of tail bytes mid-record, while an intact frame it cannot decode
//! is skipped rather than mistaken for such a tail. A frame written by a
//! release that still had the good-run cache replays unchanged. And a
//! service restarted onto a journal continues its ids after the replayed
//! ones, so no stored record is ever overwritten by a new campaign, and
//! never answers a repeat with a replayed record.

use eraser_core::{CampaignSpec, RedundancyStats};
use eraser_fault::{CoverageReport, Detection, FaultId};
use eraser_ir::SignalId;
use eraser_service::{
    CampaignRecord, CampaignService, JobStatus, JournalStore, MemStore, ResultStore,
};
use std::path::PathBuf;
use std::time::Duration;

/// A distinguishable record: every field derived from `n` so two records
/// never collide and corruption is detectable by equality.
fn record(n: u64) -> CampaignRecord {
    let total = 8 + n as usize;
    let mut coverage = CoverageReport::new(total);
    for i in 0..total {
        if i as u64 % 3 != 1 {
            coverage.record(
                FaultId(i as u32),
                Detection {
                    step: (n as usize + i) * 2,
                    output: SignalId((i % 5) as u32),
                },
            );
        }
    }
    CampaignRecord {
        id: format!("c{n}"),
        spec: CampaignSpec::benchmark("APB")
            .seed(n)
            .steps(40 + n as usize),
        design_name: "APB".into(),
        num_faults: total,
        steps: 40 + n as usize,
        good_run_steps: n * 40,
        cache_hit: n % 2 == 1,
        coverage,
        stats: RedundancyStats {
            good_activations: n,
            opportunities: n * 100,
            explicit_skipped: n * 60,
            implicit_skipped: n * 30,
            fault_executions: n * 10,
            rtl_good_evals: n * 7,
            rtl_fault_evals: n * 11,
            deltas: n * 13,
            skipped_prefix_steps: n * 17,
            dropped_faults: n,
            time_behavioral: Duration::from_nanos(n * 1001),
            time_total: Duration::from_nanos(n * 5003),
            ..RedundancyStats::default()
        },
    }
}

/// The backend-agnostic contract. Every [`ResultStore`] implementation
/// must pass this unchanged.
fn check_conformance(store: &mut dyn ResultStore) {
    // Empty store: unknown ids are None, not errors.
    assert!(store.get("c1").unwrap().is_none());
    assert!(store.ids().is_empty());

    // Round-trip, bit-identical.
    let r1 = record(1);
    let r2 = record(2);
    store.put(&r1).unwrap();
    store.put(&r2).unwrap();
    let back = store.get("c1").unwrap().expect("c1 stored");
    assert_eq!(back, r1);
    assert_eq!(
        back.coverage, r1.coverage,
        "detections must survive exactly"
    );
    assert_eq!(back.stats, r1.stats, "every counter must survive exactly");
    assert_eq!(store.get("c2").unwrap().unwrap(), r2);
    assert!(store.get("c3").unwrap().is_none());

    // First-put order, no duplicates.
    assert_eq!(store.ids(), vec!["c1".to_string(), "c2".to_string()]);

    // Re-put replaces.
    let mut r1b = record(1);
    r1b.stats.opportunities += 999;
    store.put(&r1b).unwrap();
    assert_eq!(store.get("c1").unwrap().unwrap(), r1b);
    assert_eq!(store.ids(), vec!["c1".to_string(), "c2".to_string()]);
}

/// A per-test scratch path (removed before and after use).
fn scratch(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("eraser-store-{name}-{}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn mem_store_conforms() {
    check_conformance(&mut MemStore::new());
}

#[test]
fn journal_store_conforms() {
    let path = scratch("conform");
    check_conformance(&mut JournalStore::open(&path).unwrap());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn journal_survives_reopen() {
    let path = scratch("reopen");
    let (r1, r2) = (record(1), record(2));
    {
        let mut store = JournalStore::open(&path).unwrap();
        store.put(&r1).unwrap();
        store.put(&r2).unwrap();
    }
    let store = JournalStore::open(&path).unwrap();
    assert_eq!(store.ids(), vec!["c1".to_string(), "c2".to_string()]);
    assert_eq!(store.get("c1").unwrap().unwrap(), r1);
    assert_eq!(store.get("c2").unwrap().unwrap(), r2);
    let _ = std::fs::remove_file(&path);
}

/// The deterministic crash-injection test: truncate the journal at every
/// byte offset inside the final record's frame and check that recovery
/// always restores exactly the completed records and resets the file to
/// a clean boundary new appends extend.
#[test]
fn journal_recovers_from_mid_record_truncation() {
    let path = scratch("crash");
    let (r1, r2, r3) = (record(1), record(2), record(3));
    let len_after_two;
    let len_after_three;
    {
        let mut store = JournalStore::open(&path).unwrap();
        store.put(&r1).unwrap();
        store.put(&r2).unwrap();
        len_after_two = std::fs::metadata(&path).unwrap().len();
        store.put(&r3).unwrap();
        len_after_three = std::fs::metadata(&path).unwrap().len();
    }
    assert!(len_after_three > len_after_two);
    let full = std::fs::read(&path).unwrap();

    // A torn write can stop at any byte: header cut short, payload cut
    // short, checksum line intact but newline missing. Sample the whole
    // range (stride keeps the test fast; endpoints are covered).
    let cuts: Vec<u64> = (len_after_two + 1..len_after_three)
        .step_by(7)
        .chain([len_after_two + 1, len_after_three - 1])
        .collect();
    for cut in cuts {
        std::fs::write(&path, &full[..cut as usize]).unwrap();
        let store = JournalStore::open(&path).unwrap();
        assert_eq!(
            store.ids(),
            vec!["c1".to_string(), "c2".to_string()],
            "cut at byte {cut}: completed records must all recover"
        );
        assert_eq!(store.get("c1").unwrap().unwrap(), r1);
        assert_eq!(store.get("c2").unwrap().unwrap(), r2);
        assert!(store.get("c3").unwrap().is_none());
        // Recovery truncates back to the last intact frame...
        assert_eq!(std::fs::metadata(&path).unwrap().len(), len_after_two);
        drop(store);
        // ...and the journal accepts appends from that clean boundary.
        let mut store = JournalStore::open(&path).unwrap();
        store.put(&r3).unwrap();
        drop(store);
        let store = JournalStore::open(&path).unwrap();
        assert_eq!(store.ids(), vec!["c1", "c2", "c3"]);
        assert_eq!(store.get("c3").unwrap().unwrap(), r3);
    }
    let _ = std::fs::remove_file(&path);
}

/// Flipping a byte inside a frame (not just truncating) must also end
/// recovery at the previous intact record — the checksum is what
/// guarantees it.
#[test]
fn journal_checksum_catches_corruption() {
    let path = scratch("corrupt");
    {
        let mut store = JournalStore::open(&path).unwrap();
        store.put(&record(1)).unwrap();
        store.put(&record(2)).unwrap();
    }
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() * 3 / 4; // inside the second frame's payload
    bytes[mid] ^= 0x20;
    std::fs::write(&path, &bytes).unwrap();
    let store = JournalStore::open(&path).unwrap();
    assert_eq!(store.ids(), vec!["c1".to_string()]);
    assert_eq!(store.get("c1").unwrap().unwrap(), record(1));
    let _ = std::fs::remove_file(&path);
}

/// An intact frame this build cannot decode is not a torn tail. A record
/// stored by a build whose specs still carried a since-removed key
/// (`partition`) passes header, length and checksum; it must be skipped —
/// left in the file, its neighbours both served — not truncated away with
/// everything after it.
#[test]
fn journal_skips_an_intact_frame_it_cannot_decode() {
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf29ce484222325, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x100000001b3)
        })
    }
    let frame = |payload: &str| {
        format!(
            "ERASER-REC {} {:016x}\n{payload}\n",
            payload.len(),
            fnv1a(payload.as_bytes())
        )
    };
    let path = scratch("undecodable");
    let (r1, r3, r4) = (record(1), record(3), record(4));
    let old =
        record(2)
            .to_json()
            .replacen(r#""spec":{"#, r#""spec":{"partition":"round-robin","#, 1);
    assert!(
        CampaignRecord::from_json(&old).is_err(),
        "fixture must not decode"
    );
    let journal = [frame(&r1.to_json()), frame(&old), frame(&r3.to_json())].concat();
    std::fs::write(&path, &journal).unwrap();

    let mut store = JournalStore::open(&path).unwrap();
    assert_eq!(store.ids(), vec!["c1".to_string(), "c3".to_string()]);
    assert_eq!(store.get("c1").unwrap().unwrap(), r1);
    assert_eq!(store.get("c3").unwrap().unwrap(), r3);
    assert_eq!(
        std::fs::read(&path).unwrap(),
        journal.as_bytes(),
        "reopening must not touch intact frames"
    );
    // A later put lands after the last intact frame.
    store.put(&r4).unwrap();
    drop(store);
    assert_eq!(
        std::fs::read(&path).unwrap(),
        [journal, frame(&r4.to_json())].concat().as_bytes()
    );
    let store = JournalStore::open(&path).unwrap();
    assert_eq!(store.ids(), vec!["c1", "c3", "c4"]);
    assert_eq!(store.get("c4").unwrap().unwrap(), r4);
    let _ = std::fs::remove_file(&path);
}

/// Journals outlive the service's good-run cache: a frame exactly as a
/// cache-era binary wrote it for a repeat submission (`"cache_hit":true`,
/// `"good_run_steps":0` on a checkpointed campaign) still replays, keeps
/// both values, and re-encodes to the same bytes.
#[test]
fn journal_replays_a_cache_era_record_unchanged() {
    const HEADER: &str = "ERASER-REC 761 f6a131c9216bc013";
    const PAYLOAD: &str = r#"{"id":"c2","spec":{"design":{"benchmark":"APB"},"seed":1,"steps":12,"mode":"full","drop_detected":true,"max_faults":6,"checkpoint_interval":4},"design":"APB","faults":6,"steps":22,"good_run_steps":0,"cache_hit":true,"coverage":{"total":6,"detected":1,"percent":16.666666666666668,"detections":[[2,13,7]]},"stats":{"good_activations":11,"opportunities":29,"explicit_skipped":0,"implicit_skipped":28,"fault_executions":1,"fault_only_activations":0,"suppressed_activations":0,"rtl_good_evals":5,"rtl_fault_evals":0,"deltas":34,"skipped_prefix_steps":0,"skipped_faults":3,"dropped_faults":1,"batch_groups":0,"batch_lanes":0,"batch_scalar_fallbacks":0,"collapsed_faults":0,"collapse_classes":0,"collapse_dropped":0,"time_behavioral_ns":38347,"time_total_ns":178101}}"#;
    let path = scratch("cache-era");
    std::fs::write(&path, format!("{HEADER}\n{PAYLOAD}\n")).unwrap();
    let store = JournalStore::open(&path).unwrap();
    assert_eq!(store.ids(), vec!["c2".to_string()]);
    let record = store.get("c2").unwrap().unwrap();
    assert!(record.cache_hit);
    assert_eq!(record.good_run_steps, 0);
    assert_eq!(record.spec.checkpoint_interval, Some(4));
    assert_eq!((record.num_faults, record.steps), (6, 22));
    assert_eq!(record.to_json(), PAYLOAD);
    let _ = std::fs::remove_file(&path);
}

/// Submits `spec` and blocks until its record is stored.
fn run_to_done(service: &CampaignService, spec: &CampaignSpec) -> CampaignRecord {
    let handle = service.handle();
    let id = handle.submit(spec.clone()).unwrap();
    for _ in 0..2000 {
        match handle.status(&id).unwrap().status {
            JobStatus::Done => return handle.result(&id).unwrap().expect("done means stored"),
            JobStatus::Failed(message) => panic!("{id} failed: {message}"),
            _ => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    panic!("{id} never finished");
}

/// A restarted service must not reissue an id its journal already holds:
/// submit, restart on the same journal, submit again — both records are
/// there, the first one untouched.
#[test]
fn restarted_service_continues_ids_after_the_journal() {
    let path = scratch("restart-ids");
    let spec = |seed| CampaignSpec::benchmark("ALU").steps(20).seed(seed);
    let first = {
        let mut service = CampaignService::new(Box::new(JournalStore::open(&path).unwrap()), 1, 8);
        let record = run_to_done(&service, &spec(1));
        service.shutdown();
        record
    };
    let mut service = CampaignService::new(Box::new(JournalStore::open(&path).unwrap()), 1, 8);
    let second = run_to_done(&service, &spec(2));
    assert_ne!(first.id, second.id, "the restart reissued {}", first.id);
    let handle = service.handle();
    assert_eq!(handle.result(&first.id).unwrap().unwrap(), first);
    assert_eq!(handle.result(&second.id).unwrap().unwrap(), second);
    service.shutdown();
    // And the journal itself holds both, in order.
    let store = JournalStore::open(&path).unwrap();
    assert_eq!(store.ids(), vec![first.id.clone(), second.id.clone()]);
    let _ = std::fs::remove_file(&path);
}

/// A restarted service starts with an empty memo: a repeat of a spec the
/// journal already holds runs, while the replayed record is still served
/// by id. A repeat of what this service ran is then answered from the
/// store.
#[test]
fn a_restart_reuses_no_replayed_record() {
    let path = scratch("restart-memo");
    let spec = CampaignSpec::benchmark("ALU").steps(20);
    let before = {
        let mut service = CampaignService::new(Box::new(JournalStore::open(&path).unwrap()), 1, 8);
        let record = run_to_done(&service, &spec);
        service.shutdown();
        record
    };
    let mut service = CampaignService::new(Box::new(JournalStore::open(&path).unwrap()), 1, 8);
    let rerun = run_to_done(&service, &spec);
    let hit = run_to_done(&service, &spec);
    assert!(
        !before.cache_hit && !rerun.cache_hit,
        "a replayed record was reused"
    );
    assert!(hit.cache_hit);
    assert_eq!(rerun.coverage, before.coverage);
    assert_eq!(
        service.handle().result(&before.id).unwrap().unwrap(),
        before
    );
    service.shutdown();
    let _ = std::fs::remove_file(&path);
}
