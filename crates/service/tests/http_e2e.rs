//! End-to-end HTTP campaign tests: a real server on an ephemeral port, a
//! hand-rolled client, and the acceptance invariants —
//!
//! * a campaign submitted over HTTP (benchmark **and** netlist fixture)
//!   returns coverage bit-identical to a direct [`run_campaign`] call
//!   with every redundancy counter preserved through the result store;
//! * a second submission of the identical spec is answered from the
//!   store: `done` in the `202` body, the same result, no good run;
//! * a journal-backed service restarted onto the same file serves every
//!   completed campaign's record unchanged.

use eraser_core::{run_campaign, CampaignSpec};
use eraser_netlist::json::{self, JsonValue};
use eraser_service::{
    prepare_spec, CampaignRecord, CampaignService, HttpServer, JournalStore, MemStore,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Minimal HTTP/1.1 client: one request, one connection.
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("receive");
    let status: u16 = response
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// Polls `GET /campaigns/:id` until done (panicking on failure or
/// timeout) and returns the persisted record.
fn await_record(addr: SocketAddr, id: &str) -> CampaignRecord {
    for _ in 0..6000 {
        let (status, body) = http(addr, "GET", &format!("/campaigns/{id}"), "");
        assert_eq!(status, 200, "{body}");
        let v = json::parse(&body).unwrap();
        match v.get("status").and_then(JsonValue::as_str) {
            Some("done") => {
                let (status, body) = http(addr, "GET", &format!("/campaigns/{id}/result"), "");
                assert_eq!(status, 200, "{body}");
                return CampaignRecord::from_json(&body).expect("well-formed record");
            }
            Some("failed") => panic!("campaign {id} failed: {body}"),
            _ => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    panic!("campaign {id} did not finish");
}

/// Posts `spec`, returning the new id and the status the `202` body
/// reports.
fn post(addr: SocketAddr, spec: &CampaignSpec) -> (String, String) {
    let (status, body) = http(addr, "POST", "/campaigns", &spec.to_json());
    assert_eq!(status, 202, "{body}");
    let v = json::parse(&body).unwrap();
    let field = |key| {
        v.get(key)
            .and_then(JsonValue::as_str)
            .unwrap_or_else(|| panic!("{key} in `{body}`"))
            .to_string()
    };
    (field("id"), field("status"))
}

fn submit(addr: SocketAddr, spec: &CampaignSpec) -> String {
    post(addr, spec).0
}

/// Every semantic counter must survive the HTTP + store round trip
/// bit-identically; the time fields are wall measurements and may differ
/// between the service run and the direct run.
fn assert_counters_identical(
    got: &eraser_core::RedundancyStats,
    want: &eraser_core::RedundancyStats,
) {
    let mut got = got.clone();
    let mut want = want.clone();
    got.time_behavioral = Duration::ZERO;
    got.time_total = Duration::ZERO;
    want.time_behavioral = Duration::ZERO;
    want.time_total = Duration::ZERO;
    assert_eq!(got, want);
}

/// The tentpole acceptance test: health check, two designs end to end
/// with bit-identical results, spec validation, unknown-id handling, and
/// a repeat submission.
#[test]
fn http_campaigns_match_direct_library_calls() {
    let mut service = CampaignService::new(Box::new(MemStore::new()), 2, 16);
    let mut server = HttpServer::bind("127.0.0.1:0", service.handle()).unwrap();
    let addr = server.local_addr();

    let (status, body) = http(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert!(body.contains("ok"));

    // One campaign per path: serial with a checkpoint interval (which a
    // concurrent campaign ignores), and threaded batched on a netlist.
    let apb = CampaignSpec::benchmark("APB")
        .steps(40)
        .checkpoint_interval(8);
    let mac = CampaignSpec::fixture("mac16_gate")
        .seed(0x3a6)
        .steps(60)
        .threads(2)
        .batch(true);

    let apb_id = submit(addr, &apb);
    let mac_id = submit(addr, &mac);
    let apb_record = await_record(addr, &apb_id);
    let mac_record = await_record(addr, &mac_id);
    // Second submission of the identical spec: answered from the store, so
    // `done` already in the 202 body.
    let (repeat_id, status) = post(addr, &apb);
    assert_eq!(status, "done");
    let repeat = await_record(addr, &repeat_id);

    for (spec, record) in [(&apb, &apb_record), (&mac, &mac_record), (&apb, &repeat)] {
        let prep = prepare_spec(spec).unwrap();
        let direct = run_campaign(
            prep.source.design(),
            &prep.faults,
            &prep.stimulus,
            &spec.resolve(),
        );
        assert_eq!(
            record.coverage, direct.coverage,
            "{}: HTTP coverage must be bit-identical to the direct call",
            record.design_name
        );
        assert_counters_identical(&record.stats, &direct.stats);
        assert_eq!(record.num_faults, prep.faults.len());
        assert_eq!(record.steps, prep.stimulus.steps.len());
        assert_eq!(record.spec, *spec);
    }
    // A concurrent campaign records no good run, checkpoint interval or
    // not, and the repeat ran nothing.
    assert_eq!(apb_record.good_run_steps, 0);
    assert_eq!(apb_record.stats.good_run_steps, 0);
    assert_eq!(mac_record.good_run_steps, 0);
    assert_eq!(repeat.good_run_steps, 0);
    assert!(repeat.cache_hit && !apb_record.cache_hit && !mac_record.cache_hit);
    // Answering the repeat left the first record as it was.
    assert_eq!(await_record(addr, &apb_id), apb_record);

    // Spec validation speaks HTTP: unknown key → 400 naming it — the
    // removed `partition` key included.
    for (key, spec) in [
        ("sede", r#"{"design": {"benchmark": "APB"}, "sede": 1}"#),
        (
            "partition",
            r#"{"design": {"benchmark": "APB"}, "partition": "round-robin"}"#,
        ),
    ] {
        let (status, body) = http(addr, "POST", "/campaigns", spec);
        assert_eq!(status, 400);
        assert!(body.contains(&format!("unknown key `{key}`")), "{body}");
    }

    // So do the size limits: a spec no host should be asked to run is
    // refused at the door (its stimulus allocation would abort the
    // process, past any worker's `catch_unwind`), and the service lives on.
    for (key, spec) in [
        (
            "steps",
            r#"{"design": {"benchmark": "APB"}, "steps": 1000000000000}"#,
        ),
        (
            "threads",
            r#"{"design": {"benchmark": "APB"}, "threads": 100000}"#,
        ),
        (
            "checkpoint_interval",
            r#"{"design": {"benchmark": "APB"}, "steps": 100000, "checkpoint_interval": 1}"#,
        ),
    ] {
        let (status, body) = http(addr, "POST", "/campaigns", spec);
        assert_eq!(status, 400, "{body}");
        assert!(body.contains(&format!("key `{key}`")), "{body}");
        let (status, _) = http(addr, "GET", "/healthz", "");
        assert_eq!(status, 200);
    }

    // Unknown ids and unfinished results.
    let (status, _) = http(addr, "GET", "/campaigns/c999", "");
    assert_eq!(status, 404);
    let (status, _) = http(addr, "GET", "/campaigns/c999/result", "");
    assert_eq!(status, 404);
    let (status, body) = http(addr, "GET", "/campaigns", "");
    assert_eq!(status, 200);
    assert!(body.contains(&apb_id) && body.contains(&mac_id), "{body}");

    server.shutdown();
    service.shutdown();
}

/// Restarting a journal-backed service onto the same file must serve
/// every completed campaign's record, unchanged, over HTTP.
#[test]
fn journal_backed_service_survives_restart() {
    let path = std::env::temp_dir().join(format!("eraser-http-journal-{}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let spec = CampaignSpec::benchmark("ALU")
        .steps(20)
        .threads(1)
        .backend(eraser_core::EvalBackend::Tree)
        .checkpoint_interval(0)
        .batch(false)
        .collapse(false);

    let (id, first) = {
        let mut service = CampaignService::new(Box::new(JournalStore::open(&path).unwrap()), 1, 8);
        let mut server = HttpServer::bind("127.0.0.1:0", service.handle()).unwrap();
        let id = submit(server.local_addr(), &spec);
        let record = await_record(server.local_addr(), &id);
        server.shutdown();
        service.shutdown();
        (id, record)
    };

    // A fresh service process (new queue, empty job table) on the same
    // journal: the campaign is known, done, and byte-for-byte intact.
    let mut service = CampaignService::new(Box::new(JournalStore::open(&path).unwrap()), 1, 8);
    let mut server = HttpServer::bind("127.0.0.1:0", service.handle()).unwrap();
    let addr = server.local_addr();
    let (status, body) = http(addr, "GET", &format!("/campaigns/{id}"), "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("done"), "{body}");
    let (status, body) = http(addr, "GET", &format!("/campaigns/{id}/result"), "");
    assert_eq!(status, 200, "{body}");
    let recovered = CampaignRecord::from_json(&body).unwrap();
    assert_eq!(recovered, first);
    server.shutdown();
    service.shutdown();
    let _ = std::fs::remove_file(&path);
}

/// A design whose level-sensitive block re-triggers itself never settles
/// once its input drops. The campaign fails with the kernel's settle panic
/// in its status body, and the one worker survives to finish the next
/// campaign.
#[test]
fn unsettling_design_fails_its_campaign_and_keeps_the_worker() {
    let path = std::env::temp_dir().join(format!("eraser-self-loop-{}.v", std::process::id()));
    std::fs::write(
        &path,
        "module m(input wire a, output reg x);
           always @(*) if (a) x = 1'b0; else x = ~x;
         endmodule\n",
    )
    .unwrap();
    let mut service = CampaignService::new(Box::new(MemStore::new()), 1, 8);
    let mut server = HttpServer::bind("127.0.0.1:0", service.handle()).unwrap();
    let addr = server.local_addr();

    let id = submit(addr, &CampaignSpec::path(path.to_str().unwrap()).steps(4));
    let body = (0..6000)
        .find_map(|_| {
            let (status, body) = http(addr, "GET", &format!("/campaigns/{id}"), "");
            assert_eq!(status, 200, "{body}");
            let v = json::parse(&body).unwrap();
            match v.get("status").and_then(JsonValue::as_str) {
                Some("failed") => Some(body),
                Some("done") => panic!("campaign {id} settled: {body}"),
                _ => {
                    std::thread::sleep(Duration::from_millis(5));
                    None
                }
            }
        })
        .unwrap_or_else(|| panic!("campaign {id} did not finish"));
    assert!(body.contains("did not settle"), "{body}");

    let next = submit(addr, &CampaignSpec::fixture("counter8_gate").steps(20));
    await_record(addr, &next);
    server.shutdown();
    service.shutdown();
    let _ = std::fs::remove_file(&path);
}
