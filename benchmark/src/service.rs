//! The `service_mix` workload: an in-process `CampaignService` behind
//! `HttpServer`, driven closed-loop over real sockets by two client
//! connections, then restarted on the same journal.
//!
//! One *round* is one service lifetime: open the journal, start the
//! service, bind, serve a fixed request list, shut down, reopen, replay.
//! Rounds repeat until the time is up, so every round does the same work
//! and the caches of one round never warm the next.

use crate::calib::Calibrator;
use crate::digest::{coverage_digest, Verifier};
use crate::engine::{intake_probes, IntakeInput};
use crate::metrics::{median, percentile, Metrics};
use crate::trace::{self, Tracer};
use crate::workloads::{seeded, spec_text, Item, Rng, PATH_DESIGN, SERVICE_MIX};
use crate::{Outcome, RunOpts};
use eraser::baselines::IFsim;
use eraser::core::{run_campaign_with, CampaignContext, CampaignSpec, FaultSimEngine};
use eraser::netlist::json::{self, JsonValue};
use eraser::service::{
    prepare_spec, CampaignRecord, CampaignService, HttpServer, JournalStore, PreparedCampaign,
    ResultStore,
};
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const WORKERS: usize = 2;
const QUEUE: usize = 16;
const CLIENTS: usize = 2;
/// Requests per identity and round: the first is a first-time spec, the
/// rest repeat it, so 1/3 of the mix misses every cache and 2/3 hit.
const REQUESTS_PER_IDENTITY: usize = 3;
/// Every this-many-th request of a client is followed by `GET /campaigns`.
const LIST_EVERY: usize = 8;
const POLL: Duration = Duration::from_millis(2);
const CAMPAIGN_TIMEOUT: Duration = Duration::from_secs(60);
/// Service starts that `setup_s` is the median of.
const SETUP_STARTS: usize = 101;

/// One kind of campaign in the mix: benchmark, fixture and file designs,
/// checkpointing on and off (only checkpointed campaigns can hit the
/// good-run cache). Five kinds of equal weight, sized well apart in cost
/// (about 35, 55, 75, 105 and 150 ms), so that the median turnaround falls
/// inside the third kind's cluster and the 90th percentile inside the
/// fifth's, not in a gap between two clusters where it would jump.
struct Template {
    item: Item,
    /// Checkpoint interval 64, or the product default (off).
    checkpointed: bool,
}

const TEMPLATES: &[Template] = &[
    Template {
        item: seeded("path", PATH_DESIGN, "fifo_crc", 8000, 0),
        checkpointed: false,
    },
    Template {
        item: seeded("fixture", "counter8_gate", "counter8_ck", 1300, 0),
        checkpointed: true,
    },
    Template {
        item: seeded("benchmark", "ALU", "ALU", 1500, 0),
        checkpointed: false,
    },
    Template {
        item: seeded("fixture", "mac16_gate", "mac16", 3600, 0),
        checkpointed: false,
    },
    Template {
        item: seeded("benchmark", "Conv_acc", "Conv_acc_ck", 1000, 0),
        checkpointed: true,
    },
];

/// The spec one client submits for `t`; `stream` numbers the (seed,
/// client) pair, `extra` adds knobs for the set-up's own use.
fn template_text(t: &Template, stream: u64, quick: bool, extra: &[(&str, &str)]) -> String {
    let knobs: &[(&str, &str)] = if t.checkpointed {
        &[("checkpoint_interval", "64")]
    } else {
        &[]
    };
    spec_text(&t.item, knobs, extra, stream, quick)
}

/// What fixes the mix besides the seed, for the sizes fingerprint.
pub fn mix_fingerprint(quick: bool) -> String {
    let specs: Vec<String> = TEMPLATES
        .iter()
        .map(|t| template_text(t, 0, quick, &[]))
        .collect();
    format!(
        "{WORKERS}/{QUEUE}/{CLIENTS}/{REQUESTS_PER_IDENTITY}/{LIST_EVERY}{}",
        specs.concat()
    )
}

/// One (design, seed) the service caches under: a template as one client
/// submits it. Each client owns its identities, so a repeat is never in
/// flight beside its first-time request and the cache counts repeat
/// exactly.
struct Identity {
    label: String,
    text: String,
    prepared: PreparedCampaign,
    reference: u64,
    fault_steps: u64,
}

/// One blocking HTTP/1.1 exchange on its own connection (the server
/// closes after one response).
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).ok();
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("receive: {e}"))?;
    let status = response
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or("malformed status line")?;
    let body = response
        .split_once("\r\n\r\n")
        .map_or("", |(_, b)| b)
        .to_string();
    Ok((status, body))
}

fn json_field(body: &str, key: &str) -> Option<String> {
    json::parse(body)
        .ok()?
        .get(key)?
        .as_str()
        .map(str::to_owned)
}

/// What one client measured in one round.
#[derive(Default)]
struct ClientLog {
    attempted: u64,
    failed: u64,
    rejected: u64,
    turnarounds: Vec<f64>,
    post_s: Vec<f64>,
    status_s: Vec<f64>,
    result_s: Vec<f64>,
    list_s: Vec<f64>,
    queue_wait_s: Vec<f64>,
    run_s: Vec<f64>,
    records: Vec<CampaignRecord>,
    /// `(identity label, first-time request, turnaround)` per campaign.
    samples: Vec<(String, bool, f64)>,
}

impl ClientLog {
    fn absorb(&mut self, other: ClientLog) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.rejected += other.rejected;
        self.turnarounds.extend(other.turnarounds);
        self.post_s.extend(other.post_s);
        self.status_s.extend(other.status_s);
        self.result_s.extend(other.result_s);
        self.list_s.extend(other.list_s);
        self.queue_wait_s.extend(other.queue_wait_s);
        self.run_s.extend(other.run_s);
        self.records.extend(other.records);
        self.samples.extend(other.samples);
    }

    /// Converts every recorded time from raw to reference seconds.
    fn scale(&mut self, factor: f64) {
        let all = [
            &mut self.turnarounds,
            &mut self.post_s,
            &mut self.status_s,
            &mut self.result_s,
            &mut self.list_s,
            &mut self.queue_wait_s,
            &mut self.run_s,
        ];
        for times in all {
            times.iter_mut().for_each(|t| *t *= factor);
        }
        self.samples.iter_mut().for_each(|(_, _, t)| *t *= factor);
    }
}

/// One client connection's closed loop: POST, poll every 2 ms until done,
/// fetch the result, check its digest; the next request only then.
fn client_loop(
    addr: SocketAddr,
    requests: &[&Identity],
    tracer: Option<&Tracer>,
    tag: &str,
) -> ClientLog {
    let mut log = ClientLog::default();
    for (n, identity) in requests.iter().enumerate() {
        log.attempted += 1;
        let fail = |log: &mut ClientLog, why: String| {
            log.failed += 1;
            eprintln!("FAILED {tag}/{}#{n}: {why}", identity.label);
        };
        let t_post = Instant::now();
        let posted = http(addr, "POST", "/campaigns", &identity.text);
        let t_accepted = Instant::now();
        let id = match posted {
            Ok((202, body)) => match json_field(&body, "id") {
                Some(id) => id,
                None => {
                    fail(&mut log, format!("no id in `{body}`"));
                    continue;
                }
            },
            Ok((503, _)) => {
                log.rejected += 1;
                fail(&mut log, "rejected with 503".into());
                continue;
            }
            Ok((code, body)) => {
                fail(&mut log, format!("POST answered {code}: {body}"));
                continue;
            }
            Err(e) => {
                fail(&mut log, e);
                continue;
            }
        };
        let mut polls: Vec<(Instant, Instant)> = Vec::new();
        let mut t_running = None;
        let t_done = loop {
            let s0 = Instant::now();
            let polled = http(addr, "GET", &format!("/campaigns/{id}"), "");
            let s1 = Instant::now();
            polls.push((s0, s1));
            match polled
                .as_ref()
                .ok()
                .filter(|(c, _)| *c == 200)
                .and_then(|(_, b)| json_field(b, "status"))
                .as_deref()
            {
                Some("done") => break Some(s1),
                Some("running") => {
                    t_running.get_or_insert(s1);
                }
                Some("queued") => {}
                other => {
                    fail(&mut log, format!("status {other:?} ({polled:?})"));
                    break None;
                }
            }
            if s1.duration_since(t_post) > CAMPAIGN_TIMEOUT {
                fail(&mut log, "timed out".into());
                break None;
            }
            std::thread::sleep(POLL);
        };
        let Some(t_done) = t_done else { continue };
        let t_running = t_running.unwrap_or(t_done);
        let r0 = Instant::now();
        let fetched = http(addr, "GET", &format!("/campaigns/{id}/result"), "");
        let r1 = Instant::now();
        match fetched {
            Ok((200, body)) => match CampaignRecord::from_json(&body) {
                Ok(record) if coverage_digest(&record.coverage) == identity.reference => {
                    log.records.push(record);
                }
                Ok(record) => fail(
                    &mut log,
                    format!(
                        "digest {:016x}, reference {:016x}",
                        coverage_digest(&record.coverage),
                        identity.reference
                    ),
                ),
                Err(e) => fail(&mut log, format!("unreadable record: {e}")),
            },
            other => fail(&mut log, format!("result answered {other:?}")),
        }
        let seconds = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64();
        log.turnarounds.push(seconds(t_post, r1));
        let first_time = !requests[..n]
            .iter()
            .any(|earlier| std::ptr::eq(*earlier, *identity));
        log.samples
            .push((identity.label.clone(), first_time, seconds(t_post, r1)));
        log.post_s.push(seconds(t_post, t_accepted));
        log.queue_wait_s.push(seconds(t_accepted, t_running));
        log.run_s.push(seconds(t_running, t_done));
        log.result_s.push(seconds(r0, r1));
        log.status_s
            .extend(polls.iter().map(|&(a, b)| seconds(a, b)));
        if let Some(tr) = tracer {
            let campaign = format!("{tag}/{}#{n}", identity.label);
            let root = tr.record("turnaround", None, &campaign, t_post, r1);
            tr.record(
                "service.http.post",
                Some(root),
                &campaign,
                t_post,
                t_accepted,
            );
            let waiting = tr.record(
                "service.queue_wait",
                Some(root),
                &campaign,
                t_accepted,
                t_running,
            );
            let running = tr.record("service.run", Some(root), &campaign, t_running, t_done);
            for &(a, b) in &polls {
                let phase = if b <= t_running { waiting } else { running };
                tr.record("service.http.status", Some(phase), &campaign, a, b);
            }
            tr.record("service.http.result", Some(root), &campaign, r0, r1);
        }
        if (n + 1) % LIST_EVERY == 0 {
            let l0 = Instant::now();
            let listed = http(addr, "GET", "/campaigns", "");
            let l1 = Instant::now();
            if !matches!(listed, Ok((200, _))) {
                eprintln!("FAILED {tag}: list answered {listed:?}");
                log.failed += 1;
            }
            log.list_s.push(seconds(l0, l1));
            if let Some(tr) = tracer {
                tr.record("service.http.list", None, tag, l0, l1);
            }
        }
    }
    log
}

/// A running service: journal open, workers started, socket bound and
/// answering `/healthz`. Dropping it shuts the server, then the service.
struct Running {
    server: HttpServer,
    _service: CampaignService,
}

fn start_service(journal: &Path) -> Result<Running, String> {
    let t0 = Instant::now();
    let store = JournalStore::open(journal).map_err(|e| e.to_string())?;
    let service = CampaignService::new(Box::new(store), WORKERS, QUEUE);
    let server = HttpServer::bind("127.0.0.1:0", service.handle())?;
    loop {
        if matches!(
            http(server.local_addr(), "GET", "/healthz", ""),
            Ok((200, _))
        ) {
            break;
        }
        if t0.elapsed() > CAMPAIGN_TIMEOUT {
            return Err("service never answered /healthz".into());
        }
    }
    Ok(Running {
        server,
        _service: service,
    })
}

/// One service lifetime. Every time is in reference seconds: the closed
/// loop is bracketed by calibration samples and everything measured inside
/// it is scaled by the one factor (a sample cannot be taken inside the
/// loop without competing with the workers for the two cores).
struct Round {
    setup_s: f64,
    wall_s: f64,
    raw_wall_s: f64,
    replay_s: f64,
    replay_ok: bool,
    log: ClientLog,
}

/// Kernel samples a round's bracket is the median of.
const BRACKET: usize = 3;

fn run_round(
    journal: &Path,
    plans: &[Vec<&Identity>],
    tracer: Option<&Tracer>,
    round: usize,
    cal: &mut Calibrator,
    serial: &mut Calibrator,
) -> Result<Round, String> {
    let _ = std::fs::remove_file(journal);
    serial.sample();
    let (setup_s, started) = serial.time(|| start_service(journal));
    let running = started?;
    let addr = running.server.local_addr();
    let before = cal.settle(BRACKET);
    let t0 = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = plans
            .iter()
            .enumerate()
            .map(|(client, plan)| {
                let tag = format!("{SERVICE_MIX}/r{round}c{client}");
                scope.spawn(move || client_loop(addr, plan, tracer, &tag))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client loop panicked"))
            .collect()
    });
    let raw_wall_s = t0.elapsed().as_secs_f64();
    let factor = Calibrator::factor(before, cal.settle(BRACKET));
    drop(running);
    let mut log = ClientLog::default();
    for l in logs {
        log.absorb(l);
    }
    log.scale(factor);

    // Restart on the same journal and serve every stored result again.
    let mut replay_ok = true;
    serial.sample();
    let (replay_s, replayed) = serial.time(|| -> Result<(), String> {
        let running = start_service(journal)?;
        let addr = running.server.local_addr();
        for record in &log.records {
            let again = http(addr, "GET", &format!("/campaigns/{}/result", record.id), "")
                .ok()
                .filter(|(code, _)| *code == 200)
                .and_then(|(_, body)| CampaignRecord::from_json(&body).ok());
            if again.as_ref() != Some(record) {
                eprintln!(
                    "FAILED replay of {}: stored record differs or is missing",
                    record.id
                );
                replay_ok = false;
            }
        }
        Ok(())
    });
    replayed?;
    Ok(Round {
        setup_s,
        wall_s: raw_wall_s * factor,
        raw_wall_s,
        replay_s,
        replay_ok,
        log,
    })
}

pub fn run(opts: &RunOpts) -> Result<Outcome, String> {
    let sizes = crate::workloads::sizes_fingerprint(opts.quick);
    let scratch: PathBuf = crate::host::out_dir().join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&scratch)
        .map_err(|e| format!("cannot create `{}`: {e}", scratch.display()))?;

    // Identities and their references, through the product's library path
    // on the full universe — what the service itself will run.
    let mut verifier = Verifier::new(opts.seed, &sizes, opts.verify);
    let mut identities: Vec<Vec<Identity>> = Vec::new();
    for client in 0..CLIENTS {
        let mut owned = Vec::new();
        for t in TEMPLATES {
            let stream = opts.seed * CLIENTS as u64 + client as u64;
            let text = template_text(t, stream, opts.quick, &[]);
            let spec = CampaignSpec::from_json(&text).map_err(|e| e.to_string())?;
            let prepared = prepare_spec(&spec)?;
            let own = run_campaign_with(
                prepared.source.design(),
                &prepared.faults,
                &prepared.stimulus,
                &spec.resolve(),
                &CampaignContext::default(),
            );
            let key = format!("{SERVICE_MIX}/{}/c{client}", t.item.label);
            let reference = verifier.reference(key, &own.coverage, || {
                let serial = template_text(t, stream, opts.quick, &[("threads", "1")]);
                let serial = CampaignSpec::from_json(&serial).map_err(|e| e.to_string())?;
                let design = prepared.source.design();
                Ok(IFsim
                    .run(
                        design,
                        &prepared.faults,
                        &prepared.stimulus,
                        &serial.resolve(),
                    )
                    .coverage)
            })?;
            owned.push(Identity {
                label: t.item.label.to_string(),
                fault_steps: (prepared.faults.len() * prepared.stimulus.steps.len()) as u64,
                text,
                prepared,
                reference,
            });
        }
        identities.push(owned);
    }

    // Each client's request order: every identity REQUESTS_PER_IDENTITY
    // times, shuffled by the seed. The first occurrence is the miss.
    let plans: Vec<Vec<&Identity>> = identities
        .iter()
        .enumerate()
        .map(|(client, owned)| {
            let mut plan: Vec<&Identity> = owned
                .iter()
                .flat_map(|i| std::iter::repeat_n(i, REQUESTS_PER_IDENTITY))
                .collect();
            Rng::new(opts.seed, &format!("{SERVICE_MIX}/c{client}")).shuffle(&mut plan);
            plan
        })
        .collect();

    // Set-up: service starts on an empty journal.
    let journal = scratch.join("campaigns.journal");
    let mut cal = Calibrator::new(WORKERS);
    // Service starts and the direct layer probes run on one thread.
    let mut serial = Calibrator::new(1);
    let mut setup_walls = Vec::new();
    for _ in 0..if opts.quick { 5 } else { SETUP_STARTS } {
        let _ = std::fs::remove_file(&journal);
        let (setup_s, running) = serial.time(|| start_service(&journal));
        drop(running?);
        setup_walls.push(setup_s);
    }

    let tracer = Tracer::new();
    let t0 = Instant::now();
    let budget = if opts.trace {
        opts.seconds * 0.8
    } else {
        opts.seconds
    };
    let mut rounds: Vec<Round> = Vec::new();
    let mut traced_walls = Vec::new();
    while rounds.len() < 2 || t0.elapsed().as_secs_f64() < budget {
        rounds.push(run_round(
            &journal,
            &plans,
            None,
            rounds.len(),
            &mut cal,
            &mut serial,
        )?);
        if opts.trace {
            traced_walls.push(
                run_round(
                    &journal,
                    &plans,
                    Some(&tracer),
                    rounds.len(),
                    &mut cal,
                    &mut serial,
                )?
                .wall_s,
            );
        }
    }

    let mut total = ClientLog::default();
    let round_walls: Vec<f64> = rounds.iter().map(|r| r.wall_s).collect();
    let raw_round_walls: Vec<f64> = rounds.iter().map(|r| r.raw_wall_s).collect();
    let replay_walls: Vec<f64> = rounds.iter().map(|r| r.replay_s).collect();
    setup_walls.extend(rounds.iter().map(|r| r.setup_s));
    let replays_ok = rounds.iter().all(|r| r.replay_ok);
    let campaigns_per_round = (CLIENTS * TEMPLATES.len() * REQUESTS_PER_IDENTITY) as f64;
    let fault_steps_per_round: u64 = identities
        .iter()
        .flatten()
        .map(|i| i.fault_steps)
        .sum::<u64>()
        * REQUESTS_PER_IDENTITY as u64;
    let round_count = rounds.len();
    for r in rounds {
        total.absorb(r.log);
    }
    let wall = median(&round_walls);

    let mut m = Metrics::default();
    let mut details = vec![
        ("workload".to_string(), JsonValue::str(SERVICE_MIX)),
        ("seed".to_string(), JsonValue::num(opts.seed)),
        ("sizes".to_string(), JsonValue::str(sizes)),
        ("rounds".to_string(), JsonValue::num(round_count as u64)),
        (
            "raw_campaign_wall_s".to_string(),
            JsonValue::Num(median(&raw_round_walls)),
        ),
        (
            "campaigns_per_round".to_string(),
            JsonValue::Num(campaigns_per_round),
        ),
        (
            "turnaround_samples".to_string(),
            JsonValue::num(total.turnarounds.len() as u64),
        ),
        (
            "setup_starts".to_string(),
            JsonValue::num(setup_walls.len() as u64),
        ),
        ("workers".to_string(), JsonValue::num(WORKERS as u64)),
        ("clients".to_string(), JsonValue::num(CLIENTS as u64)),
        (
            "campaigns".to_string(),
            JsonValue::Arr(
                identities
                    .iter()
                    .flatten()
                    .map(|i| {
                        let resolved = CampaignSpec::from_json(&i.text)
                            .expect("parsed above")
                            .resolve();
                        JsonValue::Obj(vec![
                            ("label".into(), JsonValue::str(i.label.clone())),
                            ("spec".into(), JsonValue::str(i.text.clone())),
                            ("resolved".into(), JsonValue::str(format!("{resolved:?}"))),
                            (
                                "digest".into(),
                                JsonValue::str(format!("{:016x}", i.reference)),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ];

    if total.turnarounds.is_empty() {
        return Err("no campaign completed".into());
    }
    let by_label = |first_time: bool| {
        JsonValue::Obj(
            TEMPLATES
                .iter()
                .map(|t| {
                    let walls: Vec<f64> = total
                        .samples
                        .iter()
                        .filter(|(label, first, _)| label == t.item.label && *first == first_time)
                        .map(|(_, _, s)| *s)
                        .collect();
                    (
                        t.item.label.to_string(),
                        JsonValue::Num(if walls.is_empty() {
                            0.0
                        } else {
                            median(&walls)
                        }),
                    )
                })
                .collect(),
        )
    };
    details.push(("first_time_turnaround_s".into(), by_label(true)));
    details.push(("repeat_turnaround_s".into(), by_label(false)));
    if !opts.trace {
        m.set("setup_s", median(&setup_walls));
        m.set("campaign_wall_s", wall);
        m.set("fault_steps_per_s", fault_steps_per_round as f64 / wall);
        m.set("campaigns_per_s", campaigns_per_round / wall);
        m.set("turnaround_p50_s", median(&total.turnarounds));
        m.set("turnaround_p90_s", percentile(&total.turnarounds, 0.9));
        m.set("peak_rss_mb", crate::host::peak_rss_mb());
    } else {
        m.set("trace_overhead", median(&traced_walls) / wall);
        m.set("service.restart_replay_s", median(&replay_walls));
        m.set("service.http.post_s", median(&total.post_s));
        m.set("service.http.status_s", median(&total.status_s));
        m.set("service.http.result_s", median(&total.result_s));
        m.set("service.http.list_s", median(&total.list_s));
        m.set("service.queue_wait_s", median(&total.queue_wait_s));
        m.set("service.run_s", median(&total.run_s));
        let hits = total.records.iter().filter(|r| r.cache_hit).count();
        m.set(
            "service.cache_hit_ratio",
            hits as f64 / total.records.len() as f64,
        );
        let saved: usize = total
            .records
            .iter()
            .filter(|r| r.cache_hit)
            .map(|r| r.steps)
            .sum();
        m.set(
            "service.good_run_steps_saved",
            saved as f64 / round_count as f64,
        );
        m.set("service.rejected_503", total.rejected as f64);
        m.set("service.failed", total.failed as f64);
        let texts: Vec<&str> = identities
            .iter()
            .flatten()
            .map(|i| i.text.as_str())
            .collect();
        let last_round = &total.records
            [total.records.len() - (campaigns_per_round as usize).min(total.records.len())..];
        codec_probes(&texts, last_round, &mut serial, &mut m);
        store_probes(
            &scratch.join("probe.journal"),
            last_round,
            &mut serial,
            &mut m,
        )?;
        let inputs: Vec<IntakeInput> = TEMPLATES
            .iter()
            .zip(&identities[0])
            .map(|(t, i)| IntakeInput {
                kind: t.item.kind,
                design: t.item.design,
                prepared: &i.prepared,
            })
            .collect();
        intake_probes(&inputs, &mut serial, &mut m);
        crate::engine::logic_probes(&mut serial, &mut m);

        let path = crate::host::out_dir().join(format!("trace-{SERVICE_MIX}.json"));
        std::fs::write(&path, json::to_string(&trace::to_json(&tracer.spans())))
            .map_err(|e| format!("cannot write `{}`: {e}", path.display()))?;
    }
    let _ = std::fs::remove_dir_all(&scratch);
    details.push(("host_slowdown".into(), JsonValue::Num(cal.host_slowdown())));

    Ok(Outcome {
        correct: verifier.correct && replays_ok && total.failed == 0,
        attempted: total.attempted,
        failed: total.failed,
        metrics: m,
        details: JsonValue::Obj(details),
        references: verifier.references,
    })
}

const CODEC_REPS: usize = 21;

/// Median over `CODEC_REPS` of `work`'s wall in reference seconds, per item.
fn per_item(cal: &mut Calibrator, count: usize, mut work: impl FnMut()) -> f64 {
    cal.sample();
    let walls: Vec<f64> = (0..CODEC_REPS)
        .map(|_| cal.time(&mut work).0 / count as f64)
        .collect();
    median(&walls)
}

/// Spec parsing and record (de)serialisation, called directly: seconds
/// per spec and per record.
fn codec_probes(texts: &[&str], records: &[CampaignRecord], cal: &mut Calibrator, m: &mut Metrics) {
    let parse_s = per_item(cal, texts.len(), || {
        texts
            .iter()
            .for_each(|t| drop(black_box(CampaignSpec::from_json(t))))
    });
    m.set("core.spec.parse_s", parse_s);
    let encoded: Vec<String> = records.iter().map(CampaignRecord::to_json).collect();
    let encode_s = per_item(cal, records.len(), || {
        records.iter().for_each(|r| drop(black_box(r.to_json())))
    });
    m.set("service.record.encode_s", encode_s);
    let decode_s = per_item(cal, encoded.len(), || {
        encoded
            .iter()
            .for_each(|t| drop(black_box(CampaignRecord::from_json(t))))
    });
    m.set("service.record.decode_s", decode_s);
}

/// Direct `JournalStore` calls on one round's recorded records: seconds
/// per put and per get, the reopen (replay) time and the file size.
fn store_probes(
    journal: &Path,
    records: &[CampaignRecord],
    cal: &mut Calibrator,
    m: &mut Metrics,
) -> Result<(), String> {
    let err = |e: eraser::service::StoreError| e.to_string();
    let (mut put_s, mut get_s, mut open_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut bytes = 0;
    cal.sample();
    for _ in 0..5 {
        let _ = std::fs::remove_file(journal);
        let mut store = JournalStore::open(journal).map_err(err)?;
        let (wall, put) = cal.time(|| records.iter().try_for_each(|r| store.put(r)));
        put.map_err(err)?;
        put_s.push(wall / records.len() as f64);
        let (wall, ()) = cal.time(|| {
            records
                .iter()
                .for_each(|r| drop(black_box(store.get(&r.id))))
        });
        get_s.push(wall / records.len() as f64);
        drop(store);
        bytes = std::fs::metadata(journal).map_err(|e| e.to_string())?.len();
        let (wall, reopened) = cal.time(|| JournalStore::open(journal));
        open_s.push(wall);
        if reopened.map_err(err)?.ids().len() != records.len() {
            return Err("journal replay lost records".into());
        }
    }
    m.set("service.store.put_s", median(&put_s));
    m.set("service.store.get_s", median(&get_s));
    m.set("service.store.journal_open_s", median(&open_s));
    m.set("service.store.journal_bytes", bytes as f64);
    Ok(())
}
