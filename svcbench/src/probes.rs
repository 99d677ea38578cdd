//! Layer probes: the public calls each layer is made of, timed in process
//! on the workload's product line and seed.

use crate::measure::{median, percentile};
use pufatt::protocol::{provision, puf_limited_clock};
use pufatt::{enroll::enroll_with_design, AttestationRequest, Channel};
use pufatt_alupuf::device::AluPufDesign;
use pufatt_fleet::{open_state_dir, CampaignConfig, DeviceRecord, FleetService, ServiceVerdict, SessionGate};
use pufatt_store::{OutcomeRec, Record, StoredStatus};
use pufatt_transport::{decode_frame, encode_frame, Client, Endpoint, Request, Response, Server, ServerConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Devices provisioned step by step in the core probe.
const CORE_DEVICES: u32 = 32;
/// Sessions per device in the core, fleet and transport probes.
const PROBE_SESSIONS: u32 = 8;
/// Devices in the fleet and restore probes.
const FLEET_DEVICES: u32 = 128;
/// Devices in the transport round-trip probe.
const RTT_DEVICES: u32 = 64;
/// Records per shape in the store probe.
const STORE_RECORDS: u32 = 128;
/// Unsynced appends between the store probe's flushes.
const FLUSH_BATCH: u32 = 64;
/// Passes over the message mix in the codec probe.
const CODEC_PASSES: u32 = 50_000;

/// Named per-layer results.
pub type Metrics = BTreeMap<&'static str, f64>;

fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// SplitMix64, as the fleet derives per-device seeds.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs every probe. `reference` is the in-process campaign's records
/// for `cfg`, indexed by device id. Counts of wrong answers land in
/// `probe.failures`.
///
/// # Errors
///
/// A probe that cannot run at all (bind, store or provisioning error).
pub fn run_all(cfg: &CampaignConfig, reference: &[DeviceRecord], dir: &Path) -> Result<Metrics, String> {
    let mut m = Metrics::new();
    m.insert("probe.failures", 0.0);
    core(cfg, reference, &mut m)?;
    fleet(cfg, &mut m)?;
    transport(cfg, dir, &mut m)?;
    codec(&mut m);
    store(dir, &mut m)?;
    restore(cfg, dir, &mut m)?;
    Ok(m)
}

fn failure(m: &mut Metrics) {
    *m.entry("probe.failures").or_default() += 1.0;
}

/// The steps `provision_device` is built from, then one prover attest and
/// one verifier check per session on the provisioned pairs.
///
/// The seeds and arguments mirror the fleet's private recipe in
/// `provision_device` and `run_one_session` (`crates/fleet/src/campaign.rs`).
/// So that the probe cannot silently time an outdated copy, every
/// untampered device's verdicts must equal the reference campaign's
/// outcomes for that device, bit for bit; a mismatch is a probe failure.
fn core(cfg: &CampaignConfig, reference: &[DeviceRecord], m: &mut Metrics) -> Result<(), String> {
    let design = Arc::new(AluPufDesign::new(cfg.puf.clone()));
    let (mut enroll, mut clock, mut prov, mut attest, mut verify) = (vec![], vec![], vec![], vec![], vec![]);
    let mut compared = 0u32;
    for id in 0..CORE_DEVICES {
        let seed = splitmix64(cfg.seed ^ splitmix64(u64::from(id)));
        let t = Instant::now();
        let enrolled = enroll_with_design(&design, seed).map_err(|e| format!("enroll_with_design: {e}"))?;
        enroll.push(us_since(t));
        let t = Instant::now();
        let clk = puf_limited_clock(&enrolled, 1.10, 16, splitmix64(seed ^ 1));
        clock.push(us_since(t));
        let t = Instant::now();
        let (mut prover, verifier, _) =
            provision(&enrolled, cfg.params, clk, Channel::sensor_link(), splitmix64(seed ^ 2), 1.10)
                .map_err(|e| format!("provision: {e}"))?;
        prov.push(us_since(t));
        let mut rng = ChaCha8Rng::seed_from_u64(splitmix64(seed ^ 3));
        // Tampered devices run a malicious prover in the fleet, so only the
        // untampered ones have a reference history this prover must match.
        let history = reference
            .get(id as usize)
            .filter(|r| !r.tampered)
            .map(|r| r.outcomes.as_slice());
        for session in 0..PROBE_SESSIONS as usize {
            let request = AttestationRequest::random(&mut rng);
            verifier.begin_session();
            let t = Instant::now();
            let report = prover.attest(request).map_err(|e| format!("prover attest: {e}"))?;
            attest.push(us_since(t));
            let compute_s = prover.clock().duration_ns(report.cycles) * 1e-9;
            let t = Instant::now();
            let verdict = black_box(verifier.verify(request, &report, compute_s));
            verify.push(us_since(t));
            let matches = match history.and_then(|h| h.get(session)) {
                Some(e) => {
                    compared += 1;
                    (e.accepted, e.response_ok, e.time_ok, e.attempts, e.elapsed_s.to_bits())
                        == (verdict.accepted, verdict.response_ok, verdict.time_ok, 1, verdict.elapsed_s.to_bits())
                }
                None => true,
            };
            if !verdict.accepted || !matches {
                failure(m);
            }
        }
    }
    if compared == 0 {
        failure(m);
    }
    m.insert("core.enroll_with_design_us", median(&mut enroll));
    m.insert("core.puf_limited_clock_us", median(&mut clock));
    m.insert("core.provision_us", median(&mut prov));
    m.insert("core.prover_attest_us", median(&mut attest));
    m.insert("core.verifier_verify_us", median(&mut verify));
    Ok(())
}

/// `FleetService::enroll`, then `open_session` + `attest`, in process.
fn fleet(cfg: &CampaignConfig, m: &mut Metrics) -> Result<(), String> {
    let service = FleetService::new(cfg.clone()).map_err(|e| format!("fleet probe: {e}"))?;
    let mut enroll = Vec::new();
    for id in 0..FLEET_DEVICES {
        let t = Instant::now();
        if service.enroll(id).is_err() {
            failure(m);
        }
        enroll.push(us_since(t));
    }
    let mut attest = Vec::new();
    for _ in 0..PROBE_SESSIONS {
        for id in 0..FLEET_DEVICES {
            let t = Instant::now();
            match service.open_session(id) {
                SessionGate::Granted { .. } => match service.attest(id) {
                    ServiceVerdict::Closed { .. } => attest.push(us_since(t)),
                    _ => failure(m),
                },
                SessionGate::Refused => {}
                _ => failure(m),
            }
        }
    }
    let snap = service.snapshot();
    m.insert("fleet.enroll_p50_us", percentile(&mut enroll, 0.50));
    m.insert("fleet.enroll_p99_us", percentile(&mut enroll, 0.99));
    m.insert("fleet.attest_p50_us", percentile(&mut attest, 0.50));
    m.insert("fleet.attest_p99_us", percentile(&mut attest, 0.99));
    m.insert("fleet.crp_hit_ratio", snap.crp_hits as f64 / (snap.crp_hits + snap.crp_misses).max(1) as f64);
    Ok(())
}

/// One client, one request at a time: the round trip of the inline path
/// (`ChallengeRequest`) and of the dispatch-pool path (`Attest`).
fn transport(cfg: &CampaignConfig, dir: &Path, m: &mut Metrics) -> Result<(), String> {
    let endpoint = Endpoint::Uds(dir.join("probe.sock"));
    let server = Server::start(&endpoint, cfg.clone(), ServerConfig::default()).map_err(|e| e.to_string())?;
    let mut client = Client::connect(server.endpoint(), 30_000, 30_000).map_err(|e| e.to_string())?;
    let (mut inline, mut dispatch) = (Vec::new(), Vec::new());
    for id in 0..RTT_DEVICES {
        match client.call(&Request::Enroll { device: id }) {
            Ok(Response::EnrollOk { .. }) => {}
            _ => failure(m),
        }
    }
    for _ in 0..PROBE_SESSIONS {
        for id in 0..RTT_DEVICES {
            let t = Instant::now();
            let reply = client
                .call(&Request::ChallengeRequest { device: id })
                .map_err(|e| e.to_string())?;
            let ticket = match reply {
                Response::Challenge { ticket, .. } => ticket,
                Response::Error { .. } => continue, // a revoked device is refused
                _ => {
                    failure(m);
                    continue;
                }
            };
            inline.push(us_since(t));
            let t = Instant::now();
            match client
                .call(&Request::Attest { device: id, ticket })
                .map_err(|e| e.to_string())?
            {
                Response::Verdict { .. } => dispatch.push(us_since(t)),
                _ => failure(m),
            }
        }
    }
    drop(client);
    let report = server.finish();
    if report.panicked_jobs != 0 {
        failure(m);
    }
    let _ = std::fs::remove_file(dir.join("probe.sock"));
    m.insert("transport.rtt_inline_p50_us", percentile(&mut inline, 0.50));
    m.insert("transport.rtt_dispatch_p50_us", percentile(&mut dispatch, 0.50));
    m.insert("transport.rtt_dispatch_p99_us", percentile(&mut dispatch, 0.99));
    Ok(())
}

/// Encode + frame + unframe + decode of one session's four messages.
fn codec(m: &mut Metrics) {
    let requests = [
        Request::ChallengeRequest { device: 7 },
        Request::Attest { device: 7, ticket: 1 << 40 },
    ];
    let responses = [
        Response::Challenge { device: 7, ticket: 1 << 40 },
        Response::Verdict {
            device: 7,
            accepted: true,
            response_ok: true,
            time_ok: true,
            timed_out: false,
            attempts: 1,
            elapsed_bits: 0.003f64.to_bits(),
            status: pufatt_transport::WireStatus::Active,
        },
    ];
    let (mut payload, mut frame) = (Vec::new(), Vec::new());
    let mut decoded = 0u64;
    let t = Instant::now();
    for pass in 0..CODEC_PASSES {
        for r in &requests {
            payload.clear();
            frame.clear();
            black_box(r).encode(pass, &mut payload);
            encode_frame(&payload, &mut frame);
            if let Ok((body, _)) = decode_frame(black_box(&frame)) {
                decoded += u64::from(Request::decode(body).is_ok());
            }
        }
        for r in &responses {
            payload.clear();
            frame.clear();
            black_box(r).encode(pass, &mut payload);
            encode_frame(&payload, &mut frame);
            if let Ok((body, _)) = decode_frame(black_box(&frame)) {
                decoded += u64::from(Response::decode(body).is_ok());
            }
        }
    }
    let msgs = u64::from(CODEC_PASSES) * 4;
    if decoded != msgs {
        failure(m);
    }
    m.insert("transport.codec_ns_per_msg", t.elapsed().as_secs_f64() * 1e9 / msgs as f64);
}

fn session_record(id: u32, events: u32) -> [Record; 2] {
    let outcome = OutcomeRec {
        accepted: true,
        response_ok: true,
        time_ok: true,
        timed_out: false,
        attempts: 1,
        elapsed_bits: 0.003f64.to_bits(),
        retried: 0,
        dropped: 0,
        lost: false,
        latency_slot: 3,
        crp_hits: 0,
        crp_misses: 8,
    };
    [
        Record::SessionClosed {
            id,
            outcome,
            status: StoredStatus::Active,
            fails: 0,
            succs: events,
        },
        Record::DeviceCursor {
            id,
            events_done: events,
            session_pos: u64::from(events) * 64,
            noise_pos: u64::from(events) * 512,
            noise_evals: u64::from(events) * 32,
            tamper_parity: false,
        },
    ]
}

/// `ShardedStore::append_synced` of enrollment records, then unsynced
/// `append` of session records with a `flush` every [`FLUSH_BATCH`].
fn store(dir: &Path, m: &mut Metrics) -> Result<(), String> {
    let path = dir.join("probe-store");
    let _ = std::fs::remove_dir_all(&path);
    let store = open_state_dir(&path, 64).map_err(|e| format!("store probe: {e}"))?;
    let mut synced = Vec::new();
    for id in 0..STORE_RECORDS {
        let t = Instant::now();
        if store.append_synced(&Record::DeviceEnrolled { id }).is_err() {
            failure(m);
        }
        synced.push(us_since(t));
    }
    let (mut append, mut flush) = (Vec::new(), Vec::new());
    let mut pending = 0;
    for events in 1..=PROBE_SESSIONS {
        for id in 0..STORE_RECORDS {
            for record in session_record(id, events) {
                let t = Instant::now();
                if store.append(&record).is_err() {
                    failure(m);
                }
                append.push(us_since(t));
                pending += 1;
            }
            if pending >= FLUSH_BATCH {
                pending = 0;
                let t = Instant::now();
                if store.flush().is_err() {
                    failure(m);
                }
                flush.push(us_since(t));
            }
        }
    }
    drop(store);
    let _ = std::fs::remove_dir_all(&path);
    m.insert("store.append_synced_p50_us", percentile(&mut synced, 0.50));
    m.insert("store.append_synced_p99_us", percentile(&mut synced, 0.99));
    m.insert("store.append_us", median(&mut append));
    m.insert("store.flush_us", median(&mut flush));
    Ok(())
}

/// A journaled service in process: WAL bytes per session, then the
/// restart split into store recovery and fleet restore.
fn restore(cfg: &CampaignConfig, dir: &Path, m: &mut Metrics) -> Result<(), String> {
    let path = dir.join("probe-restore");
    let _ = std::fs::remove_dir_all(&path);
    let open = || open_state_dir(&path, cfg.history_capacity).map_err(|e| format!("restore probe: {e}"));
    let service = FleetService::with_journal(cfg.clone(), open()?).map_err(|e| format!("restore probe: {e}"))?;
    for id in 0..FLEET_DEVICES {
        if service.enroll(id).is_err() {
            failure(m);
        }
    }
    let wal0 = service.store_stats().map_or(0, |s| s.wal_bytes);
    let mut sessions = 0u64;
    for _ in 0..PROBE_SESSIONS {
        for id in 0..FLEET_DEVICES {
            if let SessionGate::Granted { .. } = service.open_session(id) {
                service.attest(id);
                sessions += 1;
            }
        }
    }
    let wal1 = service.store_stats().map_or(0, |s| s.wal_bytes);
    let records = service.device_records();
    if service.checkpoint().is_err() {
        failure(m);
    }
    drop(service);
    let t = Instant::now();
    let store = open()?;
    let recover_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let service = FleetService::with_journal(cfg.clone(), store).map_err(|e| format!("restore probe: {e}"))?;
    let restore_s = t.elapsed().as_secs_f64();
    if service.device_records() != records {
        failure(m);
    }
    drop(service);
    let _ = std::fs::remove_dir_all(&path);
    m.insert("store.wal_bytes_per_session", wal1.saturating_sub(wal0) as f64 / sessions.max(1) as f64);
    m.insert("store.recover_s", recover_s);
    m.insert("fleet.restore_s", restore_s);
    Ok(())
}
