//! End-to-end server tests: the wire must not change a single verdict.
//!
//! The headline assertion (ISSUE 6 acceptance): a seeded load-generator
//! campaign over a real unix-domain socket produces device records and a
//! fleet snapshot **bit-identical** to `run_campaign` executing the same
//! configuration entirely in process.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use pufatt_fleet::campaign::{run_campaign, small_test_config, CampaignConfig};
use pufatt_transport::client::Client;
use pufatt_transport::error::{ErrorCode, TransportError};
use pufatt_transport::loadgen::{run_loadgen, LoadgenConfig, LoadgenReport};
use pufatt_transport::message::{Request, Response, PROTOCOL_MAGIC, PROTOCOL_VERSION};
use pufatt_transport::server::{Server, ServerConfig, TransportStats};
use pufatt_transport::Endpoint;
use std::time::{Duration, Instant};

fn uds_endpoint(tag: &str) -> Endpoint {
    let dir = std::env::temp_dir().join(format!("pufatt-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    Endpoint::Uds(dir.join(format!("{tag}.sock")))
}

fn identity_server_config() -> ServerConfig {
    ServerConfig {
        rate_limit_per_s: 0.0, // backpressure off: identity runs must not shed
        queue_depth: 256,
        ..ServerConfig::default()
    }
}

fn assert_served_matches_in_process(
    endpoint: &Endpoint,
    devices: usize,
    seed: u64,
    server_cfg: ServerConfig,
    window: usize,
) -> (LoadgenReport, TransportStats) {
    let cfg = small_test_config(devices, 3, seed);
    let in_process = run_campaign(&cfg).expect("in-process campaign runs");

    let server = Server::start(endpoint, cfg.clone(), server_cfg).expect("server starts");
    let report = run_loadgen(&LoadgenConfig {
        endpoint: server.endpoint().clone(),
        devices: devices as u32,
        sessions_per_device: cfg.sessions_per_device as u32,
        connections: 3,
        window,
        ..LoadgenConfig::default()
    })
    .expect("loadgen runs");
    let served = server.finish();

    assert_eq!(report.devices_errored, 0, "no device may be stranded: {report:?}");
    assert_eq!(report.devices_completed, devices as u64);
    assert_eq!(served.panicked_jobs, 0);
    assert_eq!(served.transport.sessions_aborted, 0, "clean campaign aborts nothing");
    assert_eq!(
        served.device_records, in_process.device_records,
        "wire verdicts must be bit-identical to in-process"
    );
    assert_eq!(served.snapshot, in_process.snapshot, "fleet counters must match exactly");
    // The client-side tallies agree with the server's books.
    assert_eq!(
        report.sessions_completed + report.sessions_refused,
        served.snapshot.sessions_started + served.snapshot.sessions_refused
    );
    assert_eq!(report.sessions_accepted, served.snapshot.sessions_accepted);
    (report, served.transport)
}

#[cfg(unix)]
#[test]
fn uds_loadgen_campaign_is_bit_identical_to_in_process() {
    assert_served_matches_in_process(&uds_endpoint("identity"), 24, 0xC0FFEE, identity_server_config(), 8);
}

#[test]
fn tcp_loadgen_campaign_is_bit_identical_to_in_process() {
    assert_served_matches_in_process(&Endpoint::Tcp("127.0.0.1:0".into()), 12, 0xBEEF, identity_server_config(), 8);
}

/// A window far beyond the credit is clamped to it: three connections
/// with credit 4 each never meet a full queue or a `Busy`, and the
/// campaign stays bit-identical.
#[cfg(unix)]
#[test]
fn loadgen_window_beyond_credit_never_sees_busy() {
    let server_cfg = ServerConfig { queue_depth: 4, ..identity_server_config() };
    let (report, transport) = assert_served_matches_in_process(&uds_endpoint("credit"), 48, 0xC4ED, server_cfg, 32);
    assert_eq!(report.busy_retries, 0, "a conforming load generator is never answered Busy");
    assert_eq!(transport.busy_queue, 0, "pool queues hold every connection's full credit");
    assert_eq!(transport.over_credit, 0, "the load generator keeps within its credit");
}

/// The rate limiter's `Busy` is a pacing signal: the load generator parks
/// the request, keeps its other devices going, and the verdicts stay
/// bit-identical.
#[test]
fn loadgen_against_a_rate_limited_server_is_bit_identical() {
    let server_cfg = ServerConfig {
        rate_limit_per_s: 400.0,
        rate_burst: 4,
        busy_retry_ms: 2,
        ..identity_server_config()
    };
    let (report, transport) =
        assert_served_matches_in_process(&Endpoint::Tcp("127.0.0.1:0".into()), 12, 0x5A7E, server_cfg, 8);
    assert!(report.busy_retries > 0, "a burst of 4 must shed a window of 8: {report:?}");
    assert_eq!(report.busy_retries, transport.busy_rate, "every Busy came from the rate limiter");
    assert_eq!(transport.busy_queue, 0);
}

/// A request beyond the connection's credit is refused with a typed
/// `over-credit`; the refused `Attest` keeps its ticket open, resending it
/// once a reply has arrived succeeds, and the connection stays usable.
#[cfg(unix)]
#[test]
fn over_credit_requests_are_refused_typed_and_keep_the_ticket_open() {
    // No tampered devices: device 0 attests again and again without
    // being revoked.
    let cfg = CampaignConfig { tamper_fraction: 0.0, ..small_test_config(12, 1, 19) };
    let server_cfg = ServerConfig {
        queue_depth: 1,
        dispatch_shards: 1,
        ..identity_server_config()
    };
    let server = Server::start(&uds_endpoint("over-credit"), cfg, server_cfg).expect("server starts");
    let mut client = Client::connect(server.endpoint(), 10_000, 10_000).expect("client connects");
    assert_eq!(client.credit(), 1, "HelloAck grants queue_depth as the credit");
    assert!(matches!(client.call(&Request::Enroll { device: 0 }).unwrap(), Response::EnrollOk { device: 0, .. }));

    // A fresh device's enrollment (provisioning: milliseconds) holds the
    // one credit while the Attest right behind it arrives. Should the
    // enrollment ever finish first, the Attest simply ran; try the next
    // fresh device.
    let mut refused = None;
    for device in 1..12 {
        let ticket = match client.call(&Request::ChallengeRequest { device: 0 }).unwrap() {
            Response::Challenge { ticket, .. } => ticket,
            other => panic!("expected a challenge, got {other:?}"),
        };
        let enroll = client.send(&Request::Enroll { device }).unwrap();
        let attest = client.send(&Request::Attest { device: 0, ticket }).unwrap();
        let attest_reply = client.recv(attest).unwrap();
        assert!(matches!(client.recv(enroll).unwrap(), Response::EnrollOk { fresh: true, .. }));
        match attest_reply {
            Response::Error { code: ErrorCode::OverCredit, .. } => {
                refused = Some(ticket);
                break;
            }
            Response::Verdict { device: 0, .. } => {}
            other => panic!("expected over-credit or a verdict, got {other:?}"),
        }
    }
    let ticket = refused.expect("an Attest behind a fresh enrollment exceeds a credit of 1");
    // The enrollment's reply has arrived, so its credit is back: the same
    // ticket is still open and attests.
    match client.call(&Request::Attest { device: 0, ticket }).unwrap() {
        Response::Verdict { device: 0, .. } => {}
        other => panic!("the refused ticket must stay open, got {other:?}"),
    }
    assert!(matches!(client.call(&Request::Stats).unwrap(), Response::StatsReply(_)), "connection stays usable");
    drop(client);
    let report = server.finish();
    assert!(report.transport.over_credit >= 1);
    assert_eq!(report.transport.busy_queue, 0);
    assert_eq!(report.transport.sessions_aborted, 0);
    assert_eq!(report.panicked_jobs, 0);
}

/// Pipelined replies can be collected in any order: `recv` parks the
/// replies it reads past and finds the one it waits for.
#[test]
fn client_collects_pipelined_replies_in_any_order() {
    let server =
        Server::start(&Endpoint::Tcp("127.0.0.1:0".into()), small_test_config(1, 1, 25), identity_server_config())
            .expect("server starts");
    let mut client = Client::connect(server.endpoint(), 10_000, 10_000).expect("client connects");
    let corrs: Vec<u32> = (0..3).map(|_| client.send(&Request::Stats).unwrap()).collect();
    for &corr in corrs.iter().rev() {
        assert!(matches!(client.recv(corr).unwrap(), Response::StatsReply(_)));
    }
    assert_eq!(client.pending_len(), 0);
    drop(client);
    server.finish();
}

/// A version-1 client (no credit in its `HelloAck`) is refused with the
/// typed `VersionMismatch`, whose detail names the server's range.
#[test]
fn version_one_hello_is_refused_with_version_mismatch() {
    let cfg = small_test_config(1, 1, 21);
    let server =
        Server::start(&Endpoint::Tcp("127.0.0.1:0".into()), cfg, identity_server_config()).expect("server starts");
    let mut stream = pufatt_transport::Stream::connect(server.endpoint()).expect("connects");
    stream.set_read_timeout_ms(10_000).unwrap();
    let mut payload = Vec::new();
    Request::Hello { magic: PROTOCOL_MAGIC, min_version: 1, max_version: 1 }.encode(3, &mut payload);
    pufatt_transport::write_frame(&mut stream, &payload, 0).unwrap();
    let mut reply = Vec::new();
    assert!(pufatt_transport::read_frame(&mut stream, &mut reply, 10_000).unwrap());
    match Response::decode(&reply).unwrap() {
        (3, Response::Error { code: ErrorCode::VersionMismatch, detail }) => {
            assert!(detail.contains(&format!("{PROTOCOL_VERSION}..={PROTOCOL_VERSION}")), "detail: {detail}");
        }
        other => panic!("expected VersionMismatch, got {other:?}"),
    }
    assert!(!pufatt_transport::read_frame(&mut stream, &mut reply, 10_000).unwrap());
    server.finish();
}

/// `finish` wakes the blocking acceptor itself, so it returns at once on
/// both socket families, and a connection that arrives once a drain
/// began is closed unserved.
fn finish_is_prompt(endpoint: &Endpoint) {
    let server = Server::start(endpoint, small_test_config(2, 1, 23), identity_server_config()).expect("server starts");
    let client = Client::connect(server.endpoint(), 10_000, 10_000).expect("client connects");
    drop(client);
    server.initiate_drain();
    assert!(Client::connect(server.endpoint(), 10_000, 10_000).is_err(), "no connection is served once draining");
    let t0 = Instant::now();
    let report = server.finish();
    assert!(t0.elapsed() < Duration::from_secs(2), "finish took {:?}", t0.elapsed());
    assert_eq!(report.transport.connections_served, 1);
}

#[cfg(unix)]
#[test]
fn finish_returns_promptly_on_uds() {
    finish_is_prompt(&uds_endpoint("finish"));
}

#[test]
fn finish_returns_promptly_on_tcp() {
    finish_is_prompt(&Endpoint::Tcp("127.0.0.1:0".into()));
}

#[test]
fn drain_completes_inflight_sessions_and_refuses_new_work() {
    let cfg = small_test_config(4, 2, 11);
    let server =
        Server::start(&Endpoint::Tcp("127.0.0.1:0".into()), cfg, identity_server_config()).expect("server starts");
    let mut client = Client::connect(server.endpoint(), 10_000, 10_000).expect("client connects");

    assert!(matches!(client.call(&Request::Enroll { device: 0 }).unwrap(), Response::EnrollOk { device: 0, .. }));
    let ticket = match client.call(&Request::ChallengeRequest { device: 0 }).unwrap() {
        Response::Challenge { ticket, .. } => ticket,
        other => panic!("expected a challenge, got {other:?}"),
    };

    // Shutdown arrives while device 0's session is still open.
    assert!(matches!(client.call(&Request::Shutdown).unwrap(), Response::ShutdownAck));
    assert!(server.is_draining());

    // New work is refused during the drain…
    match client.call(&Request::Enroll { device: 1 }).unwrap() {
        Response::Error { code: ErrorCode::Draining, .. } => {}
        other => panic!("expected Draining, got {other:?}"),
    }
    match client.call(&Request::ChallengeRequest { device: 0 }).unwrap() {
        Response::Error { code: ErrorCode::Draining, .. } => {}
        other => panic!("expected Draining, got {other:?}"),
    }
    // …but the open ticket still runs to a verdict.
    match client.call(&Request::Attest { device: 0, ticket }).unwrap() {
        Response::Verdict { device: 0, .. } => {}
        other => panic!("expected a verdict, got {other:?}"),
    }
    drop(client);

    let report = server.finish();
    assert_eq!(report.panicked_jobs, 0);
    assert_eq!(report.snapshot.sessions_lost, 0, "drain must not lose the in-flight session");
    assert_eq!(report.snapshot.sessions_started, 1);
    assert_eq!(
        report.snapshot.sessions_accepted + report.snapshot.sessions_rejected + report.snapshot.sessions_timed_out,
        1,
        "the open session reached a verdict: {:?}",
        report.snapshot
    );
}

#[test]
fn dying_connection_aborts_its_open_session_into_the_lifecycle() {
    let cfg = small_test_config(2, 1, 5);
    let server =
        Server::start(&Endpoint::Tcp("127.0.0.1:0".into()), cfg, identity_server_config()).expect("server starts");

    // Two dropped connections, each leaving device 0's session open: the
    // lifecycle counts both as lost and the hysteresis quarantines.
    for _ in 0..2 {
        let mut client = Client::connect(server.endpoint(), 10_000, 10_000).expect("client connects");
        let _ = client.call(&Request::Enroll { device: 0 }).unwrap();
        match client.call(&Request::ChallengeRequest { device: 0 }).unwrap() {
            Response::Challenge { .. } => {}
            other => panic!("expected a challenge, got {other:?}"),
        }
        drop(client); // vanish without attesting
    }

    // The abort happens on the server's handler thread after it sees the
    // close; poll the metrics briefly instead of sleeping blind.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while server.transport_stats().sessions_aborted < 2 && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let report = server.finish();
    assert_eq!(report.transport.sessions_aborted, 2);
    assert_eq!(report.snapshot.sessions_lost, 2, "a torn session is a lost session");
    let record = &report.device_records[0];
    assert_eq!(record.id, 0);
    assert_eq!(record.status, pufatt_fleet::FleetStatus::Quarantined, "hysteresis fires on repeated loss");
}

#[test]
fn protocol_violations_get_typed_errors() {
    let cfg = small_test_config(2, 1, 9);
    let server =
        Server::start(&Endpoint::Tcp("127.0.0.1:0".into()), cfg, identity_server_config()).expect("server starts");
    let mut client = Client::connect(server.endpoint(), 10_000, 10_000).expect("client connects");

    // Unknown device.
    match client.call(&Request::ChallengeRequest { device: 1 }).unwrap() {
        Response::Error { code: ErrorCode::UnknownDevice, .. } => {}
        other => panic!("expected UnknownDevice, got {other:?}"),
    }
    // Attest without an open session.
    let _ = client.call(&Request::Enroll { device: 0 }).unwrap();
    match client.call(&Request::Attest { device: 0, ticket: 42 }).unwrap() {
        Response::Error { code: ErrorCode::BadTicket, .. } => {}
        other => panic!("expected BadTicket, got {other:?}"),
    }
    // A second Hello mid-conversation.
    match client.call(&pufatt_transport::hello()).unwrap() {
        Response::Error { code: ErrorCode::Malformed, .. } => {}
        other => panic!("expected Malformed, got {other:?}"),
    }
    // Revoke, then the session gate refuses.
    match client.call(&Request::Revoke { device: 0 }).unwrap() {
        Response::RevokeOk { device: 0, .. } => {}
        other => panic!("expected RevokeOk, got {other:?}"),
    }
    match client.call(&Request::ChallengeRequest { device: 0 }).unwrap() {
        Response::Error { code: ErrorCode::Refused, .. } => {}
        other => panic!("expected Refused, got {other:?}"),
    }
    // Stats reflect what happened.
    match client.call(&Request::Stats).unwrap() {
        Response::StatsReply(stats) => {
            assert_eq!(stats.refused, 1);
            assert_eq!(stats.revoked, 1);
        }
        other => panic!("expected StatsReply, got {other:?}"),
    }
    drop(client);
    let report = server.finish();
    assert_eq!(report.panicked_jobs, 0);
}

#[test]
fn version_negotiation_rejects_a_future_only_client() {
    let cfg = small_test_config(1, 1, 13);
    let server =
        Server::start(&Endpoint::Tcp("127.0.0.1:0".into()), cfg, identity_server_config()).expect("server starts");
    // Hand-roll a client that only speaks the next two versions.
    let mut stream = pufatt_transport::Stream::connect(server.endpoint()).expect("connects");
    stream.set_read_timeout_ms(10_000).unwrap();
    let mut payload = Vec::new();
    Request::Hello {
        magic: PROTOCOL_MAGIC,
        min_version: PROTOCOL_VERSION + 1,
        max_version: PROTOCOL_VERSION + 2,
    }
    .encode(7, &mut payload);
    pufatt_transport::write_frame(&mut stream, &payload, 0).unwrap();
    let mut reply = Vec::new();
    assert!(pufatt_transport::read_frame(&mut stream, &mut reply, 10_000).unwrap());
    let (corr, response) = Response::decode(&reply).unwrap();
    assert_eq!(corr, 7);
    match response {
        Response::Error { code: ErrorCode::VersionMismatch, .. } => {}
        other => panic!("expected VersionMismatch, got {other:?}"),
    }
    // …and the server closed the connection afterwards.
    assert!(!pufatt_transport::read_frame(&mut stream, &mut reply, 10_000).unwrap());
    server.finish();
}

#[test]
fn capacity_and_rate_limits_shed_with_busy() {
    let cfg = small_test_config(2, 1, 17);
    let server_cfg = ServerConfig {
        max_connections: 1,
        rate_limit_per_s: 1.0,
        rate_burst: 1,
        busy_retry_ms: 3,
        ..ServerConfig::default()
    };
    let server = Server::start(&Endpoint::Tcp("127.0.0.1:0".into()), cfg, server_cfg).expect("server starts");
    let mut first = Client::connect(server.endpoint(), 10_000, 10_000).expect("first client connects");

    // Connection capacity: the second connection is shed at accept.
    match Client::connect(server.endpoint(), 10_000, 10_000) {
        Err(TransportError::Server { code: ErrorCode::RateLimited, .. }) => {}
        Err(TransportError::Closed(_)) => {} // raced the Busy frame; also a shed
        Err(other) => panic!("expected a shed connection, got {other:?}"),
        Ok(_) => panic!("second connection must be shed at capacity 1"),
    }

    // Rate limit: burst of 1 means back-to-back requests see Busy.
    let mut saw_busy = false;
    for _ in 0..5 {
        match first.call(&Request::Enroll { device: 0 }).unwrap() {
            Response::Busy { retry_after_ms } => {
                assert!(retry_after_ms >= 3);
                saw_busy = true;
                break;
            }
            Response::EnrollOk { .. } => {}
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert!(saw_busy, "a 1 req/s bucket must shed a burst of 5");
    drop(first);
    let report = server.finish();
    assert_eq!(report.transport.connections_shed, 1);
    assert!(report.transport.busy_rate >= 1);
}
