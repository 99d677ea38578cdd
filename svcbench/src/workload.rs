//! The service workloads: rounds of set-up, onboarding and attestation
//! against `pufatt_transport::Server` in front of
//! `pufatt_fleet::FleetService`, over a loopback Unix-domain socket.
//!
//! Every round serves a fresh fleet of the same seeded product line, so
//! every round's verdicts must equal the in-process reference campaign
//! bit for bit; the round checks that and counts each mismatch as a
//! failed operation.

use crate::trace::{Span, Tracer};
use pufatt_fleet::{CampaignConfig, DeviceRecord, FleetService, FleetSnapshot, SessionOutcome};
use pufatt_transport::{
    run_loadgen, Client, Endpoint, ErrorCode, LoadgenConfig, Request, Response, Server, ServerConfig, ServerReport,
    TransportError,
};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client connections, and client threads driving them (one each).
pub const CONNECTIONS: usize = 2;
/// Enrollments each onboarding connection keeps in flight.
pub const ENROLL_WINDOW: usize = 4;
/// Devices each attestation connection keeps in flight.
pub const SESSION_WINDOW: usize = 16;
/// Devices each loadgen connection keeps in flight in `attest_overload`
/// (twice the server's per-pool queue).
pub const OVERLOAD_WINDOW: usize = 128;
/// Devices onboarded per round: enough that every round's enrollment p99
/// has ten samples beyond it.
pub const DEVICES: u32 = 1024;
/// Set-ups per round.
pub const SETUP_REPEATS: usize = 3;
const IO_TIMEOUT_MS: u64 = 30_000;

/// A traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// In-memory service; closed-loop onboarding then attestation.
    Uds,
    /// Onboarding, then the shipped load generator with more devices in
    /// flight than the server queues. The load generator starts every
    /// device with an `Enroll`, so its phase also carries one no-op
    /// re-enrollment per device.
    Overload,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::Uds, Workload::Overload];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Uds => "attest_uds",
            Workload::Overload => "attest_overload",
        }
    }

    /// Sessions each device runs per round.
    pub fn sessions(self) -> u32 {
        match self {
            Workload::Uds => 24,
            Workload::Overload => 1,
        }
    }
}

/// The verdict tally of a campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Tally {
    /// Accepted verdicts.
    pub accepted: u64,
    /// Rejected verdicts.
    pub rejected: u64,
    /// Sessions refused because the device was revoked.
    pub refused: u64,
    /// Rejections that were timeouts.
    pub timed_out: u64,
    /// Sessions lost without a verdict.
    pub lost: u64,
    /// Device faults.
    pub faults: u64,
}

impl Tally {
    /// The tally part of a fleet snapshot.
    pub fn of(s: &FleetSnapshot) -> Self {
        Tally {
            accepted: s.sessions_accepted,
            rejected: s.sessions_rejected,
            refused: s.sessions_refused,
            timed_out: s.sessions_timed_out,
            lost: s.sessions_lost,
            faults: s.device_faults,
        }
    }
}

/// What every round of one run shares.
pub struct Ctx {
    /// The workload.
    pub workload: Workload,
    /// The product line and seed the service runs.
    pub cfg: CampaignConfig,
    /// In-process `run_campaign` records for `cfg`, indexed by device id.
    pub reference: Vec<DeviceRecord>,
    /// In-process `run_campaign` tally for `cfg`.
    pub reference_tally: Tally,
    /// Scratch directory for sockets.
    pub dir: PathBuf,
    /// Time origin of every span.
    pub epoch: Instant,
}

/// One round's measurements.
#[derive(Default)]
pub struct Round {
    /// Whether spans were recorded.
    pub traced: bool,
    /// Service construction, server start and client connects, in s,
    /// once per set-up.
    pub setup_s: Vec<f64>,
    /// Wall time of the onboarding phase, in s.
    pub enroll_wall_s: f64,
    /// Process CPU time during the onboarding phase, in s.
    pub enroll_cpu_s: f64,
    /// `Enroll` → `EnrollOk` times, in ms.
    pub enroll_ms: Vec<f64>,
    /// Enrollments answered `EnrollOk`.
    pub enrolls: u64,
    /// Wall time of the attestation phase, in s.
    pub attest_wall_s: f64,
    /// Process CPU time during the attestation phase, in s.
    pub attest_cpu_s: f64,
    /// `ChallengeRequest` → `Verdict` times, in ms (own client only).
    pub session_ms: Vec<f64>,
    /// Loadgen's own session p50 and p99, in ms (`attest_overload`).
    pub loadgen_pct_ms: Option<(f64, f64)>,
    /// Verdicts plus typed refusals.
    pub sessions: u64,
    /// Requests the server handled during the attestation phase.
    pub attest_requests: u64,
    /// `Busy` replies the server sent during the attestation phase.
    pub busy_replies: u64,
    /// `Busy` replies the client absorbed during the attestation phase.
    pub client_busy: u64,
    /// Operations attempted (enrollments, sessions, gate checks).
    pub attempted: u64,
    /// Operations that got an unexpected reply or failed a check.
    pub failed: u64,
    /// The first few failure descriptions.
    pub problems: Vec<String>,
    /// The round's spans.
    pub spans: Vec<Span>,
}

impl Round {
    /// Counts one checked operation, failed unless `ok`.
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.problems.len() < 8 {
                self.problems.push(what());
            }
        }
    }

    fn absorb(&mut self, phase: PhaseOut) {
        self.attempted += phase.ops;
        self.failed += phase.failed;
        for p in phase.problems {
            if self.problems.len() < 8 {
                self.problems.push(p);
            }
        }
        self.spans.extend(phase.spans);
    }
}

/// What one client connection saw in one phase.
#[derive(Default)]
struct PhaseOut {
    latencies_ms: Vec<f64>,
    /// Operations that got a final reply (sessions: verdicts plus typed
    /// refusals).
    ops: u64,
    /// Operations with an unexpected reply, a wrong verdict, or a `Busy`.
    failed: u64,
    busy: u64,
    problems: Vec<String>,
    spans: Vec<Span>,
}

impl PhaseOut {
    /// Counts one finished operation, failed when it has a `problem`.
    fn finish(&mut self, problem: Option<String>) {
        self.ops += 1;
        if let Some(what) = problem {
            self.failed += 1;
            if self.problems.len() < 4 {
                self.problems.push(what);
            }
        }
    }

    fn merge(&mut self, other: PhaseOut) {
        self.latencies_ms.extend(other.latencies_ms);
        self.ops += other.ops;
        self.failed += other.failed;
        self.busy += other.busy;
        self.problems.extend(other.problems);
        self.spans.extend(other.spans);
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn terr(what: &str) -> impl Fn(TransportError) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Runs one round. `Err` means the service could not be driven at all;
/// wrong answers are counted in the round instead.
///
/// # Errors
///
/// Bind, connect or service-construction failures.
pub fn run_round(ctx: &Ctx, index: usize, traced: bool) -> Result<Round, String> {
    let w = ctx.workload;
    let mut round = Round { traced, ..Round::default() };
    let lane = (index as u64 + 1) * 8;
    let mut tracer = Tracer::new(traced, ctx.epoch, lane);
    let endpoint = Endpoint::Uds(ctx.dir.join(format!("r{index}.sock")));

    // Set-up, several times: all but the last are drained again at once,
    // so the round reports a median over fresh set-ups.
    for _ in 1..SETUP_REPEATS {
        let (server, clients, setup_s) = set_up(ctx, &endpoint, &mut tracer)?;
        round.setup_s.push(setup_s);
        drop(clients);
        let panicked = server.finish().panicked_jobs;
        round.check(panicked == 0, || format!("{panicked} panicked job(s) during set-up"));
    }
    let (server, mut clients, setup_s) = set_up(ctx, &endpoint, &mut tracer)?;
    round.setup_s.push(setup_s);

    // Onboarding: every device enrolls once, a small window per
    // connection.
    let cpu0 = crate::measure::process_cpu_s();
    let t0 = Instant::now();
    let mut onboard = per_connection(&mut clients, traced, ctx.epoch, lane, |conn, client, tracer| {
        onboard_conn(client, stride(conn), tracer)
    })?;
    round.enroll_wall_s = t0.elapsed().as_secs_f64();
    round.enroll_cpu_s = crate::measure::process_cpu_s() - cpu0;
    round.enroll_ms = std::mem::take(&mut onboard.latencies_ms);
    round.enrolls = onboard.ops;
    round.absorb(onboard);

    // Attestation: every device runs its sessions.
    let before = server.transport_stats();
    let cpu0 = crate::measure::process_cpu_s();
    let t0 = Instant::now();
    if w == Workload::Overload {
        // `run_loadgen` re-sends `Enroll` for every onboarded device. The
        // re-enrollment is a no-op for the fleet, but it takes a dispatch
        // queue slot like an `Attest` and can be answered `Busy`.
        drop(clients);
        clients = Vec::new();
        let lg = LoadgenConfig {
            endpoint: server.endpoint().clone(),
            devices: DEVICES,
            sessions_per_device: w.sessions(),
            connections: CONNECTIONS,
            window: OVERLOAD_WINDOW,
            read_timeout_ms: IO_TIMEOUT_MS,
            write_timeout_ms: IO_TIMEOUT_MS,
            ..LoadgenConfig::default()
        };
        let report = run_loadgen(&lg).map_err(terr("loadgen"))?;
        let id = tracer.next_id();
        tracer.record(id, 0, id, "loadgen", t0, Instant::now());
        let scheduled = u64::from(DEVICES) * u64::from(w.sessions());
        round.sessions = report.sessions_completed + report.sessions_refused;
        round.client_busy = report.busy_retries;
        round.loadgen_pct_ms = Some((report.p50_us as f64 / 1e3, report.p99_us as f64 / 1e3));
        let missing = scheduled.saturating_sub(round.sessions);
        round.attempted += missing;
        round.failed += missing;
        let ok = missing == 0 && report.devices_errored == 0 && report.connection_lost.is_none();
        round.check(ok, || {
            format!(
                "loadgen finished {} of {scheduled} sessions, {} device(s) errored",
                report.sessions_completed + report.sessions_refused,
                report.devices_errored
            )
        });
    } else {
        let reference = &ctx.reference;
        let sessions = w.sessions();
        let mut attest = per_connection(&mut clients, traced, ctx.epoch, lane, |conn, client, tracer| {
            attest_conn(client, stride(conn), sessions, reference, tracer)
        })?;
        round.session_ms = std::mem::take(&mut attest.latencies_ms);
        round.sessions = attest.ops;
        round.client_busy = attest.busy;
        round.absorb(attest);
    }
    round.attest_wall_s = t0.elapsed().as_secs_f64();
    round.attest_cpu_s = crate::measure::process_cpu_s() - cpu0;
    let after = server.transport_stats();
    round.attest_requests = after.requests - before.requests;
    round.busy_replies = after.busy_queue - before.busy_queue;

    // Drain, then check the served fleet against the reference.
    drop(clients);
    let report = server.finish();
    gate(ctx, &report, &mut round);

    if let Endpoint::Uds(path) = &endpoint {
        let _ = std::fs::remove_file(path);
    }
    round.spans.extend(tracer.into_spans());
    Ok(round)
}

/// Builds the service, starts the server and connects the clients;
/// returns them with the seconds it took.
fn set_up(ctx: &Ctx, endpoint: &Endpoint, tracer: &mut Tracer) -> Result<(Server, Vec<Client>, f64), String> {
    let t0 = Instant::now();
    let setup = tracer.next_id();
    let service = FleetService::new(ctx.cfg.clone()).map_err(|e| format!("service: {e}"))?;
    let t = Instant::now();
    tracer.span(setup, setup, "setup.fleet_new", t0, t);
    let server = Server::start_with_service(endpoint, Arc::new(service), ServerConfig::default())
        .map_err(terr("server start"))?;
    tracer.span(setup, setup, "setup.server_start", t, Instant::now());
    let t = Instant::now();
    let clients = (0..CONNECTIONS)
        .map(|_| Client::connect(server.endpoint(), IO_TIMEOUT_MS, IO_TIMEOUT_MS))
        .collect::<Result<Vec<_>, _>>()
        .map_err(terr("connect"))?;
    let t1 = Instant::now();
    tracer.span(setup, setup, "setup.connect", t, t1);
    tracer.record(setup, 0, setup, "setup", t0, t1);
    Ok((server, clients, (t1 - t0).as_secs_f64()))
}

/// Compares the drained server's report with the in-process reference.
fn gate(ctx: &Ctx, report: &ServerReport, round: &mut Round) {
    let t = &report.transport;
    let busy_allowed = ctx.workload == Workload::Overload;
    let checks: [(bool, String); 5] = [
        (report.panicked_jobs == 0, format!("{} panicked dispatch job(s)", report.panicked_jobs)),
        (
            report.device_records == ctx.reference,
            format!(
                "{} device record(s) differ from the in-process campaign",
                differing(&report.device_records, &ctx.reference)
            ),
        ),
        (
            Tally::of(&report.snapshot) == ctx.reference_tally,
            format!("tally {:?} != reference {:?}", Tally::of(&report.snapshot), ctx.reference_tally),
        ),
        (t.sessions_aborted == 0, format!("{} session(s) aborted by a lost connection", t.sessions_aborted)),
        (
            busy_allowed || t.busy_queue + t.busy_rate == 0,
            format!("{} Busy replies outside attest_overload", t.busy_queue + t.busy_rate),
        ),
    ];
    for (ok, what) in checks {
        round.check(ok, || what);
    }
}

fn differing(a: &[DeviceRecord], b: &[DeviceRecord]) -> usize {
    a.iter().zip(b).filter(|(x, y)| x != y).count() + a.len().abs_diff(b.len())
}

/// The device ids connection `conn` drives (the loadgen's stride).
fn stride(conn: usize) -> Vec<u32> {
    (conn as u32..DEVICES).step_by(CONNECTIONS).collect()
}

/// Runs `f` on every client in its own thread with its own tracer, and
/// merges what they saw.
fn per_connection<F>(clients: &mut [Client], traced: bool, epoch: Instant, lane: u64, f: F) -> Result<PhaseOut, String>
where
    F: Fn(usize, &mut Client, &mut Tracer) -> Result<PhaseOut, TransportError> + Sync,
{
    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(conn, client)| {
                let f = &f;
                scope.spawn(move || {
                    let mut tracer = Tracer::new(traced, epoch, lane + conn as u64 + 1);
                    f(conn, client, &mut tracer).map(|mut out| {
                        out.spans = tracer.into_spans();
                        out
                    })
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let mut merged = PhaseOut::default();
    for result in results {
        match result {
            Ok(Ok(out)) => merged.merge(out),
            Ok(Err(e)) => return Err(format!("client connection: {e}")),
            Err(_) => return Err("client thread panicked".into()),
        }
    }
    Ok(merged)
}

/// Enrolls `ids`, [`ENROLL_WINDOW`] at a time.
fn onboard_conn(client: &mut Client, ids: Vec<u32>, tracer: &mut Tracer) -> Result<PhaseOut, TransportError> {
    let mut out = PhaseOut::default();
    // Per correlation id: device, send time, span id, and what went wrong.
    let mut inflight: HashMap<u32, (u32, Instant, u64, Option<String>)> = HashMap::new();
    let mut next = ids.into_iter();
    loop {
        while inflight.len() < ENROLL_WINDOW {
            let Some(id) = next.next() else { break };
            let t = Instant::now();
            let corr = client.send(&Request::Enroll { device: id })?;
            inflight.insert(corr, (id, t, tracer.next_id(), None));
        }
        if inflight.is_empty() {
            return Ok(out);
        }
        let (corr, response) = client.recv_any()?;
        let end = Instant::now();
        let Some((id, t, span, problem)) = inflight.remove(&corr) else {
            out.finish(Some(format!("reply to unknown correlation id {corr}")));
            continue;
        };
        match response {
            Response::Busy { retry_after_ms } => {
                out.busy += 1;
                std::thread::sleep(Duration::from_millis(u64::from(retry_after_ms.max(1))));
                let corr = client.send(&Request::Enroll { device: id })?;
                inflight.insert(corr, (id, t, span, Some(format!("Busy on Enroll of device {id}"))));
            }
            Response::EnrollOk { device, fresh: true, .. } if device == id => {
                out.latencies_ms.push(ms(end - t));
                tracer.record(span, 0, span, "enroll", t, end);
                out.finish(problem);
            }
            other => out.finish(Some(format!("Enroll of device {id}: {other:?}"))),
        }
    }
}

fn verdict_matches(expected: &SessionOutcome, got: &Response) -> bool {
    match *got {
        Response::Verdict {
            accepted,
            response_ok,
            time_ok,
            timed_out,
            attempts,
            elapsed_bits,
            ..
        } => {
            (accepted, response_ok, time_ok, timed_out, attempts, elapsed_bits)
                == (
                    expected.accepted,
                    expected.response_ok,
                    expected.time_ok,
                    expected.timed_out,
                    expected.attempts,
                    expected.elapsed_s.to_bits(),
                )
        }
        _ => false,
    }
}

/// One device's progress through its sessions on a connection.
struct Dev {
    id: u32,
    /// Sessions finished so far.
    done: u32,
    session_start: Instant,
    step_start: Instant,
    request: Request,
    session_span: u64,
    challenge: Option<(Instant, Instant)>,
    /// What went wrong in the current session so far.
    problem: Option<String>,
}

impl Dev {
    /// Starts the device's next session with a `ChallengeRequest`.
    fn begin(mut self, client: &mut Client, tracer: &mut Tracer) -> Result<(u32, Dev), TransportError> {
        self.request = Request::ChallengeRequest { device: self.id };
        self.session_start = Instant::now();
        self.step_start = self.session_start;
        self.session_span = tracer.next_id();
        self.challenge = None;
        self.problem = None;
        Ok((client.send(&self.request)?, self))
    }
}

/// Runs `sessions` sessions on every device in `ids`, keeping
/// [`SESSION_WINDOW`] devices in flight, and checks every reply against
/// the device's reference history.
fn attest_conn(
    client: &mut Client,
    ids: Vec<u32>,
    sessions: u32,
    reference: &[DeviceRecord],
    tracer: &mut Tracer,
) -> Result<PhaseOut, TransportError> {
    let mut out = PhaseOut::default();
    let mut inflight: HashMap<u32, Dev> = HashMap::new();
    let mut next = ids.into_iter();
    loop {
        while inflight.len() < SESSION_WINDOW {
            let Some(id) = next.next() else { break };
            let now = Instant::now();
            let dev = Dev {
                id,
                done: 0,
                session_start: now,
                step_start: now,
                request: Request::Stats,
                session_span: 0,
                challenge: None,
                problem: None,
            };
            let (corr, dev) = dev.begin(client, tracer)?;
            inflight.insert(corr, dev);
        }
        if inflight.is_empty() {
            return Ok(out);
        }
        let (corr, response) = client.recv_any()?;
        let end = Instant::now();
        let Some(mut dev) = inflight.remove(&corr) else {
            out.finish(Some(format!("reply to unknown correlation id {corr}")));
            continue;
        };
        // The device's reference history: a verdict per session until it
        // was revoked, a typed refusal for every session after.
        let expected = reference.get(dev.id as usize).and_then(|r| r.outcomes.get(dev.done as usize));
        let (id, n) = (dev.id, dev.done);
        let verdict_problem = match &response {
            Response::Busy { retry_after_ms } => {
                out.busy += 1;
                dev.problem.get_or_insert_with(|| format!("Busy on {:?}", dev.request));
                std::thread::sleep(Duration::from_millis(u64::from((*retry_after_ms).max(1))));
                inflight.insert(client.send(&dev.request)?, dev);
                continue;
            }
            Response::Challenge { device, ticket } if *device == dev.id => {
                if expected.is_none() {
                    dev.problem
                        .get_or_insert_with(|| format!("device {id} session {n} granted, reference refuses"));
                }
                dev.challenge = Some((dev.step_start, end));
                dev.request = Request::Attest { device: dev.id, ticket: *ticket };
                dev.step_start = Instant::now();
                inflight.insert(client.send(&dev.request)?, dev);
                continue;
            }
            Response::Verdict { .. } => {
                out.latencies_ms.push(ms(end - dev.session_start));
                tracer.span(dev.session_span, dev.session_span, "attest", dev.step_start, end);
                match expected {
                    Some(e) if verdict_matches(e, &response) => None,
                    _ => Some(format!("device {id} session {n}: verdict differs from reference")),
                }
            }
            Response::Error { code: ErrorCode::Refused, .. } => {
                dev.challenge = Some((dev.step_start, end));
                expected.map(|_| format!("device {id} session {n} refused, reference has a verdict"))
            }
            other => Some(format!("device {id} session {n}: {other:?}")),
        };
        if let Some((a, b)) = dev.challenge {
            tracer.span(dev.session_span, dev.session_span, "challenge", a, b);
        }
        tracer.record(dev.session_span, 0, dev.session_span, "session", dev.session_start, end);
        out.finish(dev.problem.take().or(verdict_problem));
        dev.done += 1;
        if dev.done < sessions {
            let (corr, dev) = dev.begin(client, tracer)?;
            inflight.insert(corr, dev);
        }
    }
}
