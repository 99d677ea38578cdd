//! The service benchmark: `pufatt serve` as an operator runs it — the
//! socket server in front of the fleet engine — driven over a loopback
//! Unix-domain socket from the same process.
//!
//! ```text
//! cargo run --release --offline --manifest-path svcbench/Cargo.toml -- \
//!     --workload attest_uds --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Each run repeats rounds (set-up, onboarding, attestation) until `--seconds` have passed, checks every verdict against the
//! in-process reference campaign, and prints the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`) as the last line
//! of standard output, one JSON object. See `svcbench/README.md`.

mod measure;
mod probes;
mod trace;
mod workload;

use measure::{beyond, json_num, json_str, median, percentile};
use pufatt_fleet::{run_campaign, CampaignConfig};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use workload::{Ctx, Round, Tally, Workload};

/// Where runs keep sockets, the probes' state directories and span files,
/// relative to the working directory.
const OUT_DIR: &str = ".bench_out";

/// The per-layer metrics a traced run prints, with their units.
const PER_LAYER: &[(&str, &str)] = &[
    ("transport.rtt_inline_p50_us", "us"),
    ("transport.rtt_dispatch_p50_us", "us"),
    ("transport.rtt_dispatch_p99_us", "us"),
    ("transport.requests_per_session", "count"),
    ("transport.busy_replies", "count"),
    ("transport.busy_per_session", "count"),
    ("transport.codec_ns_per_msg", "ns"),
    ("fleet.enroll_p50_us", "us"),
    ("fleet.enroll_p99_us", "us"),
    ("fleet.attest_p50_us", "us"),
    ("fleet.attest_p99_us", "us"),
    ("fleet.crp_hit_ratio", "ratio"),
    ("core.enroll_with_design_us", "us"),
    ("core.puf_limited_clock_us", "us"),
    ("core.provision_us", "us"),
    ("core.prover_attest_us", "us"),
    ("core.verifier_verify_us", "us"),
    ("store.append_synced_p50_us", "us"),
    ("store.append_synced_p99_us", "us"),
    ("store.append_us", "us"),
    ("store.flush_us", "us"),
    ("store.wal_bytes_per_session", "B"),
    ("store.recover_s", "s"),
    ("fleet.restore_s", "s"),
    ("proc.cpu_util", "ratio"),
    ("proc.cpu_util_onboard", "ratio"),
    ("proc.cpu_util_attest", "ratio"),
    ("proc.cpu_us_per_session", "us"),
    ("proc.cpu_us_per_enroll", "us"),
    ("span.setup_self_us", "us"),
    ("span.enroll_us", "us"),
    ("span.session_self_us", "us"),
    ("span.challenge_us", "us"),
    ("span.attest_us", "us"),
    ("trace.sessions_per_s_traced", "1/s"),
    ("trace.sessions_per_s_untraced", "1/s"),
    ("trace.overhead_pct", "%"),
    ("probe.failures", "count"),
];

/// Span names whose median self time is reported, and under what metric.
const SPAN_METRICS: &[(&str, &str)] = &[
    ("setup", "span.setup_self_us"),
    ("enroll", "span.enroll_us"),
    ("session", "span.session_self_us"),
    ("challenge", "span.challenge_us"),
    ("attest", "span.attest_us"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 20u64, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("{flag}: cannot parse {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required (attest_uds, attest_overload)")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args { workload, seed, seconds, trace })
}

fn main() {
    if let Err(e) = run() {
        eprintln!("svcbench: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let w = args.workload;
    let epoch = Instant::now();
    let dir = PathBuf::from(OUT_DIR).join(format!("{}-{}", w.name(), std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let result = measure_run(&args, &dir, epoch);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn measure_run(args: &Args, dir: &Path, epoch: Instant) -> Result<(), String> {
    let w = args.workload;
    let cfg = CampaignConfig {
        devices: workload::DEVICES as usize,
        sessions_per_device: w.sessions(),
        seed: args.seed,
        workers: measure::nproc(),
        ..CampaignConfig::default()
    };

    // The reference: the same campaign in process, outside every timed
    // phase.
    let t = Instant::now();
    let reference = run_campaign(&cfg).map_err(|e| format!("reference campaign: {e}"))?;
    if reference.panicked_jobs != 0 || reference.device_records.iter().enumerate().any(|(i, r)| r.id as usize != i) {
        return Err("reference campaign is incomplete".into());
    }
    println!("reference: in-process run_campaign in {:.2} s", t.elapsed().as_secs_f64());
    let ctx = Ctx {
        workload: w,
        reference_tally: Tally::of(&reference.snapshot),
        reference: reference.device_records,
        cfg,
        dir: dir.to_path_buf(),
        epoch,
    };

    // Rounds until the time is up; a traced run alternates traced and
    // untraced rounds so both see the same conditions.
    let min_rounds = if args.trace { 2 } else { 1 };
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut rounds: Vec<Round> = Vec::new();
    let mut peak_rss_mb = 0.0;
    while rounds.len() < min_rounds || Instant::now() < deadline {
        let traced = args.trace && rounds.len() % 2 == 1;
        rounds.push(workload::run_round(&ctx, rounds.len(), traced)?);
        if rounds.len() == 1 {
            // Later rounds serve identical fleets; what they add to the
            // peak is allocator reuse, which varies from run to run.
            peak_rss_mb = measure::peak_rss_mb();
        }
    }

    let mut attempted: u64 = rounds.iter().map(|r| r.attempted).sum();
    let mut failed: u64 = rounds.iter().map(|r| r.failed).sum();
    for (i, r) in rounds.iter().enumerate() {
        for p in &r.problems {
            println!("round {i}: FAIL {p}");
        }
    }
    let untraced: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
    let e2e = end_to_end(&untraced, peak_rss_mb, attempted, failed);
    print_envelope(args, &ctx, &untraced, rounds.len());
    for (name, unit, value) in &e2e {
        println!("{name:>16} = {value:.6} {unit}");
    }

    let metrics = if args.trace {
        let layers = per_layer(&ctx, &rounds, dir, args)?;
        // The layer probes count as one more operation.
        attempted += 1;
        failed += u64::from(layers.get("probe.failures").is_some_and(|&n| n > 0.0));
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, layers.get(name).copied().unwrap_or(0.0)))
            .collect()
    } else {
        e2e
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!("{}: {{\"value\": {}, \"unit\": {}}}", json_str(name), json_num(*value), json_str(unit))
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0,
        attempted.max(1),
        failed,
        body.join(", ")
    );
    Ok(())
}

/// The end-to-end metrics from untraced rounds: the median over rounds of
/// each round's figure (set-up: over every sample).
fn end_to_end(
    rounds: &[&Round],
    peak_rss_mb: f64,
    attempted: u64,
    failed: u64,
) -> Vec<(&'static str, &'static str, f64)> {
    let per_round = |f: &dyn Fn(&Round) -> f64| median(&mut rounds.iter().map(|r| f(r)).collect::<Vec<f64>>());
    let pct = |samples: &Vec<f64>, p: f64| percentile(&mut samples.clone(), p);
    let session = |p: f64| {
        let loadgen: Vec<(f64, f64)> = rounds.iter().filter_map(|r| r.loadgen_pct_ms).collect();
        if loadgen.is_empty() {
            return per_round(&|r: &Round| pct(&r.session_ms, p));
        }
        // The shipped load generator reports each round's percentiles, not
        // samples, and under overload they jump between two levels from
        // round to round; their mean moves less than their median.
        let pick = |&(p50, p99): &(f64, f64)| if p < 0.9 { p50 } else { p99 };
        loadgen.iter().map(pick).sum::<f64>() / loadgen.len() as f64
    };
    let setup_s = median(&mut rounds.iter().flat_map(|r| r.setup_s.iter().copied()).collect::<Vec<f64>>());
    vec![
        ("setup_s", "s", setup_s),
        ("enrolls_per_s", "1/s", per_round(&|r| r.enrolls as f64 / r.enroll_wall_s)),
        ("enroll_p50_ms", "ms", per_round(&|r| pct(&r.enroll_ms, 0.50))),
        ("enroll_p99_ms", "ms", per_round(&|r| pct(&r.enroll_ms, 0.99))),
        ("sessions_per_s", "1/s", per_round(&|r| r.sessions as f64 / r.attest_wall_s)),
        ("session_p50_ms", "ms", session(0.50)),
        ("session_p99_ms", "ms", session(0.99)),
        ("ops_ok_ratio", "ratio", attempted.saturating_sub(failed) as f64 / attempted.max(1) as f64),
        ("peak_rss_mb", "MB", peak_rss_mb),
    ]
}

/// Prints what the figures depend on: host, toolchain, endpoint, storage,
/// flush policy, seed and sample counts.
fn print_envelope(args: &Args, ctx: &Ctx, rounds: &[&Round], total_rounds: usize) {
    let w = args.workload;
    let server = pufatt_transport::ServerConfig::default();
    // Percentiles are taken per round, so the smallest round bounds how
    // many samples lie beyond each.
    let fewest = |f: fn(&Round) -> usize| rounds.iter().map(|r| f(r)).min().unwrap_or(0);
    let enroll_n = fewest(|r| r.enroll_ms.len());
    let session_n = fewest(|r| {
        if r.loadgen_pct_ms.is_some() {
            r.sessions as usize
        } else {
            r.session_ms.len()
        }
    });
    let per_round =
        |n: usize| format!("{n} per round ({} beyond p99), median over {} rounds", beyond(n, 0.99), rounds.len());
    let count = |f: fn(&Round) -> usize| rounds.iter().map(|r| f(r)).sum::<usize>().to_string();
    let fields = [
        ("workload", json_str(w.name())),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("cpu_model", json_str(&measure::cpu_model())),
        ("nproc", measure::nproc().to_string()),
        ("rustc", json_str(env!("SVCBENCH_RUSTC"))),
        ("profile", json_str(env!("SVCBENCH_PROFILE"))),
        ("endpoint", json_str("loopback unix-domain socket, server and clients in one process")),
        ("state_fs", json_str(&measure::filesystem_of(&ctx.dir))),
        ("flush_policy", json_str("none (in-memory service)")),
        (
            "server",
            json_str(&format!("{} dispatch pools x queue {}", server.dispatch_shards, server.queue_depth)),
        ),
        (
            "clients",
            json_str(&format!(
                "{} connections/threads; enroll window {}; session window {}",
                workload::CONNECTIONS,
                workload::ENROLL_WINDOW,
                if w == Workload::Overload {
                    workload::OVERLOAD_WINDOW
                } else {
                    workload::SESSION_WINDOW
                }
            )),
        ),
        ("devices_per_round", workload::DEVICES.to_string()),
        ("sessions_per_device", w.sessions().to_string()),
        ("rounds", total_rounds.to_string()),
        ("rounds_measured", rounds.len().to_string()),
        ("enroll_samples", json_str(&per_round(enroll_n))),
        ("session_samples", json_str(&per_round(session_n))),
        ("setup_samples", count(|r| r.setup_s.len())),
        (
            "reference_tally",
            json_str(&format!(
                "{} accepted, {} rejected, {} refused",
                ctx.reference_tally.accepted, ctx.reference_tally.rejected, ctx.reference_tally.refused
            )),
        ),
    ];
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("{}: {v}", json_str(k))).collect();
    println!("envelope: {{{}}}", body.join(", "));
}

/// The per-layer metrics: round counters, span self times, and the
/// in-process layer probes.
fn per_layer(ctx: &Ctx, rounds: &[Round], dir: &Path, args: &Args) -> Result<probes::Metrics, String> {
    let nproc = measure::nproc() as f64;
    let mut m = probes::run_all(&ctx.cfg, &ctx.reference, dir)?;
    let sessions: f64 = rounds.iter().map(|r| r.sessions as f64).sum();
    let requests: f64 = rounds.iter().map(|r| r.attest_requests as f64).sum();
    m.insert("transport.requests_per_session", requests / sessions.max(1.0));
    m.insert(
        "transport.busy_replies",
        rounds.iter().map(|r| r.busy_replies as f64).sum::<f64>() / rounds.len() as f64,
    );
    m.insert(
        "transport.busy_per_session",
        rounds.iter().map(|r| r.client_busy as f64).sum::<f64>() / sessions.max(1.0),
    );

    // Process CPU per phase, from untraced rounds.
    let plain: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
    let total = |f: fn(&Round) -> f64| plain.iter().map(|r| f(r)).sum::<f64>();
    let (ecpu, ewall, acpu, awall) = (
        total(|r| r.enroll_cpu_s),
        total(|r| r.enroll_wall_s),
        total(|r| r.attest_cpu_s),
        total(|r| r.attest_wall_s),
    );
    m.insert("proc.cpu_util", (ecpu + acpu) / ((ewall + awall) * nproc));
    m.insert("proc.cpu_util_onboard", ecpu / (ewall * nproc));
    m.insert("proc.cpu_util_attest", acpu / (awall * nproc));
    m.insert("proc.cpu_us_per_session", acpu * 1e6 / total(|r| r.sessions as f64).max(1.0));
    m.insert("proc.cpu_us_per_enroll", ecpu * 1e6 / total(|r| r.enrolls as f64).max(1.0));

    // Tracing overhead: attestation rate in traced vs untraced rounds.
    let rate = |traced: bool| {
        let rs = rounds.iter().filter(|r| r.traced == traced);
        let (s, t) = rs.fold((0.0, 0.0), |(s, t), r| (s + r.sessions as f64, t + r.attest_wall_s));
        s / t
    };
    let (traced, untraced) = (rate(true), rate(false));
    m.insert("trace.sessions_per_s_traced", traced);
    m.insert("trace.sessions_per_s_untraced", untraced);
    m.insert("trace.overhead_pct", (1.0 - traced / untraced) * 100.0);

    // Spans: self times, written out with the breakdown by name.
    let spans: Vec<trace::Span> = rounds.iter().flat_map(|r| r.spans.iter().cloned()).collect();
    let selfs = trace::self_times(&spans);
    let summary = trace::summarise(&spans, &selfs);
    for &(name, metric) in SPAN_METRICS {
        m.insert(metric, summary.get(name).map_or(0.0, |s| s.self_p50_ns / 1e3));
    }
    let path = PathBuf::from(OUT_DIR).join(format!("trace-{}-seed{}.jsonl", args.workload.name(), args.seed));
    trace::write_jsonl(&path, &spans, &selfs).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("spans: {} written to {}", spans.len(), path.display());
    println!("{:<24} {:>8} {:>12} {:>12} {:>12}", "span", "count", "total_ms", "self_ms", "self_p50_us");
    for (name, s) in &summary {
        println!(
            "{name:<24} {:>8} {:>12.3} {:>12.3} {:>12.3}",
            s.count,
            s.total_ns as f64 / 1e6,
            s.self_ns as f64 / 1e6,
            s.self_p50_ns / 1e3
        );
    }
    Ok(m)
}
