//! Serving harness: open-loop latency/throughput of the latte-serve
//! dynamic-batching server, written as machine-readable
//! `BENCH_serving.json`.
//!
//! Each scenario replays a seeded arrival schedule
//! ([`latte_serve::loadgen`]) against a fresh server — steady Poisson
//! traffic and bursty traffic — and records p50/p99 latency, sustained
//! QPS, micro-batch statistics, and the plan-cache counters. The server
//! is warmed over every micro-batch size first, so the headline
//! `recompiles_after_warmup` figure is the serving guarantee: tail
//! batches hit the `(fingerprint, batch)` plan cache instead of the
//! compiler.
//!
//! The `dynshape` scenario extends the guarantee to dynamic shapes: a
//! mixed-length sequence stream routed through a [`SeqServer`]'s
//! power-of-two bucket ladder. After warming every `(bucket, batch)`
//! pair, the scenario *asserts* zero recompiles — odd lengths pad into
//! a warm bucket (counted as `buckets.spills`) instead of reaching the
//! compiler — and records the trace-cache hit/miss/eviction counters
//! alongside the per-bucket routing histogram.
//!
//! Flags: `--smoke` (short schedules, CI-fast), `--out <path>` (default
//! `BENCH_serving.json`), `--validate <path>` (parse an existing
//! artifact, check its schema, and exit — the CI bench-smoke step).

use std::sync::Arc;
use std::time::{Duration, Instant};

use latte_bench::artifact_main;
use latte_bench::json::Json;
use latte_bench::schema::SERVING;
use latte_core::dsl::Net;
use latte_core::{splitmix64, OptLevel};
use latte_nn::layers::{data, fully_connected, relu, softmax_loss, tanh};
use latte_serve::net::run_adversary;
use latte_serve::{
    loadgen, zoo, Arrival, Client, Misbehavior, Model, NetConfig, NetError, NetFrontend, PlanCache,
    Request, Response, SeqServer, ServeConfig, ServeError, Server, StatsSnapshot, Ticket,
};

/// How long any one response may take before the run is declared hung.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(120);

/// A scenario's identity in its artifact row.
#[derive(Clone, Copy)]
struct Scenario {
    name: &'static str,
    /// Requests offered.
    n: usize,
    seed: u64,
}

/// The served model: a small MLP classifier, batch-parametric with
/// fixed layer seeds (batch-invariant by construction).
fn classifier(batch: usize) -> Net {
    let mut net = Net::new(batch);
    let x = data(&mut net, "data", vec![16]);
    let fc1 = fully_connected(&mut net, "fc1", x, 32, 21);
    let a1 = tanh(&mut net, "a1", fc1);
    let fc2 = fully_connected(&mut net, "fc2", a1, 24, 22);
    let a2 = relu(&mut net, "a2", fc2);
    let head = fully_connected(&mut net, "head", a2, 10, 23);
    let label = data(&mut net, "label", vec![1]);
    softmax_loss(&mut net, "loss", head, label);
    net
}

fn model() -> Model {
    Model::new(
        "bench-classifier",
        Box::new(classifier),
        OptLevel::full(),
        vec!["head.value".to_string()],
    )
    .expect("model registration")
}

/// A deterministic request (inputs derived from `seed`).
fn request(seed: u64) -> Request {
    let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
    };
    let data: Vec<f32> = (0..16).map(|_| next()).collect();
    let label = vec![(seed % 10) as f32];
    Request {
        inputs: vec![("data".to_string(), data), ("label".to_string(), label)],
    }
}

fn percentile_ms(sorted: &[Duration], pct: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((pct / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)].as_secs_f64() * 1e3
}

/// Pre-warms every micro-batch size so steady-state traffic never
/// compiles: one flushed batch per size, its requests built by `submit`
/// from seeds disjoint from the scenarios' request seeds.
fn warm<T>(
    max_batch: usize,
    submit: impl Fn(u64) -> Result<T, ServeError>,
    flush: impl Fn(),
    wait: impl Fn(T) -> Result<Response, ServeError>,
) {
    for size in 1..=max_batch as u64 {
        let tickets: Vec<_> =
            (0..size).map(|i| submit(size << 32 | i).expect("warmup submit")).collect();
        flush();
        for t in tickets {
            wait(t).expect("warmup response");
        }
    }
}

/// [`warm`] for the fixed-shape classifier server. Returns the cache
/// miss count after warmup.
fn warmup(server: &Server, max_batch: usize) -> u64 {
    let wait = |t: Ticket| t.wait_timeout(RESPONSE_TIMEOUT);
    warm(max_batch, |seed| server.submit(request(seed)), || server.flush(), wait);
    server.cache().misses()
}

/// What one scenario's traffic produced.
struct Run {
    /// Latency of every answered request.
    latencies: Vec<Duration>,
    /// Requests refused with `Overloaded`.
    rejected: u64,
    /// Seconds from the first arrival to the last answer.
    makespan: f64,
}

/// Replays `sc.n` arrivals of `arrival` open-loop: `submit(i)` goes out
/// at the `i`-th scheduled offset (an `Overloaded` rejection is counted,
/// any other error is fatal), then the coalescing batches are flushed and
/// every admitted request's latency is collected.
fn replay<T>(
    sc: Scenario,
    arrival: &Arrival,
    mut submit: impl FnMut(usize) -> Result<T, ServeError>,
    flush: impl FnOnce(),
    wait: impl Fn(T) -> Result<Response, ServeError>,
) -> Run {
    let offsets = loadgen::schedule(arrival, sc.n, sc.seed);
    let start = Instant::now();
    let mut tickets = Vec::with_capacity(sc.n);
    let mut rejected = 0u64;
    for (i, &off) in offsets.iter().enumerate() {
        if let Some(ahead) = off.checked_sub(start.elapsed()) {
            std::thread::sleep(ahead);
        }
        match submit(i) {
            Ok(t) => tickets.push(t),
            Err(ServeError::Overloaded { .. }) => rejected += 1,
            Err(e) => panic!("{}: submit failed: {e}", sc.name),
        }
    }
    flush();
    let latencies = tickets
        .into_iter()
        .map(|t| wait(t).expect("response").meta.latency)
        .collect();
    Run { latencies, rejected, makespan: start.elapsed().as_secs_f64() }
}

/// Summarises a run into its `scenarios[]` row: latency percentiles,
/// sustained QPS, batching, flush reasons and plan-cache counters, with
/// the `(misses, batches)` warmup left behind excluded, plus the
/// scenario's `extra` blocks. Prints the scenario line with `detail`
/// appended.
fn summarize(
    sc: Scenario,
    mut run: Run,
    stats: &StatsSnapshot,
    cache: &PlanCache,
    warm: (u64, u64),
    detail: &str,
    extra: Vec<(&'static str, Json)>,
) -> Json {
    run.latencies.sort();
    let completed = run.latencies.len() as u64;
    let qps = completed as f64 / run.makespan;
    let p50 = percentile_ms(&run.latencies, 50.0);
    let p99 = percentile_ms(&run.latencies, 99.0);
    let batches = stats.batches - warm.1;
    let mean_batch = if batches > 0 { completed as f64 / batches as f64 } else { 0.0 };
    let recompiles_after_warmup = cache.misses() - warm.0;
    println!(
        "{}: {completed}/{} ok, {} rejected, p50 {p50:.3} ms, p99 {p99:.3} ms, {qps:.0} QPS, \
         mean batch {mean_batch:.2}, recompiles after warmup {recompiles_after_warmup}{detail}",
        sc.name, sc.n, run.rejected
    );
    let mut row = vec![
        ("name", Json::Str(sc.name.to_string())),
        ("requests", Json::Num(sc.n as f64)),
        ("seed", Json::Num(sc.seed as f64)),
        ("p50_ms", Json::Num(p50)),
        ("p99_ms", Json::Num(p99)),
        ("sustained_qps", Json::Num(qps)),
        ("completed", Json::Num(completed as f64)),
        ("rejected", Json::Num(run.rejected as f64)),
        ("batches", Json::Num(batches as f64)),
        ("mean_batch", Json::Num(mean_batch)),
        (
            "flush",
            Json::obj([
                ("size", Json::Num(stats.flush_size as f64)),
                ("deadline", Json::Num(stats.flush_deadline as f64)),
                ("drain", Json::Num(stats.flush_drain as f64)),
            ]),
        ),
        (
            "cache",
            Json::obj([
                ("hits", Json::Num(cache.hits() as f64)),
                ("misses", Json::Num(cache.misses() as f64)),
                ("evictions", Json::Num(cache.evictions() as f64)),
                ("recompiles_after_warmup", Json::Num(recompiles_after_warmup as f64)),
            ]),
        ),
    ];
    row.extend(extra);
    Json::obj(row)
}

/// A fixed-shape scenario: the classifier warmed over every micro-batch
/// size, then `arrival` replayed against it.
fn scenario(sc: Scenario, arrival: &Arrival, cfg: ServeConfig) -> Json {
    let server = Server::start(model(), cfg);
    let warm_misses = warmup(&server, cfg.max_batch);
    let run = replay(
        sc,
        arrival,
        |i| server.submit(request(sc.seed.wrapping_add(i as u64))),
        || server.flush(),
        |t| t.wait_timeout(RESPONSE_TIMEOUT),
    );
    // Warmup ran one batch per size.
    let warm = (warm_misses, cfg.max_batch as u64);
    summarize(sc, run, &server.stats(), server.cache(), warm, "", Vec::new())
}

/// Longest sequence the dynshape scenario serves (buckets 1, 2, 4, 8).
const SEQ_MAX_LEN: usize = 8;

/// The dynamic-shape scenario: a mixed-length sequence stream against a
/// [`SeqServer`] bucket ladder. Every `(bucket, micro-batch)` pair is
/// warmed first; the steady-state stream then draws lengths uniformly
/// from `1..=SEQ_MAX_LEN`, so most requests pad ("spill") into a larger
/// bucket — and **none** of them may reach the compiler. The zero-
/// recompile claim is asserted, not just reported.
fn dynshape_scenario(sc: Scenario, arrival: &Arrival, cfg: ServeConfig) -> Json {
    let server = SeqServer::start(
        zoo::seq_model(SEQ_MAX_LEN).expect("seq model registration"),
        cfg,
    );
    let ladder: Vec<usize> = server.model().buckets().to_vec();

    // Warm every (bucket, batch) pair with exact-length (spill-free)
    // traffic, mirroring the fixed-shape warmup.
    for &bucket in &ladder {
        let submit = |seed| server.submit(&zoo::seq_sample(bucket, seed));
        warm(cfg.max_batch, submit, || server.flush(), |t| t.wait_timeout(RESPONSE_TIMEOUT));
    }
    let warm_misses = server.cache().misses();
    assert_eq!(server.bucket_spills(), 0, "exact-length warmup must not spill");

    let mut state = sc.seed ^ 0xd15b_a7c4_ed5e_11e5;
    let run = replay(
        sc,
        arrival,
        |_| {
            let len = (splitmix64(&mut state) as usize % SEQ_MAX_LEN) + 1;
            server.submit(&zoo::seq_sample(len, splitmix64(&mut state)))
        },
        || server.flush(),
        |t| t.wait_timeout(RESPONSE_TIMEOUT),
    );
    assert_eq!(
        server.cache().misses(),
        warm_misses,
        "a warm bucket ladder must never recompile for a mixed-length stream"
    );
    let spills = server.bucket_spills();
    let buckets = Json::obj([
        ("ladder", Json::Arr(ladder.iter().map(|&b| Json::Num(b as f64)).collect())),
        ("routed", Json::Arr(server.routed().iter().map(|&r| Json::Num(r as f64)).collect())),
        ("spills", Json::Num(spills as f64)),
    ]);
    let warm = (warm_misses, (ladder.len() * cfg.max_batch) as u64);
    let detail = format!("; {spills} bucket spills over ladder {ladder:?}");
    summarize(sc, run, &server.stats(), server.cache(), warm, &detail, vec![("buckets", buckets)])
}

/// Replays closed-loop traffic over real loopback TCP — through the
/// framed protocol, the per-connection reader/writer threads, and the
/// deadline/admission path — while a seeded fleet of adversarial
/// clients (slow-loris, mid-frame disconnects, corrupt CRCs, a
/// past-deadline flood) rides alongside. The summary carries the same
/// latency/batching figures as the in-process scenarios plus the
/// fault-hardening counters, so a regression in shedding or connection
/// hygiene shows up in the artifact.
fn tcp_scenario(sc: Scenario, cfg: ServeConfig) -> Json {
    const PATIENCE: Duration = Duration::from_secs(10);
    const FLOOD: usize = 16;
    let Scenario { n, seed, .. } = sc;
    let net_cfg = NetConfig {
        max_connections: 16,
        read_timeout: Duration::from_millis(300),
        ..NetConfig::default()
    };

    let server = Arc::new(Server::start(model(), cfg));
    let warm_misses = warmup(&server, cfg.max_batch);
    let front = NetFrontend::bind(Arc::clone(&server), "127.0.0.1:0", net_cfg)
        .expect("loopback bind");
    let addr = front.addr();

    // Well-behaved closed-loop clients: each owns one connection and
    // round-trips its share of the load.
    let client_threads = 4;
    let per_client = n / client_threads;
    let start = Instant::now();
    let clients: Vec<_> = (0..client_threads)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr, PATIENCE).expect("client connect");
                let mut latencies = Vec::with_capacity(per_client);
                let mut rejected = 0u64;
                for i in 0..per_client {
                    let req = request(seed.wrapping_add((c * per_client + i) as u64));
                    let t0 = Instant::now();
                    match client.call(i as u64, req.inputs, None) {
                        Ok(_) => latencies.push(t0.elapsed()),
                        Err(NetError::Remote { .. }) => rejected += 1,
                        Err(e) => panic!("well-behaved client failed: {e}"),
                    }
                }
                client.bye().expect("polite close");
                (latencies, rejected)
            })
        })
        .collect();

    // The adversary fleet, concurrent with the real traffic. A corrupt
    // frame and a past-deadline flood are always present so the
    // shedding counters are exercised on every run, whatever the
    // seeded mix contributes.
    let mut mix = loadgen::misbehaviors(4, seed ^ 0xad5e_5a1e, FLOOD);
    mix.push(Misbehavior::HoldOpen);
    mix.push(Misbehavior::CorruptCrc);
    mix.push(Misbehavior::PastDeadlineFlood { requests: FLOOD });
    let floods: usize = mix
        .iter()
        .map(|m| match m {
            Misbehavior::PastDeadlineFlood { requests } => *requests,
            _ => 0,
        })
        .sum();
    let adversaries: Vec<_> = mix
        .into_iter()
        .map(|m| {
            std::thread::spawn(move || {
                run_adversary(addr, &m, PATIENCE).expect("adversary contract");
            })
        })
        .collect();

    // A client that submits work and hangs up without reading the
    // replies: the late deliveries must be dropped and counted, never
    // block a writer thread. Several abandoned replies, because the
    // first write onto the dead socket can still succeed (the RST it
    // provokes lands just after); a later one reliably fails.
    {
        let mut quitter = Client::connect(addr, PATIENCE).expect("quitter connect");
        for i in 0..4u64 {
            let req = request(seed ^ (0x71 + i));
            quitter
                .send_request(i, req.inputs, None)
                .expect("quitter send");
        }
        drop(quitter);
    }

    let mut latencies = Vec::with_capacity(n);
    let mut rejected = 0u64;
    for h in clients {
        let (lat, rej) = h.join().expect("client thread");
        latencies.extend(lat);
        rejected += rej;
    }
    let makespan = start.elapsed().as_secs_f64();
    for h in adversaries {
        h.join().expect("adversary thread");
    }

    // Saturate the connection cap so the refusal path is exercised:
    // every connect past `max_connections` must draw the structured
    // `ConnLimit` frame, never a hang.
    let mut held = Vec::new();
    let mut cap_refused = 0u64;
    for _ in 0..net_cfg.max_connections + 2 {
        match Client::connect(addr, PATIENCE) {
            Ok(c) => held.push(c),
            Err(NetError::Remote { .. }) => cap_refused += 1,
            Err(e) => panic!("cap probe drew an unstructured failure: {e}"),
        }
    }
    assert!(cap_refused >= 2, "the connection cap never refused anyone");
    drop(held);

    // Graceful-drain order, same as latte-served on SIGTERM.
    server.shutdown();
    front.close();

    let stats = server.stats();
    assert_eq!(
        stats.deadline_rejected + stats.deadline_shed,
        floods as u64,
        "every flooded past-deadline request must be rejected or shed, never executed"
    );
    assert!(stats.conn_timeouts >= 1, "the held-open connection was never reclaimed");
    assert!(stats.frames_corrupt >= 1, "the corrupt frame went unnoticed");
    assert!(
        stats.replies_dropped >= 1,
        "the quitter's abandoned reply was never counted"
    );

    let detail = format!(
        " (over TCP); conns {}/{} rejected, {} timed out, {} corrupt frames, \
         {} deadline-rejected + {} shed, {} replies dropped",
        stats.conn_rejected,
        stats.conn_accepted + stats.conn_rejected,
        stats.conn_timeouts,
        stats.frames_corrupt,
        stats.deadline_rejected,
        stats.deadline_shed,
        stats.replies_dropped,
    );
    let net = Json::obj([
        ("conn_accepted", Json::Num(stats.conn_accepted as f64)),
        ("conn_rejected", Json::Num(stats.conn_rejected as f64)),
        ("conn_timeouts", Json::Num(stats.conn_timeouts as f64)),
        ("frames_corrupt", Json::Num(stats.frames_corrupt as f64)),
        ("deadline_rejected", Json::Num(stats.deadline_rejected as f64)),
        ("deadline_shed", Json::Num(stats.deadline_shed as f64)),
        ("replies_dropped", Json::Num(stats.replies_dropped as f64)),
    ]);
    let run = Run { latencies, rejected, makespan };
    let warm = (warm_misses, cfg.max_batch as u64);
    summarize(sc, run, &stats, server.cache(), warm, &detail, vec![("net", net)])
}

fn main() {
    artifact_main(&SERVING, |smoke| {
        let cfg = ServeConfig {
            max_batch: 8,
            max_delay: Duration::from_millis(2),
            queue_cap: 256,
            replicas: 2,
            threads: 1,
            retry_limit: 1,
        };
        let n = if smoke { 64 } else { 2000 };
        println!(
            "serving harness ({} mode): {n} requests/scenario, max_batch={}, max_delay={:?}, \
             replicas={}",
            if smoke { "smoke" } else { "full" },
            cfg.max_batch,
            cfg.max_delay,
            cfg.replicas
        );
        let sc = |name, seed| Scenario { name, n, seed };
        let steady = Arrival::Steady { rps: 1500.0 };
        let bursty = Arrival::Bursty {
            burst: 16,
            within: Duration::from_millis(1),
            gap: Duration::from_millis(8),
        };
        let slow_client = Arrival::SlowClient {
            rps: 1500.0,
            stall_every: 50,
            stall: Duration::from_millis(40),
        };
        let scenarios = vec![
            scenario(sc("steady", 11), &steady, cfg),
            scenario(sc("bursty", 13), &bursty, cfg),
            scenario(sc("slow_client", 17), &slow_client, cfg),
            tcp_scenario(sc("tcp", 19), cfg),
            dynshape_scenario(sc("dynshape", 23), &steady, cfg),
        ];
        vec![
            (
                "config",
                Json::obj([
                    ("max_batch", Json::Num(cfg.max_batch as f64)),
                    ("max_delay_ms", Json::Num(cfg.max_delay.as_secs_f64() * 1e3)),
                    ("replicas", Json::Num(cfg.replicas as f64)),
                    ("threads", Json::Num(cfg.threads as f64)),
                    ("queue_cap", Json::Num(cfg.queue_cap as f64)),
                ]),
            ),
            ("scenarios", Json::Arr(scenarios)),
        ]
    });
}
