//! `cold_dynshape`: repeated cold starts of the variable-length LSTM
//! bucket server.
//!
//! Each episode builds `zoo::seq_model(8)` and a fresh `SeqServer` whose
//! plan cache is empty, sends a seeded burst of 128 requests open-loop at
//! 2000 rps with lengths uniform in 1..=8, waits for every reply and
//! shuts down. Every plan the burst needs is compiled, lowered and
//! instantiated on its first use, so the episode measures the compiler
//! path a restarting server pays. Replies are checked bitwise against a
//! batch-1 executor of the same bucket after each episode.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use latte_runtime::Executor;
use latte_serve::{loadgen, zoo, Arrival, SeqModel, SeqRequest, SeqServer};

use crate::serve::{self, bitwise_eq};
use crate::stats::{median, ms, percentile};
use crate::{splitmix64, trace, E2e, Metrics, Run};

const MAX_LEN: usize = 8;
const BURST: usize = 128;
const BURST_RPS: f64 = 2000.0;
/// Distinct seeded sequences per length that the bursts draw from.
const PER_LEN: usize = 8;
const MIN_EPISODES: usize = 3;
const OUTPUT: &str = "head.value";
const LEAD: Duration = Duration::from_millis(1);
const WAIT: Duration = Duration::from_secs(30);

/// Each sample's output from a batch-1, one-thread executor of its
/// bucket's model, fed the same padded request admission builds.
fn references(model: &SeqModel, samples: &[SeqRequest]) -> Vec<Vec<f32>> {
    let mut execs: BTreeMap<usize, Executor> = BTreeMap::new();
    samples
        .iter()
        .map(|s| {
            let (route, req) = model.admit(s).expect("sample admits");
            let exec = execs
                .entry(route.bucket_index)
                .or_insert_with(|| serve::executor(model.model(route.bucket_index), 1));
            for (name, values) in &req.inputs {
                exec.set_input(name, values).expect("reference input");
            }
            exec.forward();
            exec.read_buffer(OUTPUT).expect("reference output")
        })
        .collect()
}

struct Episode {
    setup_s: f64,
    model_ms: f64,
    lat_ms: Vec<f64>,
    burst_ms: f64,
    /// Set-up start to shutdown end.
    wall_s: f64,
    failed: u64,
    plan_misses: u64,
    plan_hits: u64,
    spills: u64,
    routed: Vec<u64>,
}

fn episode(seed: u64, samples: &[SeqRequest], refs: &[Vec<f32>]) -> Episode {
    let _e = trace::span("bench.episode");
    let t0 = Instant::now();
    let model = {
        let _s = trace::span("serve.seq.model");
        zoo::seq_model(MAX_LEN).expect("seq model registers")
    };
    let model_ms = ms(t0.elapsed());
    let server = {
        let _s = trace::span("serve.seq.start");
        SeqServer::start(model, serve::serve_cfg())
    };
    let setup_s = t0.elapsed().as_secs_f64();

    let offsets = loadgen::schedule(&Arrival::Steady { rps: BURST_RPS }, BURST, seed);
    // Lengths uniform in 1..=MAX_LEN, then one of that length's samples.
    let mut state = seed ^ 0x636f_6c64;
    let picks: Vec<usize> = (0..BURST)
        .map(|_| {
            let len = splitmix64(&mut state) as usize % MAX_LEN;
            len * PER_LEN + splitmix64(&mut state) as usize % PER_LEN
        })
        .collect();
    let start = Instant::now() + LEAD;
    let due = |i: usize| start + offsets[i];
    let mut failed = 0u64;
    let mut tickets = Vec::with_capacity(BURST);
    for (i, &pick) in picks.iter().enumerate() {
        let now = Instant::now();
        if due(i) > now {
            std::thread::sleep(due(i) - now);
        }
        let submitted = Instant::now();
        let _s = trace::span("serve.seq.submit");
        match server.submit(&samples[pick]) {
            Ok(t) => tickets.push((i, submitted, t)),
            Err(e) => {
                eprintln!("cold_dynshape: submit failed: {e}");
                failed += 1;
            }
        }
    }
    let mut lat_ms = Vec::with_capacity(BURST);
    let mut last = start;
    let mut outputs: Vec<Option<Vec<f32>>> = vec![None; BURST];
    for (i, submitted, ticket) in tickets {
        match ticket.wait_timeout(WAIT) {
            Ok(resp) => {
                // Due-time latency: how late the submit ran plus the
                // server's submit-to-completion time.
                let done = submitted + resp.meta.latency;
                lat_ms.push(ms(done.saturating_duration_since(due(i))));
                last = last.max(done);
                outputs[i] = resp
                    .outputs
                    .into_iter()
                    .find(|(n, _)| n == OUTPUT)
                    .map(|(_, v)| v);
            }
            Err(e) => {
                eprintln!("cold_dynshape: request failed: {e}");
                failed += 1;
            }
        }
    }
    let burst_ms = ms(last.saturating_duration_since(due(0)));
    let cache = server.cache();
    let (plan_misses, plan_hits) = (cache.misses(), cache.hits());
    let (spills, routed) = (server.bucket_spills(), server.routed());
    {
        let _s = trace::span("serve.seq.shutdown");
        server.shutdown();
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let wrong = outputs
        .iter()
        .zip(&picks)
        .filter(|(o, &pick)| o.as_ref().is_some_and(|o| !bitwise_eq(o, &refs[pick])))
        .count() as u64;
    if wrong > 0 {
        eprintln!("cold_dynshape: {wrong} replies differ from the batch-1 reference");
    }
    Episode {
        setup_s,
        model_ms,
        lat_ms,
        burst_ms,
        wall_s,
        failed: failed + wrong,
        plan_misses,
        plan_hits,
        spills,
        routed,
    }
}

pub fn run(seed: u64, budget: Duration) -> Run {
    let mut state = seed ^ 0x636f_6c64_5f64_796e; // "cold_dyn"
                                                  // `PER_LEN` samples of each length 1..=MAX_LEN, in length order.
    let samples: Vec<SeqRequest> = (0..MAX_LEN * PER_LEN)
        .map(|i| zoo::seq_sample(i / PER_LEN + 1, splitmix64(&mut state)))
        .collect();
    let reference_model = zoo::seq_model(MAX_LEN).expect("seq model registers");
    let refs = references(&reference_model, &samples);
    let buckets = reference_model.buckets().to_vec();

    let mut episodes = Vec::new();
    let start = Instant::now();
    while episodes.len() < MIN_EPISODES || start.elapsed() < budget {
        episodes.push(episode(splitmix64(&mut state), &samples, &refs));
    }
    let lat: Vec<f64> = episodes
        .iter()
        .flat_map(|e| e.lat_ms.iter().copied())
        .collect();
    let bursts: Vec<f64> = episodes.iter().map(|e| e.burst_ms).collect();
    let failed: u64 = episodes.iter().map(|e| e.failed).sum();
    let mut run = Run {
        attempted: (episodes.len() * BURST) as u64,
        failed,
        correct: true,
        e2e: E2e {
            setup_s: median(&episodes.iter().map(|e| e.setup_s).collect::<Vec<_>>()),
            throughput_per_s: (episodes.len() * BURST) as f64
                / episodes.iter().map(|e| e.wall_s).sum::<f64>(),
            p50_ms: median(&bursts),
        },
        layer: Metrics::new(),
    };
    if failed > 0 {
        run.fail_check(&format!(
            "{failed} cold-start requests failed or were wrong"
        ));
    }
    eprintln!(
        "cold_dynshape: {} episodes, {:.0} requests/s, burst p50 {:.2} ms, request p50 {:.3} p99 {:.3} ms, set-up {:.4} s",
        episodes.len(),
        run.e2e.throughput_per_s,
        run.e2e.p50_ms,
        median(&lat),
        percentile(&lat, 99.0),
        run.e2e.setup_s
    );

    if trace::enabled() {
        let per_episode = |f: fn(&Episode) -> u64| {
            median(&episodes.iter().map(|e| f(e) as f64).collect::<Vec<_>>())
        };
        let layer = &mut run.layer;
        layer.insert("serve.seq.req_p50_ms".into(), (median(&lat), "ms"));
        layer.insert(
            "serve.seq.req_p99_ms".into(),
            (percentile(&lat, 99.0), "ms"),
        );
        layer.insert(
            "serve.seq.model_ms".into(),
            (
                median(&episodes.iter().map(|e| e.model_ms).collect::<Vec<_>>()),
                "ms",
            ),
        );
        layer.insert(
            "serve.seq.plan_misses".into(),
            (per_episode(|e| e.plan_misses), "count"),
        );
        layer.insert(
            "serve.seq.plan_hits".into(),
            (per_episode(|e| e.plan_hits), "count"),
        );
        layer.insert(
            "serve.seq.spills".into(),
            (per_episode(|e| e.spills), "count"),
        );
        for (i, b) in buckets.iter().enumerate() {
            let total: u64 = episodes
                .iter()
                .map(|e| e.routed.get(i).copied().unwrap_or(0))
                .sum();
            layer.insert(
                format!("serve.seq.routed.b{b}"),
                (total as f64 / episodes.len() as f64, "count"),
            );
        }
    }
    run
}
