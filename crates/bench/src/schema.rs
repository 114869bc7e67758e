//! The schemas of the three checked-in bench artifacts
//! (`BENCH_{throughput,serving,cluster}.json`): the paths each must
//! hold, plus the semantic gates a run must pass to be recorded.

use latte_tensor::gemm::Transpose;

use crate::json::{Json, Kind, Violations};

/// One bench artifact: its schema string, default output path and
/// validator, which returns the list of violations.
#[derive(Debug, Clone, Copy)]
pub struct Artifact {
    /// The document's `schema` value.
    pub schema: &'static str,
    /// Where the binary writes the artifact unless `--out` says otherwise.
    pub out: &'static str,
    /// The schema check.
    pub validate: fn(&Json) -> Vec<String>,
}

/// `BENCH_throughput.json`: GEMM, weight-stationary GEMM, end-to-end and
/// tuned rows.
pub const THROUGHPUT: Artifact = Artifact {
    schema: "latte-throughput/v2",
    out: "BENCH_throughput.json",
    validate: throughput,
};

/// `BENCH_serving.json`: one row per open-loop serving scenario.
pub const SERVING: Artifact = Artifact {
    schema: "latte-serving/v1",
    out: "BENCH_serving.json",
    validate: serving,
};

/// `BENCH_cluster.json`: ring overlap and degraded-mode step times.
pub const CLUSTER: Artifact = Artifact {
    schema: "latte-cluster/v1",
    out: "BENCH_cluster.json",
    validate: cluster,
};

/// VGG-A's small-`m` conv GEMMs (channel_div 4, 32×32): conv5 forward
/// over a 2-row and an 8-row tile (`op(B) = Wᵀ`), and conv5
/// backward-data (`B = W`). `(m, n, k, tb)`. The throughput artifact
/// holds one `gemm_stationary` row per shape.
pub const STATIONARY_SHAPES: [(usize, usize, usize, Transpose); 3] = [
    (2, 128, 1152, Transpose::Yes),
    (8, 128, 1152, Transpose::Yes),
    (2, 1152, 128, Transpose::No),
];

fn check_schema(v: &mut Violations, doc: &Json, artifact: &Artifact) {
    let want = artifact.schema;
    v.check(doc.get("schema").and_then(Json::as_str) == Some(want), || {
        format!("schema missing or not \"{want}\"")
    });
}

/// Schema check of a throughput artifact.
pub fn throughput(doc: &Json) -> Vec<String> {
    let mut v = Violations::default();
    check_schema(&mut v, doc, &THROUGHPUT);
    v.rows(doc, "", "threads", true);
    v.require(doc, "", Kind::NUM, &["host.nproc"]);
    v.require(doc, "", Kind::STR, &["host.cpu_features"]);
    for (at, row) in v.rows(doc, "", "gemm", true) {
        let keys = ["m", "n", "k", "seed_serial_gflops", "blocked_serial_gflops"];
        v.require(row, &at, Kind::NUM, &keys);
        for (at, p) in v.rows(row, &at, "parallel", false) {
            v.require(p, &at, Kind::NUM, &["threads", "gflops", "speedup_vs_seed_serial"]);
        }
    }
    let stationary = v.rows(doc, "", "gemm_stationary", false);
    v.check(stationary.len() == STATIONARY_SHAPES.len(), || {
        format!(
            "gemm_stationary has {} rows, want one per VGG shape ({})",
            stationary.len(),
            STATIONARY_SHAPES.len()
        )
    });
    for (at, row) in &stationary {
        let keys = ["m", "n", "k", "per_call_gflops", "packed_once_gflops", "speedup_vs_per_call"];
        v.require(row, at, Kind::NUM, &keys);
        v.require(row, at, Kind::BOOL, &["tb"]);
    }
    for (at, row) in v.rows(doc, "", "e2e", true) {
        v.require(row, &at, Kind::STR, &["net"]);
        for (at, r) in v.rows(row, &at, "results", false) {
            let keys = [
                "threads",
                "images_per_sec",
                "iter_ms",
                "default_images_per_sec",
                "tuned_speedup_vs_default",
            ];
            v.require(r, &at, Kind::NUM, &keys);
        }
    }
    for (at, row) in v.rows(doc, "", "tuned.gemm", true) {
        let keys = [
            "m",
            "n",
            "k",
            "default_gflops",
            "tuned_gflops",
            "speedup_vs_default",
            "tuned_blocking.kc",
            "tuned_blocking.nc",
            "tuned_blocking.mc",
        ];
        v.require(row, &at, Kind::NUM, &keys);
    }
    let cache = [
        "tuned.cache.entries",
        "tuned.cache.measurements",
        "tuned.cache.cache_hits",
        "tuned.cache.cache_misses",
        "tuned.cache.warm_extra_measurements",
    ];
    v.require(doc, "", Kind::NUM, &cache);
    let warm_extra = doc.at("tuned.cache.warm_extra_measurements").and_then(Json::as_num);
    v.check(warm_extra.is_none_or(|x| x == 0.0), || {
        "tuned.cache.warm_extra_measurements must be 0 (warm replay)".into()
    });
    v.into_vec()
}

/// Schema check of a serving artifact.
pub fn serving(doc: &Json) -> Vec<String> {
    let mut v = Violations::default();
    check_schema(&mut v, doc, &SERVING);
    let config = [
        "config.max_batch",
        "config.max_delay_ms",
        "config.replicas",
        "config.threads",
        "config.queue_cap",
    ];
    v.require(doc, "", Kind::NUM, &config);
    let scenarios = v.rows(doc, "", "scenarios", false);
    fn name(row: &Json) -> Option<&str> {
        row.get("name").and_then(Json::as_str)
    }
    for want in ["steady", "bursty", "tcp", "dynshape"] {
        let found = scenarios.iter().any(|(_, row)| name(row) == Some(want));
        v.check(found, || format!("scenario `{want}` missing"));
    }
    for (at, row) in &scenarios {
        v.require(row, at, Kind::STR, &["name"]);
        let keys = [
            "requests",
            "p50_ms",
            "p99_ms",
            "sustained_qps",
            "completed",
            "rejected",
            "batches",
            "mean_batch",
            "flush.size",
            "flush.deadline",
            "flush.drain",
            "cache.hits",
            "cache.misses",
            "cache.evictions",
            "cache.recompiles_after_warmup",
        ];
        v.require(row, at, Kind::NUM, &keys);
        match name(row) {
            Some("dynshape") => {
                v.require(row, at, Kind::ARR, &["buckets.ladder", "buckets.routed"]);
                v.require(row, at, Kind::NUM, &["buckets.spills"]);
                let recompiles = row.at("cache.recompiles_after_warmup").and_then(Json::as_num);
                v.check(recompiles == Some(0.0), || {
                    format!(
                        "{at}.cache.recompiles_after_warmup must be 0: a warm bucket ladder \
                         never recompiles"
                    )
                });
            }
            Some("tcp") => {
                let keys = [
                    "net.conn_accepted",
                    "net.conn_rejected",
                    "net.conn_timeouts",
                    "net.frames_corrupt",
                    "net.deadline_rejected",
                    "net.deadline_shed",
                    "net.replies_dropped",
                ];
                v.require(row, at, Kind::NUM, &keys);
            }
            _ => {}
        }
    }
    v.into_vec()
}

/// Schema check of a cluster artifact.
pub fn cluster(doc: &Json) -> Vec<String> {
    let mut v = Violations::default();
    check_schema(&mut v, doc, &CLUSTER);
    let keys = [
        "overlap.world",
        "overlap.steps",
        "overlap.comm_ms",
        "overlap.exposed_ms",
        "overlap.overlap_efficiency",
        "overlap.sync_step_ms",
        "degraded.world",
        "degraded.steps",
        "degraded.crash_at_step",
        "degraded.lossy_step_ms",
        "degraded.lossy_steps",
    ];
    v.require(doc, "", Kind::NUM, &keys);
    if let Some(eff) = doc.at("overlap.overlap_efficiency").and_then(Json::as_num) {
        v.check((0.0..=1.0).contains(&eff), || format!("overlap_efficiency {eff} outside [0, 1]"));
    }
    v.into_vec()
}
