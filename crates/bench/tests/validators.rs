//! Parity tests for the three artifact validators: each checked-in
//! `BENCH_*.json` passes, removing or retyping any required key is
//! reported, and breaking any semantic gate is reported.

use latte_bench::json::{parse, Json};
use latte_bench::schema;

type Validator = fn(&Json) -> Vec<String>;

/// Keys a validator deliberately does not require, with array indices
/// written `[]`. Some hold `null` in legitimate runs (a missing 4-thread
/// row, a rank that never ran a synchronized step).
const THROUGHPUT_OPTIONAL: &[&str] = &[
    "smoke",
    "gemm[].parallel[].speedup_vs_blocked_serial",
    "e2e[].batch",
    "e2e[].speedup_4t_vs_1t",
    "e2e[].default_speedup_4t_vs_1t",
];
const SERVING_OPTIONAL: &[&str] = &["smoke", "scenarios[].seed"];
const CLUSTER_OPTIONAL: &[&str] = &["smoke", "overlap.backward_ms", "degraded.sync_step_ms"];

fn checked_in(name: &str) -> Json {
    let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
    parse(&text).unwrap_or_else(|e| panic!("parsing {path}: {e}"))
}

/// Every object key under `node`, as a path like `gemm[0].parallel[1].gflops`.
fn key_paths(node: &Json, at: &str, out: &mut Vec<String>) {
    match node {
        Json::Obj(map) => {
            for (k, v) in map {
                let path = if at.is_empty() { k.clone() } else { format!("{at}.{k}") };
                out.push(path.clone());
                key_paths(v, &path, out);
            }
        }
        Json::Arr(items) => {
            for (i, v) in items.iter().enumerate() {
                key_paths(v, &format!("{at}[{i}]"), out);
            }
        }
        _ => {}
    }
}

/// `path` with every array index written `[]`.
fn generic(path: &str) -> String {
    let mut out = String::new();
    let mut in_index = false;
    for c in path.chars() {
        match c {
            '[' => {
                in_index = true;
                out.push_str("[]");
            }
            ']' => in_index = false,
            c if !in_index => out.push(c),
            _ => {}
        }
    }
    out
}

/// The node at a path written as [`key_paths`] writes them.
fn at_mut<'a>(doc: &'a mut Json, path: &str) -> &'a mut Json {
    let mut node = doc;
    for part in path.split('.').filter(|p| !p.is_empty()) {
        let (key, indices) = part.split_once('[').map_or((part, ""), |(k, rest)| (k, rest));
        node = match node {
            Json::Obj(map) => map.get_mut(key).unwrap_or_else(|| panic!("no key {key} in {path}")),
            _ => panic!("{path}: {key} is not under an object"),
        };
        for index in indices.split('[').filter(|s| !s.is_empty()) {
            let i: usize = index.trim_end_matches(']').parse().expect("index");
            node = match node {
                Json::Arr(items) => &mut items[i],
                _ => panic!("{path}: [{i}] is not under an array"),
            };
        }
    }
    node
}

fn without(doc: &Json, path: &str) -> Json {
    let mut doc = doc.clone();
    let (parent, key) = path.rsplit_once('.').unwrap_or(("", path));
    match at_mut(&mut doc, parent) {
        Json::Obj(map) => assert!(map.remove(key).is_some(), "{path} not present"),
        _ => panic!("{parent} is not an object"),
    }
    doc
}

fn with(doc: &Json, path: &str, value: Json) -> Json {
    let mut doc = doc.clone();
    *at_mut(&mut doc, path) = value;
    doc
}

fn assert_passes(validate: Validator, name: &str) {
    let errs = validate(&checked_in(name));
    assert!(errs.is_empty(), "{name} fails its validator: {errs:?}");
}

/// Removing, or changing the type of, any key not in `optional` must be
/// reported, by a message that names the key.
fn assert_every_key_required(validate: Validator, name: &str, optional: &[&str]) {
    let doc = checked_in(name);
    let mut paths = Vec::new();
    key_paths(&doc, "", &mut paths);
    let mut checked = 0;
    for path in paths.iter().filter(|p| !optional.contains(&generic(p).as_str())) {
        let key = path.rsplit('.').next().unwrap().split('[').next().unwrap();
        let errs = validate(&without(&doc, path));
        assert!(
            errs.iter().any(|e| e.contains(key)),
            "{name}: removing {path} is not reported by name: {errs:?}"
        );
        let retyped = match at_mut(&mut doc.clone(), path) {
            Json::Str(_) => Json::Num(0.0),
            _ => Json::Str("retyped".into()),
        };
        let errs = validate(&with(&doc, path, retyped));
        assert!(!errs.is_empty(), "{name}: retyping {path} is not reported");
        checked += 1;
    }
    assert!(checked > 10, "{name}: only {checked} required keys found");
}

fn assert_rejected(validate: Validator, what: &str, doc: &Json) {
    let errs = validate(doc);
    assert!(!errs.is_empty(), "breaking {what} is not reported");
}

fn pop_row(doc: &Json, path: &str) -> Json {
    let mut doc = doc.clone();
    match at_mut(&mut doc, path) {
        Json::Arr(items) => {
            items.pop().expect("non-empty");
        }
        _ => panic!("{path} is not an array"),
    }
    doc
}

fn dup_row(doc: &Json, path: &str) -> Json {
    let mut doc = doc.clone();
    match at_mut(&mut doc, path) {
        Json::Arr(items) => items.push(items[0].clone()),
        _ => panic!("{path} is not an array"),
    }
    doc
}

fn scenario_index(doc: &Json, name: &str) -> usize {
    doc.get("scenarios")
        .and_then(Json::as_arr)
        .and_then(|s| {
            s.iter()
                .position(|e| e.get("name").and_then(Json::as_str) == Some(name))
        })
        .unwrap_or_else(|| panic!("scenario {name} missing from the checked-in artifact"))
}

#[test]
fn checked_in_artifacts_pass() {
    assert_passes(schema::throughput, "BENCH_throughput.json");
    assert_passes(schema::serving, "BENCH_serving.json");
    assert_passes(schema::cluster, "BENCH_cluster.json");
}

#[test]
fn throughput_requires_every_key() {
    assert_every_key_required(schema::throughput, "BENCH_throughput.json", THROUGHPUT_OPTIONAL);
}

#[test]
fn serving_requires_every_key() {
    assert_every_key_required(schema::serving, "BENCH_serving.json", SERVING_OPTIONAL);
}

#[test]
fn cluster_requires_every_key() {
    assert_every_key_required(schema::cluster, "BENCH_cluster.json", CLUSTER_OPTIONAL);
}

#[test]
fn throughput_gates_are_enforced() {
    let v: Validator = schema::throughput;
    let doc = checked_in("BENCH_throughput.json");
    let old_schema = Json::Str("latte-throughput/v1".into());
    assert_rejected(v, "the schema string", &with(&doc, "schema", old_schema));
    for path in ["threads", "gemm", "e2e", "tuned.gemm"] {
        assert_rejected(v, &format!("non-empty {path}"), &with(&doc, path, Json::Arr(vec![])));
    }
    let extra = with(&doc, "tuned.cache.warm_extra_measurements", Json::Num(1.0));
    assert_rejected(v, "warm_extra_measurements == 0", &extra);
    let missing = pop_row(&doc, "gemm_stationary");
    assert_rejected(v, "one gemm_stationary row per VGG shape (too few)", &missing);
    let extra_row = dup_row(&doc, "gemm_stationary");
    assert_rejected(v, "one gemm_stationary row per VGG shape (too many)", &extra_row);
}

#[test]
fn serving_gates_are_enforced() {
    let v: Validator = schema::serving;
    let doc = checked_in("BENCH_serving.json");
    let old_schema = Json::Str("latte-serving/v0".into());
    assert_rejected(v, "the schema string", &with(&doc, "schema", old_schema));
    for name in ["steady", "bursty", "tcp", "dynshape"] {
        let i = scenario_index(&doc, name);
        let renamed = with(&doc, &format!("scenarios[{i}].name"), Json::Str("other".into()));
        assert_rejected(v, &format!("required scenario {name}"), &renamed);
    }
    let i = scenario_index(&doc, "dynshape");
    let path = format!("scenarios[{i}].cache.recompiles_after_warmup");
    let recompiled = with(&doc, &path, Json::Num(1.0));
    assert_rejected(v, "dynshape recompiles_after_warmup == 0", &recompiled);
}

#[test]
fn cluster_gates_are_enforced() {
    let v: Validator = schema::cluster;
    let doc = checked_in("BENCH_cluster.json");
    let old_schema = Json::Str("latte-cluster/v0".into());
    assert_rejected(v, "the schema string", &with(&doc, "schema", old_schema));
    for eff in [1.5, -0.25] {
        let broken = with(&doc, "overlap.overlap_efficiency", Json::Num(eff));
        assert_rejected(v, &format!("overlap_efficiency {eff} in [0, 1]"), &broken);
    }
}
