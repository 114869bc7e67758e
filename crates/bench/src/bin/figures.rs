//! Regenerates every figure and table of the paper's evaluation
//! (Section 7). Usage:
//!
//! ```text
//! cargo run --release -p latte-bench --bin figures -- [fig13|...|fig20|ablations|all] [--full]
//! ```
//!
//! `ablations` times the compiler's design choices one at a time (fusion,
//! shared buffers, vectorization, tile size, GEMM pattern matching) and
//! the three stacks on one conv block.
//!
//! Default shapes are scaled down for a single-core CI machine; `--full`
//! uses the paper's published input sizes (slow). Absolute numbers will
//! not match a 36-core Xeon with MKL — the *shapes* (who wins, rough
//! factors, where crossovers fall) are the reproduction target; see
//! EXPERIMENTS.md.

use latte_baselines::{caffe, mocha, spec};
use latte_bench::{
    compile_or_die, executor_or_die, print_compile_stats, print_table, seeded, speedup,
    time_baseline, time_latte, Pass,
};
use latte_core::OptLevel;
use latte_nn::models::{self, ModelConfig};
use latte_runtime::accel::{AcceleratorSpec, HeterogeneousScheduler, WorkloadModel};
use latte_runtime::cluster::{
    profiles_from_measurements, strong_scaling, weak_scaling, NetworkModel,
};
use latte_runtime::data::{synthetic_mnist, BatchSource, MemoryDataSource};
use latte_runtime::parallel::{DataParallelConfig, DataParallelTrainer, GradSync};


#[derive(Clone, Copy)]
struct Scale {
    /// Square input edge for the VGG-style benchmarks.
    vgg_input: usize,
    alexnet_input: usize,
    overfeat_input: usize,
    /// Channel divider (1 = published widths).
    div: usize,
    batch: usize,
}

impl Scale {
    fn small() -> Self {
        Scale {
            vgg_input: 32,
            alexnet_input: 67,
            overfeat_input: 71,
            div: 8,
            batch: 4,
        }
    }

    fn full() -> Self {
        Scale {
            vgg_input: 224,
            alexnet_input: 227,
            overfeat_input: 231,
            div: 1,
            batch: 16,
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let scale = if full { Scale::full() } else { Scale::small() };
    let which: Vec<&str> = args
        .iter()
        .filter(|a| a.as_str() != "--full")
        .map(String::as_str)
        .collect();
    let all = which.is_empty() || which.contains(&"all");
    let run = |name: &str| all || which.contains(&name);

    println!(
        "latte figures harness ({} shapes; see EXPERIMENTS.md for interpretation)",
        if full { "full" } else { "scaled" }
    );
    if run("fig13") {
        fig13(scale);
    }
    if run("fig14") {
        fig14(scale);
    }
    if run("fig15") {
        fig15(scale);
    }
    if run("fig16") {
        fig16(scale);
    }
    if run("fig17") {
        fig17(scale);
    }
    if run("fig18") {
        fig18(scale);
    }
    if run("fig19") {
        fig19(scale);
    }
    if run("fig20") {
        fig20();
    }
    if run("ablations") {
        ablations();
    }
}

/// One standalone VGG convolution group `g` (1-based) as a Latte model
/// and a baseline spec list, with matching shapes.
fn vgg_group(scale: Scale, group: usize) -> (latte_core::dsl::Net, Vec<spec::LayerSpec>, (usize, usize, usize)) {
    let table = [(64usize, 1usize), (128, 1), (256, 2), (512, 2), (512, 2)];
    let ch = |c: usize| (c / scale.div).max(1);
    let input_edge = scale.vgg_input >> (group - 1);
    let in_c = if group == 1 { 3 } else { ch(table[group - 2].0) };
    let (out_c, convs) = table[group - 1];
    conv_group(scale.batch, input_edge, in_c, ch(out_c), convs, group as u64 * 10)
}

/// `convs` 3×3 same convolutions, each followed by a ReLU, then a 2×2
/// max-pool, over an `edge`² × `cin` input: the Latte net, the matching
/// baseline specs, and the `(c, h, w)` input shape. Conv `i` is seeded
/// `seed + i`.
fn conv_group(
    batch: usize,
    edge: usize,
    cin: usize,
    cout: usize,
    convs: usize,
    seed: u64,
) -> (latte_core::dsl::Net, Vec<spec::LayerSpec>, (usize, usize, usize)) {
    use latte_nn::layers::{convolution, data, max_pool, relu, ConvSpec};
    let mut net = latte_core::dsl::Net::new(batch);
    let mut prev = data(&mut net, "data", vec![edge, edge, cin]);
    let mut specs = Vec::new();
    for i in 0..convs {
        let conv = ConvSpec::same(cout, 3);
        let c = convolution(&mut net, &format!("conv{i}"), prev, conv, seed + i as u64);
        prev = relu(&mut net, &format!("relu{i}"), c);
        specs.push(spec::LayerSpec::Conv { out_channels: cout, kernel: 3, stride: 1, pad: 1 });
        specs.push(spec::LayerSpec::ReLU);
    }
    max_pool(&mut net, "pool", prev, 2, 2);
    specs.push(spec::LayerSpec::MaxPool { kernel: 2, stride: 2 });
    (net, specs, (cin, edge, edge))
}

/// Figure 13: effect of individual optimizations on the VGG first-group
/// microbenchmark, as speedup over the Caffe-style baseline.
fn fig13(scale: Scale) {
    let (net, specs, input_shape) = vgg_group(scale, 1);
    let input = seeded(scale.batch * input_shape.0 * input_shape.1 * input_shape.2, 3);

    let mut caffe_net = caffe::build(input_shape, scale.batch, &specs, 1);
    caffe_net.set_input(&input);
    let caffe_t = [
        time_baseline(&mut caffe_net, Pass::Forward, 3),
        time_baseline(&mut caffe_net, Pass::Backward, 3),
        time_baseline(&mut caffe_net, Pass::Both, 3),
    ];

    let variants: Vec<(&str, OptLevel)> = vec![
        ("parallelization", OptLevel::parallel_only()),
        (
            "+pattern match (GEMM)",
            OptLevel::parallel_only().with_pattern_match(true),
        ),
        (
            "+tiling",
            OptLevel::parallel_only()
                .with_pattern_match(true)
                .with_tiling(true),
        ),
        (
            "+fusion",
            OptLevel::parallel_only()
                .with_pattern_match(true)
                .with_tiling(true)
                .with_fusion(true),
        ),
        ("+vectorization (full)", OptLevel::full()),
    ];

    let mut rows = Vec::new();
    for (name, opt) in variants {
        let compiled = compile_or_die(&net, &opt, "vgg group 1");
        if name == "+vectorization (full)" {
            print_compile_stats(&compiled, "VGG group 1 at full");
        }
        let mut exec = executor_or_die(compiled, "vgg group 1");
        exec.set_input("data", &input).expect("input");
        let t = [
            time_latte(&mut exec, Pass::Forward, 3),
            time_latte(&mut exec, Pass::Backward, 3),
            time_latte(&mut exec, Pass::Both, 3),
        ];
        rows.push(vec![
            name.to_string(),
            speedup(caffe_t[0], t[0]),
            speedup(caffe_t[1], t[1]),
            speedup(caffe_t[2], t[2]),
        ]);
    }
    rows.push(vec![
        "(caffe baseline ms)".to_string(),
        format!("{:.2}", caffe_t[0] * 1e3),
        format!("{:.2}", caffe_t[1] * 1e3),
        format!("{:.2}", caffe_t[2] * 1e3),
    ]);
    print_table(
        "Figure 13: per-optimization speedup over Caffe, VGG conv1 group",
        &["variant", "forward", "backward", "fwd+bwd"],
        &rows,
    );
}

fn model_cfg(scale: Scale, input: usize) -> ModelConfig {
    ModelConfig {
        batch: scale.batch,
        input_size: input,
        channel_div: scale.div,
        classes: if scale.div == 1 { 1000 } else { 100 },
        with_loss: true,
        seed: 5,
    }
}

/// Times a full model in Latte (full opt) and a baseline stack; returns
/// `(latte, baseline)` fwd+bwd seconds.
fn time_model_pair(
    scale: Scale,
    model: &models::Model,
    specs: &[spec::LayerSpec],
    input_shape: (usize, usize, usize),
    mocha_backend: bool,
) -> (f64, f64) {
    let compiled = compile_or_die(&model.net, &OptLevel::full(), "model");
    let mut exec = executor_or_die(compiled, "model");
    let n = input_shape.0 * input_shape.1 * input_shape.2;
    let input = seeded(scale.batch * n, 17);
    exec.set_input("data", &input).expect("input");
    let labels: Vec<f32> = (0..scale.batch).map(|i| (i % 10) as f32).collect();
    exec.set_input("label", &labels).expect("labels");
    let latte_t = time_latte(&mut exec, Pass::Both, 3);

    let mut base = if mocha_backend {
        mocha::build(input_shape, scale.batch, specs, 5)
    } else {
        caffe::build(input_shape, scale.batch, specs, 5)
    };
    base.set_input(&input);
    base.set_labels(&labels);
    let base_t = time_baseline(&mut base, Pass::Both, if mocha_backend { 1 } else { 3 });
    (latte_t, base_t)
}

/// `(model, latte_s, baseline_s)` fwd+bwd per batch for the three
/// ImageNet models, against the Caffe-style or the Mocha-style stack.
fn imagenet_pairs(scale: Scale, mocha_backend: bool) -> Vec<(&'static str, f64, f64)> {
    type Build = fn(&ModelConfig) -> models::Model;
    type Specs = fn(usize, usize) -> Vec<spec::LayerSpec>;
    let table: [(&str, usize, Build, Specs); 3] = [
        ("AlexNet", scale.alexnet_input, models::alexnet, spec::alexnet_specs),
        ("OverFeat", scale.overfeat_input, models::overfeat, spec::overfeat_specs),
        ("VGG-A", scale.vgg_input, models::vgg_a, spec::vgg_a_specs),
    ];
    let classes = model_cfg(scale, 0).classes;
    table
        .into_iter()
        .map(|(name, input, build, specs)| {
            let model = build(&model_cfg(scale, input));
            let specs = specs(scale.div, classes);
            let (l, b) = time_model_pair(scale, &model, &specs, (3, input, input), mocha_backend);
            (name, l, b)
        })
        .collect()
}

/// Figure 14: Latte speedup over the Caffe-style baseline on the three
/// ImageNet models.
fn fig14(scale: Scale) {
    let rows: Vec<Vec<String>> = imagenet_pairs(scale, false)
        .into_iter()
        .map(|(name, l, c)| {
            let ms = |t: f64| format!("{:.1} ms", t * 1e3);
            vec![name.into(), speedup(c, l), ms(l), ms(c)]
        })
        .collect();
    print_table(
        "Figure 14: Latte speedup over Caffe (fwd+bwd per batch)",
        &["model", "speedup", "latte", "caffe"],
        &rows,
    );
}

/// Figure 15: per-group breakdown over the first four VGG
/// conv(+conv)+ReLU+pool groups.
fn fig15(scale: Scale) {
    let mut rows = Vec::new();
    for group in 1..=4 {
        let (net, specs, input_shape) = vgg_group(scale, group);
        let input = seeded(
            scale.batch * input_shape.0 * input_shape.1 * input_shape.2,
            group as u32,
        );
        let compiled = compile_or_die(&net, &OptLevel::full(), "vgg group");
        let fusions = compiled.stats.fusions;
        if group == 1 {
            print_compile_stats(&compiled, "VGG group 1 at full");
        }
        let mut exec = executor_or_die(compiled, "vgg group");
        exec.set_input("data", &input).expect("input");
        let latte_t = time_latte(&mut exec, Pass::Both, 3);

        let mut caffe_net = caffe::build(input_shape, scale.batch, &specs, 2);
        caffe_net.set_input(&input);
        let caffe_t = time_baseline(&mut caffe_net, Pass::Both, 3);
        rows.push(vec![
            format!("group {group}"),
            speedup(caffe_t, latte_t),
            format!("{}", fusions),
            format!("{:.1} ms", latte_t * 1e3),
            format!("{:.1} ms", caffe_t * 1e3),
        ]);
    }
    print_table(
        "Figure 15: VGG per-group speedup over Caffe (fwd+bwd)",
        &["group", "speedup", "fusions", "latte", "caffe"],
        &rows,
    );
}

/// Figure 16: Latte speedup over the Mocha-style naive stack.
fn fig16(scale: Scale) {
    // The naive stack is orders of magnitude slower; shrink further.
    let scale = Scale {
        div: (scale.div * 2).max(2),
        batch: 2,
        ..scale
    };
    let rows: Vec<Vec<String>> = imagenet_pairs(scale, true)
        .into_iter()
        .map(|(name, l, m)| vec![name.into(), speedup(m, l)])
        .collect();
    print_table(
        "Figure 16: Latte speedup over Mocha-style naive stack (fwd+bwd)",
        &["model", "speedup"],
        &rows,
    );
}

/// Measures the host workload model for the accelerator simulation.
fn host_workload(scale: Scale) -> WorkloadModel {
    let cfg = model_cfg(scale, scale.alexnet_input);
    let model = models::alexnet(&cfg);
    let compiled = compile_or_die(&model.net, &OptLevel::full(), "alexnet");
    let grad_bytes: f64 = compiled
        .params
        .iter()
        .filter_map(|p| compiled.buffer(&p.value))
        .map(|b| b.shape.len() as f64 * 4.0)
        .sum();
    let mut exec = executor_or_die(compiled, "alexnet");
    let n = 3 * scale.alexnet_input * scale.alexnet_input;
    exec.set_input("data", &seeded(scale.batch * n, 7)).expect("input");
    exec.set_input("label", &vec![0.0; scale.batch]).expect("labels");
    let t = time_latte(&mut exec, Pass::Both, 3);
    WorkloadModel {
        host_seconds_per_item: t / scale.batch as f64,
        input_bytes_per_item: n as f64 * 4.0,
        gradient_bytes: grad_bytes,
    }
}

/// Figure 17: throughput with 0/1/2 simulated coprocessors.
fn fig17(scale: Scale) {
    let workload = host_workload(scale);
    let batch = 256;
    let mut rows = Vec::new();
    let mut base = 0.0;
    for cards in 0..=2 {
        let accels = vec![AcceleratorSpec::phi_like(); cards];
        let mut sched = HeterogeneousScheduler::new(workload, accels);
        let thr = sched.throughput(batch);
        if cards == 0 {
            base = thr;
        }
        rows.push(vec![
            format!("host + {cards} coprocessor(s)"),
            format!("{thr:.1} img/s"),
            format!("{:.2}x", thr / base),
            format!("{:?}", sched.chunks()),
        ]);
    }
    print_table(
        "Figure 17: throughput with simulated Xeon-Phi-like coprocessors",
        &["configuration", "throughput", "vs host", "tuned chunks"],
        &rows,
    );
}

/// Per-layer profiles for the cluster simulations, measured from a real
/// executor run of the scaled VGG model.
fn measured_profiles(_scale: Scale, model: &models::Model) -> Vec<latte_runtime::cluster::LayerProfile> {
    let compiled = compile_or_die(&model.net, &OptLevel::full(), "cluster model");
    // Gradient bytes per forward group, by ensemble membership.
    let mut group_bytes: Vec<(String, f64)> = Vec::new();
    for g in &compiled.forward {
        let mut bytes = 0.0;
        for ens in &g.ensembles {
            for p in &compiled.params {
                if p.value.starts_with(&format!("{ens}.")) {
                    if let Some(b) = compiled.buffer(&p.value) {
                        bytes += b.shape.len() as f64 * 4.0;
                    }
                }
            }
        }
        group_bytes.push((g.name.clone(), bytes));
    }
    let batch = compiled.batch;
    let mut exec = executor_or_die(compiled, "cluster model");
    let dims = model.net.ensemble(model.data).dims().to_vec();
    let n: usize = dims.iter().product();
    exec.set_input("data", &seeded(batch * n, 13)).expect("input");
    let _ = exec.set_input("label", &vec![0.0; batch]);
    let _ = exec.set_input("target", &vec![0.0; batch]);
    exec.forward();
    let fwd = exec.forward_timed();
    let bwd = exec.backward_timed();
    profiles_from_measurements(
        &fwd,
        &bwd,
        batch,
        |name| {
            group_bytes
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, b)| *b)
                .unwrap_or(0.0)
        },
        0.1,
    )
}

/// Analytic `(name, fwd_flops_per_item, params)` rows for a baseline spec
/// list at the published model scale.
fn analytic_layers(
    specs: &[spec::LayerSpec],
    mut shape: (usize, usize, usize),
) -> Vec<(String, f64, f64)> {
    let mut out = Vec::new();
    for (i, s) in specs.iter().enumerate() {
        let next = spec::out_shape(s, shape);
        let (flops, params) = match *s {
            spec::LayerSpec::Conv {
                out_channels,
                kernel,
                ..
            } => {
                let patch = kernel * kernel * shape.0;
                (
                    2.0 * (patch * next.1 * next.2 * out_channels) as f64,
                    (out_channels * patch + out_channels) as f64,
                )
            }
            spec::LayerSpec::Fc { out: o } => {
                let n_in = shape.0 * shape.1 * shape.2;
                (2.0 * (n_in * o) as f64, (n_in * o + o) as f64)
            }
            _ => ((shape.0 * shape.1 * shape.2) as f64, 0.0),
        };
        out.push((format!("layer{i}"), flops, params));
        shape = next;
    }
    out
}

/// Effective per-node throughput assumed for the analytic paper-scale
/// cluster projections (a 36-core Xeon with MKL on conv/FC GEMMs).
const NODE_GFLOPS: f64 = 250.0;

/// Prints scaling figure `fig` twice: (a) over the per-layer profile
/// measured from `model` at the benchmark's scaled size, and (b) over the
/// analytic profile of the full-width net (`specs` on `input`), where
/// communication is substantial (the regime the paper's clusters ran).
fn scaling_figure(
    fig: &str,
    what: &str,
    scale: Scale,
    model: &models::Model,
    (specs, input): (Vec<spec::LayerSpec>, (usize, usize, usize)),
    scaling: impl Fn(&[latte_runtime::cluster::LayerProfile]) -> Vec<(usize, f64, f64)>,
) {
    let analytic = latte_runtime::cluster::analytic_profiles(
        &analytic_layers(&specs, input),
        NODE_GFLOPS,
        2.0,
    );
    for (part, profile, layers) in [
        ("a", "measured scaled profile", measured_profiles(scale, model)),
        ("b", "analytic full-scale profile", analytic),
    ] {
        let rows: Vec<Vec<String>> = scaling(&layers)
            .into_iter()
            .map(|(n, thr, eff)| {
                vec![n.to_string(), format!("{thr:.1} img/s"), format!("{:.1}%", eff * 100.0)]
            })
            .collect();
        print_table(
            &format!("Figure {fig}{part}: {what} ({profile})"),
            &["nodes", "throughput", "efficiency vs linear"],
            &rows,
        );
    }
}

/// Figure 18: Cori-style strong scaling (fixed global batch 512, VGG).
fn fig18(scale: Scale) {
    scaling_figure(
        "18",
        "strong scaling, VGG, global batch 512",
        scale,
        &models::vgg_a(&model_cfg(scale, scale.vgg_input)),
        (spec::vgg_a_specs(1, 1000), (3, 224, 224)),
        |layers| strong_scaling(NetworkModel::aries_like(), layers, 512, &[1, 2, 4, 8, 16, 32, 64]),
    );
}

/// Figure 19: commodity-cluster weak scaling (batch 64/node, AlexNet).
fn fig19(scale: Scale) {
    scaling_figure(
        "19",
        "weak scaling, AlexNet, batch 64/node",
        scale,
        &models::alexnet(&model_cfg(scale, scale.alexnet_input)),
        (spec::alexnet_specs(1, 1000), (3, 227, 227)),
        |layers| weak_scaling(NetworkModel::infiniband_like(), layers, 64, &[1, 2, 4, 8, 16, 32]),
    );
}

/// Figure 20: MNIST top-1 accuracy, lossy vs sequential gradients.
fn fig20() {
    let worker_batch = 16;
    let train = synthetic_mnist(2048, 3);
    let test = synthetic_mnist(512, 77);
    let cfg = ModelConfig {
        batch: worker_batch,
        input_size: 28 * 28,
        channel_div: 1,
        classes: 10,
        with_loss: true,
        seed: 31,
    };

    let run = |workers: usize, sync: GradSync| -> f32 {
        let mut trainer = DataParallelTrainer::new(
            || {
                compile_or_die(
                    &models::mlp(&cfg, &[128, 64]).net,
                    &OptLevel::full(),
                    "mnist mlp",
                )
            },
            DataParallelConfig {
                workers,
                sync,
                lr: 0.02,
                momentum: 0.9,
            },
        )
        .expect("trainer");
        let mut sources: Vec<MemoryDataSource> = (0..workers)
            .map(|w| {
                let shard: Vec<_> = train.iter().skip(w).step_by(workers).cloned().collect();
                MemoryDataSource::try_new("data", "label", shard, worker_batch).unwrap()
            })
            .collect();
        for _epoch in 0..4 {
            for s in &mut sources {
                s.reset();
            }
            loop {
                let shards: Option<Vec<_>> =
                    sources.iter_mut().map(|s| s.next_batch().expect("batch")).collect();
                match shards {
                    Some(shards) => {
                        trainer.step(&shards).expect("step");
                    }
                    None => break,
                }
            }
        }
        trainer
            .accuracy("data", "ip_out.value", &test)
            .expect("accuracy")
    };

    let lossy = run(4, GradSync::Lossy);
    let sequential = run(1, GradSync::Synchronized);
    let rows = vec![
        vec!["Goodfellow et al. (paper ref)".into(), "99.55%".into()],
        vec!["Adam (paper ref)".into(), "99.63%".into()],
        vec![
            "Latte (lossy, 4 workers)".into(),
            format!("{:.2}%", lossy * 100.0),
        ],
        vec![
            "Latte (sequential)".into(),
            format!("{:.2}%", sequential * 100.0),
        ],
    ];
    print_table(
        "Figure 20: MNIST-like top-1 accuracy (synthetic dataset)",
        &["system", "top-1"],
        &rows,
    );
    println!(
        "lossy == sequential (paper: both 99.20%): Δ = {:.3}%",
        (lossy - sequential).abs() * 100.0
    );
}

/// A net to ablate: the Latte model, its input feeds, and (for conv
/// blocks) the matching baseline layer specs and `(c, h, w)` input.
struct Workload {
    net: latte_core::dsl::Net,
    batch: usize,
    feeds: Vec<(&'static str, Vec<f32>)>,
    baseline: Option<(Vec<spec::LayerSpec>, (usize, usize, usize))>,
}

/// A 3×3 same conv + ReLU + 2×2 max-pool block at batch 4.
fn conv_block(h: usize, cin: usize, cout: usize) -> Workload {
    let (net, specs, shape) = conv_group(4, h, cin, cout, 1, 1);
    Workload {
        net,
        batch: 4,
        feeds: vec![("data", seeded(4 * h * h * cin, 3))],
        baseline: Some((specs, shape)),
    }
}

/// The 128-128-64-10 MLP with a softmax loss at batch 8.
fn mlp_workload() -> Workload {
    let cfg = ModelConfig {
        batch: 8,
        input_size: 128,
        channel_div: 1,
        classes: 10,
        with_loss: true,
        seed: 4,
    };
    Workload {
        net: models::mlp(&cfg, &[128, 64]).net,
        batch: cfg.batch,
        feeds: vec![("data", seeded(8 * 128, 5)), ("label", vec![0.0; 8])],
        baseline: None,
    }
}

/// One side of an ablation.
enum Variant {
    Latte(OptLevel),
    Caffe,
    Mocha,
}

/// Seconds per `pass` of `variant` on `w`.
fn time_variant(w: &Workload, pass: Pass, variant: &Variant) -> f64 {
    if let Variant::Latte(opt) = variant {
        let mut exec = executor_or_die(compile_or_die(&w.net, opt, "ablation"), "ablation");
        for (name, values) in &w.feeds {
            exec.set_input(name, values).expect("input");
        }
        return time_latte(&mut exec, pass, 3);
    }
    let (specs, shape) = w.baseline.as_ref().expect("baseline stacks run conv blocks only");
    let mut base = match variant {
        Variant::Caffe => caffe::build(*shape, w.batch, specs, 1),
        _ => mocha::build(*shape, w.batch, specs, 1),
    };
    base.set_input(&w.feeds[0].1);
    time_baseline(&mut base, pass, 3)
}

/// The compiler ablations: one row per design choice, each variant timed
/// on the same workload; the last column gives the first variant's
/// speedup over each of the others.
fn ablations() {
    let full = OptLevel::full;
    let latte = |label: &str, opt: OptLevel| (label.to_string(), Variant::Latte(opt));
    let toggle = |on: &str, off: &str, opt: OptLevel| vec![latte(on, full()), latte(off, opt)];
    let (big, small) = (|| conv_block(32, 8, 16), || conv_block(16, 4, 8));
    let tiles = [1, 2, 4, 8, 16].map(|t| latte(&format!("tile{t}"), full().with_tile_size(t)));
    let stacks = vec![
        latte("latte", full()),
        ("caffe".into(), Variant::Caffe),
        ("mocha".into(), Variant::Mocha),
    ];
    let table = vec![
        ("fusion", Pass::Both, big(), toggle("fused", "unfused", full().with_fusion(false))),
        (
            "shared buffers",
            Pass::Forward,
            small(),
            toggle("shared", "duplicated", full().with_shared_buffers(false)),
        ),
        (
            "vectorize",
            Pass::Forward,
            small(),
            toggle("native", "interpreted", full().with_vectorize(false)),
        ),
        ("tile size", Pass::Both, big(), Vec::from(tiles)),
        (
            "pattern match",
            Pass::Both,
            mlp_workload(),
            toggle("gemm", "loops", full().with_pattern_match(false)),
        ),
        ("stacks", Pass::Forward, small(), stacks),
    ];
    let mut rows = Vec::new();
    for (name, pass, workload, variants) in &table {
        let times: Vec<(&str, f64)> = variants
            .iter()
            .map(|(label, v)| (label.as_str(), time_variant(workload, *pass, v)))
            .collect();
        let (first, t_first) = times[0];
        let others: Vec<String> = times[1..]
            .iter()
            .map(|&(label, t)| format!("{label} {:.3} ms ({})", t * 1e3, speedup(t, t_first)))
            .collect();
        let pass = match pass {
            Pass::Forward => "fwd",
            Pass::Backward => "bwd",
            Pass::Both => "fwd+bwd",
        };
        rows.push(vec![
            name.to_string(),
            pass.to_string(),
            format!("{first} {:.3} ms", t_first * 1e3),
            others.join(", "),
        ]);
    }
    print_table(
        "Ablations: one design choice at a time",
        &["ablation", "pass", "first variant", "others (first's speedup over each)"],
        &rows,
    );
}
