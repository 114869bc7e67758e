//! Per-group profiling aid: prints where Latte spends time on the VGG
//! group-1 microbenchmark, against the Caffe baseline total.

use latte_baselines::caffe;
use latte_baselines::spec::LayerSpec;
use latte_bench::{compile_or_die, executor_or_die, measure, seeded, time_baseline, Pass};
use latte_core::OptLevel;
use latte_nn::layers::{convolution, data, max_pool, relu, ConvSpec};
use latte_tensor::gemm::{Gemm, Transpose};

fn main() {
    gemm_probe();
    let (h, cin, cout, batch) = (32usize, 3usize, 8usize, 4usize);
    let mut net = latte_core::dsl::Net::new(batch);
    let d = data(&mut net, "data", vec![h, h, cin]);
    let c = convolution(&mut net, "conv0", d, ConvSpec::same(cout, 3), 1);
    let r = relu(&mut net, "relu0", c);
    max_pool(&mut net, "pool", r, 2, 2);

    for (tag, opt) in [
        ("full", OptLevel::full()),
        ("nofuse", OptLevel::full().with_fusion(false)),
        ("notile", OptLevel::full().with_fusion(false).with_tiling(false)),
    ] {
        let compiled = compile_or_die(&net, &opt, "micro");
        let mut exec = executor_or_die(compiled, "micro");
        exec.set_input("data", &seeded(batch * h * h * cin, 3)).unwrap();
        exec.forward();
        // Average over many runs.
        let mut acc: Vec<(String, f64)> = Vec::new();
        let reps = 50;
        for _ in 0..reps {
            let timed = exec.forward_timed().into_iter().chain(exec.backward_timed());
            for (i, (n, t)) in timed.enumerate() {
                if acc.len() <= i {
                    acc.push((n, 0.0));
                }
                acc[i].1 += t;
            }
        }
        println!("== latte [{tag}] (ms per pass) ==");
        for (n, t) in &acc {
            println!("  {:<40} {:.3}", n, t / reps as f64);
        }
    }

    let specs = [
        LayerSpec::Conv { out_channels: cout, kernel: 3, stride: 1, pad: 1 },
        LayerSpec::ReLU,
        LayerSpec::MaxPool { kernel: 2, stride: 2 },
    ];
    let mut base = caffe::build((cin, h, h), batch, &specs, 1);
    base.set_input(&seeded(batch * h * h * cin, 3));
    println!(
        "caffe: fwd {:.3} ms, bwd {:.3} ms",
        time_baseline(&mut base, Pass::Forward, 5) * 1e3,
        time_baseline(&mut base, Pass::Backward, 5) * 1e3
    );
}

fn gemm_probe() {
    println!("== raw gemm probes ==");
    for (name, ta, tb, m, n, k) in [
        ("latte-conv-fwd (NT)", Transpose::No, Transpose::Yes, 1024, 8, 27),
        ("caffe-conv-fwd (NN)", Transpose::No, Transpose::No, 8, 1024, 27),
        ("latte-conv-bwd-w (TN)", Transpose::Yes, Transpose::No, 8, 27, 1024),
        ("latte-conv-bwd-d (NN)", Transpose::No, Transpose::No, 1024, 27, 8),
        ("big square", Transpose::No, Transpose::No, 256, 256, 256),
    ] {
        let (a, b) = (vec![1.0f32; m * k], vec![1.0f32; k * n]);
        let mut c = vec![0.0f32; m * n];
        let mut g = Gemm::new();
        let s = measure(20, || g.compute(ta, tb, m, n, k, &a, &b, &mut c));
        println!(
            "  gemm {name}: m={m} n={n} k={k} -> {:.1} us, {:.2} GFLOPS",
            s * 1e6,
            2.0 * (m * n * k) as f64 / s / 1e9
        );
    }
}
