//! Weight-stationary GEMM operands: lowering marks every per-item conv
//! GEMM whose `B` is a read-only weight (forward `Wᵀ`, backward-data
//! `W`) so each group run packs it once, nets without such GEMMs get no
//! packed scratch, and a pool re-blocked between runs packs under its new
//! blocking — bit-identical to an executor built with it.

use latte_core::dsl::Net;
use latte_core::{compile, CompiledNet, OptLevel};
use latte_ir::{BufferKind, Stmt};
use latte_nn::layers::{data, fully_connected, softmax_loss};
use latte_nn::models::{lenet, mlp, vgg_a, ModelConfig};
use latte_nn::rnn::lstm;
use latte_runtime::pool::WorkerPool;
use latte_runtime::registry::KernelRegistry;
use latte_runtime::{CompiledProgram, ExecConfig, Executor};
use latte_tensor::gemm::{Gemm, Transpose};

fn seeded(len: usize, seed: u32) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let h = (i as u32).wrapping_mul(2654435761).wrapping_add(seed);
            ((h >> 8) % 1000) as f32 / 500.0 - 1.0
        })
        .collect()
}

fn lowered(net: CompiledNet) -> CompiledProgram {
    let cfg = ExecConfig {
        threads: 1,
        arena: false,
        gemm_blocking: None,
    };
    CompiledProgram::lower(net, &KernelRegistry::with_builtins(), cfg).expect("lower")
}

/// Per-item GEMMs (nested in a tile loop) multiplying by a parameter
/// with a shape that packs `B`: the set the lowering must mark.
fn expected_stationary(net: &CompiledNet) -> usize {
    fn walk(net: &CompiledNet, stmts: &[Stmt], in_loop: bool) -> usize {
        stmts
            .iter()
            .map(|s| match s {
                Stmt::For(l) => walk(net, &l.body, true),
                Stmt::Gemm(g) => {
                    let param = net.buffer(&g.b).map(|d| d.kind) == Some(BufferKind::Param);
                    let ta = if g.ta { Transpose::Yes } else { Transpose::No };
                    usize::from(in_loop && param && Gemm::packs_b(ta, g.n))
                }
                _ => 0,
            })
            .sum()
    }
    net.forward
        .iter()
        .chain(&net.backward)
        .map(|g| walk(net, &g.stmts, false))
        .sum()
}

#[test]
fn vgg_a_marks_every_packable_conv_weight_gemm_stationary() {
    let cfg = ModelConfig {
        batch: 2,
        input_size: 32,
        channel_div: 4,
        classes: 10,
        ..Default::default()
    };
    let net = compile(&vgg_a(&cfg).net, &OptLevel::full()).expect("compile");
    let expected = expected_stationary(&net);
    // conv3_1..conv5_2 forward (n = 64 or 128 output channels) and
    // conv2_1..conv5_2 backward-data (n = 9 × input channels ≥ 144);
    // conv1_1/conv2_1 forward are narrow (n ≤ 32) and conv1_1 has no
    // data gradient.
    assert_eq!(expected, 13, "VGG-A's packable conv GEMMs");
    let program = lowered(net);
    assert_eq!(program.plan().stationary_gemms(), expected);
    assert!(program.plan().packed_scratch_elements() > 0);
}

#[test]
fn mlp_and_lstm_plans_get_no_packed_scratch() {
    let cfg = ModelConfig {
        batch: 4,
        input_size: 20,
        ..Default::default()
    };
    let mlp_net = compile(&mlp(&cfg, &[48, 40]).net, &OptLevel::full()).expect("compile");

    let mut step = Net::new(3);
    let x = data(&mut step, "x", vec![6]);
    lstm(&mut step, "lstm", x, 40, 19);
    let mut unrolled = step.unroll(3);
    let h = unrolled.find("lstm_h@t2").expect("final hidden state");
    let head = fully_connected(&mut unrolled, "head", h, 3, 20);
    let label = data(&mut unrolled, "label", vec![1]);
    softmax_loss(&mut unrolled, "loss", head, label);
    let lstm_net = compile(&unrolled, &OptLevel::full()).expect("compile");

    for (name, net) in [("mlp", mlp_net), ("lstm", lstm_net)] {
        let program = lowered(net);
        assert_eq!(
            program.plan().stationary_gemms(),
            0,
            "{name}: whole-batch GEMMs only"
        );
        assert_eq!(program.plan().packed_scratch_elements(), 0, "{name}");
    }
}

/// One forward + backward; returns the loss, the logits and every
/// parameter gradient, as bits.
fn step_bits(exec: &mut Executor, batch: usize) -> Vec<u32> {
    exec.set_input("data", &seeded(batch * 28 * 28, 3))
        .expect("data");
    exec.set_input(
        "label",
        &(0..batch).map(|i| (i % 10) as f32).collect::<Vec<_>>(),
    )
    .expect("label");
    exec.forward();
    exec.backward();
    let mut bits = vec![exec.loss().to_bits()];
    for p in exec.params().to_vec() {
        bits.extend(
            exec.read_buffer(&p.grad)
                .expect("grad")
                .iter()
                .map(|v| v.to_bits()),
        );
    }
    bits
}

#[test]
fn reconfigured_pool_matches_fresh_executor_with_that_blocking() {
    let batch = 4;
    let cfg = ModelConfig {
        batch,
        input_size: 28,
        channel_div: 1,
        classes: 10,
        ..Default::default()
    };
    let net = compile(&lenet(&cfg).net, &OptLevel::full()).expect("compile");
    let program = lowered(net.clone());
    assert!(
        program.plan().stationary_gemms() > 0,
        "lenet conv2 packs its weights"
    );

    // kc = 128 changes the k-blocking, so a stale pack would either be
    // refused or change bits.
    let blocking = (128, 256, 32);
    let pool = std::sync::Arc::new(WorkerPool::new(2));
    let mut reblocked = program
        .instantiate(std::sync::Arc::clone(&pool))
        .expect("instantiate");
    step_bits(&mut reblocked, batch);
    pool.reconfigure_gemm(Some(blocking))
        .expect("valid blocking");
    let got = step_bits(&mut reblocked, batch);

    let fresh_cfg = ExecConfig {
        threads: 2,
        arena: false,
        gemm_blocking: Some(blocking),
    };
    let mut fresh =
        Executor::with_registry(net, &KernelRegistry::with_builtins(), fresh_cfg).expect("lower");
    let want = step_bits(&mut fresh, batch);
    assert_eq!(got.len(), want.len());
    let diff = got.iter().zip(&want).position(|(a, b)| a != b);
    assert_eq!(diff, None, "first differing value at {diff:?}");
}
