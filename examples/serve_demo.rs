//! End-to-end serving demo: train and compose a model with the pipeline,
//! compile it to a flat artifact, round-trip it through disk, then serve
//! it under concurrent load and compare every response against direct
//! pipeline inference.
//!
//! Run with: `cargo run --release --example serve_demo`
//!
//! This demo drives an [`Engine`] in-process. To serve models over the
//! network — multiple named models, admission control, verified
//! hot-swap — see `examples/gateway_demo.rs` and the `rapidnn-gateway`
//! crate.

use rapidnn::serve::{BatchRunner, CompiledModel, Engine, EngineConfig};
use rapidnn::tensor::SeededRng;
use rapidnn::{Pipeline, PipelineConfig};
use std::sync::Arc;
use std::time::Duration;

const CLIENTS: usize = 16;
const REQUESTS_PER_CLIENT: usize = 16;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = SeededRng::new(42);

    println!("== 1. train + compose (MNIST-like benchmark, reduced) ==");
    let config = PipelineConfig::tiny_for_tests();
    let report = Pipeline::new(config).run(&mut rng)?;
    println!(
        "composed {:?}: baseline error {:.3}, encoded error {:.3} (Δe {:+.3})",
        report.benchmark,
        report.compose.baseline_error,
        report.compose.final_error,
        report.compose.delta_e,
    );

    println!("\n== 2. compile to a flat artifact ==");
    let compiled = report.compile()?;
    println!(
        "{} ops over {} pool bytes; {} -> {} features",
        compiled.op_count(),
        compiled.pool_bytes(),
        compiled.input_features(),
        compiled.output_features(),
    );

    println!("\n== 3. save / reload ==");
    let path = std::env::temp_dir().join(format!("rapidnn-demo-{}.rnna", std::process::id()));
    compiled.save(&path)?;
    let artifact_bytes = std::fs::metadata(&path)?.len();
    let served_model = CompiledModel::load_strict(&path)?;
    std::fs::remove_file(&path).ok();
    assert_eq!(served_model, compiled);
    println!("artifact is {artifact_bytes} bytes on disk; reload verified identical");

    println!("\n== 4. batched kernel inference ==");
    // One reusable scratch arena runs whole batches with zero heap
    // allocation per sample in the steady state; outputs stay
    // bit-for-bit identical to the per-sample path.
    let features = served_model.input_features();
    let batch_rows = 32.min(report.validation.len());
    let batch: Vec<f32> = (0..batch_rows)
        .flat_map(|i| report.validation.sample(i).into_vec())
        .collect();
    let mut runner = BatchRunner::for_model(&served_model, batch_rows);
    let mut logits = Vec::new();
    let ran = runner.run(&served_model, &batch, &mut logits)?;
    for (row, chunk) in batch.chunks(features).enumerate() {
        let single = served_model.infer(chunk)?;
        let width = single.len();
        assert_eq!(
            logits[row * width..(row + 1) * width],
            single[..],
            "batched row diverged from single-sample inference"
        );
    }
    println!("ran {ran} rows in one batched call, bit-identical to per-sample inference");

    println!(
        "\n== 5. serve {} concurrent requests ==",
        CLIENTS * REQUESTS_PER_CLIENT
    );
    let engine = Arc::new(Engine::start(
        served_model,
        EngineConfig {
            workers: 0, // size to available parallelism
            queue_capacity: 512,
            max_batch_size: 16,
            max_wait: Duration::from_micros(200),
            ..EngineConfig::default()
        },
    ));
    println!("engine started with {} workers", engine.worker_count());

    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let engine = Arc::clone(&engine);
            let validation = report.validation.clone();
            std::thread::spawn(move || {
                let mut answered = Vec::with_capacity(REQUESTS_PER_CLIENT);
                for r in 0..REQUESTS_PER_CLIENT {
                    let idx = (c * REQUESTS_PER_CLIENT + r) % validation.len();
                    let input = validation.sample(idx).into_vec();
                    let ticket = engine.submit(input.clone()).expect("submit");
                    answered.push((input, ticket.wait().expect("response")));
                }
                answered
            })
        })
        .collect();

    let mut served = 0usize;
    for client in clients {
        for (input, output) in client.join().expect("client thread") {
            let expected = report
                .compose
                .reinterpreted
                .infer_sample(&input)
                .expect("pipeline inference");
            assert_eq!(output, expected, "served logits diverged from pipeline");
            served += 1;
        }
    }
    println!("served {served} requests, all bit-identical to pipeline inference");

    let engine = Arc::into_inner(engine).expect("clients joined");
    let stats = engine.shutdown();
    println!("\n== 6. server stats ==");
    println!("{stats}");
    assert_eq!(stats.completed, served as u64);
    assert!(stats.throughput_rps > 0.0);
    Ok(())
}
