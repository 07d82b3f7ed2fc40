//! Artifact cost in the one format (v2, bit-packed zero-copy code
//! streams): serialized size and cold-start cost — strict load
//! (`from_bytes_strict`: decode plus analysis) and the first inference —
//! then the certified optimizer over a dead-row-injected copy of the
//! model, recording how many bytes the translation-validated compaction
//! wins back plus the table-gather throughput before/after. Writes
//! `BENCH_artifact.json` at the repo root (with the machine's core
//! count) so successive changes can track the format's size/latency
//! trajectory.
//!
//! Set `BENCH_ARTIFACT_QUICK=1` to shrink the workload for CI smoke
//! runs.

use rapidnn::analyze::{inject_dead_rows, Pass, Program};
use rapidnn::serve::CompiledModel;
use rapidnn::tensor::SeededRng;
use rapidnn::{Pipeline, PipelineConfig};
use std::path::Path;
use std::time::Instant;

fn main() {
    let quick = std::env::var_os("BENCH_ARTIFACT_QUICK").is_some();
    let loads = if quick { 20 } else { 200 };

    eprintln!("building tiny MNIST pipeline...");
    let mut rng = SeededRng::new(42);
    let report = Pipeline::new(PipelineConfig::tiny_for_tests())
        .run(&mut rng)
        .expect("tiny pipeline runs");
    let model = report.compile().expect("tiny model compiles");
    let features = model.input_features();
    let input: Vec<f32> = (0..features).map(|_| rng.uniform(-1.0, 1.0)).collect();

    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let v2 = model.to_bytes();

    // The loaded artifact must agree bit-for-bit with the in-memory
    // model before timing anything.
    let loaded = CompiledModel::from_bytes_strict(&v2)
        .unwrap()
        .infer(&input)
        .unwrap();
    assert_eq!(
        loaded,
        model.infer(&input).unwrap(),
        "v2 inference diverged"
    );

    let cold_v2 = cold_start_us(&v2, &input, loads);

    // Certified optimizer: pad the model with provably dead table rows
    // (forcing the packed code width up), then measure what the
    // translation-validated compaction wins back and what the smaller
    // tables do to gather throughput.
    eprintln!("running the certified optimizer over a dead-padded model...");
    let program = Program::from_reinterpreted(&report.compose.reinterpreted);
    let padded = inject_dead_rows(&program, 9);
    let padded_model = CompiledModel::from_program(&padded).expect("padded model compiles");
    let (opt_model, cert) = padded_model.optimize().expect("optimizer certifies");
    let padded_bytes = padded_model.to_bytes();
    let opt_bytes = opt_model.to_bytes();
    assert!(
        opt_bytes.len() < padded_bytes.len(),
        "optimizer must shrink"
    );
    assert_eq!(
        model.infer(&input).unwrap(),
        CompiledModel::from_bytes_strict(&opt_bytes)
            .unwrap()
            .infer(&input)
            .unwrap(),
        "optimized model diverged from the unpadded source"
    );
    let opt_ratio = padded_bytes.len() as f64 / opt_bytes.len() as f64;
    let infers = if quick { 200 } else { 2000 };
    let gather_before = infer_us(&padded_model, &input, infers);
    let gather_after = infer_us(&opt_model, &input, infers);

    println!("artifact v2 (packed)  {:>10} bytes", v2.len());
    println!("load+first-infer v2   {cold_v2:>10.1} us");
    println!("dead-padded v2        {:>10} bytes", padded_bytes.len());
    println!(
        "optimized v2          {:>10} bytes  ({opt_ratio:.2}x smaller, {} rows removed)",
        opt_bytes.len(),
        cert.removed(Pass::RowCompaction)
    );
    println!("gather before/after   {gather_before:>10.1} / {gather_after:.1} us per infer");

    let json = format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"artifact\",\n",
            "  \"pipeline\": \"mnist-tiny\",\n",
            "  \"cores\": {cores},\n",
            "  \"quick\": {quick},\n",
            "  \"v2_bytes\": {v2_bytes},\n",
            "  \"v2_load_first_infer_us\": {cold_v2:.1},\n",
            "  \"optimizer\": {{\n",
            "    \"padded_v2_bytes\": {padded_bytes},\n",
            "    \"optimized_v2_bytes\": {opt_bytes},\n",
            "    \"size_ratio\": {opt_ratio:.3},\n",
            "    \"dead_entries_removed\": {dead_entries},\n",
            "    \"rows_removed\": {rows},\n",
            "    \"columns_removed\": {cols},\n",
            "    \"lut_rows_removed\": {lut_rows},\n",
            "    \"gather_before_us\": {gather_before:.2},\n",
            "    \"gather_after_us\": {gather_after:.2}\n",
            "  }}\n",
            "}}\n"
        ),
        cores = cores,
        quick = quick,
        v2_bytes = v2.len(),
        cold_v2 = cold_v2,
        padded_bytes = padded_bytes.len(),
        opt_bytes = opt_bytes.len(),
        opt_ratio = opt_ratio,
        dead_entries = cert.removed(Pass::DeadEntryElimination),
        rows = cert.removed(Pass::RowCompaction),
        cols = cert.removed(Pass::ColumnCompaction),
        lut_rows = cert.removed(Pass::LutPruning),
        gather_before = gather_before,
        gather_after = gather_after,
    );
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_artifact.json");
    std::fs::write(&path, json).expect("write BENCH_artifact.json");
    eprintln!("wrote {}", path.display());
}

/// Mean microseconds from raw bytes to the first inference result:
/// the latency a cold worker pays before serving its first request.
fn cold_start_us(bytes: &[u8], input: &[f32], loads: usize) -> f64 {
    let start = Instant::now();
    for _ in 0..loads {
        let model = CompiledModel::from_bytes_strict(std::hint::black_box(bytes)).unwrap();
        std::hint::black_box(model.infer(input).unwrap());
    }
    start.elapsed().as_secs_f64() * 1e6 / loads as f64
}

/// Mean microseconds per warm inference: dominated by the table-gather
/// kernels, so table size shows up directly.
fn infer_us(model: &CompiledModel, input: &[f32], infers: usize) -> f64 {
    std::hint::black_box(model.infer(input).unwrap());
    let start = Instant::now();
    for _ in 0..infers {
        std::hint::black_box(model.infer(std::hint::black_box(input)).unwrap());
    }
    start.elapsed().as_secs_f64() * 1e6 / infers as f64
}
