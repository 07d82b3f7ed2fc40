//! Per-layer probes: timed calls into each module's public functions,
//! made from the benchmark's own code (the program is not
//! instrumented).

use crate::stats;
use rapidnn::baselines::GemmMlp;
use rapidnn::gateway::{HttpReader, Limits, ReadOutcome, Registry, RegistryConfig, Response};
use rapidnn::serve::{BatchRunner, CompiledModel};
use rapidnn::tensor::SeededRng;
use std::hint::black_box;
use std::io::Cursor;
use std::time::Instant;

/// Median over `rounds` of the mean time (µs) of `calls` calls of `f`.
pub fn median_us(rounds: usize, calls: usize, mut f: impl FnMut()) -> f64 {
    f();
    let per_round: Vec<f64> = (0..rounds)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                f();
            }
            t.elapsed().as_secs_f64() * 1e6 / calls as f64
        })
        .collect();
    stats::median(&per_round)
}

/// `HttpReader::next_request` per request (µs), replaying `request`
/// pipelined `calls` deep from memory.
pub fn http_parse_us(request: &[u8]) -> f64 {
    const CALLS: usize = 256;
    let stream: Vec<u8> = request.repeat(CALLS);
    let rounds: Vec<f64> = (0..9)
        .map(|_| {
            // Nothing is written back: a cursor stands in for the socket.
            let mut reader = HttpReader::new(Cursor::new(stream.clone()));
            let t = Instant::now();
            for _ in 0..CALLS {
                let outcome = reader.next_request(Limits::default());
                assert!(
                    matches!(outcome, ReadOutcome::Request(_)),
                    "replayed request must parse"
                );
                black_box(outcome);
            }
            t.elapsed().as_secs_f64() * 1e6 / CALLS as f64
        })
        .collect();
    stats::median(&rounds)
}

/// `Response::write_to` per response (µs) for an inference answer with
/// `body`, and the bytes it puts on the wire.
pub fn http_write_us(body: &[u8]) -> (f64, usize) {
    let response = Response::bytes(200, body.to_vec()).header("x-model-generation", "0");
    let mut wire = Vec::new();
    response
        .write_to(&mut wire, true)
        .expect("writing to memory succeeds");
    let us = median_us(9, 512, || {
        response
            .write_to(&mut std::io::sink(), true)
            .expect("writing to a sink succeeds");
    });
    (us, wire.len())
}

/// `BatchRunner::run` time per row (ns) at `batch` rows.
pub fn kernel_ns_per_row(model: &CompiledModel, rows: &[Vec<f32>], batch: usize) -> f64 {
    let input: Vec<f32> = rows.iter().cycle().take(batch).flatten().copied().collect();
    let mut runner = BatchRunner::for_model(model, batch);
    let mut out = Vec::new();
    let calls = (4096 / batch).max(8);
    let us = median_us(9, calls, || {
        runner
            .run(model, black_box(&input), &mut out)
            .expect("kernel runs on a valid batch");
        black_box(&out);
    });
    us * 1e3 / batch as f64
}

/// Dense f32 GEMM (`GemmMlp::forward_batch`) over `model`'s dense layer
/// shapes, time per row (ns) at `batch` rows.
pub fn gemm_ns_per_row(model: &CompiledModel, rows: &[Vec<f32>], batch: usize) -> f64 {
    let mut gemm = GemmMlp::from_shapes(&model.dense_shapes(), &mut SeededRng::new(7));
    let input: Vec<f32> = rows.iter().cycle().take(batch).flatten().copied().collect();
    let mut out = Vec::new();
    let calls = (4096 / batch).max(8);
    let us = median_us(9, calls, || {
        let n = gemm.forward_batch(black_box(&input), &mut out);
        assert_eq!(n, batch, "gemm runs every row");
        black_box(&out);
    });
    us * 1e3 / batch as f64
}

/// Artifact and analyzer costs of serving `bytes` under the given flags.
pub struct ArtifactCosts {
    /// Serialized size as uploaded.
    pub bytes: usize,
    /// `CompiledModel::from_bytes_strict` (µs).
    pub decode_us: f64,
    /// `CompiledModel::analyze` (µs).
    pub verify_us: f64,
    /// `CompiledModel::optimize` (µs).
    pub optimize_us: f64,
    /// Serialized size after the certified optimizer.
    pub optimized_bytes: usize,
    /// `CompiledModel::quantize` (µs).
    pub quantize_us: f64,
}

/// Times the load path a `PUT` runs before its engine starts.
pub fn artifact_costs(bytes: &[u8]) -> ArtifactCosts {
    let model = CompiledModel::from_bytes_strict(bytes).expect("artifact decodes strictly");
    let decode_us = median_us(5, 4, || {
        black_box(CompiledModel::from_bytes_strict(black_box(bytes)).expect("decodes"));
    });
    let verify_us = median_us(5, 4, || {
        black_box(model.analyze());
    });
    let optimize_us = median_us(5, 2, || {
        black_box(model.optimize().expect("optimizes"));
    });
    let optimized = model.optimize().expect("optimizes").0;
    let quantize_us = median_us(5, 2, || {
        let mut m = optimized.clone();
        black_box(m.quantize().expect("quantizes"));
    });
    ArtifactCosts {
        bytes: bytes.len(),
        decode_us,
        verify_us,
        optimize_us,
        optimized_bytes: optimized.to_bytes().len(),
        quantize_us,
    }
}

/// `Registry::put_artifact` hot-swap times (ms) for `bytes` under the
/// given flags, on an otherwise idle registry with the shipped
/// configuration.
pub fn registry_swaps_ms(
    bytes: &[u8],
    quantize: bool,
    stages: Option<usize>,
    optimize: bool,
    swaps: usize,
) -> Vec<f64> {
    let registry = Registry::new(RegistryConfig::default());
    registry
        .put_artifact("probe", bytes, quantize, stages, optimize)
        .expect("probe model registers");
    let times: Vec<f64> = (0..swaps)
        .map(|_| {
            let t = Instant::now();
            registry
                .put_artifact("probe", bytes, quantize, stages, optimize)
                .expect("probe model hot-swaps");
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    registry.shutdown();
    times
}

/// Peak resident set (MiB) from `VmHWM` in `/proc/self/status`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Machine-wide CPU time counters (jiffies) from the first line of
/// `/proc/stat`: `(steal, total)`.
pub fn cpu_counters() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}
