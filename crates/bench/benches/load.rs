//! Open-loop load/SLO harness for the serving engine: Poisson arrivals
//! at configured offered rates against unsharded and pipeline-sharded
//! engines over the same deep compiled model.
//!
//! Unlike the closed-loop round-trips in `serve.rs` (clients wait for
//! replies, so the system sets its own pace), this harness submits on a
//! Poisson clock regardless of how the engine is doing — the open-loop
//! regime where queueing delay and shedding actually show up. Each
//! (engine config × offered rate) cell records achieved throughput,
//! client-observed p50/p99 latency, shed count (`try_submit` hitting the
//! bounded queue), and a pass/fail verdict against a per-config SLO
//! calibrated at light load. Writes `BENCH_load.json` at the repo root.
//!
//! Set `BENCH_LOAD_QUICK=1` to shrink the workload for CI smoke runs.

use rapidnn::composer::{ReinterpretOptions, ReinterpretedNetwork};
use rapidnn::data::SyntheticSpec;
use rapidnn::nn::{Activation, ActivationLayer, Dense, Network};
use rapidnn::serve::{CompiledModel, Engine, EngineConfig, ServeError, Ticket};
use rapidnn::tensor::SeededRng;
use std::path::Path;
use std::sync::mpsc;
use std::time::{Duration, Instant};

const FEATURES: usize = 16;
/// Hidden layers in the deep MLP (9 dense layers total) — deep enough
/// that a 4-stage pipeline split has real per-stage work.
const HIDDEN: usize = 8;
/// Dynamic batch window, identical for every config under test.
const MAX_BATCH: usize = 8;
/// Bounded queue depth; at 2x overload this is what sheds.
const QUEUE_CAPACITY: usize = 64;
/// Offered rate as a multiple of the measured unsharded capacity.
const RATE_MULTIPLIERS: [f64; 4] = [0.5, 0.8, 1.0, 2.0];
/// p99 SLO per config: this multiple of its own light-load (0.5x) p50,
/// floored at 200us. The 2x overload cell is *expected* to blow it —
/// the verdict line documents shed-vs-latency behavior either way.
const SLO_FACTOR: u64 = 20;
const SLO_FLOOR_US: u64 = 200;

/// One engine configuration under test.
struct Config {
    name: &'static str,
    stages: usize,
    workers: usize,
}

/// One (config x offered rate) measurement.
struct Cell {
    offered_rps: f64,
    achieved_rps: f64,
    submitted: u64,
    completed: u64,
    shed: u64,
    failed: u64,
    p50_us: u64,
    p99_us: u64,
}

fn main() {
    let quick = std::env::var_os("BENCH_LOAD_QUICK").is_some();
    let cell_seconds = if quick { 0.25 } else { 1.5 };
    let max_arrivals = if quick { 20_000 } else { 150_000 };

    eprintln!("building deep MLP ({HIDDEN} hidden layers)...");
    let mut rng = SeededRng::new(42);
    let model = deep_model(&mut rng);
    eprintln!(
        "model: {} -> {} features, {} ops, {} table bytes",
        model.input_features(),
        model.output_features(),
        model.op_count(),
        model.pool_bytes()
    );

    // A fixed pool of request rows, cycled by every scenario.
    let request_pool: Vec<Vec<f32>> = (0..256)
        .map(|_| (0..FEATURES).map(|_| rng.uniform(-2.0, 2.0)).collect())
        .collect();

    let configs = [
        Config {
            name: "unsharded-1w",
            stages: 0,
            workers: 1,
        },
        Config {
            name: "unsharded-4w",
            stages: 0,
            workers: 4,
        },
        Config {
            name: "sharded-4",
            stages: 4,
            workers: 1,
        },
    ];

    // The offered-rate axis is shared across configs so cells line up:
    // multiples of the *unsharded single-worker* closed-loop capacity.
    let (capacity, _) = closed_loop_rps(&model, &configs[0], &request_pool, quick);
    eprintln!("reference capacity (unsharded-1w, closed loop): {capacity:.0} req/s");

    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let mut config_reports = Vec::new();
    for config in &configs {
        let (closed_loop, stages_served) = closed_loop_rps(&model, config, &request_pool, quick);
        let mut cells = Vec::new();
        for (i, mult) in RATE_MULTIPLIERS.iter().enumerate() {
            let rate = capacity * mult;
            let cell = open_loop_cell(
                &model,
                config,
                &request_pool,
                rate,
                cell_seconds,
                max_arrivals,
                1000 + i as u64,
            );
            cells.push(cell);
        }
        // SLO calibrated on this config's own light-load latency.
        let slo_us = (cells[0].p50_us * SLO_FACTOR).max(SLO_FLOOR_US);
        println!(
            "\n{} (stages={}, workers={}, closed-loop {:.0} req/s, SLO p99 <= {}us)",
            config.name, stages_served, config.workers, closed_loop, slo_us
        );
        println!("  offered      achieved     shed   p50_us   p99_us  verdict");
        for cell in &cells {
            println!(
                "  {:>8.0}  {:>10.0}  {:>7}  {:>7}  {:>7}  {}",
                cell.offered_rps,
                cell.achieved_rps,
                cell.shed,
                cell.p50_us,
                cell.p99_us,
                if cell.p99_us <= slo_us {
                    "pass"
                } else {
                    "FAIL"
                },
            );
        }
        config_reports.push((config, stages_served, closed_loop, slo_us, cells));
    }

    let json = render_json(&model, cores, capacity, &config_reports);
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_load.json");
    std::fs::write(&path, json).expect("write BENCH_load.json");
    eprintln!("\nwrote {}", path.display());
}

/// An 8-hidden-layer sigmoid MLP reinterpreted into table form — the
/// "deep" end of what the serve tests exercise, with enough ops that a
/// multi-stage split is meaningfully balanced.
fn deep_model(rng: &mut SeededRng) -> CompiledModel {
    let mut net = Network::new(FEATURES);
    let mut width = FEATURES;
    for _ in 0..HIDDEN {
        net.push(Dense::new(width, 24, rng));
        net.push(ActivationLayer::new(Activation::Sigmoid));
        width = 24;
    }
    net.push(Dense::new(width, 4, rng));
    let data = SyntheticSpec::new(FEATURES, 4, 2.0)
        .generate(64, rng)
        .expect("synthetic data generates");
    let options = ReinterpretOptions {
        weight_clusters: 8,
        input_clusters: 8,
        ..ReinterpretOptions::default()
    };
    let model = ReinterpretedNetwork::build(&mut net, data.inputs(), &options, rng)
        .expect("deep MLP reinterprets");
    CompiledModel::from_reinterpreted(&model).expect("deep MLP compiles")
}

fn engine_for(model: &CompiledModel, config: &Config) -> Engine {
    Engine::start(
        model.clone(),
        EngineConfig {
            workers: config.workers,
            stages: config.stages,
            queue_capacity: QUEUE_CAPACITY,
            max_batch_size: MAX_BATCH,
            max_wait: Duration::from_micros(200),
        },
    )
}

/// Closed-loop saturation throughput: one client keeps a fixed window
/// of requests in flight, so the engine always has work and the result
/// is its service capacity, not a function of an arrival process.
/// Also returns the stage count the engine served with.
fn closed_loop_rps(
    model: &CompiledModel,
    config: &Config,
    pool: &[Vec<f32>],
    quick: bool,
) -> (f64, usize) {
    const IN_FLIGHT: usize = 64;
    let requests = if quick { 4_000 } else { 20_000 };
    let engine = engine_for(model, config);
    let stages = engine.stage_count();
    let mut pending = std::collections::VecDeque::with_capacity(IN_FLIGHT);
    let start = Instant::now();
    for i in 0..requests {
        if pending.len() >= IN_FLIGHT {
            let ticket: Ticket = pending.pop_front().unwrap();
            ticket.wait().unwrap();
        }
        pending.push_back(engine.submit(pool[i % pool.len()].clone()).unwrap());
    }
    for ticket in pending {
        ticket.wait().unwrap();
    }
    let elapsed = start.elapsed();
    let stats = engine.shutdown();
    assert_eq!(stats.completed, requests as u64);
    (requests as f64 / elapsed.as_secs_f64(), stages)
}

/// One open-loop run: Poisson arrivals at `rate` req/s for roughly
/// `seconds`, non-blocking submission (`try_submit`), a collector
/// thread redeeming tickets in arrival order. The generator never
/// waits on the engine — a full queue sheds the request, exactly what
/// an overloaded front end would do.
fn open_loop_cell(
    model: &CompiledModel,
    config: &Config,
    pool: &[Vec<f32>],
    rate: f64,
    seconds: f64,
    max_arrivals: usize,
    seed: u64,
) -> Cell {
    let arrivals = ((rate * seconds) as usize).clamp(1, max_arrivals);
    let engine = engine_for(model, config);
    let (tx, rx) = mpsc::channel::<(Instant, Ticket)>();
    let collector = std::thread::spawn(move || {
        let mut latencies_us: Vec<u64> = Vec::new();
        let mut failed = 0u64;
        for (submitted_at, ticket) in rx {
            match ticket.wait() {
                Ok(_) => latencies_us.push(submitted_at.elapsed().as_micros() as u64),
                Err(_) => failed += 1,
            }
        }
        (latencies_us, failed)
    });

    let mut rng = SeededRng::new(seed);
    let mut shed = 0u64;
    let mut submitted = 0u64;
    let mut failed_submit = 0u64;
    let start = Instant::now();
    let mut next_arrival = 0.0f64;
    for i in 0..arrivals {
        // Exponential interarrival: -ln(U)/rate, U in (0, 1].
        let u = f64::from(rng.uniform(0.0, 1.0)).max(1e-9);
        next_arrival += -u.ln() / rate;
        let target = Duration::from_secs_f64(next_arrival);
        // Sleep the bulk of the gap, spin the tail for precision.
        loop {
            let now = start.elapsed();
            if now >= target {
                break;
            }
            let gap = target - now;
            if gap > Duration::from_micros(500) {
                std::thread::sleep(gap - Duration::from_micros(300));
            } else {
                std::hint::spin_loop();
            }
        }
        match engine.try_submit(pool[i % pool.len()].clone()) {
            Ok(ticket) => {
                submitted += 1;
                tx.send((Instant::now(), ticket)).expect("collector alive");
            }
            Err(ServeError::QueueFull) => shed += 1,
            Err(_) => failed_submit += 1,
        }
    }
    drop(tx);
    let (mut latencies_us, failed_wait) = collector.join().expect("collector joins");
    let wall = start.elapsed().as_secs_f64();
    let stats = engine.shutdown();
    latencies_us.sort_unstable();
    Cell {
        offered_rps: rate,
        achieved_rps: stats.completed as f64 / wall,
        submitted,
        completed: stats.completed,
        shed,
        failed: failed_submit + failed_wait,
        p50_us: percentile(&latencies_us, 50),
        p99_us: percentile(&latencies_us, 99),
    }
}

fn percentile(sorted: &[u64], p: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = (sorted.len() - 1) * p / 100;
    sorted[idx]
}

#[allow(clippy::type_complexity)]
fn render_json(
    model: &CompiledModel,
    cores: usize,
    capacity: f64,
    reports: &[(&Config, usize, f64, u64, Vec<Cell>)],
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"benchmark\": \"load\",\n");
    out.push_str(&format!(
        "  \"model\": \"deep-mlp-{HIDDEN}x24\",\n  \"ops\": {},\n",
        model.op_count()
    ));
    out.push_str(&format!("  \"cores\": {cores},\n"));
    out.push_str(&format!(
        "  \"rapidnn_threads\": {},\n",
        std::env::var("RAPIDNN_THREADS").map_or_else(|_| "null".into(), |v| format!("\"{v}\""))
    ));
    out.push_str(&format!(
        "  \"max_batch_size\": {MAX_BATCH},\n  \"queue_capacity\": {QUEUE_CAPACITY},\n"
    ));
    out.push_str(&format!("  \"reference_capacity_rps\": {capacity:.1},\n"));
    out.push_str(&format!(
        "  \"rate_multipliers\": {RATE_MULTIPLIERS:?},\n  \"configs\": [\n"
    ));
    for (c, (config, stages_served, closed_loop, slo_us, cells)) in reports.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!(
            "      \"name\": \"{}\",\n      \"stages\": {},\n      \"stages_served\": {},\n      \"workers\": {},\n",
            config.name, config.stages, stages_served, config.workers
        ));
        out.push_str(&format!(
            "      \"closed_loop_rps\": {closed_loop:.1},\n      \"slo_p99_us\": {slo_us},\n      \"cells\": [\n"
        ));
        for (i, cell) in cells.iter().enumerate() {
            out.push_str(&format!(
                "        {{ \"offered_rps\": {:.1}, \"achieved_rps\": {:.1}, \"submitted\": {}, \"completed\": {}, \"shed\": {}, \"failed\": {}, \"p50_us\": {}, \"p99_us\": {}, \"slo_pass\": {} }}{}\n",
                cell.offered_rps,
                cell.achieved_rps,
                cell.submitted,
                cell.completed,
                cell.shed,
                cell.failed,
                cell.p50_us,
                cell.p99_us,
                cell.p99_us <= *slo_us,
                if i + 1 < cells.len() { "," } else { "" },
            ));
        }
        out.push_str("      ]\n");
        out.push_str(&format!(
            "    }}{}\n",
            if c + 1 < reports.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
