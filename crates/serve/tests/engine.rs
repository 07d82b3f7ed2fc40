//! Engine concurrency smoke tests: exactness under parallel load,
//! backpressure, draining shutdown, and input validation.

use rapidnn_core::{ReinterpretOptions, ReinterpretedNetwork};
use rapidnn_data::SyntheticSpec;
use rapidnn_nn::{Activation, ActivationLayer, Dense, Network};
use rapidnn_prop::vec_f32;
use rapidnn_serve::{CompiledModel, Engine, EngineConfig, ServeError};
use rapidnn_tensor::SeededRng;
use std::sync::Arc;
use std::time::Duration;

const FEATURES: usize = 6;

fn compiled_model(rng: &mut SeededRng) -> CompiledModel {
    compiled_deep_model(rng, 1)
}

/// `hidden` sigmoid layers of width 12 before the 3-output layer: one
/// op per dense layer, so up to `hidden + 1` pipeline stages.
fn compiled_deep_model(rng: &mut SeededRng, hidden: usize) -> CompiledModel {
    let mut net = Network::new(FEATURES);
    let mut width = FEATURES;
    for _ in 0..hidden {
        net.push(Dense::new(width, 12, rng));
        net.push(ActivationLayer::new(Activation::Sigmoid));
        width = 12;
    }
    net.push(Dense::new(width, 3, rng));
    let data = SyntheticSpec::new(FEATURES, 3, 2.0)
        .generate(40, rng)
        .unwrap();
    let options = ReinterpretOptions {
        weight_clusters: 8,
        input_clusters: 8,
        ..ReinterpretOptions::default()
    };
    let model = ReinterpretedNetwork::build(&mut net, data.inputs(), &options, rng).unwrap();
    CompiledModel::from_reinterpreted(&model).unwrap()
}

#[test]
fn concurrent_load_is_exact_and_complete() {
    const THREADS: usize = 8;
    const PER_THREAD: usize = 40;

    let mut rng = SeededRng::new(1);
    let model = compiled_model(&mut rng);
    let reference = model.clone();
    let engine = Arc::new(Engine::start(
        model,
        EngineConfig {
            workers: 4,
            queue_capacity: 64,
            max_batch_size: 8,
            max_wait: Duration::from_micros(200),
            ..EngineConfig::default()
        },
    ));

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                let mut rng = SeededRng::new(1000 + t as u64);
                let mut results = Vec::with_capacity(PER_THREAD);
                for _ in 0..PER_THREAD {
                    let input = vec_f32(&mut rng, FEATURES, -2.0, 2.0);
                    // Blocking submit: backpressure, never lost requests.
                    let ticket = engine.submit(input.clone()).unwrap();
                    results.push((input, ticket.wait().unwrap()));
                }
                results
            })
        })
        .collect();

    let mut total = 0usize;
    for handle in handles {
        for (input, output) in handle.join().unwrap() {
            assert_eq!(
                output,
                reference.infer(&input).unwrap(),
                "concurrent result diverged from single-threaded inference"
            );
            total += 1;
        }
    }
    assert_eq!(total, THREADS * PER_THREAD);

    let engine = Arc::into_inner(engine).expect("all workers returned their handles");
    let stats = engine.shutdown();
    assert_eq!(stats.submitted, (THREADS * PER_THREAD) as u64);
    assert_eq!(stats.completed, (THREADS * PER_THREAD) as u64);
    assert_eq!(stats.failed, 0);
    assert!(stats.batches >= 1);
    assert!(stats.mean_batch_size >= 1.0);
    assert!(stats.throughput_rps > 0.0);
    assert!(stats.p99_latency >= stats.p50_latency);
}

#[test]
fn try_submit_applies_backpressure() {
    let mut rng = SeededRng::new(2);
    let engine = Engine::start(
        compiled_model(&mut rng),
        EngineConfig {
            workers: 1,
            queue_capacity: 1,
            max_batch_size: 1,
            max_wait: Duration::ZERO,
            ..EngineConfig::default()
        },
    );

    let mut tickets = Vec::new();
    let mut rejected = 0u64;
    for _ in 0..2000 {
        let input = vec_f32(&mut rng, FEATURES, -2.0, 2.0);
        match engine.try_submit(input) {
            Ok(ticket) => tickets.push(ticket),
            Err(ServeError::QueueFull) => rejected += 1,
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    // A 1-deep queue in front of real inference cannot absorb a tight
    // submission loop: some requests must bounce, and every accepted one
    // must still be answered.
    assert!(rejected > 0, "no request was ever rejected");
    let accepted = tickets.len() as u64;
    for ticket in tickets {
        ticket.wait().unwrap();
    }
    let stats = engine.shutdown();
    assert_eq!(stats.submitted, accepted);
    assert_eq!(stats.completed, accepted);
    assert_eq!(stats.rejected, rejected);
}

#[test]
fn shutdown_drains_accepted_requests() {
    let mut rng = SeededRng::new(3);
    let model = compiled_model(&mut rng);
    let engine = Engine::start(
        model,
        EngineConfig {
            workers: 2,
            queue_capacity: 256,
            max_batch_size: 16,
            max_wait: Duration::from_millis(1),
            ..EngineConfig::default()
        },
    );
    let tickets: Vec<_> = (0..100)
        .map(|_| {
            engine
                .submit(vec_f32(&mut rng, FEATURES, -2.0, 2.0))
                .unwrap()
        })
        .collect();
    // Shut down immediately; every accepted request must still resolve.
    let stats = engine.shutdown();
    assert_eq!(stats.completed, 100);
    for ticket in tickets {
        assert_eq!(ticket.wait().unwrap().len(), 3);
    }
}

#[test]
fn drain_answers_every_accepted_request() {
    let mut rng = SeededRng::new(7);
    let engine = Engine::start(
        compiled_model(&mut rng),
        EngineConfig {
            workers: 2,
            queue_capacity: 256,
            max_batch_size: 16,
            max_wait: Duration::from_millis(1),
            ..EngineConfig::default()
        },
    );
    let tickets: Vec<_> = (0..120)
        .map(|_| {
            engine
                .submit(vec_f32(&mut rng, FEATURES, -2.0, 2.0))
                .unwrap()
        })
        .collect();
    let report = engine.drain(Duration::from_secs(30));
    assert!(report.joined, "workers should drain well inside 30s");
    assert_eq!(report.stats.completed, 120);
    assert_eq!(report.stats.failed, 0);
    for ticket in tickets {
        assert_eq!(ticket.wait().unwrap().len(), 3);
    }
}

#[test]
fn drain_with_zero_deadline_never_blocks_and_still_answers() {
    let mut rng = SeededRng::new(8);
    let engine = Engine::start(
        compiled_model(&mut rng),
        EngineConfig {
            workers: 1,
            queue_capacity: 256,
            max_batch_size: 4,
            max_wait: Duration::ZERO,
            ..EngineConfig::default()
        },
    );
    let tickets: Vec<_> = (0..64)
        .map(|_| {
            engine
                .submit(vec_f32(&mut rng, FEATURES, -2.0, 2.0))
                .unwrap()
        })
        .collect();
    // A zero deadline may detach the worker mid-queue (`joined` is then
    // false); either way the detached worker keeps draining, so every
    // accepted ticket must still resolve successfully.
    let report = engine.drain(Duration::ZERO);
    for ticket in tickets {
        assert_eq!(ticket.wait().unwrap().len(), 3);
    }
    // Both outcomes are legal; the invariant is no panic, no hang, and
    // a coherent stats snapshot.
    assert!(report.stats.submitted == 64);
}

#[test]
fn drain_report_counts_in_flight_at_deadline() {
    let mut rng = SeededRng::new(10);
    let engine = Engine::start(
        compiled_model(&mut rng),
        EngineConfig {
            workers: 1,
            queue_capacity: 64,
            max_batch_size: 4,
            max_wait: Duration::ZERO,
            ..EngineConfig::default()
        },
    );
    // One oversized pre-batched job pins the single worker for several
    // milliseconds...
    let rows = 16 * 1024;
    let big = engine
        .submit_batch(vec_f32(&mut rng, rows * FEATURES, -2.0, 2.0))
        .unwrap();
    // ...while a few singles queue up behind it.
    let singles: Vec<_> = (0..8)
        .map(|_| {
            engine
                .submit(vec_f32(&mut rng, FEATURES, -2.0, 2.0))
                .unwrap()
        })
        .collect();
    let report = engine.drain(Duration::ZERO);
    assert!(
        !report.joined,
        "a 16k-row job cannot finish inside a zero deadline"
    );
    assert!(report.in_flight_at_deadline > 0);
    assert_eq!(
        report.in_flight_at_deadline,
        report.stats.submitted - report.stats.completed - report.stats.failed,
        "in-flight must be the gap between accepted and answered work"
    );
    // The detached worker keeps draining, so every accepted ticket is
    // still redeemable after the deadline expired.
    assert_eq!(big.wait().unwrap().len(), rows * 3);
    for ticket in singles {
        assert_eq!(ticket.wait().unwrap().len(), 3);
    }
}

/// Drains through a shared handle while another thread holds a clone
/// of the engine and waits on a ticket queued behind a long job: the
/// ticket is answered, the workers join, and every accepted request is
/// accounted for. One-stage engines (`stages` 0 and 1) and a 3-stage
/// pipeline, whose middle stage is the only link-to-link stage in the
/// shutdown cascade.
#[test]
fn drain_through_shared_handle_answers_the_pending_ticket() {
    for stages in [0, 1, 3] {
        let mut rng = SeededRng::new(11);
        let engine = Arc::new(Engine::start(
            compiled_deep_model(&mut rng, 2),
            EngineConfig {
                workers: 1,
                queue_capacity: 64,
                max_batch_size: 4,
                stages,
                ..EngineConfig::default()
            },
        ));
        assert_eq!(engine.stage_count(), stages.max(1));
        // A long pre-batched job keeps the engine busy, so the single
        // request behind it is normally still queued when the drain
        // begins; every assertion below holds whichever finishes first.
        let rows = 16 * 1024;
        let big = engine
            .submit_batch(vec_f32(&mut rng, rows * FEATURES, -2.0, 2.0))
            .unwrap();
        let ticket = engine
            .submit(vec_f32(&mut rng, FEATURES, -2.0, 2.0))
            .unwrap();
        let holder = {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                let answer = ticket.wait();
                (engine, answer)
            })
        };
        let report = engine.drain(Duration::from_secs(60));
        assert!(report.joined, "stages {stages}: workers must join");
        assert_eq!(report.in_flight_at_deadline, 0);
        assert_eq!(report.stats.submitted, 2);
        assert_eq!(
            report.stats.submitted,
            report.stats.completed + report.stats.failed,
            "stages {stages}: every accepted request is answered"
        );
        let (clone, answer) = holder.join().unwrap();
        assert_eq!(answer.unwrap().len(), 3, "stages {stages}");
        assert_eq!(big.wait().unwrap().len(), rows * 3);
        // The clone still holds the engine, but it no longer accepts.
        assert!(matches!(
            clone.try_submit(vec![0.0; FEATURES]),
            Err(ServeError::ShuttingDown)
        ));
        assert_eq!(clone.worker_count(), 0);
    }
}

#[test]
fn drain_on_idle_engine_joins_immediately() {
    let mut rng = SeededRng::new(9);
    let engine = Engine::start(
        compiled_model(&mut rng),
        EngineConfig {
            workers: 2,
            ..EngineConfig::default()
        },
    );
    let report = engine.drain(Duration::from_secs(10));
    assert!(report.joined);
    assert_eq!(report.in_flight_at_deadline, 0);
    assert_eq!(report.stats.submitted, 0);
    assert_eq!(report.stats.p99_latency, Duration::ZERO);
}

#[test]
fn invalid_width_is_rejected_before_enqueue() {
    let mut rng = SeededRng::new(4);
    let engine = Engine::start(compiled_model(&mut rng), EngineConfig::default());
    assert!(matches!(
        engine.try_submit(vec![0.0; FEATURES + 1]),
        Err(ServeError::InvalidInput(_))
    ));
    assert!(matches!(
        engine.submit(vec![]),
        Err(ServeError::InvalidInput(_))
    ));
    let stats = engine.shutdown();
    assert_eq!(stats.submitted, 0);
}

#[test]
fn ticket_wait_timeout_returns_none_then_result() {
    let mut rng = SeededRng::new(5);
    let engine = Engine::start(
        compiled_model(&mut rng),
        EngineConfig {
            workers: 1,
            // Workers hold partial batches briefly, giving the zero
            // timeout below a deterministic miss.
            max_batch_size: 4,
            max_wait: Duration::from_millis(50),
            ..EngineConfig::default()
        },
    );
    let ticket = engine
        .submit(vec_f32(&mut rng, FEATURES, -1.0, 1.0))
        .unwrap();
    // Either the response is already in (None is not guaranteed), but a
    // long second wait must produce it exactly once.
    let first = ticket.wait_timeout(Duration::ZERO);
    if first.is_none() {
        let second = ticket.wait_timeout(Duration::from_secs(10));
        assert!(matches!(second, Some(Ok(_))));
    }
    engine.shutdown();
}

#[test]
fn dropping_engine_without_shutdown_does_not_hang() {
    let mut rng = SeededRng::new(6);
    let engine = Engine::start(compiled_model(&mut rng), EngineConfig::default());
    let ticket = engine
        .submit(vec_f32(&mut rng, FEATURES, -1.0, 1.0))
        .unwrap();
    drop(engine);
    // The accepted request was drained before the workers exited.
    assert!(ticket.wait().is_ok());
}

/// The default engine is work-conserving (`max_wait` is zero), yet it
/// still batches: requests that queue while a worker is busy leave
/// together as one batch when it frees up. One worker is held busy on
/// a large pre-batched block while 16 single rows queue behind it; the
/// block's kernel call outlasts the 16 enqueues by orders of magnitude
/// (the engine exposes no hook to pause a worker outright).
#[test]
fn batches_still_form_at_zero_wait() {
    const BIG_ROWS: usize = 1 << 15;
    const SINGLES: usize = 16;

    let mut rng = SeededRng::new(9);
    let model = compiled_model(&mut rng);
    let reference = model.clone();
    let config = EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    };
    assert_eq!(config.max_wait, Duration::ZERO, "default must not wait");
    let engine = Engine::start(model, config);

    let big = vec_f32(&mut rng, BIG_ROWS * FEATURES, -2.0, 2.0);
    let big_ticket = engine.try_submit_batch(big.clone()).unwrap();
    let singles: Vec<(Vec<f32>, _)> = (0..SINGLES)
        .map(|_| {
            let input = vec_f32(&mut rng, FEATURES, -2.0, 2.0);
            let ticket = engine.try_submit(input.clone()).unwrap();
            (input, ticket)
        })
        .collect();

    let big_out = big_ticket.wait().unwrap();
    for (row, out) in big
        .chunks(FEATURES)
        .zip(big_out.chunks(reference.output_features()))
        .step_by(997)
    {
        assert_eq!(out, reference.infer(row).unwrap().as_slice());
    }
    for (input, ticket) in singles {
        assert_eq!(ticket.wait().unwrap(), reference.infer(&input).unwrap());
    }

    let stats = engine.shutdown();
    assert_eq!(stats.submitted, (SINGLES + 1) as u64);
    assert_eq!(stats.completed, stats.submitted);
    assert_eq!(stats.failed, 0);
    // Buckets from index 1 up count batches of two or more rows: the
    // big block is one of them, so at least one more means some singles
    // left together instead of one kernel call each.
    let multi_row: u64 = stats.batch_size_buckets[1..].iter().sum();
    assert!(
        multi_row >= 2,
        "no multi-row batch formed from the queued singles: {:?}",
        stats.batch_size_buckets
    );
    assert!(stats.batches <= SINGLES as u64, "every single ran alone");
}
