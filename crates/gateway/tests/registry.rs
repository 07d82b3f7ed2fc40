//! In-process registry tests for the hot-swap path: warmup through a
//! queue smaller than the warmup, and swaps racing concurrent requests.

mod common;

use common::{compiled_model, FEATURES};
use rapidnn_gateway::{GatewayError, Registry, RegistryConfig};
use rapidnn_prop::vec_f32;
use rapidnn_serve::EngineConfig;
use rapidnn_tensor::SeededRng;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Client threads calling `infer_labeled` until `stop` is set, each
/// call counted in `progress`; each returns how many calls it made and
/// every error it saw.
fn clients(
    registry: &Arc<Registry>,
    threads: u64,
    stop: &Arc<AtomicBool>,
    progress: &Arc<AtomicUsize>,
) -> Vec<JoinHandle<(usize, Vec<GatewayError>)>> {
    (0..threads)
        .map(|t| {
            let registry = Arc::clone(registry);
            let stop = Arc::clone(stop);
            let progress = Arc::clone(progress);
            std::thread::spawn(move || {
                let mut rng = SeededRng::new(500 + t);
                let mut calls = 0;
                let mut errors = Vec::new();
                let mut last_generation = 0;
                while !stop.load(Ordering::Acquire) {
                    calls += 1;
                    progress.fetch_add(1, Ordering::AcqRel);
                    match registry.infer_labeled("m", vec_f32(&mut rng, FEATURES, -2.0, 2.0)) {
                        Ok((output, generation)) => {
                            assert_eq!(output.len(), common::CLASSES);
                            assert!(generation >= last_generation, "generation went back");
                            last_generation = generation;
                        }
                        Err(e) => errors.push(e),
                    }
                }
                (calls, errors)
            })
        })
        .collect()
}

/// Waits, yielding, until the clients have made `calls` more calls, so
/// the next swap lands in the middle of their traffic.
fn await_progress(progress: &AtomicUsize, calls: usize) {
    let target = progress.load(Ordering::Acquire) + calls;
    while progress.load(Ordering::Acquire) < target {
        std::thread::yield_now();
    }
}

/// Stops the clients and returns (calls, errors) summed over them.
fn stop_clients(
    stop: &AtomicBool,
    handles: Vec<JoinHandle<(usize, Vec<GatewayError>)>>,
) -> (usize, Vec<GatewayError>) {
    stop.store(true, Ordering::Release);
    let mut calls = 0;
    let mut errors = Vec::new();
    for handle in handles {
        let (n, errs) = handle.join().unwrap();
        calls += n;
        errors.extend(errs);
    }
    (calls, errors)
}

/// A queue of one still warms eight samples, f32 and 2-stage int16, and
/// a hot-swap over such a registry keeps serving its one client.
#[test]
fn warmup_larger_than_the_queue_still_swaps() {
    let registry = Arc::new(Registry::new(RegistryConfig {
        engine: EngineConfig {
            queue_capacity: 1,
            ..EngineConfig::default()
        },
        warmup_samples: 8,
        ..RegistryConfig::default()
    }));
    let f32_bytes = compiled_model(1).to_bytes();
    let int16_bytes = compiled_model(2).to_bytes();
    let created = registry
        .put_artifact("m", &f32_bytes, false, None, false)
        .unwrap();
    assert!(created.created);
    assert_eq!(created.warmed, 8);
    let swapped = registry
        .put_artifact("m", &int16_bytes, true, Some(2), false)
        .unwrap();
    assert_eq!((swapped.generation, swapped.warmed), (1, 8));
    assert_eq!(swapped.stages, 2);
    assert!(swapped.drained);
    assert_eq!(registry.stats("m").unwrap().kernel_path, "int16");

    // One sequential client never overfills the one-slot queue, so any
    // error here would come from the swaps themselves.
    let stop = Arc::new(AtomicBool::new(false));
    let progress = Arc::new(AtomicUsize::new(0));
    let handles = clients(&registry, 1, &stop, &progress);
    for round in 0..4 {
        await_progress(&progress, 4);
        let (bytes, quantize, stages) = if round % 2 == 0 {
            (&f32_bytes, false, Some(0))
        } else {
            (&int16_bytes, true, Some(2))
        };
        let report = registry
            .put_artifact("m", bytes, quantize, stages, false)
            .unwrap();
        assert_eq!(report.warmed, 8);
    }
    let (calls, errors) = stop_clients(&stop, handles);
    assert!(calls > 0);
    assert!(errors.is_empty(), "failures under swap: {errors:?}");
    assert_eq!(registry.stats("m").unwrap().generation, 5);
}

/// Twenty swaps under concurrent `infer_labeled` calls: the bounded
/// re-read retries always find the successor, so no call ever sees the
/// displaced engine shutting down.
#[test]
fn swaps_racing_concurrent_infers_never_surface_shutting_down() {
    let registry = Arc::new(Registry::new(RegistryConfig {
        engine: EngineConfig {
            workers: 2,
            ..EngineConfig::default()
        },
        warmup_samples: 4,
        ..RegistryConfig::default()
    }));
    registry.register("m", compiled_model(3)).unwrap();
    let artifacts = [compiled_model(4).to_bytes(), compiled_model(3).to_bytes()];
    let stop = Arc::new(AtomicBool::new(false));
    let progress = Arc::new(AtomicUsize::new(0));
    let handles = clients(&registry, 4, &stop, &progress);
    for swap in 0..20 {
        await_progress(&progress, 16);
        let report = registry
            .put_artifact("m", &artifacts[swap % 2], false, None, false)
            .unwrap();
        assert_eq!(report.generation, swap as u64 + 1);
    }
    let (calls, errors) = stop_clients(&stop, handles);
    assert!(calls > 0);
    assert!(
        !errors
            .iter()
            .any(|e| matches!(e, GatewayError::ShuttingDown)),
        "a swap leaked ShuttingDown: {errors:?}"
    );
    assert!(errors.is_empty(), "failures under swap: {errors:?}");
}
