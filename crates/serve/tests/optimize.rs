//! Certified-optimizer property gate: `CompiledModel::optimize` must
//! be a *footprint* change only. For every op-program topology the
//! compiler emits (dense, conv + pools, residual), across code layouts
//! (in-memory wide, v2 bit-packed round-trip), kernel paths (f32, analyzer-licensed
//! int16), and engine stage counts, the optimized model answers every
//! request bit-for-bit identically to its unoptimized source — while a
//! model with injected dead rows provably shrinks and an invalid
//! program is refused with a typed report, never silently rewritten.

mod common;

use common::{cnn_model, mlp_model, residual_model};
use rapidnn_analyze::Pass;
use rapidnn_prop::{check, usize_in, vec_f32};
use rapidnn_serve::{CompiledModel, Engine, EngineConfig, ServeError};
use rapidnn_tensor::SeededRng;
use std::time::Duration;

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Every topology as (label, source model, optimized model) with the
/// certificate already translation-validated inside `optimize`.
fn optimized_pairs() -> Vec<(&'static str, CompiledModel, CompiledModel)> {
    let mut rng = SeededRng::new(20108);
    [
        ("mlp", mlp_model(&mut rng)),
        ("cnn", cnn_model(&mut rng)),
        ("residual", residual_model(&mut rng)),
    ]
    .into_iter()
    .map(|(name, net)| {
        let base = CompiledModel::from_reinterpreted(&net).unwrap();
        let (opt, _cert) = base.optimize().unwrap();
        (name, base, opt)
    })
    .collect()
}

/// The bit-identity gate: optimized artifacts reproduce their source
/// bit for bit in memory and across v2 round-trips, on f32/int16
/// kernel paths, and through per-sample vs batch entry points.
#[test]
fn optimized_models_infer_bit_identically() {
    let pairs = optimized_pairs();
    // (label suffix, v2 round-trip?, quantized?)
    let variants = [
        ("wide/f32", false, false),
        ("v2/f32", true, false),
        ("v2/int16", true, true),
    ];
    check(8, |rng| {
        for (name, base, opt) in &pairs {
            for (suffix, v2, quantized) in variants {
                let realize = |m: &CompiledModel| {
                    let mut m = if v2 {
                        CompiledModel::from_bytes_strict(&m.to_bytes()).unwrap()
                    } else {
                        m.clone()
                    };
                    if quantized {
                        m.quantize().unwrap();
                    }
                    m
                };
                let (base, opt) = (realize(base), realize(opt));
                let sample = vec_f32(rng, base.input_features(), -2.0, 2.0);
                assert_eq!(
                    bits(&base.infer(&sample).unwrap()),
                    bits(&opt.infer(&sample).unwrap()),
                    "{name}/{suffix}: per-sample inference diverged"
                );
                let rows = usize_in(rng, 2, 4);
                let block = vec_f32(rng, rows * base.input_features(), -2.0, 2.0);
                assert_eq!(
                    base.infer_batch(&block).unwrap(),
                    opt.infer_batch(&block).unwrap(),
                    "{name}/{suffix}: batch inference diverged"
                );
            }
        }
    });
}

/// Optimized models still serve through every execution shape: the
/// unsharded engine and sharded pipelines answer with the *source*
/// model's per-sample bits.
#[test]
fn optimized_models_shard_bit_identically() {
    let pairs = optimized_pairs();
    check(3, |rng| {
        for (name, base, opt) in &pairs {
            let features = opt.input_features();
            for stages in [0usize, 2, 3] {
                let engine = Engine::start(
                    opt.clone(),
                    EngineConfig {
                        workers: 2,
                        stages,
                        max_batch_size: 4,
                        max_wait: Duration::from_micros(200),
                        ..EngineConfig::default()
                    },
                );
                let flat = vec_f32(rng, 3 * features, -2.0, 2.0);
                let got = engine.submit_batch(flat.clone()).unwrap().wait().unwrap();
                let mut oracle = Vec::new();
                for r in 0..3 {
                    oracle.extend(base.infer(&flat[r * features..(r + 1) * features]).unwrap());
                }
                assert_eq!(
                    bits(&got),
                    bits(&oracle),
                    "{name} stages={stages}: sharded optimized outputs diverged"
                );
                engine.shutdown();
            }
        }
    });
}

/// A model with injected dead rows provably shrinks: the optimizer
/// removes exactly the injected rows, the v2 artifact gets strictly
/// smaller (the packed code width narrows back down), and the shrunken
/// model still loads strict, quantizes, and infers identically.
#[test]
fn injected_dead_rows_provably_shrink_v2() {
    let mut rng = SeededRng::new(515);
    let net = mlp_model(&mut rng);
    let program = rapidnn_analyze::Program::from_reinterpreted(&net);
    // 8-row tables + 9 dead rows = 17 rows: v2 code width grows from 3
    // to 5 bits, so compaction must win it back.
    let dense_tables = 2;
    let padded = rapidnn_analyze::inject_dead_rows(&program, 9);
    let model = CompiledModel::from_program(&padded).unwrap();

    let (opt, cert) = model.optimize().unwrap();
    assert_eq!(cert.removed(Pass::RowCompaction), 9 * dense_tables);

    let before = model.to_bytes();
    let after = opt.to_bytes();
    assert!(
        after.len() < before.len(),
        "optimized v2 artifact must shrink ({} -> {} bytes)",
        before.len(),
        after.len()
    );

    // The shrunken artifact still loads strict and quantizes; the f32
    // path reproduces the unpadded source bit for bit, and the int16
    // path reproduces the *quantized* source (integer kernels are a
    // separate path, so they get their own oracle).
    let reloaded = CompiledModel::from_bytes_strict(&after).unwrap();
    let mut reloaded_q = reloaded.clone();
    reloaded_q.quantize().unwrap();
    let base = CompiledModel::from_reinterpreted(&net).unwrap();
    let mut base_q = base.clone();
    base_q.quantize().unwrap();
    for _ in 0..16 {
        let sample = vec_f32(&mut rng, base.input_features(), -2.0, 2.0);
        let expected = bits(&base.infer(&sample).unwrap());
        assert_eq!(expected, bits(&model.infer(&sample).unwrap()));
        assert_eq!(expected, bits(&opt.infer(&sample).unwrap()));
        assert_eq!(expected, bits(&reloaded.infer(&sample).unwrap()));
        assert_eq!(
            bits(&base_q.infer(&sample).unwrap()),
            bits(&reloaded_q.infer(&sample).unwrap()),
            "int16 path diverged after optimization"
        );
    }
}

/// An invalid program is refused with the typed report — it never
/// becomes a `CompiledModel`, so there is nothing to optimize, and the
/// optimizer itself refuses to rewrite it.
#[test]
fn invalid_model_is_rejected_not_rewritten() {
    let mut rng = SeededRng::new(99);
    let net = mlp_model(&mut rng);
    let mut program = rapidnn_analyze::Program::from_reinterpreted(&net);
    // Poison a reachable product-table entry: structure stays valid,
    // analysis fails.
    let offset = match &program.ops[0] {
        rapidnn_analyze::Op::Dense { table, .. } => table.offset,
        _ => unreachable!("mlp starts with a dense op"),
    };
    program.floats.to_mut()[offset] = f32::NAN;
    match CompiledModel::from_program(&program) {
        Err(ServeError::Rejected(report)) => assert!(report.has_errors(), "{report}"),
        other => panic!("expected a typed rejection, got {other:?}"),
    }
    assert!(rapidnn_analyze::optimize(&program).is_err());
}
