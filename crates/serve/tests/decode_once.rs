//! Decode-once equivalence gate.
//!
//! A model's weight tiles are decoded once, by the first batch that
//! needs them: wide codes unpacked from bit-packed v2 sections, and the
//! factored dense weight matrix wherever a product table factors
//! against its input codebook. Later batches only borrow them. Inference must stay bit-for-bit
//! identical to the source network for the in-memory (wide) model and
//! its loaded v2 artifact, at batch sizes on both sides of the 8-row
//! kernel block — below it dense ops gather from the tables row by row,
//! from it on they run the factored multiply — directly and through the
//! engine, unsharded and in two stages.

mod common;

use common::{cnn_model, mlp_model, residual_model};
use rapidnn_core::ReinterpretedNetwork;
use rapidnn_prop::vec_f32;
use rapidnn_serve::{BatchRunner, CompiledModel, Engine, EngineConfig};
use rapidnn_tensor::SeededRng;

const BATCH_SIZES: [usize; 6] = [1, 2, 7, 8, 9, 33];

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn decoded_tiles_infer_bit_identically_to_the_source_network() {
    let mut rng = SeededRng::new(4242);
    let networks: [(&str, ReinterpretedNetwork); 3] = [
        ("mlp", mlp_model(&mut rng)),
        ("cnn", cnn_model(&mut rng)),
        ("residual", residual_model(&mut rng)),
    ];
    for (name, network) in &networks {
        let wide = CompiledModel::from_reinterpreted(network).unwrap();
        let loaded = CompiledModel::from_bytes_strict(&wide.to_bytes()).unwrap();
        // Tiles are decoded on first use, not by the constructors.
        assert_eq!(wide.weight_tile_bytes(), 0, "{name}: eager tiles");
        assert_eq!(loaded.weight_tile_bytes(), 0, "{name}: eager tiles");

        let features = wide.input_features();
        let engines: Vec<(usize, Engine)> = [1, 2]
            .into_iter()
            .map(|stages| {
                let config = EngineConfig {
                    workers: 1,
                    stages,
                    ..EngineConfig::default()
                };
                (stages, Engine::start(loaded.clone(), config))
            })
            .collect();
        assert_eq!(engines[1].1.stage_count(), 2, "{name}: no cut point");

        for rows in BATCH_SIZES {
            let inputs = vec_f32(&mut rng, rows * features, -2.0, 2.0);
            let expected: Vec<f32> = inputs
                .chunks(features)
                .flat_map(|row| network.infer_sample(row).unwrap())
                .collect();
            for (label, model) in [("wide", &wide), ("v2", &loaded)] {
                let mut out = Vec::new();
                BatchRunner::new().run(model, &inputs, &mut out).unwrap();
                assert_eq!(
                    bits(&out),
                    bits(&expected),
                    "{name}/{label}: {rows}-row batch diverged from the network"
                );
            }
            for (stages, engine) in &engines {
                let out = engine
                    .try_submit_batch(inputs.clone())
                    .and_then(rapidnn_serve::Ticket::wait)
                    .unwrap();
                assert_eq!(
                    bits(&out),
                    bits(&expected),
                    "{name}: {rows}-row batch diverged through {stages} engine stage(s)"
                );
            }
        }
        // A wide pool is borrowed, so the in-memory model's tiles are
        // exactly its factored dense matrices: non-zero bytes prove the
        // factored path ran. The packed reload adds unpacked codes.
        assert!(wide.weight_tile_bytes() > 0, "{name}: no dense op factored");
        assert!(
            loaded.weight_tile_bytes() > wide.weight_tile_bytes(),
            "{name}: packed reload holds no unpacked codes"
        );
        for (_, engine) in engines {
            let stats = engine.shutdown();
            assert_eq!(stats.completed, BATCH_SIZES.len() as u64);
            assert_eq!(stats.failed, 0);
        }
    }
}
