//! The models the workloads serve, composed through the public facade,
//! plus the oracle every response is checked against.

use rapidnn::analyze::{op_costs, Program};
use rapidnn::composer::{ReinterpretOptions, ReinterpretedNetwork};
use rapidnn::data::SyntheticSpec;
use rapidnn::nn::{Activation, ActivationLayer, Dense, Network};
use rapidnn::serve::CompiledModel;
use rapidnn::tensor::SeededRng;
use rapidnn::{Pipeline, PipelineConfig};
use std::time::Instant;

/// Seeds of the two same-shape mnist-tiny artifacts. Model composition
/// is part of set-up, not of the workload's inputs, so it is fixed; the
/// `--seed` argument drives request rows and arrival times.
pub const MNIST_SEEDS: [u64; 2] = [42, 43];
/// Seed of the deep MLP.
pub const DEEP_SEED: u64 = 42;
/// Deep MLP shape: 16 inputs, 8 hidden layers of 24, 4 outputs.
const DEEP_FEATURES: usize = 16;
const DEEP_HIDDEN: usize = 8;
const DEEP_WIDTH: usize = 24;

/// A freshly composed and compiled model with its set-up timings.
pub struct Composed {
    /// The compiled artifact, as uploaded.
    pub model: CompiledModel,
    /// Per-sample analyzer cost units summed over every op.
    pub cost_units: u64,
    /// Seconds spent composing (training + clustering + table build).
    pub compose_s: f64,
    /// Seconds spent flattening the composed network into an artifact.
    pub compile_s: f64,
}

fn compiled(network: &ReinterpretedNetwork, compose_s: f64) -> Composed {
    let t = Instant::now();
    let model = CompiledModel::from_reinterpreted(network).expect("composed network compiles");
    let compile_s = t.elapsed().as_secs_f64();
    let cost_units = op_costs(&Program::from_reinterpreted(network))
        .iter()
        .map(rapidnn::analyze::OpCost::units)
        .sum();
    Composed {
        model,
        cost_units,
        compose_s,
        compile_s,
    }
}

/// mnist-tiny (784 → 10) through the end-to-end pipeline.
pub fn mnist(seed: u64) -> Composed {
    let t = Instant::now();
    let report = Pipeline::new(PipelineConfig::tiny_for_tests())
        .run(&mut SeededRng::new(seed))
        .expect("mnist-tiny pipeline runs");
    compiled(&report.compose.reinterpreted, t.elapsed().as_secs_f64())
}

/// The 9-dense-layer deep MLP (16 → 24×8 → 4), every op int16-licensed.
pub fn deep(seed: u64) -> Composed {
    let t = Instant::now();
    let mut rng = SeededRng::new(seed);
    let mut net = Network::new(DEEP_FEATURES);
    let mut width = DEEP_FEATURES;
    for _ in 0..DEEP_HIDDEN {
        net.push(Dense::new(width, DEEP_WIDTH, &mut rng));
        net.push(ActivationLayer::new(Activation::Sigmoid));
        width = DEEP_WIDTH;
    }
    net.push(Dense::new(width, 4, &mut rng));
    let data = SyntheticSpec::new(DEEP_FEATURES, 4, 2.0)
        .generate(64, &mut rng)
        .expect("synthetic data generates");
    let options = ReinterpretOptions {
        weight_clusters: 8,
        input_clusters: 8,
        ..ReinterpretOptions::default()
    };
    let network = ReinterpretedNetwork::build(&mut net, data.inputs(), &options, &mut rng)
        .expect("deep MLP reinterprets");
    compiled(&network, t.elapsed().as_secs_f64())
}

/// The model exactly as the registry serves `bytes` under the given
/// `PUT` flags: strict decode, then `optimize()`, then `quantize()`.
pub fn as_served(bytes: &[u8], optimize: bool, quantize: bool) -> CompiledModel {
    let mut model = CompiledModel::from_bytes_strict(bytes).expect("artifact decodes strictly");
    if optimize {
        model = model.optimize().expect("artifact optimizes").0;
    }
    if quantize {
        model.quantize().expect("artifact quantizes");
        assert_eq!(model.kernel_path(), "int16", "every op must be licensed");
    }
    model
}

/// Request rows drawn from the workload seed.
pub fn rows(seed: u64, count: usize, features: usize, low: f32, high: f32) -> Vec<Vec<f32>> {
    let mut rng = SeededRng::new(seed);
    (0..count)
        .map(|_| (0..features).map(|_| rng.uniform(low, high)).collect())
        .collect()
}

/// Expected output bits of every row under each served artifact.
pub struct Oracle {
    /// `expected[artifact][row]` as `f32::to_bits` words.
    expected: Vec<Vec<Vec<u32>>>,
}

/// How a served output compares with the oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Bit-identical to the artifact the generation header names.
    Match,
    /// Bit-identical to the *other* artifact: the generation label was
    /// read across a cutover.
    MislabeledGeneration,
    /// Matches no served artifact.
    Wrong,
}

impl Oracle {
    /// Runs `CompiledModel::infer` on every row for every artifact.
    pub fn new(served: &[&CompiledModel], rows: &[Vec<f32>]) -> Oracle {
        let expected = served
            .iter()
            .map(|model| {
                rows.iter()
                    .map(|row| {
                        model
                            .infer(row)
                            .expect("oracle inference runs")
                            .iter()
                            .map(|v| v.to_bits())
                            .collect()
                    })
                    .collect()
            })
            .collect();
        Oracle { expected }
    }

    /// Checks an output for `row`; `claimed` is the artifact the server
    /// says produced it.
    pub fn check(&self, row: usize, claimed: usize, output: &[f32]) -> Verdict {
        let matches = |artifact: usize| {
            let want = &self.expected[artifact][row];
            want.len() == output.len() && want.iter().zip(output).all(|(w, v)| *w == v.to_bits())
        };
        let claimed = claimed % self.expected.len();
        if matches(claimed) {
            Verdict::Match
        } else if (0..self.expected.len()).any(matches) {
            Verdict::MislabeledGeneration
        } else {
            Verdict::Wrong
        }
    }

    /// Checks a little-endian f32 response body.
    pub fn check_bytes(&self, row: usize, claimed: usize, body: &[u8]) -> Verdict {
        if !body.len().is_multiple_of(4) {
            return Verdict::Wrong;
        }
        let output: Vec<f32> = body
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        self.check(row, claimed, &output)
    }
}
