//! Property suite for the analyzer-licensed integer kernel path.
//!
//! The contract under test: [`CompiledModel::quantize`] may only change
//! *performance*, never correctness beyond the analyzer's own error
//! bound. Concretely —
//!
//! * integer-path outputs stay within the licensed plan's
//!   `output_error` of the f32 path, across random topologies and
//!   batch sizes 1–64;
//! * the integer path is bit-identical between scalar and batched
//!   execution (`i32` accumulation is exact, so there is no summation
//!   -order escape hatch to hide behind);
//! * models the analyzer refuses keep serving the f32 path
//!   bit-identically — a fallback is invisible, not approximate;
//! * in-memory (wide-code) and loaded (bit-packed v2) models agree
//!   bit-for-bit on the integer path, since quantized tiles are
//!   streamed straight out of the packed sections at load time;
//! * the single-path f32 block kernels (unclamped dense and conv
//!   gathers, padded conv taps, code-domain pooling) reproduce the
//!   source network bit for bit;
//! * licensed ops hold no f32 weight tile, so a fully quantized
//!   model's resident bytes (runner arena plus decoded tiles) no
//!   longer scale with the model's code-section size.

use rapidnn::composer::{ReinterpretOptions, ReinterpretedNetwork};
use rapidnn::data::{benchmark_dataset, SyntheticSpec};
use rapidnn::nn::topology::{self, Benchmark};
use rapidnn::nn::{Trainer, TrainerConfig};
use rapidnn::serve::{BatchRunner, CompiledModel};
use rapidnn::tensor::SeededRng;
use rapidnn_prop::usize_in;

/// Composes a random MLP into a compiled artifact.
fn compiled_mlp(
    rng: &mut SeededRng,
    features: usize,
    hidden: &[usize],
    classes: usize,
    clusters: usize,
) -> CompiledModel {
    let data = SyntheticSpec::new(features, classes, 2.0)
        .generate(48, rng)
        .expect("synthetic data");
    let mut net = topology::mlp(features, hidden, classes, rng).expect("mlp");
    let opts = ReinterpretOptions {
        weight_clusters: clusters,
        input_clusters: clusters,
        ..ReinterpretOptions::default()
    };
    let network =
        ReinterpretedNetwork::build(&mut net, data.inputs(), &opts, rng).expect("reinterpret");
    CompiledModel::from_reinterpreted(&network).expect("compile")
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Integer outputs stay within the analyzer-derived bound of f32
/// outputs, and the integer path is bit-identical across batch sizes.
#[test]
fn integer_path_stays_within_licensed_error_bound() {
    let mut any_licensed = false;
    for seed in 0..6u64 {
        let mut rng = SeededRng::new(900 + seed);
        let features = usize_in(&mut rng, 4, 10);
        let classes = usize_in(&mut rng, 2, 4);
        let depth = usize_in(&mut rng, 1, 3);
        let hidden: Vec<usize> = (0..depth).map(|_| usize_in(&mut rng, 4, 12)).collect();
        let model = compiled_mlp(&mut rng, features, &hidden, classes, 8);

        let mut quantized = model.clone();
        quantized.quantize().expect("quantize");
        let plan = quantized.quant_plan().expect("plan").clone();
        any_licensed |= plan.licensed() > 0;

        let inputs: Vec<f32> = (0..64 * features).map(|_| rng.uniform(-3.0, 3.0)).collect();
        let mut qout = Vec::new();
        BatchRunner::for_model(&quantized, 64)
            .run(&quantized, &inputs, &mut qout)
            .expect("quantized batch");
        let mut fout = Vec::new();
        BatchRunner::new()
            .run(&model, &inputs, &mut fout)
            .expect("f32 batch");

        if plan.licensed() == 0 {
            assert_eq!(bits(&fout), bits(&qout), "nothing licensed => identical");
        } else {
            assert!(
                plan.output_error.is_finite(),
                "licensed plan must carry a finite bound (seed {seed})"
            );
            for (i, (&a, &b)) in fout.iter().zip(&qout).enumerate() {
                let err = f64::from(a) - f64::from(b);
                assert!(
                    err.abs() <= plan.output_error + 1e-9,
                    "seed {seed} output {i}: f32 {a} vs int {b}, |err| {} > bound {}",
                    err.abs(),
                    plan.output_error
                );
            }
        }

        // Batch sizes 1..=64 all reproduce the same bits: scalar rows,
        // partial blocks and whole blocks agree on the integer path.
        let mut runner = BatchRunner::new();
        for bs in [1usize, 3, 8, 17, 64] {
            let mut got = Vec::new();
            let mut out = Vec::new();
            for chunk in inputs.chunks(bs * features) {
                runner.run(&quantized, chunk, &mut out).expect("chunk");
                got.extend_from_slice(&out);
            }
            assert_eq!(
                bits(&qout),
                bits(&got),
                "seed {seed}: batch size {bs} changed integer-path bits"
            );
        }
    }
    assert!(any_licensed, "no seed produced a licensed op");
}

/// A model whose value ranges overflow every i16 grid is refused by the
/// analyzer — and the refusal is invisible: quantize() succeeds, the
/// kernel path reports "f32", and outputs are bit-identical.
#[test]
fn refused_model_serves_f32_bit_identically() {
    let mut rng = SeededRng::new(4242);
    let data = SyntheticSpec::new(6, 2, 2.0)
        .generate(40, &mut rng)
        .expect("synthetic data");
    // Blow the input range far past the i16 product grid.
    let wide = data.inputs().map(|v| v * 3.0e6);
    let mut net = topology::mlp(6, &[8], 2, &mut rng).expect("mlp");
    let opts = ReinterpretOptions {
        weight_clusters: 8,
        input_clusters: 8,
        ..ReinterpretOptions::default()
    };
    let network =
        ReinterpretedNetwork::build(&mut net, &wide, &opts, &mut rng).expect("reinterpret");
    let model = CompiledModel::from_reinterpreted(&network).expect("compile");

    let mut quantized = model.clone();
    quantized.quantize().expect("quantize still succeeds");
    assert_eq!(quantized.licensed_ops(), 0, "nothing should be licensed");
    assert_eq!(quantized.kernel_path(), "f32");
    let plan = quantized.quant_plan().expect("plan").clone();
    assert!(plan.fallbacks() > 0, "fallback reasons must be surfaced");

    let inputs: Vec<f32> = (0..40 * 6).map(|_| rng.uniform(-3.0e6, 3.0e6)).collect();
    let mut fout = Vec::new();
    let mut qout = Vec::new();
    BatchRunner::new()
        .run(&model, &inputs, &mut fout)
        .expect("f32");
    BatchRunner::new()
        .run(&quantized, &inputs, &mut qout)
        .expect("refused-quantized");
    assert_eq!(bits(&fout), bits(&qout));
}

/// In-memory (wide-code) and loaded (bit-packed v2) models
/// materialize identical integer tiles: the quantizer streams codes via
/// `CodePool::map_range` in both layouts, so the integer path cannot
/// tell them apart.
#[test]
fn packed_and_wide_artifacts_agree_on_the_integer_path() {
    let mut rng = SeededRng::new(77);
    let mut wide = compiled_mlp(&mut rng, 8, &[16, 12], 3, 8);
    let mut packed = CompiledModel::from_bytes_strict(&wide.to_bytes()).expect("v2 load");
    wide.quantize().expect("wide quantize");
    packed.quantize().expect("packed quantize");
    assert_eq!(wide.licensed_ops(), packed.licensed_ops());
    assert!(wide.licensed_ops() > 0, "expected licensed ops");

    let inputs: Vec<f32> = (0..64 * 8).map(|_| rng.uniform(-3.0, 3.0)).collect();
    let mut out_wide = Vec::new();
    let mut out_packed = Vec::new();
    BatchRunner::for_model(&wide, 64)
        .run(&wide, &inputs, &mut out_wide)
        .expect("wide run");
    BatchRunner::for_model(&packed, 64)
        .run(&packed, &inputs, &mut out_packed)
        .expect("packed run");
    assert_eq!(
        bits(&out_wide),
        bits(&out_packed),
        "wide vs packed integer outputs"
    );
}

/// The block kernels index table rows and codebooks with raw codes —
/// one path, no clamp — and must reproduce the source network bit for
/// bit through convs with padding and code-domain pooling, for the
/// in-memory model and its loaded v2 artifact alike. 24 rows run as
/// three whole 8-row kernel blocks.
#[test]
fn single_path_kernels_match_the_source_network() {
    let mut rng = SeededRng::new(31);
    let data = benchmark_dataset(Benchmark::Cifar10, 60, &mut rng).expect("data");
    let (train, _) = data.split(0.8);
    let mut net = Benchmark::Cifar10.build_reduced(16, &mut rng).expect("net");
    let mut trainer = Trainer::new(TrainerConfig::default(), &mut rng);
    trainer
        .fit(&mut net, train.inputs(), train.labels(), 2)
        .expect("fit");
    let opts = ReinterpretOptions {
        weight_clusters: 8,
        input_clusters: 8,
        ..ReinterpretOptions::default()
    };
    let network =
        ReinterpretedNetwork::build(&mut net, train.inputs(), &opts, &mut rng).expect("build");
    let cnn = CompiledModel::from_reinterpreted(&network).expect("compile");
    let loaded = CompiledModel::from_bytes_strict(&cnn.to_bytes()).expect("v2 load");

    let features = cnn.input_features();
    let inputs: Vec<f32> = (0..24 * features).map(|_| rng.uniform(-2.0, 2.0)).collect();
    let expected: Vec<f32> = inputs
        .chunks(features)
        .flat_map(|row| network.infer_sample(row).expect("reference"))
        .collect();
    for model in [&cnn, &loaded] {
        let mut out = Vec::new();
        BatchRunner::new()
            .run(model, &inputs, &mut out)
            .expect("block run");
        assert_eq!(
            bits(&out),
            bits(&expected),
            "kernels diverged from the network"
        );
    }
}

/// Resident bytes of serving `model` with one 64-row runner, after a
/// 64-row batch has run: the runner's scratch arena plus the weight
/// tiles the model decoded once for its f32 kernels.
fn resident_bytes(model: &CompiledModel) -> usize {
    let mut runner = BatchRunner::for_model(model, 64);
    let inputs: Vec<f32> = (0..64 * model.input_features())
        .map(|i| (i % 13) as f32 / 4.0 - 1.5)
        .collect();
    runner
        .run(model, &inputs, &mut Vec::new())
        .expect("64-row batch");
    runner.scratch_bytes() + model.weight_tile_bytes()
}

/// Licensed ops carry no f32 weight tile: quantizing a model shrinks
/// runner + model bytes by at least the dense weight tiles, for the
/// in-memory model and its bit-packed reload alike.
#[test]
fn quantized_arena_skips_weight_tiles() {
    let mut rng = SeededRng::new(55);
    let wide = compiled_mlp(&mut rng, 12, &[48, 48], 4, 16);
    let packed = CompiledModel::from_bytes_strict(&wide.to_bytes()).expect("v2 load");
    for model in [wide, packed] {
        // Serve f32 first, so the clone carries decoded tiles into
        // `quantize`, which must drop them.
        let f32_bytes = resident_bytes(&model);
        let mut quantized = model.clone();
        quantized.quantize().expect("quantize");
        assert!(quantized.licensed_ops() > 0);
        let q_bytes = resident_bytes(&quantized);
        // The 48x48 layer alone costs the f32 path a weight tile (an
        // f32 factored matrix, plus the unpacked u16 codes when the
        // pool is bit-packed) the integer path never holds; the margin
        // only demands a u16 tile's worth since the integer path adds a
        // small quantized-input tile of its own.
        let weight_tiles = 48 * 48 * 2;
        assert!(
            q_bytes + weight_tiles <= f32_bytes,
            "quantized bytes {q_bytes} not smaller than f32 bytes {f32_bytes} by {weight_tiles}"
        );
    }
}

/// A fully licensed model's resident bytes are independent of its
/// code-section size: deepening the model grows the artifact but
/// neither the scratch arena nor the decoded weight tiles.
#[test]
fn quantized_arena_does_not_scale_with_code_sections() {
    let build = |hidden: &[usize]| {
        let mut rng = SeededRng::new(66);
        let wide = compiled_mlp(&mut rng, 10, hidden, 3, 8);
        let mut m = CompiledModel::from_bytes_strict(&wide.to_bytes()).expect("v2 load");
        m.quantize().expect("quantize");
        m
    };
    let shallow = build(&[32, 32]);
    let deep = build(&[32, 32, 32, 32, 32, 32, 32, 32]);
    assert_eq!(shallow.quant_plan().expect("plan").fallbacks(), 0);
    assert_eq!(deep.quant_plan().expect("plan").fallbacks(), 0);
    assert!(
        deep.to_bytes().len() > shallow.to_bytes().len(),
        "deep artifact should carry more code sections"
    );
    assert_eq!(
        resident_bytes(&deep),
        resident_bytes(&shallow),
        "runner + model bytes must not grow with code-section size on the integer path"
    );
}
