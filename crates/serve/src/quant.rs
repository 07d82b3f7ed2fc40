//! Materialized integer-kernel state.
//!
//! [`CompiledModel::quantize`] derives a [`rapidnn_analyze::QuantPlan`]
//! and this module turns each licensed op into the flat tiles the
//! integer batch kernels stream through: expanded `i16` weight
//! matrices (Madd) or compacted `i16` product tables plus row offsets
//! (Gather), `i32` biases on the accumulator grid, and precomputed
//! finish LUTs whose entries are the *exact* scalar f32 finish
//! (activation lookup, nearest re-encode) at each bucket's center — so
//! the integer path's only deviations from f32 are the rounding terms
//! the plan's error bound already accounts for.
//!
//! A finish LUT is filled by runs, not bucket by bucket. The plan
//! licenses an op only when its activation inputs and encoder are
//! finite books sorted by `total_cmp`, so the finish is a step function
//! of a key that never decreases along the buckets: the activation
//! table row for a lookup activation, else the encoder code. The scalar
//! finish runs once per run of equal keys and bisection finds where
//! each run ends — about `runs × log2(len)` finishes instead of one per
//! bucket, bit-identical to the per-bucket fill the unit tests keep as
//! the reference.
//!
//! Weight codes are consumed here exactly once, streamed straight out
//! of the artifact's (possibly bit-packed) code pool via
//! `CodePool::map_range`; at run time the integer path never touches
//! the code sections again, and the batch arena never holds a weight
//! tile for a licensed op.

use crate::artifact::{nearest, nearest_row, ActRef, CompiledModel, Op};
use rapidnn_analyze::{FinishPlan, OpQuant, QuantMode, QuantPlan};

/// Everything the integer batch path needs, op-aligned with the model.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct QuantState {
    /// The licensing plan (exposed via `CompiledModel::quant_plan`).
    pub(crate) plan: QuantPlan,
    /// One materialized kernel per op; `None` where the op runs f32.
    pub(crate) ops: Vec<Option<QuantOp>>,
}

/// One dense op lowered to integer tiles.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct QuantOp {
    /// Fan-in per output neuron.
    pub(crate) nin: usize,
    /// Output neuron count.
    pub(crate) nout: usize,
    /// How the accumulator is fed.
    pub(crate) kind: QuantKind,
    /// Per-output bias on the `2^acc_frac` grid.
    pub(crate) bias_q: Vec<i32>,
    /// How the accumulator leaves the op.
    pub(crate) finish: QuantFinish,
}

/// Integer multiply strategy of one op.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum QuantKind {
    /// Factored multiply-accumulate: `weights` is the expanded
    /// `nout × nin` quantized weight matrix, `xq` the quantized input
    /// codebook (indexed by input code).
    Madd {
        /// `nout × nin` weights at `2^w_frac`.
        weights: Vec<i16>,
        /// Input codebook at `2^x_frac`, one entry per code.
        xq: Vec<i16>,
    },
    /// Table gather: `rows[o * nin + i]` is the precomputed base offset
    /// of the weight's row in `table_q`; the input code indexes within
    /// the row.
    Gather {
        /// `nout × nin` row base offsets (`weight code × book_len`).
        rows: Vec<u32>,
        /// Compacted `weight_count × book_len` table at `2^acc_frac`.
        table_q: Vec<i16>,
    },
}

/// Integer finish: one requantize/dequantize at the op boundary.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum QuantFinish {
    /// `acc as f32 * inv` — output-stage identity.
    Dequant {
        /// `2^-acc_frac`.
        inv: f32,
    },
    /// `(acc as f32 * inv).max(0.0)` — output-stage ReLU.
    DequantRelu {
        /// `2^-acc_frac`.
        inv: f32,
    },
    /// Bucketed lookup `(acc - lo_q) >> shift`, entries precomputed
    /// through the exact scalar finish at each bucket center.
    Lut {
        /// Accumulator value of bucket 0's left edge.
        lo_q: i32,
        /// Accumulator-to-bucket right shift.
        shift: u32,
        /// Finished output codes (`encoded == true`).
        codes: Vec<u16>,
        /// Finished output floats (`encoded == false`).
        vals: Vec<f32>,
        /// Whether the op re-encodes (next op consumes codes).
        encoded: bool,
    },
}

impl QuantState {
    /// Builds the integer tiles for every licensed op of `plan`.
    ///
    /// The analyzer accepted `model` when it was built, so spans are in
    /// bounds; weight codes are still clamped defensively — this runs
    /// once at load time, never in the batch loop.
    pub(crate) fn materialize(model: &CompiledModel, plan: QuantPlan) -> QuantState {
        let pool_f = model.float_pool();
        let mut ops = Vec::with_capacity(model.ops.len());
        for (op, verdict) in model.ops.iter().zip(&plan.ops) {
            let OpQuant::Licensed(lic) = verdict else {
                ops.push(None);
                continue;
            };
            let Op::Dense {
                inputs,
                outputs,
                weight_codes,
                bias,
                table,
                act,
                encoder,
            } = op
            else {
                ops.push(None);
                continue;
            };
            let book = &pool_f[lic.input_book.start..lic.input_book.start + lic.input_book.len];
            let scale = exp2(lic.acc_frac);
            let bias_q = bias
                .slice(pool_f)
                .iter()
                .map(|&b| quant_i32(f64::from(b), scale))
                .collect();
            let kind = match lic.mode {
                QuantMode::Madd { w_frac, x_frac } => {
                    let ws = exp2(w_frac);
                    let last = lic.wvals.len().saturating_sub(1);
                    let mut weights = Vec::with_capacity(weight_codes.len);
                    model
                        .codes
                        .map_range(weight_codes.start, weight_codes.len, |c| {
                            let w = lic.wvals[(c as usize).min(last)];
                            weights.push(quant_i16(f64::from(w), ws));
                        });
                    let xs = exp2(x_frac);
                    let xq = book.iter().map(|&b| quant_i16(f64::from(b), xs)).collect();
                    QuantKind::Madd { weights, xq }
                }
                QuantMode::Gather => {
                    let blen = book.len();
                    let last = table.weight_count.saturating_sub(1) as u32;
                    let mut rows = Vec::with_capacity(weight_codes.len);
                    model
                        .codes
                        .map_range(weight_codes.start, weight_codes.len, |c| {
                            rows.push(u32::from(c).min(last) * blen as u32);
                        });
                    let mut table_q = Vec::with_capacity(table.weight_count * blen);
                    for w in 0..table.weight_count {
                        let row = table.row(pool_f, w as u16);
                        table_q.extend(row[..blen].iter().map(|&v| quant_i16(f64::from(v), scale)));
                    }
                    QuantKind::Gather { rows, table_q }
                }
            };
            let inv = 1.0 / scale;
            let finish = match lic.finish {
                FinishPlan::Direct => match act {
                    ActRef::Relu => QuantFinish::DequantRelu { inv },
                    _ => QuantFinish::Dequant { inv },
                },
                FinishPlan::Lut { lo_q, shift, len } => {
                    let grid = LutGrid {
                        lo_q,
                        step: 1i64 << shift,
                        scale: f64::from(scale),
                        len,
                    };
                    let finish = Finish {
                        floats: pool_f,
                        act,
                        enc: encoder.as_ref().map(|e| e.slice(pool_f)),
                    };
                    let (codes, vals) = finish.fill_runs(&grid);
                    QuantFinish::Lut {
                        lo_q: i32::try_from(lo_q).unwrap_or(i32::MIN),
                        shift,
                        codes,
                        vals,
                        encoded: finish.enc.is_some(),
                    }
                }
            };
            ops.push(Some(QuantOp {
                nin: *inputs,
                nout: *outputs,
                kind,
                bias_q,
                finish,
            }));
        }
        QuantState { plan, ops }
    }
}

/// The bucket grid of one finish LUT: `len` buckets of `step`
/// accumulator units from `lo_q`, at `scale` accumulator units per 1.0.
struct LutGrid {
    lo_q: i64,
    step: i64,
    scale: f64,
    len: usize,
}

impl LutGrid {
    /// Bucket `idx`'s center on the accumulator grid, exact in `f64`,
    /// as the `f32` the scalar path would see.
    fn center(&self, idx: usize) -> f32 {
        let rep_q = self.lo_q + idx as i64 * self.step + self.step / 2;
        (rep_q as f64 / self.scale) as f32
    }
}

/// One op's scalar f32 finish: activation, then (if any) re-encode.
struct Finish<'a> {
    floats: &'a [f32],
    act: &'a ActRef,
    enc: Option<&'a [f32]>,
}

impl Finish<'_> {
    /// The run key of an accumulator value `y`: buckets with equal keys
    /// finish identically. For a lookup activation it is the table row
    /// `ActRef::apply` picks; otherwise the encoder code. With no
    /// encoder and an exact activation the output is `y` itself, which
    /// is no step function — `None`, and every bucket is its own run
    /// (plans finish such ops `Direct`, so this never materializes).
    fn key(&self, y: f32) -> Option<usize> {
        match (self.act, self.enc) {
            (ActRef::Lookup { inputs, .. }, _) => Some(nearest_row(inputs.slice(self.floats), y)),
            (act, Some(book)) => Some(nearest_row(book, act.apply(self.floats, y))),
            (_, None) => None,
        }
    }

    /// The exact scalar finish of `y`, appended to `codes` (encoded) or
    /// `vals` (`n` copies).
    fn push(&self, y: f32, n: usize, codes: &mut Vec<u16>, vals: &mut Vec<f32>) {
        let a = self.act.apply(self.floats, y);
        match self.enc {
            Some(book) => codes.extend(std::iter::repeat_n(nearest(book, a), n)),
            None => vals.extend(std::iter::repeat_n(a, n)),
        }
    }

    /// Fills the LUT by runs of equal [`key`](Self::key): the scalar
    /// finish runs once per run, at its first bucket, and each run's
    /// end is found by bisection.
    ///
    /// Precondition (the plan's licence guarantees it): the activation
    /// inputs and the encoder are finite codebooks sorted by
    /// `total_cmp`. Bucket centers are non-decreasing in the index (an
    /// `i64` center, an exact division by a power of two and the
    /// rounding to `f32` are all monotone), so is ReLU, and so is a
    /// nearest search over a sorted book; the key is therefore
    /// non-decreasing in the bucket index, every run is contiguous and
    /// bisection finds its end. The result is bit-identical to
    /// finishing every bucket on its own, at about `runs × log2(len)`
    /// scalar finishes instead of `len`.
    fn fill_runs(&self, grid: &LutGrid) -> (Vec<u16>, Vec<f32>) {
        let mut codes = Vec::with_capacity(if self.enc.is_some() { grid.len } else { 0 });
        let mut vals = Vec::with_capacity(if self.enc.is_some() { 0 } else { grid.len });
        let mut start = 0;
        while start < grid.len {
            let y = grid.center(start);
            let end = match self.key(y) {
                Some(key) => {
                    // First bucket past the run: keys only grow.
                    let (mut lo, mut hi) = (start + 1, grid.len);
                    while lo < hi {
                        let mid = lo + (hi - lo) / 2;
                        if self.key(grid.center(mid)) == Some(key) {
                            lo = mid + 1;
                        } else {
                            hi = mid;
                        }
                    }
                    lo
                }
                None => start + 1,
            };
            self.push(y, end - start, &mut codes, &mut vals);
            start = end;
        }
        (codes, vals)
    }

    /// Reference fill: the exact scalar finish at every bucket center.
    #[cfg(test)]
    fn fill_each(&self, grid: &LutGrid) -> (Vec<u16>, Vec<f32>) {
        let (mut codes, mut vals) = (Vec::new(), Vec::new());
        for idx in 0..grid.len {
            self.push(grid.center(idx), 1, &mut codes, &mut vals);
        }
        (codes, vals)
    }
}

fn exp2(bits: u32) -> f32 {
    (1u64 << bits.min(62)) as f32
}

/// Round-to-nearest quantization onto `scale`, saturated to `i16`.
fn quant_i16(v: f64, scale: f32) -> i16 {
    let q = (v * f64::from(scale)).round();
    q.clamp(f64::from(i16::MIN), f64::from(i16::MAX)) as i16
}

/// Round-to-nearest quantization onto `scale`, saturated to `i32`.
fn quant_i32(v: f64, scale: f32) -> i32 {
    let q = (v * f64::from(scale)).round();
    q.clamp(f64::from(i32::MIN), f64::from(i32::MAX)) as i32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::Span;
    use rapidnn_tensor::SeededRng;

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// Asserts the run fill equals the per-bucket reference bit for bit.
    fn assert_fills_agree(finish: &Finish<'_>, grid: &LutGrid, what: &str) {
        let (codes, vals) = finish.fill_runs(grid);
        let (ref_codes, ref_vals) = finish.fill_each(grid);
        assert_eq!(codes, ref_codes, "{what}: codes differ");
        assert_eq!(bits(&vals), bits(&ref_vals), "{what}: vals differ");
        assert_eq!(codes.len() + vals.len(), grid.len, "{what}: length");
    }

    /// Quantizes `model` and checks every materialized finish LUT against
    /// the per-bucket reference fill; returns how many it checked.
    fn check_model(mut model: CompiledModel, what: &str) -> usize {
        model.quantize().expect("quantize");
        let state = model.quant.as_ref().expect("quantized state");
        let pool_f = model.float_pool();
        let mut checked = 0;
        for (i, (op, (verdict, lowered))) in model
            .ops
            .iter()
            .zip(state.plan.ops.iter().zip(&state.ops))
            .enumerate()
        {
            let (
                Op::Dense { act, encoder, .. },
                OpQuant::Licensed(lic),
                Some(QuantOp {
                    finish: QuantFinish::Lut { codes, vals, .. },
                    ..
                }),
            ) = (op, verdict, lowered)
            else {
                continue;
            };
            let FinishPlan::Lut { lo_q, shift, len } = lic.finish else {
                panic!("{what} op {i}: LUT finish without a LUT plan");
            };
            let grid = LutGrid {
                lo_q,
                step: 1i64 << shift,
                scale: f64::from(exp2(lic.acc_frac)),
                len,
            };
            let finish = Finish {
                floats: pool_f,
                act,
                enc: encoder.as_ref().map(|e| e.slice(pool_f)),
            };
            let (ref_codes, ref_vals) = finish.fill_each(&grid);
            assert_eq!(*codes, ref_codes, "{what} op {i}: codes differ");
            assert_eq!(bits(vals), bits(&ref_vals), "{what} op {i}: vals differ");
            checked += 1;
        }
        checked
    }

    /// The mnist-tiny artifacts the benchmark serves (seeds 42 and 43),
    /// as uploaded and as the certified optimizer compacts them.
    #[test]
    fn run_fill_is_bit_identical_on_mnist_tiny() {
        use rapidnn::{Pipeline, PipelineConfig};
        for seed in [42u64, 43] {
            let report = Pipeline::new(PipelineConfig::tiny_for_tests())
                .run(&mut SeededRng::new(seed))
                .expect("mnist-tiny pipeline runs");
            // The facade links its own build of this crate, so the
            // model crosses over as artifact bytes.
            let bytes = report.compile().expect("compiles").to_bytes();
            let model = CompiledModel::from_bytes_strict(&bytes).expect("loads");
            let (optimized, _) = model.optimize().expect("optimizes");
            let checked = check_model(model, &format!("mnist-tiny {seed}"))
                + check_model(optimized, &format!("mnist-tiny {seed} optimized"));
            assert!(checked > 0, "seed {seed}: no finish LUT was licensed");
        }
    }

    /// Composes a random MLP, as the quantized property suite does.
    fn compiled_mlp(
        rng: &mut SeededRng,
        features: usize,
        hidden: &[usize],
        classes: usize,
        clusters: usize,
    ) -> CompiledModel {
        use rapidnn_core::{ReinterpretOptions, ReinterpretedNetwork};
        let data = rapidnn_data::SyntheticSpec::new(features, classes, 2.0)
            .generate(48, rng)
            .expect("synthetic data");
        let mut net = rapidnn_nn::topology::mlp(features, hidden, classes, rng).expect("mlp");
        let opts = ReinterpretOptions {
            weight_clusters: clusters,
            input_clusters: clusters,
            ..ReinterpretOptions::default()
        };
        let network =
            ReinterpretedNetwork::build(&mut net, data.inputs(), &opts, rng).expect("reinterpret");
        CompiledModel::from_reinterpreted(&network).expect("compile")
    }

    /// The MLP topologies of the quantized property suite
    /// (`tests/quantized.rs`): its six random ones and its fixed ones.
    #[test]
    fn run_fill_is_bit_identical_on_property_suite_topologies() {
        use rapidnn_prop::usize_in;
        let mut checked = 0;
        for seed in 0..6u64 {
            let mut rng = SeededRng::new(900 + seed);
            let features = usize_in(&mut rng, 4, 10);
            let classes = usize_in(&mut rng, 2, 4);
            let depth = usize_in(&mut rng, 1, 3);
            let hidden: Vec<usize> = (0..depth).map(|_| usize_in(&mut rng, 4, 12)).collect();
            let model = compiled_mlp(&mut rng, features, &hidden, classes, 8);
            checked += check_model(model, &format!("topology {seed}"));
        }
        let fixed: [(u64, usize, &[usize], usize, usize); 4] = [
            (77, 8, &[16, 12], 3, 8),
            (55, 12, &[48, 48], 4, 16),
            (66, 10, &[32; 2], 3, 8),
            (66, 10, &[32; 8], 3, 8),
        ];
        for (seed, features, hidden, classes, clusters) in fixed {
            let model = compiled_mlp(
                &mut SeededRng::new(seed),
                features,
                hidden,
                classes,
                clusters,
            );
            checked += check_model(model, &format!("fixed topology {seed} {hidden:?}"));
        }
        assert!(checked > 0, "no topology licensed a finish LUT");
    }

    /// Hand-built finishes over `floats`: `xs`/`ys` make a lookup
    /// activation when given, `enc` an encoder.
    struct Edge {
        floats: Vec<f32>,
        act: ActRef,
        enc: Option<Span>,
    }

    impl Edge {
        fn new(act: Option<(&[f32], &[f32])>, relu: bool, enc: Option<&[f32]>) -> Edge {
            let mut floats = Vec::new();
            let mut push = |vals: &[f32]| {
                let span = Span {
                    start: floats.len(),
                    len: vals.len(),
                };
                floats.extend_from_slice(vals);
                span
            };
            let act = match act {
                Some((xs, ys)) => ActRef::Lookup {
                    inputs: push(xs),
                    outputs: push(ys),
                },
                None if relu => ActRef::Relu,
                None => ActRef::Identity,
            };
            let enc = enc.map(push);
            Edge { floats, act, enc }
        }

        fn check(&self, grid: &LutGrid, what: &str) {
            let finish = Finish {
                floats: &self.floats,
                act: &self.act,
                enc: self.enc.map(|e| e.slice(&self.floats)),
            };
            assert_fills_agree(&finish, grid, what);
        }
    }

    fn grid(lo_q: i64, shift: u32, acc_frac: u32, len: usize) -> LutGrid {
        LutGrid {
            lo_q,
            step: 1i64 << shift,
            scale: f64::from(exp2(acc_frac)),
            len,
        }
    }

    #[test]
    fn run_fill_is_bit_identical_on_hand_built_edges() {
        let dup_xs: &[f32] = &[-1.0, -0.5, 0.0, 0.0, 0.0, 0.5, 0.5, 2.0];
        let ys: &[f32] = &[3.0, -1.0, 0.25, 7.0, -2.0, 0.0, 1.5, -0.75];
        let dup_enc: &[f32] = &[-1.0, 0.0, 0.0, 0.25, 0.25, 0.25, 1.0, 1.5];
        let book: &[f32] = &[-2.0, -0.5, 0.0, 0.5, 1.0, 3.0];
        let edges = [
            (
                "lookup, duplicate inputs",
                Edge::new(Some((dup_xs, ys)), false, None),
            ),
            (
                "lookup, duplicate inputs, encoder",
                Edge::new(Some((dup_xs, ys)), false, Some(book)),
            ),
            (
                "relu, duplicate encoder",
                Edge::new(None, true, Some(dup_enc)),
            ),
            ("relu, encoder", Edge::new(None, true, Some(book))),
            ("identity, encoder", Edge::new(None, false, Some(book))),
            (
                "identity, duplicate encoder",
                Edge::new(None, false, Some(dup_enc)),
            ),
            (
                "identity, one-entry encoder",
                Edge::new(None, false, Some(&[0.5])),
            ),
            ("identity, no encoder", Edge::new(None, false, None)),
        ];
        // Negative and positive origins, unit steps (centers land on the
        // grid, so exact hits and midpoint ties are exercised) and wide
        // steps, from one bucket up to the cap.
        let grids = [
            ("1 bucket", grid(-3, 0, 2, 1)),
            ("1 bucket, wide step", grid(5, 6, 8, 1)),
            ("negative lo_q, unit step", grid(-20, 0, 3, 41)),
            ("negative lo_q, wide step", grid(-(1 << 12), 4, 10, 520)),
            ("positive lo_q", grid(7, 1, 4, 64)),
            (
                "MAX_LUT_LEN",
                grid(-(1 << 15), 0, 13, rapidnn_analyze::MAX_LUT_LEN),
            ),
        ];
        for (edge_name, edge) in &edges {
            for (grid_name, grid) in &grids {
                edge.check(grid, &format!("{edge_name} / {grid_name}"));
            }
        }
    }

    /// Random sorted books with duplicates over random grids.
    #[test]
    fn run_fill_is_bit_identical_on_random_grids() {
        let mut rng = SeededRng::new(2020);
        let sorted_book = |rng: &mut SeededRng, n: usize| {
            let mut v: Vec<f32> = (0..n)
                .map(|_| (rng.uniform(-4.0, 4.0) * 8.0).round() / 8.0)
                .collect();
            v.sort_by(f32::total_cmp);
            v
        };
        for case in 0..300 {
            let n_xs = 1 + case % 13;
            let xs = sorted_book(&mut rng, n_xs);
            let ys: Vec<f32> = (0..n_xs).map(|_| rng.uniform(-3.0, 3.0)).collect();
            let enc = sorted_book(&mut rng, 1 + case % 9);
            let act = match case % 3 {
                0 => Some((&xs[..], &ys[..])),
                _ => None,
            };
            let edge = Edge::new(act, case % 3 == 1, (case % 4 != 0).then_some(&enc[..]));
            let shift = (case % 5) as u32;
            let acc_frac = shift + 1 + (case % 4) as u32;
            let lo_q = (rng.uniform(-3.0, 1.0) * 2f32.powi(acc_frac as i32)) as i64;
            let len = 1 + (rng.uniform(0.0, 1.0) * 3000.0) as usize;
            edge.check(&grid(lo_q, shift, acc_frac, len), &format!("case {case}"));
        }
    }
}
