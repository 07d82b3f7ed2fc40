//! RAPIDNN serving runtime: compiled-model artifacts plus a batched,
//! multi-threaded inference engine.
//!
//! The composer (`rapidnn-core`) produces a
//! [`ReinterpretedNetwork`](rapidnn_core::ReinterpretedNetwork) — a nest
//! of stages, codebooks, and lookup tables convenient for analysis but
//! not for deployment. This crate adds the deployment half:
//!
//! * [`artifact`] — [`CompiledModel`] flattens the reinterpreted network
//!   into two contiguous pools plus a linear op program, serializable to
//!   one versioned, checksummed, std-only binary format (v2). Every
//!   constructor ends in the `rapidnn-analyze` static verifier, so a
//!   model exists only once the analyzer has accepted it. Inference
//!   over the flat program is bit-for-bit identical to the source
//!   network.
//! * [`kernels`] — [`BatchRunner`] executes the op program batch-major
//!   over a reusable scratch arena: each op runs once per batch across
//!   all rows, with zero per-sample heap allocations in the steady
//!   state and outputs bit-for-bit identical to per-sample `infer`.
//! * [`engine`] — [`Engine`] serves a compiled model through one
//!   serving loop: each stage takes a batch from the bounded request
//!   queue or an upstream link, runs its op range on a persistent
//!   [`BatchRunner`], and hands the result downstream or to the
//!   requesters. Unsharded serving is one stage on several threads,
//!   with work-conserving dynamic batching, explicit backpressure
//!   ([`ServeError::QueueFull`]) and draining shutdown.
//! * [`lint`] — [`lint_bytes`] runs the same analyzer over raw
//!   artifact bytes and returns its full diagnostic report; the report
//!   is clean exactly when [`CompiledModel::from_bytes_strict`], the one
//!   byte loader, accepts the bytes.
//! * [`pipeline`] — stage planning for sharded serving:
//!   [`EngineConfig::stages`] splits the op program into balanced
//!   contiguous ranges (cost-weighted by the analyzer's per-op
//!   estimates), each run by its own thread and scratch arena with
//!   bounded links between them — same bit-identical outputs,
//!   pipelined throughput on deep models.
//! * [`metrics`] — [`Metrics`]/[`ServerStats`]: throughput and
//!   queue-depth counters plus a log-scale latency histogram.
//!
//! # Examples
//!
//! ```
//! use rapidnn_core::{Composer, ComposerConfig};
//! use rapidnn_data::SyntheticSpec;
//! use rapidnn_nn::topology;
//! use rapidnn_serve::{CompiledModel, Engine, EngineConfig};
//! use rapidnn_tensor::SeededRng;
//!
//! let mut rng = SeededRng::new(7);
//! let data = SyntheticSpec::new(8, 2, 2.0).generate(60, &mut rng)?;
//! let (train, val) = data.split(0.8);
//! let mut net = topology::mlp(8, &[16], 2, &mut rng)?;
//! let config = ComposerConfig::default().with_weights(8).with_inputs(8);
//! let outcome = Composer::new(config).compose(&mut net, &train, &val, &mut rng)?;
//!
//! // Compile, round-trip through bytes, and serve.
//! let model = CompiledModel::from_reinterpreted(&outcome.reinterpreted)?;
//! let bytes = model.to_bytes();
//! let model = CompiledModel::from_bytes_strict(&bytes)?;
//! let engine = Engine::start(model, EngineConfig::default());
//! let ticket = engine.try_submit(val.sample(0).into_vec())?;
//! assert_eq!(ticket.wait()?.len(), 2);
//! let stats = engine.shutdown();
//! assert_eq!(stats.completed, 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

// `deny` rather than `forbid`: the `pod` module opts back in for the
// two checked reinterpretation casts behind the v2 zero-copy loader;
// everything else in the crate stays safe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod engine;
mod error;
pub mod kernels;
pub mod lint;
pub mod metrics;
pub mod pipeline;
mod pod;
mod quant;

pub use artifact::{CompiledModel, FORMAT_VERSION, MAGIC};
pub use engine::{DrainReport, Engine, EngineConfig, Ticket};
pub use error::{ArtifactError, Result, ServeError};
pub use kernels::BatchRunner;
pub use lint::lint_bytes;
pub use metrics::{Metrics, ServerStats, BATCH_BUCKETS, LATENCY_OVERFLOW_NS};
pub use pipeline::{PipelineStats, StageStats};
