//! The three workloads and the metrics they report.
//!
//! Every rate, SLO and ladder below is a fixed absolute number chosen
//! before any run it judges; nothing is calibrated from the run itself.

use crate::client::{encode_request, ResponseReader};
use crate::layers;
use crate::load::{self, Arrival, Counts, HttpTarget, Outcome, PhaseResult, Req};
use crate::models::{self, Composed, Oracle};
use crate::stats;
use crate::trace::Trace;
use crate::Args;
use rapidnn::gateway::{Gateway, GatewayConfig, GatewayError, Registry, RegistryConfig};
use rapidnn::serve::{
    CompiledModel, Engine, EngineConfig, PipelineStats, ServeError, ServerStats, Ticket,
};
use rapidnn::tensor::SeededRng;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Workload names, as passed to `--workload`.
pub const NAMES: [&str; 3] = ["mnist-http", "deep-engine", "swap-churn"];

/// Fixed traffic settings of one workload.
struct Spec {
    /// Offered rate of the `light` phase (requests/s).
    light: f64,
    /// Offered rate of the `heavy` phase (requests/s).
    heavy: f64,
    /// p99 latency limit (ms).
    slo_ms: f64,
    /// Rate ladder for `slo_rate_rps`: lowest rung, top, step factor.
    ladder: (f64, f64, f64),
}

const MNIST_HTTP: Spec = Spec {
    light: 500.0,
    heavy: 800.0,
    slo_ms: 25.0,
    ladder: (500.0, 2_000.0, 1.05),
};
const DEEP_ENGINE: Spec = Spec {
    light: 2_000.0,
    heavy: 20_000.0,
    slo_ms: 25.0,
    ladder: (40_000.0, 640_000.0, 1.05),
};
const SWAP_CHURN: Spec = Spec {
    light: 500.0,
    heavy: 800.0,
    slo_ms: 50.0,
    ladder: (500.0, 2_000.0, 1.05),
};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Rounds of light, heavy and closed-loop phases per run. Each round
/// reports its own p50 and the metric is their median, so a stretch of
/// host stalls moves one round, not the metric.
const ROUNDS: usize = 9;
/// Independent SLO-ladder searches per run, spread among the rounds.
const LADDER_SEARCHES: usize = 4;
/// Distinct request rows per run, drawn from the seed.
const ROWS: usize = 64;
/// A run is invalid when the light phase completes less than this share
/// of what it offered.
const MIN_ACHIEVED: f64 = 0.95;
/// Hot-swap period of `swap-churn`.
const SWAP_PERIOD: Duration = Duration::from_millis(250);
/// Idle hot-swaps timed per round for `swap_ms` where the workload
/// makes none under traffic.
const IDLE_SWAPS: usize = 4;
/// Tickets kept outstanding by the deep-engine saturation loop.
const DEEP_IN_FLIGHT: usize = 256;
/// Arrivals a ladder probe must offer at least: a p99 needs 1000.
const PROBE_SAMPLES: f64 = 1200.0;
/// Offered rate of the peel (requests/s), the same on every workload.
const PEEL_RATE: f64 = 400.0;
/// Rounds the peel's levels are interleaved in.
const PEEL_ROUNDS: usize = 3;
/// Model name on the gateway.
const MODEL: &str = "m";

/// One reported metric.
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// What a run prints.
pub struct Report {
    /// Human-readable record, printed before the JSON line.
    pub notes: Vec<String>,
    metrics: Vec<Metric>,
    counts: Counts,
    correct: bool,
}

impl Report {
    /// The final JSON line.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.counts.attempted.max(1),
            self.counts.bad(),
            metrics.join(", ")
        )
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Runs `args.workload`; `None` for an unknown name.
pub fn run(args: &Args, process_start: Instant) -> Option<Report> {
    let trace = Trace::new(args.trace);
    let mut run = Run {
        args,
        trace: &trace,
        notes: Vec::new(),
        metrics: Vec::new(),
        counts: Counts::default(),
        valid: true,
        rng: SeededRng::new(args.seed ^ 0x0bad_5eed),
        puts: 0,
    };
    run.note(format!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    ));
    run.note(machine_record());
    let cpu_before = layers::cpu_counters();
    match args.workload.as_str() {
        "mnist-http" => run.http_workload(&MNIST_HTTP, false, process_start),
        "swap-churn" => run.http_workload(&SWAP_CHURN, true, process_start),
        "deep-engine" => run.deep_workload(&DEEP_ENGINE, process_start),
        _ => return None,
    }
    if let (Some((s0, t0)), Some((s1, t1))) = (cpu_before, layers::cpu_counters()) {
        run.note(format!(
            "host CPU steal during the run: {:.1}% of machine CPU time",
            100.0 * (s1 - s0) as f64 / (t1 - t0).max(1) as f64
        ));
    }
    if args.trace {
        let path = std::path::Path::new(".bench_trace")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        match trace.write(&path) {
            Ok(()) => run.note(format!("wrote {} spans to {}", trace.len(), path.display())),
            Err(e) => run.note(format!("could not write spans: {e}")),
        }
    }
    let wrong = run.counts.wrong;
    run.note(format!(
        "totals attempted {} ok {} shed {} failed {} wrong {} -> failed_share {:.6}",
        run.counts.attempted,
        run.counts.ok,
        run.counts.shed,
        run.counts.failed,
        wrong,
        run.counts.bad() as f64 / run.counts.attempted.max(1) as f64
    ));
    if !run.valid {
        run.note("run INVALID: see the lines above".into());
    }
    Some(Report {
        correct: wrong == 0 && run.valid,
        notes: run.notes,
        metrics: run.metrics,
        counts: run.counts,
    })
}

fn machine_record() -> String {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let threads = std::env::var("RAPIDNN_THREADS").unwrap_or_else(|_| "unset".into());
    let g = GatewayConfig::default();
    let r = RegistryConfig::default();
    let e = EngineConfig::default();
    format!(
        "machine cores {cores} RAPIDNN_THREADS {threads}; gateway workers {} (0 = max(2, cores)) \
         max_requests_per_connection {} io_timeout {:?}; registry max_inflight {} warmup {} \
         drain {:?}; engine workers {} (0 = cores) queue {} max_batch {} max_wait {:?} stages {}",
        g.workers,
        g.max_requests_per_connection,
        g.io_timeout,
        r.max_inflight,
        r.warmup_samples,
        r.drain_deadline,
        e.workers,
        e.queue_capacity,
        e.max_batch_size,
        e.max_wait,
        e.stages
    )
}

/// Generator threads and connections: one per core, at most two.
fn lanes() -> usize {
    std::thread::available_parallelism()
        .map_or(1, std::num::NonZero::get)
        .clamp(1, 2)
}

struct Run<'a> {
    args: &'a Args,
    trace: &'a Trace,
    notes: Vec<String>,
    metrics: Vec<Metric>,
    counts: Counts,
    valid: bool,
    rng: SeededRng,
    /// Hot-swap `PUT`s scheduled so far; `PUT` number `k` uploads
    /// artifact `k % 2`, so generation `g` serves artifact `g % 2`.
    puts: usize,
}

/// Phase windows. The untraced run splits its light, heavy and
/// closed-loop time into [`ROUNDS`] rounds; the traced run's light and
/// heavy phases each offer enough arrivals for a p99.
struct Windows {
    round_light: Duration,
    round_heavy: Duration,
    round_saturate: Duration,
    light: Duration,
    heavy: Duration,
    probe: Duration,
}

impl Windows {
    fn new(seconds: f64, spec: &Spec) -> Windows {
        let round = |share: f64| Duration::from_secs_f64(seconds * share / ROUNDS as f64);
        let tail = |rate: f64| Duration::from_secs_f64((seconds * 0.08).max(PROBE_SAMPLES / rate));
        Windows {
            round_light: round(0.2),
            round_heavy: round(0.1),
            round_saturate: round(0.1),
            light: tail(spec.light),
            heavy: tail(spec.heavy),
            probe: Duration::from_secs_f64(seconds / 30.0),
        }
    }
}

/// How a workload's traffic reaches the system.
enum Drive<'a> {
    /// Pipelined keep-alive connections to a gateway.
    Http(&'a HttpTarget<'a>),
    /// Straight into an engine.
    Engine {
        engine: &'a Engine,
        rows: &'a [Vec<f32>],
        oracle: &'a Oracle,
    },
}

impl Drive<'_> {
    fn open(
        &self,
        rate: f64,
        window: Duration,
        arrivals: &[Arrival],
        trace: &Trace,
    ) -> PhaseResult {
        match self {
            Drive::Http(target) => load::http_open_loop(target, rate, window, arrivals, trace),
            Drive::Engine {
                engine,
                rows,
                oracle,
            } => load::engine_open_loop(engine, rows, oracle, rate, window, arrivals, trace),
        }
    }

    fn closed(
        &self,
        window: Duration,
        put_period: Option<Duration>,
        puts: &mut usize,
    ) -> PhaseResult {
        match self {
            Drive::Http(target) => load::http_closed_loop(target, window, ROWS, put_period, puts),
            Drive::Engine {
                engine,
                rows,
                oracle,
            } => load::engine_closed_loop(engine, rows, oracle, DEEP_IN_FLIGHT, window),
        }
    }
}

/// Engine counters and pipeline shape of whatever serves the traffic.
type StatsProbe<'a> = dyn Fn() -> (ServerStats, Option<PipelineStats>) + Sync + 'a;

/// A workload's serving stack as the per-layer probes see it.
struct Stack<'a> {
    drive: Drive<'a>,
    churn: bool,
    /// A gateway serving the workload's model: the workload's own, or
    /// one built for the peel when the workload enters at the engine.
    http: &'a HttpTarget<'a>,
    registry: &'a Registry,
    /// The engine-level entry point of the peel.
    engine: &'a Engine,
    /// The model as served (after optimize/quantize).
    served: &'a CompiledModel,
    rows: &'a [Vec<f32>],
    /// Artifact bytes as uploaded, and the `PUT` flags they serve under.
    bytes: &'a [u8],
    quantize: bool,
    stages: Option<usize>,
    optimize: bool,
    cost_units: u64,
    serving_stats: &'a StatsProbe<'a>,
}

impl Run<'_> {
    fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records a fixed-rate phase: its counts enter the run's totals.
    fn phase(&mut self, label: &str, result: &PhaseResult) {
        let c = result.counts();
        self.counts.add(c);
        let lat = result.ok_latencies_ms();
        let (p50, tail) = match stats::tail_percentile(lat.len(), 99.0) {
            Some(p) => (
                stats::percentile(&lat, 50.0),
                format!(
                    "p{p} {:.3} ms (n={})",
                    stats::percentile(&lat, p),
                    lat.len()
                ),
            ),
            None => (f64::NAN, format!("no tail percentile (n={})", lat.len())),
        };
        self.note(format!(
            "phase {label}: offered {:.0}/s over {:.2}s, attempted {} ok {} shed {} failed {} \
             wrong {} mislabeled {}; p50 {p50:.3} ms, {tail}; generator late p50 {:.0} us \
             p99 {:.0} us; ok {:.0}/s",
            result.rate,
            result.window.as_secs_f64(),
            c.attempted,
            c.ok,
            c.shed,
            c.failed,
            c.wrong,
            c.mislabeled,
            result.lateness_us(50.0),
            result.lateness_us(99.0),
            result.ok_rps(),
        ));
    }

    /// Median over rounds of each round's p50, and the highest percentile
    /// up to p99 with ten samples beyond it over all rounds pooled (ms).
    fn latency(&mut self, label: &str, rounds: &[PhaseResult]) -> (f64, f64) {
        let mids: Vec<f64> = rounds
            .iter()
            .map(PhaseResult::ok_latencies_ms)
            .filter(|lat| !lat.is_empty())
            .map(|lat| stats::percentile(&lat, 50.0))
            .collect();
        let mut pooled: Vec<f64> = rounds
            .iter()
            .flat_map(PhaseResult::ok_latencies_ms)
            .collect();
        pooled.sort_by(f64::total_cmp);
        let Some(tail) = stats::tail_percentile(pooled.len(), 99.0) else {
            self.valid = false;
            self.note(format!("{label}: too few answered requests"));
            return (f64::NAN, f64::NAN);
        };
        let (p50, p99) = (stats::median(&mids), stats::percentile(&pooled, tail));
        let [q1, _, q3] = if mids.len() >= 2 {
            stats::quartiles(&mids)
        } else {
            [mids[0]; 3]
        };
        self.note(format!(
            "{label}: p50 {p50:.3} ms (median of {} rounds, quartiles {q1:.3}..{q3:.3}); \
             p{tail} {p99:.3} ms over all {} answered",
            mids.len(),
            pooled.len()
        ));
        (p50, p99)
    }

    /// The light phase decides whether the run is valid: it must
    /// complete what it offered, and the generator's own p99 lateness
    /// must stay within the SLO (beyond that the generator, not the
    /// system, would be setting the tail).
    fn judge_light(&mut self, spec: &Spec, light: &PhaseResult) {
        let c = light.counts();
        let achieved = c.ok as f64 / c.attempted.max(1) as f64;
        let late = light.lateness_us(99.0);
        let bound = spec.slo_ms * 1e3;
        if achieved < MIN_ACHIEVED || late > bound {
            self.valid = false;
            self.note(format!(
                "light phase invalid: achieved {achieved:.3} of offered (need {MIN_ACHIEVED}), \
                 generator p99 late {late:.0} us (bound {bound:.0})"
            ));
        }
    }

    fn schedule(&mut self, rate: f64, window: Duration, churn: bool) -> Vec<Arrival> {
        let period = churn.then_some(SWAP_PERIOD);
        load::schedule(rate, window, ROWS, period, &mut self.puts, &mut self.rng)
    }

    /// The same arrivals again, with their `PUT`s renumbered after every
    /// swap made so far, so generation `g` still serves artifact `g % 2`.
    fn replay(&mut self, arrivals: &[Arrival]) -> Vec<Arrival> {
        let puts = arrivals
            .iter()
            .filter(|a| matches!(a.req, Req::Put(_)))
            .count();
        self.puts += puts;
        arrivals
            .iter()
            .map(|a| match a.req {
                Req::Put(k) => Arrival {
                    req: Req::Put((k + puts) % 2),
                    ..*a
                },
                Req::Infer(_) => *a,
            })
            .collect()
    }

    /// Binary-searches the fixed ladder for the highest rate meeting the
    /// SLO. Probe counts are reported but kept out of the run totals:
    /// rungs above the SLO rate are expected to miss.
    fn slo_ladder(
        &mut self,
        spec: &Spec,
        drive: &Drive<'_>,
        churn: bool,
        swaps: &mut Vec<f64>,
    ) -> f64 {
        let (low, high, step) = spec.ladder;
        let rungs = stats::ladder(low, high, step);
        let floor = Windows::new(self.args.seconds, spec).probe;
        let mut rng = SeededRng::new(self.args.seed ^ 0x1add_e125);
        let (mut lines, mut wrong, mut puts) = (Vec::new(), 0, self.puts);
        let untraced = Trace::new(false);
        let found = stats::search_ladder(rungs.len(), |i| {
            // Long enough for a p99 with ten samples beyond it.
            let window = floor.max(Duration::from_secs_f64(PROBE_SAMPLES / rungs[i]));
            let period = churn.then_some(SWAP_PERIOD);
            let arrivals = load::schedule(rungs[i], window, ROWS, period, &mut puts, &mut rng);
            let result = drive.open(rungs[i], window, &arrivals, &untraced);
            swaps.extend(result.put_ms());
            let v = stats::judge_rung(&result.slo_latencies_ms(), spec.slo_ms);
            let c = result.counts();
            lines.push(format!(
                "ladder rung {:.0}/s: attempted {} ok {} shed {} failed {} wrong {}; p99 {} ms; \
                 backlog {}; {}",
                rungs[i],
                c.attempted,
                c.ok,
                c.shed,
                c.failed,
                c.wrong,
                v.p99.map_or("n/a".into(), |p| format!("{p:.3}")),
                if v.growing { "growing" } else { "steady" },
                if v.pass { "pass" } else { "miss" },
            ));
            wrong += c.wrong;
            v.pass
        });
        self.puts = puts;
        self.notes.extend(lines);
        // A wrong output is never acceptable, probe or not.
        self.counts.wrong += wrong;
        if let Some(i) = found {
            return rungs[i];
        }
        self.valid = false;
        self.note(format!(
            "slo_rate_rps: even the lowest rung ({low}/s) misses the {} ms SLO",
            spec.slo_ms
        ));
        low / step
    }

    /// The untraced run: [`ROUNDS`] rounds of light, heavy and
    /// closed-loop phases, with [`LADDER_SEARCHES`] SLO-ladder searches
    /// spread among them. Where the traffic makes no hot-swaps,
    /// `idle_swaps` times a few after every round.
    fn measure(
        &mut self,
        spec: &Spec,
        drive: &Drive<'_>,
        churn: bool,
        setup_s: f64,
        mut idle_swaps: impl FnMut() -> Vec<f64>,
    ) {
        let w = Windows::new(self.args.seconds, spec);
        let period = churn.then_some(SWAP_PERIOD);
        let (mut lights, mut heavies, mut saturated) = (Vec::new(), Vec::new(), Vec::new());
        let (mut swaps, mut slo_rates, mut peak_rss) = (Vec::new(), Vec::new(), None);
        for round in 0..ROUNDS {
            let arrivals = self.schedule(spec.light, w.round_light, churn);
            let light = drive.open(spec.light, w.round_light, &arrivals, self.trace);
            self.phase(&format!("light round {round}"), &light);
            self.judge_light(spec, &light);
            let arrivals = self.schedule(spec.heavy, w.round_heavy, churn);
            let heavy = drive.open(spec.heavy, w.round_heavy, &arrivals, self.trace);
            self.phase(&format!("heavy round {round}"), &heavy);
            let mut puts = self.puts;
            let closed = drive.closed(w.round_saturate, period, &mut puts);
            self.puts = puts;
            self.phase(&format!("saturate (closed loop) round {round}"), &closed);
            for r in [&light, &heavy, &closed] {
                swaps.extend(r.put_ms());
                self.counts.attempted += r.put_failures();
                self.counts.failed += r.put_failures();
            }
            lights.push(light);
            heavies.push(heavy);
            saturated.push(closed.ok_rps());
            if !churn {
                swaps.extend(idle_swaps());
            }
            if (round + 1) * LADDER_SEARCHES % ROUNDS < LADDER_SEARCHES {
                // Peak memory through set-up and the first rounds, before
                // the ladder's overload probes add their sample buffers.
                peak_rss.get_or_insert_with(|| layers::peak_rss_mb().unwrap_or(f64::NAN));
                slo_rates.push(self.slo_ladder(spec, drive, churn, &mut swaps));
            }
        }
        self.counts.attempted += swaps.len() as u64;
        self.counts.ok += swaps.len() as u64;
        self.note(format!(
            "swaps: {} timed{}; ladder searches found {slo_rates:?}/s; closed-loop rounds {:?}/s",
            swaps.len(),
            if churn { " under load" } else { " at idle" },
            saturated.iter().map(|r| r.round()).collect::<Vec<_>>()
        ));
        let (p50_light, p99_light) = self.latency("light", &lights);
        let (p50_heavy, p99_heavy) = self.latency("heavy", &heavies);
        self.note(format!(
            "tail (per-layer tail.* metrics in traced runs): p99 light {p99_light:.3} ms, \
             heavy {p99_heavy:.3} ms"
        ));
        self.metric("setup_s", setup_s, "s");
        self.metric("p50_ms.light", p50_light, "ms");
        self.metric("p50_ms.heavy", p50_heavy, "ms");
        // Capacity is the best of the independent attempts. Interference
        // from the host (CPU steal, stalls, thread placement on two cores)
        // only ever makes a rung miss or a round slower, never the
        // reverse, so the maximum is the estimate it biases least; a
        // median flips with how much of a run the host was busy.
        self.metric("slo_rate_rps", max(&slo_rates), "1/s");
        self.metric("max_rps", max(&saturated), "1/s");
        self.metric(
            "swap_ms",
            if swaps.is_empty() {
                f64::NAN
            } else {
                stats::median(&swaps)
            },
            "ms",
        );
        self.metric("peak_rss_mb", peak_rss.unwrap_or(f64::NAN), "MiB");
    }

    fn setups<T>(
        &mut self,
        process_start: Instant,
        mut start: impl FnMut() -> (T, [f64; 3]),
    ) -> (T, Vec<[f64; 4]>) {
        let mut times = Vec::new();
        let mut kept = None;
        for i in 0..SETUPS {
            // Shut the previous set-up down before timing the next.
            drop(kept.take());
            let t0 = if i == 0 {
                process_start
            } else {
                Instant::now()
            };
            let (served, [compose, compile, register]) = start();
            times.push([t0.elapsed().as_secs_f64(), compose, compile, register]);
            kept = Some(served);
        }
        self.note(format!(
            "set-up x{SETUPS} (total, compose, compile, register): {}",
            times
                .iter()
                .map(|t| format!("{:.4}s {:.4}s {:.5}s {:.2}ms", t[0], t[1], t[2], t[3]))
                .collect::<Vec<_>>()
                .join("; ")
        ));
        (kept.expect("at least one set-up"), times)
    }

    // ---------------------------------------------------------------
    // mnist-http and swap-churn
    // ---------------------------------------------------------------

    fn http_workload(&mut self, spec: &Spec, churn: bool, process_start: Instant) {
        let flags: &[(&str, &str)] = if churn {
            &[
                ("x-optimize", "1"),
                ("x-kernels", "int16"),
                ("x-stages", "2"),
            ]
        } else {
            &[]
        };
        let (s, setups) = self.setups(process_start, || {
            let s = HttpServing::start(churn, flags);
            let t = [s.compose_s, s.compile_s, s.register_ms];
            (s, t)
        });
        let rows = models::rows(self.args.seed, ROWS, s.features, 0.0, 1.0);
        let served: Vec<CompiledModel> = s
            .bytes
            .iter()
            .map(|b| models::as_served(b, churn, churn))
            .collect();
        let oracle = Oracle::new(&served.iter().collect::<Vec<_>>(), &rows);
        let infer = infer_requests(&rows);
        let puts: Vec<Vec<u8>> = s
            .bytes
            .iter()
            .map(|b| encode_request("PUT", &format!("/models/{MODEL}"), flags, b))
            .collect();
        let target = HttpTarget {
            addr: s.gateway.local_addr(),
            infer: &infer,
            puts: &puts,
            oracle: &oracle,
            lanes: lanes(),
            per_connection: GatewayConfig::default().max_requests_per_connection,
        };
        let drive = Drive::Http(&target);
        if !self.args.trace {
            let setup_s = stats::median(&setups.iter().map(|t| t[0]).collect::<Vec<_>>());
            // No swaps under traffic here: time idle hot-swaps of the
            // served artifact over HTTP, so `swap_ms` is a client-observed
            // PUT round trip everywhere.
            let addr = target.addr;
            let put = &puts[0];
            self.measure(spec, &drive, churn, setup_s, || {
                (0..IDLE_SWAPS)
                    .filter_map(|_| put_once(addr, put))
                    .collect()
            });
            return;
        }
        let registry = s.gateway.registry();
        let serving_stats = || {
            let m = registry.stats(MODEL).expect("served model has stats");
            (m.server, m.pipeline)
        };
        let stages = churn.then_some(CHURN_STAGES);
        let engine = Engine::start(
            served[0].clone(),
            EngineConfig {
                stages: stages.unwrap_or(0),
                ..EngineConfig::default()
            },
        );
        let stack = Stack {
            drive,
            churn,
            http: &target,
            registry,
            engine: &engine,
            served: &served[0],
            rows: &rows,
            bytes: &s.bytes[0],
            quantize: churn,
            stages,
            optimize: churn,
            cost_units: s.cost_units,
            serving_stats: &serving_stats,
        };
        self.traced(spec, &stack, &setups);
    }

    // ---------------------------------------------------------------
    // deep-engine
    // ---------------------------------------------------------------

    fn deep_workload(&mut self, spec: &Spec, process_start: Instant) {
        let (d, setups) = self.setups(process_start, || {
            let d = DeepServing::start();
            let t = [d.compose_s, d.compile_s, d.register_ms];
            (d, t)
        });
        self.note(format!("engine stages {}", d.engine.stage_count()));
        let rows = models::rows(
            self.args.seed,
            ROWS,
            d.engine.model().input_features(),
            -2.0,
            2.0,
        );
        let oracle = Oracle::new(&[d.engine.model()], &rows);
        let drive = Drive::Engine {
            engine: &d.engine,
            rows: &rows,
            oracle: &oracle,
        };
        if !self.args.trace {
            let setup_s = stats::median(&setups.iter().map(|t| t[0]).collect::<Vec<_>>());
            // The deep model is not behind a gateway: time the registry's
            // in-process hot-swap of it, under the flags it serves with.
            let bytes = &d.bytes;
            self.measure(spec, &drive, false, setup_s, || {
                layers::registry_swaps_ms(bytes, true, Some(DEEP_STAGES), false, IDLE_SWAPS)
            });
            return;
        }
        // The peel's HTTP and registry levels serve the same model
        // through a gateway, with the flags it needs there.
        let gateway = Gateway::bind(GatewayConfig::default()).expect("gateway binds on loopback");
        let stages = DEEP_STAGES.to_string();
        let put = encode_request(
            "PUT",
            &format!("/models/{MODEL}"),
            &[("x-kernels", "int16"), ("x-stages", &stages)],
            &d.bytes,
        );
        assert!(
            put_once(gateway.local_addr(), &put).is_some(),
            "deep model registers over HTTP"
        );
        let infer = infer_requests(&rows);
        let target = HttpTarget {
            addr: gateway.local_addr(),
            infer: &infer,
            puts: &[],
            oracle: &oracle,
            lanes: lanes(),
            per_connection: GatewayConfig::default().max_requests_per_connection,
        };
        let engine = &d.engine;
        let serving_stats = || (engine.stats(), engine.pipeline_stats());
        let stack = Stack {
            drive,
            churn: false,
            http: &target,
            registry: gateway.registry(),
            engine,
            served: engine.model(),
            rows: &rows,
            bytes: &d.bytes,
            quantize: true,
            stages: Some(DEEP_STAGES),
            optimize: false,
            cost_units: d.cost_units,
            serving_stats: &serving_stats,
        };
        self.traced(spec, &stack, &setups);
    }

    // ---------------------------------------------------------------
    // The traced run, shared by every workload
    // ---------------------------------------------------------------

    fn traced(&mut self, spec: &Spec, k: &Stack<'_>, setups: &[[f64; 4]]) {
        let w = Windows::new(self.args.seconds, spec);
        // Tracing overhead: one light schedule untraced, then traced.
        let arrivals = self.schedule(spec.light, w.light, k.churn);
        let plain = k
            .drive
            .open(spec.light, w.light, &arrivals, &Trace::new(false));
        self.phase("light (untraced)", &plain);
        self.judge_light(spec, &plain);
        let arrivals = self.replay(&arrivals);
        let light = k.drive.open(spec.light, w.light, &arrivals, self.trace);
        self.phase("light (traced)", &light);
        let arrivals = self.schedule(spec.heavy, w.heavy, k.churn);
        let (heavy, occupancy) = sample_occupancy(
            || {
                (k.serving_stats)().1.map(|p| {
                    p.stages
                        .iter()
                        .map(|st| st.queue_depth as f64 / st.queue_capacity.max(1) as f64)
                        .collect()
                })
            },
            || k.drive.open(spec.heavy, w.heavy, &arrivals, self.trace),
        );
        self.phase("heavy (traced)", &heavy);
        let mut traffic = light.counts();
        traffic.add(heavy.counts());
        let (serving, pipeline) = (k.serving_stats)();

        // The peel: one schedule through successively lower entry points,
        // interleaved in rounds so host drift hits every level alike. Its
        // lanes serve their share in order (at most two requests in
        // flight), so it runs at PEEL_RATE, which every level sustains.
        // Swap traffic is left out so every level sees reads only.
        let window = Duration::from_secs_f64(PROBE_SAMPLES / PEEL_RATE / PEEL_ROUNDS as f64);
        let mut levels: [Vec<load::Sample>; 3] = Default::default();
        let before = k.engine.stats();
        for _ in 0..PEEL_ROUNDS {
            let arrivals = self.schedule(PEEL_RATE, window, false);
            let http = load::http_open_loop(k.http, PEEL_RATE, window, &arrivals, self.trace);
            let registry = load::call_open_loop(
                k.http.lanes,
                &arrivals,
                k.http.oracle,
                &|row| {
                    k.registry
                        .infer(MODEL, k.rows[row].clone())
                        .map_err(gateway_outcome)
                },
                self.trace,
                "registry.infer",
            );
            let engine = load::call_open_loop(
                k.http.lanes,
                &arrivals,
                k.http.oracle,
                &|row| engine_call(k.engine, &k.rows[row]),
                self.trace,
                "engine.roundtrip",
            );
            for (level, r) in levels.iter_mut().zip([http, registry, engine]) {
                level.extend(r.samples);
            }
        }
        let after = k.engine.stats();
        let formed = (after.submitted - before.submitted) as f64
            / (after.batches - before.batches).max(1) as f64;
        let [l_http, l_registry, l_engine] = levels.map(|samples| PhaseResult {
            rate: PEEL_RATE,
            window: window * PEEL_ROUNDS as u32,
            samples,
            tally: Counts::default(),
        });
        self.phase("peel http", &l_http);
        self.phase("peel registry", &l_registry);
        self.phase("peel engine", &l_engine);

        let med_us = |r: &PhaseResult| {
            let lat = r.ok_latencies_ms();
            if lat.is_empty() {
                f64::NAN
            } else {
                stats::percentile(&lat, 50.0) * 1e3
            }
        };
        let (http_us, registry_us, engine_us) =
            (med_us(&l_http), med_us(&l_registry), med_us(&l_engine));
        let formed_rows = formed.round().clamp(1.0, 32.0) as usize;
        let kernel_us =
            layers::kernel_ns_per_row(k.served, k.rows, formed_rows) * formed_rows as f64 / 1e3;
        let b1 = layers::kernel_ns_per_row(k.served, k.rows, 1);
        let b2 = layers::kernel_ns_per_row(k.served, k.rows, 2);
        let b32 = layers::kernel_ns_per_row(k.served, k.rows, 32);
        let gemm = layers::gemm_ns_per_row(k.served, k.rows, 32);
        let a = layers::artifact_costs(k.bytes);
        let put_ms = stats::median(&layers::registry_swaps_ms(
            k.bytes, k.quantize, k.stages, k.optimize, IDLE_SWAPS,
        ));
        let load_us = a.decode_us
            + if k.optimize { a.optimize_us } else { 0.0 }
            + if k.quantize { a.quantize_us } else { 0.0 };
        let stats_us = layers::median_us(9, 200, || {
            std::hint::black_box(k.registry.stats(MODEL).expect("served model has stats"));
        });
        let (write_us, resp_bytes) =
            layers::http_write_us(&le_bytes(&vec![0.0; k.served.output_features()]));
        let setup_med = |i: usize| stats::median(&setups.iter().map(|t| t[i]).collect::<Vec<_>>());
        let (_, tail_light) = self.latency("light (untraced)", std::slice::from_ref(&plain));
        let (_, tail_heavy) = self.latency("heavy (traced)", std::slice::from_ref(&heavy));
        self.note(format!(
            "peel medians (us): http {http_us:.1} > registry {registry_us:.1} > engine {engine_us:.1} \
             > kernel {kernel_us:.1} at the formed batch of {formed_rows}; self: http {:.1}, \
             registry {:.1}, engine wait {:.1}",
            http_us - registry_us,
            registry_us - engine_us,
            engine_us - kernel_us
        ));
        self.note(format!(
            "dense-GEMM yardstick at 32 rows: LUT {b32:.1} ns/row vs GEMM {gemm:.1} ns/row, \
             LUT/GEMM {:.3} ({})",
            b32 / gemm,
            if b32 > gemm { "LUT loses" } else { "LUT wins" }
        ));
        let stage = |i: usize| {
            (
                pipeline
                    .as_ref()
                    .and_then(|p| p.stages.get(i))
                    .map_or(0.0, |st| st.cost_units as f64),
                occupancy.get(i).copied().unwrap_or(0.0),
            )
        };
        let ((cost0, occ0), (cost1, occ1)) = (stage(0), stage(1));
        let metrics: [(&'static str, f64, &'static str); 47] = [
            ("tail.p99_ms.light", tail_light, "ms"),
            ("tail.p99_ms.heavy", tail_heavy, "ms"),
            (
                "http.parse_us",
                layers::http_parse_us(&k.http.infer[0]),
                "us",
            ),
            ("http.write_us", write_us, "us"),
            ("http.req_bytes", k.http.infer[0].len() as f64, "bytes"),
            ("http.resp_bytes", resp_bytes as f64, "bytes"),
            ("http.self_us", http_us - registry_us, "us"),
            ("registry.infer_us", registry_us, "us"),
            ("registry.self_us", registry_us - engine_us, "us"),
            ("registry.stats_us", stats_us, "us"),
            ("registry.put_ms", put_ms, "ms"),
            ("registry.warm_cutover_ms", put_ms - load_us / 1e3, "ms"),
            ("registry.shed", traffic.shed as f64, "count"),
            (
                "registry.generation_mismatch",
                traffic.mislabeled as f64,
                "count",
            ),
            ("engine.roundtrip_us", engine_us, "us"),
            ("engine.wait_us", engine_us - kernel_us, "us"),
            ("engine.mean_batch_rows", serving.mean_batch_size, "rows"),
            ("engine.batches", serving.batches as f64, "count"),
            (
                "engine.peak_queue_depth",
                serving.peak_queue_depth as f64,
                "count",
            ),
            ("engine.shed", serving.shed as f64, "count"),
            ("pipeline.stage0.cost_units", cost0, "units"),
            ("pipeline.stage1.cost_units", cost1, "units"),
            ("pipeline.stage0.occupancy", occ0, "share"),
            ("pipeline.stage1.occupancy", occ1, "share"),
            ("kernels.ns_per_row.b1", b1, "ns"),
            ("kernels.ns_per_row.b2", b2, "ns"),
            ("kernels.ns_per_row.b32", b32, "ns"),
            ("kernels.gemm_ns_per_row", gemm, "ns"),
            ("kernels.lut_over_gemm", b32 / gemm, "ratio"),
            (
                "kernels.ns_per_cost_unit",
                b32 / k.cost_units.max(1) as f64,
                "ns",
            ),
            ("artifact.bytes", a.bytes as f64, "bytes"),
            ("artifact.decode_us", a.decode_us, "us"),
            ("analyze.verify_us", a.verify_us, "us"),
            ("analyze.optimize_us", a.optimize_us, "us"),
            ("analyze.optimized_bytes", a.optimized_bytes as f64, "bytes"),
            ("analyze.quantize_us", a.quantize_us, "us"),
            ("setup.compose_s", setup_med(1), "s"),
            ("setup.compile_s", setup_med(2), "s"),
            ("setup.register_ms", setup_med(3), "ms"),
            ("peel.http_us", http_us, "us"),
            ("peel.registry_us", registry_us, "us"),
            ("peel.engine_us", engine_us, "us"),
            ("peel.kernel_us", kernel_us, "us"),
            ("peel.formed_batch_rows", formed, "rows"),
            ("trace.overhead_us", med_us(&light) - med_us(&plain), "us"),
            ("generator.late_p99_us", plain.lateness_us(99.0), "us"),
            ("generator.late_p50_us", plain.lateness_us(50.0), "us"),
        ];
        for (name, value, unit) in metrics {
            self.metric(name, value, unit);
        }
    }
}

fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NAN, f64::max)
}

/// Stages the deep-engine workload serves with.
const DEEP_STAGES: usize = 2;
/// Stages `swap-churn` asks for in its `PUT`s (the `x-stages` header in
/// `http_workload`), so a listed workload exercises a sharded pipeline.
const CHURN_STAGES: usize = 2;

/// One encoded `POST /models/{MODEL}/infer` per row, LE-f32 body.
fn infer_requests(rows: &[Vec<f32>]) -> Vec<Vec<u8>> {
    rows.iter()
        .map(|row| {
            encode_request(
                "POST",
                &format!("/models/{MODEL}/infer"),
                &[("content-type", "application/octet-stream")],
                &le_bytes(row),
            )
        })
        .collect()
}

/// Runs `work` while a sampler thread polls per-stage queue occupancy
/// every millisecond; returns the work's result and the mean occupancy
/// per stage.
fn sample_occupancy<R: Send>(
    poll: impl Fn() -> Option<Vec<f64>> + Sync,
    work: impl FnOnce() -> R,
) -> (R, Vec<f64>) {
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let (mut sums, mut n) = (Vec::<f64>::new(), 0usize);
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                if let Some(occ) = poll() {
                    sums.resize(occ.len().max(sums.len()), 0.0);
                    for (s, o) in sums.iter_mut().zip(occ) {
                        *s += o;
                    }
                    n += 1;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            sums.iter().map(|s| s / n.max(1) as f64).collect()
        });
        let result = work();
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        (result, sampler.join().expect("occupancy sampler panicked"))
    })
}

fn gateway_outcome(e: GatewayError) -> Outcome {
    match e {
        GatewayError::Shed { .. } => Outcome::Shed,
        _ => Outcome::Failed,
    }
}

fn engine_call(engine: &Engine, row: &[f32]) -> Result<Vec<f32>, Outcome> {
    engine
        .try_submit(row.to_vec())
        .and_then(Ticket::wait)
        .map_err(|e| match e {
            ServeError::QueueFull => Outcome::Shed,
            _ => Outcome::Failed,
        })
}

fn le_bytes(values: &[f32]) -> Vec<u8> {
    values.iter().flat_map(|v| v.to_le_bytes()).collect()
}

/// One `PUT` on a fresh connection; its round trip (ms) when it
/// succeeded.
fn put_once(addr: SocketAddr, request: &[u8]) -> Option<f64> {
    let t = Instant::now();
    let mut stream = TcpStream::connect(addr).ok()?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .ok()?;
    stream.write_all(request).ok()?;
    let response = ResponseReader::new(stream).next_response().ok()??;
    matches!(response.status, 200 | 201).then(|| t.elapsed().as_secs_f64() * 1e3)
}

/// A gateway serving mnist-tiny, set up anew.
struct HttpServing {
    gateway: Gateway,
    /// Artifact bytes: one, or two same-shape artifacts for swap-churn.
    bytes: Vec<Vec<u8>>,
    features: usize,
    cost_units: u64,
    compose_s: f64,
    compile_s: f64,
    register_ms: f64,
}

impl HttpServing {
    fn start(churn: bool, flags: &[(&str, &str)]) -> HttpServing {
        let seeds: &[u64] = if churn {
            &models::MNIST_SEEDS
        } else {
            &models::MNIST_SEEDS[..1]
        };
        let composed: Vec<Composed> = seeds.iter().map(|&s| models::mnist(s)).collect();
        let t = Instant::now();
        let bytes: Vec<Vec<u8>> = composed.iter().map(|c| c.model.to_bytes()).collect();
        let compile_s =
            composed.iter().map(|c| c.compile_s).sum::<f64>() + t.elapsed().as_secs_f64();
        let gateway = Gateway::bind(GatewayConfig::default()).expect("gateway binds on loopback");
        let put = encode_request("PUT", &format!("/models/{MODEL}"), flags, &bytes[0]);
        let register_ms =
            put_once(gateway.local_addr(), &put).expect("initial PUT registers the model");
        HttpServing {
            gateway,
            features: composed[0].model.input_features(),
            cost_units: composed[0].cost_units,
            compose_s: composed.iter().map(|c| c.compose_s).sum(),
            compile_s,
            register_ms,
            bytes,
        }
    }
}

/// The deep MLP served straight from an engine, set up anew.
struct DeepServing {
    engine: Engine,
    bytes: Vec<u8>,
    cost_units: u64,
    compose_s: f64,
    compile_s: f64,
    register_ms: f64,
}

impl DeepServing {
    fn start() -> DeepServing {
        let composed = models::deep(models::DEEP_SEED);
        let t = Instant::now();
        let bytes = composed.model.to_bytes();
        let mut model = composed.model;
        model.quantize().expect("deep MLP quantizes");
        assert_eq!(
            model.kernel_path(),
            "int16",
            "every deep op must be licensed"
        );
        let compile_s = composed.compile_s + t.elapsed().as_secs_f64();
        let t = Instant::now();
        let engine = Engine::start(
            model,
            EngineConfig {
                stages: DEEP_STAGES,
                ..EngineConfig::default()
            },
        );
        // Warm like the registry does before taking traffic.
        let features = engine.model().input_features();
        for i in 0..RegistryConfig::default().warmup_samples {
            let input: Vec<f32> = (0..features)
                .map(|f| ((i * 31 + f * 7) % 17) as f32 / 16.0 - 0.5)
                .collect();
            engine
                .try_submit(input)
                .and_then(Ticket::wait)
                .expect("warmup inference succeeds");
        }
        DeepServing {
            register_ms: t.elapsed().as_secs_f64() * 1e3,
            engine,
            bytes,
            cost_units: composed.cost_units,
            compose_s: composed.compose_s,
            compile_s,
        }
    }
}
