//! Load generators: open-loop Poisson schedules driven over pipelined
//! HTTP connections, straight into an engine, or through in-process
//! calls, plus closed-loop saturation loops.
//!
//! Open-loop latency always runs from the *scheduled* arrival time, so
//! a stall that delays later sends is charged to those requests, and
//! every sample also records how late the generator sent it.

use crate::client::ResponseReader;
use crate::models::{Oracle, Verdict};
use crate::stats;
use crate::trace::{Span, Trace};
use rapidnn::serve::{Engine, ServeError, Ticket};
use rapidnn::tensor::SeededRng;
use std::collections::VecDeque;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How long a client waits on a silent connection before failing it.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Req {
    /// Inference on request row `n`.
    Infer(usize),
    /// Hot-swap `PUT` of artifact `n`.
    Put(usize),
}

/// A request and its offset from the phase start.
#[derive(Debug, Clone, Copy)]
pub struct Arrival {
    /// Offset from the phase start.
    pub at: Duration,
    /// What to send.
    pub req: Req,
}

/// How one request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Answered, and bit-identical to the oracle.
    Ok,
    /// Refused by admission control or a full queue (429 / `QueueFull`).
    Shed,
    /// Any other error, dropped connection or timeout.
    Failed,
    /// Answered with an output that matches no served artifact.
    Wrong,
}

/// One request's timeline.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// What was sent.
    pub req: Req,
    /// When it was due.
    pub scheduled: Instant,
    /// When the generator sent it.
    pub sent: Instant,
    /// When the answer was complete.
    pub done: Instant,
    /// How it ended.
    pub outcome: Outcome,
    /// The output matched the artifact other than the one its
    /// generation header named.
    pub mislabeled: bool,
}

/// Counts of one phase's inference requests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Requests scheduled.
    pub attempted: u64,
    /// Answered correctly.
    pub ok: u64,
    /// Shed (429 or `QueueFull`).
    pub shed: u64,
    /// Failed otherwise.
    pub failed: u64,
    /// Answered with a wrong output.
    pub wrong: u64,
    /// Correct output under the other artifact's generation label.
    pub mislabeled: u64,
}

impl Counts {
    /// Counts one inference outcome.
    pub fn record(&mut self, outcome: Outcome) {
        self.attempted += 1;
        match outcome {
            Outcome::Ok => self.ok += 1,
            Outcome::Shed => self.shed += 1,
            Outcome::Failed => self.failed += 1,
            Outcome::Wrong => self.wrong += 1,
        }
    }

    /// Adds another phase's counts.
    pub fn add(&mut self, other: Counts) {
        self.attempted += other.attempted;
        self.ok += other.ok;
        self.shed += other.shed;
        self.failed += other.failed;
        self.wrong += other.wrong;
        self.mislabeled += other.mislabeled;
    }

    /// Requests that did not end correctly.
    pub fn bad(&self) -> u64 {
        self.shed + self.failed + self.wrong
    }
}

/// Everything one phase measured.
#[derive(Debug, Clone)]
pub struct PhaseResult {
    /// Nominal offered rate (requests per second); `0` for closed loops.
    pub rate: f64,
    /// Length of the schedule (or of the closed-loop window).
    pub window: Duration,
    /// Every timed request, in schedule order.
    pub samples: Vec<Sample>,
    /// Inference outcomes counted without a timeline (closed loops,
    /// where only throughput is reported).
    pub tally: Counts,
}

impl PhaseResult {
    fn infers(&self) -> impl Iterator<Item = &Sample> {
        self.samples
            .iter()
            .filter(|s| matches!(s.req, Req::Infer(_)))
    }

    /// Outcome counts over inference requests.
    pub fn counts(&self) -> Counts {
        let mut c = self.tally;
        for s in self.infers() {
            c.record(s.outcome);
            c.mislabeled += u64::from(s.mislabeled);
        }
        c
    }

    /// Latencies (ms, from schedule) of correctly answered inferences,
    /// ascending.
    pub fn ok_latencies_ms(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .infers()
            .filter(|s| s.outcome == Outcome::Ok)
            .map(|s| ms(s.done - s.scheduled))
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Latencies (ms) in schedule order with every miss as infinity —
    /// the input of the SLO verdict.
    pub fn slo_latencies_ms(&self) -> Vec<f64> {
        self.infers()
            .map(|s| match s.outcome {
                Outcome::Ok => ms(s.done - s.scheduled),
                _ => f64::INFINITY,
            })
            .collect()
    }

    /// Percentile (µs) of how late the generator sent each request.
    pub fn lateness_us(&self, p: f64) -> f64 {
        let mut v: Vec<f64> = self
            .samples
            .iter()
            .map(|s| (s.sent - s.scheduled).as_secs_f64() * 1e6)
            .collect();
        if v.is_empty() {
            return 0.0;
        }
        v.sort_by(f64::total_cmp);
        stats::percentile(&v, p)
    }

    /// Round trips (ms, from schedule) of successful `PUT`s.
    pub fn put_ms(&self) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| matches!(s.req, Req::Put(_)) && s.outcome == Outcome::Ok)
            .map(|s| ms(s.done - s.scheduled))
            .collect()
    }

    /// Failed `PUT`s.
    pub fn put_failures(&self) -> u64 {
        self.samples
            .iter()
            .filter(|s| matches!(s.req, Req::Put(_)) && s.outcome != Outcome::Ok)
            .count() as u64
    }

    /// Correct answers per second of window.
    pub fn ok_rps(&self) -> f64 {
        self.counts().ok as f64 / self.window.as_secs_f64()
    }
}

/// Milliseconds as `f64`.
fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Poisson arrival offsets at `rate` per second over `window`.
pub fn poisson(rate: f64, window: Duration, rng: &mut SeededRng) -> Vec<Duration> {
    let mut t = 0.0f64;
    let end = window.as_secs_f64();
    let mut out = Vec::with_capacity((rate * end * 1.1) as usize + 16);
    loop {
        let u = f64::from(rng.uniform(0.0, 1.0));
        t += -(1.0 - u).ln() / rate;
        if t >= end {
            return out;
        }
        out.push(Duration::from_secs_f64(t));
    }
}

/// Poisson inference arrivals over `rows` request rows, with a hot-swap
/// `PUT` every `put_period` (alternating artifacts, continuing from
/// `*puts` swaps already made) when one is given.
pub fn schedule(
    rate: f64,
    window: Duration,
    rows: usize,
    put_period: Option<Duration>,
    puts: &mut usize,
    rng: &mut SeededRng,
) -> Vec<Arrival> {
    let mut arrivals: Vec<Arrival> = poisson(rate, window, rng)
        .into_iter()
        .map(|at| Arrival {
            at,
            req: Req::Infer((rng.uniform(0.0, 1.0) * rows as f32) as usize % rows),
        })
        .collect();
    if let Some(period) = put_period {
        let mut at = period / 2;
        while at < window {
            *puts += 1;
            arrivals.push(Arrival {
                at,
                req: Req::Put(*puts % 2),
            });
            at += period;
        }
        arrivals.sort_by_key(|a| a.at);
    }
    arrivals
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Where HTTP traffic goes and what it carries.
pub struct HttpTarget<'a> {
    /// Gateway address.
    pub addr: SocketAddr,
    /// Encoded inference request per row.
    pub infer: &'a [Vec<u8>],
    /// Encoded `PUT` request per artifact.
    pub puts: &'a [Vec<u8>],
    /// Output oracle; artifact `g % n` serves generation `g`.
    pub oracle: &'a Oracle,
    /// Concurrent connections (and generator threads).
    pub lanes: usize,
    /// Requests the gateway serves per connection before closing it.
    pub per_connection: usize,
}

fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    Ok(stream)
}

/// Classifies one HTTP answer.
fn classify_http(
    req: Req,
    status: u16,
    generation: Option<u64>,
    body: &[u8],
    oracle: &Oracle,
) -> (Outcome, bool) {
    match (req, status) {
        (Req::Put(_), 200 | 201) => (Outcome::Ok, false),
        (Req::Infer(row), 200) => {
            let claimed = usize::try_from(generation.unwrap_or(0)).unwrap_or(0);
            match oracle.check_bytes(row, claimed, body) {
                Verdict::Match => (Outcome::Ok, false),
                Verdict::MislabeledGeneration => (Outcome::Ok, true),
                Verdict::Wrong => (Outcome::Wrong, false),
            }
        }
        (Req::Infer(_), 429) => (Outcome::Shed, false),
        _ => (Outcome::Failed, false),
    }
}

enum LaneMsg {
    Conn(TcpStream),
    Req {
        req: Req,
        scheduled: Instant,
        sent: Instant,
        written: bool,
    },
}

/// Drives `arrivals` open-loop over `target.lanes` pipelined keep-alive
/// connections. `PUT`s ride lane 0; inferences are dealt round-robin.
/// Each lane has a generator thread that writes on schedule and a
/// reader thread that frames answers in order. A connection closed by
/// the gateway's per-connection cap is replaced by a fresh one; the
/// reconnect is charged to the latency of the request that waits for it
/// and is not a failure.
pub fn http_open_loop(
    target: &HttpTarget<'_>,
    rate: f64,
    window: Duration,
    arrivals: &[Arrival],
    trace: &Trace,
) -> PhaseResult {
    let lanes = target.lanes.max(1);
    let mut per_lane: Vec<Vec<Arrival>> = vec![Vec::new(); lanes];
    let mut next = 0;
    for a in arrivals {
        match a.req {
            Req::Put(_) => per_lane[0].push(*a),
            Req::Infer(_) => {
                per_lane[next % lanes].push(*a);
                next += 1;
            }
        }
    }
    let streams: Vec<Option<TcpStream>> = (0..lanes).map(|_| connect(target.addr).ok()).collect();
    let start = Instant::now() + Duration::from_millis(5);
    let mut samples: Vec<Sample> = std::thread::scope(|scope| {
        let readers: Vec<_> = per_lane
            .iter()
            .zip(streams)
            .map(|(lane, stream)| {
                let (tx, rx) = mpsc::channel::<LaneMsg>();
                scope.spawn(move || generate_lane(target, lane, stream, start, &tx));
                scope.spawn(move || read_lane(target.oracle, &rx, trace))
            })
            .collect();
        readers
            .into_iter()
            .flat_map(|h| h.join().expect("lane reader thread panicked"))
            .collect()
    });
    samples.sort_by_key(|s| s.scheduled);
    PhaseResult {
        rate,
        window,
        samples,
        tally: Counts::default(),
    }
}

fn generate_lane(
    target: &HttpTarget<'_>,
    lane: &[Arrival],
    mut stream: Option<TcpStream>,
    start: Instant,
    tx: &mpsc::Sender<LaneMsg>,
) {
    let cap = target.per_connection.max(1);
    let mut on_conn = 0usize;
    if let Some(s) = stream.as_ref().and_then(|s| s.try_clone().ok()) {
        let _ = tx.send(LaneMsg::Conn(s));
    }
    for a in lane {
        let scheduled = start + a.at;
        sleep_until(scheduled);
        if stream.is_none() || on_conn == cap {
            stream = connect(target.addr).ok();
            on_conn = 0;
            if let Some(s) = stream.as_ref().and_then(|s| s.try_clone().ok()) {
                let _ = tx.send(LaneMsg::Conn(s));
            }
        }
        let sent = Instant::now();
        let bytes = match a.req {
            Req::Infer(row) => &target.infer[row],
            Req::Put(k) => &target.puts[k],
        };
        let written = stream.as_mut().is_some_and(|s| s.write_all(bytes).is_ok());
        on_conn += 1;
        if !written {
            // Start over on a fresh connection next time.
            on_conn = cap;
        }
        let _ = tx.send(LaneMsg::Req {
            req: a.req,
            scheduled,
            sent,
            written,
        });
    }
}

fn read_lane(oracle: &Oracle, rx: &mpsc::Receiver<LaneMsg>, trace: &Trace) -> Vec<Sample> {
    let mut reader: Option<ResponseReader<TcpStream>> = None;
    let mut samples = Vec::new();
    let mut spans: Vec<Span> = Vec::new();
    for msg in rx {
        match msg {
            LaneMsg::Conn(stream) => reader = Some(ResponseReader::new(stream)),
            LaneMsg::Req {
                req,
                scheduled,
                sent,
                written,
            } => {
                let answer = if written {
                    reader.as_mut().map(|r| (r.next_response(), r.first_byte()))
                } else {
                    None
                };
                let done = Instant::now();
                let (outcome, mislabeled, first) = match answer {
                    Some((Ok(Some(resp)), first)) => {
                        let (outcome, mislabeled) =
                            classify_http(req, resp.status, resp.generation, &resp.body, oracle);
                        if resp.close {
                            reader = None;
                        }
                        (outcome, mislabeled, first.unwrap_or(done))
                    }
                    _ => {
                        // The connection is unusable for whatever else
                        // was pipelined on it.
                        reader = None;
                        (Outcome::Failed, false, done)
                    }
                };
                if trace.enabled() {
                    let root = trace.span(&mut spans, 0, "http.request", scheduled, done);
                    trace.span(&mut spans, root, "client.late", scheduled, sent);
                    trace.span(&mut spans, root, "http.to_first_byte", sent, first);
                    trace.span(&mut spans, root, "http.read_rest", first, done);
                }
                samples.push(Sample {
                    req,
                    scheduled,
                    sent,
                    done,
                    outcome,
                    mislabeled,
                });
            }
        }
    }
    trace.absorb(spans);
    samples
}

/// Closed-loop HTTP saturation: `target.lanes` connections each send a
/// request as soon as the previous answer arrives, for `window`. With
/// `put_period`, lane 0 also sends a hot-swap `PUT` on that period,
/// continuing the artifact alternation from `*puts`.
pub fn http_closed_loop(
    target: &HttpTarget<'_>,
    window: Duration,
    rows: usize,
    put_period: Option<Duration>,
    puts: &mut usize,
) -> PhaseResult {
    let lanes = target.lanes.max(1);
    let first_put = *puts;
    let start = Instant::now();
    let end = start + window;
    let results: Vec<(Vec<Sample>, Counts, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..lanes)
            .map(|lane| {
                scope.spawn(move || {
                    let period = if lane == 0 { put_period } else { None };
                    closed_lane(target, lane, rows, start, end, period, first_put)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop lane panicked"))
            .collect()
    });
    let (mut samples, mut tally) = (Vec::new(), Counts::default());
    for (lane_samples, lane_tally, lane_puts) in results {
        samples.extend(lane_samples);
        tally.add(lane_tally);
        *puts += lane_puts;
    }
    samples.sort_by_key(|s| s.scheduled);
    PhaseResult {
        rate: 0.0,
        window,
        samples,
        tally,
    }
}

fn closed_lane(
    target: &HttpTarget<'_>,
    lane: usize,
    rows: usize,
    start: Instant,
    end: Instant,
    put_period: Option<Duration>,
    first_put: usize,
) -> (Vec<Sample>, Counts, usize) {
    let cap = target.per_connection.max(1);
    let (mut samples, mut tally) = (Vec::new(), Counts::default());
    let mut conn: Option<(TcpStream, ResponseReader<TcpStream>)> = None;
    let (mut on_conn, mut i, mut puts) = (0usize, lane, 0usize);
    let mut next_put = put_period.map(|p| start + p / 2);
    while Instant::now() < end {
        let req = match next_put {
            Some(t) if Instant::now() >= t => {
                puts += 1;
                next_put = put_period.map(|p| t + p);
                Req::Put((first_put + puts) % 2)
            }
            _ => {
                i += target.lanes;
                Req::Infer(i % rows)
            }
        };
        if conn.is_none() || on_conn == cap {
            conn = connect(target.addr)
                .ok()
                .and_then(|s| Some((s.try_clone().ok()?, ResponseReader::new(s))));
            on_conn = 0;
        }
        let sent = Instant::now();
        let bytes = match req {
            Req::Infer(row) => &target.infer[row],
            Req::Put(k) => &target.puts[k],
        };
        on_conn += 1;
        let answer = conn.as_mut().and_then(|(w, r)| {
            w.write_all(bytes).ok()?;
            r.next_response().ok().flatten()
        });
        let done = Instant::now();
        let (outcome, mislabeled) = match &answer {
            Some(resp) => {
                classify_http(req, resp.status, resp.generation, &resp.body, target.oracle)
            }
            None => (Outcome::Failed, false),
        };
        if answer.as_ref().is_none_or(|r| r.close) {
            conn = None;
        }
        match req {
            Req::Infer(_) => {
                tally.record(outcome);
                tally.mislabeled += u64::from(mislabeled);
            }
            Req::Put(_) => samples.push(Sample {
                req,
                scheduled: sent,
                sent,
                done,
                outcome,
                mislabeled,
            }),
        }
    }
    (samples, tally, puts)
}

/// Checks an output that carries no generation label: it is correct
/// when it matches any served artifact.
fn unlabeled(oracle: &Oracle, row: usize, output: &[f32]) -> Outcome {
    match oracle.check(row, 0, output) {
        Verdict::Match | Verdict::MislabeledGeneration => Outcome::Ok,
        Verdict::Wrong => Outcome::Wrong,
    }
}

fn classify_engine(result: Result<Vec<f32>, ServeError>, row: usize, oracle: &Oracle) -> Outcome {
    match result {
        Ok(output) => unlabeled(oracle, row, &output),
        Err(ServeError::QueueFull) => Outcome::Shed,
        Err(_) => Outcome::Failed,
    }
}

/// Drives `arrivals` open-loop straight into `engine`: this thread
/// calls `try_submit` on schedule and one collector thread redeems the
/// tickets in order.
pub fn engine_open_loop(
    engine: &Engine,
    rows: &[Vec<f32>],
    oracle: &Oracle,
    rate: f64,
    window: Duration,
    arrivals: &[Arrival],
    trace: &Trace,
) -> PhaseResult {
    type Pending = (usize, Instant, Instant, Result<Ticket, ServeError>);
    let start = Instant::now() + Duration::from_millis(2);
    let mut samples = std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel::<Pending>();
        let collector = scope.spawn(move || {
            let mut spans = Vec::new();
            let mut samples = Vec::new();
            for (row, scheduled, sent, ticket) in rx {
                let result = ticket.and_then(Ticket::wait);
                let done = Instant::now();
                let outcome = classify_engine(result, row, oracle);
                if trace.enabled() {
                    let root = trace.span(&mut spans, 0, "engine.ticket", scheduled, done);
                    trace.span(&mut spans, root, "client.late", scheduled, sent);
                    trace.span(&mut spans, root, "engine.submit_to_redeem", sent, done);
                }
                samples.push(Sample {
                    req: Req::Infer(row),
                    scheduled,
                    sent,
                    done,
                    outcome,
                    mislabeled: false,
                });
            }
            trace.absorb(spans);
            samples
        });
        for a in arrivals {
            let Req::Infer(row) = a.req else { continue };
            let scheduled = start + a.at;
            sleep_until(scheduled);
            let sent = Instant::now();
            let ticket = engine.try_submit(rows[row].clone());
            if tx.send((row, scheduled, sent, ticket)).is_err() {
                break;
            }
        }
        drop(tx);
        collector.join().expect("ticket collector panicked")
    });
    samples.sort_by_key(|s| s.scheduled);
    PhaseResult {
        rate,
        window,
        samples,
        tally: Counts::default(),
    }
}

/// Closed-loop engine saturation: keeps `in_flight` tickets outstanding
/// for `window`, redeeming the oldest before submitting the next.
pub fn engine_closed_loop(
    engine: &Engine,
    rows: &[Vec<f32>],
    oracle: &Oracle,
    in_flight: usize,
    window: Duration,
) -> PhaseResult {
    let start = Instant::now();
    let end = start + window;
    let mut queue: VecDeque<(usize, Result<Ticket, ServeError>)> = VecDeque::new();
    let mut tally = Counts::default();
    let mut i = 0usize;
    loop {
        let now = Instant::now();
        if now < end {
            while queue.len() < in_flight {
                let row = i % rows.len();
                i += 1;
                queue.push_back((row, engine.submit(rows[row].clone())));
            }
        }
        let Some((row, ticket)) = queue.pop_front() else {
            break;
        };
        tally.record(classify_engine(ticket.and_then(Ticket::wait), row, oracle));
    }
    PhaseResult {
        rate: 0.0,
        window,
        samples: Vec::new(),
        tally,
    }
}

/// Drives `arrivals` through a blocking in-process call on `lanes`
/// threads, dealt round-robin, each serving its share in order — the
/// same per-connection sequencing the gateway applies, so levels of the
/// peel see the same schedule. `call` returns the output of a row.
pub fn call_open_loop(
    lanes: usize,
    arrivals: &[Arrival],
    oracle: &Oracle,
    call: &(dyn Fn(usize) -> Result<Vec<f32>, Outcome> + Sync),
    trace: &Trace,
    span_name: &'static str,
) -> PhaseResult {
    let lanes = lanes.max(1);
    let start = Instant::now() + Duration::from_millis(2);
    let mut samples: Vec<Sample> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..lanes)
            .map(|lane| {
                scope.spawn(move || {
                    let mut spans = Vec::new();
                    let mut out = Vec::new();
                    for a in arrivals.iter().skip(lane).step_by(lanes) {
                        let Req::Infer(row) = a.req else { continue };
                        let scheduled = start + a.at;
                        sleep_until(scheduled);
                        let sent = Instant::now();
                        let outcome = match call(row) {
                            Ok(output) => unlabeled(oracle, row, &output),
                            Err(outcome) => outcome,
                        };
                        let done = Instant::now();
                        if trace.enabled() {
                            let root = trace.span(&mut spans, 0, span_name, scheduled, done);
                            trace.span(&mut spans, root, "client.late", scheduled, sent);
                        }
                        out.push(Sample {
                            req: a.req,
                            scheduled,
                            sent,
                            done,
                            outcome,
                            mislabeled: false,
                        });
                    }
                    trace.absorb(spans);
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("call lane panicked"))
            .collect()
    });
    samples.sort_by_key(|s| s.scheduled);
    let window = arrivals.last().map_or(Duration::ZERO, |a| a.at);
    PhaseResult {
        rate: arrivals.len() as f64 / window.as_secs_f64().max(1e-9),
        window,
        samples,
        tally: Counts::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::encode_request;
    use crate::models;
    use rapidnn::gateway::{Gateway, GatewayConfig};

    #[test]
    fn poisson_schedule_is_seeded_and_near_its_rate() {
        let a = poisson(1000.0, Duration::from_secs(2), &mut SeededRng::new(9));
        let b = poisson(1000.0, Duration::from_secs(2), &mut SeededRng::new(9));
        assert_eq!(a, b);
        assert!((1800..2200).contains(&a.len()), "{} arrivals", a.len());
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn lanes_reconnect_past_the_keep_alive_cap_without_failures() {
        let composed = models::deep(models::DEEP_SEED);
        let bytes = composed.model.to_bytes();
        let gateway = Gateway::bind(GatewayConfig::default()).unwrap();
        let config = GatewayConfig::default();
        let served = models::as_served(&bytes, false, false);
        let rows = models::rows(3, 8, served.input_features(), -2.0, 2.0);
        let oracle = Oracle::new(&[&served], &rows);
        let put = encode_request("PUT", "/models/m", &[], &bytes);
        let mut stream = TcpStream::connect(gateway.local_addr()).unwrap();
        stream.write_all(&put).unwrap();
        let created = ResponseReader::new(stream)
            .next_response()
            .unwrap()
            .unwrap();
        assert_eq!(created.status, 201);
        let infer: Vec<Vec<u8>> = rows
            .iter()
            .map(|row| {
                let body: Vec<u8> = row.iter().flat_map(|v| v.to_le_bytes()).collect();
                encode_request("POST", "/models/m/infer", &[], &body)
            })
            .collect();
        let target = HttpTarget {
            addr: gateway.local_addr(),
            infer: &infer,
            puts: &[],
            oracle: &oracle,
            lanes: 1,
            per_connection: config.max_requests_per_connection,
        };
        // One lane carries more requests than one connection may.
        let n = config.max_requests_per_connection + 100;
        let arrivals: Vec<Arrival> = (0..n)
            .map(|i| Arrival {
                at: Duration::from_micros(200 * i as u64),
                req: Req::Infer(i % rows.len()),
            })
            .collect();
        let window = Duration::from_micros(200 * n as u64);
        let result = http_open_loop(&target, 5000.0, window, &arrivals, &Trace::new(false));
        let c = result.counts();
        assert_eq!((c.attempted, c.ok), (n as u64, n as u64), "{c:?}");
        gateway.shutdown();
    }
}
