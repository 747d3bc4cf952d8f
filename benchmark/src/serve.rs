//! `serve`: open-loop SPCF/mask traffic against an in-process
//! `tm_server::net::serve` daemon with [`WORKERS`] workers.
//!
//! **Traffic.** [`SENDERS`] sender threads share one schedule: request
//! `k` of a rate point is due at `t0 + k / rate`, goes out on a fresh
//! connection once due, and is timed from its due time, so a stall also
//! counts the wait it imposes on later requests. How late each request
//! went out is the generator's lateness. The rates are pinned by the
//! caller (`--rates`, from `BENCHMARK.json`) and never calibrated at run
//! time. The rates take turns: each sends its requests in [`SEGMENTS`]
//! segments spread over the run. The seeded mix is built from rounds of 11 requests, shuffled
//! within each round. A round weighs every circuit the same: it sends
//! each fixed circuit once and one fresh circuit.
//!
//! - 5 `spcf` short-path requests, one per circuit of the [`HOT`] corpus
//!   (ladder [`LADDER`]); five circuits against a pool of eight
//!   sessions, so they hit the pool;
//! - 1 `spcf` request for a fresh seeded circuit (a pool miss);
//! - 5 `mask` requests, one per small circuit of [`mask_corpus`].
//!
//! **Gate.** Every response must be byte-identical to a serial
//! in-process `ServeCore::handle_payload` reference and must be answered
//! at the requested rung (exact short-path reports; exact, verified
//! masks).
//!
//! **Metrics.** Latency is read at the pinned reference rate, which lies
//! below the knee: `p50_ms` over all its requests, `tail_ms` as the
//! median tail of consecutive slices of [`TAIL_SLICE`] requests. The
//! highest pinned rate lies above the knee: there the senders fall
//! behind and run back to back, so its completed requests per second
//! are the server's capacity (`throughput_per_s`). `max_rate_rps` is
//! the highest pinned rate whose tail stays under the limit with a
//! generator that kept up.

use crate::stats::{self, Summary};
use crate::trace::Tracer;
use crate::{overhead_pct, peak_rss_mb, repeated_setup, Outcome, RunArgs};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tm_client::request;
use tm_masking::{synthesize, verify, MaskingOptions};
use tm_netlist::blif::{parse_blif, write_blif};
use tm_netlist::circuits::{comparator2, decoder, priority_encoder, ripple_adder};
use tm_netlist::extract::{extract, ExtractOptions};
use tm_netlist::library::lsi10k_like;
use tm_netlist::map::{tech_map, MapOptions};
use tm_netlist::suites::smoke_suite;
use tm_resilience::Budget;
use tm_server::gen::synthetic_blif;
use tm_server::pool::{canonical_blif, fnv1a64};
use tm_server::serve::spcf_report_frame;
use tm_server::{PooledSession, Request, ServeConfig, ServeCore, ServerHandle};
use tm_spcf::Algorithm;
use tm_testkit::json::Json;
use tm_testkit::rng::Rng;

/// Server worker threads.
pub const WORKERS: usize = 2;
/// Load-generator threads; each holds at most one connection.
pub const SENDERS: usize = 2;
/// The hot corpus: `(inputs, nodes, generator seed)` of fixed
/// `synthetic_blif` circuits, 10×28 up to 20×120.
pub const HOT: [(usize, usize, u64); 5] = [
    (10, 28, 11),
    (12, 48, 22),
    (14, 72, 33),
    (17, 96, 44),
    (20, 120, 55),
];
/// Relative Δ_y ladder of every `spcf` request.
pub const LADDER: [f64; 2] = [0.95, 0.9];
/// Size of the fresh-seed (pool-miss) circuits.
const MISS_SIZE: (usize, usize) = (12, 40);
/// Distinct miss circuits, cycled: far more than the pool holds, so a
/// repeat has always been evicted.
const MISS_POOL: usize = 64;
/// A sender sleeps until this long before a request is due and spins
/// the rest, so that its own wake-up delay does not make it late.
const SPIN: Duration = Duration::from_micros(300);
/// Per-request read timeout: only a wedged server trips it.
const READ_TIMEOUT: Duration = Duration::from_secs(30);
/// Each rate's requests are sent in this many segments, the rates
/// taking turns, so that every rate's figures span the whole run and a
/// slow stretch of a shared machine falls on all of them alike.
const SEGMENTS: usize = 5;
/// Share of the run spent at the reference rate.
const REF_SHARE: f64 = 0.5;
/// Reference-rate samples per slice of `tail_ms` (see
/// [`stats::sliced_tail`]): 200 put each slice's tail at p95.
const TAIL_SLICE: usize = 200;
/// Display name of the requested rung in `spcf` report frames.
const EXACT_RUNG: &str = "short-path-based";

/// What a request asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `spcf` over a hot-corpus circuit (pool hit).
    Hot,
    /// `spcf` over a fresh circuit (pool miss).
    Miss,
    /// `mask` over a small circuit.
    Mask,
}

/// An `spcf` short-path request over `blif` at the [`LADDER`].
pub fn spcf_payload(blif: &str) -> String {
    Json::obj([
        ("verb", Json::str("spcf")),
        ("blif", Json::str(blif)),
        ("algorithm", Json::str("short-path")),
        (
            "targets",
            Json::Arr(LADDER.iter().map(|&t| Json::Num(t)).collect()),
        ),
        ("relative", Json::Bool(true)),
    ])
    .render()
}

/// A `mask` request over `blif`.
pub fn mask_payload(blif: &str) -> String {
    Json::obj([("verb", Json::str("mask")), ("blif", Json::str(blif))]).render()
}

/// BLIF of the small circuits the `mask` slice submits: known circuits
/// whose masking protects at least one output.
pub fn mask_corpus() -> Vec<String> {
    let lib = Arc::new(lsi10k_like());
    let x2 = smoke_suite()
        .into_iter()
        .find(|e| e.name == "x2")
        .expect("x2 is in the smoke suite");
    [
        comparator2(Arc::clone(&lib)),
        priority_encoder(Arc::clone(&lib), 8),
        ripple_adder(Arc::clone(&lib), 4),
        decoder(Arc::clone(&lib), 4),
        x2.build(Arc::clone(&lib)),
    ]
    .iter()
    .map(|nl| write_blif(&extract(nl, ExtractOptions { max_support: 4 })))
    .collect()
}

/// Every distinct payload of a run, with its kind.
pub struct Corpus {
    /// Request payloads.
    pub payloads: Vec<String>,
    /// Kind of each payload.
    pub kinds: Vec<Kind>,
}

impl Corpus {
    /// The hot and mask circuits are fixed; the miss circuits derive
    /// from `seed`.
    pub fn new(seed: u64) -> Corpus {
        let mut rng = Rng::seed_from_u64(seed ^ fnv1a64(b"serve.miss"));
        let mut payloads = Vec::new();
        let mut kinds = Vec::new();
        for &(inputs, nodes, s) in &HOT {
            payloads.push(spcf_payload(&synthetic_blif(s, inputs, nodes)));
            kinds.push(Kind::Hot);
        }
        for _ in 0..MISS_POOL {
            payloads.push(spcf_payload(&synthetic_blif(
                rng.next_u64(),
                MISS_SIZE.0,
                MISS_SIZE.1,
            )));
            kinds.push(Kind::Miss);
        }
        for blif in mask_corpus() {
            payloads.push(mask_payload(&blif));
            kinds.push(Kind::Mask);
        }
        Corpus { payloads, kinds }
    }

    fn of_kind(&self, kind: Kind) -> Vec<usize> {
        (0..self.kinds.len())
            .filter(|&i| self.kinds[i] == kind)
            .collect()
    }
}

/// The seeded request mix: payload indices, one round at a time.
struct Mix {
    rng: Rng,
    hot: Vec<usize>,
    miss: Vec<usize>,
    mask: Vec<usize>,
    rounds: usize,
    pending: VecDeque<usize>,
}

impl Mix {
    fn new(corpus: &Corpus, seed: u64) -> Mix {
        Mix {
            rng: Rng::seed_from_u64(seed ^ fnv1a64(b"serve.mix")),
            hot: corpus.of_kind(Kind::Hot),
            miss: corpus.of_kind(Kind::Miss),
            mask: corpus.of_kind(Kind::Mask),
            rounds: 0,
            pending: VecDeque::new(),
        }
    }

    fn take(&mut self, n: usize) -> Vec<usize> {
        while self.pending.len() < n {
            let mut round = self.hot.clone();
            round.push(self.miss[self.rounds % self.miss.len()]);
            round.extend(&self.mask);
            self.rng.shuffle(&mut round);
            self.rounds += 1;
            self.pending.extend(round);
        }
        self.pending.drain(..n).collect()
    }
}

/// A serial in-process reference for every payload, on a fresh core.
pub fn references(corpus: &Corpus) -> Vec<Vec<String>> {
    let core = ServeCore::new(ServeConfig::for_workers(WORKERS));
    corpus
        .payloads
        .iter()
        .map(|p| core.handle_payload(p.as_bytes()))
        .collect()
}

/// Checks that `frames` answer a `kind` request at the requested rung:
/// exact short-path reports for every ladder point then `done`, or one
/// exact, verified, fully covering `mask_report`.
pub fn check_rung(kind: Kind, frames: &[String]) -> Result<(), String> {
    let parsed: Vec<Json> = frames
        .iter()
        .map(|f| Json::parse(f))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("bad frame: {e}"))?;
    let field = |j: &Json, key: &str| j.get(key).and_then(Json::as_str).map(str::to_string);
    match kind {
        Kind::Hot | Kind::Miss => {
            if parsed.len() != LADDER.len() + 1
                || field(&parsed[LADDER.len()], "type").as_deref() != Some("done")
            {
                return Err(format!(
                    "spcf response is not {} reports then done: {frames:?}",
                    LADDER.len()
                ));
            }
            for report in &parsed[..LADDER.len()] {
                if field(report, "type").as_deref() != Some("report")
                    || field(report, "algorithm").as_deref() != Some(EXACT_RUNG)
                {
                    return Err(format!(
                        "spcf report not answered at the {EXACT_RUNG} rung: {report:?}"
                    ));
                }
            }
        }
        Kind::Mask => {
            let ok = parsed.len() == 1
                && field(&parsed[0], "type").as_deref() == Some("mask_report")
                && field(&parsed[0], "degradation").as_deref() == Some("exact")
                && parsed[0].get("verified") == Some(&Json::Bool(true))
                && parsed[0].get("coverage").and_then(Json::as_num) == Some(1.0);
            if !ok {
                return Err(format!(
                    "mask response is not an exact, verified, fully covering report: {frames:?}"
                ));
            }
        }
    }
    Ok(())
}

/// The `serve` gate on one response: byte-identical to the serial
/// reference, and answered at the requested rung.
pub fn check_response(kind: Kind, response: &[String], reference: &[String]) -> Result<(), String> {
    if response != reference {
        return Err(format!(
            "response differs from the serial reference: {response:?} vs {reference:?}"
        ));
    }
    check_rung(kind, response)
}

/// A running daemon that is drained when dropped.
struct Server {
    handle: Option<ServerHandle>,
    addr: String,
}

impl Server {
    /// Starts a daemon and warms its pool with every hot circuit.
    fn start(corpus: &Corpus) -> Result<Server, String> {
        let core = Arc::new(ServeCore::new(ServeConfig::for_workers(WORKERS)));
        let handle =
            tm_server::serve(core, "127.0.0.1:0").map_err(|e| format!("cannot bind: {e}"))?;
        let server = Server {
            addr: handle.addr().to_string(),
            handle: Some(handle),
        };
        for (payload, _) in corpus
            .payloads
            .iter()
            .zip(&corpus.kinds)
            .filter(|(_, &k)| k == Kind::Hot)
        {
            request(&server.addr, payload, READ_TIMEOUT)
                .map_err(|e| format!("pool warm-up failed: {e}"))?;
        }
        Ok(server)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            let _ = handle.drain(Duration::from_secs(2));
        }
    }
}

/// One sent (or given-up) request of a rate point.
struct Sample {
    payload: usize,
    due: Instant,
    /// `None` when the generator gave up before sending it.
    sent: Option<Instant>,
    done: Instant,
    response: Result<Vec<String>, String>,
}

/// One pinned rate's outcome, over one or more segments.
struct RatePoint {
    rate: f64,
    samples: Vec<Sample>,
    /// Summed over the segments: from each segment's start to its last
    /// completion.
    elapsed: Duration,
}

impl RatePoint {
    fn empty(rate: f64) -> RatePoint {
        RatePoint {
            rate,
            samples: Vec::new(),
            elapsed: Duration::ZERO,
        }
    }

    /// Appends a later segment at the same rate.
    fn absorb(&mut self, segment: RatePoint) {
        self.samples.extend(segment.samples);
        self.elapsed += segment.elapsed;
    }

    fn latencies_ms(&self, kinds: &[Kind], corpus: &Corpus) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| {
                s.sent.is_some() && s.response.is_ok() && kinds.contains(&corpus.kinds[s.payload])
            })
            .map(|s| (s.done - s.due).as_secs_f64() * 1e3)
            .collect()
    }

    fn lateness_ms(&self) -> Vec<f64> {
        self.samples
            .iter()
            .filter_map(|s| s.sent.map(|t| (t - s.due).as_secs_f64() * 1e3))
            .collect()
    }

    fn sent(&self) -> usize {
        self.samples.iter().filter(|s| s.sent.is_some()).count()
    }

    fn errors(&self) -> usize {
        self.samples
            .iter()
            .filter(|s| s.sent.is_some() && s.response.is_err())
            .count()
    }

    fn unsent(&self) -> usize {
        self.samples.len() - self.sent()
    }

    /// Completed requests per second of the segments' time.
    fn achieved_rps(&self) -> f64 {
        let ok = self
            .samples
            .iter()
            .filter(|s| s.sent.is_some() && s.response.is_ok())
            .count();
        ok as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Counts every sent request as attempted (failed when it got no
    /// answer) and gates every answer against its reference.
    fn gate(&self, corpus: &Corpus, refs: &[Vec<String>], outcome: &mut Outcome) {
        for s in self.samples.iter().filter(|s| s.sent.is_some()) {
            outcome.attempted += 1;
            match &s.response {
                Ok(frames) => outcome.check(check_response(
                    corpus.kinds[s.payload],
                    frames,
                    &refs[s.payload],
                )),
                Err(_) => outcome.failed += 1,
            }
        }
    }

    /// Whether the rate held: everything sent and answered, the latency
    /// tail under `limit_ms`, and a generator that kept up.
    fn meets(&self, corpus: &Corpus, limit_ms: f64) -> bool {
        let all =
            stats::summarize(&self.latencies_ms(&[Kind::Hot, Kind::Miss, Kind::Mask], corpus));
        let late = stats::summarize(&self.lateness_ms());
        self.unsent() == 0
            && self.errors() == 0
            && all.is_ok_and(|s| s.env.tail <= limit_ms)
            && late.is_ok_and(|s| s.env.tail <= limit_ms)
    }
}

/// Drives one segment of a rate point: `schedule.len()` requests at
/// `rate` req/s.
/// A sender that is still behind `grace` past the window gives up on
/// the rest, which count as unsent (the rate did not hold). With a
/// tracer, every request records a root span and its two phases.
fn run_rate(
    addr: &str,
    corpus: &Corpus,
    schedule: &[usize],
    rate: f64,
    tracer: Option<(Instant, u64)>,
) -> (RatePoint, Vec<Tracer>) {
    let window = Duration::from_secs_f64(schedule.len() as f64 / rate);
    let grace = (window / 2).max(Duration::from_secs(1));
    let t0 = Instant::now() + Duration::from_millis(20);
    let cutoff = t0 + window + grace;
    let next = AtomicUsize::new(0);
    let out = Mutex::new(Vec::with_capacity(schedule.len()));
    let tracers = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for sender in 0..SENDERS {
            let (next, out, tracers) = (&next, &out, &tracers);
            scope.spawn(move || {
                let mut mine = Vec::new();
                let mut tr = tracer.map(|(epoch, _)| Tracer::new(epoch, sender as u32 + 1));
                loop {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    if k >= schedule.len() {
                        break;
                    }
                    let due = t0 + Duration::from_secs_f64(k as f64 / rate);
                    if let Some(wait) = due.checked_duration_since(Instant::now() + SPIN) {
                        std::thread::sleep(wait);
                    }
                    while Instant::now() < due {
                        std::hint::spin_loop();
                    }
                    let payload = schedule[k];
                    let now = Instant::now();
                    if now > cutoff {
                        mine.push((
                            k,
                            Sample {
                                payload,
                                due,
                                sent: None,
                                done: now,
                                response: Err("unsent".into()),
                            },
                        ));
                        continue;
                    }
                    let response = request(addr, &corpus.payloads[payload], READ_TIMEOUT)
                        .map(|r| r.raw)
                        .map_err(|e| e.kind);
                    let done = Instant::now();
                    if let (Some(tr), Some((_, base))) = (tr.as_mut(), tracer) {
                        let id = base + k as u64;
                        let root = tr.record("serve.request", id, due, done, None);
                        tr.record("client.lateness", id, due, now, Some(root));
                        tr.record("client.exchange", id, now, done, Some(root));
                    }
                    mine.push((
                        k,
                        Sample {
                            payload,
                            due,
                            sent: Some(now),
                            done,
                            response,
                        },
                    ));
                }
                out.lock()
                    .expect("no sender panics while holding the lock")
                    .extend(mine);
                if let Some(tr) = tr {
                    tracers
                        .lock()
                        .expect("no sender panics while holding the lock")
                        .push(tr);
                }
            });
        }
    });
    let mut samples = out.into_inner().expect("senders joined");
    samples.sort_by_key(|(k, _)| *k);
    let last = samples.iter().map(|(_, s)| s.done).max().unwrap_or(t0);
    let point = RatePoint {
        rate,
        samples: samples.into_iter().map(|(_, s)| s).collect(),
        elapsed: last.saturating_duration_since(t0),
    };
    (point, tracers.into_inner().expect("senders joined"))
}

/// What the `stats` verb reports that the per-layer metrics use.
#[derive(Clone, Debug, Default)]
struct StatsSample {
    hits: f64,
    misses: f64,
    rebuilds: f64,
    store_live: f64,
    /// `serve.queue_ns` digest buckets: (bucket index, count).
    queue: Vec<(u16, f64)>,
}

fn stats_sample(addr: &str) -> Result<StatsSample, String> {
    let response = request(addr, r#"{"verb":"stats"}"#, READ_TIMEOUT)
        .map_err(|e| format!("stats verb: {e}"))?;
    let j = response.frames.first().ok_or("empty stats response")?;
    let num = |j: Option<&Json>| j.and_then(Json::as_num).unwrap_or(0.0);
    let metrics = j.get("metrics");
    let named = |section: &str, name: &str| -> Option<&Json> {
        metrics?
            .get(section)?
            .as_arr()?
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some(name))
    };
    let pool = j.get("pool");
    let queue = named("digests", "serve.queue_ns")
        .and_then(|d| d.get("buckets"))
        .and_then(Json::as_arr)
        .map(|bs| {
            bs.iter()
                .map(|b| (num(b.get("b")) as u16, num(b.get("count"))))
                .collect()
        })
        .unwrap_or_default();
    Ok(StatsSample {
        hits: num(pool.and_then(|p| p.get("hits"))),
        misses: num(pool.and_then(|p| p.get("misses"))),
        rebuilds: num(named("counters", "spcf.session.rebuilds").and_then(|c| c.get("value"))),
        store_live: num(named("gauges", "bdd.store.live").and_then(|g| g.get("value"))),
        queue,
    })
}

/// Queue-wait samples (ms) recorded between two `stats` samples.
fn queue_delta_ms(before: &StatsSample, after: &StatsSample) -> Vec<f64> {
    let mut out = Vec::new();
    for &(b, count) in &after.queue {
        let prior = before
            .queue
            .iter()
            .find(|(pb, _)| *pb == b)
            .map_or(0.0, |(_, c)| *c);
        let upper_ms = tm_telemetry::digest::bucket_upper(b) as f64 / 1e6;
        out.extend(std::iter::repeat_n(
            upper_ms,
            (count - prior).max(0.0) as usize,
        ));
    }
    out
}

fn summary_json(s: &Result<Summary, String>) -> Json {
    match s {
        Ok(s) => Json::obj([
            ("samples", Json::Num(s.n as f64)),
            ("p50_ms", Json::Num(s.env.p50)),
            ("tail_ms", Json::Num(s.env.tail)),
            ("tail_pct", Json::Num(s.tail_pct)),
            ("max_ms", Json::Num(s.env.max)),
        ]),
        Err(e) => Json::str(e.clone()),
    }
}

/// Runs the `serve` workload.
pub fn run(args: &RunArgs) -> Outcome {
    let mut outcome = Outcome::default();
    if let Err(e) = validate_rates(args) {
        outcome.check(Err(e));
        return outcome;
    }
    let corpus = Corpus::new(args.seed);
    let (setup_s, server) = repeated_setup(21, || Server::start(&corpus));
    let server = match server {
        Ok(s) => s,
        Err(e) => {
            outcome.check(Err(e));
            return outcome;
        }
    };
    // Telemetry switched on by the drains of the earlier set-ups stays
    // off on this thread.
    tm_telemetry::set_thread_enabled(None);
    let refs = references(&corpus);
    for (i, r) in refs.iter().enumerate() {
        outcome.check(check_rung(corpus.kinds[i], r).map_err(|e| format!("reference {i}: {e}")));
    }

    let mut mix = Mix::new(&corpus, args.seed);
    let mut points: Vec<RatePoint> = args.rates.iter().map(|&r| RatePoint::empty(r)).collect();
    let mut samples_stats = Vec::new();
    let mut ref_queue = Vec::new();
    for _ in 0..SEGMENTS {
        for (point, &rate) in points.iter_mut().zip(&args.rates) {
            let n = requests_at(args, rate).div_ceil(SEGMENTS);
            let before = stats_sample(&server.addr);
            let (segment, _) = run_rate(&server.addr, &corpus, &mix.take(n), rate, None);
            let after = stats_sample(&server.addr);
            match (before, after) {
                (Ok(b), Ok(a)) => {
                    if rate == args.ref_rate {
                        ref_queue.extend(queue_delta_ms(&b, &a));
                    }
                    samples_stats.push(b);
                    samples_stats.push(a);
                }
                (Err(e), _) | (_, Err(e)) => outcome.check(Err(e)),
            }
            point.absorb(segment);
        }
    }

    for point in &points {
        point.gate(&corpus, &refs, &mut outcome);
    }
    if outcome.attempted == 0 {
        outcome.check(Err("no request was sent".into()));
    }

    let ref_point = points
        .iter()
        .find(|p| p.rate == args.ref_rate)
        .expect("validated: ref rate is pinned");
    let all =
        stats::summarize(&ref_point.latencies_ms(&[Kind::Hot, Kind::Miss, Kind::Mask], &corpus));
    let spcf = stats::summarize(&ref_point.latencies_ms(&[Kind::Hot, Kind::Miss], &corpus));
    let mask = stats::summarize(&ref_point.latencies_ms(&[Kind::Mask], &corpus));
    for s in [&all, &spcf, &mask] {
        if let Err(e) = s {
            outcome.check(Err(format!("reference rate {}: {e}", args.ref_rate)));
        }
    }
    let sliced = stats::sliced_tail(
        &ref_point.latencies_ms(&[Kind::Hot, Kind::Miss, Kind::Mask], &corpus),
        TAIL_SLICE,
    );
    if let Err(e) = &sliced {
        outcome.check(Err(format!("reference rate {}: {e}", args.ref_rate)));
    }
    let probe = points.last().expect("validated: rates are pinned");
    let best = points
        .iter()
        .rev()
        .find(|p| p.meets(&corpus, args.tail_limit_ms));
    let area = mean_mask_area(&corpus, &refs);

    outcome.detail = vec![
        ("ref_rate", Json::Num(args.ref_rate)),
        ("tail_limit_ms", Json::Num(args.tail_limit_ms)),
        ("max_rate_rps", Json::Num(best.map_or(0.0, |p| p.rate))),
        ("capacity_rps", Json::Num(probe.achieved_rps())),
        (
            "probe_saturated",
            Json::Bool(!probe.meets(&corpus, args.tail_limit_ms)),
        ),
        ("all", summary_json(&all)),
        (
            "sliced_tail",
            match &sliced {
                Ok(t) => Json::obj([
                    ("tail_ms", Json::Num(t.tail)),
                    ("tail_pct", Json::Num(t.tail_pct)),
                    ("slices", Json::Num(t.slices as f64)),
                    ("per_slice", Json::Num(t.per_slice as f64)),
                ]),
                Err(e) => Json::str(e.clone()),
            },
        ),
        ("spcf", summary_json(&spcf)),
        ("mask", summary_json(&mask)),
        (
            "rates",
            Json::Arr(
                points
                    .iter()
                    .map(|p| {
                        Json::obj([
                            ("rate", Json::Num(p.rate)),
                            ("due", Json::Num(p.samples.len() as f64)),
                            ("sent", Json::Num(p.sent() as f64)),
                            ("errors", Json::Num(p.errors() as f64)),
                            ("unsent", Json::Num(p.unsent() as f64)),
                            ("achieved_rps", Json::Num(p.achieved_rps())),
                            (
                                "latency",
                                summary_json(&stats::summarize(
                                    &p.latencies_ms(&[Kind::Hot, Kind::Miss, Kind::Mask], &corpus),
                                )),
                            ),
                            (
                                "lateness",
                                summary_json(&stats::summarize(&p.lateness_ms())),
                            ),
                            (
                                "meets_limit",
                                Json::Bool(p.meets(&corpus, args.tail_limit_ms)),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ];

    if args.trace {
        let lateness_point = best.unwrap_or(ref_point);
        let untraced_p50 = all.as_ref().map_or(f64::NAN, |s| s.env.p50);
        traced_phase(
            args,
            &server,
            &corpus,
            &refs,
            &mut mix,
            untraced_p50,
            &mut outcome,
        );
        let q = stats::summarize(&ref_queue);
        let last = samples_stats.last().cloned().unwrap_or_default();
        let first = samples_stats.first().cloned().unwrap_or_default();
        let hits = last.hits - first.hits;
        let misses = last.misses - first.misses;
        outcome.per_layer.extend([
            ("server.queue_p50_ms", q.as_ref().map_or(0.0, |s| s.env.p50)),
            (
                "server.queue_tail_ms",
                q.as_ref().map_or(0.0, |s| s.env.tail),
            ),
            ("server.pool_hit_ratio", hits / (hits + misses).max(1.0)),
            (
                "spcf.session_rebuilds_per_hit",
                (last.rebuilds - first.rebuilds) / hits.max(1.0),
            ),
            (
                "bdd.store_peak_live",
                samples_stats
                    .iter()
                    .map(|s| s.store_live)
                    .fold(0.0, f64::max),
            ),
            (
                "client.lateness_tail_ms",
                stats::summarize(&lateness_point.lateness_ms()).map_or(0.0, |s| s.env.tail),
            ),
            (
                "client.spcf_p50_ms",
                spcf.as_ref().map_or(0.0, |s| s.env.p50),
            ),
            (
                "client.spcf_tail_ms",
                spcf.as_ref().map_or(0.0, |s| s.env.tail),
            ),
            (
                "client.mask_p50_ms",
                mask.as_ref().map_or(0.0, |s| s.env.p50),
            ),
            (
                "client.mask_tail_ms",
                mask.as_ref().map_or(0.0, |s| s.env.tail),
            ),
        ]);
        drop(server);
        return outcome;
    }
    drop(server);

    let ok = outcome.attempted - outcome.failed.min(outcome.attempted);
    outcome.end_to_end = vec![
        ("setup_s", setup_s),
        ("ok_frac", ok as f64 / outcome.attempted.max(1) as f64),
        ("p50_ms", all.as_ref().map_or(0.0, |s| s.env.p50)),
        ("tail_ms", sliced.as_ref().map_or(0.0, |t| t.tail)),
        ("throughput_per_s", probe.achieved_rps()),
        ("area_overhead_pct", area),
    ];
    match peak_rss_mb() {
        Ok(mb) => outcome.end_to_end.push(("peak_rss_mb", mb)),
        Err(e) => outcome.check(Err(e)),
    }
    outcome
}

/// Requests sent at `rate`: the reference rate gets [`REF_SHARE`] of
/// the run, the other rates share the rest, and the reference window
/// gets enough samples for three tail slices.
fn requests_at(args: &RunArgs, rate: f64) -> usize {
    let others = args.rates.len().saturating_sub(1).max(1) as f64;
    let share = if args.rates.len() == 1 {
        1.0
    } else if rate == args.ref_rate {
        REF_SHARE
    } else {
        (1.0 - REF_SHARE) / others
    };
    let n = ((rate * args.seconds * share).round() as usize).max(1);
    if rate == args.ref_rate {
        n.max(3 * TAIL_SLICE)
    } else {
        n
    }
}

fn validate_rates(args: &RunArgs) -> Result<(), String> {
    if args.rates.is_empty() || args.rates.iter().any(|r| !r.is_finite() || *r <= 0.0) {
        return Err(format!(
            "serve needs positive pinned --rates, got {:?}",
            args.rates
        ));
    }
    if !args.rates.windows(2).all(|w| w[0] < w[1]) {
        return Err(format!("--rates must ascend: {:?}", args.rates));
    }
    if !args.rates.contains(&args.ref_rate) {
        return Err(format!(
            "--ref-rate {} is not one of --rates {:?}",
            args.ref_rate, args.rates
        ));
    }
    if !(args.tail_limit_ms.is_finite() && args.tail_limit_ms > 0.0) {
        return Err(format!(
            "--tail-limit-ms must be positive, got {}",
            args.tail_limit_ms
        ));
    }
    Ok(())
}

/// Mean area overhead of the mask corpus, from the serial references.
fn mean_mask_area(corpus: &Corpus, refs: &[Vec<String>]) -> f64 {
    let areas: Vec<f64> = (0..refs.len())
        .filter(|&i| corpus.kinds[i] == Kind::Mask)
        .filter_map(|i| {
            Json::parse(refs[i].first()?)
                .ok()?
                .get("area_overhead_percent")?
                .as_num()
        })
        .collect();
    areas.iter().sum::<f64>() / areas.len().max(1) as f64
}

/// Requests replayed per layer in the traced phase: every hot circuit
/// this many times, and every mask circuit a quarter as often.
const REPLAYS: usize = 8;
/// Miss circuits replayed in the traced phase.
const MISS_REPLAYS: usize = 16;

/// The traced phase: the reference rate again with request spans, then
/// every layer a served request crosses, replayed in-process through
/// its public call, each replayed request's spans sharing one id.
fn traced_phase(
    args: &RunArgs,
    server: &Server,
    corpus: &Corpus,
    refs: &[Vec<String>],
    mix: &mut Mix,
    untraced_p50: f64,
    outcome: &mut Outcome,
) {
    let epoch = Instant::now();
    let mut tr = Tracer::new(epoch, 0);
    let n = requests_at(args, args.ref_rate);
    let (point, senders) = run_rate(
        &server.addr,
        corpus,
        &mix.take(n),
        args.ref_rate,
        Some((epoch, 1 << 32)),
    );
    for s in senders {
        tr.absorb(s);
    }
    point.gate(corpus, refs, outcome);
    let traced =
        stats::summarize(&point.latencies_ms(&[Kind::Hot, Kind::Miss, Kind::Mask], corpus));
    let overhead = traced.map_or(f64::NAN, |s| overhead_pct(s.env.p50, untraced_p50));

    let lib = Arc::new(lsi10k_like());
    let mut sessions: HashMap<u64, PooledSession> = HashMap::new();
    let mut order: Vec<usize> = Vec::new();
    for (i, &k) in corpus.kinds.iter().enumerate() {
        match k {
            Kind::Hot => order.extend(std::iter::repeat_n(i, REPLAYS)),
            Kind::Mask => order.extend(std::iter::repeat_n(i, REPLAYS / 4)),
            Kind::Miss => {}
        }
    }
    order.extend(corpus.of_kind(Kind::Miss).into_iter().take(MISS_REPLAYS));
    for (id, j) in crate::permutation(order.len(), args.seed)
        .into_iter()
        .enumerate()
    {
        let (i, id) = (order[j], id as u64);
        let root = tr.open("replay.request", id, None);
        let result = replay_one(
            &mut tr,
            id,
            root,
            &corpus.payloads[i],
            corpus.kinds[i],
            &lib,
            &mut sessions,
        );
        tr.close(root);
        outcome.attempted += 1;
        match result {
            Ok(Some(frames)) => outcome.check(check_response(corpus.kinds[i], &frames, &refs[i])),
            Ok(None) => {}
            Err(e) => {
                outcome.failed += 1;
                outcome.check(Err(e));
            }
        }
    }

    let per_call = |name: &str, scale: f64| {
        let d: Vec<f64> = tr
            .durations(name)
            .iter()
            .map(|d| d.as_secs_f64() * scale)
            .collect();
        if d.is_empty() {
            0.0
        } else {
            stats::median(&d)
        }
    };
    outcome.per_layer = vec![
        (
            "server.request_parse_us",
            per_call("server.request_parse", 1e6),
        ),
        ("netlist.blif_parse_us", per_call("netlist.blif_parse", 1e6)),
        ("server.pool_key_us", per_call("server.pool_key", 1e6)),
        ("server.pool_build_ms", per_call("server.pool_build", 1e3)),
        ("spcf.compute_ms", per_call("spcf.compute", 1e3)),
        ("server.report_us", per_call("server.report", 1e6)),
        ("core.mask_ms", per_call("core.mask", 1e3)),
        ("trace_overhead_pct", overhead),
    ];

    // The mask verb's own flow, split by layer: the mask circuits as the
    // server maps them, through every stage `synthesize` performs.
    let mapped: Result<Vec<_>, _> = mask_corpus()
        .iter()
        .map(|blif| {
            parse_blif(blif).map(|sop| tech_map(&sop, Arc::clone(&lib), MapOptions::default()))
        })
        .collect();
    match mapped {
        Ok(circuits) => {
            let layers = crate::table2::traced_flow(&circuits, 1 << 33, &mut tr, outcome);
            outcome.per_layer.extend(layers.metrics());
        }
        Err(e) => outcome.check(Err(format!("mask corpus BLIF: {e}"))),
    }
    outcome.tracer = Some(tr);
}

/// Replays one request through the layers it crosses in the server.
/// Returns the `spcf` frames it produced (`None` for `mask`, whose
/// frame the server renders itself).
fn replay_one(
    tr: &mut Tracer,
    id: u64,
    root: usize,
    payload: &str,
    kind: Kind,
    lib: &Arc<tm_netlist::Library>,
    sessions: &mut HashMap<u64, PooledSession>,
) -> Result<Option<Vec<String>>, String> {
    let (parsed, _) = tr.time("server.request_parse", id, Some(root), || {
        Request::parse(payload.as_bytes())
    });
    let (blif, targets) = match parsed.map_err(|e| format!("replay parse: {e}"))? {
        Request::Spcf { blif, targets, .. } => (blif, targets),
        Request::Mask { blif } => (blif, Vec::new()),
        other => return Err(format!("unexpected replay request {other:?}")),
    };
    let (sop, _) = tr.time("netlist.blif_parse", id, Some(root), || parse_blif(&blif));
    let sop = sop.map_err(|e| format!("replay BLIF: {e}"))?;
    if kind == Kind::Mask {
        let (verified, _) = tr.time("core.mask", id, Some(root), || {
            let netlist = tech_map(&sop, Arc::clone(lib), MapOptions::default());
            let mut result = synthesize(&netlist, MaskingOptions::default());
            verify(&mut result).all_ok()
        });
        return if verified {
            Ok(None)
        } else {
            Err("replayed mask does not verify".into())
        };
    }
    let (key, _) = tr.time("server.pool_key", id, Some(root), || {
        fnv1a64(canonical_blif(&sop).as_bytes())
    });
    let session = match sessions.entry(key) {
        Entry::Occupied(slot) => slot.into_mut(),
        Entry::Vacant(slot) => {
            let (session, _) = tr.time("server.pool_build", id, Some(root), || {
                PooledSession::build(&sop, Arc::clone(lib))
            });
            slot.insert(session.map_err(|e| format!("replay build: {e}"))?)
        }
    };
    let delta = session.delta();
    let mut frames = Vec::with_capacity(targets.len() + 1);
    for (seq, &t) in targets.iter().enumerate() {
        let (set, _) = tr.time("spcf.compute", id, Some(root), || {
            session.compute(Algorithm::ShortPath, delta * t, Budget::unlimited())
        });
        let set = set.map_err(|e| format!("replay compute: {e}"))?;
        let (frame, _) = tr.time("server.report", id, Some(root), || {
            spcf_report_frame(session.netlist(), session.bdd(), &set, seq)
        });
        frames.push(frame);
    }
    frames.push(tm_server::serve::done_frame(targets.len()));
    Ok(Some(frames))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_rounds_have_exact_counts() {
        let corpus = Corpus::new(1);
        let mut mix = Mix::new(&corpus, 1);
        let round = HOT.len() + 1 + mask_corpus().len();
        let taken = mix.take(round * 5);
        for (i, kind) in corpus.kinds.iter().enumerate() {
            let count = taken.iter().filter(|&&t| t == i).count();
            match kind {
                Kind::Hot | Kind::Mask => assert_eq!(count, 5),
                Kind::Miss => assert!(count <= 1),
            }
        }
        assert_eq!(
            taken
                .iter()
                .filter(|&&t| corpus.kinds[t] == Kind::Miss)
                .count(),
            5
        );
        let mut again = Mix::new(&corpus, 1);
        assert_eq!(again.take(7), taken[..7].to_vec(), "the mix is seeded");
    }
}
