//! The three workloads. Each builds its inputs from the seed, starts the
//! stack, drives it from at most two load threads, and checks the stored
//! result against the corpus it sent.
//!
//! * `bulk_file` — a 100k-tweet file loaded unpaced by `file_based_feed`
//!   (Table 5.1's feed row), once per 4 s of run, each time in a fresh
//!   stack; a quiescent read probe follows each load.
//! * `cascade_paced` — an open-loop socket generator at a fixed rate into a
//!   primary feed (`RawTweets`) and an `addHashTags` secondary feed
//!   (`ProcessedTweets`): Fig 5.13's cascade.
//! * `ingest_read` — a preloaded dataset ingesting at a low open-loop rate
//!   while a reader thread issues `get`s and a selective AQL query.

use crate::host;
use crate::layers::{self, Replays};
use crate::stack::{Stack, StmtClass};
use crate::stats::{self, Lateness, Observation};
use crate::trace::{OpTotals, Tracer};
use asterixdb_ingestion::adm::{parse_calls, parse_value, AdmValue};
use asterixdb_ingestion::aql::engine::ExecOutcome;
use asterixdb_ingestion::common::{Counter, MetricsSnapshot};
use asterixdb_ingestion::feeds::adaptor::{bind_socket, unbind_socket};
use asterixdb_ingestion::feeds::udf::Udf;
use asterixdb_ingestion::storage::Dataset;
use asterixdb_ingestion::tweetgen::TweetFactory;
use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tweets in the `bulk_file` corpus.
const BULK_RECORDS: usize = 100_000;
/// Nominal length of one `bulk_file` round (about 4 s on a 2-core host).
const BULK_ROUND_SECONDS: u64 = 4;
/// Offered rate of `cascade_paced`, records per second.
pub const CASCADE_RATE: f64 = 3000.0;
/// Records preloaded by `ingest_read` before measuring.
pub const PRELOAD_RECORDS: usize = 50_000;
/// Offered ingest rate of `ingest_read`, records per second.
pub const READ_INGEST_RATE: f64 = 2000.0;
/// `get` rate of the `ingest_read` reader, per second.
const GET_RATE: f64 = 1000.0;
/// Interval between selective AQL queries in `ingest_read`.
const QUERY_EVERY: Duration = Duration::from_secs(2);
/// `followers_count` threshold of the selective query (about 1% match).
const QUERY_FOLLOWERS_ABOVE: i64 = 99_000;
/// Full setups per paced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Quiescent `get`s in the read probe that follows a load.
const PROBE_GETS: usize = 10_000;
/// Selective queries in the probe after a single-phase load.
const PROBE_QUERIES: usize = 5;
/// Window of the windowed tail percentiles.
pub const TAIL_WINDOW: Duration = Duration::from_secs(2);
/// Stored keys sampled for the isolated `get` replay.
const REPLAY_KEYS: usize = 20_000;
/// Capacity of the in-process socket, lines.
const SOCKET_CAPACITY: usize = 4096;
/// Watermark polling period.
const POLL_EVERY: Duration = Duration::from_millis(1);
/// Gauge sampling period in traced runs.
const GAUGE_EVERY: Duration = Duration::from_millis(250);
/// Longest wait for the last records after the send phase.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

/// What one measured phase produced; every workload fills the same fields.
#[derive(Debug, Default)]
pub struct Phase {
    pub setup: Duration,
    /// Records sent in the measured phase.
    pub records: usize,
    /// Wall time from the first due send to the last record visible.
    pub active: Duration,
    /// Process CPU over the measured phase.
    pub cpu: Duration,
    /// Per-record visibility latency, ms, keyed by due time (records never
    /// visible excluded).
    pub visible_ms: Vec<(Duration, f64)>,
    pub drain: Duration,
    pub lateness: Lateness,
    /// `get` latencies, µs, keyed by due time.
    pub read_us: Vec<(Duration, f64)>,
    /// Query latencies, ms, with the record count each one scanned.
    pub queries: Vec<(f64, usize)>,
    pub stored_bytes: usize,
    pub stored_records: usize,
    /// Operations attempted and failed (records, gets, queries).
    pub attempted: u64,
    pub failed: u64,
    /// Registry snapshots bracketing the measured phase.
    pub before: Option<MetricsSnapshot>,
    pub after: Option<MetricsSnapshot>,
    /// Process-wide text parses during the measured phase.
    pub parses: u64,
    /// Statement timing of the measured stack, ms.
    pub ddl_ms: f64,
    pub connect_ms: f64,
    pub disconnect_ms: f64,
    /// Sampled hand-off queue depth (max) and parked scheduler workers.
    pub handoff_max: u64,
    pub parked_mean: f64,
    /// Adaptor timing (traced runs): records, emit ns, thread CPU ns.
    pub adaptor: Option<(u64, u64, u64)>,
    /// Number of sinks each record is stored into, and UDF stages applied.
    pub sinks: usize,
    pub udf_stages: usize,
    /// True when the phase's reads ran beside ingestion (inside the CPU
    /// window) rather than in a quiescent probe after it.
    pub reads_beside_writes: bool,
    /// Isolated replays (traced runs only).
    pub replays: Option<Replays>,
    /// Time inside the generator's socket `send` (traced runs only).
    pub gen_send: OpTotals,
}

/// Inputs shared by the workload runners.
pub struct Ctx {
    pub seed: u64,
    pub seconds: u64,
    pub tracer: Arc<Tracer>,
    pub work_dir: PathBuf,
}

/// Progress line on stderr, stamped with seconds since the process began.
pub fn progress(msg: &str) {
    static START: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    let t = START.get_or_init(Instant::now).elapsed();
    eprintln!("[{:8.3}s] {msg}", t.as_secs_f64());
}

/// `n` tweets from TweetGen instance `instance` under `seed`.
fn corpus(seed: u64, instance: u32, n: usize) -> Vec<String> {
    let mut f = TweetFactory::new(instance, seed);
    (0..n).map(|_| f.next_json()).collect()
}

/// The reference side of the checks: each corpus line parsed on its own,
/// outside the program's pipeline.
fn reference(lines: &[String]) -> Vec<AdmValue> {
    lines
        .iter()
        .map(|l| parse_value(l).expect("generated line parses"))
        .collect()
}

fn id_of(v: &AdmValue) -> String {
    v.field("id")
        .and_then(|id| id.as_str())
        .expect("generated record has a string id")
        .to_string()
}

fn ids(reference: &[AdmValue]) -> Vec<String> {
    reference.iter().map(id_of).collect()
}

/// Small deterministic generator for the reader's key choice.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Per-thread totals of per-record calls, merged into the tracer at the end.
#[derive(Default)]
struct LocalOps {
    enabled: bool,
    ops: BTreeMap<&'static str, OpTotals>,
}

impl LocalOps {
    fn new(tracer: &Tracer) -> LocalOps {
        LocalOps {
            enabled: tracer.enabled(),
            ops: BTreeMap::new(),
        }
    }

    /// Run `f`, timing it under `name` when tracing.
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let t = Instant::now();
        let out = f();
        self.ops.entry(name).or_default().add(t.elapsed());
        out
    }
}

/// The program's count of records a connection has persisted into
/// `dataset`: `feed.records_persisted{conn="<feed>-><dataset>"}`, which the
/// store stage bumps after each group commit, once the records are visible.
/// Reading it is one atomic load, unlike `Dataset::len()`, which walks
/// every live record under the partition locks and would slow both the
/// generator and the writers it competes with.
fn persisted_counter(stack: &Stack, dataset: &str) -> Counter {
    let suffix = format!("->{dataset}");
    let snap = stack.cluster.registry().snapshot();
    let conns: Vec<&str> = snap
        .samples("feed.records_persisted")
        .flat_map(|m| m.labels.iter())
        .filter(|(k, v)| k == "conn" && v.ends_with(&suffix))
        .map(|(_, v)| v.as_str())
        .collect();
    assert_eq!(conns.len(), 1, "one connection into {dataset}: {conns:?}");
    stack
        .cluster
        .registry()
        .counter("feed.records_persisted", &[("conn", conns[0])])
}

/// Samples the sinks' persisted-record watermarks and, in traced runs, the
/// registry gauges that have no cumulative counterpart (hand-off queue
/// depth, parked scheduler workers).
struct Poller<'a> {
    stack: &'a Stack,
    watermarks: Vec<Counter>,
    origin: Instant,
    observations: Vec<Observation>,
    last: Vec<usize>,
    last_poll: Option<Duration>,
    sample_gauges: bool,
    last_sample: Option<Duration>,
    handoff_max: u64,
    parked_sum: u64,
    parked_n: u64,
}

impl<'a> Poller<'a> {
    fn new(
        stack: &'a Stack,
        datasets: &[&str],
        origin: Instant,
        sample_gauges: bool,
    ) -> Poller<'a> {
        Poller {
            stack,
            watermarks: datasets
                .iter()
                .map(|d| persisted_counter(stack, d))
                .collect(),
            origin,
            observations: Vec::new(),
            last: vec![usize::MAX; datasets.len()],
            last_poll: None,
            sample_gauges,
            last_sample: None,
            handoff_max: 0,
            parked_sum: 0,
            parked_n: 0,
        }
    }

    /// Current watermark of every sink.
    fn counts(&self) -> Vec<usize> {
        self.watermarks.iter().map(|c| c.get() as usize).collect()
    }

    /// Poll when at least [`POLL_EVERY`] passed since the previous poll.
    fn maybe_poll(&mut self, ops: &mut LocalOps) {
        let now = self.origin.elapsed();
        if self.last_poll.is_some_and(|p| now < p + POLL_EVERY) {
            return;
        }
        self.last_poll = Some(now);
        let counts = ops.time("watermark.read", || self.counts());
        let at = self.origin.elapsed();
        if counts != self.last {
            self.observations.push(Observation {
                at,
                counts: counts.clone(),
            });
            self.last = counts;
        }
        if self.sample_gauges && self.last_sample.is_none_or(|t| now >= t + GAUGE_EVERY) {
            self.last_sample = Some(now);
            let snap = ops.time("registry.snapshot", || {
                self.stack.cluster.registry().snapshot()
            });
            self.handoff_max = self
                .handoff_max
                .max(snap.gauge("feed.handoff_queue_frames").unwrap_or(0));
            self.parked_sum += snap.gauge("scheduler.parked").unwrap_or(0);
            self.parked_n += 1;
        }
    }

    fn all_visible(&self, target: &[usize]) -> bool {
        self.last
            .iter()
            .zip(target)
            .all(|(&c, &t)| c != usize::MAX && c >= t)
    }

    fn parked_mean(&self) -> f64 {
        if self.parked_n == 0 {
            0.0
        } else {
            self.parked_sum as f64 / self.parked_n as f64
        }
    }
}

/// Poll until every sink holds `target` records or the timeout passes.
/// Returns true when everything became visible.
fn drain(poller: &mut Poller<'_>, target: &[usize], ops: &mut LocalOps) -> bool {
    let deadline = Instant::now() + DRAIN_TIMEOUT;
    loop {
        poller.maybe_poll(ops);
        if poller.all_visible(target) {
            return true;
        }
        if Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(POLL_EVERY / 2);
    }
}

/// Fill the visibility fields of `phase` from the poller's observations.
fn visibility(phase: &mut Phase, scheduled: &[Duration], poller: &Poller<'_>, base: &[usize]) {
    let lat = stats::visibility_latencies(scheduled, &poller.observations, base);
    phase.visible_ms = lat
        .iter()
        .zip(scheduled)
        .filter_map(|(l, &due)| l.map(|l| (due, l.as_secs_f64() * 1e3)))
        .collect();
    let missing = lat.iter().filter(|l| l.is_none()).count() as u64;
    phase.failed += missing;
    let last_visible = lat
        .iter()
        .flatten()
        .zip(scheduled)
        .map(|(l, s)| *s + *l)
        .max();
    if let (Some(last), Some(&first), Some(&last_due)) =
        (last_visible, scheduled.first(), scheduled.last())
    {
        phase.active = last.saturating_sub(first);
        phase.drain = last.saturating_sub(last_due);
    }
    phase.handoff_max = poller.handoff_max;
    phase.parked_mean = poller.parked_mean();
}

/// Compare the ids stored in `ds` against `expected`; every missing or
/// unexpected id is one failure.
fn check_ids(ds: &Dataset, expected: &[String]) -> u64 {
    let stored: HashSet<String> = ds
        .scan_projected(&["id".to_string()])
        .iter()
        .filter_map(|r| r.field("id").and_then(|v| v.as_str()).map(str::to_string))
        .collect();
    let want: HashSet<&str> = expected.iter().map(String::as_str).collect();
    let missing = want.iter().filter(|id| !stored.contains(**id)).count();
    let extra = stored
        .iter()
        .filter(|id| !want.contains(id.as_str()))
        .count();
    (missing + extra) as u64
}

/// Every `ProcessedTweets` record's `topics` must equal the reference
/// `addHashTags` applied to its source record. Returns the mismatches.
fn check_topics(processed: &Dataset, reference: &[AdmValue]) -> u64 {
    let udf = Udf::add_hash_tags();
    let mut failed = 0u64;
    for source in reference {
        let expected = udf
            .apply(source)
            .ok()
            .and_then(|v| v.field("topics").cloned());
        let key = AdmValue::string(id_of(source));
        let stored = processed.get(&key).and_then(|r| r.field("topics").cloned());
        if expected.is_none() || expected != stored {
            failed += 1;
        }
    }
    failed
}

/// Reference ids matching the selective query.
fn matching_ids(reference: &[AdmValue]) -> HashSet<String> {
    reference
        .iter()
        .filter(|v| {
            v.field("user")
                .and_then(|u| u.field("followers_count"))
                .and_then(AdmValue::as_int)
                .is_some_and(|f| f > QUERY_FOLLOWERS_ABOVE)
        })
        .map(id_of)
        .collect()
}

fn query_text(dataset: &str) -> String {
    format!(
        "for $t in dataset {dataset} where $t.user.followers_count > {QUERY_FOLLOWERS_ABOVE} return $t.id;"
    )
}

/// Run the selective query; returns its latency and the ids it returned.
fn run_query(stack: &Stack, dataset: &str) -> (Duration, Option<HashSet<String>>) {
    let t = Instant::now();
    let out = stack.exec(StmtClass::Query, &query_text(dataset));
    let d = t.elapsed();
    let rows = match out {
        Ok(mut outs) => match outs.pop() {
            Some(ExecOutcome::Rows(rows)) => Some(
                rows.iter()
                    .filter_map(|v| v.as_str().map(str::to_string))
                    .collect(),
            ),
            _ => None,
        },
        Err(_) => None,
    };
    (d, rows)
}

/// A query result is correct when it holds every matching record known to
/// be visible (`must`) and nothing outside the matching corpus (`may`).
fn query_ok(rows: &Option<HashSet<String>>, must: &HashSet<String>, may: &HashSet<String>) -> bool {
    rows.as_ref()
        .is_some_and(|r| must.is_subset(r) && r.is_subset(may))
}

/// Quiescent read probe after a load: `PROBE_GETS` gets over the stored
/// keys (closed loop) and `queries` runs of the selective query.
#[allow(clippy::too_many_arguments)]
fn read_probe(
    stack: &Stack,
    ds_name: &str,
    key_ids: &[String],
    reference: &HashSet<String>,
    seed: u64,
    queries: usize,
    phase: &mut Phase,
    ops: &mut LocalOps,
) {
    let ds = stack.dataset(ds_name);
    let mut rng = XorShift(seed | 1);
    let origin = Instant::now();
    for _ in 0..PROBE_GETS {
        let id = &key_ids[rng.below(key_ids.len())];
        let key = AdmValue::string(id.clone());
        let t = Instant::now();
        let got = ops.time("dataset.get", || ds.get(&key));
        phase
            .read_us
            .push((t.duration_since(origin), t.elapsed().as_secs_f64() * 1e6));
        phase.attempted += 1;
        if got
            .as_ref()
            .and_then(|r| r.field("id"))
            .and_then(|v| v.as_str())
            != Some(id)
        {
            phase.failed += 1;
        }
    }
    let scanned = ds.len();
    for _ in 0..queries {
        let (d, rows) = run_query(stack, ds_name);
        phase.queries.push((d.as_secs_f64() * 1e3, scanned));
        phase.attempted += 1;
        if !query_ok(&rows, reference, reference) {
            phase.failed += 1;
        }
    }
}

/// Record the stack's statement timing, storage size and adaptor timing
/// into `phase`, run the isolated replays when tracing, and shut it down.
fn finish_stack(
    ctx: &Ctx,
    stack: Stack,
    phase: &mut Phase,
    sinks: &[Arc<Dataset>],
    lines: &[String],
) {
    phase.ddl_ms = stack.stmt_ms(StmtClass::Ddl);
    phase.connect_ms = stack.stmt_ms(StmtClass::Connect);
    phase.disconnect_ms = stack.stmt_ms(StmtClass::Disconnect);
    phase.stored_bytes = sinks.iter().map(|d| d.storage_bytes()).sum();
    phase.stored_records = sinks.iter().map(|d| d.len()).sum();
    if ctx.tracer.enabled() {
        let keys: Vec<AdmValue> = sinks[0]
            .scan_projected(&["id".to_string()])
            .iter()
            .filter_map(|r| r.field("id").cloned())
            .take(REPLAY_KEYS)
            .collect();
        let observed_batch = layers::observed_batch(phase);
        phase.replays = Some(layers::replay(
            lines,
            &stack,
            &sinks[0],
            &keys,
            observed_batch,
        ));
    }
    if let Some(s) = &stack.adaptor_stats {
        // relaxed-ok: the adaptors finished before the feed disconnected
        phase.adaptor = Some((
            s.records.load(Ordering::Relaxed),
            s.emit_ns.load(Ordering::Relaxed),
            s.thread_cpu_ns.load(Ordering::Relaxed),
        ));
    }
    stack.shutdown();
}

/// One `bulk_file` round in a fresh stack.
fn bulk_round(ctx: &Ctx, round: usize) -> Phase {
    let mut phase = Phase {
        sinks: 1,
        ..Phase::default()
    };
    let mut ops = LocalOps::new(&ctx.tracer);
    let setup0 = Instant::now();
    let stack = Stack::start(&ctx.tracer, &["Tweets"]).expect("start stack");
    let lines = corpus(ctx.seed, 0, BULK_RECORDS);
    let path = ctx
        .work_dir
        .join(format!("bulk-{}-{round}.adm", std::process::id()));
    write_lines(&path, &lines);
    stack
        .exec(
            StmtClass::Ddl,
            &format!(
                r#"create feed BulkFeed using {} ("path"="{}");"#,
                stack.adaptor("file_based_feed"),
                path.display()
            ),
        )
        .expect("create file feed");
    let sinks = [stack.dataset("Tweets")];
    phase.before = Some(stack.cluster.registry().snapshot());
    let parse0 = parse_calls();
    let cpu0 = host::process_cpu();
    let measure = ctx.tracer.enter("bench.measure");
    let origin = Instant::now();
    stack
        .exec(
            StmtClass::Connect,
            "connect feed BulkFeed to dataset Tweets;",
        )
        .expect("connect file feed");
    phase.setup = origin.elapsed() + origin.duration_since(setup0);
    let mut poller = Poller::new(&stack, &["Tweets"], origin, ctx.tracer.enabled());
    let all_visible = drain(&mut poller, &[BULK_RECORDS], &mut ops);
    phase.cpu = host::process_cpu().saturating_sub(cpu0);
    phase.parses = parse_calls() - parse0;
    phase.after = Some(stack.cluster.registry().snapshot());
    ctx.tracer.exit(measure);
    phase.records = BULK_RECORDS;
    phase.attempted += BULK_RECORDS as u64;
    // unpaced: every record is due when the feed is connected
    let scheduled = vec![Duration::ZERO; BULK_RECORDS];
    visibility(&mut phase, &scheduled, &poller, &[0]);
    if !all_visible {
        eprintln!("bulk_file: not every record became visible");
    }
    stack
        .exec(
            StmtClass::Disconnect,
            "disconnect feed BulkFeed from dataset Tweets;",
        )
        .expect("disconnect file feed");
    std::fs::remove_file(&path).ok();
    let source = reference(&lines);
    let expected = ids(&source);
    phase.failed += check_ids(&sinks[0], &expected);
    let matching = matching_ids(&source);
    read_probe(
        &stack, "Tweets", &expected, &matching, ctx.seed, 1, &mut phase, &mut ops,
    );
    phase.gen_send = ops.ops.get("gen.send").copied().unwrap_or_default();
    ctx.tracer.merge_ops(&ops.ops);
    finish_stack(ctx, stack, &mut phase, &sinks, &lines);
    phase
}

fn write_lines(path: &Path, lines: &[String]) {
    use std::io::Write;
    let file = std::fs::File::create(path).expect("create corpus file");
    let mut w = std::io::BufWriter::new(file);
    for l in lines {
        w.write_all(l.as_bytes()).expect("write corpus file");
        w.write_all(b"\n").expect("write corpus file");
    }
    w.flush().expect("flush corpus file");
}

/// `bulk_file`: one round of full setup + unpaced load + probe per
/// [`BULK_ROUND_SECONDS`] of the run (at least one). The round count is
/// fixed by the run length, not by how fast rounds finish, so memory and
/// set-up samples compare like for like across runs and commits.
pub fn bulk_file(ctx: &Ctx) -> Vec<Phase> {
    let n_rounds = ctx.seconds.div_ceil(BULK_ROUND_SECONDS).max(1) as usize;
    let mut rounds = Vec::new();
    while rounds.len() < n_rounds {
        let p = ctx
            .tracer
            .in_span("bench.round", || bulk_round(ctx, rounds.len()));
        progress(&format!(
            "bulk_file: round {} loaded {} records in {:.3}s, cpu {:.3}s",
            rounds.len(),
            p.records,
            p.active.as_secs_f64(),
            p.cpu.as_secs_f64()
        ));
        rounds.push(p);
    }
    rounds
}

/// A socket-fed stack ready for its paced phase.
struct SocketStack {
    stack: Stack,
    tx: crossbeam_channel::Sender<String>,
    addr: String,
    /// Records the stream corpus will send, in order.
    lines: Vec<String>,
    /// Preloaded lines (`ingest_read` only).
    preload: Vec<String>,
}

impl SocketStack {
    fn close(self) -> Stack {
        drop(self.tx);
        unbind_socket(&self.addr);
        self.stack
    }
}

/// Set up [`SETUPS`] times with `build`, one stack alive at a time; keep
/// the last stack and return the median setup time.
fn repeated_setup(ctx: &Ctx, build: impl Fn(usize) -> SocketStack) -> (SocketStack, Duration) {
    let mut times = Vec::new();
    for i in 0..SETUPS - 1 {
        let span = ctx.tracer.enter("bench.setup");
        let s = build(i);
        times.push(ctx.tracer.exit(span).as_secs_f64());
        s.close().shutdown();
    }
    let span = ctx.tracer.enter("bench.setup");
    let kept = build(SETUPS - 1);
    times.push(ctx.tracer.exit(span).as_secs_f64());
    let median = stats::median(&times).expect("at least one setup");
    (kept, Duration::from_secs_f64(median))
}

fn socket_addr(ctx: &Ctx, workload: &str, i: usize) -> String {
    format!("{workload}-{}-{}:{i}", ctx.seed, std::process::id())
}

/// The open-loop generator: sends `lines` at `rate` from the poller's
/// origin, polling the sinks between sends. Returns each record's due time
/// and how late the sends started; stops early if the socket closes.
fn paced_send(
    poller: &mut Poller<'_>,
    send: &dyn Fn(String) -> bool,
    lines: &[String],
    rate: f64,
    ops: &mut LocalOps,
) -> (Vec<Duration>, Lateness) {
    let origin = poller.origin;
    let mut scheduled = Vec::with_capacity(lines.len());
    let mut lateness = Lateness::default();
    for (i, line) in lines.iter().enumerate() {
        let due = Duration::from_secs_f64(i as f64 / rate);
        loop {
            poller.maybe_poll(ops);
            let now = origin.elapsed();
            if now >= due {
                break;
            }
            std::thread::sleep((due - now).min(POLL_EVERY));
        }
        scheduled.push(due);
        lateness.record(due, origin.elapsed());
        if !ops.time("gen.send", || send(line.clone())) {
            break;
        }
    }
    (scheduled, lateness)
}

/// `cascade_paced`: open-loop socket at [`CASCADE_RATE`] into the primary
/// feed `RawTweets` and the `addHashTags` secondary feed `ProcessedTweets`.
pub fn cascade_paced(ctx: &Ctx) -> Vec<Phase> {
    let n = (CASCADE_RATE * ctx.seconds as f64) as usize;
    let (ss, setup) = repeated_setup(ctx, |i| {
        let stack =
            Stack::start(&ctx.tracer, &["RawTweets", "ProcessedTweets"]).expect("start stack");
        let lines = corpus(ctx.seed, 1, n);
        let addr = socket_addr(ctx, "cascade", i);
        let tx = bind_socket(&addr, SOCKET_CAPACITY).expect("bind socket");
        stack
            .exec(
                StmtClass::Ddl,
                &format!(
                    r#"create feed RawFeed using {} ("sockets"="{addr}");
                       create secondary feed ProcessedFeed from feed RawFeed
                           apply function addHashTags;"#,
                    stack.adaptor("socket_adaptor")
                ),
            )
            .expect("create cascade feeds");
        stack
            .exec(
                StmtClass::Connect,
                "connect feed ProcessedFeed to dataset ProcessedTweets;\n\
                 connect feed RawFeed to dataset RawTweets;",
            )
            .expect("connect cascade");
        SocketStack {
            stack,
            tx,
            addr,
            lines,
            preload: Vec::new(),
        }
    });
    let sinks = [
        ss.stack.dataset("RawTweets"),
        ss.stack.dataset("ProcessedTweets"),
    ];
    let mut phase = Phase {
        setup,
        records: n,
        sinks: 2,
        udf_stages: 1,
        ..Phase::default()
    };
    let mut ops = LocalOps::new(&ctx.tracer);
    phase.before = Some(ss.stack.cluster.registry().snapshot());
    let parse0 = parse_calls();
    let cpu0 = host::process_cpu();
    let measure = ctx.tracer.enter("bench.measure");
    let origin = Instant::now();
    let mut poller = Poller::new(
        &ss.stack,
        &["RawTweets", "ProcessedTweets"],
        origin,
        ctx.tracer.enabled(),
    );
    let tx = ss.tx.clone();
    let send = move |line: String| tx.send(line).is_ok();
    progress("cascade_paced: sending");
    let (scheduled, lateness) = paced_send(&mut poller, &send, &ss.lines, CASCADE_RATE, &mut ops);
    progress("cascade_paced: draining");
    drain(&mut poller, &[n, n], &mut ops);
    progress("cascade_paced: drained");
    phase.cpu = host::process_cpu().saturating_sub(cpu0);
    phase.parses = parse_calls() - parse0;
    phase.after = Some(ss.stack.cluster.registry().snapshot());
    ctx.tracer.exit(measure);
    phase.lateness = lateness;
    phase.attempted += n as u64;
    visibility(&mut phase, &scheduled, &poller, &[0, 0]);
    drop(poller);
    let lines = ss.lines.clone();
    let stack = ss.close();
    stack
        .exec(
            StmtClass::Disconnect,
            "disconnect feed ProcessedFeed from dataset ProcessedTweets;\n\
             disconnect feed RawFeed from dataset RawTweets;",
        )
        .expect("disconnect cascade");
    progress("cascade_paced: checking");
    let source = reference(&lines);
    let expected = ids(&source);
    phase.failed += check_ids(&sinks[0], &expected);
    phase.failed += check_ids(&sinks[1], &expected);
    phase.failed += check_topics(&sinks[1], &source);
    progress("cascade_paced: probing reads");
    let matching = matching_ids(&source);
    read_probe(
        &stack,
        "ProcessedTweets",
        &expected,
        &matching,
        ctx.seed,
        PROBE_QUERIES,
        &mut phase,
        &mut ops,
    );
    phase.gen_send = ops.ops.get("gen.send").copied().unwrap_or_default();
    ctx.tracer.merge_ops(&ops.ops);
    finish_stack(ctx, stack, &mut phase, &sinks, &lines);
    vec![phase]
}

/// What the `ingest_read` reader thread measured.
#[derive(Default)]
struct ReaderOut {
    read_us: Vec<(Duration, f64)>,
    queries: Vec<(f64, usize)>,
    results: Vec<Option<HashSet<String>>>,
    gets: u64,
    get_failures: u64,
    ops: BTreeMap<&'static str, OpTotals>,
}

/// The open-loop reader: `get`s at [`GET_RATE`] on preloaded keys and the
/// selective query every [`QUERY_EVERY`], until `stop`. One client does
/// both, so no `get` is issued while its own query runs: the gets that fall
/// due then are skipped, not queued behind the query. Every other `get` is
/// timed from when it was due, so a stall in the store also counts against
/// the reads queued behind it; only oversleeping past the due time (timer
/// slack) is not counted.
fn reader(
    stack: &Stack,
    keys: &[String],
    seed: u64,
    origin: Instant,
    stop: &AtomicBool,
    tracer: &Tracer,
) -> ReaderOut {
    let ds = stack.dataset("Tweets");
    let stored = persisted_counter(stack, "Tweets");
    let mut out = ReaderOut::default();
    let mut ops = LocalOps::new(tracer);
    let mut rng = XorShift(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let get_every = Duration::from_secs_f64(1.0 / GET_RATE);
    let mut next_get = Duration::ZERO;
    let mut next_query = QUERY_EVERY / 2;
    let mut woke = Duration::ZERO;
    while !stop.load(Ordering::SeqCst) {
        let now = origin.elapsed();
        if now >= next_query && next_query <= next_get {
            let scanned = stored.get() as usize;
            let (d, rows) = run_query(stack, "Tweets");
            out.queries.push((d.as_secs_f64() * 1e3, scanned));
            out.results.push(rows);
            next_query += QUERY_EVERY;
            // resume the get schedule at the first slot after the query
            let end = origin.elapsed();
            while next_get < end {
                next_get += get_every;
            }
        } else if now >= next_get {
            let id = &keys[rng.below(keys.len())];
            let key = AdmValue::string(id.clone());
            let got = ops.time("dataset.get", || ds.get(&key));
            let done = origin.elapsed();
            let start = next_get.max(woke);
            out.read_us
                .push((next_get, done.saturating_sub(start).as_secs_f64() * 1e6));
            out.gets += 1;
            if got
                .as_ref()
                .and_then(|r| r.field("id"))
                .and_then(|v| v.as_str())
                != Some(id)
            {
                out.get_failures += 1;
            }
            next_get += get_every;
        } else {
            std::thread::sleep((next_get.min(next_query) - now).min(POLL_EVERY));
            woke = origin.elapsed();
        }
    }
    out.ops = ops.ops;
    out
}

/// `ingest_read`: preload [`PRELOAD_RECORDS`], then ingest at
/// [`READ_INGEST_RATE`] while the reader runs beside it.
pub fn ingest_read(ctx: &Ctx) -> Vec<Phase> {
    let n = (READ_INGEST_RATE * ctx.seconds as f64) as usize;
    let (ss, setup) = repeated_setup(ctx, |i| {
        let stack = Stack::start(&ctx.tracer, &["Tweets"]).expect("start stack");
        let preload = corpus(ctx.seed, 0, PRELOAD_RECORDS);
        let lines = corpus(ctx.seed, 1, n);
        let addr = socket_addr(ctx, "read", i);
        let tx = bind_socket(&addr, SOCKET_CAPACITY).expect("bind socket");
        stack
            .exec(
                StmtClass::Ddl,
                &format!(
                    r#"create feed ReadFeed using {} ("sockets"="{addr}");"#,
                    stack.adaptor("socket_adaptor")
                ),
            )
            .expect("create feed");
        stack
            .exec(
                StmtClass::Connect,
                "connect feed ReadFeed to dataset Tweets;",
            )
            .expect("connect feed");
        for line in &preload {
            tx.send(line.clone()).expect("preload send");
        }
        let persisted = persisted_counter(&stack, "Tweets");
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        while (persisted.get() as usize) < PRELOAD_RECORDS && Instant::now() < deadline {
            std::thread::sleep(POLL_EVERY);
        }
        SocketStack {
            stack,
            tx,
            addr,
            lines,
            preload,
        }
    });
    let sinks = [ss.stack.dataset("Tweets")];
    let base = persisted_counter(&ss.stack, "Tweets").get() as usize;
    let mut phase = Phase {
        setup,
        records: n,
        sinks: 1,
        reads_beside_writes: true,
        ..Phase::default()
    };
    let preload_ref = reference(&ss.preload);
    let preload_ids = ids(&preload_ref);
    let mut ops = LocalOps::new(&ctx.tracer);
    phase.before = Some(ss.stack.cluster.registry().snapshot());
    let parse0 = parse_calls();
    let cpu0 = host::process_cpu();
    let measure = ctx.tracer.enter("bench.measure");
    let origin = Instant::now();
    let stop = AtomicBool::new(false);
    let (scheduled, lateness, read, poller) = std::thread::scope(|s| {
        let r = s.spawn(|| {
            reader(
                &ss.stack,
                &preload_ids,
                ctx.seed,
                origin,
                &stop,
                &ctx.tracer,
            )
        });
        let mut poller = Poller::new(&ss.stack, &["Tweets"], origin, ctx.tracer.enabled());
        let tx = ss.tx.clone();
        let send = move |line: String| tx.send(line).is_ok();
        let (scheduled, lateness) =
            paced_send(&mut poller, &send, &ss.lines, READ_INGEST_RATE, &mut ops);
        // reads run beside the send phase only, not beside the drain
        stop.store(true, Ordering::SeqCst);
        drain(&mut poller, &[base + n], &mut ops);
        let read = r.join().expect("reader thread panicked");
        (scheduled, lateness, read, poller)
    });
    phase.cpu = host::process_cpu().saturating_sub(cpu0);
    phase.parses = parse_calls() - parse0;
    phase.after = Some(ss.stack.cluster.registry().snapshot());
    ctx.tracer.exit(measure);
    phase.lateness = lateness;
    phase.attempted += n as u64;
    visibility(&mut phase, &scheduled, &poller, &[base]);
    drop(poller);
    let lines = ss.lines.clone();
    let stack = ss.close();
    stack
        .exec(
            StmtClass::Disconnect,
            "disconnect feed ReadFeed from dataset Tweets;",
        )
        .expect("disconnect feed");
    phase.read_us = read.read_us;
    phase.attempted += read.gets + read.queries.len() as u64;
    phase.failed += read.get_failures;
    let stream_ref = reference(&lines);
    let must = matching_ids(&preload_ref);
    let mut may = must.clone();
    may.extend(matching_ids(&stream_ref));
    phase.failed += read
        .results
        .iter()
        .filter(|r| !query_ok(r, &must, &may))
        .count() as u64;
    phase.queries = read.queries;
    ctx.tracer.merge_ops(&read.ops);
    let mut expected = preload_ids;
    expected.extend(ids(&stream_ref));
    phase.failed += check_ids(&sinks[0], &expected);
    phase.gen_send = ops.ops.get("gen.send").copied().unwrap_or_default();
    ctx.tracer.merge_ops(&ops.ops);
    finish_stack(ctx, stack, &mut phase, &sinks, &lines);
    vec![phase]
}
