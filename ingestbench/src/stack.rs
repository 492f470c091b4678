//! The system under test, started in-process through its public API: a
//! 4-node hyracks cluster on a 1:1 sim clock, the AQL engine with the feed
//! controller, and datasets with a WAL and a btree index on `country`.

use crate::host;
use crate::trace::Tracer;
use asterixdb_ingestion::aql::engine::{AsterixEngine, ExecOutcome};
use asterixdb_ingestion::common::{Counter, IngestResult, Record, SimClock, SimDuration};
use asterixdb_ingestion::feeds::adaptor::{
    AdaptorConfig, AdaptorFactory, EmitFn, FeedAdaptor, FileAdaptorFactory, SocketAdaptorFactory,
};
use asterixdb_ingestion::feeds::controller::ControllerConfig;
use asterixdb_ingestion::hyracks::cluster::{Cluster, ClusterConfig};
use asterixdb_ingestion::hyracks::job::Constraint;
use asterixdb_ingestion::hyracks::operator::StopToken;
use asterixdb_ingestion::storage::Dataset;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Nodes (and therefore dataset partitions).
const NODES: usize = 4;

/// Real milliseconds per sim-second: 1:1, so every timer in the program
/// (collect linger, ack windows, heartbeats) runs at wall-clock pace.
const TIME_SCALE: f64 = 1000.0;

/// Types of the paper's Listing 3.1, as the benchmark's DDL.
const TYPES: &str = r#"
create type TwitterUser as open {
    screen_name: string, lang: string, friends_count: int32,
    statuses_count: int32, name: string, followers_count: int32
};
create type Tweet as open {
    id: string, user: TwitterUser, latitude: double?, longitude: double?,
    created_at: string, message_text: string, country: string?
};
"#;

/// Listing 4.2's `addHashTags`, written in AQL.
const ADD_HASH_TAGS: &str = r##"create function addHashTags($x) {
    let $topics := (for $token in word-tokens($x.message_text)
                    where starts-with($token, "#")
                    return $token)
    return {
        "id": $x.id, "user": $x.user, "latitude": $x.latitude,
        "longitude": $x.longitude, "created_at": $x.created_at,
        "message_text": $x.message_text, "country": $x.country,
        "topics": $topics
    };
};"##;

/// Statement classes timed separately (`aql.execute_ms.<class>`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StmtClass {
    Ddl,
    Connect,
    Disconnect,
    Query,
}

impl StmtClass {
    pub fn span_name(self) -> &'static str {
        match self {
            StmtClass::Ddl => "aql.execute.ddl",
            StmtClass::Connect => "aql.execute.connect",
            StmtClass::Disconnect => "aql.execute.disconnect",
            StmtClass::Query => "aql.execute.query",
        }
    }
}

/// Adaptor-side counters filled by [`TimedAdaptorFactory`].
#[derive(Debug, Default)]
pub struct AdaptorStats {
    /// Records emitted.
    pub records: AtomicU64,
    /// Wall time spent inside `emit` (frame building, joint deposit,
    /// back-pressure), nanoseconds.
    pub emit_ns: AtomicU64,
    /// CPU time of the adaptor threads over their whole `run`, nanoseconds.
    pub thread_cpu_ns: AtomicU64,
}

/// Timing decorator for an adaptor, modelled on the program's chaos
/// wrapper: registered as `timed_<inner alias>` in traced runs only, it
/// splits the adaptor's `run` into its own read+translate work and the time
/// spent inside `emit`.
pub struct TimedAdaptorFactory {
    inner: Arc<dyn AdaptorFactory>,
    alias: String,
    stats: Arc<AdaptorStats>,
}

impl TimedAdaptorFactory {
    pub fn new(inner: Arc<dyn AdaptorFactory>, stats: Arc<AdaptorStats>) -> TimedAdaptorFactory {
        let alias = format!("timed_{}", inner.alias());
        TimedAdaptorFactory {
            inner,
            alias,
            stats,
        }
    }
}

impl AdaptorFactory for TimedAdaptorFactory {
    fn alias(&self) -> &str {
        &self.alias
    }

    fn constraints(&self, config: &AdaptorConfig) -> IngestResult<Constraint> {
        self.inner.constraints(config)
    }

    fn create(
        &self,
        config: &AdaptorConfig,
        partition: usize,
        clock: &SimClock,
        malformed_lines: &Counter,
    ) -> IngestResult<Box<dyn FeedAdaptor>> {
        Ok(Box::new(TimedAdaptor {
            inner: self
                .inner
                .create(config, partition, clock, malformed_lines)?,
            stats: Arc::clone(&self.stats),
        }))
    }
}

struct TimedAdaptor {
    inner: Box<dyn FeedAdaptor>,
    stats: Arc<AdaptorStats>,
}

impl FeedAdaptor for TimedAdaptor {
    fn run(&mut self, emit: EmitFn<'_>, stop: &StopToken) -> IngestResult<()> {
        let stats = Arc::clone(&self.stats);
        let cpu0 = host::thread_cpu();
        let mut records = 0u64;
        let mut emit_ns = 0u64;
        let mut wrapped = |rec: Record| -> IngestResult<()> {
            let t = Instant::now();
            let r = emit(rec);
            emit_ns += t.elapsed().as_nanos() as u64;
            records += 1;
            r
        };
        let result = self.inner.run(&mut wrapped, stop);
        // relaxed-ok: statistics read after the feed is disconnected
        stats.records.fetch_add(records, Ordering::Relaxed);
        stats.emit_ns.fetch_add(emit_ns, Ordering::Relaxed);
        let cpu = host::thread_cpu().saturating_sub(cpu0);
        stats
            .thread_cpu_ns
            .fetch_add(cpu.as_nanos() as u64, Ordering::Relaxed);
        result
    }
}

/// A running cluster + engine, and the timing of the statements sent to it.
pub struct Stack {
    pub cluster: Cluster,
    pub engine: Arc<AsterixEngine>,
    /// Adaptor timing, present when the stack was started traced.
    pub adaptor_stats: Option<Arc<AdaptorStats>>,
    /// Total wall time per statement class.
    stmt_time: std::sync::Mutex<Vec<(StmtClass, Duration)>>,
    tracer: Arc<Tracer>,
}

impl Stack {
    /// Start the cluster and engine, create `datasets` (each with its btree
    /// index on `country`) and define `addHashTags`.
    pub fn start(tracer: &Arc<Tracer>, datasets: &[&str]) -> IngestResult<Stack> {
        let clock = SimClock::with_scale(TIME_SCALE);
        let cluster = Cluster::start(
            NODES,
            clock,
            ClusterConfig {
                heartbeat_interval: SimDuration::from_secs(5),
                failure_threshold: SimDuration::from_secs(1_000_000),
            },
        );
        let engine = AsterixEngine::start(cluster.clone(), ControllerConfig::default());
        let adaptor_stats = tracer.enabled().then(|| {
            let stats = Arc::new(AdaptorStats::default());
            for inner in [
                Arc::new(SocketAdaptorFactory) as Arc<dyn AdaptorFactory>,
                Arc::new(FileAdaptorFactory),
            ] {
                engine
                    .catalog()
                    .adaptors()
                    .register(Arc::new(TimedAdaptorFactory::new(
                        inner,
                        Arc::clone(&stats),
                    )));
            }
            stats
        });
        let stack = Stack {
            cluster,
            engine,
            adaptor_stats,
            stmt_time: std::sync::Mutex::new(Vec::new()),
            tracer: Arc::clone(tracer),
        };
        let mut ddl = TYPES.to_string();
        for ds in datasets {
            ddl.push_str(&format!(
                "create dataset {ds}(Tweet) primary key id;\n\
                 create index {ds}Country on {ds}(country) type btree;\n"
            ));
        }
        ddl.push_str(ADD_HASH_TAGS);
        stack.exec(StmtClass::Ddl, &ddl)?;
        Ok(stack)
    }

    /// The adaptor alias to use: the timing wrapper in traced runs.
    pub fn adaptor(&self, alias: &str) -> String {
        if self.adaptor_stats.is_some() {
            format!("timed_{alias}")
        } else {
            alias.to_string()
        }
    }

    /// Execute AQL, timing it under `class`.
    pub fn exec(&self, class: StmtClass, aql: &str) -> IngestResult<Vec<ExecOutcome>> {
        let span = self.tracer.enter(class.span_name());
        let out = self.engine.execute(aql);
        let d = self.tracer.exit(span);
        self.stmt_time
            .lock()
            .expect("statement timing lock poisoned")
            .push((class, d));
        out
    }

    /// Total milliseconds spent executing statements of `class`.
    pub fn stmt_ms(&self, class: StmtClass) -> f64 {
        self.stmt_time
            .lock()
            .expect("statement timing lock poisoned")
            .iter()
            .filter(|(c, _)| *c == class)
            .map(|(_, d)| d.as_secs_f64() * 1e3)
            .sum()
    }

    pub fn dataset(&self, name: &str) -> Arc<Dataset> {
        self.engine
            .catalog()
            .dataset(name)
            .expect("benchmark dataset exists")
    }

    /// Stop the controller and the cluster.
    pub fn shutdown(self) {
        self.engine.controller().shutdown();
        self.cluster.shutdown();
    }
}
