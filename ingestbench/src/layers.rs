//! Per-layer metrics: deltas of the program's own registry over the
//! measured phase, plus isolated single-thread replays of each layer's
//! public function over the same corpus, and the cost ledger that ties
//! them to the measured CPU per record.

use crate::stack::Stack;
use crate::stats::{self, LedgerTerm};
use crate::workloads::{Phase, TAIL_WINDOW};
use asterixdb_ingestion::adm::{parse_value, AdmValue};
use asterixdb_ingestion::common::{HistogramSnapshot, MetricValue, MetricsSnapshot, NodeId};
use asterixdb_ingestion::storage::partition::PartitionConfig;
use asterixdb_ingestion::storage::secondary::IndexKind;
use asterixdb_ingestion::storage::{Dataset, DatasetConfig};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Lines used by the isolated replays.
const REPLAY_RECORDS: usize = 20_000;

/// Sum of counter `name` over unlabelled series and series with a label
/// value satisfying `pick`.
fn counter(snap: &MetricsSnapshot, name: &str, pick: &dyn Fn(&str) -> bool) -> u64 {
    snap.samples(name)
        .filter(|m| m.labels.is_empty() || m.labels.iter().any(|(_, v)| pick(v)))
        .filter_map(|m| match &m.value {
            MetricValue::Counter(v) => Some(*v),
            _ => None,
        })
        .sum()
}

fn counter_delta(p: &Phase, name: &str, pick: &dyn Fn(&str) -> bool) -> u64 {
    let (Some(b), Some(a)) = (&p.before, &p.after) else {
        return 0;
    };
    counter(a, name, pick).saturating_sub(counter(b, name, pick))
}

fn gauges(snap: &MetricsSnapshot, name: &str) -> Vec<u64> {
    snap.samples(name)
        .filter_map(|m| match &m.value {
            MetricValue::Gauge(v) => Some(*v),
            _ => None,
        })
        .collect()
}

fn gauge_sum_delta(p: &Phase, name: &str) -> u64 {
    let (Some(b), Some(a)) = (&p.before, &p.after) else {
        return 0;
    };
    let sum = |s: &MetricsSnapshot| gauges(s, name).iter().sum::<u64>();
    sum(a).saturating_sub(sum(b))
}

/// Windowed merge of histogram series `name` whose labels satisfy `pick`.
fn hist_delta(p: &Phase, name: &str, pick: &dyn Fn(&str) -> bool) -> HistogramSnapshot {
    let merged = |s: &MetricsSnapshot| {
        let mut acc = HistogramSnapshot {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: Vec::new(),
        };
        for m in s.samples(name) {
            if !m.labels.iter().any(|(_, v)| pick(v)) {
                continue;
            }
            if let MetricValue::Histogram(h) = &m.value {
                acc = merge(acc, h);
            }
        }
        acc
    };
    match (&p.before, &p.after) {
        (Some(b), Some(a)) => merged(a).delta(&merged(b)),
        _ => merged(&MetricsSnapshot {
            taken_at_millis: 0,
            metrics: Vec::new(),
        }),
    }
}

fn merge(mut acc: HistogramSnapshot, h: &HistogramSnapshot) -> HistogramSnapshot {
    acc.count += h.count;
    acc.sum += h.sum;
    acc.max = acc.max.max(h.max);
    for &(bound, n) in &h.buckets {
        match acc.buckets.iter_mut().find(|(b, _)| *b == bound) {
            Some(slot) => slot.1 += n,
            None => acc.buckets.push((bound, n)),
        }
    }
    acc.buckets.sort_unstable();
    acc
}

fn per(n: f64, d: f64) -> f64 {
    if d > 0.0 {
        n / d
    } else {
        0.0
    }
}

fn is_intake(label: &str) -> bool {
    label.starts_with("FeedIntake(")
}

fn is_store(label: &str) -> bool {
    label.starts_with("IndexInsert(")
}

fn is_assign(label: &str) -> bool {
    label.starts_with("Assign(")
}

/// Isolated single-thread costs of each layer's public function.
#[derive(Debug, Default, Clone)]
pub struct Replays {
    pub parse_ns: f64,
    pub udf_apply_ns: f64,
    pub hash_ns: f64,
    pub insert_batch_observed_ns: f64,
    pub insert_batch_64_ns: f64,
    pub get_ns: f64,
    pub len_us: f64,
}

fn ns_per<T>(n: usize, f: impl FnOnce() -> T) -> f64 {
    let t = Instant::now();
    black_box(f());
    t.elapsed().as_nanos() as f64 / n.max(1) as f64
}

/// A quiescent single-partition dataset with the benchmark's btree index,
/// outside any cluster: the storage write path alone.
fn replay_dataset(name: &str) -> Dataset {
    let ds = Dataset::create_configured(
        DatasetConfig {
            name: name.into(),
            datatype: "Tweet".into(),
            primary_key: "id".into(),
            nodegroup: vec![NodeId(0)],
        },
        PartitionConfig::keyed_on("id"),
    )
    .expect("create replay dataset");
    ds.create_index(
        format!("{name}Country"),
        "country".to_string(),
        IndexKind::BTree,
    )
    .expect("create replay index");
    ds
}

fn insert_batch_ns(name: &str, records: &[Arc<AdmValue>], batch: usize) -> f64 {
    let ds = replay_dataset(name);
    ns_per(records.len(), || {
        for chunk in records.chunks(batch.max(1)) {
            ds.insert_batch(chunk).expect("replay insert");
        }
        ds.len()
    })
}

/// Run every isolated replay over `lines` (the run's corpus). `stack`
/// supplies the engine-defined `addHashTags`; `keys` and `sink` are the
/// measured dataset and a sample of its keys, quiescent after the run.
pub fn replay(
    lines: &[String],
    stack: &Stack,
    sink: &Dataset,
    keys: &[AdmValue],
    observed_batch: f64,
) -> Replays {
    let lines = &lines[..lines.len().min(REPLAY_RECORDS)];
    let mut r = Replays::default();
    let mut values = Vec::with_capacity(lines.len());
    r.parse_ns = ns_per(lines.len(), || {
        for l in lines {
            values.push(parse_value(l).expect("corpus line parses"));
        }
    });
    let udf = stack
        .engine
        .catalog()
        .function("addHashTags")
        .expect("addHashTags is defined");
    r.udf_apply_ns = ns_per(values.len(), || {
        values
            .iter()
            .map(|v| udf.apply(v).is_ok() as usize)
            .sum::<usize>()
    });
    let ids: Vec<AdmValue> = values
        .iter()
        .filter_map(|v| v.field("id").cloned())
        .collect();
    r.hash_ns = ns_per(ids.len(), || {
        ids.iter()
            .map(|k| sink.partition_index_for(k))
            .sum::<usize>()
    });
    let records: Vec<Arc<AdmValue>> = values.into_iter().map(Arc::new).collect();
    let batch = observed_batch.round().max(1.0) as usize;
    r.insert_batch_observed_ns = insert_batch_ns("ReplayObserved", &records, batch);
    r.insert_batch_64_ns = insert_batch_ns("Replay64", &records, 64);
    r.get_ns = ns_per(keys.len(), || {
        keys.iter().filter(|k| sink.get(k).is_some()).count()
    });
    const LEN_CALLS: usize = 10;
    r.len_us = ns_per(LEN_CALLS, || {
        (0..LEN_CALLS).map(|_| sink.len()).sum::<usize>()
    }) / 1e3;
    r
}

/// Percentile `q` over every sample of a run, ignoring their due times.
fn whole(samples: &[(std::time::Duration, f64)], q: f64) -> f64 {
    let v: Vec<f64> = samples.iter().map(|&(_, x)| x).collect();
    stats::percentile(&v, q).unwrap_or(0.0)
}

/// Mean group-commit batch (records per partition write) in the phase.
pub fn observed_batch(p: &Phase) -> f64 {
    hist_delta(p, "storage.group_commit_batch_size", &|_| true).mean()
}

/// Registry-derived and replay-derived per-layer metrics of one phase.
pub fn layer_metrics(p: &Phase) -> Vec<(&'static str, f64, &'static str)> {
    let replays = p.replays.clone().unwrap_or_default();
    let recs = p.records as f64;
    let stored = recs * p.sinks as f64;
    let any = |_: &str| true;
    // intake operators are sources: their frames are counted on the way out
    let intake_frames = counter_delta(p, "operator.frames_out", &is_intake) as f64;
    let intake_recs = counter_delta(p, "operator.records_out", &is_intake) as f64;
    let store_recs_in = counter_delta(p, "operator.records_in", &is_store) as f64;
    let store_lat = hist_delta(p, "operator.frame_latency_us", &is_store);
    let assign_lat = hist_delta(p, "operator.frame_latency_us", &is_assign);
    let assign_recs = counter_delta(p, "operator.records_in", &is_assign) as f64;
    let (adaptor_self, emit_share) = match p.adaptor {
        Some((n, emit_ns, cpu_ns)) => {
            let own = cpu_ns.saturating_sub(emit_ns) as f64;
            (
                per(own, n as f64),
                per(emit_ns as f64, emit_ns as f64 + own),
            )
        }
        None => (0.0, 0.0),
    };
    let lsm_max = p.after.as_ref().map_or(0, |a| {
        gauges(a, "storage.lsm_components")
            .into_iter()
            .max()
            .unwrap_or(0)
    });
    let query_ns_per_scanned = stats::median(
        &p.queries
            .iter()
            .map(|&(ms, scanned)| per(ms * 1e6, scanned as f64))
            .collect::<Vec<_>>(),
    )
    .unwrap_or(0.0);
    let cpu_ns_per_rec = per(p.cpu.as_nanos() as f64, recs);
    let parses_per_rec = per(p.parses as f64, recs);
    let gets_in_window = if p.reads_beside_writes {
        p.read_us.len() as f64
    } else {
        0.0
    };
    let scanned_in_window: f64 = if p.reads_beside_writes {
        p.queries.iter().map(|&(_, s)| s as f64).sum()
    } else {
        0.0
    };
    let ledger = [
        // the adaptor's own CPU (read + translate, which includes the one
        // parse) when the timing wrapper ran, else the isolated parse cost
        match p.adaptor {
            Some(_) => LedgerTerm {
                layer: "core.adaptor",
                ns_per_op: adaptor_self,
                ops_per_record: 1.0,
            },
            None => LedgerTerm {
                layer: "adm.parse",
                ns_per_op: replays.parse_ns,
                ops_per_record: parses_per_rec,
            },
        },
        LedgerTerm {
            layer: "core.udf.apply",
            ns_per_op: replays.udf_apply_ns,
            ops_per_record: p.udf_stages as f64,
        },
        LedgerTerm {
            layer: "hyracks.exchange.hash",
            ns_per_op: replays.hash_ns,
            ops_per_record: p.sinks as f64,
        },
        LedgerTerm {
            layer: "storage.insert_batch",
            ns_per_op: replays.insert_batch_observed_ns,
            ops_per_record: p.sinks as f64,
        },
        LedgerTerm {
            layer: "storage.get",
            ns_per_op: replays.get_ns,
            ops_per_record: per(gets_in_window, recs),
        },
        LedgerTerm {
            layer: "aql.query",
            ns_per_op: query_ns_per_scanned,
            ops_per_record: per(scanned_in_window, recs),
        },
    ];
    for t in &ledger {
        crate::workloads::progress(&format!(
            "ledger: {} {:.0} ns x {:.3}/record",
            t.layer, t.ns_per_op, t.ops_per_record
        ));
    }
    vec![
        ("adm.parse_ns_per_rec", replays.parse_ns, "ns"),
        ("adm.parse_calls_per_rec", parses_per_rec, "count"),
        ("core.adaptor.self_ns_per_rec", adaptor_self, "ns"),
        ("core.adaptor.emit_blocked_share", emit_share, "ratio"),
        (
            "core.ops.records_per_frame",
            per(intake_recs, intake_frames),
            "count",
        ),
        (
            "core.flow.handoff_queue_max_frames",
            p.handoff_max as f64,
            "frames",
        ),
        (
            "core.flow.records_spilled",
            counter_delta(p, "feed.records_spilled", &any) as f64,
            "count",
        ),
        (
            "core.flow.records_throttled",
            counter_delta(p, "feed.records_throttled", &any) as f64,
            "count",
        ),
        (
            "core.flow.records_discarded",
            counter_delta(p, "feed.records_discarded", &any) as f64,
            "count",
        ),
        ("core.udf.apply_ns_per_rec", replays.udf_apply_ns, "ns"),
        (
            "core.udf.busy_us_per_rec",
            per(assign_lat.sum as f64, assign_recs),
            "us",
        ),
        (
            "hyracks.scheduler.polls_per_rec",
            per(counter_delta(p, "scheduler.polls", &any) as f64, recs),
            "count",
        ),
        ("hyracks.scheduler.parked_mean", p.parked_mean, "workers"),
        (
            "hyracks.scheduler.steals",
            counter_delta(p, "scheduler.steals", &any) as f64,
            "count",
        ),
        (
            "hyracks.scheduler.yields_per_rec",
            per(counter_delta(p, "scheduler.yields", &any) as f64, recs),
            "count",
        ),
        ("hyracks.exchange.hash_ns_per_rec", replays.hash_ns, "ns"),
        ("storage.group_commit_mean_recs", observed_batch(p), "count"),
        (
            "storage.insert_batch_ns_per_rec",
            replays.insert_batch_observed_ns,
            "ns",
        ),
        (
            "storage.insert_batch64_ns_per_rec",
            replays.insert_batch_64_ns,
            "ns",
        ),
        (
            "storage.store_busy_us_per_rec",
            per(store_lat.sum as f64, store_recs_in),
            "us",
        ),
        (
            "storage.store_frame_p99_us",
            store_lat.quantile(0.99) as f64,
            "us",
        ),
        (
            "storage.wal_bytes_per_rec",
            per(gauge_sum_delta(p, "storage.wal_bytes") as f64, stored),
            "bytes",
        ),
        (
            "storage.compactions",
            gauge_sum_delta(p, "storage.compactions") as f64,
            "count",
        ),
        ("storage.lsm_components_max", lsm_max as f64, "count"),
        ("storage.get_ns", replays.get_ns, "ns"),
        ("storage.len_us", replays.len_us, "us"),
        ("aql.execute_ms.ddl", p.ddl_ms, "ms"),
        ("aql.execute_ms.connect", p.connect_ms, "ms"),
        ("aql.execute_ms.disconnect", p.disconnect_ms, "ms"),
        ("aql.query_ns_per_scanned_rec", query_ns_per_scanned, "ns"),
        ("ledger.cpu_ns_per_rec", cpu_ns_per_rec, "ns"),
        (
            "ledger.unattributed_ns_per_rec",
            stats::unattributed_ns_per_rec(cpu_ns_per_rec, &ledger),
            "ns",
        ),
        ("bench.drain_s", p.drain.as_secs_f64(), "s"),
        (
            "bench.visible_p99_whole_run_ms",
            whole(&p.visible_ms, 0.99),
            "ms",
        ),
        (
            "bench.read_p99_us",
            stats::windowed_percentile(&p.read_us, TAIL_WINDOW, 0.99, 100).unwrap_or(0.0),
            "us",
        ),
        ("bench.read_p99_whole_run_us", whole(&p.read_us, 0.99), "us"),
        (
            "bench.gen_late_p99_ms",
            p.lateness.quantile_ms(0.99).unwrap_or(0.0),
            "ms",
        ),
        (
            "bench.gen_send_mean_us",
            per(p.gen_send.total_ns as f64 / 1e3, p.gen_send.count as f64),
            "us",
        ),
    ]
}
