//! Criterion microbenchmarks over the substrate hot paths: ADM
//! parse/print, value hashing, LSM and R-tree operations, feed-joint
//! routing, the WAL, and the UDF sandbox — native and AQL-defined.

use asterix_adm::{hash::hash_value, parse_value, to_adm_string, AdmPayloadExt, AdmValue};
use asterix_aql::AsterixEngine;
use asterix_common::{DataFrame, Record, RecordId, SimClock};
use asterix_feeds::controller::ControllerConfig;
use asterix_feeds::joint::FeedJoint;
use asterix_feeds::udf::Udf;
use asterix_hyracks::cluster::{Cluster, ClusterConfig};
use asterix_storage::lsm::{LsmConfig, LsmTree};
use asterix_storage::partition::{DatasetPartition, PartitionConfig};
use asterix_storage::rtree::{RTree, Rect};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn sample_tweet_json() -> String {
    let mut f = tweetgen::TweetFactory::new(0, 42);
    f.next_json()
}

fn bench_adm(c: &mut Criterion) {
    let json = sample_tweet_json();
    let value = parse_value(&json).unwrap();
    let text = to_adm_string(&value);
    c.bench_function("adm/parse_tweet", |b| {
        b.iter(|| parse_value(black_box(&text)).unwrap())
    });
    c.bench_function("adm/print_tweet", |b| {
        b.iter(|| to_adm_string(black_box(&value)))
    });
    c.bench_function("adm/hash_tweet", |b| {
        b.iter(|| hash_value(black_box(&value)))
    });
}

fn bench_lsm(c: &mut Criterion) {
    c.bench_function("lsm/put_1k", |b| {
        b.iter(|| {
            let mut t = LsmTree::new(LsmConfig::default());
            for i in 0..1000 {
                t.put(AdmValue::Int(i), AdmValue::Int(i));
            }
            black_box(t.live_count())
        })
    });
    let mut t = LsmTree::new(LsmConfig::default());
    for i in 0..10_000 {
        t.put(AdmValue::Int(i), AdmValue::Int(i));
    }
    c.bench_function("lsm/get_hit", |b| {
        b.iter(|| black_box(t.get(&AdmValue::Int(5000))))
    });
    // the live walk merges the memtable and every sealed component
    let mut stacked = LsmTree::new(LsmConfig {
        memtable_budget: 5_000,
        defer_merge: true,
        ..LsmConfig::default()
    });
    for i in 0..20_000 {
        stacked.put(AdmValue::Int(i), AdmValue::Int(i));
    }
    assert_eq!(stacked.component_count(), 4);
    c.bench_function("lsm/live_walk", |b| {
        b.iter(|| black_box(stacked.live_count()))
    });
}

fn bench_partition(c: &mut Criterion) {
    let json = sample_tweet_json();
    let tweet = parse_value(&json).unwrap();
    c.bench_function("partition/upsert_tweet", |b| {
        let p = DatasetPartition::new(PartitionConfig::keyed_on("id"));
        b.iter(|| p.upsert(black_box(&tweet)).unwrap())
    });
}

fn bench_rtree(c: &mut Criterion) {
    let mut tree = RTree::new();
    for i in 0..10_000usize {
        tree.insert((i % 100) as f64, (i / 100) as f64, i);
    }
    c.bench_function("rtree/query_100_of_10k", |b| {
        b.iter(|| black_box(tree.query(&Rect::new(20.0, 20.0, 29.0, 29.0)).len()))
    });
    c.bench_function("rtree/insert", |b| {
        b.iter(|| {
            let mut t: RTree<usize> = RTree::new();
            for i in 0..500usize {
                t.insert((i % 25) as f64, (i / 25) as f64, i);
            }
            black_box(t.len())
        })
    });
}

fn frame(n: usize) -> DataFrame {
    DataFrame::from_records(
        (0..n)
            .map(|i| Record::tracked(RecordId(i as u64), 0, "payload-bytes-here"))
            .collect(),
    )
}

fn bench_joint(c: &mut Criterion) {
    c.bench_function("joint/deposit_short_circuit", |b| {
        let joint = FeedJoint::new("bench");
        let _sub = joint.subscribe("only");
        let f = frame(64);
        b.iter(|| joint.deposit(black_box(f.clone())).unwrap())
    });
    c.bench_function("joint/deposit_shared_3_subscribers", |b| {
        let joint = FeedJoint::new("bench3");
        let _s1 = joint.subscribe("a");
        let _s2 = joint.subscribe("b");
        let _s3 = joint.subscribe("c");
        let f = frame(64);
        b.iter(|| joint.deposit(black_box(f.clone())).unwrap())
    });
}

fn bench_udf(c: &mut Criterion) {
    let json = sample_tweet_json();
    let tweet = parse_value(&json).unwrap();
    let add_tags = Udf::add_hash_tags();
    c.bench_function("udf/add_hash_tags", |b| {
        b.iter(|| add_tags.apply(black_box(&tweet)).unwrap())
    });
    // the same function written in AQL (Listing 4.2), evaluated per record
    // through the engine
    let cluster = Cluster::start(1, SimClock::with_scale(1.0), ClusterConfig::default());
    let engine = AsterixEngine::start(cluster.clone(), ControllerConfig::default());
    engine
        .execute(
            r##"create function addHashTags($x) {
                let $topics := (for $token in word-tokens($x.message_text)
                                where starts-with($token, "#")
                                return $token)
                return {
                    "id": $x.id, "user": $x.user, "latitude": $x.latitude,
                    "longitude": $x.longitude, "created_at": $x.created_at,
                    "message_text": $x.message_text, "country": $x.country,
                    "topics": $topics
                };
            };"##,
        )
        .unwrap();
    let aql_tags = engine.catalog().function("addHashTags").unwrap();
    c.bench_function("aql/add_hash_tags_engine", |b| {
        b.iter(|| aql_tags.apply(black_box(&tweet)).unwrap())
    });
    engine.controller().shutdown();
    cluster.shutdown();
    let spin = Udf::busy_spin("bench", 10_000);
    c.bench_function("udf/busy_spin_10k", |b| {
        b.iter(|| spin.apply(black_box(&tweet)).unwrap())
    });
}

/// The store path touches each record's value three times downstream of the
/// adaptor: the assign stage (UDF input), the partitioner key function, and
/// the store's type check. Pre-refactor each touch reparsed the ADM text;
/// post-refactor they all share the payload's cached parse.
fn bench_parse_once(c: &mut Criterion) {
    let mut factory = tweetgen::TweetFactory::new(0, 42);
    let lines: Vec<String> = (0..64).map(|_| factory.next_json()).collect();
    c.bench_function("pipeline/store_path_reparse_x3", |b| {
        b.iter(|| {
            let mut odd_hashes = 0usize;
            for line in &lines {
                let assign = parse_value(black_box(line)).unwrap();
                let key = parse_value(black_box(line)).unwrap();
                let store = parse_value(black_box(line)).unwrap();
                odd_hashes += (hash_value(&key) as usize) & 1;
                black_box((&assign, &store));
            }
            odd_hashes
        })
    });
    c.bench_function("pipeline/store_path_parse_once", |b| {
        b.iter(|| {
            let mut odd_hashes = 0usize;
            for line in &lines {
                let rec = Record::untracked(0, line.as_str());
                let assign = rec.payload.adm_value().unwrap();
                let key = rec.payload.adm_value().unwrap();
                let store = rec.payload.adm_value().unwrap();
                odd_hashes += (hash_value(&key) as usize) & 1;
                black_box((&assign, &store));
            }
            odd_hashes
        })
    });
}

/// The storage write path at frame granularity: 64 tweets (one default
/// frame) pushed through the per-record seed path (`upsert` — one lock, one
/// WAL append, one deep clone per record) versus the group-commit batch
/// path (`upsert_batch` — one lock, one multi-entry WAL block, `Arc`-shared
/// records). The acceptance bar for this refactor is ≥ 2x.
fn bench_store_batch(c: &mut Criterion) {
    use std::sync::Arc;
    const FRAME: usize = 64;
    const FRAMES: usize = 32;
    let mut factory = tweetgen::TweetFactory::new(0, 42);
    let tweets: Vec<AdmValue> = (0..FRAME * FRAMES)
        .map(|_| parse_value(&factory.next_json()).unwrap())
        .collect();
    let shared: Vec<Arc<AdmValue>> = tweets.iter().cloned().map(Arc::new).collect();
    // a fresh partition per iteration keeps the tree the same bounded size
    // on both sides, so the measurement is the write path itself rather
    // than lookups in an ever-growing accumulated tree
    c.bench_function("store_batch/per_record_64", |b| {
        b.iter(|| {
            let p = DatasetPartition::new(PartitionConfig::keyed_on("id"));
            for t in &tweets {
                p.upsert(black_box(t)).unwrap();
            }
            black_box(p.wal_len())
        })
    });
    c.bench_function("store_batch/batched_64", |b| {
        b.iter(|| {
            let p = DatasetPartition::new(PartitionConfig::keyed_on("id"));
            let mut committed = 0usize;
            for f in shared.chunks(FRAME) {
                committed += p.upsert_batch(black_box(f)).unwrap().committed;
            }
            black_box(committed)
        })
    });
}

/// WAL encoding: the binary codec against the ADM-text format it replaced.
fn bench_wal_codec(c: &mut Criterion) {
    let json = sample_tweet_json();
    let tweet = parse_value(&json).unwrap();
    let key = tweet.field("id").unwrap().clone();
    c.bench_function("wal/encode_put_binary", |b| {
        b.iter(|| {
            let mut buf = Vec::with_capacity(256);
            asterix_adm::binary::encode_into(black_box(&key), &mut buf);
            asterix_adm::binary::encode_into(black_box(&tweet), &mut buf);
            black_box(buf.len())
        })
    });
    c.bench_function("wal/encode_put_text", |b| {
        b.iter(|| {
            let line = format!(
                "PUT {} {}",
                to_adm_string(black_box(&key)),
                to_adm_string(black_box(&tweet))
            );
            black_box(line.len())
        })
    });
}

criterion_group!(
    benches,
    bench_adm,
    bench_lsm,
    bench_partition,
    bench_rtree,
    bench_joint,
    bench_udf,
    bench_parse_once,
    bench_store_batch,
    bench_wal_codec
);
criterion_main!(benches);
