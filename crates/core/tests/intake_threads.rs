//! The feed intake runs as a cooperative task on the cluster scheduler: its
//! flow controller forwards frames inline, so no per-intake OS thread sits
//! between a joint and the rest of its pipeline. Kept in its own test
//! binary — the assertion scans the whole process's thread list, which
//! would race against sibling tests spinning up their own controllers.

use asterix_adm::types::paper_registry;
use asterix_common::{NodeId, SimClock, SimDuration};
use asterix_feeds::builder::FeedBuilder;
use asterix_feeds::catalog::FeedCatalog;
use asterix_feeds::controller::{ControllerConfig, FeedController};
use asterix_feeds::udf::Udf;
use asterix_hyracks::cluster::{Cluster, ClusterConfig};
use asterix_storage::{Dataset, DatasetConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tweetgen::{PatternDescriptor, TweetGen, TweetGenConfig};

/// Names of this process's live threads whose comm starts with `prefix`
/// (Linux comm names are truncated to 15 bytes, so match on a prefix).
fn threads_named(prefix: &str) -> Vec<String> {
    let mut out = Vec::new();
    if let Ok(dir) = std::fs::read_dir("/proc/self/task") {
        for task in dir.flatten() {
            if let Ok(name) = std::fs::read_to_string(task.path().join("comm")) {
                let name = name.trim().to_string();
                if name.starts_with(prefix) {
                    out.push(name);
                }
            }
        }
    }
    out
}

fn assert_no_pusher_thread(when: &str) {
    let pushers = threads_named("feed-flow-push");
    assert!(
        pushers.is_empty(),
        "{when}: flow pusher threads {pushers:?}"
    );
}

fn dataset(cluster: &Cluster, catalog: &FeedCatalog, name: &str) -> Arc<Dataset> {
    let nodegroup: Vec<NodeId> = cluster.alive_nodes().iter().map(|n| n.id()).collect();
    let d = Arc::new(
        Dataset::create(DatasetConfig {
            name: name.into(),
            datatype: "Tweet".into(),
            primary_key: "id".into(),
            nodegroup,
        })
        .unwrap(),
    );
    catalog.register_dataset(Arc::clone(&d));
    d
}

#[test]
#[cfg(target_os = "linux")]
fn cascade_runs_without_intake_threads() {
    let clock = SimClock::with_scale(10.0);
    let cluster = Cluster::start(
        3,
        clock.clone(),
        ClusterConfig {
            heartbeat_interval: SimDuration::from_secs(5),
            failure_threshold: SimDuration::from_secs(1_000_000),
        },
    );
    let catalog = FeedCatalog::new(paper_registry());
    let controller = FeedController::start(
        cluster.clone(),
        Arc::clone(&catalog),
        ControllerConfig::default(),
    );
    let raw = dataset(&cluster, &catalog, "RawTweets");
    let processed = dataset(&cluster, &catalog, "ProcessedTweets");
    catalog.create_function(Udf::add_hash_tags()).unwrap();
    FeedBuilder::new("TwitterFeed")
        .adaptor("TweetGenAdaptor")
        .param("datasource", "intake-threads:9000")
        .register(&catalog)
        .unwrap();
    FeedBuilder::new("ProcessedTwitterFeed")
        .parent("TwitterFeed")
        .udf("addHashTags")
        .register(&catalog)
        .unwrap();
    let gen = TweetGen::bind(
        TweetGenConfig::new(
            "intake-threads:9000",
            0,
            PatternDescriptor::constant(300, 4),
        ),
        clock,
    )
    .unwrap();
    controller
        .connect_feed("TwitterFeed", "RawTweets", "Basic")
        .unwrap();
    controller
        .connect_feed("ProcessedTwitterFeed", "ProcessedTweets", "Basic")
        .unwrap();

    // while records flow through both store pipelines and the UDF stage
    let deadline = Instant::now() + Duration::from_secs(30);
    while raw.is_empty() || processed.is_empty() {
        assert!(Instant::now() < deadline, "no records flowed");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_no_pusher_thread("while records flow");

    // the generator's pattern is finite: wait until its count is stable
    let mut generated = gen.generated();
    loop {
        std::thread::sleep(Duration::from_millis(150));
        let now = gen.generated();
        if now == generated && now > 0 {
            break;
        }
        generated = now;
        assert_no_pusher_thread("while records flow");
    }
    let generated = generated as usize;
    assert!(generated >= 1000, "generated {generated}");
    let deadline = Instant::now() + Duration::from_secs(60);
    while raw.len() < generated || processed.len() < generated {
        assert!(
            Instant::now() < deadline,
            "generated={generated} raw={} processed={}",
            raw.len(),
            processed.len()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(raw.len(), generated, "every tweet stored once in RawTweets");
    assert_eq!(
        processed.len(),
        generated,
        "every tweet stored once in ProcessedTweets"
    );

    controller
        .disconnect_feed("ProcessedTwitterFeed", "ProcessedTweets")
        .unwrap();
    controller
        .disconnect_feed("TwitterFeed", "RawTweets")
        .unwrap();
    assert_no_pusher_thread("after disconnect");
    gen.stop();
    controller.shutdown();
    cluster.shutdown();
}
