//! Chaos soak tests: deterministic fault injection against the full feed
//! stack (Fig 6.5 and §6.2). Every fault schedule comes from a single
//! `FaultPlan` seed, so any failing run can be replayed bit-for-bit by
//! re-running with the same seed.
//!
//! What is asserted here:
//! * the at-least-once invariant — with `at.least.once.enabled`, every
//!   generated record id appears in the dataset even when a store node is
//!   hard-killed mid-ingestion and later rejoins;
//! * replayability — two runs with the same seed produce identical fault
//!   schedules and identical post-recovery record-id sets;
//! * Basic/Spill lose nothing across a hard failure that is a runtime
//!   exception (§6.2.3 operator panic): deferred work is parked as zombie
//!   frames and re-adopted by the respawned store job;
//! * Discard's drop pattern stays contiguous under chaos (Fig 7.9) while
//!   Throttle's stays uniform (Fig 7.10);
//! * a torn WAL tail is recovered all-or-nothing.
//!
//! `CHAOS_SOAK_ITERS` (default 3, CI sets 20) controls soak depth.

use asterix_adm::types::paper_registry;
use asterix_adm::AdmValue;
use asterix_common::{
    FaultEvent, FaultKind, FaultPlan, FaultPlanConfig, NodeId, SimClock, SimDuration,
};
use asterix_feeds::adaptor::{ChaosAdaptorFactory, TweetGenAdaptorFactory};
use asterix_feeds::builder::FeedBuilder;
use asterix_feeds::catalog::FeedCatalog;
use asterix_feeds::controller::{ConnectionState, ControllerConfig, FeedController};
use asterix_feeds::udf::Udf;
use asterix_hyracks::cluster::{Cluster, ClusterConfig};
use asterix_hyracks::transport::TransportKind;
use asterix_storage::{Dataset, DatasetConfig, DatasetPartition, PartitionConfig};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tweetgen::{PatternDescriptor, TweetGen, TweetGenConfig};

fn soak_iters() -> u64 {
    std::env::var("CHAOS_SOAK_ITERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(3)
}

fn wait_until(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    false
}

/// Wait until the generator's pattern has finished (count stable).
fn wait_pattern_done(gen: &TweetGen) -> u64 {
    let mut last = gen.generated();
    loop {
        std::thread::sleep(Duration::from_millis(150));
        let now = gen.generated();
        if now == last && now > 0 {
            return now;
        }
        last = now;
    }
}

/// Wait until the dataset has stopped growing (pipeline drained).
fn wait_drained(dataset: &Dataset) -> usize {
    let mut last = dataset.len();
    loop {
        std::thread::sleep(Duration::from_millis(500));
        let now = dataset.len();
        if now == last {
            return now;
        }
        last = now;
    }
}

fn dataset_ids(dataset: &Dataset) -> BTreeSet<String> {
    dataset
        .scan_all()
        .iter()
        .filter_map(|r| r.field("id").and_then(AdmValue::as_str).map(String::from))
        .collect()
}

fn expected_ids(instance: u32, generated: u64) -> BTreeSet<String> {
    (0..generated).map(|i| format!("{instance}-{i}")).collect()
}

/// One full chaos run: a 4-node cluster, a FaultTolerant connection, and a
/// seeded plan that kills one unprotected store node mid-ingestion and
/// revives it while the source is still flowing. Node 0 is protected — it
/// hosts the collect job (and therefore the store intake), and losing the
/// node that talks to the external source is unrecoverable without source
/// replay, which the paper does not claim.
struct SoakOutcome {
    schedule: String,
    generated: u64,
    ids: BTreeSet<String>,
    hard_recoveries: u64,
    last_recovery_millis: u64,
}

fn soak_once(seed: u64, addr: &str) -> SoakOutcome {
    soak_once_with(seed, addr, TransportKind::InProcess)
}

/// Same soak, but the pipeline's edges ride the chosen wire (`Tcp` routes
/// every inter-operator frame through a length-prefixed loopback socket).
fn soak_once_with(seed: u64, addr: &str, transport: TransportKind) -> SoakOutcome {
    let clock = SimClock::with_scale(100.0); // 100 real ms per sim-second
    let cluster = Cluster::start(
        4,
        clock.clone(),
        ClusterConfig {
            heartbeat_interval: SimDuration::from_millis(250),
            failure_threshold: SimDuration::from_millis(1500),
        },
    );
    // 2000-record budget: the kill lands in records [1, 1000), the revive
    // 1000 records later — i.e. ~5 sim-seconds after the kill, comfortably
    // past the 1.5 sim-second failure-detection threshold.
    let plan = Arc::new(FaultPlan::generate(
        seed,
        &FaultPlanConfig {
            nodes: 4,
            protected_nodes: 1,
            horizon_records: 2_000,
            node_kills: 1,
            rejoin_delay_records: 1_000,
            ..FaultPlanConfig::default()
        },
    ));
    let schedule = plan.describe();
    cluster.arm_fault_plan(Arc::clone(&plan));

    let catalog = FeedCatalog::new(paper_registry());
    catalog
        .adaptors()
        .register(Arc::new(ChaosAdaptorFactory::new(
            Arc::new(TweetGenAdaptorFactory),
            Arc::clone(&plan),
        )));
    let controller = FeedController::start(
        cluster.clone(),
        Arc::clone(&catalog),
        ControllerConfig {
            fault_plan: Some(Arc::clone(&plan)),
            transport,
            ..ControllerConfig::default()
        },
    );

    let nodegroup: Vec<NodeId> = cluster.alive_nodes().iter().map(|n| n.id()).collect();
    let dataset = Arc::new(
        Dataset::create(DatasetConfig {
            name: "Tweets".into(),
            datatype: "Tweet".into(),
            primary_key: "id".into(),
            nodegroup,
        })
        .unwrap(),
    );
    catalog.register_dataset(Arc::clone(&dataset));

    let gen = TweetGen::bind(
        TweetGenConfig::new(addr, 0, PatternDescriptor::constant(200, 10)),
        clock.clone(),
    )
    .unwrap();
    FeedBuilder::new("TwitterFeed")
        .adaptor("chaos:TweetGenAdaptor")
        .param("datasource", addr)
        .register(&catalog)
        .unwrap();
    let conn = controller
        .connect_feed("TwitterFeed", "Tweets", "FaultTolerant")
        .unwrap();

    let generated = wait_pattern_done(&gen);
    assert!(
        wait_until(Duration::from_secs(60), || dataset.len() as u64
            >= generated),
        "seed {seed:#x}: recovered to {} of {generated} records; schedule:\n{schedule}",
        dataset.len()
    );
    assert_eq!(
        plan.unfired_count(),
        0,
        "seed {seed:#x}: schedule did not fully fire:\n{schedule}"
    );
    assert!(
        wait_until(Duration::from_secs(10), || {
            controller.connection_state(conn) == ConnectionState::Active
        }),
        "seed {seed:#x}: connection never returned to Active"
    );
    let m = controller.connection_metrics(conn).unwrap();
    let out = SoakOutcome {
        schedule,
        generated,
        ids: dataset_ids(&dataset),
        hard_recoveries: m.hard_failures_recovered.get(),
        last_recovery_millis: m.last_recovery_millis.get(),
    };
    gen.stop();
    controller.shutdown();
    cluster.shutdown();
    out
}

#[test]
fn at_least_once_soak_survives_node_kill_mid_ingestion() {
    for i in 0..soak_iters() {
        let seed = 0xA57E_21C5_0000_0000 | i;
        let out = soak_once(seed, &format!("chaos-soak-{i}:9000"));
        assert_eq!(
            out.ids,
            expected_ids(0, out.generated),
            "seed {seed:#x}: record-id set diverged; schedule:\n{}",
            out.schedule
        );
        assert!(
            out.hard_recoveries >= 1,
            "seed {seed:#x}: no hard failure was recorded as recovered"
        );
        assert!(
            out.last_recovery_millis > 0,
            "seed {seed:#x}: recovery latency gauge never set"
        );
    }
}

#[test]
fn same_seed_replays_schedule_and_record_ids() {
    let seed = 0xFEED_FACE_CAFE_0001;
    let a = soak_once(seed, "chaos-replay-a:9000");
    let b = soak_once(seed, "chaos-replay-b:9000");
    assert_eq!(a.schedule, b.schedule, "same seed must replay the schedule");
    assert_eq!(a.generated, b.generated);
    assert_eq!(
        a.ids, b.ids,
        "same seed must converge to the same record-id set"
    );
    // and a different seed diverges in schedule
    let other = FaultPlan::generate(seed ^ 1, &FaultPlanConfig::default());
    assert_ne!(a.schedule, other.describe());
}

#[test]
fn tcp_transport_replays_to_the_same_record_ids() {
    // the wire must be invisible to recovery: a chaos run whose frames all
    // cross loopback TCP sockets converges to the same post-recovery
    // record-id set as the in-process run of the same seed
    let seed = 0xFEED_FACE_CAFE_0002;
    let local = soak_once_with(seed, "chaos-wire-a:9000", TransportKind::InProcess);
    let wired = soak_once_with(seed, "chaos-wire-b:9000", TransportKind::Tcp);
    assert_eq!(
        local.schedule, wired.schedule,
        "same seed must replay the schedule regardless of transport"
    );
    assert_eq!(local.generated, wired.generated);
    assert_eq!(
        local.ids, wired.ids,
        "record-id sets must match across transports"
    );
    assert!(wired.hard_recoveries >= 1);
}

// ---------------------------------------------------------------------------
// operator panics: Basic / Spill lose nothing across a runtime-exception
// hard failure (§6.2.3) — zombie frames are parked and re-adopted
// ---------------------------------------------------------------------------

struct PanicOutcome {
    generated: u64,
    ids: BTreeSet<String>,
    hard_recoveries: u64,
    zombies_adopted: u64,
    spilled: u64,
}

/// Run a congested single-panic chaos round under `policy`. The store is
/// slowed with an insert spin so the flow controller has deferred work in
/// flight when the panic fires; the panic is scheduled late in the 4500
/// record budget because the trigger counts *collect-side* emissions, which
/// run far ahead of the congested store stage.
fn panic_run(policy: &str, addr: &str) -> PanicOutcome {
    let clock = SimClock::with_scale(10.0);
    let cluster = Cluster::start(
        2,
        clock.clone(),
        ClusterConfig {
            heartbeat_interval: SimDuration::from_secs(5),
            failure_threshold: SimDuration::from_secs(1_000_000),
        },
    );
    let plan = Arc::new(FaultPlan::from_events(
        0xBAD_0B5,
        vec![FaultEvent {
            at_record: 4_000,
            kind: FaultKind::OperatorPanic,
        }],
    ));
    let catalog = FeedCatalog::new(paper_registry());
    catalog
        .adaptors()
        .register(Arc::new(ChaosAdaptorFactory::new(
            Arc::new(TweetGenAdaptorFactory),
            Arc::clone(&plan),
        )));
    let controller = FeedController::start(
        cluster.clone(),
        Arc::clone(&catalog),
        ControllerConfig {
            flow_capacity: 2,
            fault_plan: Some(Arc::clone(&plan)),
            ..ControllerConfig::default()
        },
    );
    let nodegroup: Vec<NodeId> = cluster.alive_nodes().iter().map(|n| n.id()).collect();
    let dataset = Arc::new(
        Dataset::create_with(
            DatasetConfig {
                name: "Tweets".into(),
                datatype: "Tweet".into(),
                primary_key: "id".into(),
                nodegroup,
            },
            60_000, // slow store: keep the flow controller congested
        )
        .unwrap(),
    );
    catalog.register_dataset(Arc::clone(&dataset));
    let gen = TweetGen::bind(
        TweetGenConfig::new(addr, 0, PatternDescriptor::constant(1500, 3)),
        clock.clone(),
    )
    .unwrap();
    FeedBuilder::new("TwitterFeed")
        .adaptor("chaos:TweetGenAdaptor")
        .param("datasource", addr)
        .register(&catalog)
        .unwrap();
    let conn = controller
        .connect_feed("TwitterFeed", "Tweets", policy)
        .unwrap();
    let generated = wait_pattern_done(&gen);
    assert!(
        wait_until(Duration::from_secs(90), || dataset.len() as u64
            >= generated),
        "{policy}: drained to {} of {generated}",
        dataset.len()
    );
    assert_eq!(
        controller.connection_state(conn),
        ConnectionState::Active,
        "{policy}: connection should survive the respawn"
    );
    let m = controller.connection_metrics(conn).unwrap();
    let out = PanicOutcome {
        generated,
        ids: dataset_ids(&dataset),
        hard_recoveries: m.hard_failures_recovered.get(),
        zombies_adopted: m.zombie_frames_adopted.get(),
        spilled: m.records_spilled.get(),
    };
    gen.stop();
    controller.shutdown();
    cluster.shutdown();
    out
}

#[test]
fn basic_policy_loses_nothing_across_operator_panic() {
    let out = panic_run("Basic", "chaos-panic-basic:9000");
    assert_eq!(
        out.ids,
        expected_ids(0, out.generated),
        "Basic lost records"
    );
    assert!(out.hard_recoveries >= 1, "store job was never respawned");
}

#[test]
fn spill_policy_loses_nothing_across_operator_panic_and_adopts_zombies() {
    let out = panic_run("Spill", "chaos-panic-spill:9000");
    assert_eq!(
        out.ids,
        expected_ids(0, out.generated),
        "Spill lost records"
    );
    assert!(out.hard_recoveries >= 1, "store job was never respawned");
    assert!(out.spilled > 0, "congestion never reached the spill path");
    assert!(
        out.zombies_adopted >= 1,
        "deferred work was not re-adopted after the panic"
    );
}

// ---------------------------------------------------------------------------
// adaptor disconnect: deterministic, graceful, lands at the exact record
// ---------------------------------------------------------------------------

#[test]
fn adaptor_disconnect_is_graceful_and_lands_at_exact_record() {
    let clock = SimClock::with_scale(10.0);
    let cluster = Cluster::start(
        3,
        clock.clone(),
        ClusterConfig {
            heartbeat_interval: SimDuration::from_secs(5),
            failure_threshold: SimDuration::from_secs(1_000_000),
        },
    );
    let plan = Arc::new(FaultPlan::from_events(
        7,
        vec![FaultEvent {
            at_record: 120,
            kind: FaultKind::AdaptorDisconnect,
        }],
    ));
    let catalog = FeedCatalog::new(paper_registry());
    catalog
        .adaptors()
        .register(Arc::new(ChaosAdaptorFactory::new(
            Arc::new(TweetGenAdaptorFactory),
            Arc::clone(&plan),
        )));
    let controller = FeedController::start(
        cluster.clone(),
        Arc::clone(&catalog),
        ControllerConfig::default(),
    );
    let nodegroup: Vec<NodeId> = cluster.alive_nodes().iter().map(|n| n.id()).collect();
    let dataset = Arc::new(
        Dataset::create(DatasetConfig {
            name: "Tweets".into(),
            datatype: "Tweet".into(),
            primary_key: "id".into(),
            nodegroup,
        })
        .unwrap(),
    );
    catalog.register_dataset(Arc::clone(&dataset));
    let gen = TweetGen::bind(
        TweetGenConfig::new("chaos-disc:9000", 0, PatternDescriptor::constant(300, 4)),
        clock.clone(),
    )
    .unwrap();
    FeedBuilder::new("TwitterFeed")
        .adaptor("chaos:TweetGenAdaptor")
        .param("datasource", "chaos-disc:9000")
        .register(&catalog)
        .unwrap();
    let conn = controller
        .connect_feed("TwitterFeed", "Tweets", "Basic")
        .unwrap();
    wait_pattern_done(&gen);
    let drained = wait_drained(&dataset);
    // the source was severed after exactly 120 emitted records, and the
    // hang-up is graceful: everything emitted persists, nothing more
    assert_eq!(drained, 120, "disconnect did not land at the exact record");
    assert_eq!(plan.records_seen(), 120);
    assert_eq!(dataset_ids(&dataset), expected_ids(0, 120));
    assert_eq!(
        controller.connection_state(conn),
        ConnectionState::Active,
        "a dry source is not a failure (feeds are conceptually unbounded)"
    );
    gen.stop();
    controller.shutdown();
    cluster.shutdown();
}

// ---------------------------------------------------------------------------
// Discard vs Throttle drop patterns under identical chaos (Figs 7.9/7.10)
// ---------------------------------------------------------------------------

#[test]
fn discard_gaps_contiguous_vs_throttle_under_identical_chaos() {
    // run the same overload + scheduled source hang-up through Discard and
    // Throttle; both see exactly the same 3000 records, so the persisted-id
    // patterns are directly comparable
    fn run(policy: &str, addr: &str) -> Vec<bool> {
        const CUTOFF: u64 = 3_000;
        let clock = SimClock::with_scale(10.0);
        let cluster = Cluster::start(
            1,
            clock.clone(),
            ClusterConfig {
                heartbeat_interval: SimDuration::from_secs(5),
                failure_threshold: SimDuration::from_secs(1_000_000),
            },
        );
        let plan = Arc::new(FaultPlan::from_events(
            9,
            vec![FaultEvent {
                at_record: CUTOFF,
                kind: FaultKind::AdaptorDisconnect,
            }],
        ));
        let catalog = FeedCatalog::new(paper_registry());
        catalog
            .adaptors()
            .register(Arc::new(ChaosAdaptorFactory::new(
                Arc::new(TweetGenAdaptorFactory),
                Arc::clone(&plan),
            )));
        let controller = FeedController::start(
            cluster.clone(),
            Arc::clone(&catalog),
            ControllerConfig {
                flow_capacity: 1,
                compute_parallelism: Some(1),
                compute_extra_spin: 60_000,
                ..ControllerConfig::default()
            },
        );
        let nodegroup: Vec<NodeId> = cluster.alive_nodes().iter().map(|n| n.id()).collect();
        let dataset = Arc::new(
            Dataset::create(DatasetConfig {
                name: "Tweets".into(),
                datatype: "Tweet".into(),
                primary_key: "id".into(),
                nodegroup,
            })
            .unwrap(),
        );
        catalog.register_dataset(Arc::clone(&dataset));
        catalog.create_function(Udf::add_hash_tags()).unwrap();
        let gen = TweetGen::bind(
            TweetGenConfig::new(addr, 0, PatternDescriptor::constant(1500, 5)),
            clock.clone(),
        )
        .unwrap();
        FeedBuilder::new("TwitterFeed")
            .adaptor("chaos:TweetGenAdaptor")
            .param("datasource", addr)
            .register(&catalog)
            .unwrap();
        FeedBuilder::new("P")
            .parent("TwitterFeed")
            .udf("addHashTags")
            .register(&catalog)
            .unwrap();
        controller.connect_feed("P", "Tweets", policy).unwrap();
        wait_pattern_done(&gen);
        wait_drained(&dataset);
        let mut present = vec![false; CUTOFF as usize];
        for id in dataset_ids(&dataset) {
            if let Some(seq) = id.strip_prefix("0-").and_then(|s| s.parse::<usize>().ok()) {
                if seq < present.len() {
                    present[seq] = true;
                }
            }
        }
        gen.stop();
        controller.shutdown();
        cluster.shutdown();
        present
    }

    fn longest_gap(present: &[bool]) -> usize {
        let mut longest = 0;
        let mut current = 0;
        for &p in present {
            if p {
                longest = longest.max(current);
                current = 0;
            } else {
                current += 1;
            }
        }
        longest.max(current)
    }

    let discard = run("Discard", "chaos-discard:9000");
    let throttle = run("Throttle", "chaos-throttle:9000");
    let d_kept = discard.iter().filter(|&&b| b).count();
    let t_kept = throttle.iter().filter(|&&b| b).count();
    assert!(d_kept > 0 && d_kept < discard.len(), "discard shed load");
    assert!(t_kept > 0 && t_kept < throttle.len(), "throttle shed load");
    let d_gap = longest_gap(&discard);
    let t_gap = longest_gap(&throttle);
    assert!(
        d_gap > t_gap,
        "discard gap {d_gap} should exceed throttle gap {t_gap}"
    );
}

// ---------------------------------------------------------------------------
// elastic scale-in under chaos: a node dies mid-repartition and the
// settle-and-migrate protocol plus at-least-once replay still converge to
// the exact generated record-id set
// ---------------------------------------------------------------------------

/// One scale-in chaos round: a 4-node FaultTolerant connection with a
/// compute stage scales out to three partitions under flow, then scales
/// back in right before a scheduled kill of an unprotected node, so the
/// kill lands while the removed partitions' state is being settled and
/// migrated. The revived node rejoins before the pattern ends. Whatever
/// interleaving the seed produces, the dataset must converge to every
/// generated id (at-least-once, no gaps).
fn scale_in_soak_once(seed: u64, addr: &str, kill_at: u64) -> SoakOutcome {
    let clock = SimClock::with_scale(100.0); // 100 real ms per sim-second
    let cluster = Cluster::start(
        4,
        clock.clone(),
        ClusterConfig {
            heartbeat_interval: SimDuration::from_millis(250),
            failure_threshold: SimDuration::from_millis(1500),
        },
    );
    // node 0 is protected (it hosts the collect job); the victim is the
    // last node, which carries compute/store partitions after scale-out
    let victim = NodeId(3);
    let plan = Arc::new(FaultPlan::from_events(
        seed,
        vec![
            FaultEvent {
                at_record: kill_at,
                kind: FaultKind::KillNode(victim),
            },
            FaultEvent {
                at_record: kill_at + 600,
                kind: FaultKind::ReviveNode(victim),
            },
        ],
    ));
    let schedule = plan.describe();
    cluster.arm_fault_plan(Arc::clone(&plan));

    let catalog = FeedCatalog::new(paper_registry());
    catalog
        .adaptors()
        .register(Arc::new(ChaosAdaptorFactory::new(
            Arc::new(TweetGenAdaptorFactory),
            Arc::clone(&plan),
        )));
    let controller = FeedController::start(
        cluster.clone(),
        Arc::clone(&catalog),
        ControllerConfig {
            compute_parallelism: Some(1),
            fault_plan: Some(Arc::clone(&plan)),
            ..ControllerConfig::default()
        },
    );
    let nodegroup: Vec<NodeId> = cluster.alive_nodes().iter().map(|n| n.id()).collect();
    let dataset = Arc::new(
        Dataset::create(DatasetConfig {
            name: "Tweets".into(),
            datatype: "Tweet".into(),
            primary_key: "id".into(),
            nodegroup,
        })
        .unwrap(),
    );
    catalog.register_dataset(Arc::clone(&dataset));
    catalog.create_function(Udf::add_hash_tags()).unwrap();
    // long enough that the revive (600 records after the kill) fires at
    // least 200 records before the pattern ends, for every kill point
    let secs = 10.max((kill_at + 600) / 200 + 2);
    let gen = TweetGen::bind(
        TweetGenConfig::new(addr, 0, PatternDescriptor::constant(200, secs)),
        clock.clone(),
    )
    .unwrap();
    FeedBuilder::new("TwitterFeed")
        .adaptor("chaos:TweetGenAdaptor")
        .param("datasource", addr)
        .register(&catalog)
        .unwrap();
    FeedBuilder::new("ProcessedTwitterFeed")
        .parent("TwitterFeed")
        .udf("addHashTags")
        .register(&catalog)
        .unwrap();
    let conn = controller
        .connect_feed("ProcessedTwitterFeed", "Tweets", "FaultTolerant")
        .unwrap();
    let joint = "TwitterFeed:addHashTags";

    // scale out early, while the stream is flowing
    assert!(
        wait_until(Duration::from_secs(30), || dataset.len() > 50),
        "seed {seed:#x}: pipeline never started flowing"
    );
    assert_eq!(controller.scale_compute(joint, 2).unwrap(), 3);
    // hold the scale-in until just before the kill becomes due, so the
    // repartitioning and the node death overlap
    assert!(
        wait_until(Duration::from_secs(30), || {
            plan.records_seen() + 150 >= kill_at
        }),
        "seed {seed:#x}: stream stalled before the kill point"
    );
    assert_eq!(controller.scale_compute(joint, -2).unwrap(), 1);

    let generated = wait_pattern_done(&gen);
    assert!(
        wait_until(Duration::from_secs(60), || dataset.len() as u64
            >= generated),
        "seed {seed:#x}: recovered to {} of {generated} records; schedule:\n{schedule}",
        dataset.len()
    );
    assert_eq!(
        plan.unfired_count(),
        0,
        "seed {seed:#x}: schedule did not fully fire:\n{schedule}"
    );
    assert!(
        wait_until(Duration::from_secs(10), || {
            controller.connection_state(conn) == ConnectionState::Active
        }),
        "seed {seed:#x}: connection never returned to Active"
    );
    assert_eq!(
        controller.compute_parallelism_of(joint),
        Some(1),
        "seed {seed:#x}: scale-in did not stick across the kill"
    );
    let m = controller.connection_metrics(conn).unwrap();
    let out = SoakOutcome {
        schedule,
        generated,
        ids: dataset_ids(&dataset),
        hard_recoveries: m.hard_failures_recovered.get(),
        last_recovery_millis: m.last_recovery_millis.get(),
    };
    gen.stop();
    controller.shutdown();
    cluster.shutdown();
    out
}

#[test]
fn scale_in_soak_survives_node_kill_mid_repartition() {
    for i in 0..soak_iters() {
        let seed = 0x5CA1_E000_0000_0000 | i;
        // slide the kill across the scale-in window so successive
        // iterations exercise different interleavings of the settle-and-
        // migrate protocol and the node death
        let kill_at = 1_000 + i * 150;
        let out = scale_in_soak_once(seed, &format!("chaos-scalein-{i}:9000"), kill_at);
        assert_eq!(
            out.ids,
            expected_ids(0, out.generated),
            "seed {seed:#x}: record-id set diverged; schedule:\n{}",
            out.schedule
        );
        assert!(
            out.hard_recoveries >= 1,
            "seed {seed:#x}: no hard failure was recorded as recovered"
        );
        assert!(out.last_recovery_millis > 0);
    }
}

// ---------------------------------------------------------------------------
// torn WAL tail: recovery is all-or-nothing
// ---------------------------------------------------------------------------

#[test]
fn torn_wal_tail_recovers_all_or_nothing() {
    let part = DatasetPartition::new(PartitionConfig::keyed_on("id"));
    for i in 0..40 {
        part.insert(&AdmValue::record(vec![
            ("id", format!("r{i:02}").as_str().into()),
            ("message_text", "payload".into()),
        ]))
        .unwrap();
    }
    // the tear becomes due at record 10 of a notional stream; before the
    // counter reaches it, applying the plan is a no-op
    let plan = FaultPlan::from_events(
        11,
        vec![FaultEvent {
            at_record: 10,
            kind: FaultKind::TearWalTail { bytes: 8 },
        }],
    );
    assert_eq!(part.apply_fault_plan(&plan), 0, "not due yet");
    plan.tick_records(10);
    assert_eq!(part.apply_fault_plan(&plan), 1, "tear applies once");
    assert_eq!(part.apply_fault_plan(&plan), 0, "and only once");
    part.recover().unwrap();
    // the torn trailing block is dropped whole; every survivor is intact
    assert_eq!(part.len(), 39, "exactly the torn record is gone");
    for i in 0..39 {
        let got = part.get(&format!("r{i:02}").as_str().into()).unwrap();
        assert_eq!(
            got.field("message_text").unwrap(),
            &AdmValue::string("payload"),
            "record r{i:02} survived corrupted"
        );
    }
}

/// After a crash (torn WAL tail) and log-based recovery, sealing the
/// recovered memtable must still produce a valid schema-inferred compacted
/// component: the record-id set scanned out of the sealed image matches the
/// recovered survivors exactly, and the vectorized field-scan path over the
/// compacted columns agrees with full-record reads.
#[test]
fn recovery_after_torn_tail_seals_into_valid_compacted_component() {
    let part = DatasetPartition::new(PartitionConfig::keyed_on("id"));
    for i in 0..60 {
        part.insert(&AdmValue::record(vec![
            ("id", format!("r{i:02}").as_str().into()),
            ("message_text", format!("payload {i}").as_str().into()),
            ("score", AdmValue::Int(i)),
        ]))
        .unwrap();
    }
    // crash mid-append, then restart recovery from the log
    part.corrupt_wal_tail(5);
    part.recover().unwrap();
    let survivors: std::collections::BTreeSet<String> = part
        .scan_all()
        .into_iter()
        .map(|(k, _)| k.as_str().unwrap().to_string())
        .collect();
    assert!(
        !survivors.is_empty() && survivors.len() < 60,
        "the tear must drop some tail but not everything"
    );
    // seal + merge the recovered memtable into one component
    part.force_merge();
    assert_eq!(part.component_count(), 1);
    assert!(
        part.schema_inferred_components() >= 1,
        "the uniform recovered records must compact, not fall back"
    );
    assert!(part.storage_bytes() > 0);
    let sealed: std::collections::BTreeSet<String> = part
        .scan_all()
        .into_iter()
        .map(|(k, _)| k.as_str().unwrap().to_string())
        .collect();
    assert_eq!(sealed, survivors, "sealing changed the record-id set");
    // the compacted columns answer field scans identically to full reads
    for (key, field_val) in part.scan_field("message_text") {
        let full = part.get(&key).unwrap();
        assert_eq!(full.field("message_text"), field_val.as_ref());
        assert_eq!(part.get_field(&key, "score"), full.field("score").cloned());
    }
}
