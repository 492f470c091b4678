//! Property tests over the feed machinery's core invariants:
//!
//! * **Record conservation** — under any policy and congestion pattern,
//!   every offered record is accounted for: delivered + discarded +
//!   throttled (+ still deferred) = offered;
//! * **Guaranteed delivery** — a feed joint delivers every deposited frame
//!   to every subscriber that stays subscribed, in order, under arbitrary
//!   interleavings of subscribe/unsubscribe;
//! * **Policy algebra** — custom-policy derivation never loses or invents
//!   parameter state.

use asterix_common::sync::Mutex;
use asterix_common::{DataFrame, FeedId, Record, RecordId, SimClock, SimDuration};
use asterix_feeds::flow::FlowController;
use asterix_feeds::joint::{FeedJoint, JointRecv};
use asterix_feeds::metrics::FeedMetrics;
use asterix_feeds::policy::IngestionPolicy;
use asterix_hyracks::operator::FrameWriter;
use proptest::prelude::*;
use std::sync::Arc;

fn frame(start: u64, len: usize) -> DataFrame {
    DataFrame::from_records(
        (0..len as u64)
            .map(|i| Record::tracked(RecordId(start + i), 0, "payload"))
            .collect(),
    )
}

/// A sink whose acceptance is scripted: it takes `budget` frames, then
/// reports saturation until the budget is raised.
#[derive(Clone)]
struct ScriptedSink {
    accepted: Arc<Mutex<Vec<DataFrame>>>,
    budget: Arc<Mutex<i64>>,
}

impl ScriptedSink {
    fn new() -> Self {
        ScriptedSink {
            accepted: Arc::new(Mutex::new(Vec::new())),
            budget: Arc::new(Mutex::new(0)),
        }
    }
    fn add_budget(&self, n: i64) {
        *self.budget.lock() += n;
    }
    fn records(&self) -> u64 {
        self.accepted.lock().iter().map(|f| f.len() as u64).sum()
    }
}

impl FrameWriter for ScriptedSink {
    fn open(&mut self) -> asterix_common::IngestResult<()> {
        Ok(())
    }
    fn next_frame(&mut self, f: DataFrame) -> asterix_common::IngestResult<()> {
        {
            let mut b = self.budget.lock();
            assert!(*b > 0, "frame forwarded into a saturated sink");
            *b -= 1;
        }
        self.accepted.lock().push(f);
        Ok(())
    }
    fn close(&mut self) -> asterix_common::IngestResult<()> {
        Ok(())
    }
    fn fail(&mut self) {}
    fn is_saturated(&self) -> bool {
        *self.budget.lock() <= 0
    }
}

#[derive(Debug, Clone)]
enum Step {
    Offer(u8),  // offer a frame of 1..=32 records
    Budget(u8), // let the sink accept up to n more frames
    Drain,      // opportunistic drain of deferred work
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        3 => (1u8..32).prop_map(Step::Offer),
        2 => (1u8..8).prop_map(Step::Budget),
        1 => Just(Step::Drain),
    ]
}

fn policy_strategy() -> impl Strategy<Value = IngestionPolicy> {
    prop_oneof![
        Just(IngestionPolicy::basic()),
        Just(IngestionPolicy::spill()),
        Just(IngestionPolicy::discard()),
        Just(IngestionPolicy::throttle()),
        Just(IngestionPolicy::elastic()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// offered = delivered + discarded + throttled (+ deferred recovered at
    /// finish).
    #[test]
    fn flow_controller_conserves_records(
        policy in policy_strategy(),
        steps in prop::collection::vec(step_strategy(), 1..60),
    ) {
        let sink = ScriptedSink::new();
        let metrics = FeedMetrics::with_default_bucket(SimClock::fast());
        let mut fc = FlowController::new(
            policy,
            Arc::clone(&metrics),
            Box::new(sink.clone()),
            FeedId(1),
            "prop",
            None,
        );
        let mut offered = 0u64;
        let mut next_id = 0u64;
        for step in steps {
            match step {
                Step::Offer(n) => {
                    let f = frame(next_id, n as usize);
                    next_id += n as u64;
                    offered += n as u64;
                    match fc.offer(f) {
                        Ok(()) => {}
                        Err(asterix_common::IngestError::FeedTerminated { .. }) => {
                            // Basic with a blown budget: conservation still
                            // holds for everything before the termination
                            let deferred: u64 =
                                fc.take_deferred().iter().map(|f| f.len() as u64).sum();
                            // the terminating frame was not admitted
                            offered -= n as u64;
                            // nothing sits between the controller and the
                            // sink: what was forwarded has been delivered
                            let delivered = sink.records();
                            let discarded =
                                metrics.records_discarded.get();
                            let throttled = metrics.records_throttled.get();
                            prop_assert!(
                                delivered + discarded + throttled + deferred <= offered,
                                "no duplication: {delivered}+{discarded}+{throttled}+{deferred} vs {offered}"
                            );
                            return Ok(());
                        }
                        Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
                    }
                }
                Step::Budget(n) => {
                    sink.add_budget(n as i64);
                }
                Step::Drain => {
                    let _ = fc.drain_deferred();
                }
            }
        }
        // open the gate fully and finish: everything deferred flows
        sink.add_budget(1_000_000);
        prop_assert!(fc.finish().unwrap(), "an unsaturated sink drains at once");
        let delivered = sink.records();
        let discarded = metrics.records_discarded.get();
        let throttled = metrics.records_throttled.get();
        prop_assert_eq!(
            delivered + discarded + throttled,
            offered,
            "delivered {} + discarded {} + throttled {} != offered {}",
            delivered,
            discarded,
            throttled,
            offered
        );
    }

    /// Every subscriber of a joint receives exactly the frames deposited
    /// while it was subscribed, in deposit order.
    #[test]
    fn joint_guarantees_ordered_delivery(
        ops in prop::collection::vec(0u8..4, 1..80),
    ) {
        let joint = FeedJoint::new("prop");
        let clock = SimClock::realtime();
        let mut subs: Vec<(u64, asterix_feeds::joint::JointSubscription, Vec<u64>)> =
            Vec::new();
        let mut next_sub = 0u64;
        let mut next_frame_id = 0u64;
        for op in ops {
            match op {
                // subscribe
                0 => {
                    let key = format!("s{next_sub}");
                    subs.push((next_sub, joint.subscribe(key), Vec::new()));
                    next_sub += 1;
                }
                // unsubscribe the oldest
                1 => {
                    if !subs.is_empty() {
                        let (_, sub, expected) = subs.remove(0);
                        // before leaving, verify what it saw
                        let mut got = Vec::new();
                        while let JointRecv::Frame(f) =
                            sub.recv(&clock, SimDuration::from_millis(20))
                        {
                            got.push(f.records()[0].id.raw());
                        }
                        prop_assert_eq!(got, expected);
                        sub.unsubscribe();
                    }
                }
                // deposit a frame
                _ => {
                    let f = frame(next_frame_id, 1);
                    joint.deposit(f).unwrap();
                    for (_, _, expected) in subs.iter_mut() {
                        expected.push(next_frame_id);
                    }
                    next_frame_id += 1;
                }
            }
        }
        // verify the survivors
        for (_, sub, expected) in subs {
            let mut got = Vec::new();
            while let JointRecv::Frame(f) = sub.recv(&clock, SimDuration::from_millis(20)) {
                got.push(f.records()[0].id.raw());
            }
            prop_assert_eq!(got, expected);
        }
    }

    /// Policy extension is lossless: parameters not overridden keep the
    /// base's values; overridden ones take effect; round-tripping a
    /// parameter through set_param is idempotent.
    #[test]
    fn policy_extension_is_sound(
        spill in any::<bool>(),
        discard in any::<bool>(),
        throttle in any::<bool>(),
        elastic in any::<bool>(),
        budget_kb in 1usize..4096,
        fraction in 1u32..100,
    ) {
        let mut params = std::collections::BTreeMap::new();
        params.insert("excess.records.spill".into(), spill.to_string());
        params.insert("excess.records.discard".into(), discard.to_string());
        params.insert("excess.records.throttle".into(), throttle.to_string());
        params.insert("excess.records.elastic".into(), elastic.to_string());
        params.insert("memory.budget.bytes".into(), format!("{budget_kb}KB"));
        params.insert(
            "throttle.keep.fraction".into(),
            format!("{}", fraction as f64 / 100.0),
        );
        let p = IngestionPolicy::basic().extend("Custom", &params).unwrap();
        prop_assert_eq!(p.excess_records_spill, spill);
        prop_assert_eq!(p.excess_records_discard, discard);
        prop_assert_eq!(p.excess_records_throttle, throttle);
        prop_assert_eq!(p.excess_records_elastic, elastic);
        prop_assert_eq!(p.memory_budget_bytes, budget_kb * 1024);
        // untouched parameters keep their Basic defaults
        prop_assert!(p.recover_soft_failure);
        prop_assert!(p.recover_hard_failure);
        prop_assert!(!p.at_least_once);
        // deriving again with no overrides is the identity (modulo name)
        let q = p.extend("Copy", &std::collections::BTreeMap::new()).unwrap();
        prop_assert_eq!(q.primary_excess_strategy(), p.primary_excess_strategy());
        prop_assert_eq!(q.memory_budget_bytes, p.memory_budget_bytes);
    }
}

/// Throttle conservation, deterministic: delivered + throttled = offered.
#[test]
fn throttle_conserves_records() {
    let sink = ScriptedSink::new();
    let metrics = FeedMetrics::with_default_bucket(SimClock::fast());
    let mut fc = FlowController::new(
        IngestionPolicy::throttle(),
        Arc::clone(&metrics),
        Box::new(sink.clone()),
        FeedId(1),
        "throttle-prop",
        None,
    );
    let mut offered = 0u64;
    for i in 0..200u64 {
        // the consumer takes one frame per two offered: the rest is excess
        if i % 2 == 0 {
            sink.add_budget(1);
        }
        let f = frame(i * 16, 16);
        offered += 16;
        fc.offer(f).unwrap();
    }
    sink.add_budget(1_000_000);
    assert!(fc.finish().unwrap());
    let delivered = sink.records();
    let throttled = metrics.records_throttled.get();
    assert!(
        throttled > 0,
        "a consumer at half the offered rate throttles"
    );
    assert_eq!(delivered + throttled, offered);
}
