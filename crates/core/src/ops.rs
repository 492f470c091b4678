//! The feed pipeline operators.
//!
//! * [`CollectDesc`] — *FeedCollect* (§5.3.1): hosts a feed adaptor
//!   instance, manages its lifecycle, and deposits collected frames into
//!   the feed joint registered at its output. Adaptor creation is deferred
//!   "until there is a request for the operator's output data".
//! * [`IntakeDesc`] — *FeedIntake*: co-located with a joint, subscribes
//!   through the local Feed Manager's search API, and forwards frames
//!   downstream through the policy-governed [`FlowController`]. It is a
//!   cooperative source: each scheduler slice pulls a bounded batch off the
//!   joint and applies the policy inline, so the intake holds no thread of
//!   its own. Hosts the at-least-once tracker when the policy demands it.
//! * [`AssignDesc`] — *Assign* (the compute stage): applies the
//!   pre-processing UDF to every record and deposits results into the
//!   feed's output joint.
//! * [`StoreDesc`] — the store stage (*IndexInsert*): co-located with a
//!   partition of the target dataset; validates, upserts (WAL first),
//!   meters, and acks.
//!
//! Every unary operator is wrapped in [`MetaFeed`] (§6.1): the sandbox that
//! catches record-level runtime exceptions, logs them, skips the offending
//! record (the frame-slicing recovery of §6.1.1) and terminates the feed
//! only after too many consecutive failures.

use crate::ack::{AckBatch, AckSender, AckTracker};
use crate::adaptor::{AdaptorConfig, AdaptorFactory};
use crate::flow::{ElasticRequest, FlowController};
use crate::joint::{FeedJoint, JointRecv, JointSubscription};
use crate::manager::FeedManager;
use crate::metrics::FeedMetrics;
use crate::policy::IngestionPolicy;
use crate::udf::Udf;
use asterix_adm::{payload_from_value, AdmPayloadExt, AdmType, TypeRegistry};
use asterix_common::sync::{thread as sync_thread, Mutex};
use asterix_common::{
    Counter, DataFrame, FaultKind, FaultPlan, FeedId, FrameBuilder, IngestError, IngestResult,
    NodeId, Record, SimDuration, SimInstant,
};
use asterix_hyracks::executor::{SourceHost, TaskContext, UnaryHost};
use asterix_hyracks::job::{Constraint, OperatorDescriptor};
use asterix_hyracks::operator::{
    FrameWriter, OperatorRuntime, SourceOperator, SourcePoll, StopToken, UnaryOperator,
};
use asterix_storage::Dataset;
use crossbeam_channel::{Receiver, Sender};
use std::sync::Arc;

/// One logged soft failure (§6.1.2).
#[derive(Debug, Clone, PartialEq)]
pub struct SoftFailureEntry {
    /// When it happened.
    pub at: SimInstant,
    /// Which operator caught it.
    pub operator: String,
    /// The exception message.
    pub message: String,
    /// The offending record's payload, if identifiable.
    pub payload: Option<String>,
}

/// The in-memory error log ("appended to the standard AsterixDB error log
/// file").
pub type SoftFailureLog = Arc<Mutex<Vec<SoftFailureEntry>>>;

/// Empty log.
pub fn new_soft_failure_log() -> SoftFailureLog {
    Arc::new(Mutex::new(Vec::new()))
}

// ---------------------------------------------------------------------------
// Sandbox + MetaFeed
// ---------------------------------------------------------------------------

/// The record-level failure sandbox (§6.1), factored out of [`MetaFeed`] so
/// frame-granular operators (the batch store path) share the exact same
/// semantics: log the exception, skip the offending record, and terminate
/// the feed only after too many *consecutive* failures.
pub struct Sandbox {
    name: String,
    policy: IngestionPolicy,
    metrics: Arc<FeedMetrics>,
    log: SoftFailureLog,
    log_dataset: Option<Arc<Dataset>>,
    clock: asterix_common::SimClock,
    consecutive_failures: usize,
}

impl Sandbox {
    /// A sandbox reporting as operator `name`.
    pub fn new(
        name: impl Into<String>,
        policy: IngestionPolicy,
        metrics: Arc<FeedMetrics>,
        log: SoftFailureLog,
        log_dataset: Option<Arc<Dataset>>,
        clock: asterix_common::SimClock,
    ) -> Self {
        Sandbox {
            name: name.into(),
            policy,
            metrics,
            log,
            log_dataset,
            clock,
            consecutive_failures: 0,
        }
    }

    /// Does the policy allow skipping this error?
    pub fn recoverable(&self, err: &IngestError) -> bool {
        err.is_soft() && self.policy.recover_soft_failure
    }

    /// A record made it through: the consecutive-failure streak is broken.
    pub fn record_ok(&mut self) {
        self.consecutive_failures = 0;
    }

    /// A record failed softly: log it and skip it (the frame-slicing
    /// recovery of §6.1.1), or terminate the feed if the streak is too long.
    pub fn record_soft(&mut self, err: &IngestError, record: &Record) -> IngestResult<()> {
        self.log_soft(err, record);
        self.consecutive_failures += 1;
        if self.consecutive_failures > self.policy.max_consecutive_soft_failures {
            return Err(IngestError::FeedTerminated {
                feed: asterix_common::FeedId(0),
                reason: format!(
                    "{}: {} consecutive soft failures",
                    self.name, self.consecutive_failures
                ),
            });
        }
        Ok(())
    }

    fn log_soft(&mut self, err: &IngestError, record: &Record) {
        self.metrics.soft_failures.add(1);
        let entry = SoftFailureEntry {
            at: self.clock.now(),
            operator: self.name.clone(),
            message: err.to_string(),
            payload: record.payload_str().map(str::to_string),
        };
        // at minimum, append to the error log
        self.log.lock().push(entry.clone());
        // optionally persist to a dedicated dataset
        if self.policy.log_soft_failures_to_dataset {
            if let Some(ds) = &self.log_dataset {
                let rec = asterix_adm::AdmValue::record(vec![
                    (
                        "id",
                        format!(
                            "sf-{}-{}",
                            self.name,
                            self.metrics.get(&self.metrics.soft_failures)
                        )
                        .into(),
                    ),
                    ("at_millis", asterix_adm::AdmValue::Int(entry.at.0 as i64)),
                    ("operator", entry.operator.clone().into()),
                    ("message", entry.message.clone().into()),
                    (
                        "payload",
                        entry
                            .payload
                            .clone()
                            .map(asterix_adm::AdmValue::String)
                            .unwrap_or(asterix_adm::AdmValue::Null),
                    ),
                ]);
                let _ = ds.upsert(&rec);
            }
        }
    }
}

/// The sandbox wrapper (§6.1). Drives a per-record processing function,
/// surviving soft failures by skipping the offending record — the runtime
/// equivalent of slicing the input frame around it.
pub struct MetaFeed<F>
where
    F: FnMut(&Record) -> IngestResult<Option<Record>> + Send,
{
    sandbox: Sandbox,
    process: F,
    on_close: Option<Box<dyn FnMut() + Send>>,
}

impl<F> MetaFeed<F>
where
    F: FnMut(&Record) -> IngestResult<Option<Record>> + Send,
{
    /// Wrap `process` in the sandbox.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<String>,
        policy: IngestionPolicy,
        metrics: Arc<FeedMetrics>,
        log: SoftFailureLog,
        log_dataset: Option<Arc<Dataset>>,
        clock: asterix_common::SimClock,
        process: F,
        on_close: Option<Box<dyn FnMut() + Send>>,
    ) -> Self {
        MetaFeed {
            sandbox: Sandbox::new(name, policy, metrics, log, log_dataset, clock),
            process,
            on_close,
        }
    }
}

impl<F> UnaryOperator for MetaFeed<F>
where
    F: FnMut(&Record) -> IngestResult<Option<Record>> + Send,
{
    fn next_frame(&mut self, frame: DataFrame, output: &mut dyn FrameWriter) -> IngestResult<()> {
        let mut out = Vec::new();
        for record in frame.records() {
            match (self.process)(record) {
                Ok(Some(r)) => {
                    self.sandbox.record_ok();
                    out.push(r);
                }
                Ok(None) => {
                    self.sandbox.record_ok();
                }
                Err(e) if self.sandbox.recoverable(&e) => {
                    // sandbox: skip past the exception-generating record
                    self.sandbox.record_soft(&e, record)?;
                }
                Err(e) => return Err(e),
            }
        }
        if !out.is_empty() {
            output.next_frame(DataFrame::from_records(out))?;
        }
        Ok(())
    }

    fn close(&mut self, _output: &mut dyn FrameWriter) -> IngestResult<()> {
        if let Some(f) = &mut self.on_close {
            f();
        }
        Ok(())
    }

    fn fail(&mut self) {
        if let Some(f) = &mut self.on_close {
            f();
        }
    }
}

// ---------------------------------------------------------------------------
// FeedCollect
// ---------------------------------------------------------------------------

/// Descriptor for the FeedCollect operator.
pub struct CollectDesc {
    /// The joint id records are published under (the feed's name).
    pub joint_id: String,
    /// Adaptor factory.
    pub factory: Arc<dyn AdaptorFactory>,
    /// Adaptor configuration.
    pub config: AdaptorConfig,
    /// Pinned locations (the controller resolves Count constraints up front
    /// so that failure recovery can substitute individual nodes).
    pub locations: Vec<NodeId>,
    /// Registered `parse.malformed_lines` counter the adaptor instances
    /// count skipped unparseable input into.
    pub malformed_lines: Counter,
}

impl OperatorDescriptor for CollectDesc {
    fn name(&self) -> String {
        format!("FeedCollect({})", self.joint_id)
    }

    fn constraints(&self) -> Constraint {
        Constraint::Locations(self.locations.clone())
    }

    fn instantiate(
        &self,
        ctx: &TaskContext,
        output: Box<dyn FrameWriter>,
    ) -> IngestResult<OperatorRuntime> {
        let fm = FeedManager::on(&ctx.node);
        let joint = fm.register_joint(&self.joint_id);
        let adaptor = self.factory.create(
            &self.config,
            ctx.partition,
            &ctx.clock,
            &self.malformed_lines,
        )?;
        let source = CollectSource {
            adaptor: Some(adaptor),
            joint,
            node: ctx.node.clone(),
        };
        Ok(OperatorRuntime::Source(Box::new(SourceHost::new(
            Box::new(source),
            output,
        ))))
    }
}

struct CollectSource {
    adaptor: Option<Box<dyn crate::adaptor::FeedAdaptor>>,
    joint: Arc<FeedJoint>,
    node: asterix_hyracks::cluster::NodeHandle,
}

impl SourceOperator for CollectSource {
    fn run(&mut self, _output: &mut dyn FrameWriter, stop: &StopToken) -> IngestResult<()> {
        // defer adaptor use until the output is requested
        while !self.joint.has_subscribers() {
            if stop.is_stopped() || !self.node.is_alive() {
                return Ok(());
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let mut adaptor = self.adaptor.take().expect("collect runs once");
        let joint = Arc::clone(&self.joint);
        // the builder is shared with a flusher thread so partial frames
        // reach the joint even when the source goes quiet (low-rate feeds)
        let builder = Arc::new(Mutex::new(FrameBuilder::default()));
        let flusher_builder = Arc::clone(&builder);
        let flusher_joint = Arc::clone(&joint);
        let flusher_stop = StopToken::new();
        let flusher_stop2 = flusher_stop.clone();
        let flusher = sync_thread::spawn_named("collect-flusher", move || {
            while !flusher_stop2.is_stopped() {
                std::thread::sleep(std::time::Duration::from_millis(20));
                let partial = flusher_builder.lock().flush();
                if let Some(f) = partial {
                    if flusher_joint.deposit(f).is_err() {
                        return;
                    }
                }
            }
        })
        .map_err(|e| IngestError::Plan(format!("spawn flusher: {e}")))?;
        let emit_builder = Arc::clone(&builder);
        let emit_joint = Arc::clone(&joint);
        let mut emit = |rec: Record| -> IngestResult<()> {
            let full = emit_builder.lock().push(rec);
            if let Some(full) = full {
                emit_joint.deposit(full)?;
            }
            Ok(())
        };
        let result = adaptor.run(&mut emit, stop);
        flusher_stop.stop();
        let _ = flusher.join();
        let rest = builder.lock().flush();
        if let Some(rest) = rest {
            let _ = self.joint.deposit(rest);
        }
        result
    }
}

// ---------------------------------------------------------------------------
// FeedIntake
// ---------------------------------------------------------------------------

/// At-least-once plumbing for an intake partition.
pub struct AckPlumbing {
    /// Per-intake-partition ack receivers.
    pub rxs: Vec<Receiver<AckBatch>>,
    /// Replay timeout.
    pub timeout: SimDuration,
}

/// Descriptor for the FeedIntake operator.
pub struct IntakeDesc {
    /// Joint to subscribe to.
    pub joint_id: String,
    /// Stable subscription key prefix (per-partition keys derive from it).
    pub sub_key: String,
    /// Pinned locations — must coincide with the joint's host nodes.
    pub locations: Vec<NodeId>,
    /// The connection's ingestion policy.
    pub policy: IngestionPolicy,
    /// Shared connection metrics.
    pub metrics: Arc<FeedMetrics>,
    /// Elastic scale-out signal channel.
    pub elastic_tx: Option<Sender<ElasticRequest>>,
    /// At-least-once plumbing, when the policy enables it.
    pub ack: Option<Arc<AckPlumbing>>,
    /// Connection key (for elastic requests and zombie state).
    pub connection_key: String,
    /// The owning feed's catalog id (error attribution).
    pub feed: FeedId,
    /// Chaos schedule; due operator-panic events make this intake die hard
    /// (§6.2.3 runtime-exception injection).
    pub fault_plan: Option<Arc<FaultPlan>>,
}

impl OperatorDescriptor for IntakeDesc {
    fn name(&self) -> String {
        format!("FeedIntake({})", self.joint_id)
    }

    fn constraints(&self) -> Constraint {
        Constraint::Locations(self.locations.clone())
    }

    fn instantiate(
        &self,
        ctx: &TaskContext,
        mut output: Box<dyn FrameWriter>,
    ) -> IngestResult<OperatorRuntime> {
        let fm = FeedManager::on(&ctx.node);
        let sub_key = format!("{}#p{}", self.sub_key, ctx.partition);
        output.open()?;
        let mut flow = FlowController::new(
            self.policy.clone(),
            Arc::clone(&self.metrics),
            output,
            self.feed,
            self.connection_key.clone(),
            self.elastic_tx.clone(),
        );
        // adopt any zombie state parked by a previous incarnation (§6.2.2)
        let zombie = fm.take_zombie_state(&sub_key);
        if !zombie.is_empty() {
            flow.adopt_deferred(zombie)?;
        }
        let tracker = match &self.ack {
            Some(plumbing) => {
                let rx = plumbing
                    .rxs
                    .get(ctx.partition)
                    .cloned()
                    .ok_or_else(|| IngestError::Plan("missing ack receiver".into()))?;
                Some(AckTracker::new(
                    ctx.partition as u32,
                    rx,
                    plumbing.timeout,
                    ctx.clock.clone(),
                ))
            }
            None => None,
        };
        Ok(OperatorRuntime::Source(Box::new(IntakeSource {
            joint_id: self.joint_id.clone(),
            sub_key,
            node: ctx.node.clone(),
            metrics: Arc::clone(&self.metrics),
            flow: Some(flow),
            tracker,
            fault_plan: self.fault_plan.clone(),
            sub: None,
            finishing: false,
        })))
    }
}

struct IntakeSource {
    joint_id: String,
    sub_key: String,
    node: asterix_hyracks::cluster::NodeHandle,
    metrics: Arc<FeedMetrics>,
    flow: Option<FlowController>,
    tracker: Option<AckTracker>,
    fault_plan: Option<Arc<FaultPlan>>,
    /// Lazily created on the first scheduler poll.
    sub: Option<JointSubscription>,
    /// Graceful stop or joint retirement seen: only draining remains.
    finishing: bool,
}

/// Frames an intake task pulls off its joint per scheduler slice.
const INTAKE_FRAMES_PER_SLICE: usize = 8;

impl IntakeSource {
    /// End the flow without parking its deferred state (node loss, feed
    /// termination).
    fn drop_flow(&mut self) {
        if let Some(flow) = self.flow.take() {
            flow.fail();
        }
    }

    /// Graceful end: drain deferred frames and close the output, yielding
    /// the slice (`Produced`) while the output is saturated.
    fn finish_flow(&mut self) -> IngestResult<SourcePoll> {
        let flow = self.flow.as_mut().expect("flow active");
        if !flow.finish()? {
            return Ok(SourcePoll::Produced);
        }
        self.flow = None;
        Ok(SourcePoll::Done)
    }

    fn fail_with_zombie(&mut self, fm: &Arc<FeedManager>) {
        if let Some(flow) = self.flow.take() {
            let mut deferred = flow.fail();
            // The tracker's unacked records were in an output port or in
            // flight toward the store when we died — without parking them the
            // successor would never re-emit them and at-least-once would only
            // hold for records the flow controller still had by value.
            if let Some(t) = &self.tracker {
                let pending = t.drain_pending();
                if !pending.is_empty() {
                    deferred.push(DataFrame::from_records(pending));
                }
            }
            fm.save_zombie_state(&self.sub_key, deferred);
        }
    }

    /// Fire any due injected operator panic (§6.2.3): park deferred state
    /// exactly like a real runtime exception unwinding this operator, then
    /// surface a hard error so the job sees the instance die.
    fn chaos_panic_due(&self) -> bool {
        match &self.fault_plan {
            Some(plan) => !plan.take_due(FaultKind::is_operator_event).is_empty(),
            None => false,
        }
    }

    fn track_frame(&self, frame: DataFrame) -> DataFrame {
        match &self.tracker {
            Some(t) => {
                DataFrame::from_records(frame.records().iter().map(|r| t.track(r)).collect())
            }
            None => frame,
        }
    }

    /// Adopt zombie state parked *after* this instance was instantiated.
    ///
    /// Instantiate-time adoption (§6.2.2) only sees frames the predecessor
    /// had already parked. During an elastic rebuild the old job is aborted
    /// asynchronously, so it can park its deferred work after the successor
    /// started — and the repartitioning sweep re-parks migrated frames under
    /// this key once the old job has fully exited. Polling from the quiet
    /// paths closes both windows without any cross-job handshake.
    fn adopt_late_zombies(&mut self, fm: &Arc<FeedManager>) -> IngestResult<()> {
        if !fm.has_zombie_state(&self.sub_key) {
            return Ok(());
        }
        let zombie = fm.take_zombie_state(&self.sub_key);
        if zombie.is_empty() {
            return Ok(());
        }
        let flow = self.flow.as_mut().expect("flow active");
        flow.adopt_deferred(zombie)
    }

    fn handle_acks_and_replays(&mut self) -> IngestResult<()> {
        let due = match &self.tracker {
            Some(t) => {
                t.process_acks();
                t.due_replays()
            }
            None => return Ok(()),
        };
        if !due.is_empty() {
            self.metrics.records_replayed.add(due.len() as u64);
            let flow = self.flow.as_mut().expect("flow active");
            flow.offer(DataFrame::from_records(due))?;
        }
        Ok(())
    }
}

impl SourceOperator for IntakeSource {
    fn cooperative(&self) -> bool {
        true
    }

    /// One scheduler slice of intake work: pull a bounded batch of frames
    /// off the joint subscription and apply the flow controller to each. An
    /// idle intake costs a queued task, not a blocked OS thread.
    fn poll_produce(
        &mut self,
        _output: &mut dyn FrameWriter,
        stop: &StopToken,
    ) -> IngestResult<SourcePoll> {
        let fm = FeedManager::on(&self.node);
        if self.sub.is_none() && !self.finishing {
            let joint = fm.search_joint(&self.joint_id).ok_or_else(|| {
                IngestError::Plan(format!(
                    "no joint '{}' on node {}",
                    self.joint_id,
                    self.node.id()
                ))
            })?;
            self.sub = Some(joint.subscribe(self.sub_key.clone()));
        }
        if !self.node.is_alive() {
            // hard failure of this node: vanish (state on this node is
            // lost with the node)
            self.drop_flow();
            return Err(IngestError::NodeFailed(self.node.id()));
        }
        match stop.mode() {
            asterix_hyracks::operator::StopMode::Running => {}
            asterix_hyracks::operator::StopMode::Graceful => {
                // graceful disconnect: drain and leave
                if let Some(sub) = self.sub.take() {
                    sub.unsubscribe();
                }
                self.finishing = true;
            }
            asterix_hyracks::operator::StopMode::Abandon => {
                // pipeline rebuild: park deferred work and exit while
                // the subscription keeps buffering for the successor
                self.fail_with_zombie(&fm);
                return Ok(SourcePoll::Done);
            }
        }
        if self.finishing {
            return self.finish_flow();
        }
        if self.chaos_panic_due() {
            self.fail_with_zombie(&fm);
            return Err(IngestError::Disconnected(
                "chaos: injected operator panic".into(),
            ));
        }
        // adopt re-parked state on every slice, busy or quiet: under a
        // sustained load a successor intake may not see a quiet slice for
        // the lifetime of the ramp, and migrated frames must not wait for
        // the stream to dry up (the probe is one map lookup)
        if let Err(e) = self.adopt_late_zombies(&fm) {
            self.fail_with_zombie(&fm);
            return Err(e);
        }
        let mut produced = false;
        for _ in 0..INTAKE_FRAMES_PER_SLICE {
            // Throttle paces the inflow: while its kept fraction waits for
            // room the intake pulls nothing more from its joint
            let flow = self.flow.as_mut().expect("flow active");
            if flow.is_pacing() {
                match flow.drain_deferred() {
                    Ok(true) => {}
                    Ok(false) => break,
                    Err(e) => {
                        self.fail_with_zombie(&fm);
                        return Err(e);
                    }
                }
            }
            let recv = self.sub.as_ref().expect("subscribed above").try_recv();
            match recv {
                Some(JointRecv::Frame(frame)) => {
                    produced = true;
                    self.metrics.records_in.add(frame.len() as u64);
                    let frame = self.track_frame(frame);
                    let flow = self.flow.as_mut().expect("flow active");
                    match flow.offer(frame) {
                        Ok(()) => {}
                        Err(e @ IngestError::FeedTerminated { .. }) => {
                            if let Some(sub) = self.sub.take() {
                                sub.unsubscribe();
                            }
                            self.drop_flow();
                            return Err(e);
                        }
                        Err(e) => {
                            // downstream died: park state, keep the
                            // subscription buffering for the rebuild
                            self.fail_with_zombie(&fm);
                            return Err(e);
                        }
                    }
                }
                Some(JointRecv::Retired) => {
                    self.finishing = true;
                    return self.finish_flow();
                }
                Some(JointRecv::Timeout) | None => break,
            }
        }
        if produced {
            return Ok(SourcePoll::Produced);
        }
        // quiet slice: move deferred work along and serve acks and replays
        let flow = self.flow.as_mut().expect("flow active");
        if let Err(e) = flow.drain_deferred() {
            self.fail_with_zombie(&fm);
            return Err(e);
        }
        if let Err(e) = self.handle_acks_and_replays() {
            self.fail_with_zombie(&fm);
            return Err(e);
        }
        Ok(SourcePoll::Idle)
    }
}

// ---------------------------------------------------------------------------
// Assign (compute stage)
// ---------------------------------------------------------------------------

/// Descriptor for the Assign operator applying a UDF.
pub struct AssignDesc {
    /// The UDF to apply per record.
    pub udf: Udf,
    /// Joint id registered at the operator's output
    /// (`<feed>:f1:...:fN`).
    pub out_joint_id: String,
    /// Pinned compute locations.
    pub locations: Vec<NodeId>,
    /// Connection policy (sandbox settings).
    pub policy: IngestionPolicy,
    /// Shared metrics.
    pub metrics: Arc<FeedMetrics>,
    /// Soft-failure log.
    pub log: SoftFailureLog,
    /// Optional dataset for persisted failure logging.
    pub log_dataset: Option<Arc<Dataset>>,
    /// Busy-spin iterations added per record (models the §7.1 "expensive
    /// UDF" knob orthogonally to the UDF itself; usually 0).
    pub extra_spin: u64,
    /// Sleep (µs) added per record: models a fixed per-node processing
    /// capacity of `1e6/extra_delay_us` records/s *without* consuming host
    /// CPU, so capacity scales with instance count even on few physical
    /// cores (the Fig 5.16 scalability substitution — see DESIGN.md).
    pub extra_delay_us: u64,
}

impl OperatorDescriptor for AssignDesc {
    fn name(&self) -> String {
        format!("Assign({})", self.udf.name)
    }

    fn constraints(&self) -> Constraint {
        Constraint::Locations(self.locations.clone())
    }

    fn instantiate(
        &self,
        ctx: &TaskContext,
        output: Box<dyn FrameWriter>,
    ) -> IngestResult<OperatorRuntime> {
        let fm = FeedManager::on(&ctx.node);
        let joint = fm.register_joint(&self.out_joint_id);
        let udf = self.udf.clone();
        let metrics = Arc::clone(&self.metrics);
        let extra_spin = self.extra_spin;
        let extra_delay_us = self.extra_delay_us;
        let process = move |rec: &Record| -> IngestResult<Option<Record>> {
            // shared parse: a cache hit when the adaptor seeded the payload,
            // an attributed miss for despilled or externally-built records
            let value = rec
                .payload
                .adm_value_counted(metrics.parse_calls.as_atomic())
                .map_err(|e| IngestError::soft(e.to_string()))?;
            if extra_delay_us > 0 {
                std::thread::sleep(std::time::Duration::from_micros(extra_delay_us));
            }
            if extra_spin > 0 {
                let mut acc = 0u64;
                for i in 0..extra_spin {
                    acc = acc.wrapping_add(i).rotate_left(1);
                }
                std::hint::black_box(acc);
            }
            let out = udf.apply(&value)?;
            // a UDF returning `missing` filters the record out — the basis
            // of the publish-subscribe use case (§8.2), where subscriptions
            // are predicate feeds
            if matches!(out, asterix_adm::AdmValue::Missing) {
                return Ok(None);
            }
            metrics.records_computed.add(1);
            // UDF output is a true materialization boundary: serialize the
            // new value once, seeding the cache so the store never re-parses
            Ok(Some(Record {
                id: rec.id,
                adaptor: rec.adaptor,
                gen_at: rec.gen_at,
                payload: payload_from_value(out),
            }))
        };
        let meta = MetaFeed::new(
            self.name(),
            self.policy.clone(),
            Arc::clone(&self.metrics),
            Arc::clone(&self.log),
            self.log_dataset.clone(),
            ctx.clock.clone(),
            process,
            None,
        );
        // data goes to the joint; the job edge carries only the close signal
        let writer = JointWriter {
            joint,
            close_path: output,
        };
        Ok(OperatorRuntime::Unary(Box::new(UnaryHost::new(
            Box::new(meta),
            Box::new(writer),
        ))))
    }
}

/// Writer depositing frames into a joint while propagating lifecycle events
/// down the job edge.
struct JointWriter {
    joint: Arc<FeedJoint>,
    close_path: Box<dyn FrameWriter>,
}

impl FrameWriter for JointWriter {
    fn open(&mut self) -> IngestResult<()> {
        self.close_path.open()
    }

    fn next_frame(&mut self, frame: DataFrame) -> IngestResult<()> {
        self.joint.deposit(frame)
    }

    fn close(&mut self) -> IngestResult<()> {
        self.close_path.close()
    }

    fn fail(&mut self) {
        self.close_path.fail();
    }
}

// ---------------------------------------------------------------------------
// Route stage (ingestion plans)
// ---------------------------------------------------------------------------

/// Descriptor for the routing operator of a multi-sink ingestion plan: it
/// subscribes (through an [`IntakeDesc`] upstream) to the plan's tail feed
/// joint, evaluates every sink's routing predicate **once** per record
/// against the lazy parse cache, and deposits each record into the joints
/// of the sinks it matched. Each out joint is consumed by an independent
/// store pipeline with its own policy, flow control and custody.
pub struct RouteDesc {
    /// The compiled plan whose [`IngestPlan::route_record`] drives fan-out.
    ///
    /// [`IngestPlan::route_record`]: crate::plan::IngestPlan::route_record
    pub plan: Arc<crate::plan::IngestPlan>,
    /// Joint ids registered at the operator's outputs, one per sink
    /// (`plan:<plan>:<dataset>`), index-aligned with the plan's sinks.
    pub out_joints: Vec<String>,
    /// Pinned locations (the in-joint's nodes; routing never repartitions).
    pub locations: Vec<NodeId>,
    /// Trunk metrics (parse-cache miss attribution).
    pub metrics: Arc<FeedMetrics>,
    /// Per-sink `plan.sink.records_routed` counters, index-aligned with
    /// `out_joints`.
    pub routed: Vec<asterix_common::Counter>,
    /// `plan.route.no_match_total`: records that matched no sink (possible
    /// only without an `otherwise` arm) or whose payload failed to parse.
    pub no_match: asterix_common::Counter,
}

impl OperatorDescriptor for RouteDesc {
    fn name(&self) -> String {
        format!("Route({})", self.plan.name)
    }

    fn constraints(&self) -> Constraint {
        Constraint::Locations(self.locations.clone())
    }

    fn instantiate(
        &self,
        ctx: &TaskContext,
        output: Box<dyn FrameWriter>,
    ) -> IngestResult<OperatorRuntime> {
        let fm = FeedManager::on(&ctx.node);
        let outputs: Vec<Box<dyn FrameWriter>> = self
            .out_joints
            .iter()
            .zip(&self.routed)
            .map(|(oj, routed)| {
                Box::new(CountingJointWriter {
                    joint: fm.register_joint(oj),
                    routed: routed.clone(),
                }) as Box<dyn FrameWriter>
            })
            .collect();
        let plan = Arc::clone(&self.plan);
        let parse_calls = self.metrics.parse_calls.clone();
        let no_match = self.no_match.clone();
        let route_fn = Arc::new(move |rec: &Record| -> Vec<usize> {
            // one predicate evaluation pass per record, against the shared
            // parse cache (a hit when the adaptor seeded the payload)
            match rec.payload.adm_value_counted(parse_calls.as_atomic()) {
                Ok(value) => {
                    let targets = plan.route_record(&value, rec.gen_at);
                    if targets.is_empty() {
                        no_match.inc();
                    }
                    targets
                }
                Err(_) => {
                    // unparseable records cannot be routed; count them with
                    // the no-match family rather than killing the trunk
                    no_match.inc();
                    Vec::new()
                }
            }
        });
        let router = asterix_hyracks::operator::RouterOperator::new(route_fn, outputs);
        Ok(OperatorRuntime::Unary(Box::new(UnaryHost::new(
            Box::new(router),
            output,
        ))))
    }
}

/// Writer depositing frames into one sink's joint while metering routed
/// records. Unlike [`JointWriter`] there is no close path: the router's
/// host output carries the job-edge lifecycle, and the out joints are
/// retired by the controller when the plan is dismantled.
struct CountingJointWriter {
    joint: Arc<FeedJoint>,
    routed: asterix_common::Counter,
}

impl FrameWriter for CountingJointWriter {
    fn open(&mut self) -> IngestResult<()> {
        Ok(())
    }

    fn next_frame(&mut self, frame: DataFrame) -> IngestResult<()> {
        self.routed.add(frame.len() as u64);
        self.joint.deposit(frame)
    }

    fn close(&mut self) -> IngestResult<()> {
        Ok(())
    }

    fn fail(&mut self) {}
}

// ---------------------------------------------------------------------------
// Store stage
// ---------------------------------------------------------------------------

/// Ack emission plumbing for the store stage.
pub struct StoreAck {
    /// Per-intake-partition ack senders.
    pub txs: Vec<Sender<AckBatch>>,
    /// Grouping window.
    pub window: SimDuration,
}

/// Descriptor for the store (IndexInsert) operator.
pub struct StoreDesc {
    /// Target dataset.
    pub dataset: Arc<Dataset>,
    /// Type registry for record validation; `None` skips validation.
    pub registry: Option<Arc<TypeRegistry>>,
    /// Connection policy.
    pub policy: IngestionPolicy,
    /// Shared metrics.
    pub metrics: Arc<FeedMetrics>,
    /// Soft-failure log.
    pub log: SoftFailureLog,
    /// Optional dataset for persisted failure logging.
    pub log_dataset: Option<Arc<Dataset>>,
    /// At-least-once ack plumbing.
    pub ack: Option<Arc<StoreAck>>,
}

impl OperatorDescriptor for StoreDesc {
    fn name(&self) -> String {
        format!("IndexInsert({})", self.dataset.config.name)
    }

    fn constraints(&self) -> Constraint {
        // each store instance is co-located with its dataset partition
        Constraint::Locations(self.dataset.config.nodegroup.clone())
    }

    fn instantiate(
        &self,
        ctx: &TaskContext,
        output: Box<dyn FrameWriter>,
    ) -> IngestResult<OperatorRuntime> {
        let expected = self.dataset.partition_node(ctx.partition);
        if expected != ctx.node.id() {
            return Err(IngestError::Plan(format!(
                "store partition {} must run on {expected}, scheduled on {}",
                ctx.partition,
                ctx.node.id()
            )));
        }
        let store = StoreFeed {
            sandbox: Sandbox::new(
                self.name(),
                self.policy.clone(),
                Arc::clone(&self.metrics),
                Arc::clone(&self.log),
                self.log_dataset.clone(),
                ctx.clock.clone(),
            ),
            partition: self.dataset.partition(ctx.partition),
            datatype: AdmType::Named(self.dataset.config.datatype.clone()),
            registry: self.registry.clone(),
            metrics: Arc::clone(&self.metrics),
            ack_sender: self
                .ack
                .as_ref()
                .map(|a| AckSender::new(a.txs.clone(), a.window, ctx.clock.clone())),
        };
        Ok(OperatorRuntime::Unary(Box::new(UnaryHost::new(
            Box::new(store),
            output,
        ))))
    }
}

/// What became of one record of a store frame before the batch write.
enum StoreFate {
    /// Parse or typecheck rejected it (soft).
    Rejected(IngestError),
    /// Valid; its position in the batch handed to the partition.
    Batched(usize),
}

/// The frame-granular store operator. Per frame: parse + typecheck every
/// record (reusing the shared parse cache), then hand the survivors to the
/// partition in **one** `upsert_batch` call — one partition lock, one
/// multi-entry WAL append — and finally run the §6.1 sandbox bookkeeping
/// over the merged per-record outcomes in arrival order, so soft-failure
/// logging and the consecutive-failure cutoff behave exactly like the old
/// record-at-a-time path.
struct StoreFeed {
    sandbox: Sandbox,
    partition: Arc<asterix_storage::DatasetPartition>,
    datatype: AdmType,
    registry: Option<Arc<TypeRegistry>>,
    metrics: Arc<FeedMetrics>,
    ack_sender: Option<AckSender>,
}

impl UnaryOperator for StoreFeed {
    fn next_frame(&mut self, frame: DataFrame, _output: &mut dyn FrameWriter) -> IngestResult<()> {
        let records = frame.records();
        let mut fates: Vec<StoreFate> = Vec::with_capacity(records.len());
        let mut batch: Vec<Arc<asterix_adm::AdmValue>> = Vec::with_capacity(records.len());
        for rec in records {
            // reuses the parse seeded at the adaptor (or by assign's UDF
            // output); only despilled/externally-built records miss here
            let parsed = rec
                .payload
                .adm_value_counted(self.metrics.parse_calls.as_atomic())
                .map_err(|e| IngestError::soft(e.to_string()))
                .and_then(|value| {
                    if let Some(reg) = &self.registry {
                        reg.check(&value, &self.datatype)
                            .map_err(|e| IngestError::soft(e.to_string()))?;
                    }
                    Ok(value)
                });
            match parsed {
                Ok(value) => {
                    fates.push(StoreFate::Batched(batch.len()));
                    batch.push(value);
                }
                Err(e) => fates.push(StoreFate::Rejected(e)),
            }
        }
        // the group commit: WAL first (one block), then primary + secondary
        // updates, all under one acquisition of the partition lock
        let outcome = self.partition.upsert_batch(&batch)?;
        let mut batch_soft: Vec<Option<IngestError>> = Vec::new();
        batch_soft.resize_with(batch.len(), || None);
        for (j, e) in outcome.soft {
            batch_soft[j] = Some(e);
        }
        for (rec, fate) in records.iter().zip(fates) {
            let soft = match fate {
                StoreFate::Rejected(e) => Some(e),
                StoreFate::Batched(j) => batch_soft[j].take(),
            };
            match soft {
                None => {
                    self.sandbox.record_ok();
                    // the record is durable (post-group-commit): close the
                    // end-to-end lag measurement opened at generation time
                    if let Some(gen_at) = rec.gen_at {
                        self.metrics.lag_from(gen_at);
                    }
                    if let Some(s) = &mut self.ack_sender {
                        s.ack(rec);
                    }
                }
                Some(e) if self.sandbox.recoverable(&e) => {
                    self.sandbox.record_soft(&e, rec)?;
                }
                Some(e) => return Err(e),
            }
        }
        self.metrics.persisted(outcome.committed as u64);
        self.metrics.frames_stored.add(1);
        Ok(())
    }

    fn close(&mut self, _output: &mut dyn FrameWriter) -> IngestResult<()> {
        Ok(())
    }

    fn fail(&mut self) {}
}

/// The hash-partitioning key function for the store connector: hash of the
/// record's primary key (falls back to hashing raw bytes on unparseable
/// payloads — the store's sandbox reports those as soft failures).
///
/// Uses the payload's shared parse cache, so routing a record costs no parse
/// beyond the adaptor's (and caches the parse for the store if the record
/// somehow arrives cold).
pub fn store_key_fn(primary_key: String) -> Arc<dyn Fn(&Record) -> u64 + Send + Sync> {
    Arc::new(move |rec: &Record| {
        match rec.payload.adm_value().ok() {
            Some(v) => match v.field(&primary_key) {
                Some(k) => asterix_adm::hash::hash_value(k),
                None => asterix_adm::hash::hash_value(&v),
            },
            None => {
                // raw-byte hash keeps routing deterministic
                let mut h = 0xcbf2_9ce4_8422_2325u64;
                for &b in rec.payload.iter() {
                    h ^= b as u64;
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                }
                h
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use asterix_common::{RecordId, SimClock};

    fn metrics() -> Arc<FeedMetrics> {
        FeedMetrics::with_default_bucket(SimClock::fast())
    }

    type MetaRig<F> = (MetaFeed<F>, Arc<FeedMetrics>, SoftFailureLog);

    fn meta_with<F>(policy: IngestionPolicy, process: F) -> MetaRig<F>
    where
        F: FnMut(&Record) -> IngestResult<Option<Record>> + Send,
    {
        let m = metrics();
        let log = new_soft_failure_log();
        let meta = MetaFeed::new(
            "test-op",
            policy,
            Arc::clone(&m),
            Arc::clone(&log),
            None,
            SimClock::fast(),
            process,
            None,
        );
        (meta, m, log)
    }

    fn frame_of(payloads: &[&str]) -> DataFrame {
        DataFrame::from_records(
            payloads
                .iter()
                .enumerate()
                .map(|(i, p)| Record::tracked(RecordId(i as u64), 0, p.to_string()))
                .collect(),
        )
    }

    struct CaptureWriter(Vec<DataFrame>);
    impl FrameWriter for CaptureWriter {
        fn open(&mut self) -> IngestResult<()> {
            Ok(())
        }
        fn next_frame(&mut self, f: DataFrame) -> IngestResult<()> {
            self.0.push(f);
            Ok(())
        }
        fn close(&mut self) -> IngestResult<()> {
            Ok(())
        }
        fn fail(&mut self) {}
    }

    #[test]
    fn metafeed_skips_soft_failures_and_logs() {
        let (mut meta, m, log) = meta_with(IngestionPolicy::basic(), |r: &Record| {
            if r.payload_str() == Some("bad") {
                Err(IngestError::soft("cannot parse"))
            } else {
                Ok(Some(r.clone()))
            }
        });
        let mut out = CaptureWriter(Vec::new());
        meta.next_frame(frame_of(&["a", "bad", "b", "bad", "c"]), &mut out)
            .unwrap();
        assert_eq!(out.0[0].len(), 3);
        assert_eq!(m.soft_failures.get(), 2);
        let entries = log.lock();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].operator, "test-op");
        assert_eq!(entries[0].payload.as_deref(), Some("bad"));
    }

    #[test]
    fn metafeed_terminates_after_consecutive_limit() {
        let mut policy = IngestionPolicy::basic();
        policy.max_consecutive_soft_failures = 3;
        let (mut meta, _m, _log) =
            meta_with(policy, |_r: &Record| Err(IngestError::soft("always fails")));
        let mut out = CaptureWriter(Vec::new());
        let err = meta
            .next_frame(frame_of(&["a", "b", "c", "d", "e"]), &mut out)
            .unwrap_err();
        assert!(matches!(err, IngestError::FeedTerminated { .. }), "{err}");
    }

    #[test]
    fn metafeed_success_resets_consecutive_count() {
        let mut policy = IngestionPolicy::basic();
        policy.max_consecutive_soft_failures = 2;
        let (mut meta, _m, _log) = meta_with(policy, |r: &Record| {
            if r.payload_str() == Some("bad") {
                Err(IngestError::soft("x"))
            } else {
                Ok(Some(r.clone()))
            }
        });
        let mut out = CaptureWriter(Vec::new());
        // alternating failures never hit the consecutive limit
        meta.next_frame(
            frame_of(&["bad", "ok", "bad", "ok", "bad", "ok", "bad"]),
            &mut out,
        )
        .unwrap();
    }

    #[test]
    fn metafeed_propagates_soft_error_when_recovery_disabled() {
        let mut policy = IngestionPolicy::basic();
        policy.recover_soft_failure = false;
        let (mut meta, _m, _log) = meta_with(policy, |_r: &Record| Err(IngestError::soft("boom")));
        let mut out = CaptureWriter(Vec::new());
        let err = meta.next_frame(frame_of(&["a"]), &mut out).unwrap_err();
        assert!(err.is_soft());
    }

    #[test]
    fn metafeed_hard_errors_pass_through() {
        let (mut meta, _m, _log) = meta_with(IngestionPolicy::basic(), |_r: &Record| {
            Err(IngestError::Storage("disk on fire".into()))
        });
        let mut out = CaptureWriter(Vec::new());
        let err = meta.next_frame(frame_of(&["a"]), &mut out).unwrap_err();
        assert!(matches!(err, IngestError::Storage(_)));
    }

    #[test]
    fn store_key_fn_routes_by_primary_key() {
        let key_fn = store_key_fn("id".into());
        let r1 = Record::tracked(RecordId(0), 0, "{\"id\":\"a\",\"x\":1}");
        let r2 = Record::tracked(RecordId(1), 0, "{\"id\":\"a\",\"x\":2}");
        let r3 = Record::tracked(RecordId(2), 0, "{\"id\":\"b\",\"x\":1}");
        assert_eq!(key_fn(&r1), key_fn(&r2), "same key, same route");
        assert_ne!(key_fn(&r1), key_fn(&r3));
        // unparseable payloads still route deterministically
        let bad = Record::tracked(RecordId(3), 0, "}{");
        assert_eq!(key_fn(&bad), key_fn(&bad));
    }
}
