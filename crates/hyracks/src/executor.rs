//! Job scheduling and execution.
//!
//! The executor turns a [`JobSpec`] into cooperative tasks on the cluster's
//! work-stealing [`Scheduler`](crate::scheduler::Scheduler): one task per
//! operator partition, placed on nodes according to the operator's count or
//! location constraints, connected by bounded frame ports
//! ([`crate::port`]). Operator count is therefore no longer 1:1 with OS
//! threads — ten thousand feed pipelines multiplex over a fixed worker
//! pool, the way real Hyracks multiplexes activities over node-controller
//! executors.
//!
//! Back-pressure survives the translation: a task whose output ports are
//! saturated *yields* ([`SliceState::Pending`]) instead of blocking, and is
//! re-woken when a consumer drains below capacity. Dedicated threads
//! (blocking sources, TCP pumps) still use classic blocking sends.
//!
//! Tasks scheduled on a node observe the node's alive flag; when the node
//! is killed they exit *without* closing their outputs — the frames in
//! their input ports are simply lost, as they would be on a real machine
//! crash. With [`TransportKind::Tcp`] every edge's frames additionally
//! traverse a real loopback socket (see [`crate::transport`]), exercising
//! the process boundary.

use crate::cluster::{Cluster, NodeHandle};
use crate::connector::{ConnectorSpec, RouterWriter, TeeWriter};
use crate::job::{Constraint, JobSpec, OperatorSpecId};
use crate::operator::{
    DevNull, FrameWriter, OperatorRuntime, SourceOperator, SourcePoll, StopToken,
};
use crate::port::{frame_port, PortHook, PortPop, PortReceiver, PortSender, SaturationProbe};
use crate::scheduler::{SliceState, Task, TaskHandle};
use crate::transport::TransportKind;
use asterix_common::ids::IdGen;
use asterix_common::sync::Mutex;
use asterix_common::{
    Counter, DataFrame, Histogram, IngestError, IngestResult, JobId, MetricsRegistry, NodeId,
    SimClock, DEFAULT_FRAME_CAPACITY,
};
use std::collections::HashMap;
use std::time::Duration;

pub use crate::port::TaskMsg;

static JOB_IDS: IdGen = IdGen::new();

/// Messages a unary task drains per slice before re-queueing itself, so one
/// busy pipeline cannot monopolize a worker.
const MSGS_PER_SLICE: usize = 8;

/// Pending-deadline safety net: stop requests and node deaths are observed
/// within this bound even if no waker ever fires.
const POLL_SAFETY: Duration = Duration::from_millis(20);

/// Runtime context handed to operator descriptors at instantiation.
#[derive(Clone)]
pub struct TaskContext {
    /// The job this task belongs to.
    pub job: JobId,
    /// Node the task is scheduled on.
    pub node: NodeHandle,
    /// Partition index of this task within its operator.
    pub partition: usize,
    /// Total partitions of this operator.
    pub n_partitions: usize,
    /// Shared cluster clock.
    pub clock: SimClock,
}

impl TaskContext {
    /// Is the hosting node still alive?
    pub fn node_alive(&self) -> bool {
        self.node.is_alive()
    }
}

impl std::fmt::Debug for TaskContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "TaskContext(job={}, node={}, partition={}/{})",
            self.job,
            self.node.id(),
            self.partition,
            self.n_partitions
        )
    }
}

/// Per-task result list (placement plus outcome).
pub type TaskResults = Vec<(TaskPlacement, IngestResult<()>)>;

/// Where one task of a job ran.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskPlacement {
    /// Operator within the job spec.
    pub op: OperatorSpecId,
    /// Operator display name.
    pub op_name: String,
    /// Partition index.
    pub partition: usize,
    /// Hosting node.
    pub node: NodeId,
}

struct TaskRecord {
    placement: TaskPlacement,
    handle: TaskHandle,
    stop: StopToken,
    is_source: bool,
}

/// Executor-level instruments for one operator, registered under
/// `operator.*` with an `op` label. All partitions of the operator share
/// the same handles (the registry returns the existing instrument for an
/// identical name+labels key), so per-operator totals come for free.
#[derive(Clone)]
struct OpInstruments {
    frames_in: Counter,
    records_in: Counter,
    latency_us: Histogram,
}

impl OpInstruments {
    fn for_op(registry: &MetricsRegistry, op_name: &str) -> OpInstruments {
        let labels = &[("op", op_name)];
        OpInstruments {
            frames_in: registry.counter("operator.frames_in", labels),
            records_in: registry.counter("operator.records_in", labels),
            latency_us: registry.histogram("operator.frame_latency_us", labels),
        }
    }
}

/// Wraps a task's output writer, counting emitted frames and records into
/// the cluster registry (`operator.frames_out` / `operator.records_out`).
struct CountingWriter {
    inner: Box<dyn FrameWriter>,
    frames_out: Counter,
    records_out: Counter,
}

impl CountingWriter {
    fn wrap(
        inner: Box<dyn FrameWriter>,
        registry: &MetricsRegistry,
        op_name: &str,
    ) -> Box<dyn FrameWriter> {
        let labels = &[("op", op_name)];
        Box::new(CountingWriter {
            inner,
            frames_out: registry.counter("operator.frames_out", labels),
            records_out: registry.counter("operator.records_out", labels),
        })
    }
}

impl FrameWriter for CountingWriter {
    fn open(&mut self) -> IngestResult<()> {
        self.inner.open()
    }

    fn next_frame(&mut self, frame: DataFrame) -> IngestResult<()> {
        self.frames_out.inc();
        self.records_out.add(frame.len() as u64);
        self.inner.next_frame(frame)
    }

    fn close(&mut self) -> IngestResult<()> {
        self.inner.close()
    }

    fn fail(&mut self) {
        self.inner.fail()
    }

    fn is_saturated(&self) -> bool {
        self.inner.is_saturated()
    }

    fn queued_frames(&self) -> usize {
        self.inner.queued_frames()
    }
}

/// Handle to a scheduled job.
pub struct JobHandle {
    /// The job's id.
    pub id: JobId,
    /// The job's display name.
    pub name: String,
    tasks: Mutex<Vec<TaskRecord>>,
    layout: Vec<TaskPlacement>,
    /// results cached by the first wait()/try_outcome() reap
    results: Mutex<Option<TaskResults>>,
}

impl JobHandle {
    /// A detached handle with no tasks — a placeholder for two-phase
    /// construction of structures that embed a `JobHandle`.
    pub fn detached() -> JobHandle {
        JobHandle {
            id: JobId(u64::MAX),
            name: "<detached>".into(),
            tasks: Mutex::new(Vec::new()),
            layout: Vec::new(),
            results: Mutex::new(Some(Vec::new())),
        }
    }

    /// Placement of every task (feeds' Central Feed Manager uses this to
    /// find pipelines affected by a node failure).
    pub fn layout(&self) -> &[TaskPlacement] {
        &self.layout
    }

    /// Request the source operators stop; in-flight frames drain through
    /// the pipeline and downstream operators close gracefully.
    pub fn stop_sources(&self) {
        for t in self.tasks.lock().iter() {
            if t.is_source {
                t.stop.stop();
            }
        }
    }

    /// Abort: fire every task's stop token in abandon mode (no graceful
    /// drain; shared state such as joint subscriptions is preserved for a
    /// successor incarnation).
    pub fn abort(&self) {
        for t in self.tasks.lock().iter() {
            t.stop.stop_abandon();
        }
    }

    /// Wait for all tasks to finish; returns per-task results (cached, so
    /// repeated calls return the same results).
    pub fn wait(&self) -> TaskResults {
        let tasks: Vec<TaskRecord> = std::mem::take(&mut *self.tasks.lock());
        let fresh: TaskResults = tasks
            .into_iter()
            .map(|t| (t.placement, t.handle.join()))
            .collect();
        let mut cache = self.results.lock();
        cache.get_or_insert_with(Vec::new).extend(fresh);
        cache.clone().unwrap_or_default()
    }

    /// Non-blocking: if every task has finished, reap and return the cached
    /// per-task results; `None` while any task still runs.
    pub fn try_outcome(&self) -> Option<TaskResults> {
        if self.is_running() {
            return None;
        }
        Some(self.wait())
    }

    /// Wait and assert every task succeeded.
    pub fn wait_ok(&self) -> IngestResult<()> {
        for (p, r) in self.wait() {
            r.map_err(|e| {
                IngestError::Plan(format!("task {}[{}] failed: {e}", p.op_name, p.partition))
            })?;
        }
        Ok(())
    }

    /// Are any tasks still running?
    pub fn is_running(&self) -> bool {
        self.tasks.lock().iter().any(|t| !t.handle.is_finished())
    }
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JobHandle({}, '{}')", self.id, self.name)
    }
}

/// Resolve an operator's constraint to a list of hosting nodes.
fn resolve_placement(
    cluster: &Cluster,
    constraint: &Constraint,
    op_name: &str,
) -> IngestResult<Vec<NodeHandle>> {
    match constraint {
        Constraint::Count(n) => {
            let alive = cluster.alive_nodes();
            if alive.is_empty() {
                return Err(IngestError::Plan(format!(
                    "no alive nodes to place operator {op_name}"
                )));
            }
            Ok((0..*n).map(|i| alive[i % alive.len()].clone()).collect())
        }
        Constraint::Locations(locs) => locs
            .iter()
            .map(|id| {
                let node = cluster.node(*id).ok_or_else(|| {
                    IngestError::Plan(format!("operator {op_name}: unknown node {id}"))
                })?;
                if !node.is_alive() {
                    return Err(IngestError::Plan(format!(
                        "operator {op_name}: node {id} is not alive"
                    )));
                }
                Ok(node)
            })
            .collect(),
    }
}

/// Schedule and start a job on the cluster.
pub fn run_job(cluster: &Cluster, spec: JobSpec) -> IngestResult<JobHandle> {
    spec.topo_order()?; // validates the DAG
    let job_id: JobId = JOB_IDS.next();
    let n_ops = spec.operators().len();
    let scheduler = cluster.scheduler();
    let registry = cluster.registry();

    // 1. placements
    let mut placements: Vec<Vec<NodeHandle>> = Vec::with_capacity(n_ops);
    for (i, op) in spec.operators().iter().enumerate() {
        let p = resolve_placement(cluster, &op.constraints(), &op.name())?;
        if p.is_empty() {
            return Err(IngestError::Plan(format!(
                "operator {} has zero partitions",
                spec.operator(OperatorSpecId(i)).name()
            )));
        }
        placements.push(p);
    }

    // 2. input ports for every operator with producers. With the TCP
    // transport, each consumer partition's sender is replaced by a relay
    // whose messages traverse a loopback socket before reaching the port.
    let mut inputs: HashMap<OperatorSpecId, Vec<PortSender>> = HashMap::new();
    let mut receivers: HashMap<OperatorSpecId, Vec<Option<PortReceiver>>> = HashMap::new();
    let mut hooks: HashMap<OperatorSpecId, Vec<PortHook>> = HashMap::new();
    for (i, placement) in placements.iter().enumerate() {
        let id = OperatorSpecId(i);
        if spec.producers_of(id).is_empty() {
            continue;
        }
        let mut ins = Vec::with_capacity(placement.len());
        let mut rxs = Vec::with_capacity(placement.len());
        let mut hks = Vec::with_capacity(placement.len());
        for p in 0..placement.len() {
            let (tx, rx) = frame_port(spec.queue_capacity);
            let tx = match spec.transport {
                TransportKind::InProcess => tx,
                TransportKind::Tcp => crate::transport::bridge_consumer(
                    &registry,
                    tx,
                    spec.queue_capacity,
                    &format!("{job_id}-{}-{p}", spec.operator(id).name()),
                )?,
            };
            hks.push(rx.hook());
            ins.push(tx);
            rxs.push(Some(rx));
        }
        inputs.insert(id, ins);
        receivers.insert(id, rxs);
        hooks.insert(id, hks);
    }

    // 3. expected Close count per consumer partition
    let mut expected_closes: HashMap<OperatorSpecId, usize> = HashMap::new();
    for e in spec.edges() {
        let from_card = placements[e.from.0].len();
        let to_entry = expected_closes.entry(e.to).or_insert(0);
        *to_entry += match e.connector {
            ConnectorSpec::OneToOne => {
                if from_card != placements[e.to.0].len() {
                    return Err(IngestError::Plan(format!(
                        "one-to-one edge {} -> {} with mismatched cardinalities {} vs {}",
                        spec.operator(e.from).name(),
                        spec.operator(e.to).name(),
                        from_card,
                        placements[e.to.0].len()
                    )));
                }
                1
            }
            _ => from_card,
        };
    }

    // 4. build tasks. Two-phase start: every cooperative task is created
    // un-queued, wakers are wired into its ports, and only then is the
    // whole job kicked — so no task can park before its wake path exists.
    let mut tasks = Vec::new();
    let mut layout = Vec::new();
    let mut to_wake: Vec<TaskHandle> = Vec::new();
    for (i, placement) in placements.iter().enumerate() {
        let op_id = OperatorSpecId(i);
        let op = spec.operator(op_id);
        let op_name = op.name();
        let out_edges: Vec<_> = spec.edges().iter().filter(|e| e.from == op_id).collect();
        let has_input = receivers.contains_key(&op_id);
        for (partition, node) in placement.iter().enumerate() {
            let ctx = TaskContext {
                job: job_id,
                node: node.clone(),
                partition,
                n_partitions: placement.len(),
                clock: cluster.clock().clone(),
            };
            // output writer: tee of routers over outgoing edges
            let mut writers: Vec<Box<dyn FrameWriter>> = Vec::new();
            let mut downstream: Vec<PortSender> = Vec::new();
            for e in &out_edges {
                let consumer_inputs = inputs.get(&e.to).expect("consumer has inputs").clone();
                downstream.extend(consumer_inputs.iter().cloned());
                writers.push(Box::new(RouterWriter::new(
                    &e.connector,
                    consumer_inputs,
                    partition,
                    DEFAULT_FRAME_CAPACITY,
                )?));
            }
            let probe = SaturationProbe::new(downstream);
            let output: Box<dyn FrameWriter> = match writers.len() {
                0 => Box::new(DevNull),
                1 => writers.pop().unwrap(),
                _ => Box::new(TeeWriter::new(writers)),
            };
            let output = CountingWriter::wrap(output, &registry, &op_name);
            let runtime = op.instantiate(&ctx, output)?;
            let instruments = OpInstruments::for_op(&registry, &op_name);
            let is_source = matches!(runtime, OperatorRuntime::Source(_));
            let stop = StopToken::new();
            let placement_rec = TaskPlacement {
                op: op_id,
                op_name: op_name.clone(),
                partition,
                node: node.id(),
            };
            let task_name = format!("{job_id}-{op_name}-{partition}");
            let handle = match runtime {
                OperatorRuntime::Source(src) if src.cooperative() => {
                    let h = scheduler.create_task(
                        task_name,
                        Box::new(SourceTask {
                            src,
                            ctx,
                            stop: stop.clone(),
                            probe: probe.clone(),
                            backoff_ms: 1,
                        }),
                    );
                    probe.attach_producer_waker(&h.waker());
                    to_wake.push(h.clone());
                    h
                }
                OperatorRuntime::Source(mut src) => {
                    // inherently blocking source: dedicated thread, classic
                    // blocking back-pressure, stop fired on node death
                    node.on_death(stop.clone());
                    let blocking_stop = stop.clone();
                    scheduler
                        .spawn_blocking(task_name, move || src.run(&mut DevNull, &blocking_stop))
                }
                OperatorRuntime::Unary(uop) => {
                    let rx = receivers
                        .get_mut(&op_id)
                        .and_then(|v| v[partition].take())
                        .ok_or_else(|| {
                            IngestError::Plan("unary operator scheduled without an input".into())
                        })?;
                    let expected = expected_closes.get(&op_id).copied().unwrap_or(0);
                    let h = scheduler.create_task(
                        task_name,
                        Box::new(UnaryTask {
                            op: uop,
                            ctx,
                            rx,
                            expected_closes: expected.max(1),
                            closes: 0,
                            stop: stop.clone(),
                            instruments,
                            probe: probe.clone(),
                            opened: false,
                        }),
                    );
                    if has_input {
                        hooks.get(&op_id).expect("consumer has hooks")[partition]
                            .set_consumer_waker(h.waker());
                    }
                    probe.attach_producer_waker(&h.waker());
                    to_wake.push(h.clone());
                    h
                }
            };
            tasks.push(TaskRecord {
                placement: placement_rec.clone(),
                handle,
                stop,
                is_source,
            });
            layout.push(placement_rec);
        }
    }

    // 5. drop the executor's sender clones (`inputs`) so port sender counts
    // reflect only live producers, then start everything
    drop(inputs);
    for h in to_wake {
        h.waker().wake();
    }

    Ok(JobHandle {
        id: job_id,
        name: spec.name,
        tasks: Mutex::new(tasks),
        layout,
        results: Mutex::new(None),
    })
}

// Calling convention: `OperatorDescriptor::instantiate` receives the output
// writer and must move it into the runtime it returns — wrap sources in
// [`SourceHost`] and unary operators in [`UnaryHost`]. The drive loops below
// therefore pass a `DevNull` placeholder for the writer parameter of the
// operator traits; the real writer lives inside the host.

/// One cooperative source partition: polls the source for bounded bursts,
/// yielding on saturation and backing off exponentially while idle.
struct SourceTask {
    src: Box<dyn SourceOperator>,
    ctx: TaskContext,
    stop: StopToken,
    probe: SaturationProbe,
    backoff_ms: u64,
}

impl Task for SourceTask {
    fn run_slice(&mut self) -> SliceState {
        if !self.ctx.node_alive() {
            // node death requests a stop; the source observes it on its
            // next poll and winds down (the old watcher-thread semantics)
            self.stop.stop();
        }
        if self.probe.saturated() {
            // back-pressure: yield until a consumer drains (waker) or the
            // safety deadline re-checks stop/node state
            return SliceState::Pending(Some(POLL_SAFETY));
        }
        match self.src.poll_produce(&mut DevNull, &self.stop) {
            Err(e) => SliceState::Done(Err(e)),
            Ok(SourcePoll::Done) => SliceState::Done(Ok(())),
            Ok(SourcePoll::Produced) => {
                self.backoff_ms = 1;
                SliceState::Ready
            }
            Ok(SourcePoll::Idle) => {
                let wait = Duration::from_millis(self.backoff_ms);
                self.backoff_ms = (self.backoff_ms * 2).min(32);
                SliceState::Pending(Some(wait))
            }
        }
    }
}

/// One unary operator partition: drains its input port a bounded number of
/// messages per slice.
struct UnaryTask {
    op: Box<dyn crate::operator::UnaryOperator>,
    ctx: TaskContext,
    rx: PortReceiver,
    expected_closes: usize,
    closes: usize,
    stop: StopToken,
    instruments: OpInstruments,
    probe: SaturationProbe,
    opened: bool,
}

impl Task for UnaryTask {
    fn run_slice(&mut self) -> SliceState {
        if !self.ctx.node_alive() {
            // hard failure: vanish without closing downstream
            self.op.fail();
            return SliceState::Done(Err(IngestError::NodeFailed(self.ctx.node.id())));
        }
        if self.stop.is_stopped() {
            self.op.fail();
            return SliceState::Done(Ok(()));
        }
        if !self.opened {
            if let Err(e) = self.op.open(&mut DevNull) {
                self.op.fail();
                return SliceState::Done(Err(e));
            }
            self.opened = true;
        }
        if self.probe.saturated() {
            return SliceState::Pending(Some(POLL_SAFETY));
        }
        for _ in 0..MSGS_PER_SLICE {
            match self.rx.pop() {
                PortPop::Msg(TaskMsg::Frame(frame)) => {
                    self.instruments.frames_in.inc();
                    self.instruments.records_in.add(frame.len() as u64);
                    let started = std::time::Instant::now();
                    let result = self.op.next_frame(frame, &mut DevNull);
                    self.instruments
                        .latency_us
                        .record(started.elapsed().as_micros() as u64);
                    if let Err(e) = result {
                        self.op.fail();
                        return SliceState::Done(Err(e));
                    }
                }
                PortPop::Msg(TaskMsg::Close) => {
                    self.closes += 1;
                    if self.closes >= self.expected_closes {
                        return SliceState::Done(self.op.close(&mut DevNull));
                    }
                }
                PortPop::Msg(TaskMsg::Fail) => {
                    self.op.fail();
                    return SliceState::Done(Err(IngestError::Disconnected(
                        "upstream failed".into(),
                    )));
                }
                PortPop::Empty => return SliceState::Pending(Some(POLL_SAFETY)),
                PortPop::Disconnected => {
                    // all producers vanished without Close: abnormal
                    self.op.fail();
                    return SliceState::Done(Err(IngestError::Disconnected(
                        "producers disappeared".into(),
                    )));
                }
            }
        }
        SliceState::Ready
    }
}

/// Hosts a source operator together with its output writer, adapting it to
/// the executor's writer-less drive loop. Operator descriptors building
/// sources should wrap them:
///
/// ```ignore
/// Ok(OperatorRuntime::Source(Box::new(SourceHost::new(my_source, output))))
/// ```
pub struct SourceHost {
    source: Box<dyn SourceOperator>,
    output: Box<dyn FrameWriter>,
    opened: bool,
}

impl SourceHost {
    /// Pair a source with the output writer the executor handed the
    /// descriptor.
    pub fn new(source: Box<dyn SourceOperator>, output: Box<dyn FrameWriter>) -> Self {
        SourceHost {
            source,
            output,
            opened: false,
        }
    }
}

impl SourceOperator for SourceHost {
    fn run(&mut self, _ignored: &mut dyn FrameWriter, stop: &StopToken) -> IngestResult<()> {
        self.output.open()?;
        self.opened = true;
        match self.source.run(&mut *self.output, stop) {
            Ok(()) => self.output.close(),
            Err(e) => {
                self.output.fail();
                Err(e)
            }
        }
    }

    fn cooperative(&self) -> bool {
        self.source.cooperative()
    }

    fn poll_produce(
        &mut self,
        _ignored: &mut dyn FrameWriter,
        stop: &StopToken,
    ) -> IngestResult<SourcePoll> {
        if !self.opened {
            self.output.open()?;
            self.opened = true;
        }
        match self.source.poll_produce(&mut *self.output, stop) {
            Ok(SourcePoll::Done) => {
                self.output.close()?;
                Ok(SourcePoll::Done)
            }
            Ok(p) => Ok(p),
            Err(e) => {
                self.output.fail();
                Err(e)
            }
        }
    }
}

/// Pairs a unary operator with its output writer so the task loop can drive
/// it with a single object. Operator descriptors building unary operators
/// should wrap them:
///
/// ```ignore
/// Ok(OperatorRuntime::Unary(Box::new(UnaryHost::new(my_op, output))))
/// ```
pub struct UnaryHost {
    op: Box<dyn crate::operator::UnaryOperator>,
    output: Box<dyn FrameWriter>,
    opened: bool,
}

impl UnaryHost {
    /// Pair an operator with the writer from `instantiate`.
    pub fn new(op: Box<dyn crate::operator::UnaryOperator>, output: Box<dyn FrameWriter>) -> Self {
        UnaryHost {
            op,
            output,
            opened: false,
        }
    }
}

impl crate::operator::UnaryOperator for UnaryHost {
    fn open(&mut self, _ignored: &mut dyn FrameWriter) -> IngestResult<()> {
        self.output.open()?;
        self.opened = true;
        self.op.open(&mut *self.output)
    }

    fn next_frame(&mut self, frame: DataFrame, _ignored: &mut dyn FrameWriter) -> IngestResult<()> {
        self.op.next_frame(frame, &mut *self.output)
    }

    fn close(&mut self, _ignored: &mut dyn FrameWriter) -> IngestResult<()> {
        self.op.close(&mut *self.output)?;
        self.output.close()
    }

    fn fail(&mut self) {
        self.op.fail();
        if self.opened {
            self.output.fail();
        }
    }
}
