//! Operator runtime interfaces and built-in operators.
//!
//! Mirrors Hyracks' push model (§5.2): "Each operator in a Hyracks job is
//! provided with an `IFrameWriter` handle that it uses to send output data
//! frames downstream". Operators come in two shapes:
//!
//! * [`SourceOperator`] — drives itself (a feed adaptor host, a tuple
//!   source) until its [`StopToken`] fires or its input is exhausted;
//! * [`UnaryOperator`] — consumes frames pushed by an upstream operator and
//!   emits frames downstream.

use asterix_common::{DataFrame, IngestError, IngestResult, Record};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// The push-side handle: the Rust analogue of Hyracks' `IFrameWriter`.
pub trait FrameWriter: Send {
    /// Begin the stream.
    fn open(&mut self) -> IngestResult<()>;
    /// Push one frame downstream.
    fn next_frame(&mut self, frame: DataFrame) -> IngestResult<()>;
    /// Graceful end-of-stream: the downstream operator may flush and commit.
    fn close(&mut self) -> IngestResult<()>;
    /// Abnormal termination: the downstream operator should abandon work.
    fn fail(&mut self);
    /// True when the downstream queue(s) behind this writer are at capacity.
    ///
    /// Cooperative tasks consult this to *yield* instead of blocking — the
    /// scheduler re-runs them once a consumer drains. Writers with no
    /// bounded queue report `false` (never saturated).
    fn is_saturated(&self) -> bool {
        false
    }
    /// Frames queued on the deepest downstream queue behind this writer
    /// (read-only; writers with no bounded queue report 0).
    fn queued_frames(&self) -> usize {
        0
    }
}

/// A writer that drops everything (used behind `NullSink` and in tests).
#[derive(Debug, Default)]
pub struct DevNull;

impl FrameWriter for DevNull {
    fn open(&mut self) -> IngestResult<()> {
        Ok(())
    }
    fn next_frame(&mut self, _frame: DataFrame) -> IngestResult<()> {
        Ok(())
    }
    fn close(&mut self) -> IngestResult<()> {
        Ok(())
    }
    fn fail(&mut self) {}
}

/// How a task was asked to stop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopMode {
    /// Still running.
    Running,
    /// Graceful: drain in-flight work, release resources cleanly
    /// (a `disconnect feed`).
    Graceful,
    /// Abandon: exit immediately, *preserving* shared state such as joint
    /// subscriptions for a successor incarnation (pipeline rebuilds during
    /// failure recovery or elastic restructuring).
    Abandon,
}

/// Cooperative cancellation token shared by a task and its controller.
#[derive(Debug, Clone, Default)]
pub struct StopToken {
    flag: Arc<std::sync::atomic::AtomicU8>,
}

impl StopToken {
    /// Fresh, un-fired token.
    pub fn new() -> Self {
        StopToken::default()
    }

    /// Request a graceful stop.
    pub fn stop(&self) {
        // never downgrade an abandon to graceful
        let _ = self
            .flag
            .compare_exchange(0, 1, Ordering::SeqCst, Ordering::SeqCst);
    }

    /// Request an immediate abandon.
    pub fn stop_abandon(&self) {
        self.flag.store(2, Ordering::SeqCst);
    }

    /// Has any stop been requested?
    pub fn is_stopped(&self) -> bool {
        self.flag.load(Ordering::SeqCst) != 0
    }

    /// The current mode.
    pub fn mode(&self) -> StopMode {
        match self.flag.load(Ordering::SeqCst) {
            0 => StopMode::Running,
            1 => StopMode::Graceful,
            _ => StopMode::Abandon,
        }
    }
}

/// One step of a cooperative source (see [`SourceOperator::poll_produce`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourcePoll {
    /// Emitted at least one frame; poll again soon.
    Produced,
    /// Nothing available right now; poll again after a backoff.
    Idle,
    /// Input exhausted; the engine will close the output.
    Done,
}

/// A self-driving operator (runs a loop producing frames).
pub trait SourceOperator: Send {
    /// Produce frames into `output` until done or `stop` fires. The engine
    /// calls `output.open()` before and `output.close()`/`fail()` after.
    /// Only non-cooperative sources are driven this way; cooperative ones
    /// keep the default, which has no blocking loop to run.
    fn run(&mut self, _output: &mut dyn FrameWriter, _stop: &StopToken) -> IngestResult<()> {
        Err(IngestError::Plan(
            "cooperative source has no blocking run loop".into(),
        ))
    }

    /// Whether this source supports slice-at-a-time execution via
    /// [`poll_produce`](SourceOperator::poll_produce).
    ///
    /// Cooperative sources run as lightweight tasks on the shared worker
    /// pool; non-cooperative ones (whose `run` blocks on I/O or channels)
    /// get a dedicated blocking thread. Default: not cooperative.
    fn cooperative(&self) -> bool {
        false
    }

    /// Produce a bounded amount of output and return, instead of looping
    /// until exhaustion. Only called when
    /// [`cooperative`](SourceOperator::cooperative) is true; must not block.
    fn poll_produce(
        &mut self,
        _output: &mut dyn FrameWriter,
        _stop: &StopToken,
    ) -> IngestResult<SourcePoll> {
        Ok(SourcePoll::Done)
    }
}

/// A frame-at-a-time operator.
pub trait UnaryOperator: Send {
    /// Called once before the first frame.
    fn open(&mut self, _output: &mut dyn FrameWriter) -> IngestResult<()> {
        Ok(())
    }
    /// Process one input frame, pushing any output frames.
    fn next_frame(&mut self, frame: DataFrame, output: &mut dyn FrameWriter) -> IngestResult<()>;
    /// Graceful end of input; flush any buffered output.
    fn close(&mut self, _output: &mut dyn FrameWriter) -> IngestResult<()> {
        Ok(())
    }
    /// Abnormal termination of the pipeline this operator belongs to.
    fn fail(&mut self) {}
}

/// The instantiated runtime of one operator partition.
pub enum OperatorRuntime {
    /// Self-driving producer.
    Source(Box<dyn SourceOperator>),
    /// Push-driven transformer/consumer.
    Unary(Box<dyn UnaryOperator>),
}

impl std::fmt::Debug for OperatorRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OperatorRuntime::Source(_) => write!(f, "OperatorRuntime::Source"),
            OperatorRuntime::Unary(_) => write!(f, "OperatorRuntime::Unary"),
        }
    }
}

// ---------------------------------------------------------------------------
// Built-in operators
// ---------------------------------------------------------------------------

/// The no-op sink terminating a Feed Collect job (§5.3.1): "doesn't process
/// any data records at runtime".
#[derive(Debug, Default)]
pub struct NullSink;

impl UnaryOperator for NullSink {
    fn next_frame(&mut self, _frame: DataFrame, _output: &mut dyn FrameWriter) -> IngestResult<()> {
        Ok(())
    }
}

/// A unary operator applying a function to each frame (maps frame → frame).
pub struct FnUnary<F>
where
    F: FnMut(DataFrame) -> IngestResult<DataFrame> + Send,
{
    f: F,
}

impl<F> FnUnary<F>
where
    F: FnMut(DataFrame) -> IngestResult<DataFrame> + Send,
{
    /// Wrap a frame-mapping closure.
    pub fn new(f: F) -> Self {
        FnUnary { f }
    }
}

impl<F> UnaryOperator for FnUnary<F>
where
    F: FnMut(DataFrame) -> IngestResult<DataFrame> + Send,
{
    fn next_frame(&mut self, frame: DataFrame, output: &mut dyn FrameWriter) -> IngestResult<()> {
        let out = (self.f)(frame)?;
        if !out.is_empty() {
            output.next_frame(out)?;
        }
        Ok(())
    }
}

/// A routing/replicating operator: evaluates a routing function once per
/// record and re-frames each record toward the output(s) the function
/// names.
///
/// Unlike [`FnUnary`], the router terminates its job edge — it owns its
/// fan-out writers outright (one per routing target, typically depositing
/// into distinct feed joints) because a Hyracks connector edge carries
/// exactly one downstream. A record routed to several targets is
/// replicated; a record routed nowhere is dropped (callers count those in
/// the routing function itself).
pub struct RouterOperator {
    route_fn: RouteFn,
    outputs: Vec<Box<dyn FrameWriter>>,
}

/// A shared routing function: maps a record to the indices of the outputs
/// that receive it.
pub type RouteFn = Arc<dyn Fn(&Record) -> Vec<usize> + Send + Sync>;

impl RouterOperator {
    /// A router fanning records out over `outputs` as directed by
    /// `route_fn` (which returns the indices of the receiving outputs).
    pub fn new(route_fn: RouteFn, outputs: Vec<Box<dyn FrameWriter>>) -> RouterOperator {
        RouterOperator { route_fn, outputs }
    }
}

impl UnaryOperator for RouterOperator {
    fn open(&mut self, _output: &mut dyn FrameWriter) -> IngestResult<()> {
        for o in &mut self.outputs {
            o.open()?;
        }
        Ok(())
    }

    fn next_frame(&mut self, frame: DataFrame, _output: &mut dyn FrameWriter) -> IngestResult<()> {
        let mut buckets: Vec<Vec<Record>> = (0..self.outputs.len()).map(|_| Vec::new()).collect();
        for rec in frame.into_records() {
            let targets = (self.route_fn)(&rec);
            // replicate only past the first target; the common single-sink
            // route moves the record
            for idx in targets.iter().skip(1) {
                if let Some(b) = buckets.get_mut(*idx) {
                    b.push(rec.clone());
                }
            }
            if let Some(first) = targets.first() {
                if let Some(b) = buckets.get_mut(*first) {
                    b.push(rec);
                }
            }
        }
        for (i, bucket) in buckets.into_iter().enumerate() {
            if !bucket.is_empty() {
                self.outputs[i].next_frame(DataFrame::from_records(bucket))?;
            }
        }
        Ok(())
    }

    fn close(&mut self, _output: &mut dyn FrameWriter) -> IngestResult<()> {
        for o in &mut self.outputs {
            o.close()?;
        }
        Ok(())
    }

    fn fail(&mut self) {
        for o in &mut self.outputs {
            o.fail();
        }
    }
}

/// A source emitting a fixed set of frames (tests and the insert path).
pub struct VecSource {
    frames: Vec<DataFrame>,
}

impl VecSource {
    /// Source over the given frames.
    pub fn new(frames: Vec<DataFrame>) -> Self {
        VecSource { frames }
    }
}

impl SourceOperator for VecSource {
    fn run(&mut self, output: &mut dyn FrameWriter, stop: &StopToken) -> IngestResult<()> {
        for frame in self.frames.drain(..) {
            if stop.is_stopped() {
                break;
            }
            output.next_frame(frame)?;
        }
        Ok(())
    }

    fn cooperative(&self) -> bool {
        true
    }

    fn poll_produce(
        &mut self,
        output: &mut dyn FrameWriter,
        stop: &StopToken,
    ) -> IngestResult<SourcePoll> {
        if stop.is_stopped() || self.frames.is_empty() {
            self.frames.clear();
            return Ok(SourcePoll::Done);
        }
        output.next_frame(self.frames.remove(0))?;
        Ok(if self.frames.is_empty() {
            SourcePoll::Done
        } else {
            SourcePoll::Produced
        })
    }
}

/// A sink collecting all records it sees into shared storage (tests,
/// experiment harnesses).
#[derive(Debug, Clone, Default)]
pub struct Collector {
    records: Arc<asterix_common::sync::Mutex<Vec<asterix_common::Record>>>,
    closed: Arc<AtomicBool>,
}

impl Collector {
    /// Fresh empty collector.
    pub fn new() -> Self {
        Collector::default()
    }

    /// Snapshot of collected records.
    pub fn records(&self) -> Vec<asterix_common::Record> {
        self.records.lock().clone()
    }

    /// Number of records collected so far.
    pub fn len(&self) -> usize {
        self.records.lock().len()
    }

    /// True if nothing collected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Did the stream close gracefully?
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }

    /// A unary operator feeding this collector.
    pub fn operator(&self) -> CollectorOp {
        CollectorOp {
            collector: self.clone(),
        }
    }
}

/// The operator side of a [`Collector`].
#[derive(Debug)]
pub struct CollectorOp {
    collector: Collector,
}

impl UnaryOperator for CollectorOp {
    fn next_frame(&mut self, frame: DataFrame, _output: &mut dyn FrameWriter) -> IngestResult<()> {
        self.collector.records.lock().extend(frame.into_records());
        Ok(())
    }

    fn close(&mut self, _output: &mut dyn FrameWriter) -> IngestResult<()> {
        self.collector.closed.store(true, Ordering::SeqCst);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asterix_common::Record;

    fn frame(ids: std::ops::Range<u64>) -> DataFrame {
        DataFrame::from_records(
            ids.map(|i| Record::tracked(asterix_common::RecordId(i), 0, "x"))
                .collect(),
        )
    }

    #[test]
    fn stop_token_fires_once_set() {
        let t = StopToken::new();
        assert!(!t.is_stopped());
        let t2 = t.clone();
        t2.stop();
        assert!(t.is_stopped());
    }

    #[test]
    fn vec_source_emits_then_respects_stop() {
        let mut src = VecSource::new(vec![frame(0..3), frame(3..6)]);
        let collector = Collector::new();
        let mut op = collector.operator();
        let mut sink = DevNull;
        let stop = StopToken::new();
        // drive manually: source -> collector
        struct Bridge<'a>(&'a mut CollectorOp, &'a mut DevNull);
        impl FrameWriter for Bridge<'_> {
            fn open(&mut self) -> IngestResult<()> {
                Ok(())
            }
            fn next_frame(&mut self, f: DataFrame) -> IngestResult<()> {
                self.0.next_frame(f, self.1)
            }
            fn close(&mut self) -> IngestResult<()> {
                self.0.close(self.1)
            }
            fn fail(&mut self) {}
        }
        let mut bridge = Bridge(&mut op, &mut sink);
        src.run(&mut bridge, &stop).unwrap();
        bridge.close().unwrap();
        assert_eq!(collector.len(), 6);
        assert!(collector.is_closed());
    }

    #[test]
    fn vec_source_stops_early() {
        let stop = StopToken::new();
        stop.stop();
        let mut src = VecSource::new(vec![frame(0..3)]);
        let mut out = DevNull;
        src.run(&mut out, &stop).unwrap();
        // no panic; frames simply skipped
    }

    #[test]
    fn fn_unary_maps_and_drops_empty() {
        let collector = Collector::new();
        let mut downstream = collector.operator();
        let mut filter = FnUnary::new(|f: DataFrame| {
            let keep: Vec<_> = f
                .into_records()
                .into_iter()
                .filter(|r| r.id.raw() % 2 == 0)
                .collect();
            Ok(DataFrame::from_records(keep))
        });
        struct W<'a>(&'a mut CollectorOp);
        impl FrameWriter for W<'_> {
            fn open(&mut self) -> IngestResult<()> {
                Ok(())
            }
            fn next_frame(&mut self, f: DataFrame) -> IngestResult<()> {
                self.0.next_frame(f, &mut DevNull)
            }
            fn close(&mut self) -> IngestResult<()> {
                Ok(())
            }
            fn fail(&mut self) {}
        }
        filter
            .next_frame(frame(0..10), &mut W(&mut downstream))
            .unwrap();
        assert_eq!(collector.len(), 5);
    }

    #[test]
    fn router_replicates_and_drops_by_route_fn() {
        struct Sink(Collector, bool);
        impl FrameWriter for Sink {
            fn open(&mut self) -> IngestResult<()> {
                self.1 = true;
                Ok(())
            }
            fn next_frame(&mut self, f: DataFrame) -> IngestResult<()> {
                self.0.records.lock().extend(f.into_records());
                Ok(())
            }
            fn close(&mut self) -> IngestResult<()> {
                self.0.closed.store(true, Ordering::SeqCst);
                Ok(())
            }
            fn fail(&mut self) {}
        }
        let (a, b) = (Collector::new(), Collector::new());
        // evens to both sinks, id 1 to sink b only, everything else dropped
        let mut router = RouterOperator::new(
            Arc::new(|r: &Record| {
                if r.id.raw().is_multiple_of(2) {
                    vec![0, 1]
                } else if r.id.raw() == 1 {
                    vec![1]
                } else {
                    vec![]
                }
            }),
            vec![
                Box::new(Sink(a.clone(), false)),
                Box::new(Sink(b.clone(), false)),
            ],
        );
        router.open(&mut DevNull).unwrap();
        router.next_frame(frame(0..6), &mut DevNull).unwrap();
        router.close(&mut DevNull).unwrap();
        let ids = |c: &Collector| {
            let mut v: Vec<u64> = c.records().iter().map(|r| r.id.raw()).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(ids(&a), vec![0, 2, 4]);
        assert_eq!(ids(&b), vec![0, 1, 2, 4]);
        assert!(a.is_closed() && b.is_closed());
    }

    #[test]
    fn null_sink_ignores_everything() {
        let mut sink = NullSink;
        sink.next_frame(frame(0..100), &mut DevNull).unwrap();
        sink.close(&mut DevNull).unwrap();
    }
}
