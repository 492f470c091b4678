//! The congestion controller (Chapter 7).
//!
//! "An expensive UDF or an increased rate of arrival of data may lead to an
//! excessive demand for resources leading to delays in the processing of
//! records" (§7.1). Every intake operator applies a [`FlowController`] to
//! the frames it pulls off its joint, inline on its own scheduler slice:
//! the controller owns the intake's output writer and forwards a frame
//! straight into it. A frame is *excess* when it cannot be forwarded now —
//! older deferred frames are still pending, or the output reports
//! [`FrameWriter::is_saturated`], the same port state the executor checks
//! before it polls the intake. The connection's ingestion policy decides
//! the fate of excess (Table 4.2):
//!
//! * **Buffer** (Basic) — excess is held in memory; exhausting the memory
//!   budget terminates the feed;
//! * **Spill** — excess is serialized to the local "disk" and re-processed
//!   as soon as the pipeline catches up; a full spill file escalates to the
//!   policy's overflow strategy;
//! * **Discard** — excess frames are dropped until the backlog clears
//!   (producing the contiguous gaps of Fig 7.9);
//! * **Throttle** — records are randomly sampled down to a keep-fraction
//!   (the uniform thinning of Fig 7.10); the kept fraction waits in the
//!   controller and the intake pulls no more input until it is forwarded
//!   ([`FlowController::is_pacing`]);
//! * **Elastic** — a scale-out request is signalled to the Central Feed
//!   Manager and excess is buffered while the pipeline is restructured.
//!
//! Nothing here blocks: while the output is saturated deferred work simply
//! stays deferred and the intake yields, and [`FlowController::finish`]
//! reports "not yet" instead of waiting for the output to drain.

use crate::metrics::FeedMetrics;
use crate::policy::{ExcessStrategy, IngestionPolicy};
use asterix_common::{DataFrame, FeedId, IngestError, IngestResult};
use asterix_hyracks::operator::FrameWriter;
use asterix_hyracks::transport::{encode_msg, FrameDecoder, WireMsg};
use crossbeam_channel::Sender;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::Arc;

/// A scale-out request emitted under the Elastic policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElasticRequest {
    /// Key of the congested connection.
    pub connection_key: String,
}

/// Serialized frames on the simulated local disk. Each segment is one
/// frame in the wire codec of [`asterix_hyracks::transport`], so the
/// generation stamp spills with each record and ingestion lag keeps
/// counting time spent on disk.
#[derive(Debug, Default)]
pub struct SpillFile {
    segments: VecDeque<Vec<u8>>,
    bytes: usize,
    encodes: u64,
}

impl SpillFile {
    /// Append a frame (serialized).
    pub fn push(&mut self, frame: &DataFrame) {
        let mut buf = Vec::with_capacity(frame.size_bytes() + 16);
        encode_msg(&WireMsg::Frame(frame.clone()), &mut buf);
        self.encodes += 1;
        self.bytes += buf.len();
        self.segments.push_back(buf);
    }

    /// Detach the oldest segment without decoding it.
    pub fn pop_segment(&mut self) -> Option<Vec<u8>> {
        let buf = self.segments.pop_front()?;
        self.bytes -= buf.len();
        Some(buf)
    }

    /// Decode one serialized segment back into a frame.
    pub fn decode_segment(buf: &[u8]) -> IngestResult<DataFrame> {
        let mut decoder = FrameDecoder::new();
        decoder.feed(buf);
        match decoder.next_msg()? {
            Some(WireMsg::Frame(frame)) => Ok(frame),
            _ => Err(IngestError::Parse("spill segment is not one frame".into())),
        }
    }

    /// Read back the oldest frame.
    pub fn pop(&mut self) -> Option<DataFrame> {
        let buf = self.pop_segment()?;
        // every segment was written by `push` in this process
        Some(SpillFile::decode_segment(&buf).expect("spill segment decodes"))
    }

    /// Bytes currently on disk.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Any spilled frames waiting?
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// How many frame serializations this file performed. De-spilling never
    /// re-encodes, so this counts each spilled frame exactly once.
    pub fn encode_count(&self) -> u64 {
        self.encodes
    }
}

/// The per-pipeline congestion controller: a synchronous policy object the
/// intake applies on its own slice.
pub struct FlowController {
    policy: IngestionPolicy,
    metrics: Arc<FeedMetrics>,
    output: Box<dyn FrameWriter>,
    backlog: VecDeque<DataFrame>,
    backlog_bytes: usize,
    spill: SpillFile,
    /// A throttled kept fraction waits in the backlog for room.
    pacing: bool,
    rng: SmallRng,
    elastic_tx: Option<Sender<ElasticRequest>>,
    feed: FeedId,
    connection_key: String,
    elastic_signalled: bool,
}

impl FlowController {
    /// Apply policy-governed flow control in front of `output`, an opened
    /// writer whose [`FrameWriter::is_saturated`] is the congestion sensor.
    pub fn new(
        policy: IngestionPolicy,
        metrics: Arc<FeedMetrics>,
        output: Box<dyn FrameWriter>,
        feed: FeedId,
        connection_key: impl Into<String>,
        elastic_tx: Option<Sender<ElasticRequest>>,
    ) -> FlowController {
        FlowController {
            policy,
            metrics,
            output,
            backlog: VecDeque::new(),
            backlog_bytes: 0,
            spill: SpillFile::default(),
            pacing: false,
            rng: SmallRng::seed_from_u64(0xF10C),
            elastic_tx,
            feed,
            connection_key: connection_key.into(),
            elastic_signalled: false,
        }
    }

    /// Move backlog / spillage downstream while the output has room.
    /// Returns true if everything deferred has drained.
    pub fn drain_deferred(&mut self) -> IngestResult<bool> {
        // memory backlog first (it is older under Basic; under Spill the
        // memory backlog only holds adopted frames)
        let room = loop {
            if self.output.is_saturated() {
                break false;
            }
            if let Some(frame) = self.backlog.pop_front() {
                self.backlog_bytes -= frame.size_bytes();
                self.metrics.buffer_bytes.set(self.backlog_bytes as u64);
                self.output.next_frame(frame)?;
            } else if let Some(segment) = self.spill.pop_segment() {
                self.metrics.spill_bytes.set(self.spill.bytes() as u64);
                let frame = SpillFile::decode_segment(&segment)?;
                let n = frame.len() as u64;
                self.output.next_frame(frame)?;
                self.metrics.records_despilled.add(n);
            } else {
                // everything deferred has drained with room to spare
                break true;
            }
        };
        // refresh the congestion gauge on every housekeeping pass, not just
        // offers — a drained-but-idle feed must read as depth 0 or the
        // governor would keep seeing the last congested value forever
        self.metrics
            .handoff_queue_frames
            .set(self.output.queued_frames() as u64);
        if self.backlog.is_empty() {
            self.pacing = false;
        }
        // Nothing deferred and room downstream: the congestion episode is
        // over. Re-arm the elastic signal so the *next* episode can request
        // scale-out again — without this a feed could only ever signal once
        // in its lifetime.
        if room {
            self.elastic_signalled = false;
        }
        Ok(self.backlog.is_empty() && self.spill.is_empty())
    }

    /// True while a throttled kept fraction waits for room: the intake must
    /// pull no more input until it is forwarded — throttling "regulates the
    /// rate of inflow".
    pub fn is_pacing(&self) -> bool {
        self.pacing
    }

    /// Offer one frame to the pipeline, applying the ingestion policy to any
    /// excess. Never blocks.
    pub fn offer(&mut self, frame: DataFrame) -> IngestResult<()> {
        // forward only when nothing older is deferred and there is room;
        // anything else is excess
        if self.drain_deferred()? && !self.output.is_saturated() {
            return self.output.next_frame(frame);
        }
        self.handle_excess(frame)
    }

    fn handle_excess(&mut self, frame: DataFrame) -> IngestResult<()> {
        match self.policy.primary_excess_strategy() {
            ExcessStrategy::Buffer => self.buffer_excess(frame),
            ExcessStrategy::Spill => self.spill_excess(frame),
            ExcessStrategy::Discard => {
                self.metrics.records_discarded.add(frame.len() as u64);
                Ok(())
            }
            ExcessStrategy::Throttle => self.throttle_excess(frame),
            ExcessStrategy::Elastic => {
                if !self.elastic_signalled {
                    self.elastic_signalled = true;
                    self.metrics.elastic_scaleouts.add(1);
                    if let Some(tx) = &self.elastic_tx {
                        let _ = tx.send(ElasticRequest {
                            connection_key: self.connection_key.clone(),
                        });
                    }
                }
                // buffer while the CFM restructures the pipeline
                self.buffer_excess(frame)
            }
        }
    }

    /// Allow a later congestion episode to signal scale-out again.
    pub fn reset_elastic_signal(&mut self) {
        self.elastic_signalled = false;
    }

    fn push_backlog(&mut self, frame: DataFrame) {
        self.backlog_bytes += frame.size_bytes();
        self.backlog.push_back(frame);
        self.metrics.buffer_bytes.set(self.backlog_bytes as u64);
    }

    fn buffer_excess(&mut self, frame: DataFrame) -> IngestResult<()> {
        if self.backlog_bytes + frame.size_bytes() > self.policy.memory_budget_bytes {
            return Err(IngestError::FeedTerminated {
                feed: self.feed,
                reason: format!(
                    "policy {}: in-memory excess buffer exceeded {} bytes",
                    self.policy.name, self.policy.memory_budget_bytes
                ),
            });
        }
        self.push_backlog(frame);
        Ok(())
    }

    fn spill_excess(&mut self, frame: DataFrame) -> IngestResult<()> {
        if let Some(max) = self.policy.max_spill_bytes {
            if self.spill.bytes() + frame.size_bytes() > max {
                // spill exhausted → overflow strategy (Listing 4.6)
                return match self.policy.overflow_strategy() {
                    ExcessStrategy::Throttle => self.throttle_excess(frame),
                    _ => {
                        self.metrics.records_discarded.add(frame.len() as u64);
                        Ok(())
                    }
                };
            }
        }
        self.metrics.records_spilled.add(frame.len() as u64);
        self.spill.push(&frame);
        self.metrics.spill_bytes.set(self.spill.bytes() as u64);
        Ok(())
    }

    fn throttle_excess(&mut self, frame: DataFrame) -> IngestResult<()> {
        let keep = self.policy.throttle_keep_fraction;
        let mut kept = Vec::new();
        let mut dropped = 0u64;
        for r in frame.into_records() {
            if self.rng.gen::<f64>() < keep {
                kept.push(r);
            } else {
                dropped += 1;
            }
        }
        self.metrics.records_throttled.add(dropped);
        if kept.is_empty() {
            return Ok(());
        }
        let frame = DataFrame::from_records(kept);
        // FIFO: older deferred data must reach the pipeline before the kept
        // fraction, so while anything is spilled or buffered the frame joins
        // the back of that structure instead of jumping the queue.
        if !self.spill.is_empty() {
            let n = frame.len() as u64;
            self.metrics.records_spilled.add(n);
            self.spill.push(&frame);
            self.metrics.spill_bytes.set(self.spill.bytes() as u64);
            return Ok(());
        }
        if !self.backlog.is_empty() {
            return self.buffer_excess(frame);
        }
        // nothing deferred but no room: the kept fraction waits here (outside
        // the memory budget, it is one frame) and the intake stops pulling
        self.push_backlog(frame);
        self.pacing = true;
        Ok(())
    }

    /// Records currently deferred (backlog + spill) — used for zombie state.
    pub fn take_deferred(&mut self) -> Vec<DataFrame> {
        let mut out: Vec<DataFrame> = self.backlog.drain(..).collect();
        self.backlog_bytes = 0;
        self.pacing = false;
        while let Some(f) = self.spill.pop() {
            out.push(f);
        }
        out
    }

    /// Pre-load deferred frames (adopting zombie state). The memory budget
    /// applies here too: frames beyond `memory_budget_bytes` fall through to
    /// the policy's excess strategy (spill/discard/terminate) rather than
    /// silently over-committing the backlog. Order is preserved — overflow
    /// lands *behind* the in-budget adopted frames (backlog drains before
    /// spill).
    pub fn adopt_deferred(&mut self, frames: Vec<DataFrame>) -> IngestResult<()> {
        self.metrics.zombie_frames_adopted.add(frames.len() as u64);
        for f in frames {
            if self.backlog_bytes + f.size_bytes() > self.policy.memory_budget_bytes {
                self.handle_excess(f)?;
                continue;
            }
            self.push_backlog(f);
        }
        Ok(())
    }

    /// Graceful end: forward everything deferred (counting despilled records
    /// as re-processed), then close the output. Returns `Ok(false)` while
    /// the output is saturated with work still deferred — the caller yields
    /// and calls again once the output drains.
    pub fn finish(&mut self) -> IngestResult<bool> {
        if !self.drain_deferred()? {
            return Ok(false);
        }
        self.output.close()?;
        Ok(true)
    }

    /// Abandon the flow (pipeline failure or rebuild); deferred frames are
    /// returned to the caller for zombie parking. The output is closed so
    /// downstream commits what already reached it.
    pub fn fail(mut self) -> Vec<DataFrame> {
        let deferred = self.take_deferred();
        let _ = self.output.close();
        deferred
    }
}

impl std::fmt::Debug for FlowController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "FlowController(policy={}, backlog={}B, spill={}B)",
            self.policy.name,
            self.backlog_bytes,
            self.spill.bytes()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asterix_common::sync::Mutex as PMutex;
    use asterix_common::{IngestError, Record, RecordId, SimClock, SimInstant};

    fn frame(ids: std::ops::Range<u64>) -> DataFrame {
        DataFrame::from_records(
            ids.map(|i| Record::tracked(RecordId(i), 0, "payload-bytes"))
                .collect(),
        )
    }

    /// Frames a stalled [`GatedSink`] holds before it reports saturation.
    const SINK_CAPACITY: usize = 2;

    /// A downstream port whose consumer runs only while the gate is open:
    /// with the gate closed it queues up to [`SINK_CAPACITY`] frames and
    /// then reports saturation, like a stalled hyracks port.
    #[derive(Clone, Default)]
    struct GatedSink {
        accepted: Arc<PMutex<Vec<DataFrame>>>,
        gate: Arc<PMutex<bool>>, // true = consumer running
        queued: Arc<PMutex<usize>>,
        closed: Arc<PMutex<bool>>,
    }

    impl GatedSink {
        fn open_gate(&self) {
            *self.gate.lock() = true;
            *self.queued.lock() = 0; // the consumer catches up
        }
        fn close_gate(&self) {
            *self.gate.lock() = false;
        }
        fn records(&self) -> usize {
            self.accepted.lock().iter().map(|f| f.len()).sum()
        }
    }

    impl FrameWriter for GatedSink {
        fn open(&mut self) -> IngestResult<()> {
            Ok(())
        }
        fn next_frame(&mut self, f: DataFrame) -> IngestResult<()> {
            assert!(
                !self.is_saturated(),
                "frame forwarded into a saturated output"
            );
            if !*self.gate.lock() {
                *self.queued.lock() += 1;
            }
            self.accepted.lock().push(f);
            Ok(())
        }
        fn close(&mut self) -> IngestResult<()> {
            *self.closed.lock() = true;
            Ok(())
        }
        fn fail(&mut self) {}
        fn is_saturated(&self) -> bool {
            *self.queued.lock() >= SINK_CAPACITY
        }
        fn queued_frames(&self) -> usize {
            *self.queued.lock()
        }
    }

    fn metrics() -> Arc<FeedMetrics> {
        FeedMetrics::with_default_bucket(SimClock::fast())
    }

    fn controller(policy: IngestionPolicy, sink: &GatedSink) -> FlowController {
        FlowController::new(
            policy,
            metrics(),
            Box::new(sink.clone()),
            FeedId(7),
            "conn-test",
            None,
        )
    }

    fn congest(fc: &mut FlowController, frames: usize) -> IngestResult<()> {
        for i in 0..frames {
            fc.offer(frame(i as u64 * 10..i as u64 * 10 + 10))?;
        }
        Ok(())
    }

    #[test]
    fn open_gate_flows_everything() {
        let sink = GatedSink::default();
        sink.open_gate();
        let m;
        {
            let mut fc = controller(IngestionPolicy::basic(), &sink);
            m = Arc::clone(&fc.metrics);
            congest(&mut fc, 10).unwrap();
            assert!(fc.finish().unwrap());
        }
        assert_eq!(sink.records(), 100);
        assert!(*sink.closed.lock());
        assert_eq!(m.records_discarded.get(), 0);
    }

    #[test]
    fn basic_buffers_excess_then_terminates_on_budget() {
        let sink = GatedSink::default(); // gate closed: full congestion
        let mut policy = IngestionPolicy::basic();
        policy.memory_budget_bytes = 2000;
        let mut fc = controller(policy, &sink);
        // first few land in the port, then the backlog, then budget blows
        let err = congest(&mut fc, 100).unwrap_err();
        assert!(matches!(err, IngestError::FeedTerminated { .. }), "{err}");
    }

    #[test]
    fn basic_backlog_drains_when_congestion_clears() {
        let sink = GatedSink::default();
        let mut fc = controller(IngestionPolicy::basic(), &sink);
        congest(&mut fc, 10).unwrap(); // port(2) + backlog(8)
        sink.open_gate();
        assert!(fc.finish().unwrap());
        assert_eq!(sink.records(), 100, "nothing lost under Basic");
    }

    #[test]
    fn discard_drops_excess_and_resumes() {
        let sink = GatedSink::default();
        let m;
        {
            let mut fc = controller(IngestionPolicy::discard(), &sink);
            m = Arc::clone(&fc.metrics);
            congest(&mut fc, 10).unwrap();
            sink.open_gate();
            assert!(fc.finish().unwrap());
        }
        let discarded = m.records_discarded.get();
        assert!(discarded > 0, "expected drops");
        assert_eq!(sink.records() as u64 + discarded, 100);
    }

    #[test]
    fn spill_defers_and_despills() {
        let sink = GatedSink::default();
        let m;
        {
            let mut fc = controller(IngestionPolicy::spill(), &sink);
            m = Arc::clone(&fc.metrics);
            congest(&mut fc, 10).unwrap();
            assert!(m.records_spilled.get() > 0);
            assert!(m.spill_bytes.get() > 0);
            sink.open_gate();
            assert!(fc.finish().unwrap());
        }
        assert_eq!(sink.records(), 100, "spill loses nothing");
        assert_eq!(m.records_despilled.get(), m.records_spilled.get());
    }

    #[test]
    fn spill_overflow_escalates_to_discard() {
        let sink = GatedSink::default();
        let mut policy = IngestionPolicy::spill();
        policy.max_spill_bytes = Some(2000);
        let m;
        {
            let mut fc = controller(policy, &sink);
            m = Arc::clone(&fc.metrics);
            congest(&mut fc, 50).unwrap();
            sink.open_gate();
            assert!(fc.finish().unwrap());
        }
        assert!(m.records_discarded.get() > 0);
        assert!(m.records_spilled.get() > 0);
    }

    #[test]
    fn spill_then_throttle_custom_policy() {
        let sink = GatedSink::default();
        let mut params = std::collections::BTreeMap::new();
        params.insert("max.spill.size.on.disk".into(), "2000".into());
        params.insert("excess.records.throttle".into(), "true".into());
        let policy = IngestionPolicy::spill()
            .extend("Spill_then_Throttle", &params)
            .unwrap();
        let m;
        {
            let mut fc = controller(policy, &sink);
            m = Arc::clone(&fc.metrics);
            congest(&mut fc, 50).unwrap();
            sink.open_gate();
            assert!(fc.finish().unwrap());
        }
        assert!(m.records_spilled.get() > 0, "spill first");
        assert!(m.records_throttled.get() > 0, "then throttle");
    }

    #[test]
    fn throttle_samples_uniformly() {
        // a stalled sink keeps the pipeline congested throughout
        let sink = GatedSink::default();
        let m;
        {
            let mut fc = controller(IngestionPolicy::throttle(), &sink);
            m = Arc::clone(&fc.metrics);
            congest(&mut fc, 100).unwrap();
            sink.open_gate();
            assert!(fc.finish().unwrap());
        }
        let dropped = m.records_throttled.get();
        assert!(dropped > 0);
        assert_eq!(sink.records() as u64 + dropped, 1000);
        // keep fraction is 0.5: roughly half of the excess records dropped
        let ratio = dropped as f64 / 1000.0;
        assert!(ratio > 0.2 && ratio < 0.8, "drop ratio {ratio}");
    }

    #[test]
    fn throttle_paces_the_intake_instead_of_blocking() {
        let sink = GatedSink::default();
        let mut fc = controller(IngestionPolicy::throttle(), &sink);
        congest(&mut fc, 2).unwrap(); // fills the stalled port
        assert!(!fc.is_pacing());
        // excess: the kept fraction waits here and the intake must stop
        // pulling; neither the offer nor finish blocks on the full output
        fc.offer(frame(20..84)).unwrap();
        assert!(fc.is_pacing(), "kept fraction must hold the intake");
        assert!(!fc.finish().unwrap(), "finish yields while saturated");
        assert!(!*sink.closed.lock());
        sink.open_gate();
        assert!(fc.drain_deferred().unwrap());
        assert!(!fc.is_pacing(), "forwarding the kept fraction releases it");
        assert!(fc.finish().unwrap());
        assert!(*sink.closed.lock());
        let throttled = fc.metrics.records_throttled.get();
        assert!(throttled > 0);
        assert_eq!(sink.records() as u64 + throttled, 84);
    }

    #[test]
    fn queue_gauge_reports_output_depth() {
        let sink = GatedSink::default();
        let mut fc = controller(IngestionPolicy::basic(), &sink);
        congest(&mut fc, 5).unwrap();
        assert_eq!(
            fc.metrics.handoff_queue_frames.get(),
            SINK_CAPACITY as u64,
            "a stalled output reads as full"
        );
        sink.open_gate();
        assert!(fc.drain_deferred().unwrap());
        assert_eq!(fc.metrics.handoff_queue_frames.get(), 0, "drained reads 0");
    }

    #[test]
    fn elastic_signals_once_and_buffers() {
        let sink = GatedSink::default();
        let (tx, rx) = crossbeam_channel::unbounded();
        let mut fc = FlowController::new(
            IngestionPolicy::elastic(),
            metrics(),
            Box::new(sink.clone()),
            FeedId(7),
            "conn42",
            Some(tx),
        );
        congest(&mut fc, 10).unwrap();
        let req = rx.try_recv().unwrap();
        assert_eq!(req.connection_key, "conn42");
        assert!(rx.try_recv().is_err(), "signalled exactly once");
        fc.reset_elastic_signal();
        congest(&mut fc, 5).unwrap();
        assert!(rx.try_recv().is_ok(), "re-signals after reset");
        sink.open_gate();
        assert!(fc.finish().unwrap());
        assert_eq!(sink.records(), 150, "elastic buffered everything");
    }

    #[test]
    fn elastic_rearms_after_congestion_clears() {
        let sink = GatedSink::default();
        let (tx, rx) = crossbeam_channel::unbounded();
        let mut fc = FlowController::new(
            IngestionPolicy::elastic(),
            metrics(),
            Box::new(sink.clone()),
            FeedId(7),
            "conn43",
            Some(tx),
        );
        // episode 1: downstream stalled, excess signals scale-out once
        congest(&mut fc, 10).unwrap();
        assert!(rx.try_recv().is_ok(), "first episode signals");
        assert!(rx.try_recv().is_err(), "exactly once per episode");
        // congestion clears: downstream unblocks and the backlog drains
        sink.open_gate();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            let drained = fc.drain_deferred().unwrap();
            if drained && sink.records() == 100 {
                break; // output has room (all delivered) and no deferred left
            }
            assert!(std::time::Instant::now() < deadline, "drain stalled");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        // the output is not saturated: the signal re-armed on its own
        fc.drain_deferred().unwrap();
        // episode 2: downstream stalls again — no manual reset needed
        sink.close_gate();
        congest(&mut fc, 10).unwrap();
        assert!(
            rx.try_recv().is_ok(),
            "re-armed after congestion cleared; second episode signals"
        );
        sink.open_gate();
        assert!(fc.finish().unwrap());
        assert_eq!(sink.records(), 200, "elastic buffered everything");
    }

    #[test]
    fn fail_returns_deferred_frames_for_zombie_parking() {
        let sink = GatedSink::default();
        let mut fc = controller(IngestionPolicy::basic(), &sink);
        congest(&mut fc, 10).unwrap();
        let deferred = fc.fail();
        let total: usize = deferred.iter().map(|f| f.len()).sum();
        assert!(total >= 70, "most frames parked, got {total}");
    }

    #[test]
    fn adopt_deferred_replays_zombie_state() {
        let sink = GatedSink::default();
        sink.open_gate();
        let mut fc = controller(IngestionPolicy::basic(), &sink);
        fc.adopt_deferred(vec![frame(0..10), frame(10..20)])
            .unwrap();
        fc.offer(frame(20..30)).unwrap();
        assert!(fc.finish().unwrap());
        assert_eq!(sink.records(), 30);
        // order preserved: adopted state first
        let first = sink.accepted.lock()[0].records()[0].id;
        assert_eq!(first, RecordId(0));
    }

    #[test]
    fn throttle_defers_kept_records_behind_older_data() {
        // regression: kept records used to be sent straight downstream,
        // overtaking adopted/buffered frames and breaking the FIFO that
        // adopt_deferred relies on
        let sink = GatedSink::default(); // stalls after two frames
        let mut fc = controller(IngestionPolicy::throttle(), &sink);
        fc.adopt_deferred(vec![
            frame(0..10),
            frame(10..20),
            frame(20..30),
            frame(30..40),
        ])
        .unwrap();
        for i in 4..12 {
            fc.offer(frame(i * 10..i * 10 + 10)).unwrap();
        }
        sink.open_gate();
        assert!(fc.finish().unwrap());
        let mut last: Option<RecordId> = None;
        for f in sink.accepted.lock().iter() {
            for r in f.records() {
                if let Some(prev) = last {
                    assert!(
                        r.id > prev,
                        "throttled records overtook older data: {} after {}",
                        r.id,
                        prev
                    );
                }
                last = Some(r.id);
            }
        }
        assert!(last.is_some(), "nothing delivered");
    }

    #[test]
    fn budget_blowout_reports_real_feed_id() {
        // regression: the FeedTerminated error used to hardcode FeedId(0)
        let sink = GatedSink::default(); // gate closed: full congestion
        let mut policy = IngestionPolicy::basic();
        policy.memory_budget_bytes = 2000;
        let mut fc = controller(policy, &sink);
        let err = congest(&mut fc, 100).unwrap_err();
        match err {
            IngestError::FeedTerminated { feed, .. } => {
                assert_eq!(feed, FeedId(7), "error must name the real feed")
            }
            other => panic!("expected FeedTerminated, got {other}"),
        }
    }

    #[test]
    fn failed_despill_requeues_without_reencoding() {
        // regression: a failed de-spill used to rebuild the whole SpillFile
        // by popping and re-serializing every remaining frame (O(spill) per
        // drain attempt); a segment is now only taken when there is room
        let sink = GatedSink::default(); // gate closed
        let mut fc = controller(IngestionPolicy::spill(), &sink);
        congest(&mut fc, 10).unwrap(); // port(2) + spill
        let encodes_after_spill = fc.spill.encode_count();
        assert!(
            (7..=8).contains(&encodes_after_spill),
            "each excess frame encoded once, got {encodes_after_spill}"
        );
        for _ in 0..5 {
            // the output is saturated: no drain may touch the encoder
            assert!(!fc.drain_deferred().unwrap());
        }
        assert_eq!(
            fc.spill.encode_count(),
            encodes_after_spill,
            "failed de-spills must not re-encode surviving segments"
        );
        sink.open_gate();
        assert!(fc.finish().unwrap());
        assert_eq!(sink.records(), 100, "re-queues lost nothing");
    }

    #[test]
    fn adopted_overflow_spills_under_spill_policy() {
        let sink = GatedSink::default();
        let mut policy = IngestionPolicy::spill();
        // budget admits exactly one adopted frame; the rest must spill
        policy.memory_budget_bytes = frame(0..10).size_bytes() + 1;
        let m;
        {
            let mut fc = controller(policy, &sink);
            m = Arc::clone(&fc.metrics);
            fc.adopt_deferred(vec![frame(0..10), frame(10..20), frame(20..30)])
                .unwrap();
            assert!(
                m.records_spilled.get() >= 20,
                "overflow beyond the budget must hit the excess strategy"
            );
            sink.open_gate();
            assert!(fc.finish().unwrap());
        }
        assert_eq!(sink.records(), 30, "spilled adoptions lose nothing");
        assert_eq!(m.zombie_frames_adopted.get(), 3);
        // order preserved: in-budget backlog first, spilled overflow after
        let first = sink.accepted.lock()[0].records()[0].id;
        assert_eq!(first, RecordId(0));
    }

    #[test]
    fn adopted_overflow_terminates_under_basic_policy() {
        let sink = GatedSink::default();
        let mut policy = IngestionPolicy::basic();
        policy.memory_budget_bytes = frame(0..10).size_bytes() + 1;
        let mut fc = controller(policy, &sink);
        let err = fc
            .adopt_deferred(vec![frame(0..10), frame(10..20)])
            .unwrap_err();
        assert!(matches!(err, IngestError::FeedTerminated { .. }), "{err}");
    }

    #[test]
    fn adopted_overflow_drops_under_discard_policy() {
        let sink = GatedSink::default();
        let mut policy = IngestionPolicy::discard();
        policy.memory_budget_bytes = frame(0..10).size_bytes() + 1;
        let m;
        {
            let mut fc = controller(policy, &sink);
            m = Arc::clone(&fc.metrics);
            fc.adopt_deferred(vec![frame(0..10), frame(10..20), frame(20..30)])
                .unwrap();
            sink.open_gate();
            assert!(fc.finish().unwrap());
        }
        assert_eq!(m.records_discarded.get(), 20);
        assert_eq!(sink.records(), 10, "in-budget frame survives");
    }

    #[test]
    fn spill_file_roundtrip() {
        let mut sf = SpillFile::default();
        assert!(sf.is_empty());
        let f1 = frame(0..5);
        let f2 = frame(5..7);
        sf.push(&f1);
        sf.push(&f2);
        assert!(sf.bytes() > 0);
        assert_eq!(sf.pop().unwrap(), f1);
        assert_eq!(sf.pop().unwrap(), f2);
        assert!(sf.pop().is_none());
        assert_eq!(sf.bytes(), 0);
    }

    #[test]
    fn spill_preserves_generation_stamps() {
        let mut sf = SpillFile::default();
        let stamped = Record::tracked(RecordId(1), 0, "{\"id\":1}").stamped(SimInstant(42));
        let plain = Record::tracked(RecordId(2), 0, "{\"id\":2}");
        sf.push(&DataFrame::from_records(vec![stamped, plain]));
        let back = sf.pop().unwrap();
        assert_eq!(back.records()[0].gen_at, Some(SimInstant(42)));
        assert_eq!(back.records()[1].gen_at, None);
    }

    #[test]
    fn truncated_spill_segment_is_an_error() {
        let mut sf = SpillFile::default();
        sf.push(&frame(0..3));
        let segment = sf.pop_segment().unwrap();
        assert!(SpillFile::decode_segment(&segment[..segment.len() - 1]).is_err());
        assert!(SpillFile::decode_segment(&[]).is_err());
    }
}
