//! Connectors: the redistribution of data between operator steps.
//!
//! §5.2 names the three connectors a data ingestion pipeline uses: the
//! `OneToOneConnector`, the `HashPartitioningConnector` (store stage routes
//! each record by primary-key hash) and the `RandomPartitioningConnector`
//! (intake → compute spreads records over UDF instances).

use crate::operator::FrameWriter;
use crate::port::PortSender;
use asterix_common::{DataFrame, FrameBuilder, IngestError, IngestResult, Record};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Extracts the partitioning key hash from a record.
pub type KeyHashFn = Arc<dyn Fn(&Record) -> u64 + Send + Sync>;

/// Connector specification on a job edge.
#[derive(Clone)]
pub enum ConnectorSpec {
    /// Partition `i` of the producer feeds partition `i` of the consumer.
    /// Requires equal cardinalities.
    OneToOne,
    /// Records are routed by `hash(key) % n_consumers`.
    MNHashPartition(KeyHashFn),
    /// Records are spread round-robin over consumers (deterministic
    /// stand-in for random partitioning; same balancing behaviour).
    MNRandomPartition,
}

impl std::fmt::Debug for ConnectorSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConnectorSpec::OneToOne => write!(f, "OneToOne"),
            ConnectorSpec::MNHashPartition(_) => write!(f, "MNHashPartition"),
            ConnectorSpec::MNRandomPartition => write!(f, "MNRandomPartition"),
        }
    }
}

/// The producer-side writer for one edge: routes frames from one producer
/// partition to the consumer partitions' input queues.
pub struct RouterWriter {
    strategy: RouteStrategy,
    consumers: Vec<PortSender>,
    producer_partition: usize,
    /// per-consumer frame builders for partitioned strategies
    builders: Vec<FrameBuilder>,
    frame_capacity: usize,
}

enum RouteStrategy {
    OneToOne,
    Hash(KeyHashFn),
    RoundRobin(AtomicUsize),
}

impl RouterWriter {
    /// Build the router for `producer_partition` of an edge.
    pub fn new(
        spec: &ConnectorSpec,
        consumers: Vec<PortSender>,
        producer_partition: usize,
        frame_capacity: usize,
    ) -> IngestResult<Self> {
        let strategy = match spec {
            ConnectorSpec::OneToOne => {
                if producer_partition >= consumers.len() {
                    return Err(IngestError::Plan(format!(
                        "one-to-one connector: producer partition {} has no matching consumer \
                         ({} consumers)",
                        producer_partition,
                        consumers.len()
                    )));
                }
                RouteStrategy::OneToOne
            }
            ConnectorSpec::MNHashPartition(f) => RouteStrategy::Hash(Arc::clone(f)),
            ConnectorSpec::MNRandomPartition => RouteStrategy::RoundRobin(AtomicUsize::new(
                // offset starts per producer so producers don't gang up on
                // consumer 0
                producer_partition,
            )),
        };
        let builders = (0..consumers.len())
            .map(|_| FrameBuilder::new(frame_capacity))
            .collect();
        Ok(RouterWriter {
            strategy,
            consumers,
            producer_partition,
            builders,
            frame_capacity,
        })
    }

    fn send(&self, consumer: usize, frame: DataFrame) -> IngestResult<()> {
        self.consumers[consumer].send_frame(frame)
    }
}

impl FrameWriter for RouterWriter {
    fn open(&mut self) -> IngestResult<()> {
        Ok(())
    }

    fn next_frame(&mut self, frame: DataFrame) -> IngestResult<()> {
        match &self.strategy {
            RouteStrategy::OneToOne => self.send(self.producer_partition, frame),
            RouteStrategy::Hash(key_fn) => {
                let n = self.consumers.len();
                let mut ready: Vec<(usize, DataFrame)> = Vec::new();
                for rec in frame.into_records() {
                    let target = (key_fn(&rec) % n as u64) as usize;
                    if let Some(full) = self.builders[target].push(rec) {
                        ready.push((target, full));
                    }
                }
                for (target, f) in ready {
                    self.send(target, f)?;
                }
                // flush partials so partitioned delivery stays timely; frame
                // re-batching across input frames is a throughput nicety real
                // Hyracks has, but timeliness matters more for feeds
                for i in 0..self.consumers.len() {
                    if let Some(f) = self.builders[i].flush() {
                        self.send(i, f)?;
                    }
                }
                Ok(())
            }
            RouteStrategy::RoundRobin(next) => {
                if frame.is_empty() {
                    return Ok(());
                }
                // route whole frames round-robin: cheap and preserves batching
                // relaxed-ok: rotation cursor; only fairness depends on it,
                // frame delivery is ordered by the channel send below
                let target = next.fetch_add(1, Ordering::Relaxed) % self.consumers.len();
                self.send(target, frame)
            }
        }
    }

    fn close(&mut self) -> IngestResult<()> {
        for i in 0..self.consumers.len() {
            if let Some(f) = self.builders[i].flush() {
                self.send(i, f)?;
            }
        }
        match &self.strategy {
            RouteStrategy::OneToOne => self.consumers[self.producer_partition].send_close(),
            _ => {
                for c in &self.consumers {
                    c.send_close()?;
                }
                Ok(())
            }
        }
    }

    fn fail(&mut self) {
        match &self.strategy {
            RouteStrategy::OneToOne => {
                self.consumers[self.producer_partition].send_fail();
            }
            _ => {
                for c in &self.consumers {
                    c.send_fail();
                }
            }
        }
    }

    fn is_saturated(&self) -> bool {
        match &self.strategy {
            // a one-to-one edge only ever touches its own partition's queue
            RouteStrategy::OneToOne => self.consumers[self.producer_partition].is_saturated(),
            _ => self.consumers.iter().any(|c| c.is_saturated()),
        }
    }

    fn queued_frames(&self) -> usize {
        match &self.strategy {
            RouteStrategy::OneToOne => self.consumers[self.producer_partition].len(),
            _ => self.consumers.iter().map(|c| c.len()).max().unwrap_or(0),
        }
    }
}

impl std::fmt::Debug for RouterWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RouterWriter")
            .field("consumers", &self.consumers.len())
            .field("producer_partition", &self.producer_partition)
            .field("frame_capacity", &self.frame_capacity)
            .finish()
    }
}

/// A writer multiplexing to several downstream writers (used when an
/// operator's output must go both to a feed joint and to its job-local
/// downstream operator).
pub struct TeeWriter {
    writers: Vec<Box<dyn FrameWriter>>,
}

impl TeeWriter {
    /// Tee over the given writers.
    pub fn new(writers: Vec<Box<dyn FrameWriter>>) -> Self {
        TeeWriter { writers }
    }
}

impl FrameWriter for TeeWriter {
    fn open(&mut self) -> IngestResult<()> {
        for w in &mut self.writers {
            w.open()?;
        }
        Ok(())
    }

    fn next_frame(&mut self, frame: DataFrame) -> IngestResult<()> {
        let n = self.writers.len();
        for (i, w) in self.writers.iter_mut().enumerate() {
            if i + 1 == n {
                return w.next_frame(frame);
            }
            w.next_frame(frame.clone())?;
        }
        Ok(())
    }

    fn close(&mut self) -> IngestResult<()> {
        let mut first_err = None;
        for w in &mut self.writers {
            if let Err(e) = w.close() {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    fn fail(&mut self) {
        for w in &mut self.writers {
            w.fail();
        }
    }

    fn is_saturated(&self) -> bool {
        self.writers.iter().any(|w| w.is_saturated())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::port::{frame_port, PortPop, PortReceiver, TaskMsg};
    use asterix_common::RecordId;

    fn rec(i: u64) -> Record {
        Record::tracked(RecordId(i), 0, format!("r{i}"))
    }

    fn frame(ids: std::ops::Range<u64>) -> DataFrame {
        DataFrame::from_records(ids.map(rec).collect())
    }

    fn inputs(n: usize) -> (Vec<PortSender>, Vec<PortReceiver>) {
        (0..n).map(|_| frame_port(64)).unzip()
    }

    fn drain_records(rx: &PortReceiver) -> (Vec<Record>, usize) {
        let mut recs = Vec::new();
        let mut closes = 0;
        loop {
            match rx.pop() {
                PortPop::Msg(TaskMsg::Frame(f)) => recs.extend(f.into_records()),
                PortPop::Msg(TaskMsg::Close) => closes += 1,
                PortPop::Msg(TaskMsg::Fail) => {}
                PortPop::Empty | PortPop::Disconnected => break,
            }
        }
        (recs, closes)
    }

    #[test]
    fn one_to_one_routes_to_matching_partition() {
        let (ins, rxs) = inputs(3);
        let mut w = RouterWriter::new(&ConnectorSpec::OneToOne, ins, 1, 8).unwrap();
        w.next_frame(frame(0..4)).unwrap();
        w.close().unwrap();
        let (r0, c0) = drain_records(&rxs[0]);
        let (r1, c1) = drain_records(&rxs[1]);
        assert!(r0.is_empty());
        assert_eq!(c0, 0);
        assert_eq!(r1.len(), 4);
        assert_eq!(c1, 1);
    }

    #[test]
    fn one_to_one_cardinality_mismatch_errors() {
        let (ins, _rxs) = inputs(2);
        assert!(RouterWriter::new(&ConnectorSpec::OneToOne, ins, 5, 8).is_err());
    }

    #[test]
    fn hash_partition_routes_by_key_and_is_stable() {
        let key_fn: KeyHashFn = Arc::new(|r: &Record| r.id.raw());
        let (ins, rxs) = inputs(4);
        let mut w = RouterWriter::new(&ConnectorSpec::MNHashPartition(key_fn), ins, 0, 8).unwrap();
        w.next_frame(frame(0..100)).unwrap();
        w.close().unwrap();
        let mut total = 0;
        for (i, rx) in rxs.iter().enumerate() {
            let (recs, closes) = drain_records(rx);
            assert_eq!(closes, 1);
            for r in &recs {
                assert_eq!(r.id.raw() % 4, i as u64, "record routed to wrong partition");
            }
            total += recs.len();
        }
        assert_eq!(total, 100);
    }

    #[test]
    fn round_robin_balances_frames() {
        let (ins, rxs) = inputs(2);
        let mut w = RouterWriter::new(&ConnectorSpec::MNRandomPartition, ins, 0, 8).unwrap();
        for i in 0..10 {
            w.next_frame(frame(i * 10..i * 10 + 10)).unwrap();
        }
        w.close().unwrap();
        let (r0, _) = drain_records(&rxs[0]);
        let (r1, _) = drain_records(&rxs[1]);
        assert_eq!(r0.len(), 50);
        assert_eq!(r1.len(), 50);
    }

    #[test]
    fn round_robin_skips_empty_frames() {
        let (ins, rxs) = inputs(2);
        let mut w = RouterWriter::new(&ConnectorSpec::MNRandomPartition, ins, 0, 8).unwrap();
        w.next_frame(DataFrame::new()).unwrap();
        w.close().unwrap();
        let (r0, _) = drain_records(&rxs[0]);
        assert!(r0.is_empty());
    }

    #[test]
    fn fail_propagates_to_all_consumers() {
        let (ins, rxs) = inputs(2);
        let mut w = RouterWriter::new(&ConnectorSpec::MNRandomPartition, ins, 0, 8).unwrap();
        w.fail();
        for rx in &rxs {
            assert!(matches!(rx.pop(), PortPop::Msg(TaskMsg::Fail)));
        }
    }

    #[test]
    fn tee_duplicates_frames() {
        use crate::operator::Collector;
        struct CollectWriter(crate::operator::CollectorOp);
        impl FrameWriter for CollectWriter {
            fn open(&mut self) -> IngestResult<()> {
                Ok(())
            }
            fn next_frame(&mut self, f: DataFrame) -> IngestResult<()> {
                use crate::operator::{DevNull, UnaryOperator};
                self.0.next_frame(f, &mut DevNull)
            }
            fn close(&mut self) -> IngestResult<()> {
                use crate::operator::{DevNull, UnaryOperator};
                self.0.close(&mut DevNull)
            }
            fn fail(&mut self) {}
        }
        let (c1, c2) = (Collector::new(), Collector::new());
        let mut tee = TeeWriter::new(vec![
            Box::new(CollectWriter(c1.operator())),
            Box::new(CollectWriter(c2.operator())),
        ]);
        tee.open().unwrap();
        tee.next_frame(frame(0..5)).unwrap();
        tee.close().unwrap();
        assert_eq!(c1.len(), 5);
        assert_eq!(c2.len(), 5);
        assert!(c1.is_closed() && c2.is_closed());
    }
}
