//! Per-operation schedule traces.
//!
//! A [`Trace`] records when every FT operation started and finished, how
//! far its control travelled and how long it queued — the full mapping
//! detail the paper calls "the details of every qubit movement" (§2),
//! useful for latency breakdowns, Gantt-style inspection and debugging
//! placement decisions.

use leqa_circuit::{FtOp, NodeId};
use leqa_fabric::Micros;

/// The schedule record of one executed operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpRecord {
    /// The QODG node this record belongs to.
    pub node: NodeId,
    /// The operation.
    pub op: FtOp,
    /// When the gate itself started (after any travel and waiting).
    pub start: Micros,
    /// When the gate finished.
    pub end: Micros,
    /// Channel hops of the control's outbound trip (0 for one-qubit ops):
    /// the control→target Manhattan distance, or the length of the detour
    /// on a fabric with dead cells or channels.
    pub distance: u32,
    /// Time spent queueing at congested channels on the outbound trip.
    pub outbound_wait: Micros,
}

impl OpRecord {
    /// Gate execution time (excluding travel).
    pub fn gate_time(&self) -> Micros {
        self.end - self.start
    }
}

/// The full schedule of a mapping run, in execution order.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    records: Vec<OpRecord>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Appends a record (engine-internal).
    pub(crate) fn push(&mut self, record: OpRecord) {
        self.records.push(record);
    }

    /// The records in execution order.
    pub fn records(&self) -> &[OpRecord] {
        &self.records
    }

    /// The record with the latest end time, if any.
    pub fn last_to_finish(&self) -> Option<&OpRecord> {
        self.records
            .iter()
            .max_by(|a, b| a.end.as_f64().total_cmp(&b.end.as_f64()))
    }

    /// Total time spent queueing at channels across all records.
    pub fn total_outbound_wait(&self) -> Micros {
        self.records.iter().map(|r| r.outbound_wait).sum()
    }

    /// Aggregates the trace into summary statistics (one pass).
    pub fn stats(&self) -> TraceStats {
        let mut stats = TraceStats::default();
        for r in &self.records {
            stats.ops += 1;
            if matches!(r.op, FtOp::Cnot { .. }) {
                stats.cnot_ops += 1;
                stats.total_cnot_distance += u64::from(r.distance);
            }
            stats.total_outbound_wait += r.outbound_wait;
        }
        stats
    }

    /// Renders a fixed-width textual Gantt-style listing of the `limit`
    /// longest-running records (for human inspection).
    pub fn summary(&self, limit: usize) -> String {
        use std::fmt::Write as _;
        let mut rows: Vec<&OpRecord> = self.records.iter().collect();
        rows.sort_by(|a, b| b.gate_time().as_f64().total_cmp(&a.gate_time().as_f64()));
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>8} {:<14} {:>12} {:>12} {:>6} {:>10}",
            "node", "op", "start(µs)", "end(µs)", "dist", "wait(µs)"
        );
        for r in rows.into_iter().take(limit) {
            let _ = writeln!(
                out,
                "{:>8} {:<14} {:>12.0} {:>12.0} {:>6} {:>10.0}",
                r.node.0,
                r.op.to_string(),
                r.start.as_f64(),
                r.end.as_f64(),
                r.distance,
                r.outbound_wait.as_f64()
            );
        }
        out
    }
}

/// Summary statistics of a [`Trace`], aggregated from its records.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TraceStats {
    /// Records in the trace (executed operations).
    pub ops: u64,
    /// CNOT records.
    pub cnot_ops: u64,
    /// Sum over CNOT records of [`OpRecord::distance`]: outbound hops,
    /// which exceed the Manhattan distance where a detour was taken.
    pub total_cnot_distance: u64,
    /// Total time spent queueing at congested channels.
    pub total_outbound_wait: Micros,
}

impl TraceStats {
    /// Average control→target distance per CNOT, in ULB hops.
    ///
    /// Returns `0.0` (not NaN) for a CNOT-free trace, so downstream
    /// arithmetic and JSON encoding stay finite.
    #[must_use]
    pub fn avg_cnot_distance(&self) -> f64 {
        if self.cnot_ops == 0 {
            0.0
        } else {
            self.total_cnot_distance as f64 / self.cnot_ops as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leqa_circuit::QubitId;
    use leqa_fabric::OneQubitKind;

    fn record(node: usize, start: f64, end: f64) -> OpRecord {
        OpRecord {
            node: NodeId(node),
            op: FtOp::OneQubit {
                kind: OneQubitKind::H,
                target: QubitId(0),
            },
            start: Micros::new(start),
            end: Micros::new(end),
            distance: 0,
            outbound_wait: Micros::new(1.0),
        }
    }

    #[test]
    fn last_to_finish() {
        let mut t = Trace::new();
        t.push(record(1, 0.0, 10.0));
        t.push(record(2, 5.0, 25.0));
        t.push(record(3, 20.0, 22.0));
        assert_eq!(t.last_to_finish().unwrap().node, NodeId(2));
    }

    #[test]
    fn totals_and_gate_time() {
        let mut t = Trace::new();
        t.push(record(1, 0.0, 10.0));
        t.push(record(2, 0.0, 4.0));
        assert_eq!(t.total_outbound_wait(), Micros::new(2.0));
        assert_eq!(t.records()[0].gate_time(), Micros::new(10.0));
    }

    #[test]
    fn summary_lists_longest_first() {
        let mut t = Trace::new();
        t.push(record(1, 0.0, 5.0));
        t.push(record(2, 0.0, 50.0));
        let s = t.summary(1);
        assert!(s.contains("H q0"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 2); // header + 1 row
        assert!(lines[1].trim_start().starts_with('2'));
    }

    #[test]
    fn empty_trace() {
        let t = Trace::new();
        assert!(t.last_to_finish().is_none());
        assert_eq!(t.total_outbound_wait(), Micros::ZERO);
    }

    #[test]
    fn cnot_free_trace_has_zero_avg_distance_not_nan() {
        // Regression: `avg_cnot_distance` must not divide 0 by 0.
        let mut t = Trace::new();
        t.push(record(1, 0.0, 10.0)); // one-qubit op only
        let stats = t.stats();
        assert_eq!(stats.ops, 1);
        assert_eq!(stats.cnot_ops, 0);
        assert_eq!(stats.avg_cnot_distance(), 0.0);
        assert!(stats.avg_cnot_distance().is_finite());
        // The empty trace too.
        assert_eq!(Trace::new().stats().avg_cnot_distance(), 0.0);
    }

    #[test]
    fn stats_aggregate_cnot_distance_and_waits() {
        let mut t = Trace::new();
        t.push(record(1, 0.0, 10.0));
        t.push(OpRecord {
            node: NodeId(2),
            op: FtOp::Cnot {
                control: QubitId(0),
                target: QubitId(1),
            },
            start: Micros::new(0.0),
            end: Micros::new(5.0),
            distance: 4,
            outbound_wait: Micros::new(2.0),
        });
        t.push(OpRecord {
            node: NodeId(3),
            op: FtOp::Cnot {
                control: QubitId(1),
                target: QubitId(0),
            },
            start: Micros::new(5.0),
            end: Micros::new(9.0),
            distance: 2,
            outbound_wait: Micros::new(0.5),
        });
        let stats = t.stats();
        assert_eq!(stats.ops, 3);
        assert_eq!(stats.cnot_ops, 2);
        assert_eq!(stats.total_cnot_distance, 6);
        assert_eq!(stats.avg_cnot_distance(), 3.0);
        assert_eq!(stats.total_outbound_wait, t.total_outbound_wait());
    }
}

impl Trace {
    /// Renders the full trace as CSV (`node,op,start_us,end_us,distance,
    /// outbound_wait_us`), one record per line, for external plotting.
    pub fn to_csv(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("node,op,start_us,end_us,distance,outbound_wait_us\n");
        for r in &self.records {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{}",
                r.node.0,
                r.op.to_string().replace(' ', "_"),
                r.start.as_f64(),
                r.end.as_f64(),
                r.distance,
                r.outbound_wait.as_f64()
            );
        }
        out
    }
}

#[cfg(test)]
mod csv_tests {
    use super::*;
    use leqa_circuit::QubitId;

    #[test]
    fn csv_has_header_and_rows() {
        let mut t = Trace::new();
        t.push(OpRecord {
            node: NodeId(3),
            op: FtOp::Cnot {
                control: QubitId(0),
                target: QubitId(1),
            },
            start: Micros::new(10.0),
            end: Micros::new(20.0),
            distance: 2,
            outbound_wait: Micros::new(1.5),
        });
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "node,op,start_us,end_us,distance,outbound_wait_us"
        );
        assert_eq!(lines[1], "3,CNOT_q0_q1,10,20,2,1.5");
    }

    #[test]
    fn empty_trace_is_header_only() {
        assert_eq!(Trace::new().to_csv().lines().count(), 1);
    }
}
