//! The trace container: an ordered sequence of sharing events plus the
//! final sharer state of memory.

use crate::{LineAddr, SharingBitmap, SharingEvent, TraceStats, MAX_NODES};
use std::collections::HashMap;

/// An ordered coherence trace for one program run on an `n`-node machine.
///
/// A trace is the complete input to a sharing-prediction experiment. It
/// contains every coherence store miss ([`SharingEvent`]) in program order
/// plus, for each line, the set of readers at the end of the run
/// ([`final_readers`](Self::set_final_readers)). Together these determine
/// the ground-truth *actual* bitmap of every event — the readers of the
/// interval between the event and the next write to the same line — which
/// [`resolve_actuals`](Self::resolve_actuals) computes (the paper's
/// "first pass through the trace and the final state of the memory",
/// Section 5.1).
///
/// # Example
///
/// ```
/// use csp_trace::{NodeId, Pc, LineAddr, SharingBitmap, SharingEvent, Trace};
///
/// let mut t = Trace::new(16);
/// t.push(SharingEvent::new(NodeId(0), Pc(1), LineAddr(9), NodeId(1),
///                          SharingBitmap::empty(), None));
/// t.set_final_readers(LineAddr(9), SharingBitmap::from_nodes(&[NodeId(4)]));
/// let actuals = t.resolve_actuals();
/// assert_eq!(actuals[0], SharingBitmap::from_nodes(&[NodeId(4)]));
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Trace {
    nodes: usize,
    events: Vec<SharingEvent>,
    final_readers: HashMap<LineAddr, SharingBitmap>,
}

impl Trace {
    /// Creates an empty trace for an `nodes`-node machine.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero or exceeds [`MAX_NODES`].
    pub fn new(nodes: usize) -> Self {
        assert!(
            nodes > 0 && nodes <= MAX_NODES,
            "node count must be in 1..={MAX_NODES}, got {nodes}"
        );
        Trace {
            nodes,
            events: Vec::new(),
            final_readers: HashMap::new(),
        }
    }

    /// The machine's node count.
    #[inline]
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The events of the trace, in program order.
    #[inline]
    pub fn events(&self) -> &[SharingEvent] {
        &self.events
    }

    /// Number of events (coherence store misses) in the trace.
    #[inline]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` if the trace contains no events.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Appends an event.
    ///
    /// # Panics
    ///
    /// Panics (debug builds assert, release builds check explicitly) if the
    /// event references a node id at or beyond the machine width.
    pub fn push(&mut self, event: SharingEvent) {
        assert!(
            event.writer.index() < self.nodes && event.home.index() < self.nodes,
            "event references node outside the {}-node machine",
            self.nodes
        );
        assert!(
            event.invalidated.masked(self.nodes) == event.invalidated,
            "invalidated bitmap references node outside the {}-node machine",
            self.nodes
        );
        self.events.push(event);
    }

    /// Records the set of nodes holding `line` as readers at the end of the
    /// run. Used to resolve the actual bitmap of the *last* write to each
    /// line, which no later invalidation ever reports.
    pub fn set_final_readers(&mut self, line: LineAddr, readers: SharingBitmap) {
        self.final_readers.insert(line, readers.masked(self.nodes));
    }

    /// The recorded final readers of `line`, if any.
    pub fn final_readers(&self, line: LineAddr) -> Option<SharingBitmap> {
        self.final_readers.get(&line).copied()
    }

    /// Computes the ground-truth *actual* bitmap of every event: the nodes
    /// that read the event's line between this write and the next write to
    /// the same line (with the event's own writer always excluded — its
    /// accesses hit its own modified copy).
    ///
    /// For every event except the last one per line, this is the
    /// `invalidated` feedback of the *next* event on the same line. For the
    /// last event per line it is the final reader set recorded by
    /// [`set_final_readers`](Self::set_final_readers) (empty if none was
    /// recorded).
    ///
    /// The returned vector is parallel to [`events`](Self::events).
    pub fn resolve_actuals(&self) -> Vec<SharingBitmap> {
        self.resolve_actuals_linked(|_, _| {})
    }

    /// [`resolve_actuals`](Self::resolve_actuals), also reporting every
    /// same-line link the pass walks: `link(prev, next)` is called once
    /// per event `next` that has an earlier event on its line, with `prev`
    /// the latest such event.
    pub(crate) fn resolve_actuals_linked(
        &self,
        mut link: impl FnMut(usize, usize),
    ) -> Vec<SharingBitmap> {
        let mut actuals = vec![SharingBitmap::empty(); self.events.len()];
        // Index of the most recent event per line, waiting for its actual.
        let mut open: HashMap<LineAddr, usize> = HashMap::new();
        for (i, e) in self.events.iter().enumerate() {
            if let Some(prev) = open.insert(e.line, i) {
                actuals[prev] = e.invalidated.without(self.events[prev].writer);
                link(prev, i);
            }
        }
        for (line, idx) in open {
            let readers = self
                .final_readers
                .get(&line)
                .copied()
                .unwrap_or(SharingBitmap::empty());
            actuals[idx] = readers.without(self.events[idx].writer);
        }
        actuals
    }

    /// Total number of set bits over all actual bitmaps — the paper's
    /// "dynamic sharing events" (Table 6 numerator).
    pub fn dynamic_sharing_events(&self) -> u64 {
        self.resolve_actuals()
            .iter()
            .map(|b| u64::from(b.count()))
            .sum()
    }

    /// Total number of per-node sharing decisions — the paper's Table 6
    /// denominator: one decision per node per coherence store miss.
    pub fn dynamic_sharing_decisions(&self) -> u64 {
        self.events.len() as u64 * self.nodes as u64
    }

    /// Prevalence of sharing: set bits over all decisions (Section 5.3).
    /// Returns 0 for an empty trace.
    pub fn prevalence(&self) -> f64 {
        let d = self.dynamic_sharing_decisions();
        if d == 0 {
            0.0
        } else {
            self.dynamic_sharing_events() as f64 / d as f64
        }
    }

    /// Computes the Table 5-style statistics of this trace.
    pub fn stats(&self) -> TraceStats {
        TraceStats::from_trace(self)
    }

    /// The invalidation-pattern histogram of Weber & Gupta (the paper's
    /// reference \[28\], which it equates prevalence with): `hist[k]` counts
    /// the events whose actual reader set has exactly `k` members, for
    /// `k` in `0..=nodes`.
    ///
    /// ```
    /// use csp_trace::{NodeId, Pc, LineAddr, SharingBitmap, SharingEvent, Trace};
    /// let mut t = Trace::new(4);
    /// t.push(SharingEvent::new(NodeId(0), Pc(1), LineAddr(9), NodeId(1),
    ///                          SharingBitmap::empty(), None));
    /// t.set_final_readers(LineAddr(9), SharingBitmap::from_nodes(&[NodeId(2), NodeId(3)]));
    /// assert_eq!(t.sharing_degree_histogram()[2], 1);
    /// ```
    pub fn sharing_degree_histogram(&self) -> Vec<u64> {
        let mut hist = vec![0u64; self.nodes + 1];
        for actual in self.resolve_actuals() {
            hist[actual.count() as usize] += 1;
        }
        hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NodeId, Pc};

    fn ev(
        writer: u8,
        pc: u32,
        line: u64,
        invalidated: &[u8],
        prev: Option<(u8, u32)>,
    ) -> SharingEvent {
        SharingEvent::new(
            NodeId(writer),
            Pc(pc),
            LineAddr(line),
            NodeId((line % 4) as u8),
            invalidated.iter().map(|&n| NodeId(n)).collect(),
            prev.map(|(n, p)| (NodeId(n), Pc(p))),
        )
    }

    #[test]
    fn new_trace_is_empty() {
        let t = Trace::new(16);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.nodes(), 16);
        assert_eq!(t.prevalence(), 0.0);
    }

    #[test]
    #[should_panic(expected = "node count")]
    fn zero_nodes_rejected() {
        let _ = Trace::new(0);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn push_rejects_out_of_range_writer() {
        let mut t = Trace::new(4);
        t.push(ev(7, 0, 0, &[], None));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn push_rejects_out_of_range_bitmap() {
        let mut t = Trace::new(4);
        t.push(ev(0, 0, 0, &[9], None));
    }

    #[test]
    fn actuals_come_from_next_invalidation() {
        let mut t = Trace::new(8);
        t.push(ev(0, 1, 10, &[], None)); // first write to line 10
        t.push(ev(1, 2, 11, &[], None)); // unrelated line
        t.push(ev(2, 3, 10, &[3, 4], Some((0, 1)))); // invalidates readers of event 0
        let a = t.resolve_actuals();
        assert_eq!(a[0], SharingBitmap::from_nodes(&[NodeId(3), NodeId(4)]));
        assert_eq!(a[1], SharingBitmap::empty()); // no final readers recorded
        assert_eq!(a[2], SharingBitmap::empty()); // last event on line 10
    }

    #[test]
    fn actuals_exclude_own_writer() {
        let mut t = Trace::new(8);
        t.push(ev(0, 1, 10, &[], None));
        // The next write's invalidated set claims node 0 read it; node 0 is
        // event 0's writer, so it must be excluded from event 0's actual.
        t.push(ev(2, 3, 10, &[0, 5], Some((0, 1))));
        let a = t.resolve_actuals();
        assert_eq!(a[0], SharingBitmap::from_nodes(&[NodeId(5)]));
    }

    #[test]
    fn last_event_uses_final_readers() {
        let mut t = Trace::new(8);
        t.push(ev(0, 1, 10, &[], None));
        t.set_final_readers(LineAddr(10), SharingBitmap::from_nodes(&[NodeId(6)]));
        let a = t.resolve_actuals();
        assert_eq!(a[0], SharingBitmap::from_nodes(&[NodeId(6)]));
    }

    #[test]
    fn prevalence_counts_bits_over_decisions() {
        let mut t = Trace::new(4);
        t.push(ev(0, 1, 10, &[], None));
        t.push(ev(1, 2, 10, &[2, 3], Some((0, 1))));
        // 2 events x 4 nodes = 8 decisions, event 0 actual has 2 bits.
        assert_eq!(t.dynamic_sharing_decisions(), 8);
        assert_eq!(t.dynamic_sharing_events(), 2);
        assert!((t.prevalence() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn final_readers_masked_to_machine() {
        let mut t = Trace::new(4);
        t.set_final_readers(LineAddr(1), SharingBitmap::from_bits(u64::MAX));
        assert_eq!(t.final_readers(LineAddr(1)), Some(SharingBitmap::all(4)));
        assert_eq!(t.final_readers(LineAddr(2)), None);
    }
}
