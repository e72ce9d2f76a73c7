//! Key streams on traces whose same-line links break.
//!
//! A key-stream build copies an event's forward key from its forward
//! source (the previous event on its line, when that event's writer, pc
//! and home are the ones the event names as its previous writer) and
//! hashes `forward_key_of` only where that link is missing or does not
//! match. These tests pin every column of the stream against a reference
//! built from per-event `key_of`/`forward_key_of` alone, on the traces
//! where links break: windows (the first in-window write of a line names
//! a writer outside the window), line filters, hand-built mismatches,
//! and random traces cut by random windows.

use csp::core::{node_bits, IndexSpec, KeyStream, PreparedTrace, SlotData, SlotOp};
use csp::trace::{LineAddr, NodeId, Pc, ResolvedTrace, SharingBitmap, SharingEvent, Trace};
use csp::workloads::{generate_benchmark, Benchmark};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

/// The stream a key-stream build must produce, derived event by event.
/// Slot ids number the distinct keys in order of first appearance, an
/// event's predictor key before its forward key.
#[derive(Debug, PartialEq)]
struct Reference {
    keys: Vec<u64>,
    forward_keys: Vec<u64>,
    distinct_keys: usize,
    distinct_forward_keys: usize,
    slot_data: Vec<Vec<SlotData>>,
    slot_ops: Vec<Vec<(SlotOp, SharingBitmap)>>,
}

fn reference(trace: &Trace, index: IndexSpec) -> Reference {
    let nb = node_bits(trace.nodes());
    let actuals = trace.resolve_actuals();
    let mut ids: HashMap<u64, usize> = HashMap::new();
    let mut slot_data: Vec<Vec<SlotData>> = Vec::new();
    let mut slot_ops: Vec<Vec<(SlotOp, SharingBitmap)>> = Vec::new();
    let mut slot_of = |key: u64, data: &mut Vec<Vec<SlotData>>| -> usize {
        let next = ids.len();
        *ids.entry(key).or_insert_with(|| {
            data.push(Vec::new());
            slot_ops.push(Vec::new());
            next
        })
    };
    let mut ops: Vec<(usize, SlotOp, SharingBitmap)> = Vec::new();
    let (mut keys, mut forward_keys) = (Vec::new(), Vec::new());
    for (i, e) in trace.events().iter().enumerate() {
        let key = index.key_of(e, nb);
        let slot = slot_of(key, &mut slot_data);
        keys.push(key);
        match index.forward_key_of(e, nb) {
            Some(fkey) => {
                let fslot = slot_of(fkey, &mut slot_data);
                forward_keys.push(fkey);
                ops.push((fslot, SlotOp::Push, e.invalidated));
            }
            None => forward_keys.push(0),
        }
        slot_data[slot].push(SlotData {
            actual: actuals[i],
            feedback: e.invalidated,
            has_prev: e.prev_writer.is_some(),
        });
        ops.push((slot, SlotOp::Score, actuals[i]));
    }
    for (slot, op, payload) in ops {
        slot_ops[slot].push((op, payload));
    }
    let distinct_keys = keys.iter().collect::<HashSet<_>>().len();
    let distinct_forward_keys = trace
        .events()
        .iter()
        .filter_map(|e| index.forward_key_of(e, nb))
        .collect::<HashSet<_>>()
        .len();
    Reference {
        keys,
        forward_keys,
        distinct_keys,
        distinct_forward_keys,
        slot_data,
        slot_ops,
    }
}

fn observed(stream: &KeyStream) -> Reference {
    let slots = 0..stream.slot_count();
    Reference {
        keys: stream.keys().to_vec(),
        forward_keys: stream.forward_keys().to_vec(),
        distinct_keys: stream.distinct_keys(),
        distinct_forward_keys: stream.distinct_forward_keys(),
        slot_data: slots
            .clone()
            .map(|s| stream.slot_data(s).to_vec())
            .collect(),
        slot_ops: slots
            .map(|s| {
                let ops = stream.slot_ops(s).iter().copied();
                ops.zip(stream.slot_op_data(s).iter().copied()).collect()
            })
            .collect(),
    }
}

/// Index points covering every field and the degenerate single entry.
fn index_points() -> [IndexSpec; 6] {
    [
        IndexSpec::new(true, 0, false, 0),
        IndexSpec::new(true, 4, false, 0),
        IndexSpec::new(false, 0, true, 4),
        IndexSpec::new(true, 2, true, 2),
        IndexSpec::new(false, 6, false, 6),
        IndexSpec::none(),
    ]
}

/// Asserts both build paths (standalone and the prepared cache) against
/// the reference under every index point.
fn assert_streams_match(trace: &Trace) {
    let prepared = PreparedTrace::new(trace);
    for index in index_points() {
        let want = reference(trace, index);
        assert_eq!(observed(&KeyStream::compute(trace, index)), want, "{index}");
        assert_eq!(observed(&prepared.key_stream(index)), want, "{index}");
    }
}

/// Number of events with a previous writer but no forward source: the
/// ones whose forward key the build must hash.
fn unlinked(trace: &Trace) -> usize {
    let r = ResolvedTrace::new(trace);
    (0..trace.len())
        .filter(|&i| r.has_prev()[i] && r.forward_sources()[i] == ResolvedTrace::NO_SOURCE)
        .count()
}

fn simulated(benchmark: Benchmark) -> Trace {
    generate_benchmark(benchmark, 0.02, 3).trace
}

#[test]
fn simulated_traces_link_every_previous_writer() {
    for b in [Benchmark::Mp3d, Benchmark::Water] {
        let t = simulated(b);
        assert_eq!(unlinked(&t), 0, "{b}");
        assert_streams_match(&t);
    }
}

#[test]
fn windows_orphan_the_first_write_of_each_line() {
    for b in [Benchmark::Mp3d, Benchmark::Water] {
        let t = simulated(b);
        let n = t.len();
        for range in [n / 3..2 * n / 3, 1..n, n / 2..n / 2 + 1] {
            let w = t.window(range.clone());
            assert!(unlinked(&w) > 0 || range.len() < 2, "{b} {range:?}");
            assert_streams_match(&w);
        }
    }
}

#[test]
fn line_filters_keep_streams_exact() {
    let t = simulated(Benchmark::Mp3d);
    for keep in [0u64, 1, 3] {
        let f = t.filter_lines(|l| l.0 % 4 == keep);
        assert_streams_match(&f);
        // Filtering a window keeps its orphans orphaned.
        let w = t.window(t.len() / 4..t.len() / 2);
        assert_streams_match(&w.filter_lines(|l| l.0 % 4 == keep));
    }
}

#[test]
fn hand_built_mismatched_links_fall_back_to_hashing() {
    let mut t = Trace::new(16);
    let ev = |w: u8, pc: u32, line: u64, home: u8, prev: Option<(u8, u32)>| {
        SharingEvent::new(
            NodeId(w),
            Pc(pc),
            LineAddr(line),
            NodeId(home),
            SharingBitmap::from_nodes(&[NodeId(w ^ 1)]),
            prev.map(|(n, p)| (NodeId(n), Pc(p))),
        )
    };
    t.push(ev(1, 0x10, 7, 2, None));
    // Linked: names the line's last writer, same home.
    t.push(ev(2, 0x20, 7, 2, Some((1, 0x10))));
    // Names a writer other than the line's last one.
    t.push(ev(3, 0x30, 7, 2, Some((9, 0x99))));
    // Right writer, wrong pc.
    t.push(ev(4, 0x40, 7, 2, Some((3, 0x31))));
    // Right writer and pc, but a different home than the source's.
    t.push(ev(5, 0x50, 7, 6, Some((4, 0x40))));
    // An orphan on a fresh line.
    t.push(ev(6, 0x60, 8, 3, Some((5, 0x50))));
    t.set_final_readers(LineAddr(7), SharingBitmap::from_nodes(&[NodeId(11)]));
    let r = ResolvedTrace::new(&t);
    let none = ResolvedTrace::NO_SOURCE;
    assert_eq!(r.forward_sources(), &[none, 0, none, none, none, none]);
    assert_eq!(unlinked(&t), 4);
    assert_streams_match(&t);
}

const NODES: usize = 8;

/// One raw event: `(line, writer, pc, home, feedback, prev_kind)`.
type RawEvent = (u64, u8, u32, u8, u8, u8);

/// A random trace whose previous-writer chains are mostly consistent
/// (`prev_kind % 4 != 0`) and otherwise a random writer or none, with
/// per-event homes that need not agree along a line.
fn build_trace(raw: &[RawEvent], finals: &[u8]) -> Trace {
    let mut t = Trace::new(NODES);
    let mut last: HashMap<u64, (NodeId, Pc)> = HashMap::new();
    for &(line, writer, pc, home, bits, prev_kind) in raw {
        let writer = NodeId(writer % NODES as u8);
        let pc = Pc(pc % 8);
        let home = if home % 3 == 0 {
            NodeId(home % NODES as u8)
        } else {
            NodeId((line % NODES as u64) as u8)
        };
        let prev = match prev_kind % 4 {
            0 if prev_kind % 8 == 0 => None,
            0 => Some((NodeId(bits % NODES as u8), Pc(u32::from(bits) % 8))),
            _ => last.get(&line).copied(),
        };
        let invalidated = if prev.is_some() {
            SharingBitmap::from_bits(u64::from(bits)).masked(NODES)
        } else {
            SharingBitmap::empty()
        };
        t.push(SharingEvent::new(
            writer,
            pc,
            LineAddr(line),
            home,
            invalidated,
            prev,
        ));
        last.insert(line, (writer, pc));
    }
    for (line, &bits) in finals.iter().enumerate() {
        t.set_final_readers(
            LineAddr(line as u64),
            SharingBitmap::from_bits(u64::from(bits)).masked(NODES),
        );
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random traces, whole and cut by a random window, build exactly
    /// the reference stream.
    #[test]
    fn random_traces_and_windows_match_the_reference(
        raw in vec((0u64..5, any::<u8>(), any::<u32>(), any::<u8>(), any::<u8>(), any::<u8>()), 1..48),
        finals in vec(any::<u8>(), 5..6),
        cut in (any::<u16>(), any::<u16>()),
    ) {
        let trace = build_trace(&raw, &finals);
        let (a, b) = (cut.0 as usize % (trace.len() + 1), cut.1 as usize % (trace.len() + 1));
        let window = trace.window(a.min(b)..a.max(b));
        for t in [&trace, &window] {
            let prepared = PreparedTrace::new(t);
            for index in index_points() {
                let want = reference(t, index);
                prop_assert_eq!(&observed(&KeyStream::compute(t, index)), &want, "{}", index);
                prop_assert_eq!(&observed(&prepared.key_stream(index)), &want, "{}", index);
            }
        }
    }
}
