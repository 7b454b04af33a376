//! The discrete-event queue.
//!
//! Events are ordered by simulated time; ties are broken by insertion order
//! so the simulation is fully deterministic.

use crate::packet::Packet;
use scoop_types::{NodeId, SimTime};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A pending simulation event.
#[derive(Clone, Debug)]
pub enum Event<P> {
    /// A packet arrives at `node`'s radio.
    PacketArrival {
        /// Receiving node.
        node: NodeId,
        /// The packet as transmitted.
        packet: Packet<P>,
        /// `true` if the packet was link-addressed to this node (unicast to it
        /// or broadcast); `false` if the node merely overheard it (snoop).
        addressed: bool,
    },
    /// A timer set by `node` fires.
    TimerFire {
        /// The node whose timer fires.
        node: NodeId,
        /// The opaque token the node supplied when arming the timer.
        token: u32,
    },
    /// A unicast transmission completed.
    SendResult {
        /// The sending node.
        node: NodeId,
        /// `true` if the packet was acknowledged by the link destination
        /// within the retry budget.
        delivered: bool,
        /// The packet that was sent.
        packet: Packet<P>,
    },
}

impl<P> Event<P> {
    /// The node this event should be delivered to.
    pub fn node(&self) -> NodeId {
        match self {
            Event::PacketArrival { node, .. }
            | Event::TimerFire { node, .. }
            | Event::SendResult { node, .. } => *node,
        }
    }
}

struct QueueEntry<P> {
    time: SimTime,
    seq: u64,
    event: Event<P>,
}

impl<P> PartialEq for QueueEntry<P> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<P> Eq for QueueEntry<P> {}
impl<P> PartialOrd for QueueEntry<P> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<P> Ord for QueueEntry<P> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse so the earliest event pops first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A time-ordered queue of pending events: one binary heap keyed by
/// `(time, seq)`, where `seq` is the insertion counter.
pub struct EventQueue<P> {
    heap: BinaryHeap<QueueEntry<P>>,
    next_seq: u64,
}

impl<P> EventQueue<P> {
    /// An empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty queue with room for `cap` events before reallocating. The
    /// backing storage only ever grows, so capacity established during
    /// warm-up is recycled across the whole simulation.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            next_seq: 0,
        }
    }

    /// Number of events the queue can hold without reallocating.
    pub fn capacity(&self) -> usize {
        self.heap.capacity()
    }

    /// Schedules `event` at absolute time `time`.
    pub fn push(&mut self, time: SimTime, event: Event<P>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(QueueEntry { time, seq, event });
    }

    /// Removes and returns the earliest event, along with its time.
    pub fn pop(&mut self) -> Option<(SimTime, Event<P>)> {
        self.heap.pop().map(|e| (e.time, e.event))
    }

    /// The time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<P> Default for EventQueue<P> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.push(
            SimTime::from_secs(5),
            Event::TimerFire {
                node: NodeId(1),
                token: 5,
            },
        );
        q.push(
            SimTime::from_secs(1),
            Event::TimerFire {
                node: NodeId(1),
                token: 1,
            },
        );
        q.push(
            SimTime::from_secs(3),
            Event::TimerFire {
                node: NodeId(1),
                token: 3,
            },
        );
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(t, _)| t.as_secs())
            .collect();
        assert_eq!(order, vec![1, 3, 5]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q: EventQueue<()> = EventQueue::new();
        for token in 0..10 {
            q.push(
                SimTime::from_secs(2),
                Event::TimerFire {
                    node: NodeId(0),
                    token,
                },
            );
        }
        let tokens: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::TimerFire { token, .. } => token,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(tokens, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn peek_and_len() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(
            SimTime::from_secs(9),
            Event::TimerFire {
                node: NodeId(2),
                token: 0,
            },
        );
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(9)));
    }

    #[test]
    fn interleaved_push_pop_matches_a_sorted_reference() {
        // Model test: pushes and pops interleave, with many equal times, and
        // every pop must return the smallest pending `(time, insertion
        // index)` — exactly what a sorted reference list yields.
        let mut q: EventQueue<()> = EventQueue::new();
        let mut reference: Vec<(u64, u32)> = Vec::new();
        let mut state = 0x9e37_79b9_u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut popped = 0;
        for token in 0..2000u32 {
            let t = next() % 17;
            let node = NodeId((token % 40) as u16);
            q.push(SimTime::from_secs(t), Event::TimerFire { node, token });
            reference.push((t, token));
            reference.sort_unstable();
            // Zero, one or two pops per push: the queue random-walks, often
            // back down to empty.
            for _ in 0..next() % 3 {
                assert_eq!(
                    q.peek_time().map(SimTime::as_secs),
                    reference.first().map(|r| r.0)
                );
                let Some((t, Event::TimerFire { token, .. })) = q.pop() else {
                    assert!(reference.is_empty());
                    continue;
                };
                assert_eq!((t.as_secs(), token), reference.remove(0));
                popped += 1;
            }
            assert_eq!(q.len(), reference.len());
        }
        assert!(popped > 1000, "the pops must interleave with the pushes");
    }

    #[test]
    fn event_node_accessor() {
        let e: Event<()> = Event::TimerFire {
            node: NodeId(7),
            token: 1,
        };
        assert_eq!(e.node(), NodeId(7));
    }
}
