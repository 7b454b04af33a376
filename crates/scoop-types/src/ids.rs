//! Node, sequence-number, and storage-index identifiers, plus the node
//! bitmap the basestation embeds in query packets.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The maximum number of nodes a single deployment can address.
///
/// The paper's query packets carry a bitmap with one bit per node, which
/// "puts an upper bound to the size of the sensor network; 128 nodes in our
/// current implementation" (Section 5.5). We widen the limit to 32,768 so the
/// large scaling scenarios fit; the mechanism — one bit per addressable node
/// in every query packet — is unchanged, and the bitmap allocates words only
/// up to the highest selected id, so small deployments pay for their own
/// size, not for the limit. Raising this further requires widening
/// [`NodeId`] past `u16` (the remaining step toward 100k+ nodes).
pub const MAX_NODES: usize = 32_768;

/// Identifier of a sensor node.
///
/// The basestation is by convention [`NodeId::BASESTATION`] (id 0); ordinary
/// sensor nodes are numbered from 1. Identifiers are small integers so they
/// can be used directly as indices into per-node tables.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u16);

impl NodeId {
    /// The distinguished basestation / root node.
    pub const BASESTATION: NodeId = NodeId(0);

    /// Returns `true` if this is the basestation.
    #[inline]
    pub fn is_basestation(self) -> bool {
        self == Self::BASESTATION
    }

    /// The identifier as a `usize`, usable as a table index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_basestation() {
            write!(f, "base")
        } else {
            write!(f, "n{}", self.0)
        }
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl From<u16> for NodeId {
    fn from(v: u16) -> Self {
        NodeId(v)
    }
}

/// Monotonically increasing per-node packet sequence number.
///
/// Every outgoing packet carries its sender's current sequence number; a
/// neighbor that snoops the channel counts gaps in the sequence to estimate
/// link quality (Section 5.2, "Summary topology info").
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Debug, Serialize, Deserialize,
)]
pub struct SeqNo(pub u32);

impl SeqNo {
    /// Returns the next sequence number, wrapping on overflow.
    #[inline]
    pub fn next(self) -> SeqNo {
        SeqNo(self.0.wrapping_add(1))
    }

    /// Number of sequence numbers between `earlier` and `self`, assuming
    /// `self` was generated at or after `earlier` (wrapping arithmetic).
    #[inline]
    pub fn distance_from(self, earlier: SeqNo) -> u32 {
        self.0.wrapping_sub(earlier.0)
    }
}

/// Identifier (epoch number) of a storage index.
///
/// The basestation numbers every storage index it generates; nodes report the
/// newest complete index they hold in their summary messages, and data
/// packets carry the index id that determined their destination so that nodes
/// with a *newer* index can re-route them (Section 5.4, rule 1).
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Debug, Serialize, Deserialize,
)]
pub struct StorageIndexId(pub u32);

impl StorageIndexId {
    /// The "no index yet" sentinel: nodes that have never assembled a complete
    /// storage index report this and default to storing locally.
    pub const NONE: StorageIndexId = StorageIndexId(0);

    /// Returns the next index id.
    #[inline]
    pub fn next(self) -> StorageIndexId {
        StorageIndexId(self.0 + 1)
    }

    /// `true` if this is a real (assembled) index rather than the sentinel.
    #[inline]
    pub fn is_some(self) -> bool {
        self != Self::NONE
    }
}

/// Bitmap with one bit per addressable node, heap-backed and sized to the
/// highest selected id.
///
/// The basestation sets the bit of every node it wants an answer from and
/// embeds the bitmap in the query packet; Scoop's modified Trickle uses it
/// (together with neighbor and descendants lists) to decide whether
/// re-broadcasting a query packet is useful (Section 5.5).
///
/// Invariant: `words` never ends in a zero word, so two bitmaps selecting
/// the same nodes are represented identically and the derived
/// `PartialEq`/`Hash` stay correct regardless of insertion history.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct NodeBitmap {
    words: Vec<u64>,
}

impl NodeBitmap {
    /// An empty bitmap (no nodes selected). Allocates nothing.
    pub const fn empty() -> Self {
        NodeBitmap { words: Vec::new() }
    }

    /// A bitmap with every node in `0..n` selected.
    pub fn all(n: usize) -> Self {
        let mut bm = Self::empty();
        for i in 0..n.min(MAX_NODES) {
            bm.insert(NodeId(i as u16));
        }
        bm
    }

    /// Builds a bitmap from an iterator of node ids.
    pub fn from_nodes<I: IntoIterator<Item = NodeId>>(nodes: I) -> Self {
        let mut bm = Self::empty();
        for n in nodes {
            bm.insert(n);
        }
        bm
    }

    /// Selects `node`. Nodes above [`MAX_NODES`] are ignored.
    #[inline]
    pub fn insert(&mut self, node: NodeId) {
        let i = node.index();
        if i < MAX_NODES {
            let w = i / 64;
            if w >= self.words.len() {
                self.words.resize(w + 1, 0);
            }
            self.words[w] |= 1 << (i % 64);
        }
    }

    /// Deselects `node`.
    #[inline]
    pub fn remove(&mut self, node: NodeId) {
        let w = node.index() / 64;
        if w < self.words.len() {
            self.words[w] &= !(1 << (node.index() % 64));
            while self.words.last() == Some(&0) {
                self.words.pop();
            }
        }
    }

    /// Returns `true` if `node` is selected.
    #[inline]
    pub fn contains(&self, node: NodeId) -> bool {
        let i = node.index();
        match self.words.get(i / 64) {
            Some(w) => w & (1 << (i % 64)) != 0,
            None => false,
        }
    }

    /// Number of selected nodes.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns `true` if no node is selected.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Iterates over the selected node ids in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            (0..64)
                .filter(move |b| w & (1u64 << b) != 0)
                .map(move |b| NodeId((wi * 64 + b) as u16))
        })
    }

    /// Returns `true` if any selected node is also in `other`.
    pub fn intersects(&self, other: &NodeBitmap) -> bool {
        self.words
            .iter()
            .zip(other.words.iter())
            .any(|(a, b)| a & b != 0)
    }
}

// Hand-written (de)serialization: the wire schema is `{"words": [u64, ...]}`.
// Deserialization re-establishes the no-trailing-zero-words invariant on
// input, so equality and hashing stay canonical whatever words a file
// carries.
impl Serialize for NodeBitmap {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![(
            "words".to_string(),
            Serialize::to_value(&self.words),
        )])
    }
}

impl Deserialize for NodeBitmap {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let null = serde::Value::Null;
        let mut words: Vec<u64> = Deserialize::from_value(v.get("words").unwrap_or(&null))?;
        while words.last() == Some(&0) {
            words.pop();
        }
        Ok(NodeBitmap { words })
    }
}

impl Default for NodeBitmap {
    fn default() -> Self {
        Self::empty()
    }
}

impl fmt::Debug for NodeBitmap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<NodeId> for NodeBitmap {
    fn from_iter<T: IntoIterator<Item = NodeId>>(iter: T) -> Self {
        Self::from_nodes(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basestation_is_node_zero() {
        assert!(NodeId(0).is_basestation());
        assert!(!NodeId(1).is_basestation());
        assert_eq!(NodeId::BASESTATION.index(), 0);
    }

    #[test]
    fn node_id_display() {
        assert_eq!(format!("{}", NodeId(0)), "base");
        assert_eq!(format!("{}", NodeId(7)), "n7");
    }

    #[test]
    fn seqno_wraps() {
        let s = SeqNo(u32::MAX);
        assert_eq!(s.next(), SeqNo(0));
        assert_eq!(SeqNo(0).distance_from(SeqNo(u32::MAX)), 1);
        assert_eq!(SeqNo(10).distance_from(SeqNo(4)), 6);
    }

    #[test]
    fn storage_index_id_ordering_and_sentinel() {
        assert!(!StorageIndexId::NONE.is_some());
        let a = StorageIndexId::NONE.next();
        assert!(a.is_some());
        assert!(a.next() > a);
    }

    #[test]
    fn bitmap_insert_remove_contains() {
        let mut bm = NodeBitmap::empty();
        assert!(bm.is_empty());
        bm.insert(NodeId(3));
        bm.insert(NodeId(64));
        bm.insert(NodeId((MAX_NODES - 1) as u16));
        assert!(bm.contains(NodeId(3)));
        assert!(bm.contains(NodeId(64)));
        assert!(bm.contains(NodeId((MAX_NODES - 1) as u16)));
        assert!(!bm.contains(NodeId(4)));
        assert_eq!(bm.len(), 3);
        bm.remove(NodeId(64));
        assert!(!bm.contains(NodeId(64)));
        assert_eq!(bm.len(), 2);
    }

    #[test]
    fn bitmap_out_of_range_is_ignored() {
        let mut bm = NodeBitmap::empty();
        bm.insert(NodeId(40_000)); // above MAX_NODES, still a valid u16
        assert!(bm.is_empty());
        assert!(!bm.contains(NodeId(40_000)));
    }

    #[test]
    fn bitmap_storage_tracks_highest_selected_id() {
        // Heap-backed: an empty bitmap holds no words, and removing the
        // highest bit shrinks the storage back so equality/hashing never
        // see stale trailing zeros.
        let mut bm = NodeBitmap::empty();
        bm.insert(NodeId(3));
        bm.insert(NodeId(9_000));
        bm.remove(NodeId(9_000));
        assert_eq!(bm, NodeBitmap::from_nodes([NodeId(3)]));
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |b: &NodeBitmap| {
            let mut s = DefaultHasher::new();
            b.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&bm), h(&NodeBitmap::from_nodes([NodeId(3)])));
    }

    #[test]
    fn bitmap_serde_reads_fixed_array_era_words() {
        // Bitmaps written by the old `[u64; 8]` representation carry
        // trailing zero words; deserialization must trim them so the
        // round-tripped value equals a freshly built one.
        let legacy = format!(
            "{{\"words\":[{}]}}",
            std::iter::once("9".to_string())
                .chain(std::iter::repeat_n("0".to_string(), 7))
                .collect::<Vec<_>>()
                .join(",")
        );
        let bm: NodeBitmap = serde_json::from_str(&legacy).unwrap();
        assert_eq!(bm, NodeBitmap::from_nodes([NodeId(0), NodeId(3)]));
        let json = serde_json::to_string(&bm).unwrap();
        assert_eq!(json, "{\"words\":[9]}");
        let back: NodeBitmap = serde_json::from_str(&json).unwrap();
        assert_eq!(back, bm);
    }

    #[test]
    fn bitmap_addresses_the_256_node_scaling_scenario() {
        // MAX_NODES was raised from the paper's 128 so a 256-sensor grid
        // (257 nodes with the basestation) is addressable.
        const { assert!(MAX_NODES >= 257) };
        let bm = NodeBitmap::all(257);
        assert_eq!(bm.len(), 257);
        assert!(bm.contains(NodeId(256)));
    }

    #[test]
    fn bitmap_all_and_iter_roundtrip() {
        let bm = NodeBitmap::all(5);
        let ids: Vec<NodeId> = bm.iter().collect();
        assert_eq!(ids, (0..5).map(|i| NodeId(i as u16)).collect::<Vec<_>>());
        let bm2: NodeBitmap = ids.into_iter().collect();
        assert_eq!(bm, bm2);
    }

    #[test]
    fn bitmap_intersects() {
        let a = NodeBitmap::from_nodes([NodeId(1), NodeId(70)]);
        let b = NodeBitmap::from_nodes([NodeId(70)]);
        let c = NodeBitmap::from_nodes([NodeId(2)]);
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
    }
}
