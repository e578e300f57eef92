//! Flat edge-list representation.

use crate::{Edge, Node};

/// A flat list of undirected edges.
///
/// This is the interchange format between the distributed generators
/// (each rank produces the edge list of its partition) and the analysis /
/// I/O layers. Edges are stored as emitted; use
/// [`EdgeList::canonicalize`] to obtain a deterministic, order-independent
/// form for comparisons across rank counts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EdgeList {
    edges: Vec<Edge>,
}

impl EdgeList {
    /// An empty edge list.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty edge list with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            edges: Vec::with_capacity(cap),
        }
    }

    /// Wrap an existing edge vector.
    pub fn from_vec(edges: Vec<Edge>) -> Self {
        Self { edges }
    }

    /// Append one edge.
    #[inline]
    pub fn push(&mut self, u: Node, v: Node) {
        self.edges.push((u, v));
    }

    /// Number of edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True when no edges are stored.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Borrow the raw edge slice.
    pub fn as_slice(&self) -> &[Edge] {
        &self.edges
    }

    /// Iterate over the edges.
    pub fn iter(&self) -> impl Iterator<Item = Edge> + '_ {
        self.edges.iter().copied()
    }

    /// Consume into the raw vector.
    pub fn into_vec(self) -> Vec<Edge> {
        self.edges
    }

    /// Concatenate the per-rank lists produced by a distributed run
    /// (rank order is preserved).
    pub fn concat(parts: impl IntoIterator<Item = EdgeList>) -> Self {
        let mut out = EdgeList::new();
        for p in parts {
            out.edges.extend(p.edges);
        }
        out
    }

    /// Append all edges of `other`.
    pub fn extend_from(&mut self, other: &EdgeList) {
        self.edges.extend_from_slice(&other.edges);
    }

    /// The largest node id appearing in the list, or `None` if empty.
    pub fn max_node(&self) -> Option<Node> {
        self.edges.iter().map(|&(u, v)| u.max(v)).max()
    }

    /// Sort each edge as `(min, max)` and sort the list: two lists that
    /// denote the same undirected graph canonicalize identically, no
    /// matter which rank emitted which edge in which order.
    pub fn canonicalize(&mut self) {
        for e in &mut self.edges {
            if e.0 > e.1 {
                *e = (e.1, e.0);
            }
        }
        self.edges.sort_unstable();
    }

    /// Canonicalized copy (see [`EdgeList::canonicalize`]).
    pub fn canonicalized(&self) -> Self {
        let mut c = self.clone();
        c.canonicalize();
        c
    }
}

impl FromIterator<Edge> for EdgeList {
    fn from_iter<I: IntoIterator<Item = Edge>>(iter: I) -> Self {
        Self {
            edges: iter.into_iter().collect(),
        }
    }
}

impl<'a> IntoIterator for &'a EdgeList {
    type Item = &'a Edge;
    type IntoIter = std::slice::Iter<'a, Edge>;
    fn into_iter(self) -> Self::IntoIter {
        self.edges.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_len() {
        let mut el = EdgeList::new();
        assert!(el.is_empty());
        el.push(0, 1);
        el.push(1, 2);
        assert_eq!(el.len(), 2);
        assert_eq!(el.as_slice(), &[(0, 1), (1, 2)]);
    }

    #[test]
    fn concat_preserves_rank_order() {
        let a = EdgeList::from_vec(vec![(0, 1)]);
        let b = EdgeList::from_vec(vec![(2, 3), (4, 5)]);
        let c = EdgeList::concat([a, b]);
        assert_eq!(c.as_slice(), &[(0, 1), (2, 3), (4, 5)]);
    }

    #[test]
    fn canonicalize_is_order_and_direction_invariant() {
        let a = EdgeList::from_vec(vec![(5, 2), (1, 0), (3, 4)]);
        let b = EdgeList::from_vec(vec![(0, 1), (4, 3), (2, 5)]);
        assert_eq!(a.canonicalized(), b.canonicalized());
    }

    #[test]
    fn max_node_handles_empty_and_nonempty() {
        assert_eq!(EdgeList::new().max_node(), None);
        let el = EdgeList::from_vec(vec![(0, 7), (3, 2)]);
        assert_eq!(el.max_node(), Some(7));
    }

    #[test]
    fn from_iterator_collects() {
        let el: EdgeList = [(0u64, 1u64), (1, 2)].into_iter().collect();
        assert_eq!(el.len(), 2);
    }
}
