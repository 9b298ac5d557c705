//! The CSR offsets array and its index-width rule.
//!
//! A graph is two arrays: the per-vertex offsets and the neighbor ids
//! (always `u32`, since [`crate::VertexId`] is `u32`). Only the offsets vary
//! in width. They are stored as `u32` iff the directed edge count fits in
//! `u32` — the rule [`offsets_width`], shared by heap graphs and the binary
//! storage format — and as `u64` otherwise. `Offsets` is the borrowed,
//! width-tagged slice every reader goes through (see [`crate::GraphRef`]);
//! the width stays a runtime tag rather than a type parameter so extractors
//! remain usable as trait objects.
//!
//! # The narrowing seam
//!
//! **Every width-narrowing cast of a graph index lives in this module**,
//! behind [`narrow_index`], and `chordal-lint` rejects `as u32` on graph code
//! anywhere else in the crate.
//!
//! The full layout story (including the on-disk v2 section format) is
//! documented in `docs/layout.md` at the repository root.

/// Entry width of a graph's offsets, in memory and on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OffsetsWidth {
    /// 4-byte offset entries; sufficient while every offset fits a `u32`.
    U32,
    /// 8-byte offset entries; required once offsets exceed `u32::MAX`.
    U64,
}

impl OffsetsWidth {
    /// Bytes per offset entry.
    #[inline]
    pub(crate) fn bytes(self) -> usize {
        match self {
            OffsetsWidth::U32 => 4,
            OffsetsWidth::U64 => 8,
        }
    }

    /// Human-readable label (`"u32"` / `"u64"`).
    pub fn label(self) -> &'static str {
        match self {
            OffsetsWidth::U32 => "u32",
            OffsetsWidth::U64 => "u64",
        }
    }
}

/// The index-width rule: offsets are stored as `u64` iff the directed edge
/// count (the largest value the offsets array must represent) exceeds
/// `u32::MAX`. Adjacency entries are always `u32` because vertex ids are.
#[inline]
pub fn offsets_width(num_directed_edges: u64) -> OffsetsWidth {
    if num_directed_edges > u32::MAX as u64 {
        OffsetsWidth::U64
    } else {
        OffsetsWidth::U32
    }
}

/// Narrows a graph index to `u32`.
///
/// This is the *only* sanctioned narrowing cast on graph indices in the
/// crate (enforced by the `chordal-lint` width rule): callers must have
/// already established that the value fits — heap construction checks the
/// final (largest) offset against [`offsets_width`] before narrowing the
/// monotone array, and the binary writers select the on-disk width from the
/// directed edge count before encoding.
#[inline]
pub fn narrow_index(value: usize) -> u32 {
    debug_assert!(
        value <= u32::MAX as usize,
        "index {value} does not fit the compact u32 layout"
    );
    value as u32
}

/// A borrowed CSR offsets array: `num_vertices + 1` monotone entries at
/// either width.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Offsets<'a> {
    U32(&'a [u32]),
    U64(&'a [u64]),
}

impl<'a> Offsets<'a> {
    /// The entry width.
    #[inline]
    pub(crate) fn width(self) -> OffsetsWidth {
        match self {
            Offsets::U32(_) => OffsetsWidth::U32,
            Offsets::U64(_) => OffsetsWidth::U64,
        }
    }

    /// Number of entries (`num_vertices + 1` for a graph).
    #[inline]
    pub(crate) fn len(self) -> usize {
        match self {
            Offsets::U32(o) => o.len(),
            Offsets::U64(o) => o.len(),
        }
    }

    /// The entry at `i`, widened.
    #[inline]
    pub(crate) fn get(self, i: usize) -> usize {
        match self {
            Offsets::U32(o) => o[i] as usize,
            Offsets::U64(o) => o[i] as usize,
        }
    }

    /// The adjacency range of vertex `v` — both bounds through one width
    /// dispatch, so range lookups stay a single branch in kernels.
    #[inline]
    pub(crate) fn range(self, v: usize) -> std::ops::Range<usize> {
        match self {
            Offsets::U32(o) => o[v] as usize..o[v + 1] as usize,
            Offsets::U64(o) => o[v] as usize..o[v + 1] as usize,
        }
    }

    /// Bytes of the stored entries.
    #[inline]
    pub(crate) fn bytes(self) -> usize {
        self.len() * self.width().bytes()
    }
}

impl PartialEq for Offsets<'_> {
    /// Width-agnostic logical equality: a compact array equals its widened
    /// copy.
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && (0..self.len()).all(|i| self.get(i) == other.get(i))
    }
}

impl Eq for Offsets<'_> {}

/// An owned offsets array, lent out as [`Offsets`].
#[derive(Debug, Clone)]
pub(crate) enum OffsetBuf {
    U32(Vec<u32>),
    U64(Vec<u64>),
}

impl OffsetBuf {
    /// Stores a prefix-degree array at the width [`offsets_width`] picks
    /// for its last (largest) entry.
    pub(crate) fn from_offsets(offsets: Vec<usize>) -> Self {
        let largest = offsets.last().copied().unwrap_or(0);
        match offsets_width(largest as u64) {
            OffsetsWidth::U32 => OffsetBuf::U32(offsets.iter().map(|&o| narrow_index(o)).collect()),
            OffsetsWidth::U64 => OffsetBuf::wide(offsets.iter().map(|&o| o as u64)),
        }
    }

    /// Stores entries at the wide width regardless of range.
    pub(crate) fn wide(offsets: impl Iterator<Item = u64>) -> Self {
        OffsetBuf::U64(offsets.collect())
    }

    /// An owned copy of a borrowed array, at the same width.
    pub(crate) fn copy_of(offsets: Offsets<'_>) -> Self {
        match offsets {
            Offsets::U32(o) => OffsetBuf::U32(o.to_vec()),
            Offsets::U64(o) => OffsetBuf::U64(o.to_vec()),
        }
    }

    /// The borrowed view.
    #[inline]
    pub(crate) fn view(&self) -> Offsets<'_> {
        match self {
            OffsetBuf::U32(o) => Offsets::U32(o),
            OffsetBuf::U64(o) => Offsets::U64(o),
        }
    }
}

/// Byte accounting of a graph's in-memory layout, as reported by
/// `chordal analyze`'s memory section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryBreakdown {
    /// The offsets entry width.
    pub width: OffsetsWidth,
    /// Bytes of the offsets array at the chosen width.
    pub offsets_bytes: usize,
    /// Bytes of the neighbor id array.
    pub neighbors_bytes: usize,
    /// Projected bytes of the offsets array under the wide (`u64`) layout,
    /// for the savings comparison.
    pub wide_offsets_bytes: usize,
}

impl MemoryBreakdown {
    /// Bytes of the two arrays a traversal touches (offsets + neighbors).
    pub fn hot_bytes(&self) -> usize {
        self.offsets_bytes + self.neighbors_bytes
    }

    /// Bytes saved by the chosen width versus the wide layout (zero when
    /// the graph is already wide).
    pub fn projected_savings(&self) -> usize {
        self.wide_offsets_bytes - self.offsets_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_rule_boundary() {
        assert_eq!(offsets_width(0), OffsetsWidth::U32);
        assert_eq!(offsets_width(u32::MAX as u64), OffsetsWidth::U32);
        assert_eq!(offsets_width(u32::MAX as u64 + 1), OffsetsWidth::U64);
        assert_eq!(OffsetsWidth::U32.bytes(), 4);
        assert_eq!(OffsetsWidth::U64.bytes(), 8);
    }

    #[test]
    fn offsets_choose_compact_when_in_range() {
        let buf = OffsetBuf::from_offsets(vec![0, 2, 5, 9]);
        let o = buf.view();
        assert_eq!(o.width(), OffsetsWidth::U32);
        assert_eq!(o.len(), 4);
        assert_eq!(o.get(2), 5);
        assert_eq!(o.range(1), 2..5);
        assert_eq!(o.bytes(), 16);
    }

    #[test]
    fn offsets_fall_back_to_wide_beyond_u32() {
        let big = u32::MAX as usize + 1;
        let buf = OffsetBuf::from_offsets(vec![0, big]);
        assert_eq!(buf.view().width(), OffsetsWidth::U64);
        assert_eq!(buf.view().get(1), big);
    }

    #[test]
    fn forced_wide_copy_compares_equal_to_compact() {
        let compact = OffsetBuf::from_offsets(vec![0, 3, 7]);
        let wide = OffsetBuf::wide([0u64, 3, 7].into_iter());
        assert_eq!(compact.view().width(), OffsetsWidth::U32);
        assert_eq!(wide.view().width(), OffsetsWidth::U64);
        assert_eq!(compact.view(), wide.view());
        assert_ne!(
            compact.view(),
            OffsetBuf::from_offsets(vec![0, 3, 8]).view()
        );
        assert!(wide.view().bytes() > compact.view().bytes());
    }
}
