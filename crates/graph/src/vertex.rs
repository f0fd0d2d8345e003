//! Dense vertex identifiers.
//!
//! Vertices are dense `u32` indices in the range `0..n`. A newtype keeps the
//! public API honest (a vertex id cannot be accidentally swapped with a
//! degree or an edge offset) while compiling down to a plain integer.

use std::fmt;

/// A dense vertex identifier in the range `0..n`.
///
/// `VertexId` is a thin wrapper around `u32`; graphs with more than
/// `u32::MAX` vertices are not supported (the paper's largest dataset,
/// Youtube, has ~1.1M vertices — far below the limit).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VertexId(u32);

impl VertexId {
    /// Creates a vertex id from a `usize` index.
    ///
    /// # Panics
    /// Panics if `index` does not fit in a `u32`.
    #[inline]
    pub fn new(index: usize) -> Self {
        debug_assert!(index < u32::MAX as usize, "vertex index out of range");
        VertexId(index as u32)
    }

    /// Creates a vertex id directly from a raw `u32`.
    #[inline]
    pub const fn from_raw(raw: u32) -> Self {
        VertexId(raw)
    }

    /// Returns the id as a `usize` suitable for indexing flat arrays.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw `u32` value.
    #[inline]
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl From<u32> for VertexId {
    #[inline]
    fn from(raw: u32) -> Self {
        VertexId(raw)
    }
}

impl From<VertexId> for u32 {
    #[inline]
    fn from(v: VertexId) -> Self {
        v.0
    }
}

impl From<VertexId> for usize {
    #[inline]
    fn from(v: VertexId) -> Self {
        v.index()
    }
}

impl fmt::Debug for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_usize() {
        let v = VertexId::new(42);
        assert_eq!(v.index(), 42);
        assert_eq!(v.raw(), 42);
        assert_eq!(usize::from(v), 42);
        assert_eq!(u32::from(v), 42);
    }

    #[test]
    fn ordering_matches_raw_value() {
        assert!(VertexId::new(1) < VertexId::new(2));
        assert_eq!(VertexId::new(7), VertexId::from_raw(7));
    }

    #[test]
    fn display_and_debug() {
        assert_eq!(format!("{}", VertexId::new(5)), "5");
        assert_eq!(format!("{:?}", VertexId::new(5)), "v5");
    }
}
