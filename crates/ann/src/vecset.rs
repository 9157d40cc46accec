//! Dense row-major vector storage.

/// A dense, row-major matrix of `f32` vectors sharing one dimensionality.
///
/// All indexes in this crate store and exchange vectors through `VecSet`; a
/// flat allocation keeps scans cache-friendly and makes footprint accounting
/// exact (`len * dim * 4` bytes).
///
/// # Examples
///
/// ```
/// use vlite_ann::VecSet;
///
/// let mut set = VecSet::new(3);
/// set.push(&[1.0, 2.0, 3.0]);
/// set.push(&[4.0, 5.0, 6.0]);
/// assert_eq!(set.len(), 2);
/// assert_eq!(set.get(1), &[4.0, 5.0, 6.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct VecSet {
    dim: usize,
    data: Vec<f32>,
}

impl VecSet {
    /// Creates an empty set of `dim`-dimensional vectors.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "vector dimensionality must be positive");
        Self {
            dim,
            data: Vec::new(),
        }
    }

    /// Creates an empty set with capacity for `n` vectors.
    pub fn with_capacity(dim: usize, n: usize) -> Self {
        let mut s = Self::new(dim);
        s.data.reserve(n * dim);
        s
    }

    /// Builds an `n × dim` set by evaluating `f(row, col)`.
    pub fn from_fn(n: usize, dim: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut s = Self::with_capacity(dim, n);
        for i in 0..n {
            for j in 0..dim {
                s.data.push(f(i, j));
            }
        }
        s
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of vectors.
    pub fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    /// Whether the set contains no vectors.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Appends one vector.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != dim`.
    pub fn push(&mut self, v: &[f32]) {
        assert_eq!(v.len(), self.dim, "pushed vector has wrong dimensionality");
        self.data.extend_from_slice(v);
    }

    /// Borrows the `i`-th vector.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn get(&self, i: usize) -> &[f32] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Mutably borrows the `i`-th vector.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn get_mut(&mut self, i: usize) -> &mut [f32] {
        &mut self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Iterates over vectors as slices.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[f32]> {
        self.data.chunks_exact(self.dim)
    }

    /// The underlying flat buffer.
    pub fn as_flat(&self) -> &[f32] {
        &self.data
    }

    /// Copies out a subset of rows in the given order.
    pub fn select(&self, rows: &[usize]) -> VecSet {
        let mut out = VecSet::with_capacity(self.dim, rows.len());
        for &r in rows {
            out.push(self.get(r));
        }
        out
    }

    /// In-memory footprint of the vector payload in bytes.
    pub fn bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }
}

impl<'a> IntoIterator for &'a VecSet {
    type Item = &'a [f32];
    type IntoIter = std::slice::ChunksExact<'a, f32>;

    fn into_iter(self) -> Self::IntoIter {
        self.data.chunks_exact(self.dim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_round_trip() {
        let mut s = VecSet::new(2);
        s.push(&[1.0, 2.0]);
        s.push(&[3.0, 4.0]);
        assert_eq!(s.get(0), &[1.0, 2.0]);
        assert_eq!(s.get(1), &[3.0, 4.0]);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn from_fn_builds_expected_layout() {
        let s = VecSet::from_fn(3, 2, |i, j| (i * 10 + j) as f32);
        assert_eq!(s.get(2), &[20.0, 21.0]);
        assert_eq!(s.as_flat(), &[0.0, 1.0, 10.0, 11.0, 20.0, 21.0]);
    }

    #[test]
    fn select_copies_rows_in_order() {
        let s = VecSet::from_fn(4, 1, |i, _| i as f32);
        let sel = s.select(&[3, 0, 3]);
        assert_eq!(sel.as_flat(), &[3.0, 0.0, 3.0]);
    }

    #[test]
    fn iter_matches_get() {
        let s = VecSet::from_fn(5, 3, |i, j| (i + j) as f32);
        for (i, row) in s.iter().enumerate() {
            assert_eq!(row, s.get(i));
        }
    }

    #[test]
    fn bytes_accounting() {
        let s = VecSet::from_fn(10, 4, |_, _| 0.0);
        assert_eq!(s.bytes(), 160);
    }

    #[test]
    #[should_panic(expected = "wrong dimensionality")]
    fn mismatched_push_rejected() {
        VecSet::new(3).push(&[1.0]);
    }
}
