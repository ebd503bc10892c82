//! Enumeration of small edge subsets, shared by the decomposition solvers.
//!
//! The solvers' innermost loop walks every `≤ k`-subset of a candidate
//! pool. [`SubsetState`] advances one combination in place and lends out
//! its index buffer, so a full enumeration performs **one** allocation.

/// In-place enumerator over all subsets of `{0..n}` of size `1..=k`, by
/// increasing size and lexicographically within a size.
pub struct SubsetState {
    n: usize,
    k: usize,
    size: usize,
    indices: Vec<usize>,
    started: bool,
}

impl SubsetState {
    /// Enumerate subsets of `{0..n}` of size `1..=k` (k is clamped to n).
    pub fn new(n: usize, k: usize) -> Self {
        SubsetState {
            n,
            k: k.min(n),
            size: 1,
            indices: vec![0],
            started: false,
        }
    }

    /// Advance to the next subset and lend out its indices, or `None` when
    /// the enumeration is exhausted. The returned slice is valid until the
    /// next call and must not be stored.
    pub fn advance(&mut self) -> Option<&[usize]> {
        if self.n == 0 || self.k == 0 {
            return None;
        }
        if !self.started {
            self.started = true;
            return Some(&self.indices);
        }
        // Advance the current combination of `size` elements.
        let s = self.size;
        let mut i = s;
        while i > 0 {
            i -= 1;
            if self.indices[i] < self.n - (s - i) {
                self.indices[i] += 1;
                for j in i + 1..s {
                    self.indices[j] = self.indices[j - 1] + 1;
                }
                return Some(&self.indices);
            }
        }
        // Move to the next size.
        if self.size < self.k {
            self.size += 1;
            self.indices.clear();
            self.indices.extend(0..self.size);
            return Some(&self.indices);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every subset the enumerator lends out, copied.
    fn subsets(n: usize, k: usize) -> Vec<Vec<usize>> {
        let mut st = SubsetState::new(n, k);
        let mut all = Vec::new();
        while let Some(s) = st.advance() {
            all.push(s.to_vec());
        }
        all
    }

    #[test]
    fn counts_match_binomials() {
        assert_eq!(subsets(4, 2).len(), 4 + 6);
        assert_eq!(subsets(5, 3).len(), 5 + 10 + 10);
        assert_eq!(subsets(0, 3).len(), 0);
        assert_eq!(subsets(3, 0).len(), 0);
        assert_eq!(subsets(3, 7).len(), 7, "k clamps to n");
    }

    #[test]
    fn ordered_smallest_first() {
        let all = subsets(3, 2);
        assert_eq!(
            all,
            vec![
                vec![0],
                vec![1],
                vec![2],
                vec![0, 1],
                vec![0, 2],
                vec![1, 2]
            ]
        );
    }

    #[test]
    fn no_duplicates() {
        let all = subsets(6, 3);
        let mut dedup = all.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(all.len(), dedup.len());
    }
}
