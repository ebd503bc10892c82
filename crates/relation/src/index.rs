//! Hash indexes over relations, with packed integer keys.
//!
//! An [`Index`] groups the rows of a relation by their projection onto a
//! column list. It is the probe-side data structure of every hash join and
//! semijoin in the workspace, so its layout is tuned for the Yannakakis
//! sweeps the paper's tractability results rest on (Theorem 4.8): building
//! and probing must stay linear with *small constants* and allocate
//! nothing per row.
//!
//! * Key tuples are bit-packed into a single `u128` whenever the key
//!   columns' value ranges fit in 128 bits combined (always true for one
//!   or two columns, and for any number of columns over small interned
//!   domains). Packing is exact — per-column bit widths are taken from the
//!   indexed relation, and a probe value that exceeds its column's width
//!   cannot match any indexed row — so there are no hash-collision
//!   correctness concerns and no per-row key allocation.
//! * Keys too wide to pack fall back to boxed `[Value]` tuples, allocated
//!   once per *distinct key at build time*; probes gather into a stack
//!   buffer.
//! * Row ids are grouped in one CSR-style arena (`starts`/`rows`), so a
//!   probe returns a contiguous `&[u32]` and group-at-a-time consumers
//!   (the counting extension) can walk groups without rehashing.
//!
//! Indexes are cached inside [`crate::Relation`] (see
//! [`crate::Relation::index_on`]) and invalidated on mutation; build them
//! through that entry point rather than constructing them directly.

use crate::relation::{Relation, Value};
use crate::stats;
use rustc_hash::FxHashMap;

/// Max key columns gathered on the stack when probing a [`Repr::Wide`]
/// index; wider probes (wide *and* huge-valued) take a heap buffer.
const WIDE_STACK_COLS: usize = 16;

/// A hash index: rows of one relation grouped by their key tuple on a
/// fixed column list. See the module docs for the layout.
#[derive(Clone, Debug)]
pub struct Index {
    /// The indexed columns, in key order.
    cols: Box<[usize]>,
    /// Group `g` occupies `rows[starts[g] .. starts[g + 1]]`.
    starts: Vec<u32>,
    /// Row ids, grouped by key.
    rows: Vec<u32>,
    repr: Repr,
}

#[derive(Clone, Debug)]
enum Repr {
    /// Keys bit-packed into `u128`: column `j` contributes `widths[j]`
    /// low bits. `Σ widths ≤ 128`.
    Packed {
        widths: Box<[u32]>,
        map: FxHashMap<u128, u32>,
    },
    /// Fallback for key tuples wider than 128 bits.
    Wide { map: FxHashMap<Box<[Value]>, u32> },
}

impl Index {
    /// Build the index of `rel` on `cols`. Called by
    /// [`Relation::index_on`], which memoizes the result.
    pub(crate) fn build(rel: &Relation, cols: &[usize]) -> Index {
        stats::record_index_build();
        let n = rel.len();
        assert!(n < u32::MAX as usize, "relation too large for u32 row ids");

        // Pass 1: per-column maxima decide the packing widths.
        let mut maxes = vec![0u64; cols.len()];
        for i in 0..n {
            let row = rel.row(i);
            for (j, &c) in cols.iter().enumerate() {
                maxes[j] = maxes[j].max(row[c].0);
            }
        }
        let widths: Box<[u32]> = maxes
            .iter()
            .map(|m| (64 - m.leading_zeros()).max(1))
            .collect();
        let packable = widths.iter().sum::<u32>() <= 128;

        // Pass 2: assign group ids per row.
        let mut row_gid: Vec<u32> = Vec::with_capacity(n);
        let mut num_groups: u32 = 0;
        let repr = if packable {
            let mut map: FxHashMap<u128, u32> = FxHashMap::default();
            map.reserve(n);
            for i in 0..n {
                let row = rel.row(i);
                let key = pack(cols.len(), &widths, |j| row[cols[j]])
                    // archlint::allow(panic-free-request-path, reason = "packed-key widths were computed from the same rows being indexed")
                    .expect("indexed values fit their own widths");
                let gid = *map.entry(key).or_insert_with(|| {
                    num_groups += 1;
                    num_groups - 1
                });
                row_gid.push(gid);
            }
            Repr::Packed { widths, map }
        } else {
            let mut map: FxHashMap<Box<[Value]>, u32> = FxHashMap::default();
            map.reserve(n);
            let mut buf: Vec<Value> = Vec::with_capacity(cols.len());
            // archlint::allow(budget-polled-loops, reason = "index build is bounded by the relation being indexed; metered kernels charge before building")
            for i in 0..n {
                let row = rel.row(i);
                buf.clear();
                buf.extend(cols.iter().map(|&c| row[c]));
                let gid = match map.get(buf.as_slice()) {
                    Some(&g) => g,
                    None => {
                        num_groups += 1;
                        map.insert(buf.clone().into_boxed_slice(), num_groups - 1);
                        num_groups - 1
                    }
                };
                row_gid.push(gid);
            }
            Repr::Wide { map }
        };

        // Pass 3: scatter row ids into the CSR arena.
        let mut starts = vec![0u32; num_groups as usize + 1];
        for &g in &row_gid {
            starts[g as usize + 1] += 1;
        }
        for g in 1..starts.len() {
            starts[g] += starts[g - 1];
        }
        let mut fill = starts.clone();
        let mut rows = vec![0u32; n];
        for (i, &g) in row_gid.iter().enumerate() {
            rows[fill[g as usize] as usize] = i as u32;
            fill[g as usize] += 1;
        }

        Index {
            cols: cols.into(),
            starts,
            rows,
            repr,
        }
    }

    /// The indexed column list.
    pub fn cols(&self) -> &[usize] {
        &self.cols
    }

    /// Number of distinct keys.
    pub fn num_keys(&self) -> usize {
        self.starts.len() - 1
    }

    /// The rows of group `gid`.
    #[inline]
    pub fn group(&self, gid: usize) -> &[u32] {
        &self.rows[self.starts[gid] as usize..self.starts[gid + 1] as usize]
    }

    /// Iterate over all groups (in group-id order).
    pub fn groups(&self) -> impl Iterator<Item = &[u32]> {
        (0..self.num_keys()).map(|g| self.group(g))
    }

    /// The group id matching `probe_row` projected onto `probe_cols`
    /// (which must have the same length as the indexed column list).
    #[inline]
    pub fn probe_gid(&self, probe_row: &[Value], probe_cols: &[usize]) -> Option<usize> {
        debug_assert_eq!(probe_cols.len(), self.cols.len(), "probe arity mismatch");
        match &self.repr {
            Repr::Packed { widths, map } => {
                let key = pack(probe_cols.len(), widths, |j| probe_row[probe_cols[j]])?;
                map.get(&key).map(|&g| g as usize)
            }
            Repr::Wide { map } => {
                let k = probe_cols.len();
                let mut stack = [Value(0); WIDE_STACK_COLS];
                let mut heap: Vec<Value>;
                let buf: &mut [Value] = if k <= WIDE_STACK_COLS {
                    &mut stack[..k]
                } else {
                    heap = vec![Value(0); k];
                    &mut heap
                };
                for (j, slot) in buf.iter_mut().enumerate() {
                    *slot = probe_row[probe_cols[j]];
                }
                map.get(&*buf).map(|&g| g as usize)
            }
        }
    }

    /// The rows whose key equals `probe_row` projected onto `probe_cols`;
    /// empty when no indexed row matches.
    #[inline]
    pub fn probe_rows(&self, probe_row: &[Value], probe_cols: &[usize]) -> &[u32] {
        match self.probe_gid(probe_row, probe_cols) {
            Some(g) => self.group(g),
            None => &[],
        }
    }

    /// `true` iff some indexed row matches (the semijoin probe).
    #[inline]
    pub fn contains(&self, probe_row: &[Value], probe_cols: &[usize]) -> bool {
        self.probe_gid(probe_row, probe_cols).is_some()
    }

    /// The rows matching the explicit key tuple `key` (in indexed column
    /// order).
    pub fn probe_key(&self, key: &[Value]) -> &[u32] {
        debug_assert_eq!(key.len(), self.cols.len(), "key arity mismatch");
        let gid = match &self.repr {
            Repr::Packed { widths, map } => pack(key.len(), widths, |j| key[j])
                .and_then(|k| map.get(&k))
                .copied(),
            Repr::Wide { map } => map.get(key).copied(),
        };
        match gid {
            Some(g) => self.group(g as usize),
            None => &[],
        }
    }
}

/// Bit-pack `k` values into a `u128`, value `j` into `widths[j]` bits.
/// `None` when a value exceeds its width — such a key cannot occur in the
/// indexed relation, so a probe can immediately report "no match".
#[inline]
fn pack(k: usize, widths: &[u32], get: impl Fn(usize) -> Value) -> Option<u128> {
    debug_assert_eq!(k, widths.len());
    let mut key: u128 = 0;
    for (j, &w) in widths.iter().enumerate().take(k) {
        let v = get(j).0;
        if w < 64 && (v >> w) != 0 {
            return None;
        }
        key = (key << w) | v as u128;
    }
    Some(key)
}
