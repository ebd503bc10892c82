//! Fixture: no-twin-entry-points positive. Mode-suffixed twins of an
//! op that already has a body.

pub fn join_sharded(rows: &[u64], shards: usize) -> Vec<u64> {
    let _ = shards;
    rows.to_vec()
}

pub(crate) fn count_governed(rows: &[u64]) -> u128 {
    rows.len() as u128
}

pub fn boolean_observed(rows: &[u64]) -> bool {
    !rows.is_empty()
}
