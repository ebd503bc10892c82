//! Fixture: no-twin-entry-points negative. One body per op, taking its
//! context; private helpers and non-function items may use any name.

pub struct Ctx {
    pub budget: u64,
}

pub fn count(rows: &[u64]) -> u128 {
    count_in(rows, &Ctx { budget: u64::MAX })
}

pub fn count_in(rows: &[u64], ctx: &Ctx) -> u128 {
    rows.len().min(ctx.budget as usize) as u128
}

fn scan_governed(rows: &[u64]) -> usize {
    rows.len()
}

pub const MAX_OBSERVED: usize = 4;

pub fn within_limit(n: usize) -> bool {
    scan_governed(&[]) < n && n <= MAX_OBSERVED
}
