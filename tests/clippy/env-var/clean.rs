pub fn worker_count(configured: Option<usize>) -> usize {
    configured.unwrap_or(1)
}

#[expect(
    clippy::disallowed_methods,
    reason = "the variable selects the fan-out shape only, never a result"
)]
pub fn fanout_shape() -> Option<usize> {
    std::env::var("WORKERS").ok()?.parse().ok()
}
