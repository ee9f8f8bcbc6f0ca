pub fn worker_count() -> usize {
    std::env::var("WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}
