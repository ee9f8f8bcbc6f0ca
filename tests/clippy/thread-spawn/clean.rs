pub fn fan_out(jobs: &[u32]) -> Vec<u32> {
    // Scoped threads that join in order are what `wimi_ml::par::map` uses.
    std::thread::scope(|scope| {
        let handles: Vec<_> = jobs.iter().map(|&j| scope.spawn(move || j + 1)).collect();
        handles.into_iter().map(|h| h.join().unwrap_or(0)).collect()
    })
}
