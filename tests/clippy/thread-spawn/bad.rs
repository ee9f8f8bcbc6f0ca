pub fn fan_out() {
    let handle = std::thread::spawn(|| 42);
    let _ = handle.join();
}
