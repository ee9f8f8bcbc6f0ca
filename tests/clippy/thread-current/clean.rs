pub fn task_label(task_id: u64) -> String {
    format!("task:{task_id}")
}

#[expect(
    clippy::disallowed_methods,
    reason = "the thread name is printed for debugging, never stored in a result"
)]
pub fn debug_thread_name() {
    eprintln!("{:?}", std::thread::current().name());
}
