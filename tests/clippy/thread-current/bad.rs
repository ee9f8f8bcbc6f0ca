pub fn worker_label() -> String {
    format!("{:?}", std::thread::current().id())
}
