//! A dependency whose private parser method shares its name with the
//! caller's own accessor, beside a public method and a trait impl that
//! callers can reach.

pub struct Parser {
    len: usize,
}

impl Parser {
    /// Private: no other crate can call it, whatever its name.
    fn value(&mut self) -> Vec<u8> {
        vec![0; self.len]
    }

    pub fn parse(text: &str) -> Vec<u8> {
        let mut p = Parser { len: text.len() };
        p.value()
    }
}

pub struct Shared;

impl Shared {
    pub fn grow_shared(&self) -> Vec<u8> {
        vec![1]
    }
}

pub trait Fill {
    fn fill(&self) -> Vec<u8>;
}

impl Fill for Shared {
    fn fill(&self) -> Vec<u8> {
        vec![2]
    }
}
