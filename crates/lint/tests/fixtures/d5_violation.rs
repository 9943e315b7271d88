// Fixture: D5 true positive — an empty expect outside tests. The bare
// unwrap is clippy's `unwrap_used`, so ddelint reports nothing for it.
fn head(v: &[u64]) -> u64 {
    *v.first().unwrap()
}

fn parse(s: &str) -> u64 {
    s.parse().expect("")
}

#[cfg(test)]
mod tests {
    #[test]
    fn empty_expect_is_fine_in_tests() {
        let v = vec![1u64];
        assert_eq!(*v.first().expect(""), 1);
    }
}
