// Fixture: D5 with a reasoned allow.
fn head(v: &[u64]) -> u64 {
    // ddelint::allow(unwrap, "fixture: caller guarantees non-empty by construction")
    *v.first().expect("")
}
