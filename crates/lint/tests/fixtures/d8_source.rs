// Fixture: D8 source — an ambient-entropy helper hiding in the one module
// the D1 *needle* rule exempts. The taint pass still seeds here: policy
// exemption is positional, not a semantic review.
pub(crate) fn ambient_jitter() -> u64 {
    rand::thread_rng().next_u64()
}
