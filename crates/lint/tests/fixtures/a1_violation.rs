// Fixture: a stale allow that suppresses nothing.
fn f() -> u64 {
    // ddelint::allow(wallclock, "nothing on the next line reads the clock")
    7
}
