// Fixture: D11 user — calls `called_elsewhere`; mentioned_only appears here
// only in this comment and in the string below, which do not count.
fn main() {
    let label = "mentioned_only";
    println!("{label}: {}", fixture::called_elsewhere());
}
