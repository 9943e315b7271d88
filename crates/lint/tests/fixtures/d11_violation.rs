// Fixture: D11 — bare-`pub` library fns and who names them. The tests lint
// this file as library src, and `d11_user.rs` plays every other file.

/// Named by the user file only in a comment and a string: still dead.
pub fn mentioned_only() -> u64 {
    1
}

/// Called from the user file: used.
pub fn called_elsewhere() -> u64 {
    called_here_only()
}

/// Called only inside this file: dead as a `pub`.
pub fn called_here_only() -> u64 {
    2
}

/// Crate-visible: rustc's `dead_code` lint guards it, so D11 does not.
pub(crate) fn crate_visible() -> u64 {
    3
}

#[cfg(test)]
mod tests {
    /// A test helper is no public API.
    pub fn test_helper() -> u64 {
        super::crate_visible()
    }
}
