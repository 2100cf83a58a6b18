//! The one parser for the repo's one `CA_*` environment knob, `CA_TRACE`.
//!
//! It parses as an unsigned decimal integer; a malformed value
//! (`CA_TRACE=verbose`) warns once on stderr and falls back to the
//! default instead of being silently ignored. (Whether anything forks is
//! not a knob of this repo: it is the runtime's core budget —
//! `RAYON_NUM_THREADS` for the process, `rayon::with_budget` for a
//! scope.)

use std::collections::BTreeSet;
use std::sync::{Mutex, OnceLock};

/// Emit `msg` to stderr at most once per distinct `key` for the life of
/// the process. Used so a malformed knob warns exactly once no matter
/// how many call sites consult it.
fn warn_once(key: &str, msg: &str) {
    static SEEN: OnceLock<Mutex<BTreeSet<String>>> = OnceLock::new();
    let seen = SEEN.get_or_init(|| Mutex::new(BTreeSet::new()));
    let mut guard = seen.lock().unwrap_or_else(|e| e.into_inner());
    if guard.insert(key.to_string()) {
        eprintln!("{msg}");
    }
}

/// Read the unsigned-integer env knob `name`. Unset returns `None`
/// silently; a set-but-malformed value warns once on stderr and also
/// returns `None` (the caller's default applies).
pub fn usize_env(name: &str) -> Option<usize> {
    let raw = std::env::var(name).ok()?;
    match raw.trim().parse::<usize>() {
        Ok(v) => Some(v),
        Err(_) => {
            warn_once(
                name,
                &format!(
                    "warning: ignoring malformed {name}={raw:?} \
                     (expected an unsigned integer; using default)"
                ),
            );
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usize_env_reads_and_rejects() {
        std::env::set_var("CA_OBS_TEST_USIZE", "42");
        assert_eq!(usize_env("CA_OBS_TEST_USIZE"), Some(42));
        std::env::set_var("CA_OBS_TEST_USIZE", " 7 ");
        assert_eq!(usize_env("CA_OBS_TEST_USIZE"), Some(7));
        std::env::set_var("CA_OBS_TEST_USIZE", "fast");
        assert_eq!(usize_env("CA_OBS_TEST_USIZE"), None);
        std::env::remove_var("CA_OBS_TEST_USIZE");
        assert_eq!(usize_env("CA_OBS_TEST_USIZE"), None);
    }
}
