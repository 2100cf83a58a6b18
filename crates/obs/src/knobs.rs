//! The one shared parser for the repo's `CA_*` environment knobs.
//!
//! Every crate that honours a runtime knob routes its env parsing
//! through this module, so a value like `CA_SERIAL=yes` means the same
//! thing to the BSP executor, the D&C eigensolver and everything else.
//! (The seed had two private parsers: `ca_pla::exec` accepted "set and
//! not `0`" while `ca_dla::tune` accepted only `1`/`true` — so
//! `CA_SERIAL=yes` ran the executor serial but the eigensolver
//! parallel. Centralizing the truthiness table here is the fix.)
//!
//! ## Accepted values
//!
//! Boolean knobs (`CA_SERIAL`): **truthy** = `1`, `true`, `yes`, `on`;
//! **falsy** = `0`, `false`, `no`, `off`, and the empty string — all
//! case-insensitive, surrounding whitespace ignored. Anything else is
//! *malformed*: a one-time warning goes to stderr and the knob keeps
//! its default.
//!
//! Integer knobs (`CA_TRACE`, the `ca-service` admission knobs) parse
//! as unsigned decimal integers; malformed values (`CA_TRACE=verbose`)
//! likewise warn once on stderr and fall back to the default instead of
//! being silently ignored.

use std::collections::BTreeSet;
use std::sync::{Mutex, OnceLock};

/// Parse a boolean knob value. `None` means unrecognized (malformed).
///
/// Truthy: `1`, `true`, `yes`, `on`. Falsy: `0`, `false`, `no`, `off`,
/// `""`. Case-insensitive; surrounding whitespace is trimmed.
pub fn parse_bool(raw: &str) -> Option<bool> {
    let v = raw.trim();
    if v.is_empty() {
        return Some(false);
    }
    if v.eq_ignore_ascii_case("1")
        || v.eq_ignore_ascii_case("true")
        || v.eq_ignore_ascii_case("yes")
        || v.eq_ignore_ascii_case("on")
    {
        return Some(true);
    }
    if v.eq_ignore_ascii_case("0")
        || v.eq_ignore_ascii_case("false")
        || v.eq_ignore_ascii_case("no")
        || v.eq_ignore_ascii_case("off")
    {
        return Some(false);
    }
    None
}

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

/// Read the boolean env knob `name`, warning once on stderr (and
/// returning `default`) when the value is set but unrecognized.
pub fn bool_env(name: &str, default: bool) -> bool {
    match std::env::var(name) {
        Ok(raw) => parse_bool(&raw).unwrap_or_else(|| {
            warn_once(
                name,
                &format!(
                    "warning: ignoring malformed {name}={raw:?} \
                     (accepted: 1/true/yes/on or 0/false/no/off; using default {default})"
                ),
            );
            default
        }),
        Err(_) => default,
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

/// True when `CA_SERIAL` is truthy: all parallel dispatch in the repo —
/// the BSP superstep executor, D&C recursive splits and secular root
/// solves, panel-parallel back-transformation — runs in deterministic
/// serial order instead. The env variable is consulted once, on first
/// read; every consumer shares this cache, so the knob cannot diverge
/// between subsystems.
pub fn serial() -> bool {
    static SERIAL: OnceLock<bool> = OnceLock::new();
    *SERIAL.get_or_init(|| bool_env("CA_SERIAL", false))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truthiness_table() {
        for v in ["1", "true", "TRUE", "yes", "Yes", "on", " on ", "tRuE"] {
            assert_eq!(parse_bool(v), Some(true), "{v:?} must be truthy");
        }
        for v in ["0", "false", "no", "NO", "off", "", "  "] {
            assert_eq!(parse_bool(v), Some(false), "{v:?} must be falsy");
        }
        for v in ["2", "enable", "y", "t", "banana"] {
            assert_eq!(parse_bool(v), None, "{v:?} must be malformed");
        }
    }

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

    #[test]
    fn bool_env_defaults_on_malformed() {
        std::env::set_var("CA_OBS_TEST_BOOL", "banana");
        assert!(!bool_env("CA_OBS_TEST_BOOL", false));
        assert!(bool_env("CA_OBS_TEST_BOOL", true));
        std::env::set_var("CA_OBS_TEST_BOOL", "yes");
        assert!(bool_env("CA_OBS_TEST_BOOL", false));
        std::env::remove_var("CA_OBS_TEST_BOOL");
    }
}
