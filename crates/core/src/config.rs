//! Protocol configuration and ablation switches.

use serde::{Deserialize, Serialize};

/// Configuration of the semantic lock manager.
///
/// The two switches correspond exactly to the paper's narrative:
///
/// * `retain_locks = true, ancestor_check = true` — the full protocol of
///   Section 4 (retained locks plus the commutative-ancestor conflict test
///   of Figure 9);
/// * `retain_locks = true, ancestor_check = false` — retained locks whose
///   formal conflicts always block until top-level commit (the naive "first
///   step" of Section 4.1, before Cases 1 and 2 are introduced);
/// * `retain_locks = false` — the plain open nested protocol of Section 3:
///   locks of a subtransaction are released upon its completion. Correct
///   only when no transaction bypasses encapsulation; used as the unsafe
///   baseline that exhibits the Figure 5 anomaly.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProtocolConfig {
    /// Stable display name.
    pub name: &'static str,
    /// Convert completed subtransactions' locks into retained locks instead
    /// of releasing them.
    pub retain_locks: bool,
    /// Search ancestor chains for commutative pairs (Figure 9, Cases 1/2).
    pub ancestor_check: bool,
}

impl ProtocolConfig {
    /// The full protocol of the paper (Section 4).
    pub fn semantic() -> Self {
        ProtocolConfig { name: "semantic", retain_locks: true, ancestor_check: true }
    }

    /// Retained locks without the commutative-ancestor rules: every formal
    /// conflict with a retained lock blocks until top-level commit.
    pub fn no_ancestor_check() -> Self {
        ProtocolConfig { name: "semantic/no-ancestor", retain_locks: true, ancestor_check: false }
    }

    /// The plain open nested protocol of Section 3 (no retained locks).
    /// Unsafe when encapsulation is bypassed.
    pub fn open_nested_plain() -> Self {
        ProtocolConfig {
            name: "open-nested/no-retention",
            retain_locks: false,
            ancestor_check: true,
        }
    }
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        Self::semantic()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets() {
        let s = ProtocolConfig::semantic();
        assert!(s.retain_locks && s.ancestor_check);
        let n = ProtocolConfig::no_ancestor_check();
        assert!(n.retain_locks && !n.ancestor_check);
        let o = ProtocolConfig::open_nested_plain();
        assert!(!o.retain_locks);
        assert_eq!(ProtocolConfig::default(), s);
        assert_ne!(s.name, n.name);
        assert_ne!(s.name, o.name);
    }
}
