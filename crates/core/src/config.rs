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
    /// Speculative grant of Case-2 waits (controlled lock violation, after
    /// Bamboo): a requestor that commutes with the holder's retained set
    /// but is blocked on an uncommitted ancestor is granted early, with an
    /// abort-dependency edge recorded. Its commit then waits until the
    /// depended-on subtransaction finishes; if that subtransaction aborts,
    /// the dependent cascade-aborts through the ordinary compensation
    /// machinery. Off by default.
    pub speculative_case2: bool,
}

impl ProtocolConfig {
    /// The full protocol of the paper (Section 4).
    pub fn semantic() -> Self {
        ProtocolConfig {
            name: "semantic",
            retain_locks: true,
            ancestor_check: true,
            speculative_case2: false,
        }
    }

    /// Retained locks without the commutative-ancestor rules: every formal
    /// conflict with a retained lock blocks until top-level commit.
    pub fn no_ancestor_check() -> Self {
        ProtocolConfig {
            name: "semantic/no-ancestor",
            retain_locks: true,
            ancestor_check: false,
            speculative_case2: false,
        }
    }

    /// The plain open nested protocol of Section 3 (no retained locks).
    /// Unsafe when encapsulation is bypassed.
    pub fn open_nested_plain() -> Self {
        ProtocolConfig {
            name: "open-nested/no-retention",
            retain_locks: false,
            ancestor_check: true,
            speculative_case2: false,
        }
    }

    /// Enable or disable speculative Case-2 grants. Enabling it on the
    /// stock semantic preset renames it so reports distinguish the two.
    pub fn with_speculation(mut self, on: bool) -> Self {
        self.speculative_case2 = on;
        if on && self.name == "semantic" {
            self.name = "semantic/speculative";
        }
        self
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

    #[test]
    fn speculation_knob() {
        assert!(!ProtocolConfig::semantic().speculative_case2, "off by default");
        assert!(!ProtocolConfig::no_ancestor_check().speculative_case2);
        assert!(!ProtocolConfig::open_nested_plain().speculative_case2);
        assert!(ProtocolConfig::semantic().with_speculation(true).speculative_case2);
    }
}
