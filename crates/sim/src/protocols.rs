//! Registry of all concurrency control protocols under test.

use semcc_baselines::{ClosedNested, FlatObject2pl, Page2pl};
use semcc_core::{Discipline, Engine, EngineBuilder, HistorySink, ProtocolConfig};
use semcc_orderentry::Database;
use semcc_semantics::Storage;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Every protocol the experiments compare.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProtocolKind {
    /// The paper's full protocol: open nesting + retained semantic locks +
    /// commutative-ancestor conflict test.
    Semantic,
    /// Ablation: retained locks whose conflicts always wait for top-level
    /// commit (no Case 1 / Case 2).
    SemanticNoAncestor,
    /// The Section-3 protocol without retained locks — unsafe under
    /// bypassing (exhibits the Figure-5 anomaly).
    OpenNoRetention,
    /// Strict two-phase locking on objects.
    Object2pl,
    /// Strict two-phase locking on pages.
    Page2pl,
    /// Closed nested transactions (lock inheritance, Moss-style).
    ClosedNested,
}

impl ProtocolKind {
    /// All protocols, in report order.
    pub const ALL: [ProtocolKind; 6] = [
        ProtocolKind::Semantic,
        ProtocolKind::SemanticNoAncestor,
        ProtocolKind::OpenNoRetention,
        ProtocolKind::ClosedNested,
        ProtocolKind::Object2pl,
        ProtocolKind::Page2pl,
    ];

    /// The safe protocols (correct even with bypassing transactions).
    pub const SAFE: [ProtocolKind; 5] = [
        ProtocolKind::Semantic,
        ProtocolKind::SemanticNoAncestor,
        ProtocolKind::ClosedNested,
        ProtocolKind::Object2pl,
        ProtocolKind::Page2pl,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::Semantic => "semantic",
            ProtocolKind::SemanticNoAncestor => "semantic/no-ancestor",
            ProtocolKind::OpenNoRetention => "open-nested/no-retention",
            ProtocolKind::Object2pl => "2pl/object",
            ProtocolKind::Page2pl => "2pl/page",
            ProtocolKind::ClosedNested => "closed-nested",
        }
    }

    /// An [`EngineBuilder`] over the database with this protocol's lock
    /// manager or discipline installed. Chain the builder's own knobs
    /// (`op_delay`, `journal_capacity`, `snapshot_reads`, `sink`, ...) and
    /// `build()`.
    pub fn builder(self, db: &Database) -> EngineBuilder {
        let builder =
            Engine::builder(Arc::clone(&db.store) as Arc<dyn Storage>, Arc::clone(&db.catalog));
        match self {
            ProtocolKind::Semantic => builder.protocol(ProtocolConfig::semantic()),
            ProtocolKind::SemanticNoAncestor => {
                builder.protocol(ProtocolConfig::no_ancestor_check())
            }
            ProtocolKind::OpenNoRetention => builder.protocol(ProtocolConfig::open_nested_plain()),
            ProtocolKind::Object2pl => {
                builder.discipline(|deps| FlatObject2pl::new(deps) as Arc<dyn Discipline>)
            }
            ProtocolKind::Page2pl => {
                builder.discipline(|deps| Page2pl::new(deps) as Arc<dyn Discipline>)
            }
            ProtocolKind::ClosedNested => {
                builder.discipline(|deps| ClosedNested::new(deps) as Arc<dyn Discipline>)
            }
        }
    }
}

/// Build an engine over the database for the given protocol, every other
/// knob at its default.
pub fn build_engine(
    kind: ProtocolKind,
    db: &Database,
    sink: Option<Arc<dyn HistorySink>>,
) -> Arc<Engine> {
    let builder = kind.builder(db);
    match sink {
        Some(sink) => builder.sink(sink),
        None => builder,
    }
    .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use semcc_orderentry::DbParams;

    #[test]
    fn every_protocol_builds_and_names_match() {
        let db =
            Database::build(&DbParams { n_items: 2, orders_per_item: 1, ..Default::default() })
                .unwrap();
        for kind in ProtocolKind::ALL {
            let engine = build_engine(kind, &db, None);
            assert_eq!(engine.protocol_name(), kind.name(), "{kind:?}");
        }
    }

    /// Knobs chained onto `builder()` keep the kind's protocol, and the
    /// builder's own knobs hold across a later `.protocol(..)`.
    #[test]
    fn builder_knobs_and_protocol_compose_in_either_order() {
        let db =
            Database::build(&DbParams { n_items: 2, orders_per_item: 1, ..Default::default() })
                .unwrap();
        let engine = ProtocolKind::OpenNoRetention.builder(&db).journal_capacity(64).build();
        assert_eq!(engine.protocol_name(), ProtocolKind::OpenNoRetention.name());
        assert!(engine.journal().is_some());

        let engine = ProtocolKind::Semantic
            .builder(&db)
            .journal_capacity(64)
            .protocol(ProtocolConfig::no_ancestor_check())
            .build();
        assert_eq!(engine.protocol_name(), ProtocolKind::SemanticNoAncestor.name());
        assert!(engine.journal().is_some(), "journal capacity lost to a later .protocol()");
    }

    #[test]
    fn safe_excludes_no_retention() {
        assert!(!ProtocolKind::SAFE.contains(&ProtocolKind::OpenNoRetention));
        assert!(ProtocolKind::ALL.contains(&ProtocolKind::OpenNoRetention));
    }
}
