//! Random source data for any workflow, so every scenario — hand-built or
//! generated — can be executed by the engine.

use etlopt_core::graph::Node;
use etlopt_core::rng::Rng;
use etlopt_core::scalar::Scalar;
use etlopt_core::workflow::Workflow;
use etlopt_engine::{Catalog, Table};

/// Build a catalog with `rows_per_source` random rows for every source
/// recordset of `wf`. Value distributions are keyed by attribute-name
/// convention:
///
/// * `pkey`, `*_id`, `session`, `acct` → small-range integers (duplicates
///   are likely, which exercises aggregation and PK checks),
/// * `date` → day-count dates,
/// * `is_*` → 0/1 flags,
/// * everything else → floats in `(0, 1000)` with a 3 % NULL rate (so
///   not-null checks actually drop rows).
pub fn catalog_for(wf: &Workflow, rows_per_source: usize, seed: u64) -> Catalog {
    let mut rng = Rng::seed_from_u64(seed);
    let mut catalog = Catalog::new();
    for src in wf.sources() {
        let Ok(Node::Recordset(rs)) = wf.graph().node(src) else {
            continue;
        };
        let mut table = Table::empty(rs.schema.clone());
        for _ in 0..rows_per_source {
            let row = rs
                .schema
                .iter()
                .map(|attr| random_value(attr.name(), &mut rng))
                .collect();
            table.push(row).expect("generated row matches schema");
        }
        catalog.insert(rs.name.clone(), table);
    }
    catalog
}

/// The catalog a seeded scenario executes against: [`catalog_for`] under
/// the scenario seed with a fixed tweak applied, so the data stream is not
/// the one the generator drew the scenario's shape from. The conformance
/// oracle and the server's `execute` / `adaptive` both call this, so a
/// (workflow, rows, seed) triple means the same data everywhere.
pub fn scenario_catalog(wf: &Workflow, rows_per_source: usize, seed: u64) -> Catalog {
    catalog_for(wf, rows_per_source, seed ^ 0xD1FF_C0DE)
}

fn random_value(attr: &str, rng: &mut Rng) -> Scalar {
    if attr == "pkey" || attr.ends_with("_id") || attr == "session" || attr == "acct" {
        Scalar::Int(rng.gen_range(1..200))
    } else if attr == "date" {
        Scalar::Date(rng.gen_range(0..365))
    } else if attr.starts_with("is_") {
        Scalar::Int(i64::from(rng.gen_bool(0.5)))
    } else if rng.gen_bool(0.03) {
        Scalar::Null
    } else {
        Scalar::Float((rng.gen_range(0.0..1000.0_f64) * 100.0).round() / 100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{Generator, GeneratorConfig, SizeCategory};
    use etlopt_engine::Executor;

    #[test]
    fn generated_scenarios_execute_on_generated_data() {
        for seed in 0..3 {
            let s = Generator::generate(GeneratorConfig {
                seed,
                category: SizeCategory::Small,
            });
            let catalog = catalog_for(&s.workflow, 200, seed);
            let result = Executor::new(catalog).run(&s.workflow).unwrap();
            assert_eq!(result.targets.len(), 1, "one DW target");
        }
    }

    #[test]
    fn datagen_is_deterministic() {
        let s = Generator::generate(GeneratorConfig {
            seed: 4,
            category: SizeCategory::Small,
        });
        let a = catalog_for(&s.workflow, 50, 9);
        let b = catalog_for(&s.workflow, 50, 9);
        for src in s.workflow.sources() {
            let name = &s.workflow.graph().recordset(src).unwrap().name;
            assert_eq!(a.table(name), b.table(name));
        }
    }

    #[test]
    fn flags_and_keys_follow_conventions() {
        use etlopt_core::schema::Schema;
        use etlopt_core::workflow::WorkflowBuilder;
        let mut b = WorkflowBuilder::new();
        let s = b.source("S", Schema::of(["pkey", "date", "is_bot", "v"]), 10.0);
        b.target("T", Schema::of(["pkey", "date", "is_bot", "v"]), s);
        let wf = b.build().unwrap();
        let catalog = catalog_for(&wf, 100, 1);
        let t = catalog.table("S").unwrap();
        for row in t.rows() {
            assert!(matches!(row[0], Scalar::Int(_)));
            assert!(matches!(row[1], Scalar::Date(_)));
            assert!(matches!(row[2], Scalar::Int(0 | 1)));
            assert!(matches!(row[3], Scalar::Float(_) | Scalar::Null));
        }
    }
}
